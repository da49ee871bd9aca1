"""Every name a module imports is used in it, every function of the library
has a reader (a private one in the library, a public one in the library or
the README), and every public name of the package resolves to the object
its module defines: the package's __init__.py names its public API in a
table and imports a module on first use of one of its names.  Every Python
file of the repository also parses under the oldest supported Python."""

import ast
import glob
import importlib
import os
import re
from collections import Counter

import pytest

import kroncoef

ROOT = os.path.join(os.path.dirname(__file__), "..")
FILES = sorted(
    path
    for pattern in ("src/kroncoef/*.py", "tests/*.py")
    for path in glob.glob(os.path.join(ROOT, pattern))
)


# every Python file of the repository, for the parse under the oldest
# supported Python, pyproject.toml's requires-python
PY_FILES = sorted(
    path
    for top in ("src", "tests", "perfbench")
    for path in glob.glob(os.path.join(ROOT, top, "**", "*.py"), recursive=True)
)
OLDEST_PYTHON = (3, 10)


def test_the_oldest_python_parse_refuses_newer_syntax():
    ast.parse("match x:\n    case 1:\n        pass\n", feature_version=OLDEST_PYTHON)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11 and greater"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST_PYTHON)


@pytest.mark.parametrize("path", PY_FILES, ids=lambda p: os.path.relpath(p, ROOT))
def test_parses_under_the_oldest_python(path):
    with open(path, encoding="utf-8") as handle:
        ast.parse(handle.read(), filename=path, feature_version=OLDEST_PYTHON)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from a.b import c as d, e\nd(e)\n") == []
    assert unused_imports("import a.b\n") == ["line 1: a"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: os.path.relpath(p, ROOT))
def test_no_unused_import(path):
    with open(path, encoding="utf-8") as handle:
        assert unused_imports(handle.read()) == []


def _referenced(tree) -> list[str]:
    """Every name read in tree, as a Name or as an Attribute."""
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def dead_private_functions(sources: dict[str, str]) -> list[str]:
    """The private functions and methods (one leading underscore) of sources,
    by file name, that nothing in sources references outside their own
    definition: a recursive call does not count."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    references = Counter(ref for tree in trees.values() for ref in _referenced(tree))
    return [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and references[node.name] == _referenced(node).count(node.name)
    ]


def test_the_scan_sees_a_dead_helper():
    sources = {
        "a.py": "def _dead(n):\n    return _dead(n - 1)\n\ndef _used():\n    pass\n\nclass C:\n    def _m(self):\n        pass\n",
        "b.py": "from a import _used\n_used()\n",
    }
    assert dead_private_functions(sources) == ["a.py:1 _dead", "a.py:8 _m"]
    sources["b.py"] += "C()._m()\n"
    assert dead_private_functions(sources) == ["a.py:1 _dead"]


def library_sources() -> dict[str, str]:
    sources = {}
    for path in FILES:
        if path.startswith(os.path.join(ROOT, "src")):
            with open(path, encoding="utf-8") as handle:
                sources[os.path.relpath(path, ROOT)] = handle.read()
    return sources


def test_no_dead_private_function():
    assert dead_private_functions(library_sources()) == []


def readme_names(readme: str) -> set[str]:
    """The name each inline code span of readme starts with: its leading
    dotted identifier, less a "kroncoef." prefix; fenced blocks are skipped."""
    text = re.sub(r"```.*?```", "", readme, flags=re.S)
    spans = re.findall(r"`([^`]+)`", text)
    return {m[1] for span in spans if (m := re.match(r"(?:kroncoef\.)?([A-Za-z_][\w.]*)", span.strip()))}


def unread_public_names(sources: dict[str, str], readme: str) -> list[str]:
    """The public module-level functions and classes of sources, and the
    public methods of those classes, that nothing in sources references
    outside their own definition and that no code span of readme names, as
    name or Class.name."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    references = Counter(ref for tree in trees.values() for ref in _referenced(tree))
    named = readme_names(readme)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            items = [(node, node.name)]
            if isinstance(node, ast.ClassDef):
                items += [(m, f"{node.name}.{m.name}") for m in node.body if isinstance(m, ast.FunctionDef)]
            for item, label in items:
                if item.name.startswith("_") or label in named:
                    continue
                if references[item.name] == _referenced(item).count(item.name):
                    found.append(f"{name}:{item.lineno} {label}")
    return found


def test_the_scan_sees_an_unread_public_name():
    sources = {
        "a.py": "def dead(n):\n    return dead(n - 1)\n\ndef used():\n    pass\n\nclass C:\n    def m(self):\n        pass\n\n    def __eq__(self, other):\n        pass\n\n    def _p(self):\n        pass\n",
        "b.py": "from a import used\nused()\n",
    }
    assert unread_public_names(sources, "") == ["a.py:1 dead", "a.py:7 C", "a.py:8 C.m"]
    readme = "Use `dead(n)` and `kroncoef.C`.\n```\n`C.m`\n```\nNot `m` nor `x.C.m`.\n"
    assert unread_public_names(sources, readme) == ["a.py:8 C.m"]
    sources["b.py"] += "C().m()\n"
    assert unread_public_names(sources, "") == ["a.py:1 dead"]


def test_every_public_name_has_a_reader():
    """A public function, class or method is read by the library or named in
    the README; what only its own tests read is not part of the library."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        assert unread_public_names(library_sources(), handle.read()) == []


def test_public_names_resolve_to_their_modules():
    """Each name of the table is the attribute of the module named for it."""
    wrong = [
        f"{module}.{name}"
        for module, names in kroncoef._PUBLIC.items()
        for name in names
        if getattr(kroncoef, name) is not getattr(importlib.import_module(f"kroncoef.{module}"), name)
    ]
    assert wrong == []
    for module in kroncoef._PUBLIC:
        assert getattr(kroncoef, module) is importlib.import_module(f"kroncoef.{module}")


def test_public_names_are_listed():
    names = [*kroncoef._PUBLIC, *kroncoef._MODULE_OF, "cache_stats", "clear_caches"]
    assert sorted(kroncoef.__all__) == sorted(set(names))
    assert set(names) <= set(dir(kroncoef))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'kron_via_nothing'"):
        kroncoef.kron_via_nothing
    assert not hasattr(kroncoef, "_chars")
