"""kroncoef.clear_caches empties every memo table and changes no value;
kroncoef.cache_stats reports on every one of them."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import kroncoef
from kroncoef import Partition as P
from kroncoef.diagram_algebra import bell, dim_standard, restriction_table
from kroncoef.kronecker import kron_via_blocks, kron_via_dagger, kron_via_oracle, reduced_kron, reduced_kron_via_lr
from kroncoef.lr import lr_coeff3
from kroncoef.partitions import partitions_up_to
from kroncoef.sym_characters import CharacterTable, character, specht_model


def package_caches() -> dict:
    """Every lru_cache defined in a module of the package, found by attribute."""
    out = {}
    for info in pkgutil.iter_modules(kroncoef.__path__):
        mod = importlib.import_module(f"kroncoef.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                out[f"{info.name}.{name}"] = obj
    return out


def routes(*args):
    return tuple(route(*args) for route in (kron_via_oracle, kron_via_blocks, kron_via_dagger))


def values():
    return (
        routes(P([2, 1]), P([2]), P([2, 1]), 7),
        routes(P([1, 1]), P([1, 1]), P([2]), 2),
        reduced_kron(P([2, 1]), P([2, 1]), P([2, 1])),
        reduced_kron_via_lr(P([2, 1]), P([2, 1]), P([2, 1])),
        reduced_kron_via_lr(P([3, 1]), P([2, 2]), P([3, 2])),
        lr_coeff3(P([2, 1]), P([1]), P([1]), P([3, 2])),
        CharacterTable(5).to_tsv(),
        character(P([3, 1]), P([2, 2])),
        specht_model(P([3, 2])).generators,
        restriction_table(P([2, 1]), 2, 2),
        dim_standard(4, P([2, 1])),
        bell(6),
        partitions_up_to(3),
    )


def test_clear_caches_empties_every_cache_and_keeps_values():
    before = values()
    caches = package_caches()
    assert {"kronecker._reduced_kron", "sym_characters._chars", "sym_characters._weighted"} <= set(caches)
    assert all(cache.cache_info().currsize for cache in caches.values()), "values() should fill every cache"
    kroncoef.clear_caches()
    assert {name: c.cache_info().currsize for name, c in caches.items()} == dict.fromkeys(caches, 0)
    assert values() == before


def test_registry_holds_every_cache():
    assert kroncoef._CACHES == package_caches()


def test_cache_stats_reports_every_cache():
    kroncoef.clear_caches()
    values()
    stats = kroncoef.cache_stats()
    assert set(stats) == set(package_caches())
    # one class index, beside the class enumeration
    assert "partitions._class_index" in stats
    assert "sym_characters._class_index" not in stats
    for name, cache in package_caches().items():
        info = cache.cache_info()
        assert stats[name] == {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
        assert info.currsize, name
    kroncoef.clear_caches()
    assert all(entry == {"hits": 0, "misses": 0, "currsize": 0} for entry in kroncoef.cache_stats().values())


def test_registry_holds_a_cache_that_was_patched_before_first_use():
    # a fresh process, so that nothing has read the registry before the patch
    code = (
        "import json, kroncoef\n"
        "from kroncoef import sym_characters\n"
        "sym_characters._chars = lambda lam: ()\n"
        "kroncoef.clear_caches()\n"
        "print(json.dumps(kroncoef.cache_stats()))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout)
    assert {"partitions._classes", "sym_characters._chars", "sym_characters._weighted"} <= set(stats)
    assert "kronecker._reduced_kron" not in stats, "only the loaded modules report"
