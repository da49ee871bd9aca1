"""Per-module tracing installed from outside the library.

``Tracer.install`` wraps the public functions named in ``LAYERS`` and rebinds
each wrapper at every ``kroncoef`` module that holds the original, so calls
between library modules are seen too.  Methods are wrapped on their class;
``Partition`` construction is counted by wrapping ``Partition.__init__``.
A name the library no longer has is skipped, and its metrics read zero.

Every call records its duration; self time is the duration minus the time of
traced calls made inside it.  Totals count only the outermost activation of a
function, so recursion through a wrapper is not counted twice.  Spans (name,
start, end, parent) are kept in memory up to ``SPAN_CAP`` and written out by
the caller at the end of the run.

Counters measured at the same boundaries:

* dagger terms: each ``dagger`` call made inside ``kron_via_dagger`` is one
  term; it is useful when the dagger partition has at most |lam| + |mu| boxes,
  since the reduced coefficient of a larger third factor is zero;
* block chain lengths: the length of every chain ``block_chain`` returns;
* caches: ``cache_info()`` of every ``lru_cache`` found by attribute on the
  library modules, as differences over the traced region.
"""

from __future__ import annotations

import sys
from itertools import count
from time import perf_counter_ns

LAYERS = {
    "partitions": ("Partition", "pad", "block_chain", "dagger", "partitions_of"),
    "kronecker": ("kron_via_oracle", "kron_via_blocks", "kron_via_dagger", "reduced_kron", "reduced_kron_via_lr"),
    "sym_characters": ("kron_oracle", "character", "specht_model", "SpechtModel.matrix_of"),
    "lr": ("lr_coeff", "lr_coeff3"),
    "diagram_algebra": (
        "compose",
        "standard_module",
        "StandardModule.action_matrix",
        "restrict_multiplicity",
        "dim_standard",
    ),
}
SPAN_CAP = 20000
TRACE_PREFIX = "PERFBENCH_TRACE "


def library_modules() -> dict[str, object]:
    return {
        name.split(".", 1)[1]: mod
        for name, mod in list(sys.modules.items())
        if name.startswith("kroncoef.") and mod is not None
    }


def find_caches() -> dict[str, object]:
    """``module.name`` -> lru_cache wrapper, for caches defined in each module."""
    out = {}
    for short, mod in library_modules().items():
        for attr, obj in vars(mod).items():
            info = getattr(obj, "cache_info", None)
            if callable(info) and getattr(obj, "__module__", None) == mod.__name__:
                out[f"{short}.{attr}"] = obj
    return out


def reduced_size(p, n: int) -> int:
    """|p| after the library's reading of p at degree n (strip the first row
    of a partition of n)."""
    parts = tuple(p)
    size = sum(parts)
    return size - parts[0] if size == n and parts else size


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.stack: list[list[int]] = []  # [child_ns, span_id] per open call
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent id or -1)
        self.ids = count()
        self.dagger_bounds: list[int] = []
        self.counters = {"dagger_terms": 0, "dagger_useful": 0, "chains": 0, "chain_len_total": 0}
        self.caches: dict[str, object] = {}
        self.cache_start: dict[str, tuple] = {}
        self.installed: list[str] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.caches = find_caches()
        modules = library_modules()
        for layer, names in LAYERS.items():
            mod = modules.get(layer)
            if mod is None:
                continue
            for name in names:
                if name == "Partition":
                    cls = getattr(mod, "Partition", None)
                    if cls is not None:
                        cls.__init__ = self.wrap(f"{layer}.Partition", cls.__init__)
                        self.installed.append(f"{layer}.Partition")
                elif "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name, None)
                    if cls is not None and callable(getattr(cls, meth, None)):
                        setattr(cls, meth, self.wrap(f"{layer}.{name}", getattr(cls, meth)))
                        self.installed.append(f"{layer}.{name}")
                else:
                    original = getattr(mod, name, None)
                    if original is None:
                        continue
                    wrapper = self.wrap(f"{layer}.{name}", original)
                    for other in list(modules.values()) + [sys.modules.get("kroncoef")]:
                        for attr, obj in list(vars(other).items()):
                            if obj is original:
                                setattr(other, attr, wrapper)
                    self.installed.append(f"{layer}.{name}")

    def start(self) -> None:
        """Begin the traced region: counts and cache differences start here."""
        self.cache_start = {k: tuple(c.cache_info()) for k, c in self.caches.items()}

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack, spans, ids = self.stack, self.spans, self.ids
        depth = [0]
        enter = leave = on_result = None
        if name == "kronecker.kron_via_dagger":
            bounds = self.dagger_bounds

            def enter(args):
                lam, mu, _nu, n = args[:4]
                bounds.append(reduced_size(lam, n) + reduced_size(mu, n))

            leave = bounds.pop
        elif name == "partitions.dagger":
            counters, bounds = self.counters, self.dagger_bounds

            def on_result(result):
                if bounds:
                    counters["dagger_terms"] += 1
                    if sum(result) <= bounds[-1]:
                        counters["dagger_useful"] += 1

        elif name == "partitions.block_chain":
            counters = self.counters

            def on_result(result):
                counters["chains"] += 1
                counters["chain_len_total"] += len(result)

        def traced(*args, **kwargs):
            if enter is not None:
                enter(args)
            frame = [0, next(ids)]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            depth[0] += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                dt = t1 - t0
                stack.pop()
                depth[0] -= 1
                stats[0] += 1
                stats[2] += dt - frame[0]
                if depth[0] == 0:
                    stats[1] += dt
                if stack:
                    stack[-1][0] += dt
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], name, t0, t1, parent))
                if leave is not None:
                    leave()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- report --------------------------------------------------------------

    def report(self) -> dict:
        caches = {}
        for key, cache in self.caches.items():
            hits0, misses0, _maxsize, _size0 = self.cache_start.get(key, (0, 0, None, 0))
            info = cache.cache_info()
            caches[key] = {"hits": info.hits - hits0, "misses": info.misses - misses0, "currsize": info.currsize}
        return {
            "functions": {k: {"calls": v[0], "total_ns": v[1], "self_ns": v[2]} for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "caches": caches,
            "installed": list(self.installed),
        }


def merge_reports(reports: list[dict]) -> dict:
    """Sum several processes' reports (the traced CLI children)."""
    out = {"functions": {}, "counters": {}, "caches": {}, "installed": []}
    for rep in reports:
        for k, v in rep["functions"].items():
            acc = out["functions"].setdefault(k, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for field in acc:
                acc[field] += v[field]
        for k, v in rep["counters"].items():
            out["counters"][k] = out["counters"].get(k, 0) + v
        for k, v in rep["caches"].items():
            acc = out["caches"].setdefault(k, {"hits": 0, "misses": 0, "currsize": 0})
            acc["hits"] += v["hits"]
            acc["misses"] += v["misses"]
            acc["currsize"] = max(acc["currsize"], v["currsize"])
        for name in rep["installed"]:
            if name not in out["installed"]:
                out["installed"].append(name)
    return out
