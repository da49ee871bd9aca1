"""Exact Kronecker and reduced Kronecker coefficients of symmetric groups,
computed through the partition algebra and cross-checked against character
theory, together with the underlying set-partition diagram calculus.

Importing the package loads none of its modules: each public name below is
imported from the module that defines it on first use, so a process loads
only the modules it calls."""

from functools import lru_cache
from importlib import import_module

__version__ = "0.1.0"

# every public name, by the module that defines it
_PUBLIC = {
    "diagram_algebra": (
        "AlgebraElement",
        "SetPartitionDiagram",
        "StandardModule",
        "compose",
        "crossing_profile",
        "dim_standard",
        "generator_e",
        "generator_s",
        "propagating_count",
        "restrict_multiplicity",
        "standard_module",
    ),
    "kronecker": (
        "FormulaRangeError",
        "kron_via_blocks",
        "kron_via_closed",
        "kron_via_dagger",
        "kron_via_oracle",
        "reduced_kron",
        "reduced_kron_via_lr",
        "stability_bound",
    ),
    "lr": ("lr_coeff", "lr_coeff3"),
    "partitions": (
        "Partition",
        "block_chain",
        "dagger",
        "is_n_pair",
        "pad",
        "partitions_of",
        "partitions_up_to",
    ),
    "sym_characters": (
        "CharacterTable",
        "SpechtModel",
        "character",
        "kron_oracle",
        "specht_dim",
        "specht_model",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_PUBLIC, *_MODULE_OF, "cache_stats", "clear_caches"]


def __getattr__(name: str):
    if name in _PUBLIC:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


# every lru_cache of the loaded modules, by module-qualified name; each
# module adds its caches as it defines them
_CACHES = {}


def _memo(fn):
    """fn behind an unbounded lru_cache that joins the package's registry."""
    cache = lru_cache(maxsize=None)(fn)
    _CACHES[f"{fn.__module__.removeprefix(__name__ + '.')}.{fn.__name__}"] = cache
    return cache


def clear_caches() -> None:
    """Empty every memo table of the package, the lru_caches of all loaded
    modules.  Values computed afterwards are the same; only the memory the
    caches held is given back."""
    for cache in _CACHES.values():
        cache.cache_clear()


def cache_stats() -> dict[str, dict[str, int]]:
    """Hits, misses and current size of every lru_cache of the loaded
    modules, by module-qualified name (e.g. "lr._skew")."""
    stats = {}
    for name, cache in _CACHES.items():
        info = cache.cache_info()
        stats[name] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
    return stats
