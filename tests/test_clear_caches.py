"""kroncoef.clear_caches empties every memo table and changes no value;
kroncoef.cache_stats reports on every one of them."""

import importlib
import pkgutil

import kroncoef
from kroncoef import Partition as P
from kroncoef import sym_characters
from kroncoef.diagram_algebra import bell, dim_standard, restriction_table
from kroncoef.kronecker import check_reduced, check_routes, reduced_kron_via_lr
from kroncoef.sym_characters import character_table, specht_model


def package_caches() -> dict:
    """Every lru_cache defined in a module of the package, found by attribute."""
    out = {}
    for info in pkgutil.iter_modules(kroncoef.__path__):
        mod = importlib.import_module(f"kroncoef.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                out[f"{info.name}.{name}"] = obj
    return out


def values():
    return (
        check_routes(P([2, 1]), P([2]), P([2, 1]), 7),
        check_routes(P([1, 1]), P([1, 1]), P([2]), 2),
        check_reduced(P([2, 1]), P([2, 1]), P([2, 1])),
        reduced_kron_via_lr(P([3, 1]), P([2, 2]), P([3, 2])),
        character_table(5).to_tsv(),
        specht_model(P([3, 2])).generators,
        restriction_table(P([2, 1]), 2, 2),
        dim_standard(4, P([2, 1])),
        bell(6),
    )


def test_clear_caches_empties_every_cache_and_keeps_values():
    before = values()
    caches = package_caches()
    assert {"kronecker._reduced_kron", "sym_characters._chars", "sym_characters._weighted"} <= set(caches)
    assert all(cache.cache_info().currsize for cache in caches.values()), "values() should fill every cache"
    kroncoef.clear_caches()
    assert {name: c.cache_info().currsize for name, c in caches.items()} == dict.fromkeys(caches, 0)
    assert not sym_characters._tables
    assert values() == before


def test_registry_holds_every_cache():
    assert kroncoef._CACHES == package_caches()


def test_cache_stats_reports_every_cache():
    kroncoef.clear_caches()
    values()
    stats = kroncoef.cache_stats()
    assert set(stats) == set(package_caches())
    for name, cache in package_caches().items():
        info = cache.cache_info()
        assert stats[name] == {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
        assert info.currsize, name
    kroncoef.clear_caches()
    assert all(entry == {"hits": 0, "misses": 0, "currsize": 0} for entry in kroncoef.cache_stats().values())
