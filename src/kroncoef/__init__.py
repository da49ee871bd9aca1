"""Exact Kronecker and reduced Kronecker coefficients of symmetric groups,
computed through the partition algebra and cross-checked against character
theory, together with the underlying set-partition diagram calculus."""

from . import diagram_algebra, kronecker, lr, partitions, sym_characters
from .diagram_algebra import (
    AlgebraElement,
    SetPartitionDiagram,
    StandardModule,
    compose,
    crossing_profile,
    dim_standard,
    generator_e,
    generator_s,
    propagating_count,
    restrict_multiplicity,
    standard_module,
)
from .kronecker import (
    FormulaRangeError,
    SweepBounds,
    kron_hook,
    kron_two_row,
    kron_via_blocks,
    kron_via_dagger,
    kron_via_oracle,
    reduced_kron,
    reduced_kron_via_lr,
    stability_bound,
)
from .lr import lr_coeff, lr_coeff3
from .partitions import (
    BlockChain,
    PaddedPartition,
    Partition,
    block_chain,
    conjugate,
    content_last,
    dagger,
    is_n_pair,
    pad,
    partitions_of,
    partitions_up_to,
)
from .sym_characters import (
    CharacterTable,
    SpechtModel,
    character,
    character_table,
    class_size,
    induction_mult,
    kron_oracle,
    specht_dim,
    specht_model,
)

__version__ = "0.1.0"


# every lru_cache of the package, by module-qualified name
_CACHES = {
    f"{fn.__module__.removeprefix('kroncoef.')}.{fn.__name__}": fn
    for fn in (
        partitions.partitions_of,
        partitions.partitions_up_to,
        lr._lr,
        lr._lr3,
        sym_characters._char,
        sym_characters._classes,
        sym_characters._chars,
        sym_characters._weighted,
        sym_characters._specht_model_cached,
        kronecker._reduced_kron,
        diagram_algebra.bell,
        diagram_algebra._stirling2,
    )
}


def clear_caches() -> None:
    """Empty every memo table of the package: the lru_caches of all modules
    and the character tables.  Values computed afterwards are the same; only
    the memory the caches held is given back."""
    for cache in _CACHES.values():
        cache.cache_clear()
    with sym_characters._tables_lock:
        sym_characters._tables.clear()


def cache_stats() -> dict[str, dict[str, int]]:
    """Hits, misses and current size of every lru_cache of the package, by
    module-qualified name (e.g. "lr._lr")."""
    stats = {}
    for name, cache in _CACHES.items():
        info = cache.cache_info()
        stats[name] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
    return stats
