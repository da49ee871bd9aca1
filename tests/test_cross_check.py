"""Seeded faults in a shared layer, and the sweep rows that must flag them:
the route-agreement sweep is a cross-check only if the routes do not share
their answer."""

import pytest

import kroncoef
from kroncoef import Partition, kronecker, sym_characters
from kroncoef.cli import sweep_rows
from kroncoef.partitions import block_chain, dagger


def flagged(monkeypatch, patches) -> dict[str, int]:
    """The failed rows of each check of the 3/2/4/6 sweep with every
    (module, name, value) of patches set, caches cleared around it."""
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    kroncoef.clear_caches()
    rows = dict.fromkeys(("kron_routes", "reduced_routes", "stabilization", "dim_identity"), 0)
    try:
        for check, _case, _values, ok in sweep_rows(3, 2, 4, 6):
            rows[check] += not ok
    finally:
        monkeypatch.undo()
        kroncoef.clear_caches()
    return rows


def test_unpatched_sweep_flags_nothing(monkeypatch):
    assert not any(flagged(monkeypatch, []).values())


def test_conjugate_character_swap_is_flagged(monkeypatch):
    # chi^(3,1) and chi^(2,1,1) exchanged, for the oracle and the kernel alike
    real = sym_characters._chars
    swap = {(3, 1): (2, 1, 1), (2, 1, 1): (3, 1)}

    def swapped(lam):
        return real(swap.get(lam, lam))

    rows = flagged(monkeypatch, [(sym_characters, "_chars", swapped), (kronecker, "_chars", swapped)])
    assert rows["kron_routes"] and rows["reduced_routes"], rows


def chain_without_last(nu, n, r):
    # a chain of one entry kept whole: only the alternating tail goes
    chain = block_chain(nu, n, r)
    return chain[:-1] if len(chain) > 1 else chain


def dagger_first_row_raised(padded, i):
    result = dagger(padded, i)
    if i != 1:
        return result
    return Partition((result.parts[0] + 1,) + result.parts[1:])


@pytest.mark.parametrize(
    "name, fault",
    [("block_chain", chain_without_last), ("dagger", dagger_first_row_raised)],
    ids=["block_chain drops its last entry", "dagger(., 1) first row + 1"],
)
def test_route_fault_is_flagged(monkeypatch, name, fault):
    # the routes read block_chain and dagger as kronecker's names; the sweep
    # flags 219 and 234 kron_routes rows
    rows = flagged(monkeypatch, [(kronecker, name, fault)])
    assert rows["kron_routes"], rows
