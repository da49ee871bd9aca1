"""Seeded faults in a shared layer, and the sweep rows that must flag them:
the route-agreement sweep is a cross-check only if the routes do not share
their answer."""

import kroncoef
from kroncoef import kronecker, sym_characters
from kroncoef.cli import sweep_rows


def test_conjugate_character_swap_is_flagged(monkeypatch):
    # chi^(3,1) and chi^(2,1,1) exchanged, for the oracle and the kernel alike
    real = sym_characters._chars
    swap = {(3, 1): (2, 1, 1), (2, 1, 1): (3, 1)}

    def swapped(lam):
        return real(swap.get(lam, lam))

    monkeypatch.setattr(sym_characters, "_chars", swapped)
    monkeypatch.setattr(kronecker, "_chars", swapped)
    kroncoef.clear_caches()
    rows = dict.fromkeys(("kron_routes", "reduced_routes", "stabilization", "dim_identity"), 0)
    try:
        for check, _case, _values, ok in sweep_rows(3, 2, 4, 6):
            rows[check] += not ok
    finally:
        monkeypatch.undo()
        kroncoef.clear_caches()
    assert rows["kron_routes"] and rows["reduced_routes"], rows
