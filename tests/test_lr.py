from itertools import permutations

from kroncoef.lr import _skew, lr_coeff, lr_coeff3
from kroncoef.partitions import Partition, partitions_of
from oracles import contains, induction_mult, lr_lattice

P = Partition


def split_triples(max_total):
    for total in range(max_total + 1):
        for nu in partitions_of(total):
            for a in range(total + 1):
                for lam in partitions_of(a):
                    for mu in partitions_of(total - a):
                        yield lam, mu, nu


def test_examples():
    assert lr_coeff(P([2, 1]), P(), P([2, 1])) == 1
    assert lr_coeff(P([2, 1]), P([1]), P([2, 2])) == 1
    assert lr_coeff(P([2, 1]), P([2, 1]), P([3, 2, 1])) == 2


def test_three_factor_examples():
    assert lr_coeff3(P(), P(), P(), P()) == 1
    assert lr_coeff3(P([1]), P([1]), P([1]), P([3])) == 1
    assert lr_coeff3(P([1]), P([1]), P([1]), P([2, 1])) == 2


def test_zero_on_size_mismatch_or_noncontainment():
    assert lr_coeff(P([2]), P([1]), P([2])) == 0
    assert lr_coeff(P([3]), P([1]), P([2, 2])) == 0
    assert lr_coeff3(P([1]), P([1]), P([1]), P([2])) == 0


def test_symmetry_up_to_8():
    for lam, mu, nu in split_triples(8):
        assert lr_coeff(lam, mu, nu) == lr_coeff(mu, lam, nu)


def test_matches_lattice_word_count_up_to_8():
    # a second, structurally different implementation must agree
    for lam, mu, nu in split_triples(8):
        assert lr_coeff(lam, mu, nu) == lr_lattice(lam, mu, nu), (lam, mu, nu)


def test_matches_induction_oracle_up_to_8():
    for lam, mu, nu in split_triples(8):
        assert lr_coeff(lam, mu, nu) == induction_mult(lam, mu, nu), (lam, mu, nu)


def test_each_prefilter_condition_rejects_alone():
    # each triple fails exactly one necessary condition for a nonzero
    # coefficient: mu inside nu, nu dominated by the row-wise sum, nu
    # dominating the union of the parts; the skew expansion must leave it out
    for lam, mu, nu in [((1,), (2, 2), (3, 1, 1)), ((1, 1), (1, 1), (3, 1)), ((2,), (2,), (2, 1, 1))]:
        assert lr_coeff(P(lam), P(mu), P(nu)) == 0 == lr_lattice(P(lam), P(mu), P(nu))
        assert mu not in _skew(nu, lam)


def test_skew_expansion_is_the_lattice_word_count_up_to_8():
    for total in range(9):
        for outer in partitions_of(total):
            for a in range(total + 1):
                for inner in partitions_of(a):
                    expansion = _skew(outer.parts, inner.parts)
                    counts = {mu.parts: lr_lattice(inner, mu, outer) for mu in partitions_of(total - a)}
                    assert expansion == {mu: c for mu, c in counts.items() if c}, (outer, inner)
                    assert all(expansion.values())


def test_pieri_up_to_8():
    def horiz(lam, nu):
        return contains(nu, lam) and all(
            nu.row(i + 1) <= lam.row(i) for i in range(1, len(nu) + 1)
        )

    for total in range(9):
        for nu in partitions_of(total):
            for a in range(total + 1):
                k = total - a
                for lam in partitions_of(a):
                    row = P([k] if k else [])
                    col = P([1] * k)
                    expect_row = 1 if (k and horiz(lam, nu)) or (not k and lam == nu) else 0
                    expect_col = (
                        1
                        if (k and horiz(lam.conjugate(), nu.conjugate()))
                        or (not k and lam == nu)
                        else 0
                    )
                    assert lr_coeff(lam, row, nu) == expect_row
                    assert lr_coeff(lam, col, nu) == expect_col


def test_three_factor_pairing_independence_up_to_8():
    for total in range(9):
        for nu in partitions_of(total):
            for a in range(total + 1):
                for b in range(total - a + 1):
                    c = total - a - b
                    for lam in partitions_of(a):
                        for mu in partitions_of(b):
                            for eta in partitions_of(c):
                                base = lr_coeff3(lam, mu, eta, nu)
                                other = sum(
                                    lr_coeff(mu, eta, xi) * lr_coeff(lam, xi, nu)
                                    for xi in partitions_of(b + c)
                                )
                                assert base == other, (lam, mu, eta, nu)


def test_three_factor_argument_symmetry_small():
    for total in range(7):
        for nu in partitions_of(total):
            for a in range(total + 1):
                for b in range(total - a + 1):
                    for lam in partitions_of(a):
                        for mu in partitions_of(b):
                            for eta in partitions_of(total - a - b):
                                vals = {
                                    lr_coeff3(x, y, z, nu)
                                    for x, y, z in permutations((lam, mu, eta))
                                }
                                assert len(vals) == 1, (lam, mu, eta, nu)
