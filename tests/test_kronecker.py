from collections import Counter
from itertools import groupby, permutations

import pytest

import kroncoef
from conftest import default_route_rows
from kroncoef import kronecker
from kroncoef.kronecker import (
    FormulaRangeError,
    _daggers,
    kron_via_blocks,
    kron_via_closed,
    kron_via_dagger,
    kron_via_oracle,
    reduced_kron,
    reduced_kron_via_lr,
    stability_bound,
    valid_n_range,
)
from kroncoef.cli import KRON_ROUTES, route_cases
from kroncoef.lr import lr_coeff
from kroncoef.partitions import Partition, _reduce, block_chain, dagger, pad, partitions_of, partitions_up_to
from kroncoef.sym_characters import kron_oracle
from oracles import reduced_kron_lr_sum, restricted_by_sorting

P = Partition


class TestStabilityBound:
    def test_examples(self):
        assert stability_bound(P(), P(), P()) == 0
        assert stability_bound(P([1]), P([1]), P([2])) == 4
        assert stability_bound(P([1]), P([1]), P([1, 1])) == 3

    def test_symmetric_in_first_two(self):
        for lam in partitions_up_to(3):
            for mu in partitions_up_to(3):
                for nu in partitions_up_to(3):
                    assert stability_bound(lam, mu, nu) == stability_bound(mu, lam, nu)


class TestReduceModN:
    def test_partition_of_n_is_stripped(self):
        assert _reduce(P([1, 1]), 2) == (1,)
        assert _reduce(P([2]), 2) == ()
        assert _reduce(P([4, 1]), 5) == (1,)

    def test_small_partition_passes_through(self):
        assert _reduce(P([1]), 4) == (1,)

    def test_invalid_padding_rejected(self):
        with pytest.raises(ValueError):
            _reduce(P([2, 1]), 4)


class TestReducedKron:
    def test_degree_two_table(self):
        for nu in [P(), P([1]), P([1, 1]), P([2])]:
            assert reduced_kron(P([1]), P([1]), nu) == 1
        for w in (3, 4, 5):
            for nu in partitions_of(w):
                assert reduced_kron(P([1]), P([1]), nu) == 0

    def test_murnaghan_littlewood_up_to_8(self):
        # at |lam| + |mu| = |nu| the reduced coefficient is the LR coefficient
        for total in range(9):
            for nu in partitions_of(total):
                for a in range(total + 1):
                    for lam in partitions_of(a):
                        for mu in partitions_of(total - a):
                            assert reduced_kron(lam, mu, nu) == lr_coeff(lam, mu, nu), (
                                lam,
                                mu,
                                nu,
                            )

    def test_vanishing_beyond_total_size(self):
        assert reduced_kron(P([2]), P([1]), P([4])) == 0
        assert reduced_kron(P(), P(), P([1])) == 0

    def test_empty_triple(self):
        assert reduced_kron(P(), P(), P()) == 1


class TestRoutes:
    def test_nonsemisimple_degree_two(self):
        for route in (kron_via_blocks, kron_via_dagger, kron_via_oracle):
            assert route(P([1, 1]), P([1, 1]), P([2]), 2) == 1
            assert route(P([1, 1]), P([1, 1]), P([1, 1]), 2) == 0

    def test_blocks_examples(self):
        assert kron_via_blocks(P([1]), P([1]), P([2]), 4) == 1

    def test_dagger_examples(self):
        assert kron_via_dagger(P([1]), P([1]), P([1, 1]), 5) == 1
        assert kron_oracle(P([4, 1]), P([4, 1]), P([3, 1, 1])) == 1

    def test_vanishing_clause(self):
        # |nu| > |lam| + |mu| forces zero through the block route
        assert kron_via_blocks(P([1]), P([1]), P([3]), 7) == 0
        assert kron_via_blocks(P([1]), P([1]), P([2, 1]), 7) == 0

    def test_padding_failure_raises(self):
        with pytest.raises(ValueError):
            kron_via_blocks(P([2, 1]), P([1]), P([1]), 4)

    def test_zero_n_refused(self):
        # on every route of kron --route but all, a plain ValueError on the
        # closed route too: no n makes the formula valid, so no other route
        # helps; a float n is refused as a float degree is, not truncated
        for route in (getattr(kronecker, f"kron_via_{name}") for name in (*KRON_ROUTES, "closed")):
            with pytest.raises(ValueError, match="positive integer") as exc:
                route(P(), P(), P(), 0)
            assert not isinstance(exc.value, FormulaRangeError)
            with pytest.raises(TypeError):
                route(P([1]), P([1]), P([1]), 4.5)

    def test_blocks_and_dagger_do_not_use_the_oracle(self, monkeypatch):
        # The class sum reads the characters of the reduced lam and mu and of
        # the third factors the routes sum over, and calls no Kronecker
        # coefficient.  A padded label is read only where it equals one of
        # those, e.g. pad((1), 3) = (2, 1) = dagger(pad((1, 1), 3), 1).
        kroncoef.clear_caches()
        oracle, chars = [], []

        def spy(real, seen):
            def call(lam, *rest):
                seen.append(lam)
                return real(lam, *rest)

            return call

        monkeypatch.setattr(kronecker, "_kron", spy(kronecker._kron, oracle))
        monkeypatch.setattr(kronecker, "_chars", spy(kronecker._chars, chars))
        for lam, mu, nu, n in route_cases(2, 3):
            start = len(chars)
            kron_via_blocks(lam, mu, nu, n)
            kron_via_dagger(lam, mu, nu, n)
            lam_r, mu_r, nu_r = (P(_reduce(p, n)) for p in (lam, mu, nu))
            padded = pad(nu_r, n)
            allowed = {lam_r, mu_r, *block_chain(nu_r, n, lam_r.size + mu_r.size)}
            allowed |= {dagger(padded, i) for i in range(len(pad(lam_r, n)) * len(pad(mu_r, n)))}
            seen = set(map(P, chars[start:]))
            assert seen <= allowed, (lam, mu, nu, n, seen - allowed)
        assert oracle == []
        assert chars

    def test_non_integral_class_sum_raises(self, monkeypatch):
        # chi^(2) becomes (2, 1), and the split l1 = 2 of (2)^3 sums to 9/2
        real = kronecker._chars
        monkeypatch.setattr(kronecker, "_chars", lambda lam: (real(lam)[0] + 1,) + real(lam)[1:])
        kroncoef.clear_caches()
        try:
            with pytest.raises(ArithmeticError, match="non-integral"):
                kronecker._reduced_kron((2,), (2,), (2,))
        finally:
            kroncoef.clear_caches()

    def test_block_chain_is_the_dagger_list(self):
        # entry by entry, over a larger range than the default sweep's
        for lam, mu, nu, n in route_cases(5, 1):
            chain = block_chain(nu, n, lam.size + mu.size)
            assert chain == tuple(_daggers(lam.parts, mu.parts, nu.parts, n)), (lam, mu, nu, n)
        # an oversize third factor, which kron_via_blocks answers with 0
        # before any chain: no dagger term, and no chain in those degrees
        for lam in partitions_up_to(2):
            for mu in partitions_up_to(2):
                for nu in partitions_of(lam.size + mu.size + 1):
                    for n in valid_n_range(lam, mu, nu, 1):
                        assert list(_daggers(lam.parts, mu.parts, nu.parts, n)) == [], (lam, mu, nu, n)
                        with pytest.raises(ValueError, match="does not lie in degrees"):
                            block_chain(nu, n, lam.size + mu.size)

    def test_dagger_truncation_is_exact(self):
        # the untruncated sum over all len(pad(lam)) * len(pad(mu)) terms
        for lam, mu, nu, n in route_cases(3, 3):
            lam_r, mu_r, nu_r = (P(_reduce(p, n)) for p in (lam, mu, nu))
            nu_padded = pad(nu_r, n)
            count = len(pad(lam_r, n)) * len(pad(mu_r, n))
            daggers = [dagger(nu_padded, i) for i in range(count)]
            sizes = [d.size for d in daggers]
            assert all(a < b for a, b in zip(sizes, sizes[1:])), (nu_padded, sizes)
            full = sum((-1) ** i * reduced_kron(lam_r, mu_r, d) for i, d in enumerate(daggers))
            assert kron_via_dagger(lam, mu, nu, n) == full, (lam, mu, nu, n)


class TestReducedViaLR:
    def test_examples(self):
        assert reduced_kron_via_lr(P([1]), P([1]), P([2])) == 1
        assert reduced_kron_via_lr(P([1]), P([1]), P()) == 1
        assert reduced_kron_via_lr(P([2, 1]), P([2, 1]), P([2, 1])) == reduced_kron(
            P([2, 1]), P([2, 1]), P([2, 1])
        )

    @pytest.mark.parametrize(
        "lam, mu, nu, value",
        [
            ([5, 3, 2], [2, 2, 2, 2, 1, 1], [2, 2, 1, 1, 1, 1], 573),
            ([4, 2, 2, 2], [4, 3, 2, 1, 1], [1, 1], 2),
            ([9, 1], [8, 3, 1], [3, 2], 52),
        ],
    )
    def test_weight_ten_to_twelve(self, lam, mu, nu, value):
        # triples of the reduced_large benchmark sample
        assert reduced_kron_via_lr(P(lam), P(mu), P(nu)) == reduced_kron(P(lam), P(mu), P(nu)) == value

    @pytest.mark.parametrize(
        "k, value",
        [(5, 1719128856), (6, 212078195940280), (7, 390313003904649313144)],
        ids=["stair5", "stair6", "stair7"],
    )
    def test_staircase(self, k, value):
        # (k, ..., 1) twice and (k+1, ..., 1); stair7 is at weight 36
        stair = P(range(k, 0, -1))
        assert reduced_kron_via_lr(stair, stair, P(range(k + 1, 0, -1))) == value

    def test_restricted_tables_match_the_sorted_join(self):
        for size in range(10):
            for outer in partitions_of(size):
                for x in range(size + 1):
                    for y in range(size - x + 1):
                        c = size - x - y
                        expect = restricted_by_sorting(outer.parts, x, y, c)
                        assert kronecker._restricted(outer.parts, x, y, c) == expect, (outer, x, y, c)

    def test_paper_lr_sum_up_to_4(self):
        # the source paper's positive sum of LR products, term by term
        for lam in partitions_up_to(4):
            for mu in partitions_up_to(4):
                for w in range(lam.size + mu.size + 1):
                    for nu in partitions_of(w):
                        assert reduced_kron_via_lr(lam, mu, nu) == reduced_kron_lr_sum(lam, mu, nu), (lam, mu, nu)

    def test_vanishing_bounds_against_the_oracle(self):
        # every triple with |lam|, |mu| <= 4 and |nu| <= |lam| + |mu| that
        # fails a first-row bound rho_1 <= |X| + Y_1, (rho, X, Y) any order of
        # the triple, or the size triangle with lam or mu as the largest, has
        # the oracle's reduced coefficient 0; and each bound fails for some
        # triple and is met with equality by some nonzero one
        failed, tight, count = Counter(), Counter(), 0
        for lam in partitions_up_to(4):
            for mu in partitions_up_to(4):
                for w in range(lam.size + mu.size + 1):
                    for nu in partitions_of(w):
                        count += 1
                        triple, g = (lam, mu, nu), reduced_kron(lam, mu, nu)
                        total = lam.size + mu.size + nu.size
                        bounds = [((rho, x, y), triple[rho].row(1), triple[x].size + triple[y].row(1))
                                  for rho, x, y in permutations(range(3))]
                        bounds += [(i, triple[i].size, total - triple[i].size) for i in (0, 1)]
                        for name, lhs, rhs in bounds:
                            if lhs > rhs:
                                failed[name] += 1
                                assert g == 0, (name, lam, mu, nu)
                            elif lhs == rhs and g:
                                tight[name] += 1
        assert count == 4648
        assert len(failed) == 8 and set(tight) == set(failed)

    def test_agreement_small(self):
        for lam in partitions_up_to(3):
            for mu in partitions_up_to(3):
                for w in range(lam.size + mu.size + 1):
                    for nu in partitions_of(w):
                        assert reduced_kron_via_lr(lam, mu, nu) == reduced_kron(lam, mu, nu), (lam, mu, nu)


class TestClosedFormulas:
    def test_two_row_examples(self):
        assert kron_via_closed(P([1]), P([1]), P([2]), 4) == 1
        assert kron_via_closed(P([1]), P([1]), P(), 4) == 1
        assert kron_via_closed(P([2]), P([2]), P([2]), 8) == kron_oracle(
            P([6, 2]), P([6, 2]), P([6, 2])
        )

    def test_hook_examples(self):
        assert kron_via_closed(P([1]), P([1]), P([1, 1]), 4) == 1
        assert kron_via_closed(P([1]), P([1]), P([1]), 4) == 1
        assert kron_via_closed(P([2, 1]), P([2, 1]), P([1, 1, 1]), 9) == kron_via_oracle(
            P([2, 1]), P([2, 1]), P([1, 1, 1]), 9
        )

    def test_out_of_range(self):
        with pytest.raises(FormulaRangeError):
            kron_via_closed(P([1, 1, 1]), P([1, 1, 1]), P([1]), 4)
        with pytest.raises(FormulaRangeError):
            kron_via_closed(P([1, 1]), P([1, 1]), P([1, 1]), 3)
        # (n-k, k) with n < 2k has no padding: the routes' ValueError
        with pytest.raises(ValueError) as exc:
            kron_via_closed(P([1]), P([1]), P([3]), 5)
        assert type(exc.value) is ValueError

    def test_other_shapes_answered_from_n0(self):
        # a nu that is neither two-row nor a hook has the one range rule:
        # refused below n0 = min(stability bound, |lam| + |mu| + nu_2 - 1),
        # the oracle's value from n0 on
        lam = P([2, 1])
        for nu, n0 in (([2, 2], 7), ([2, 1], 6), ([3, 1, 1], 6)):
            nu = P(nu)
            for n in range(nu.size + nu.row(1), 13):
                if n < n0:
                    with pytest.raises(FormulaRangeError, match=f"needs n >= {n0}, got n={n}$"):
                        kron_via_closed(lam, lam, nu, n)
                else:
                    assert kron_via_closed(lam, lam, nu, n) == kron_via_oracle(lam, lam, nu, n), (nu, n)

    def test_two_row_and_hook_cut_is_uniform(self):
        # the source paper's claim: from n = |lam| + |mu| on, g(lam, mu, nu)
        # = gbar(lam, mu, nu) - gbar(lam, mu, nu+), nu+ = dagger(pad(nu, n), 1),
        # for every two-row or hook nu, and not for other shapes, whose range
        # can start later; over the default sweep's route rows, g its oracle
        counts = Counter()
        differing = []
        for lam, mu, nu, n, values in default_route_rows():
            if n < lam.size + mu.size:
                continue
            cut = reduced_kron_via_lr(lam, mu, nu) - reduced_kron_via_lr(lam, mu, dagger(pad(nu, n), 1))
            shape = "two-row or hook" if len(nu) <= 1 or nu.row(1) == 1 else "other"
            counts[shape] += 1
            if cut != values["oracle"]:
                assert shape == "other", (lam, mu, nu, n, cut, values)
                differing.append((lam, mu, nu, n, cut, values["oracle"]))
        assert counts == {"two-row or hook": 6073, "other": 13944}
        assert len(differing) == 57
        assert differing[0] == (P([1, 1]), P([2, 2]), P([2, 2]), 6, -1, 0)

    def test_padded_and_reduced_nu_agree(self):
        # nu and pad(nu, n) are one label at n: one value, or one refusal
        for lam in partitions_up_to(3):
            for mu in partitions_up_to(3):
                for k in range(4):
                    for nu in (P([k] if k else []), P([1] * k)):
                        for n in range(max(lam.size + lam.row(1), mu.size + mu.row(1), 2 * k, 1), 10):
                            try:
                                want = kron_via_closed(lam, mu, nu, n)
                            except FormulaRangeError as exc:
                                with pytest.raises(FormulaRangeError) as got:
                                    kron_via_closed(lam, mu, pad(nu, n), n)
                                assert str(got.value) == str(exc), (lam, mu, nu, n)
                                continue
                            assert kron_via_closed(lam, mu, pad(nu, n), n) == want, (lam, mu, nu, n)

    def test_arguments_are_read_like_the_routes(self):
        # a partition of size n is already padded, and one that cannot be
        # padded is the routes' ValueError
        for lam, mu, n in [([3], [], 3), ([2], [1], 3), ([3], [2, 1], 3), ([2, 1], [2, 1], 3), ([2, 2], [1], 4)]:
            lam, mu = P(lam), P(mu)
            for k in (0, 1):
                for nu in (P([k] if k else []), P([1] * k)):
                    try:
                        want = kron_via_oracle(lam, mu, nu, n)
                    except ValueError as exc:
                        with pytest.raises(ValueError) as got:
                            kron_via_closed(lam, mu, nu, n)
                        assert str(got.value) == str(exc), (lam, mu, nu, n)
                        continue
                    assert kron_via_closed(lam, mu, nu, n) == want, (lam, mu, nu, n)


class TestLimitingBehaviour:
    def test_g_rises_to_gbar_by_the_stability_bound(self):
        # Brion: g(n) never decreases along a triple; over the default
        # sweep's triples, from the first padding to b + 3, it reaches its
        # last value at N_exact, no later than max(b, first padding), and
        # the block chain of nu is one entry long from N_chain on, no earlier
        triples = rising = 0
        early = Counter()
        for (lam, mu, nu), rows in groupby(default_route_rows(), key=lambda row: row[:3]):
            ns, gs = zip(*((n, values["oracle"]) for *_, n, values in rows))
            triples += 1
            assert all(a <= b for a, b in zip(gs, gs[1:])), (lam, mu, nu, gs)
            rising += gs[0] != gs[-1]
            n_exact = ns[gs.index(gs[-1])]
            settled = max(stability_bound(lam, mu, nu), ns[0])
            n_chain = ns[0]
            while len(block_chain(nu, n_chain, lam.size + mu.size)) > 1:
                n_chain += 1
            assert n_exact <= settled <= n_chain, (lam, mu, nu, n_exact, settled, n_chain)
            early[settled - n_exact] += 1
        assert (triples, rising) == (4638, 1480)
        assert early == {0: 3552, 1: 1051, 2: 35}
