import pytest

import kroncoef
from kroncoef import kronecker
from kroncoef.kronecker import (
    FormulaRangeError,
    SweepBounds,
    check_reduced,
    check_routes,
    expected_tensor_square,
    kron_hook,
    kron_two_row,
    kron_via_blocks,
    kron_via_dagger,
    kron_via_oracle,
    reduce_mod_n,
    reduced_kron,
    reduced_kron_via_lr,
    route_agreement_cases,
    stability_bound,
    tensor_square_decomposition,
    valid_n_range,
)
from kroncoef.lr import lr_coeff
from kroncoef.partitions import Partition, dagger, pad, partitions_of, partitions_up_to
from kroncoef.sym_characters import kron_oracle

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
        assert reduce_mod_n(P([1, 1]), 2) == P([1])
        assert reduce_mod_n(P([2]), 2) == P()
        assert reduce_mod_n(P([4, 1]), 5) == P([1])

    def test_small_partition_passes_through(self):
        assert reduce_mod_n(P([1]), 4) == P([1])

    def test_invalid_padding_rejected(self):
        with pytest.raises(ValueError):
            reduce_mod_n(P([2, 1]), 4)


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
        for route in (kron_via_oracle, kron_via_blocks, kron_via_dagger):
            with pytest.raises(ValueError, match="positive integer"):
                route(P(), P(), P(), 0)
        # a plain ValueError: no n makes the formula valid, so no fallback helps
        for formula in (kron_two_row, kron_hook):
            with pytest.raises(ValueError, match="positive integer") as exc:
                formula(P(), P(), 0, 0)
            assert not isinstance(exc.value, FormulaRangeError)

    def test_blocks_and_dagger_do_not_use_the_oracle(self, monkeypatch):
        # The LR sum needs g only on S_l1 with l1 <= min(|lam|, |mu|); the
        # stable-limit oracle would be evaluated at the stability bound.
        kroncoef.clear_caches()
        degrees = []
        real = kronecker._kron

        def spy(lam, mu, nu):
            degrees.append(sum(lam))
            return real(lam, mu, nu)

        monkeypatch.setattr(kronecker, "_kron", spy)
        for lam, mu, nu, n in route_agreement_cases(SweepBounds(max_weight=2)):
            start = len(degrees)
            kron_via_blocks(lam, mu, nu, n)
            kron_via_dagger(lam, mu, nu, n)
            bound = min(reduce_mod_n(lam, n).size, reduce_mod_n(mu, n).size)
            assert all(d <= bound for d in degrees[start:]), (lam, mu, nu, n, degrees[start:])
        assert degrees

    def test_route_agreement_small(self):
        for lam, mu, nu, n in route_agreement_cases(SweepBounds(max_weight=2, extra_n=2)):
            assert check_routes(lam, mu, nu, n)["ok"], (lam, mu, nu, n)

    def test_dagger_truncation_is_exact(self):
        # the untruncated sum over all pad(lam).length * pad(mu).length terms
        for lam, mu, nu, n in route_agreement_cases(SweepBounds(max_weight=3)):
            lam_r, mu_r, nu_r = (reduce_mod_n(p, n) for p in (lam, mu, nu))
            nu_padded = pad(nu_r, n)
            count = pad(lam_r, n).length * pad(mu_r, n).length
            daggers = [dagger(nu_padded, i) for i in range(count)]
            sizes = [d.size for d in daggers]
            assert all(a < b for a, b in zip(sizes, sizes[1:])), (nu_padded, sizes)
            full = sum((-1) ** i * reduced_kron(lam_r, mu_r, d) for i, d in enumerate(daggers))
            assert kron_via_dagger(lam, mu, nu, n) == full, (lam, mu, nu, n)

    def test_stability_past_bound(self):
        for lam in partitions_up_to(3):
            for mu in partitions_up_to(3):
                for w in range(lam.size + mu.size + 1):
                    for nu in partitions_of(w):
                        ns = valid_n_range(lam, mu, nu, 3)
                        bound = stability_bound(lam, mu, nu)
                        vals = {
                            kron_via_oracle(lam, mu, nu, n)
                            for n in ns
                            if n >= bound
                        }
                        assert len(vals) <= 1
                        if vals:
                            assert vals.pop() == reduced_kron(lam, mu, nu)


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

    def test_agreement_small(self):
        for lam in partitions_up_to(3):
            for mu in partitions_up_to(3):
                for w in range(lam.size + mu.size + 1):
                    for nu in partitions_of(w):
                        assert check_reduced(lam, mu, nu)["ok"], (lam, mu, nu)


class TestClosedFormulas:
    def test_two_row_examples(self):
        assert kron_two_row(P([1]), P([1]), 2, 4) == 1
        assert kron_two_row(P([1]), P([1]), 0, 4) == 1
        assert kron_two_row(P([2]), P([2]), 2, 8) == kron_oracle(
            P([6, 2]), P([6, 2]), P([6, 2])
        )

    def test_hook_examples(self):
        assert kron_hook(P([1]), P([1]), 2, 4) == 1
        assert kron_hook(P([1]), P([1]), 1, 4) == 1
        assert kron_hook(P([2, 1]), P([2, 1]), 3, 9) == kron_via_oracle(
            P([2, 1]), P([2, 1]), P([1, 1, 1]), 9
        )

    def test_out_of_range(self):
        with pytest.raises(FormulaRangeError):
            kron_two_row(P([2]), P([2]), 2, 5)
        with pytest.raises(FormulaRangeError):
            kron_two_row(P([1]), P([1]), 3, 5)
        with pytest.raises(FormulaRangeError):
            kron_hook(P([2]), P([2]), 2, 4)

    def test_agreement_with_oracle_small(self):
        for lam in partitions_up_to(3):
            for mu in partitions_up_to(3):
                for k in range(5):
                    n0 = max(
                        min(lam.size + mu.row(1) + k, mu.size + lam.row(1) + k),
                        2 * k,
                        lam.size + lam.row(1),
                        mu.size + mu.row(1),
                        1,
                    )
                    for n in (n0, n0 + 1):
                        want = kron_oracle(
                            pad(lam, n).to_partition(),
                            pad(mu, n).to_partition(),
                            P([n - k, k] if k else [n]),
                        )
                        assert kron_two_row(lam, mu, k, n) == want, (lam, mu, k, n)
                    h0 = max(
                        min(
                            lam.size + mu.size + 1,
                            mu.size + lam.row(1) + k,
                            lam.size + mu.row(1) + k,
                        ),
                        k + 1,
                        lam.size + lam.row(1),
                        mu.size + mu.row(1),
                        1,
                    )
                    for n in (h0, h0 + 1):
                        want = kron_oracle(
                            pad(lam, n).to_partition(),
                            pad(mu, n).to_partition(),
                            P([n - k] + [1] * k),
                        )
                        assert kron_hook(lam, mu, k, n) == want, (lam, mu, k, n)


class TestTensorSquare:
    def test_stabilization_sequence(self):
        for n in range(2, 9):
            assert tensor_square_decomposition(n) == expected_tensor_square(n), n
