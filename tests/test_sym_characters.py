import random
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kroncoef.partitions import Partition, conjugate, partitions_of, partitions_up_to
from kroncoef.sym_characters import (
    character,
    character_table,
    class_size,
    cycle_type,
    induction_mult,
    kron_oracle,
    specht_dim,
    specht_model,
    standard_tableaux,
    _mat_mul,
)

P = Partition


class TestCharacter:
    def test_trivial_and_sign(self):
        for n in range(1, 9):
            for rho in partitions_of(n):
                assert character(P([n]), rho) == 1
                assert character(P([1] * n), rho) == (-1) ** (n - len(rho))

    def test_dimension_column(self):
        for n in range(1, 9):
            ones = P([1] * n)
            for lam in partitions_of(n):
                assert character(lam, ones) == specht_dim(lam)

    def test_small_example(self):
        assert character(P([2, 1]), P([1, 1, 1])) == 2

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            character(P([2]), P([1]))


class TestClassSize:
    def test_examples(self):
        assert class_size(P([1, 1, 1])) == 1
        assert class_size(P([5])) == 24
        assert class_size(P([2, 1])) == 3

    def test_sums_to_factorial(self):
        import math

        for n in range(1, 10):
            assert sum(class_size(rho) for rho in partitions_of(n)) == math.factorial(n)


class TestCharacterTable:
    def test_orthogonality_up_to_8(self):
        for n in range(1, 9):
            character_table(n).check_orthogonality()

    def test_tsv_shape(self):
        tsv = character_table(4).to_tsv()
        lines = tsv.strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith("lambda\\rho")

    def test_idempotent_under_threads(self):
        with ThreadPoolExecutor(max_workers=8) as pool:
            tables = list(pool.map(character_table, [6] * 16))
        assert all(t is tables[0] for t in tables)


class TestKronOracle:
    def test_examples(self):
        assert kron_oracle(P([1, 1]), P([1, 1]), P([2])) == 1
        assert kron_oracle(P([2, 1]), P([2, 1]), P([1, 1, 1])) == 1
        assert kron_oracle(P([3, 1]), P([3, 1]), P([2, 2])) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kron_oracle(P([2]), P([1]), P([2]))

    def test_symmetry_n_up_to_6(self):
        for n in range(1, 7):
            ps = partitions_of(n)
            for lam in ps:
                for mu in ps:
                    for nu in ps:
                        ref = kron_oracle(lam, mu, nu)
                        for a, b, c in permutations((lam, mu, nu)):
                            assert kron_oracle(a, b, c) == ref

    def test_trivial_and_sign_twists(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                for nu in partitions_of(n):
                    assert kron_oracle(lam, P([n]), nu) == (1 if lam == nu else 0)
                    assert kron_oracle(lam, P([1] * n), nu) == (
                        1 if nu == conjugate(lam) else 0
                    )

    def test_dimension_identity(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    total = sum(
                        kron_oracle(lam, mu, nu) * specht_dim(nu)
                        for nu in partitions_of(n)
                    )
                    assert total == specht_dim(lam) * specht_dim(mu)


class TestInduction:
    def test_examples(self):
        assert induction_mult(P(), P([3, 1]), P([3, 1])) == 1
        assert induction_mult(P([1]), P([1]), P([2])) == 1
        assert induction_mult(P([2, 1]), P([2]), P([3, 2])) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            induction_mult(P([1]), P([1]), P([3]))


class TestSpechtModel:
    def test_dimensions(self):
        for k in range(8):
            for nu in partitions_of(k):
                assert len(standard_tableaux(nu)) == specht_dim(nu)

    def test_one_dimensional_cases(self):
        for n in range(1, 6):
            m = specht_model(P([n]))
            assert m.dim == 1
            assert all(g == ((1,),) for g in m.generators)
        m = specht_model(P([1, 1]))
        assert m.generators == [((-1,),)]

    def test_cap(self):
        with pytest.raises(ValueError):
            specht_model(P([5, 3]))

    @pytest.mark.parametrize(
        "shape", [(2,), (1, 1), (2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2), (2, 2, 1), (3, 2, 1), (4, 2, 1)]
    )
    def test_coxeter_relations(self, shape):
        m = specht_model(P(shape))
        k = m.nu.size
        ident = tuple(tuple(int(i == j) for j in range(m.dim)) for i in range(m.dim))
        for i in range(k - 1):
            assert _mat_mul(m.generators[i], m.generators[i]) == ident
        for i in range(k - 2):
            ab = _mat_mul(m.generators[i], m.generators[i + 1])
            assert _mat_mul(_mat_mul(ab, ab), ab) == ident
        for i in range(k - 1):
            for j in range(i + 2, k - 1):
                assert _mat_mul(m.generators[i], m.generators[j]) == _mat_mul(
                    m.generators[j], m.generators[i]
                )

    @pytest.mark.parametrize("shape", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 2, 1), (4, 2, 1)])
    def test_traces_match_characters(self, shape):
        m = specht_model(P(shape))
        k = m.nu.size
        perms = list(permutations(range(1, k + 1)))
        if len(perms) > 120:
            random.seed(11)
            perms = random.sample(perms, 120)
        for sigma in perms:
            mat = m.matrix_of(sigma)
            trace = sum(mat[i][i] for i in range(m.dim))
            assert trace == character(m.nu, cycle_type(sigma))

    @given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
    @settings(max_examples=60, deadline=None)
    def test_matrix_homomorphism(self, s1, s2):
        m = specht_model(P([3, 2]))
        s1, s2 = tuple(s1), tuple(s2)
        composed = tuple(s1[s2[j] - 1] for j in range(5))
        assert _mat_mul(m.matrix_of(s1), m.matrix_of(s2)) == m.matrix_of(composed)

    def test_invariant_form_is_sigma_invariant(self):
        m = specht_model(P([2, 1]))
        form = m.invariant_form()
        for sigma in permutations((1, 2, 3)):
            mat = m.matrix_of(sigma)
            lhs = _mat_mul(_transpose(mat), _mat_mul(form, mat))
            assert tuple(tuple(row) for row in lhs) == form


def _transpose(mat):
    return tuple(tuple(mat[i][j] for i in range(len(mat))) for j in range(len(mat[0])))
