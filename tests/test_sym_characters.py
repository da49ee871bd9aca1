import random
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations
from math import factorial

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
from oracles import char_beta

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

    def test_matches_beta_set_recursion_up_to_12(self):
        for n in range(13):
            for lam in partitions_of(n):
                for rho in partitions_of(n):
                    assert character(lam, rho) == char_beta(lam.parts, rho.parts), (lam, rho)


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

    def test_matches_the_character_table_n_up_to_6(self):
        # the class sum taken straight from the table's values
        for n in range(7):
            table = character_table(n)
            ps, chi = table.partitions, table.values
            for lam in ps:
                for mu in ps:
                    for nu in ps:
                        total = sum(
                            table.class_sizes[rho] * chi[lam, rho] * chi[mu, rho] * chi[nu, rho]
                            for rho in ps
                        )
                        assert total % factorial(n) == 0
                        assert kron_oracle(lam, mu, nu) == total // factorial(n), (lam, mu, nu)

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
        for shape in ((2, 1), (3, 2), (2, 2, 1), (3, 2, 1)):
            m = specht_model(P(shape))
            form = m.invariant_form()
            for sigma in permutations(range(1, m.k + 1)):
                mat = m.matrix_of(sigma)
                lhs = _mat_mul(_transpose(mat), _mat_mul(form, mat))
                assert tuple(tuple(row) for row in lhs) == form, (shape, sigma)

    @pytest.mark.parametrize("k", [5, 6])
    def test_matrix_of_is_the_generator_word_product(self, k):
        for nu in partitions_of(k):
            m = specht_model(nu)
            ref = _bubble_sort_products(m.generators, k)
            for sigma in permutations(range(1, k + 1)):
                assert m.matrix_of(sigma) == ref(sigma)

    def test_straightening_outside_the_span_raises(self):
        m = specht_model(P([1, 1]))
        with pytest.raises(ArithmeticError, match="outside the polytabloid span"):
            m.expand({((2,), (1,)): 1})
        assert m.expand({((1,), (2,)): 1, ((2,), (1,)): -1}) == (1,)


def _transpose(mat):
    return tuple(tuple(mat[i][j] for i in range(len(mat))) for j in range(len(mat[0])))


def _bubble_sort_products(generators, k):
    """Reference matrices: the product of the generators along the
    bubble-sort word of sigma.  Swapping the first descent d of sigma leaves
    sigma * s_d, whose word is the rest, so M(sigma) = M(sigma * s_d) G_d."""
    dim = len(generators[0]) if generators else 1
    # the nonzero entries of each column of each generator
    sparse = [
        [[(t, g[t][j]) for t in range(dim) if g[t][j]] for j in range(dim)] for g in generators
    ]
    cache = {tuple(range(1, k + 1)): tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))}

    def ref(sigma):
        if sigma not in cache:
            d = next(i for i in range(k - 1) if sigma[i] > sigma[i + 1])
            rest = ref(sigma[:d] + (sigma[d + 1], sigma[d]) + sigma[d + 2:])
            cols = sparse[d]
            cache[sigma] = tuple(
                tuple(sum(row[t] * c for t, c in col) for col in cols) for row in rest
            )
        return cache[sigma]

    return ref
