import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kroncoef.diagram_algebra import (
    AlgebraElement,
    SetPartitionDiagram,
    bell,
    check_dimension_identity,
    compose,
    crossing_profile,
    dim_standard,
    dimension_identity_cases,
    enumerate_diagrams,
    factor_half_diagram,
    generator_e,
    generator_s,
    half_diagrams,
    identity_diagram,
    permutation_diagram,
    propagating_count,
    restrict_multiplicity,
    restriction_table,
    standard_module,
)
from kroncoef.kronecker import reduced_kron
from kroncoef.partitions import Partition, block_chain, partitions_up_to
from kroncoef.sym_characters import _mat_mul, character, cycle_type, specht_dim

P = Partition
D = SetPartitionDiagram.parse
DELTA = Fraction(5)

EXAMPLE_TEXT = "{1,2,4,2',5'}{3}{5,6,7,3',4',6',7'}{8,8'}{1'}"


def random_diagram(rng, r, m):
    verts = list(range(1, r + 1)) + [-j for j in range(1, m + 1)]
    labels = [rng.randrange(len(verts)) for _ in verts]
    groups = {}
    for v, lab in zip(verts, labels):
        groups.setdefault(lab, []).append(v)
    return SetPartitionDiagram(r, m, list(groups.values()))


class TestDiagramType:
    def test_parse_print_roundtrip(self):
        d = D(EXAMPLE_TEXT)
        assert d.r == 8 and d.m == 8
        assert str(d) == EXAMPLE_TEXT
        assert D(str(d)) == d

    def test_block_count_and_canonical_order(self):
        d = D(EXAMPLE_TEXT)
        assert len(d.blocks) == 5
        firsts = [b[0] for b in d.blocks]
        assert firsts == [1, 3, 5, 8, -1]

    def test_validation(self):
        with pytest.raises(ValueError):
            SetPartitionDiagram(2, 2, [[1, 2], [-1]])  # missing a vertex
        with pytest.raises(ValueError):
            SetPartitionDiagram(2, 2, [[1, 2], [1, -1], [-2]])  # duplicated
        with pytest.raises(ValueError):
            SetPartitionDiagram(1, 1, [[1, 2, -1]])  # out of range

    def test_flip(self):
        d = D("{1,2,1'}{2'}")
        assert d.flip() == D("{1,1',2'}{2}")
        assert d.flip().flip() == d


class TestPropagating:
    def test_identity(self):
        for r in range(1, 5):
            assert propagating_count(identity_diagram(r)) == r

    def test_worked_example(self):
        assert propagating_count(D(EXAMPLE_TEXT)) == 3

    def test_all_singletons(self):
        d = SetPartitionDiagram(3, 3, [[v] for v in (1, 2, 3, -1, -2, -3)])
        assert propagating_count(d) == 0


class TestCompose:
    def test_identity_neutral(self):
        for x in enumerate_diagrams(2, 2):
            assert compose(identity_diagram(2), x) == (0, x)
            assert compose(x, identity_diagram(2)) == (0, x)

    def test_degree_two_products(self):
        # crossing over an absorbing diagram: no middle component
        assert compose(D("{1,2'}{2,1'}"), D("{1,1',2'}{2}")) == (0, D("{1}{2,1',2'}"))
        # one isolated middle component contributes one power of the parameter
        assert compose(D("{1,2,1'}{2'}"), D("{1,2'}{2}{1'}")) == (1, D("{1,2,2'}{1'}"))

    def test_scalar_via_algebra_element(self):
        for delta in (Fraction(4), Fraction(7, 3)):
            prod = AlgebraElement.from_diagram(D("{1,2,1'}{2'}"), delta) * \
                AlgebraElement.from_diagram(D("{1,2'}{2}{1'}"), delta)
            assert prod.terms == {D("{1,2,2'}{1'}"): delta}

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity_diagram(2), identity_diagram(3))

    def test_propagating_never_increases(self):
        rng = random.Random(5)
        for _ in range(100):
            x = random_diagram(rng, 4, 4)
            y = random_diagram(rng, 4, 4)
            _, z = compose(x, y)
            assert propagating_count(z) <= min(propagating_count(x), propagating_count(y))

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_associativity(self, seed):
        rng = random.Random(seed)
        r = rng.randrange(1, 6)
        a, b, c = (
            AlgebraElement.from_diagram(random_diagram(rng, r, r), DELTA)
            for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)

    def test_bilinearity(self):
        rng = random.Random(9)
        x, y, z = (random_diagram(rng, 3, 3) for _ in range(3))
        ax, ay, az = (AlgebraElement.from_diagram(d, DELTA) for d in (x, y, z))
        assert (ax + ay) * az == ax * az + ay * az
        assert az * (2 * ax - ay) == 2 * (az * ax) - az * ay


class TestGenerators:
    def test_idempotents(self):
        for r in range(1, 5):
            for l in range(1, r + 1):
                e = generator_e(l, r, DELTA)
                assert e * e == e

    def test_transpositions(self):
        one = AlgebraElement.one(3, DELTA)
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            s = generator_s(i, j, 3, DELTA)
            assert s * s == one

    def test_e2_in_degree_two(self):
        e = generator_e(2, 2, DELTA)
        ((d, c),) = e.terms.items()
        assert d == D("{1,1'}{2}{2'}")
        assert c == Fraction(1, 5)

    def test_last_idempotent_pattern(self):
        ((d, _),) = generator_e(4, 4, DELTA).terms.items()
        assert d == D("{1,1'}{2,2'}{3,3'}{4}{4'}")

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            generator_e(1, 2, 0)
        with pytest.raises(ValueError):
            AlgebraElement(2, 0, {})


class TestDimensions:
    def test_degree_two_table(self):
        assert dim_standard(2, P([2])) == 1
        assert dim_standard(2, P([1, 1])) == 1
        assert dim_standard(2, P([1])) == 3
        assert dim_standard(2, P()) == 2

    def test_identity_pattern_shape(self):
        for r in range(1, 6):
            assert dim_standard(r, P([r])) == 1

    def test_algebra_dimension_is_bell(self):
        assert len(enumerate_diagrams(2, 2)) == 15 == bell(4)
        assert bell(8) == 4140

    def test_bell_refuses_negative(self):
        with pytest.raises(ValueError):
            bell(-1)

    def test_wedderburn_sum_up_to_4(self):
        for r in range(1, 5):
            total = sum(dim_standard(r, nu) ** 2 for nu in partitions_up_to(r))
            assert total == bell(2 * r)

    def test_half_diagram_enumeration_matches_formula(self):
        for r in range(1, 5):
            for m in range(r + 1):
                count = len(half_diagrams(r, m))
                nu = P([1] * m)
                assert count * specht_dim(nu) == dim_standard(r, nu)


class TestStandardModules:
    def test_degree_two_dimensions(self):
        dims = {
            tuple(nu.parts): standard_module(2, nu, DELTA).dim
            for nu in partitions_up_to(2)
        }
        assert dims == {(2,): 1, (1, 1): 1, (1,): 3, (): 2}

    def test_identity_acts_as_identity(self):
        for r in (1, 2, 3):
            for nu in partitions_up_to(r):
                mod = standard_module(r, nu, DELTA)
                mat = mod.action_matrix(identity_diagram(r))
                assert mat == [
                    [Fraction(int(i == j)) for j in range(mod.dim)]
                    for i in range(mod.dim)
                ]

    def test_idempotent_action_on_three_dim_module(self):
        # frozen by hand concatenation: e_2 sends {1,2,1'} to (1/d){1,1'}{2},
        # fixes {1,1'}{2}, kills {1}{2,1'}
        mod = standard_module(2, P([1]), DELTA)
        idx = {str(h): i for i, h in enumerate(mod.halves)}
        mat = mod.action_matrix(generator_e(2, 2, DELTA))
        expected = {
            idx["{1,2,1'}"]: {idx["{1,1'}{2}"]: Fraction(1, 5)},
            idx["{1,1'}{2}"]: {idx["{1,1'}{2}"]: Fraction(1)},
            idx["{1}{2,1'}"]: {},
        }
        for j, want in expected.items():
            got = {i: mat[i][j] for i in range(mod.dim) if mat[i][j]}
            assert got == want

    def test_nonpropagating_diagram_kills_top_layer(self):
        all_arcs = D("{1,2}{1',2'}")
        for shape in [(2,), (1, 1)]:
            mod = standard_module(2, P(shape), DELTA)
            mat = mod.action_matrix(all_arcs)
            assert all(v == 0 for row in mat for v in row)

    def test_transposition_signs_in_degree_two(self):
        s = generator_s(1, 2, 2, DELTA)
        assert standard_module(2, P([2]), DELTA).action_matrix(s) == [[Fraction(1)]]
        assert standard_module(2, P([1, 1]), DELTA).action_matrix(s) == [[Fraction(-1)]]

    def test_top_layer_recovers_specht_matrices(self):
        # with |nu| = r the module is the inflated Specht module
        mod = standard_module(3, P([2, 1]), DELTA)
        sigma = (2, 3, 1)
        mat = mod.action_matrix(permutation_diagram(sigma))
        target = mod.specht.matrix_of(sigma)
        assert mat == [[Fraction(v) for v in row] for row in target]

    def test_action_is_algebra_homomorphism(self):
        rng = random.Random(7)
        for r in (2, 3):
            diags = enumerate_diagrams(r, r)
            for nu in partitions_up_to(r):
                mod = standard_module(r, nu, DELTA)
                for _ in range(5):
                    x, y = rng.sample(diags, 2)
                    ax = AlgebraElement.from_diagram(x, DELTA)
                    ay = AlgebraElement.from_diagram(y, DELTA)
                    lhs = mod.action_matrix(ax * ay)
                    rhs = _mat_mul(mod.action_matrix(ax), mod.action_matrix(ay))
                    assert lhs == [list(row) for row in rhs], (r, nu, str(x), str(y))

    def test_permutation_diagrams_multiply_as_permutations(self):
        # bottom k' is joined to top sigma(k), so P(sigma)P(tau) = P(sigma o tau)
        for r in (1, 2, 3, 4):
            for sigma in permutations(range(1, r + 1)):
                for tau in permutations(range(1, r + 1)):
                    product = tuple(sigma[t - 1] for t in tau)
                    assert compose(permutation_diagram(sigma), permutation_diagram(tau)) == (0, permutation_diagram(product))

    def test_action_is_homomorphism_on_every_permutation_pair(self):
        for r in (1, 2, 3):
            perms = [permutation_diagram(s) for s in permutations(range(1, r + 1))]
            for nu in partitions_up_to(r):
                mod = standard_module(r, nu, DELTA)
                mats = {x: mod.action_matrix(x) for x in perms}
                for x in perms:
                    for y in perms:
                        _, xy = compose(x, y)
                        assert [list(row) for row in _mat_mul(mats[x], mats[y])] == mats[xy], (r, nu, str(x), str(y))

    @pytest.mark.parametrize("nu", [(2, 1), (3, 1)])
    def test_generators_act_as_homomorphism_in_degree_four(self, nu):
        mod = standard_module(4, P(nu), DELTA)
        # a permutation acts by an integer matrix; int products keep this fast
        mats = {x: _integral(mod.action_matrix(x)) for x in map(permutation_diagram, permutations(range(1, 5)))}
        for i in (1, 2, 3):
            s_i = permutation_diagram(tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, 5)))
            for x in mats:
                _, sx = compose(s_i, x)
                assert [list(row) for row in _mat_mul(mats[s_i], mats[x])] == mats[sx], (nu, i, str(x))

    def test_gram_rank_at_the_symmetric_group_size(self):
        # at delta = n the radical is cut out by the block chain: the rank is
        # the alternating sum of standard dimensions along the n-pair chain
        mod = standard_module(4, P([2, 1]), Fraction(5))
        chain = sum((-1) ** i * dim_standard(4, entry) for i, entry in enumerate(block_chain(P([2, 1]), 5, 4)))
        assert _rank(mod.gram_matrix()) == chain == 17

    def test_permutation_traces_on_top_layer(self):
        mod = standard_module(3, P([2, 1]), DELTA)
        for sigma in [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)]:
            mat = mod.action_matrix(permutation_diagram(sigma))
            tr = sum(mat[i][i] for i in range(mod.dim))
            assert tr == character(P([2, 1]), cycle_type(sigma))

    def test_factor_half_diagram(self):
        sigma, canonical = factor_half_diagram(D("{1,2'}{2,1'}"))
        assert sigma == (2, 1)
        assert canonical == D("{1,1'}{2,2'}")

    def test_gram_full_rank_at_generic_parameter(self):
        for delta in (Fraction(7, 2), Fraction(-13, 5)):
            for r in (1, 2, 3):
                for nu in partitions_up_to(r):
                    mod = standard_module(r, nu, delta)
                    assert _rank(mod.gram_matrix()) == mod.dim

    def test_gram_drops_rank_at_degenerate_parameter(self):
        # the three-dimensional degree-2 module is the one with a radical at
        # parameter 2
        mod = standard_module(2, P([1]), Fraction(2))
        assert _rank(mod.gram_matrix()) < mod.dim


class TestCrossingProfile:
    def test_figure_style_half_diagram(self):
        w = D("{1}{2,3,4,1'}{5,12}{6,13}{7}{8,9,14,2'}{10,11,3'}{15,5'}{16,4'}")
        assert w.r == 16 and w.m == 5
        assert crossing_profile(w, 10, 6) == (1, 2, 2, 2)

    def test_no_crossing_pattern(self):
        # strands on the left of the wall, all right vertices propagating
        d = D("{1,1'}{2}{3}{4,2'}{5,3'}")
        assert crossing_profile(d, 3, 2) == (1, 2, 0, 0)

    def test_propagating_split_identity(self):
        for r in (3, 4, 5):
            for m in range(r + 1):
                for d in half_diagrams(r, m):
                    for left in range(1, r):
                        p_r, p_s, p_c, _ = crossing_profile(d, left, r - left)
                        assert p_r + p_s + p_c == m

    def test_precondition(self):
        with pytest.raises(ValueError):
            crossing_profile(D("{1,2}{1'}{2'}"), 1, 1)


class TestRestriction:
    def test_degree_two_tables(self):
        one, empty = P([1]), P()
        assert restriction_table(P([2]), 1, 1) == {(one, one): 1}
        assert restriction_table(P([1, 1]), 1, 1) == {(one, one): 1}
        assert restriction_table(P([1]), 1, 1) == {
            (one, one): 1,
            (empty, one): 1,
            (one, empty): 1,
        }
        assert restriction_table(P(), 1, 1) == {(one, one): 1, (empty, empty): 1}

    def test_label_larger_than_degree_raises(self):
        for nu, r, s in ((P([5]), 1, 1), (P([1]), 0, 0), (P([2, 1]), 1, 1)):
            with pytest.raises(ValueError):
                restriction_table(nu, r, s)

    def test_examples(self):
        assert restrict_multiplicity(P([2]), 1, 1, P([1]), P([1])) == 1
        assert restrict_multiplicity(P([1]), 1, 1, P(), P([1])) == 1
        assert restrict_multiplicity(P(), 1, 1, P(), P()) == 1

    def test_out_of_domain_is_zero(self):
        assert restrict_multiplicity(P([3]), 1, 1, P([1]), P([1])) == 0
        assert restrict_multiplicity(P([1]), 1, 1, P([2]), P()) == 0

    def test_reduced_kronecker_theorem(self):
        # the multiplicity is the reduced Kronecker coefficient, compared here
        # with the stable-limit character oracle rather than the LR sum
        for m in range(6):
            for r in range(m + 1):
                s = m - r
                for nu in partitions_up_to(m):
                    for lam in partitions_up_to(r + 1):
                        for mu in partitions_up_to(s + 1):
                            got = restrict_multiplicity(nu, r, s, lam, mu)
                            if lam.size > r or mu.size > s:
                                assert got == 0, (nu, r, s, lam, mu)
                            else:
                                assert got == reduced_kron(lam, mu, nu), (nu, r, s, lam, mu)

    def test_dimension_identity_up_to_5(self):
        for nu, r, s in dimension_identity_cases(5):
            assert check_dimension_identity(nu, r, s)["ok"], (nu, r, s)


def _integral(mat):
    assert all(v.denominator == 1 for row in mat for v in row)
    return [[int(v) for v in row] for row in mat]


def _rank(mat):
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if m else 0
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank
