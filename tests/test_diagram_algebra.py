import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kroncoef.diagram_algebra import (
    AlgebraElement,
    SetPartitionDiagram,
    StandardModule,
    bell,
    compose,
    crossing_profile,
    dim_standard,
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
from kroncoef.partitions import Partition, _classes, _pad, block_chain, partitions_up_to
from kroncoef.sym_characters import CharacterTable, SpechtModel, _weighted, character, specht_dim
from oracles import (
    compose_union_find,
    cycle_type,
    enumerate_diagrams,
    factor_by_compose,
    factor_half_diagram,
    gram_by_products,
    mat_mul,
    rank,
    transpose,
)

P = Partition
D = SetPartitionDiagram.parse
DELTA = Fraction(5)

EXAMPLE_TEXT = "{1,2,4,2',5'}{3}{5,6,7,3',4',6',7'}{8,8'}{1'}"


def random_blocks(rng, r, m):
    verts = list(range(1, r + 1)) + [-j for j in range(1, m + 1)]
    labels = [rng.randrange(len(verts)) for _ in verts]
    groups = {}
    for v, lab in zip(verts, labels):
        groups.setdefault(lab, []).append(v)
    return list(groups.values())


def random_diagram(rng, r, m):
    return SetPartitionDiagram(r, m, random_blocks(rng, r, m))


class TestDiagramType:
    def test_parse_print_roundtrip(self):
        d = D(EXAMPLE_TEXT)
        assert d.r == 8 and d.m == 8
        assert str(d) == EXAMPLE_TEXT
        assert D(str(d)) == d
        assert repr(d) == f"SetPartitionDiagram(8,8,{EXAMPLE_TEXT})"

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
        with pytest.raises(ValueError):
            SetPartitionDiagram(1, 1, [[], [1, -1]])  # empty block
        with pytest.raises(ValueError):
            SetPartitionDiagram(-1, 1, [])  # negative size
        with pytest.raises(ValueError):
            SetPartitionDiagram(1, 0, [[1, 1]])  # listed twice in one block
        # str writes unsigned vertex numbers without leading zeros only
        for text in ("{1,-1}", "{1,-1'}", "{+1,1'}", "{01,1'}", "{1,01'}"):
            with pytest.raises(ValueError, match="bad vertex"):
                D(text)
        with pytest.raises(ValueError, match="expected {...}-blocks"):
            D("1,1'")

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

    def test_zero_coefficients_are_dropped(self):
        zero = AlgebraElement(2, DELTA, {identity_diagram(2): 0})
        assert zero.terms == {} and zero == AlgebraElement(2, DELTA)
        assert repr(zero) == "0"
        one = AlgebraElement.one(2, DELTA)
        assert (one - one).terms == {}

    def test_terms_are_read_only(self):
        # a zero written into terms would be a term __init__ drops
        e = AlgebraElement.one(2, DELTA)
        with pytest.raises(TypeError):
            e.terms[identity_diagram(2)] = Fraction(0)
        with pytest.raises(TypeError):
            e.terms[D("{1,2}{1',2'}")] = Fraction(1)
        assert e == AlgebraElement.one(2, DELTA) and e.terms == {identity_diagram(2): 1}

    def test_mismatched_elements_refused(self):
        one = AlgebraElement.one(2, DELTA)
        for other, message in (
            (AlgebraElement.one(3, DELTA), "degree mismatch"),
            (AlgebraElement.one(2, Fraction(7, 2)), "parameter mismatch"),
        ):
            for op in (lambda x, y: x + y, lambda x, y: x * y):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    op(one, other)

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

    def test_matches_the_union_find_oracle(self):
        rng = random.Random(7)
        for _ in range(1500):
            r, k, m = (rng.randint(0, 6) for _ in range(3))
            xb, yb = random_blocks(rng, r, k), random_blocks(rng, k, m)
            x, y = SetPartitionDiagram(r, k, xb), SetPartitionDiagram(k, m, yb)
            t, z = compose(x, y)
            want_t, want_text, want_props = compose_union_find(xb, yb, r, k, m)
            assert (t, str(z)) == (want_t, want_text), (str(x), str(y))
            assert propagating_count(z) == want_props, (str(x), str(y))
            for d in (x, y, z):
                assert d.flip().flip() == d
                assert D(str(d)) == d

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
        assert ax * 2 == 2 * ax


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
        assert repr(e) == "(1/5)*{1,1'}{2}{2'}"

    def test_generator_indices_refused(self):
        with pytest.raises(ValueError, match=r"need 1 <= i < j <= r, got \(2,1,3\)$"):
            generator_s(2, 1, 3, DELTA)
        with pytest.raises(ValueError, match=r"need 1 <= l <= r, got \(0,2\)$"):
            generator_e(0, 2, DELTA)

    def test_last_idempotent_pattern(self):
        ((d, _),) = generator_e(4, 4, DELTA).terms.items()
        assert d == D("{1,1'}{2,2'}{3,3'}{4}{4'}")

    @pytest.mark.parametrize(
        "build",
        [lambda: AlgebraElement(2, 0), lambda: generator_e(1, 2, 0), lambda: StandardModule(2, P([1]), 0)],
        ids=["element", "generator_e", "module"],
    )
    def test_zero_parameter_rejected(self, build):
        with pytest.raises(ValueError, match="parameter must be nonzero$"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: AlgebraElement(2, "x"),
            lambda: generator_e(1, 2, "1/0"),
            lambda: standard_module(2, P([1]), "1/0"),
            lambda: AlgebraElement(2, 3, {identity_diagram(2): "1/0"}),
            lambda: AlgebraElement.from_diagram(identity_diagram(2), 3, "1/0"),
            lambda: "1/0" * AlgebraElement.one(2, 3),
        ],
        ids=["element", "generator_e", "module", "coefficient", "from_diagram", "scalar"],
    )
    def test_unreadable_parameter_rejected(self, build):
        # one reader for rationals, the parameter, a coefficient and a
        # scalar alike: a zero denominator is a ValueError too
        with pytest.raises(ValueError, match="^bad rational '(x|1/0)': "):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda r: AlgebraElement(r, DELTA),
            lambda r: AlgebraElement.one(r, DELTA),
            identity_diagram,
            lambda r: StandardModule(r, P(), DELTA),
            CharacterTable,
            lambda r: dim_standard(r, P()),
        ],
        ids=["element", "one", "identity", "module", "table", "dim"],
    )
    def test_degree_is_a_nonnegative_integer(self, build):
        # read with operator.index, as a part of a Partition is: 2.5 is
        # refused, not truncated, and a negative degree is named
        for r in (-1, -2):
            with pytest.raises(ValueError, match=f"negative degree {r}$"):
                build(r)
        for r in (2.5, 2.0, "2"):
            with pytest.raises(TypeError):
                build(r)
        build(0)


class TestDimensions:
    def test_degree_two_table(self):
        assert dim_standard(2, P([2])) == 1
        assert dim_standard(2, P([1, 1])) == 1
        assert dim_standard(2, P([1])) == 3
        assert dim_standard(2, P()) == 2
        assert dim_standard(2, P([3])) == 0

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

    def test_half_diagrams_refuse_a_negative_size(self):
        for r, m in ((-1, 0), (2, -1)):
            with pytest.raises(ValueError, match="negative degree -1"):
                half_diagrams(r, m)


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
                    rhs = mat_mul(mod.action_matrix(ax), mod.action_matrix(ay))
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
                        assert [list(row) for row in mat_mul(mats[x], mats[y])] == mats[xy], (r, nu, str(x), str(y))

    @pytest.mark.parametrize("nu", [(2, 1), (3, 1)])
    def test_generators_act_as_homomorphism_in_degree_four(self, nu):
        mod = standard_module(4, P(nu), DELTA)
        # a permutation acts by an integer matrix; int products keep this fast
        mats = {x: _integral(mod.action_matrix(x)) for x in map(permutation_diagram, permutations(range(1, 5)))}
        for i in (1, 2, 3):
            s_i = permutation_diagram(tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, 5)))
            for x in mats:
                _, sx = compose(s_i, x)
                assert [list(row) for row in mat_mul(mats[s_i], mats[x])] == mats[sx], (nu, i, str(x))

    def test_gram_rank_at_the_symmetric_group_size(self):
        # at delta = n the radical is cut out by the block chain: the rank is
        # the alternating sum of standard dimensions along the n-pair chain
        mod = standard_module(4, P([2, 1]), Fraction(5))
        chain = sum((-1) ** i * dim_standard(4, entry) for i, entry in enumerate(block_chain(P([2, 1]), 5, 4)))
        assert rank(mod.gram_matrix()) == chain == 17

    def test_gram_rank_is_the_chain_sum_and_the_schur_weyl_multiplicity(self):
        # three independent values of dim L_r(nu) at delta = n: the rank of the
        # Gram form, the alternating dim_standard sum along the n-pair chain,
        # and the multiplicity of S(pad(nu, n)) in (C^n)^{(x) r}, that is
        # (1/n!) sum over rho of |C_rho| chi(rho) fix(rho)^r
        cases = 0
        for r in range(5):
            for nu in partitions_up_to(r):
                for n in range(max(1, nu.size + nu.row(1)), 2 * r + 2):
                    gram_rank = rank(standard_module(r, nu, Fraction(n)).gram_matrix())
                    chain = sum((-1) ** i * dim_standard(r, entry) for i, entry in enumerate(block_chain(nu, n, r)))
                    weighted = _weighted(_pad(nu.parts, n))
                    total = sum(w * rho.count(1) ** r for (rho, _size), w in zip(_classes(n), weighted))
                    tensor, rem = divmod(total, factorial(n))
                    assert rem == 0 and gram_rank == chain == tensor, (r, nu, n, gram_rank, chain, tensor)
                    cases += 1
        assert cases == 114

    @pytest.mark.parametrize("r, delta, sample", [(3, 5, None), (4, 6, 10)])
    def test_gram_form_is_invariant(self, r, delta, sample):
        # <X v, w> = <v, X* w> with X* = X.flip(), that is A(X)^T G = G A(X*):
        # every (3,3) diagram, or a seeded sample of (4,4) diagrams; at an
        # integral delta every matrix here is integral
        diagrams = enumerate_diagrams(r, r)
        if sample:
            diagrams = random.Random(r).sample(diagrams, sample)
        for nu in partitions_up_to(r):
            mod = standard_module(r, nu, Fraction(delta))
            gram = _integral(mod.gram_matrix())
            mats = {y: _integral(mod.action_matrix(y)) for y in {*diagrams, *(x.flip() for x in diagrams)}}
            for x in diagrams:
                lhs = mat_mul(transpose(mats[x]), gram)
                assert lhs == mat_mul(gram, mats[x.flip()]), (r, nu, str(x))

    def test_permutation_traces_on_top_layer(self):
        mod = standard_module(3, P([2, 1]), DELTA)
        for sigma in [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)]:
            mat = mod.action_matrix(permutation_diagram(sigma))
            tr = sum(mat[i][i] for i in range(mod.dim))
            assert tr == character(P([2, 1]), cycle_type(sigma))

    def test_factor_is_the_composed_diagram_factored(self):
        # _factor joins once on the middle row; the reference composes the
        # whole diagram, counts its propagating blocks and factors it
        for r in range(4):
            for m in range(r + 1):
                halves = half_diagrams(r, m)
                for x in enumerate_diagrams(r, r):
                    for half in halves:
                        assert StandardModule._factor(x, half) == factor_by_compose(x, half), (str(x), str(half))

    def test_factor_of_the_pairs_of_the_gram(self):
        # gram_matrix joins the flipped (m, r) half-diagram i above half j
        for r in range(5):
            for m in range(r + 1):
                halves = half_diagrams(r, m)
                for vi in halves:
                    flipped = vi.flip()
                    for vj in halves:
                        assert StandardModule._factor(flipped, vj) == factor_by_compose(flipped, vj), (str(vi), str(vj))

    def test_gram_pairs_factor_as_flips_of_each_other(self):
        # gram_matrix joins only the pairs j >= i: flip(v_j) over v_i is the
        # flip of flip(v_i) over v_j, so it drops a block exactly when that
        # one does, and otherwise has the same loops and the inverse sigma
        for r in range(5):
            for m in range(r + 1):
                halves = half_diagrams(r, m)
                for vi in halves:
                    for vj in halves:
                        ij = StandardModule._factor(vi.flip(), vj)
                        ji = StandardModule._factor(vj.flip(), vi)
                        assert (ij is None) == (ji is None), (str(vi), str(vj))
                        if ij is not None:
                            assert ji[0] == ij[0], (str(vi), str(vj))
                            assert tuple(ji[1][s - 1] for s in ij[1]) == tuple(range(1, m + 1)), (str(vi), str(vj))

    def test_each_distinct_sigma_block_is_computed_once(self, monkeypatch):
        # the module asks its Specht model for one block per distinct sigma:
        # in the action matrix of each permutation, and in the Gram matrix
        mod = standard_module(4, P([2, 1]), Fraction(3))
        calls = {"matrix_of": [], "form_of": []}
        for name, seen in calls.items():
            real = getattr(SpechtModel, name)
            monkeypatch.setattr(SpechtModel, name, lambda model, sigma, real=real, seen=seen: seen.append(sigma) or real(model, sigma))
        for sigma in permutations(range(1, 5)):
            for seen in calls.values():
                seen.clear()
            mod.action_matrix(permutation_diagram(sigma))
            assert len(calls["matrix_of"]) == len(set(calls["matrix_of"])), sigma
            assert calls["form_of"] == [], sigma
        # the Gram matrix joins only the pairs j >= i, whose 4 distinct sigma
        # leave out (3,1,2), the inverse of (2,3,1); each form_of block is
        # the form of the basis times one matrix_of
        for seen in calls.values():
            seen.clear()
        mod.gram_matrix()
        assert len(calls["form_of"]) == len(set(calls["form_of"])) == 4
        assert calls["matrix_of"] == calls["form_of"]

    @pytest.mark.parametrize("r", [5, 6])
    def test_factor_on_seeded_samples(self, r):
        rng = random.Random(r)
        for m in range(r + 1):
            halves = half_diagrams(r, m)
            for _ in range(60):
                x, half = random_diagram(rng, r, r), rng.choice(halves)
                assert StandardModule._factor(x, half) == factor_by_compose(x, half), (str(x), str(half))
                flipped = rng.choice(halves).flip()
                assert StandardModule._factor(flipped, half) == factor_by_compose(flipped, half), (str(flipped), str(half))

    def test_factor_half_diagram(self):
        sigma, canonical = factor_half_diagram(D("{1,2'}{2,1'}"))
        assert sigma == (2, 1)
        assert canonical == D("{1,1'}{2,2'}")

    def test_gram_full_rank_at_generic_parameter(self):
        for delta in (Fraction(7, 2), Fraction(-13, 5)):
            for r in (1, 2, 3):
                for nu in partitions_up_to(r):
                    mod = standard_module(r, nu, delta)
                    assert rank(mod.gram_matrix()) == mod.dim

    def test_gram_matches_the_product_reference(self):
        # the Gram built as (Specht form) x (matrix of sigma) per pair of
        # half-diagrams: every nu at r <= 3, two seeded nu at r = 4
        cases = [(r, nu) for r in range(4) for nu in partitions_up_to(r)]
        cases += [(4, nu) for nu in random.Random(4).sample(partitions_up_to(4), 2)]
        for delta in (Fraction(5), Fraction(7, 2), Fraction(-3, 2)):
            for r, nu in cases:
                mod = standard_module(r, nu, delta)
                assert mod.gram_matrix() == gram_by_products(mod), (r, nu, delta)

    @pytest.mark.parametrize("delta", [5, -2])
    def test_integral_parameter_gives_int_entries(self, delta):
        for r in (1, 2, 3):
            for nu in partitions_up_to(r):
                mod = standard_module(r, nu, delta)
                _integral(mod.gram_matrix())
                for sigma in permutations(range(1, r + 1)):
                    _integral(mod.action_matrix(permutation_diagram(sigma)))

    def test_refusals(self):
        with pytest.raises(ValueError, match="exceeds the degree 2"):
            StandardModule(2, P([2, 1]), DELTA)
        mod = StandardModule(2, P([1]), DELTA)
        with pytest.raises(ValueError, match="parameter mismatch"):
            mod.action_matrix(AlgebraElement.one(2, Fraction(7, 2)))
        with pytest.raises(ValueError, match="degree 3 does not act in degree 2"):
            mod.action_matrix(identity_diagram(3))
        with pytest.raises(ValueError, match="degree 3 does not act in degree 2"):
            mod.action_matrix(AlgebraElement.one(3, DELTA))
        with pytest.raises(ValueError, match="profile"):
            mod.action_matrix(D("{1,2,1'}"))
        # an empty element is refused too: it has a degree, and it is not 2
        with pytest.raises(ValueError, match="degree 3 does not act in degree 2"):
            mod.action_matrix(AlgebraElement(3, DELTA))

    def test_gram_drops_rank_at_degenerate_parameter(self):
        # the three-dimensional degree-2 module is the one with a radical at
        # parameter 2
        mod = standard_module(2, P([1]), Fraction(2))
        assert rank(mod.gram_matrix()) < mod.dim


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
        with pytest.raises(ValueError, match=r"^split 1\+2 does not match 2 top vertices$"):
            crossing_profile(D("{1,1'}{2}"), 1, 2)
        with pytest.raises(ValueError):
            crossing_profile(D("{1,1'}{2}"), -1, 3)  # negative split

    def test_split_is_read_as_degrees(self):
        d = D("{1,1'}{2}")
        for r, s in ((1.5, 0.5), (1.0, 1), (1, "1")):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                crossing_profile(d, r, s)
        for r, s in ((-1, 3), (3, -1)):
            with pytest.raises(ValueError, match="negative degree -1$"):
                crossing_profile(d, r, s)
        assert crossing_profile(d, 1, 1) == (1, 0, 0, 0)


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

    def test_degrees_are_read_as_degrees(self):
        for call in (
            lambda: restriction_table(P([1]), -1, 2),
            lambda: restriction_table(P([1]), 2, -1),
            lambda: restrict_multiplicity(P([3]), -1, 5, P(), P([3])),
            lambda: restrict_multiplicity(P([3]), 5, -1, P([3]), P()),
        ):
            with pytest.raises(ValueError, match="negative degree -1$"):
                call()
        for call in (
            lambda: restriction_table(P([1]), 2.5, 1),
            lambda: restrict_multiplicity(P([1]), 1, 2.5, P(), P([1])),
        ):
            with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
                call()

    def test_table_is_every_nonzero_multiplicity(self):
        # the table reads only the label sizes of the size triangle; the
        # reference asks restrict_multiplicity about every label pair
        for nu in partitions_up_to(7):
            for m in range(nu.size, 8):
                for r in range(m + 1):
                    s = m - r
                    want = {}
                    for lam in partitions_up_to(r):
                        for mu in partitions_up_to(s):
                            if c := restrict_multiplicity(nu, r, s, lam, mu):
                                want[(lam, mu)] = c
                    assert restriction_table(nu, r, s) == want, (nu, r, s)

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
        for m in range(2, 6):
            for r in range(1, m):
                s = m - r
                for nu in partitions_up_to(m):
                    table = restriction_table(nu, r, s)
                    filtration = sum(c * dim_standard(r, lam) * dim_standard(s, mu) for (lam, mu), c in table.items())
                    assert dim_standard(m, nu) == filtration, (nu, r, s)


def _integral(mat):
    assert all(type(v) is int for row in mat for v in row)
    return mat
