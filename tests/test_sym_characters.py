import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kroncoef
from kroncoef import sym_characters
from kroncoef.partitions import Partition, _classes, _partition_count, partitions_of, partitions_up_to
from kroncoef.sym_characters import (
    SPECHT_CAP,
    CharacterTable,
    SpechtModel,
    character,
    kron_oracle,
    specht_dim,
    specht_model,
    standard_tableaux,
    _chars,
)
from oracles import (
    char_beta,
    class_size,
    cycle_type,
    form_by_pairing,
    induction_mult,
    mat_mul,
    matrix_by_straightening,
    transpose,
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

    def test_matches_beta_set_recursion_up_to_12(self):
        for n in range(13):
            for lam in partitions_of(n):
                for rho in partitions_of(n):
                    assert character(lam, rho) == char_beta(lam.parts, rho.parts), (lam, rho)

    @pytest.mark.parametrize("n", [20, 24, 30])
    def test_matches_beta_set_recursion_with_a_long_first_row(self, n):
        # a long first row makes every class block non-trivial; a fault in
        # the order of the blocks or of their tails shows only at such sizes
        for tail in ((2, 1, 1), (3, 3), (5,), (1,) * 6):
            lam = (n - sum(tail),) + tail
            assert _chars(lam) == tuple(char_beta(lam, rho) for rho, _size in _classes(n)), lam

    def test_conjugate_is_the_sign_twist_up_to_14(self):
        # chi^lam' = sgn . chi^lam checks every strip sign of the bead moves
        # from cold caches, with no reference recursion
        kroncoef.clear_caches()
        for n in range(15):
            signs = [(-1) ** (n - len(rho)) for rho, _size in _classes(n)]
            for lam in partitions_of(n):
                twisted = tuple(s * c for s, c in zip(signs, _chars(lam.parts)))
                assert _chars(lam.conjugate().parts) == twisted, lam

    def test_each_partition_has_one_bead_key(self, monkeypatch):
        # the first _upto call of _chars(lam) gives the key of lam; every
        # state the recursion reaches must be the key of a partition of its
        # size, so a bead that lands on 0 is shifted away
        kroncoef.clear_caches()
        upto, seen = sym_characters._upto, []

        def spy(beads, n, t):
            seen.append((beads, n))
            return upto(beads, n, t)

        monkeypatch.setattr(sym_characters, "_upto", spy)
        keys = {}
        for n in range(17):
            for lam in partitions_of(n):
                seen.clear()
                _chars(lam.parts)
                keys[seen[0]] = lam
                assert all(state in keys for state in seen), lam
        assert len(keys) == sum(_partition_count(n, n) for n in range(17))
        assert _chars(()) == (1,)

    def test_short_character_vector_raises(self, monkeypatch):
        kroncoef.clear_caches()
        monkeypatch.setattr(sym_characters, "_upto", lambda beads, n, t: (1,))
        with pytest.raises(ArithmeticError):
            _chars((2, 1))

    def test_partition_count(self):
        for m in range(21):
            for t in range(m + 2):
                assert _partition_count(m, t) == sum(1 for p in partitions_of(m) if not p.parts or p.parts[0] <= t)


class TestClassSize:
    """The sizes that _classes computes by its recursion over the first part."""

    def test_examples(self):
        assert dict(_classes(3))[(1, 1, 1)] == 1
        assert dict(_classes(5))[(5,)] == 24
        assert dict(_classes(3))[(2, 1)] == 3

    def test_matches_the_formula_up_to_14(self):
        for n in range(15):
            for rho, size in _classes(n):
                assert size == class_size(P(rho)), (n, rho)

    def test_sums_to_factorial(self):
        for n in range(15):
            assert sum(size for _rho, size in _classes(n)) == factorial(n)


class TestCharacterTable:
    def test_orthogonality_up_to_8(self):
        for n in range(1, 9):
            CharacterTable(n).check_orthogonality()

    def test_orthogonality_fault_raises(self, monkeypatch):
        # chi^(2) on the class (2) negated: the row of (2) reads as (1,1)'s
        real = sym_characters._chars
        monkeypatch.setattr(sym_characters, "_chars", lambda lam: (1, -1) if lam == (2,) else real(lam))
        kroncoef.clear_caches()
        try:
            with pytest.raises(ArithmeticError, match=r"^row orthogonality fails at \(\[1,1\], \[2\]\)$"):
                CharacterTable(2).check_orthogonality()
        finally:
            monkeypatch.undo()
            kroncoef.clear_caches()

    def test_tsv_shape(self):
        tsv = CharacterTable(4).to_tsv()
        lines = tsv.strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith("lambda\\rho")

    def test_tsv_cells_are_the_characters(self):
        # each cell is looked up by its row and column labels, so a row or
        # column out of order fails even when the set of values is right
        for n in range(8):
            header, *lines = CharacterTable(n).to_tsv().splitlines()
            columns = [P.parse(text) for text in header.split("\t")[1:]]
            assert sorted(columns) == list(partitions_of(n))
            assert len(lines) == len(columns)
            for line in lines:
                label, *cells = line.split("\t")
                assert len(cells) == len(columns)
                for rho, cell in zip(columns, cells):
                    assert int(cell) == character(P.parse(label), rho), (n, label, rho)
            assert sorted(P.parse(line.split("\t")[0]) for line in lines) == list(partitions_of(n))

    def test_idempotent_under_threads(self):
        with ThreadPoolExecutor(max_workers=8) as pool:
            tables = list(pool.map(CharacterTable, [6] * 16))
        assert len({t.to_tsv() for t in tables}) == 1


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
        # the class sum over the table's classes, with the formula's class sizes
        for n in range(7):
            ps = CharacterTable(n).partitions
            for lam in ps:
                for mu in ps:
                    for nu in ps:
                        total = sum(
                            class_size(rho) * character(lam, rho) * character(mu, rho) * character(nu, rho)
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
                        1 if nu == lam.conjugate() else 0
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
        # n = 0 and 1 permute no entries: e_t0 is the one polytabloid and
        # the identity the one sigma, so nothing is gathered
        for n in range(6):
            m = specht_model([n] if n else [])
            assert m.dim == 1
            assert m.generators == [((1,),)] * max(n - 1, 0)
            sigma = tuple(range(1, n + 1))
            assert m.matrix_of(sigma) == m.form_of(sigma) == ((1,),)
            assert m._keyed == [{(0,) * n: 1}]
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
            assert mat_mul(m.generators[i], m.generators[i]) == ident
        for i in range(k - 2):
            ab = mat_mul(m.generators[i], m.generators[i + 1])
            assert mat_mul(mat_mul(ab, ab), ab) == ident
        for i in range(k - 1):
            for j in range(i + 2, k - 1):
                assert mat_mul(m.generators[i], m.generators[j]) == mat_mul(
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
        assert mat_mul(m.matrix_of(s1), m.matrix_of(s2)) == m.matrix_of(composed)

    def test_invariant_form_is_sigma_invariant(self):
        for shape in ((2, 1), (3, 2), (2, 2, 1), (3, 2, 1)):
            m = specht_model(P(shape))
            form = m.form_of(tuple(range(1, m.k + 1)))
            for sigma in permutations(range(1, m.k + 1)):
                mat = m.matrix_of(sigma)
                lhs = mat_mul(transpose(mat), mat_mul(form, mat))
                assert tuple(tuple(row) for row in lhs) == form, (shape, sigma)

    def test_form_of_is_the_pairing_reference(self):
        # the form of the basis times the matrix of sigma is <e_a, sigma e_b>
        # paired off the polytabloids: every sigma for |nu| <= 5, a seeded
        # sample for |nu| = 6 and 7
        rng = random.Random(35)
        for k in range(8):
            perms = list(permutations(range(1, k + 1)))
            for nu in partitions_of(k):
                m = specht_model(nu)
                for sigma in perms if k <= 5 else rng.sample(perms, 20):
                    assert m.form_of(sigma) == form_by_pairing(m, sigma), (nu, sigma)

    def test_form_of_gathers_only_what_matrix_of_straightens(self, monkeypatch):
        # once the polytabloids and the form are built, form_of(sigma)
        # gathers exactly the columns that matrix_of(sigma) straightens
        gathered, straightened = [], []
        gather, straighten = sym_characters._gather, SpechtModel._straighten
        monkeypatch.setattr(sym_characters, "_gather", lambda vec, inverse: gathered.append(1) or gather(vec, inverse))
        monkeypatch.setattr(SpechtModel, "_straighten", lambda m, vec: straightened.append(1) or straighten(m, vec))

        def counts(m, sigma):
            gathered.clear()
            m.form_of(sigma)
            in_form = len(gathered)
            straightened.clear()
            m.matrix_of(sigma)
            return in_form, len(straightened)

        rng = random.Random(36)
        for k in range(8):
            perms = list(permutations(range(1, k + 1)))
            for nu in partitions_of(k):
                m = SpechtModel(nu)
                m.form_of(perms[0])
                assert counts(m, perms[0]) == (0, 0), nu
                for sigma in rng.sample(perms, min(len(perms), 5)):
                    in_form, in_matrix = counts(m, sigma)
                    assert in_form == in_matrix, (nu, sigma)
        # (1^k) is one column, so every sigma t sorts to the standard tableau
        for k in range(7):
            m = SpechtModel(P([1] * k))
            m.form_of(tuple(range(1, k + 1)))
            for sigma in permutations(range(1, k + 1)):
                assert counts(m, sigma) == (0, 0), (k, sigma)

    def test_generators_are_built_on_first_read(self, monkeypatch):
        # a cold build calls no matrix_of and expands no polytabloid
        calls = []
        matrix_of = SpechtModel.matrix_of
        monkeypatch.setattr(SpechtModel, "matrix_of", lambda m, sigma: calls.append(sigma) or matrix_of(m, sigma))
        kroncoef.clear_caches()
        count = 0
        for nu in partitions_up_to(SPECHT_CAP):
            m = specht_model(nu)
            assert calls == [] and "_keyed" not in vars(m), nu
            k = nu.size
            words = [tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, k + 1)) for i in range(1, k)]
            first = m.generators
            assert calls == words, nu
            assert first == [matrix_of(m, s) for s in words], nu
            calls.clear()
            assert m.generators is first and calls == [], nu
            count += 1
        # every partition of 0..7
        assert count == 45

    def test_matrix_and_form_refuse_a_non_permutation(self):
        m = specht_model(P([2, 1]))
        for sigma in ((1, 1, 2), (1, 2), (1, 2, 4)):
            for method in (m.matrix_of, m.form_of):
                with pytest.raises(ValueError, match=re.escape(f"not a permutation of 1..3: {sigma}")):
                    method(sigma)

    def test_matrix_of_is_the_straightening_reference(self):
        # every sigma for |nu| <= 5, a seeded sample for |nu| = 6 and 7
        rng = random.Random(33)
        for k in range(8):
            perms = list(permutations(range(1, k + 1)))
            for nu in partitions_of(k):
                m = specht_model(nu)
                for i, g in enumerate(m.generators, start=1):
                    assert g == m.matrix_of(tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, k + 1)))
                for sigma in perms if k <= 5 else rng.sample(perms, 20):
                    assert m.matrix_of(sigma) == matrix_by_straightening(m, sigma), (nu, sigma)

    def test_sorted_columns_spare_the_straightening(self, monkeypatch):
        expanded, straightened = [], []
        polytabloid, straighten = sym_characters._polytabloid, SpechtModel._straighten
        monkeypatch.setattr(sym_characters, "_polytabloid", lambda t, k: expanded.append(t) or polytabloid(t, k))
        monkeypatch.setattr(SpechtModel, "_straighten", lambda m, vec: straightened.append(m.nu) or straighten(m, vec))
        for k in range(8):
            SpechtModel(P([1] * k)).generators
        assert expanded == straightened == []
        # s_i t is standard, up to sorting a column, unless i and i + 1
        # share a row of t, where i + 1 comes to stand before i
        nu = P([3, 2, 1])
        want = sum(any(i in row and i + 1 in row for row in t) for t in standard_tableaux(nu) for i in range(1, 6))
        SpechtModel(nu).generators
        assert len(straightened) == want
        assert 0 < want < 5 * specht_dim(nu)

    def test_shared_model_from_threads(self):
        # (1^6) first expands its polytabloid, and both shapes first build
        # their form, in the threads' form_of calls
        rng = random.Random(34)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for shape in ((1,) * 6, (3, 2, 1)):
                sigmas = rng.sample(list(permutations(range(1, sum(shape) + 1))), 12)
                shared, alone = SpechtModel(P(shape)), SpechtModel(P(shape))
                want = [(matrix_by_straightening(alone, s), form_by_pairing(alone, s)) for s in sigmas]
                barrier = threading.Barrier(4)

                def run(_):
                    barrier.wait()
                    return [(shared.matrix_of(s), shared.form_of(s)) for s in sigmas]

                with ThreadPoolExecutor(max_workers=4) as pool:
                    assert list(pool.map(run, range(4))) == [want] * 4, shape
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("k", [5, 6])
    def test_matrix_of_is_the_generator_word_product(self, k):
        for nu in partitions_of(k):
            m = specht_model(nu)
            ref = _bubble_sort_products(m.generators, k)
            for sigma in permutations(range(1, k + 1)):
                assert m.matrix_of(sigma) == ref(sigma)

    def test_each_polytabloid_is_its_own_expansion(self):
        # the model expands the first tableau's polytabloid and permutes it
        # into the others; the reference expands each tableau's own columns
        for k in range(8):
            for nu in partitions_of(k):
                m = specht_model(nu)
                assert m._keyed == [sym_characters._polytabloid(t, k) for t in m.tableaux], nu

    def test_least_key_of_each_polytabloid_is_its_tableau(self):
        # the straightening order takes the top tabloid {t} of e_t from t,
        # the row index of each entry 1..k, and it is the least key of e_t;
        # _straighten visits the basis in tableau order, dominance-largest
        # first, so the keys of standard_tableaux strictly increase
        count = 0
        for k in range(8):
            for nu in partitions_of(k):
                m = specht_model(nu)
                keys = []
                for j, (t, vec) in enumerate(zip(m.tableaux, m._keyed, strict=True)):
                    key = [0] * k
                    for i, row in enumerate(t):
                        for v in row:
                            key[v - 1] = i
                    assert min(vec) == tuple(key) == m._tops[j], (nu, t)
                    keys.append(tuple(key))
                    count += 1
                assert m.tableaux == standard_tableaux(nu)
                assert all(a < b for a, b in zip(keys, keys[1:])), nu
        assert count == 352

    def test_straightening_outside_the_span_raises(self):
        # a row-index key: (1, 0) is the tabloid with 2 in the first row
        m = specht_model(P([1, 1]))
        with pytest.raises(ArithmeticError, match="outside the polytabloid span"):
            m._straighten({(1, 0): 1})
        assert m._straighten({(0, 1): 1, (1, 0): -1}) == (1,)


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
