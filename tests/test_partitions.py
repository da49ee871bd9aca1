import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kroncoef.partitions import (
    Partition,
    _class_index,
    _class_key,
    _class_keys,
    _classes,
    _predecessor,
    _successor,
    block_chain,
    dagger,
    is_n_pair,
    pad,
    partitions_of,
    partitions_up_to,
)
from oracles import is_n_pair_bruteforce, partitions_of_generated

P = Partition

partition_st = st.lists(st.integers(1, 7), max_size=6).map(
    lambda xs: P(sorted(xs, reverse=True))
)


class TestPartition:
    def test_canonical(self):
        assert P([3, 2, 0, 0]).parts == (3, 2)
        assert P([]).parts == ()
        assert P([1, 1]).size == 2
        assert len(P([4, 1])) == 2

    def test_rejects_bad_sequences(self):
        with pytest.raises(ValueError):
            P([1, 2])
        with pytest.raises(ValueError):
            P([2, -1])

    def test_rejects_non_integral_parts(self):
        # refused, not truncated: P([1.5]) is not P([1])
        for parts in ([1.5], [1.0], [2.0, 1], ["3", 2]):
            with pytest.raises(TypeError):
                P(parts)

    def test_serialization_roundtrip(self):
        for p in partitions_up_to(6):
            assert Partition.parse(str(p)) == p
        assert str(P()) == "[]"
        assert Partition.parse("[4,1]") == P([4, 1])

    def test_parse_refuses_what_str_never_writes(self):
        # a part is 0 or unsigned ASCII digits with no leading zero
        for text, item in [
            ("[1_0]", "1_0"),
            ("[+1]", "+1"),
            ("[01]", "01"),
            ("[\u0663]", "\u0663"),
            ("[2,-0]", "-0"),
            ("[x]", "x"),
            ("[2,,1]", ""),
            ("[1,]", ""),
        ]:
            with pytest.raises(ValueError) as exc:
                Partition.parse(text)
            assert str(exc.value) == f"bad part {item!r} in {text!r}"

    def test_parse_allows_whitespace_and_zero_parts(self):
        assert Partition.parse(" [ 3 , 1 ] ") == P([3, 1])
        assert Partition.parse("[2,0]") == P([2])
        assert Partition.parse("[0]") == P() == Partition.parse("[ ]")
        assert Partition.parse("[10]") == P([10])

    def test_row_access(self):
        lam = P([4, 2, 1])
        assert [lam.row(i) for i in (1, 2, 3, 4)] == [4, 2, 1, 0]
        assert list(lam) == [4, 2, 1]
        with pytest.raises(ValueError):
            lam.row(0)


class TestConjugate:
    def test_examples(self):
        assert P().conjugate() == P()
        assert P([2, 1]).conjugate() == P([2, 1])
        assert P([3, 1]).conjugate() == P([2, 1, 1])

    def test_involution_exhaustive(self):
        for k in range(13):
            for lam in partitions_of(k):
                assert lam.conjugate().conjugate() == lam


class TestPad:
    def test_examples(self):
        assert pad(P([1]), 2).parts == (1, 1)
        assert pad(P([1]), 5).parts == (4, 1)
        for lam, n in ((P([2]), 3), (P([3]), 4)):
            with pytest.raises(ValueError):
                pad(lam, n)

    def test_total(self):
        for lam in partitions_up_to(5):
            for n in range(1, 14):
                try:
                    padded = pad(lam, n)
                except ValueError:
                    assert n - lam.size < lam.row(1)
                    continue
                assert padded.size == n
                assert padded.row(1) == n - lam.size

    @given(partition_st, st.integers(1, 30))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, lam, n):
        try:
            padded = pad(lam, n)
        except ValueError:
            return
        assert Partition(padded.parts[1:]) == lam


class TestNPairs:
    def test_examples(self):
        assert is_n_pair(P([2, 1]), P([4, 1]), 6)
        assert not is_n_pair(P([2, 1]), P([2, 1]), 6)
        assert not is_n_pair(P([2, 1]), P([3, 2]), 6)

    def test_nonpositive_n_refused(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                is_n_pair(P([]), P([1]), n)
        # n is read as a degree is: a float is refused, not truncated
        with pytest.raises(TypeError):
            is_n_pair(P([]), P([1]), 4.5)
        with pytest.raises(TypeError):
            pad(P([1]), 4.5)
        with pytest.raises(TypeError):
            block_chain(P([1]), 4.5, 3)

    def test_against_bruteforce(self):
        for mu in partitions_up_to(5):
            for lam in partitions_up_to(6):
                for n in range(1, 9):
                    assert is_n_pair(mu, lam, n) == is_n_pair_bruteforce(mu, lam, n)

    def test_successor_predecessor_inverse(self):
        for nu in partitions_up_to(6):
            for n in range(1, 12):
                nxt = _successor(nu.parts, n)
                if nxt is not None:
                    assert is_n_pair(nu, nxt, n)
                    assert _predecessor(nxt, n) == nu.parts
                prev = _predecessor(nu.parts, n)
                if prev is not None:
                    assert is_n_pair(prev, nu, n)
                    assert _successor(prev, n) == nu.parts

    def test_first_step_size(self):
        # the first strip ends at content n - |nu|, so |nu^(1)| = n + 1 - nu_1
        for nu in partitions_up_to(6):
            for n in range(1, 14):
                try:
                    pad(nu, n)
                except ValueError:
                    continue
                nxt = _successor(nu.parts, n)
                assert nxt is not None and sum(nxt) == n + 1 - nu.row(1)


class TestBlockChain:
    def test_degree_two_chains(self):
        assert [p.parts for p in block_chain(P([1]), 2, 2)] == [(1,), (2,)]
        assert [p.parts for p in block_chain(P([1, 1]), 2, 2)] == [(1, 1)]
        with pytest.raises(ValueError, match=r"\[2\] does not lie in degrees <= 1$"):
            block_chain(P([2]), 4, 1)

    def test_degree_is_read_as_a_degree(self):
        # a float r is refused, not compared: 3.5 once gave ([1], [3])
        for r in (3.5, 3.0, "3"):
            with pytest.raises(TypeError):
                block_chain(P([1]), 3, r)
        with pytest.raises(ValueError, match="negative degree -1$"):
            block_chain(P(), 3, -1)

    def test_long_chain_entries(self):
        chain = block_chain(P([10, 10]), 30, 40)
        assert chain[9] == P([11, 11, 11, 1, 1, 1, 1, 1, 1])
        assert chain[10] == P([11, 11, 11, 1, 1, 1, 1, 1, 1, 1])
        assert len(chain) == 11

    def test_sizes_strictly_increase(self):
        for nu in partitions_up_to(5):
            for n in range(1, 10):
                chain = block_chain(nu, n, 8)
                sizes = [p.size for p in chain]
                assert sizes == sorted(set(sizes))

    def test_singleton_iff_bound(self):
        for nu in partitions_up_to(5):
            for n in range(1, 12):
                try:
                    pad(nu, n)
                except ValueError:
                    continue
                for r in range(nu.size, 11):
                    assert (len(block_chain(nu, n, r)) == 1) == (n + 1 - nu.row(1) > r)

    def test_strip_in_row_i(self):
        # counting from the minimal element, step i adds boxes in row i only;
        # entry i has n + i - pad(nu, n)_i boxes, so the cap n + 7 admits the
        # first 8 entries
        for nu in partitions_up_to(5):
            for n in range(1, 12):
                try:
                    pad(nu, n)
                except ValueError:
                    continue
                chain = block_chain(nu, n, n + 7)
                assert len(chain) == 8
                for i in range(1, len(chain)):
                    prev, cur = chain[i - 1], chain[i]
                    changed = [
                        j
                        for j in range(1, len(cur) + 1)
                        if cur.row(j) != prev.row(j)
                    ]
                    assert changed == [i]

    def test_steps_are_n_pairs_within_the_degree_cap(self):
        for nu in partitions_up_to(5):
            for n in range(1, 12):
                for r in range(nu.size, 11):
                    chain = block_chain(nu, n, r)
                    assert all(p.size <= r for p in chain), (nu, n, r)
                    for a, b in zip(chain, chain[1:]):
                        assert is_n_pair_bruteforce(a, b, n), (nu, n, r, a, b)


class TestDagger:
    def test_examples(self):
        assert dagger(pad(P([1, 1]), 4), 0) == P([1, 1])
        d8 = dagger(pad(P([10, 10]), 30), 8)
        assert d8 == P([11, 11, 11, 1, 1, 1, 1, 1])
        assert d8.size == 38
        with pytest.raises(ValueError, match="dagger index must be >= 0$"):
            dagger(pad(P([1]), 3), -1)

    def test_index_is_read_as_an_integer(self):
        # a float i is refused by index, not by a slice inside the sum
        for i in (1.5, 1.0, "1"):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                dagger(pad(P([1]), 3), i)

    def test_matches_chain_exhaustive(self):
        for nu in partitions_up_to(6):
            for n in range(1, 17):
                try:
                    padded = pad(nu, n)
                except ValueError:
                    continue
                # entry i has n + i - padded_i boxes: the cap n + 10 admits 11
                chain = block_chain(nu, n, n + 10)
                assert len(chain) == 11
                for i, entry in enumerate(chain):
                    assert dagger(padded, i) == entry

    @given(partition_st, st.integers(1, 25), st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_always_a_partition(self, nu, n, i):
        try:
            padded = pad(nu, n)
        except ValueError:
            return
        out = dagger(padded, i)
        assert isinstance(out, Partition)


class TestEnumeration:
    def test_counts(self):
        # p(0..10) = 1,1,2,3,5,7,11,15,22,30,42
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert [len(partitions_of(k)) for k in range(11)] == expected
        assert len(partitions_up_to(4)) == 12

    def test_matches_the_generated_and_sorted_list(self):
        for k in range(-1, 16):
            assert partitions_of(k) == partitions_of_generated(k), k

    def test_sorted_and_unique(self):
        ps = partitions_up_to(6)
        assert len(set(ps)) == len(ps)
        assert list(ps) == sorted(ps)

    def test_class_keys_are_distinct_and_index_their_classes(self):
        for n in range(21):
            keys = [_class_key(rho, n) for rho, _size in _classes(n)]
            assert len(set(keys)) == len(keys), n
            assert _class_index(n) == {key: i for i, key in enumerate(keys)}, n
            for k in range(n + 1):
                assert _class_keys(k, n) == tuple(_class_key(rho, n) for rho, _size in _classes(k)), (k, n)


class TestUncheckedConstruction:
    """The library builds its own partitions with the unchecked
    Partition._of; each must be what the checked constructor makes of its
    parts.  The public paths' refusals are tested with each function."""

    @staticmethod
    def assert_canonical(p):
        checked = Partition(list(p.parts))
        assert (p.parts, p.size) == (checked.parts, checked.size), p

    def test_library_partitions_are_canonical(self):
        for k in range(13):
            for lam in partitions_of(k):
                self.assert_canonical(lam)
                self.assert_canonical(lam.conjugate())
        for nu in partitions_up_to(5):
            for n in range(1, 13):
                for r in range(nu.size, 11):
                    for entry in block_chain(nu, n, r):
                        self.assert_canonical(entry)
                try:
                    padded = pad(nu, n)
                except ValueError:
                    continue
                self.assert_canonical(padded)
                for i in range(9):
                    self.assert_canonical(dagger(padded, i))
