"""Integer partitions, Young diagram geometry, first-row padding, the one
enumeration of partitions, and the n-pair chains that describe blocks of the
partition algebra at integral parameter.

Partitions are stored canonically (weakly decreasing positive parts, no
trailing zeros) and serialize as bracketed part lists, e.g. ``[4,1]``; the
empty partition is ``[]``.  A padded label is itself a Partition of n (pad),
and a block chain is a tuple of Partitions (block_chain).  Partitions are
enumerated once, by _classes, which also sizes the conjugacy classes of the
symmetric group; partitions_of reads its cycle types.  A cycle type is
located by its one additive class key, _class_key: the keys of cycle types
that are joined add, _class_keys lists the keys of the classes of one
degree, and _class_index maps a key to its position in _classes.  A degree
is read once, by _degree, and n once, by _n.  Young diagram containment,
which only the tests read, is contains in tests/oracles.py.

Only the public constructor validates: Partition(...) and Partition.parse
check what a caller gives, and the library builds the parts tuples it made
itself (pad, dagger, block_chain, partitions_of, conjugate) with the
unchecked Partition._of.
"""

from __future__ import annotations

from itertools import takewhile
from math import factorial
from operator import index
from typing import Iterable, Iterator

from . import _memo


class Partition:
    """A weakly decreasing sequence of positive integers.

    Immutable and hashable; ordering is by (size, parts) so sorted lists of
    partitions come out grouped by degree.  Only the public constructor
    validates; the library builds the parts tuples it made itself with the
    unchecked _of.
    """

    __slots__ = ("parts", "size")

    def __init__(self, parts: Iterable[int] = ()):
        if isinstance(parts, Partition):
            self.parts = parts.parts
            self.size = parts.size
            return
        # index, not int: a float or a string is refused, not truncated
        p = tuple(map(index, parts))
        while p and p[-1] == 0:
            p = p[:-1]
        if p and p[-1] < 0:
            raise ValueError(f"partition parts must be positive: {p}")
        if any(a < b for a, b in zip(p, p[1:])):
            raise ValueError(f"parts must be weakly decreasing: {p}")
        self.parts = p
        self.size = sum(p)

    @classmethod
    def _of(cls, parts: tuple) -> "Partition":
        """The partition of a canonical parts tuple, unchecked."""
        lam = object.__new__(cls)
        lam.parts, lam.size = parts, sum(parts)
        return lam

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the bracketed serialization, e.g. ``[4,1]`` or ``[ ]``."""
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"expected bracketed partition, got {text!r}")
        body = s[1:-1].strip()
        if not body:
            return cls()
        parts = [item.strip() for item in body.split(",")]
        if bad := [item for item in parts if not _is_numeral(item)]:
            raise ValueError(f"bad part {bad[0]!r} in {text!r}")
        return cls(map(int, parts))

    def row(self, i: int) -> int:
        """The i-th part, 1-indexed; 0 for rows below the diagram."""
        if i < 1:
            raise ValueError("row index must be >= 1")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition._of(())
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition._of(tuple(cols))

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return (self.size, self.parts) < (other.size, other.parts)

    def __le__(self, other: "Partition") -> bool:
        return (self.size, self.parts) <= (other.size, other.parts)

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


def _is_numeral(text: str) -> bool:
    """True iff text is 0 or unsigned ASCII digits with no leading zero."""
    return text.isascii() and text.isdigit() and (text == "0" or text[0] != "0")


def pad(lam: Partition, n: int) -> Partition:
    """The partition (n - |lam|, lam_1, lam_2, ...) of n, whose first row is
    the padding row; valid only when n - |lam| >= lam_1."""
    return Partition._of(_pad(Partition(lam).parts, n))


def _pad(parts: tuple, n: int) -> tuple:
    """The parts (n - |parts|, *parts) of the padded partition, for a valid
    parts tuple, n read by _n; ValueError when the first row would be too
    short.  The first row is then at least 1, so every part is positive."""
    head = _n(n) - sum(parts)
    if head < (parts[0] if parts else 0):
        raise ValueError(f"{Partition(parts)} is not a partition for this n={n}")
    return (head,) + parts


def _reduce(label: Partition, n: int) -> tuple:
    """The reduced parts of a label at n: a partition of n loses its first
    (padding) row, and any other label must have a padding at n and is kept."""
    parts = Partition(label).parts
    if sum(parts) == n > 0:
        return parts[1:]
    _pad(parts, n)  # the padding ValueError, n read by _n
    return parts


def is_n_pair(mu: Partition, lam: Partition, n: int) -> bool:
    """True iff lam/mu is a one-row horizontal strip whose rightmost box has
    content n - |mu|."""
    return _successor(Partition(mu).parts, _n(n)) == Partition(lam).parts


def _successor(nu: tuple, n: int) -> tuple | None:
    """The parts of the unique lam with nu -> lam an n-pair, or None."""
    # The strip added in row i must end at content n - |nu|, which forces the
    # new row value n - |nu| + i; at most one row admits it.
    size, out = sum(nu), None
    for i in range(1, len(nu) + 2):
        v = n - size + i
        below = nu[i - 1] if i <= len(nu) else 0
        if v > below and (i == 1 or v <= nu[i - 2]):
            if out is not None:
                raise ArithmeticError("n-pair successor is not unique")
            out = nu[: i - 1] + (v,) + nu[i:]
    return out


def _predecessor(nu: tuple, n: int) -> tuple | None:
    """The parts of the unique mu with mu -> nu an n-pair, or None."""
    size, out = sum(nu), None
    for i in range(1, len(nu) + 1):
        v = n - size + i
        if v < 0 or v >= nu[i - 1] or (i < len(nu) and v < nu[i]):
            continue
        if out is not None:
            raise ArithmeticError("n-pair predecessor is not unique")
        # v = 0 only in the last row, which then disappears
        out = nu[: i - 1] + (v,) + nu[i:] if v else nu[:-1]
    return out


def _walk(nu: tuple, n: int) -> Iterator[tuple]:
    """The n-pair chain through the parts tuple nu, from its minimal element
    upward: down the predecessors, then up the successors."""
    while (prev := _predecessor(nu, n)) is not None:
        nu = prev
    yield nu
    while (nu := _successor(nu, n)) is not None:
        yield nu


def block_chain(nu: Partition, n: int, r: int) -> tuple[Partition, ...]:
    """The n-pair chain through nu restricted to partitions of size <= r:
    consecutive entries are n-pairs, so sizes strictly increase.

    When pad(nu, n) exists, nu is the minimal entry and the chain starts at
    it; otherwise the backward walk finds the true minimum.
    """
    nu, n, r = Partition(nu), _n(n), _degree(r)
    if nu.size > r:
        raise ValueError(f"{nu} does not lie in degrees <= {r}")
    return tuple(map(Partition._of, takewhile(lambda p: sum(p) <= r, _walk(nu.parts, n))))


def dagger(padded: Partition, i: int) -> Partition:
    """Add 1 to the parts with index 0..i-1 of the padded partition, erase
    part i, and return the result.

    Parts are counted from 0, so part 0 is the padding row of pad(nu, n);
    zero rows below the diagram participate and become parts equal to 1.
    With i = 0 this recovers the unpadded base partition.
    """
    # read with index, as _degree reads a degree: a float is refused, not
    # truncated, and a negative index keeps its own message
    i = index(i)
    if i < 0:
        raise ValueError("dagger index must be >= 0")
    rows = Partition(padded).parts
    head = [r + 1 for r in rows[:i]] + [1] * (i - len(rows))
    return Partition._of(tuple(head) + rows[i + 1:])


def _degree(r: int) -> int:
    """r read as a degree with operator.index, as Partition reads a part (a
    float is refused, not truncated); ValueError when r is negative."""
    r = index(r)
    if r < 0:
        raise ValueError(f"negative degree {r}")
    return r


def _n(n: int) -> int:
    """n read with operator.index, as _degree reads a degree (a float is
    refused, not truncated); ValueError when n < 1."""
    n = index(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    return n


@_memo
def _partition_count(m: int, t: int) -> int:
    """Number of partitions of m with every part <= t; p(m) is
    _partition_count(m, m)."""
    if m == 0:
        return 1
    if t == 0:
        return 0
    t = min(t, m)
    return _partition_count(m, t - 1) + _partition_count(m - t, t)


@_memo
def _classes(n: int) -> tuple[tuple[tuple, int], ...]:
    """(cycle type, class size) of every class of S_n, the cycle types as
    parts tuples in ascending lexicographic order; empty for n < 0.

    The classes of first part u are u followed by the first
    _partition_count(n - u, u) classes of S_{n-u}, those with parts <= u.
    Adding the part u multiplies |rho|! by n! / (n-u)! and z_rho by u times
    the new multiplicity of u.
    """
    if n == 0:
        return (((), 1),)
    out = []
    for u in range(1, n + 1):
        # n! / (n-u)! is a product of u consecutive integers, so u divides it
        ways = factorial(n) // factorial(n - u) // u
        for rho, size in _classes(n - u)[: _partition_count(n - u, u)]:
            out.append(((u,) + rho, size * ways // (rho.count(u) + 1)))
    return tuple(out)


def _class_key(rho: tuple, n: int) -> int:
    """The additive key of the cycle type rho, |rho| <= n, for target n: the
    sum over its parts of (n+1)^(part-1).  A cycle type of size <= n has no
    part of multiplicity above n, so no base-(n+1) digit carries: keys are
    distinct, and the key of a juxtaposition of cycle types is the sum of
    their keys."""
    return sum((n + 1) ** (part - 1) for part in rho)


@_memo
def _class_keys(k: int, n: int) -> tuple[int, ...]:
    """_class_key(rho, n) of every class rho of S_k, k <= n, in the order of
    _classes(k)."""
    return tuple(_class_key(rho, n) for rho, _size in _classes(k))


@_memo
def _class_index(n: int) -> dict[int, int]:
    """Position in _classes(n) of each cycle type of S_n, by _class_key."""
    return {key: i for i, key in enumerate(_class_keys(n, n))}


@_memo
def partitions_of(k: int) -> tuple[Partition, ...]:
    """All partitions of k, sorted: the cycle types of _classes(k), whose
    lexicographic order is the (size, parts) order of Partition."""
    return tuple(Partition._of(rho) for rho, _size in _classes(k))


@_memo
def partitions_up_to(r: int) -> tuple[Partition, ...]:
    """All partitions of size <= r (the label set of degree-r standard
    modules), sorted by (size, parts)."""
    out: list[Partition] = []
    for k in range(max(r, -1) + 1):
        out.extend(partitions_of(k))
    return tuple(out)
