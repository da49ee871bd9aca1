"""Integer partitions, Young diagram geometry, first-row padding, and the
n-pair chains that describe blocks of the partition algebra at integral
parameter.

Partitions are stored canonically (weakly decreasing positive parts, no
trailing zeros) and serialize as bracketed part lists, e.g. ``[4,1]``; the
empty partition is ``[]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator


class Partition:
    """A weakly decreasing sequence of positive integers.

    Immutable and hashable; ordering is by (size, parts) so sorted lists of
    partitions come out grouped by degree.
    """

    __slots__ = ("parts", "size")

    def __init__(self, parts: Iterable[int] = ()):
        if isinstance(parts, Partition):
            self.parts = parts.parts
            self.size = parts.size
            return
        p = tuple(int(x) for x in parts)
        while p and p[-1] == 0:
            p = p[:-1]
        if p and p[-1] < 0:
            raise ValueError(f"partition parts must be positive: {p}")
        if any(a < b for a, b in zip(p, p[1:])):
            raise ValueError(f"parts must be weakly decreasing: {p}")
        self.parts = p
        self.size = sum(p)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the bracketed serialization, e.g. ``[4,1]`` or ``[]``."""
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"expected bracketed partition, got {text!r}")
        body = s[1:-1].strip()
        if not body:
            return cls()
        return cls(int(x) for x in body.split(","))

    def row(self, i: int) -> int:
        """The i-th part, 1-indexed; 0 for rows below the diagram."""
        if i < 1:
            raise ValueError("row index must be >= 1")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        """True if other's Young diagram fits inside this one."""
        return all(self.row(i) >= p for i, p in enumerate(other.parts, 1))

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

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


EMPTY = Partition()


@dataclass(frozen=True)
class PaddedPartition:
    """A partition of n of the form (n - |base|, base_1, ..., base_ell).

    Row 0 is the padding row n - |base|; construction is rejected when that
    first entry would break weak decrease.
    """

    base: Partition
    n: int
    rows: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        base = Partition(self.base)
        object.__setattr__(self, "base", base)
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        head = self.n - base.size
        if head < base.row(1):
            raise ValueError(f"{base} is not a partition for this n={self.n}")
        object.__setattr__(self, "rows", (head,) + base.parts)

    def row(self, i: int) -> int:
        """Row i with the 0-indexed convention; 0 beyond the diagram."""
        if i < 0:
            raise ValueError("row index must be >= 0")
        return self.rows[i] if i < len(self.rows) else 0

    @property
    def length(self) -> int:
        """Number of nonzero rows (the padding row counts when nonzero)."""
        return len(Partition(self.rows))

    def to_partition(self) -> Partition:
        return Partition(self.rows)

    def __str__(self) -> str:
        return str(self.to_partition())


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    return Partition(lam).conjugate()


def content_last(lam: Partition, i: int) -> int:
    """Content of the last node in row i (1-indexed): lam_i - i."""
    lam = Partition(lam)
    if not 1 <= i <= len(lam):
        raise ValueError(f"row {i} out of range for {lam}")
    return lam.row(i) - i


def pad(lam: Partition, n: int) -> PaddedPartition:
    """Prepend the first row n - |lam|; valid only when n - |lam| >= lam_1."""
    return PaddedPartition(Partition(lam), n)


def is_n_pair(mu: Partition, lam: Partition, n: int) -> bool:
    """True iff lam/mu is a one-row horizontal strip whose rightmost box has
    content n - |mu|."""
    mu, lam = Partition(mu), Partition(lam)
    if mu == lam or not lam.contains(mu):
        return False
    changed = [i for i in range(1, len(lam) + 1) if lam.row(i) != mu.row(i)]
    if len(changed) != 1:
        return False
    i = changed[0]
    return lam.row(i) - i == n - mu.size


def n_pair_successor(nu: Partition, n: int) -> Partition | None:
    """The unique lam with nu -> lam an n-pair, or None.

    The strip added in row i must end at content n - |nu|, which forces the
    new row value n - |nu| + i; at most one row admits it.
    """
    nu = Partition(nu)
    out = None
    for i in range(1, len(nu) + 2):
        v = n - nu.size + i
        upper = nu.row(i - 1) if i > 1 else None
        if v > nu.row(i) and (upper is None or v <= upper):
            if out is not None:
                raise ArithmeticError("n-pair successor is not unique")
            parts = list(nu.parts)
            while len(parts) < i:
                parts.append(0)
            parts[i - 1] = v
            out = Partition(parts)
    return out


def n_pair_predecessor(nu: Partition, n: int) -> Partition | None:
    """The unique mu with mu -> nu an n-pair, or None."""
    nu = Partition(nu)
    out = None
    for i in range(1, len(nu) + 1):
        v = n - nu.size + i
        if v < 0 or v >= nu.row(i) or v < nu.row(i + 1):
            continue
        if v == 0 and i != len(nu):
            continue
        if out is not None:
            raise ArithmeticError("n-pair predecessor is not unique")
        parts = list(nu.parts)
        parts[i - 1] = v
        out = Partition(parts)
    return out


def n_pair_chain(nu: Partition, n: int) -> Iterator[Partition]:
    """Unbounded chain of n-pairs through nu, yielded from its minimal
    element onward.  The forward walk never terminates once the padding row
    exists, so consume with a bound."""
    nu = Partition(nu)
    back = [nu]
    while (prev := n_pair_predecessor(back[-1], n)) is not None:
        back.append(prev)
    cur = back[-1]
    yield cur
    while (nxt := n_pair_successor(cur, n)) is not None:
        cur = nxt
        yield cur


@dataclass(frozen=True)
class BlockChain:
    """Maximal chain of n-pairs inside the degree cap r.

    Entry sizes strictly increase; consecutive entries are n-pairs.
    """

    n: int
    r: int
    chain: tuple[Partition, ...]

    def __post_init__(self):
        for a, b in zip(self.chain, self.chain[1:]):
            if not is_n_pair(a, b, self.n):
                raise ValueError(f"{a} -> {b} is not an {self.n}-pair")
        if any(p.size > self.r for p in self.chain):
            raise ValueError("chain entry exceeds the degree cap")

    def __len__(self) -> int:
        return len(self.chain)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.chain)

    def index_of(self, nu: Partition) -> int:
        return self.chain.index(Partition(nu))

    def truncation_index(self, max_size: int) -> int:
        """Largest t with |chain[t]| <= max_size, or -1 if none."""
        t = -1
        for i, p in enumerate(self.chain):
            if p.size <= max_size:
                t = i
        return t

    def truncate(self, max_size: int) -> "BlockChain":
        t = self.truncation_index(max_size)
        return BlockChain(self.n, self.r, self.chain[: t + 1])

    def __str__(self) -> str:
        return " -> ".join(str(p) for p in self.chain)


def block_chain(nu: Partition, n: int, r: int) -> BlockChain:
    """The full n-pair chain through nu restricted to partitions of size <= r.

    When pad(nu, n) exists, nu is the minimal entry and the chain starts at
    it; otherwise the backward walk finds the true minimum.
    """
    nu = Partition(nu)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if nu.size > r:
        raise ValueError(f"{nu} does not lie in degrees <= {r}")
    entries = []
    for p in n_pair_chain(nu, n):
        if p.size > r:
            break
        entries.append(p)
    return BlockChain(n, r, tuple(entries))


def dagger(nu_padded: PaddedPartition, i: int) -> Partition:
    """Add 1 to the rows with index 0..i-1 of the padded partition, erase row
    i, and return the result.

    Rows are taken in the 0-indexed convention (row 0 is the padding row);
    zero rows below the diagram participate and become parts equal to 1.
    With i = 0 this recovers the unpadded base partition.
    """
    if i < 0:
        raise ValueError("dagger index must be >= 0")
    rows = nu_padded.rows
    head = [nu_padded.row(j) + 1 for j in range(i)]
    tail = list(rows[i + 1:])
    return Partition(head + tail)


@lru_cache(maxsize=None)
def partitions_of(k: int) -> tuple[Partition, ...]:
    """All partitions of k, sorted."""
    if k < 0:
        return ()

    def gen(total: int, bound: int, prefix: tuple[int, ...]):
        if total == 0:
            yield Partition(prefix)
            return
        for part in range(min(total, bound), 0, -1):
            yield from gen(total - part, part, prefix + (part,))

    return tuple(sorted(gen(k, k, ())))


@lru_cache(maxsize=None)
def partitions_up_to(r: int) -> tuple[Partition, ...]:
    """All partitions of size <= r (the label set of degree-r standard
    modules), sorted by (size, parts)."""
    out: list[Partition] = []
    for k in range(max(r, -1) + 1):
        out.extend(partitions_of(k))
    return tuple(out)
