"""Set-partition diagram calculus for the partition algebra at an exact
rational parameter.

Diagrams are set partitions of r top and m bottom vertices, held as one block
label per vertex.  Composition joins the blocks of the two diagrams that meet
at the middle vertices; the power of the parameter is returned separately, so
that diagram-level reasoning stays parameter-free.  On top of the diagrams:
the algebra elements with rational coefficients, the standard modules with
their action and Gram matrices (int wherever the scales are), crossing-block
profiles of half-diagrams, and the restriction multiplicities of a standard
module to a left/right pair of smaller partition algebras.  A standard module
factors a diagram over a half-diagram with the same middle-row join as
composition, reading the loop count, the permutation and the canonical
half-diagram off it, with no composed diagram built.  A restriction table
asks the reduced-coefficient kernel only about the label sizes inside the
size triangle of nu.

Text format for a diagram: blocks as sorted vertex lists, top vertices as
plain integers and bottom vertices primed, e.g.
``{1,2,4,2',5'}{3}{5,6,7,3',4',6',7'}{8,8'}{1'}``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from types import MappingProxyType

from . import _memo
from .kronecker import _reduced_kron
from .partitions import Partition, _degree, _is_numeral, partitions_of
from .sym_characters import specht_dim, specht_model


def _relabel(labels) -> tuple[int, ...]:
    """Renumber the blocks of a labelling 0, 1, ... in order of first
    appearance: the one canonical label tuple of its set partition."""
    first: dict = {}
    return tuple([first.setdefault(b, len(first)) for b in labels])


class SetPartitionDiagram:
    """A set partition of {1..r} on top and {1'..m'} on the bottom.

    Canonical form: the vertices in the order 1..r, 1'..m', and labels[i] the
    number of the block of the i-th vertex, blocks numbered in order of first
    appearance.  Diagrams compare equal iff (r, m, labels) match.  Blocks are
    given and read as vertex lists, +i for top vertex i and -j for bottom
    vertex j'.  Only the public constructor validates; the library builds the
    label tuples it made itself with the unchecked _of.
    """

    __slots__ = ("r", "m", "labels")

    def __init__(self, r: int, m: int, blocks):
        r, m = _degree(r), _degree(m)
        labels = [-1] * (r + m)
        for k, block in enumerate(blocks):
            block = tuple(block)
            if not block:
                raise ValueError("empty block")
            for v in block:
                if v == 0 or v > r or -v > m:
                    raise ValueError(f"vertex {v} out of range for ({r},{m})")
                i = v - 1 if v > 0 else r - v - 1
                if labels[i] != -1:
                    raise ValueError(f"vertex {v} listed twice")
                labels[i] = k
        if -1 in labels:
            raise ValueError("blocks do not cover all vertices")
        self.r = r
        self.m = m
        self.labels = _relabel(labels)

    @classmethod
    def _of(cls, r: int, m: int, labels: tuple[int, ...]) -> "SetPartitionDiagram":
        """The diagram of a canonical label tuple, unchecked."""
        d = object.__new__(cls)
        d.r, d.m, d.labels = r, m, labels
        return d

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks as vertex tuples, each top-before-bottom, in label order."""
        out = [[] for _ in range(max(self.labels, default=-1) + 1)]
        for i, b in enumerate(self.labels):
            out[b].append(i + 1 if i < self.r else self.r - i - 1)
        return tuple(map(tuple, out))

    @classmethod
    def parse(cls, text: str) -> "SetPartitionDiagram":
        """Inverse of str(), '' for the degree-0 diagram; sizes are inferred
        from the vertex sets.  A vertex is an unsigned number, primed on the
        bottom row, written without leading zeros."""
        s = text.replace(" ", "")
        if not s:
            return cls(0, 0, [])
        if not (s.startswith("{") and s.endswith("}")):
            raise ValueError(f"expected {{...}}-blocks, got {text!r}")
        blocks = []
        for chunk in s[1:-1].split("}{"):
            block = []
            for item in chunk.split(","):
                digits = item.removesuffix("'")
                if not _is_numeral(digits):
                    raise ValueError(f"bad vertex {item!r} in {text!r}")
                block.append(-int(digits) if item.endswith("'") else int(digits))
            blocks.append(block)
        r = max((v for b in blocks for v in b if v > 0), default=0)
        m = max((-v for b in blocks for v in b if v < 0), default=0)
        return cls(r, m, blocks)

    def __str__(self) -> str:
        return "".join(
            "{" + ",".join(str(v) if v > 0 else f"{-v}'" for v in b) + "}"
            for b in self.blocks
        )

    def __repr__(self) -> str:
        return f"SetPartitionDiagram({self.r},{self.m},{self})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetPartitionDiagram)
            and (self.r, self.m, self.labels) == (other.r, other.m, other.labels)
        )

    def __hash__(self) -> int:
        return hash((self.r, self.m, self.labels))

    def flip(self) -> "SetPartitionDiagram":
        """Mirror top and bottom: the (m, r) diagram with the same blocks."""
        return SetPartitionDiagram._of(
            self.m, self.r, _relabel(self.labels[self.r:] + self.labels[:self.r])
        )


def identity_diagram(r: int) -> SetPartitionDiagram:
    return permutation_diagram(tuple(range(1, _degree(r) + 1)))


def permutation_diagram(sigma: tuple[int, ...]) -> SetPartitionDiagram:
    """Diagram joining bottom k' to top sigma(k), so that the product
    P(sigma)P(tau), with P(sigma) on top, is P(sigma o tau)."""
    r = len(sigma)
    return SetPartitionDiagram(r, r, [[sigma[k - 1], -k] for k in range(1, r + 1)])


def propagating_count(d: SetPartitionDiagram) -> int:
    """Number of blocks meeting both the top and the bottom row."""
    return len(set(d.labels[:d.r]) & set(d.labels[d.r:]))


def _join(x: SetPartitionDiagram, y: SetPartitionDiagram) -> tuple[int, list[int]]:
    """x stacked above y, x.m == y.r, with the middle layer joined: (t,
    outer), the number of middle-only components and the canonical label of
    each top vertex of x, then of each bottom vertex of y, the components
    numbered in order of first appearance.

    One union-find pass over x's block labels: walking the middle row, each
    of y's blocks attaches by a dict to the first x block it meets, and a
    later meeting merges two x components.  Each attachment and each merge
    takes one component off the count of all blocks of x and y; t is what
    is left once the outer components are taken off too."""
    r, k = x.r, x.m
    xl, yl = x.labels, y.labels
    parent = list(range(max(xl) + 1 if xl else 0))
    attach: dict[int, int] = {}
    unions = 0
    for a, b in zip(xl[r:], yl[:k]):
        while parent[a] != a:
            a = parent[a]
        c = attach.get(b)
        if c is None:
            attach[b] = a
            continue
        while parent[c] != c:
            c = parent[c]
        if c != a:
            parent[c] = a
            unions += 1
    first: dict[int, int] = {}
    outer = []
    for a in xl[:r]:
        while parent[a] != a:
            a = parent[a]
        outer.append(first.setdefault(a, len(first)))
    for b in yl[k:]:
        # a y block that never meets the middle is a component of its own,
        # keyed ~b apart from the x roots
        a = attach.get(b, ~b)
        while a >= 0 and parent[a] != a:
            a = parent[a]
        outer.append(first.setdefault(a, len(first)))
    blocks = len(parent) + (max(yl) + 1 if yl else 0)
    return blocks - len(attach) - unions - len(first), outer


def compose(x: SetPartitionDiagram, y: SetPartitionDiagram) -> tuple[int, SetPartitionDiagram]:
    """Concatenate x above y, contract the middle layer, and return
    (t, result) where t counts the removed middle-only components."""
    if x.m != y.r:
        raise ValueError(f"degree mismatch: ({x.r},{x.m}) over ({y.r},{y.m})")
    t, outer = _join(x, y)
    return t, SetPartitionDiagram._of(x.r, y.m, tuple(outer))


def _parse_rational(value) -> Fraction:
    """value read as an exact Fraction; ValueError, naming it, for text that
    is not a rational, a zero denominator included."""
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {value!r}: {exc}")


def _parameter(delta) -> Fraction:
    """delta read as the algebra's parameter, an exact Fraction; ValueError
    when it is not one or is zero."""
    delta = _parse_rational(delta)
    if delta == 0:
        raise ValueError("the diagram algebra parameter must be nonzero")
    return delta


class AlgebraElement:
    """Finite rational linear combination of (r, r) diagrams at a fixed
    nonzero rational parameter; terms is a read-only mapping from diagram to
    nonzero coefficient."""

    __slots__ = ("r", "delta", "terms")

    def __init__(self, r: int, delta, terms=None):
        self.r = r = _degree(r)
        self.delta = _parameter(delta)
        clean: dict[SetPartitionDiagram, Fraction] = {}
        for d, c in (terms or {}).items():
            c = _parse_rational(c)
            if c == 0:
                continue
            if d.r != r or d.m != r:
                raise ValueError(f"diagram {d} does not have profile ({r},{r})")
            clean[d] = c
        self.terms = MappingProxyType(clean)

    @classmethod
    def from_diagram(cls, d: SetPartitionDiagram, delta, coeff=1) -> "AlgebraElement":
        return cls(d.r, delta, {d: coeff})

    @classmethod
    def one(cls, r: int, delta) -> "AlgebraElement":
        return cls.from_diagram(identity_diagram(r), delta)

    def _check(self, other: "AlgebraElement") -> None:
        if self.r != other.r:
            raise ValueError("degree mismatch")
        if self.delta != other.delta:
            raise ValueError("parameter mismatch")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        terms = dict(self.terms)
        for d, c in other.terms.items():
            terms[d] = terms.get(d, Fraction(0)) + c
        return AlgebraElement(self.r, self.delta, terms)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.r, self.delta, {d: -c for d, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __rmul__(self, scalar) -> "AlgebraElement":
        scalar = _parse_rational(scalar)
        return AlgebraElement(self.r, self.delta, {d: scalar * c for d, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.__rmul__(other)
        self._check(other)
        terms: dict[SetPartitionDiagram, Fraction] = {}
        for dx, cx in self.terms.items():
            for dy, cy in other.terms.items():
                t, z = compose(dx, dy)
                c = cx * cy * self.delta**t
                terms[z] = terms.get(z, Fraction(0)) + c
        return AlgebraElement(self.r, self.delta, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and (self.r, self.delta, self.terms) == (other.r, other.delta, other.terms)
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = [f"({c})*{d}" for d, c in sorted(self.terms.items(), key=lambda kv: str(kv[0]))]
        return " + ".join(bits)


def generator_s(i: int, j: int, r: int, delta) -> AlgebraElement:
    """The transposition diagram swapping strands i and j."""
    if not 1 <= i < j <= r:
        raise ValueError(f"need 1 <= i < j <= r, got ({i},{j},{r})")
    sigma = list(range(1, r + 1))
    sigma[i - 1], sigma[j - 1] = j, i
    return AlgebraElement.from_diagram(permutation_diagram(tuple(sigma)), delta)


def generator_e(l: int, r: int, delta) -> AlgebraElement:
    """The idempotent with strands 1..l-1, the top vertices l..r merged, the
    bottom vertices l'..r' merged, and coefficient 1/delta."""
    if not 1 <= l <= r:
        raise ValueError(f"need 1 <= l <= r, got ({l},{r})")
    delta = _parameter(delta)
    blocks = [[k, -k] for k in range(1, l)]
    blocks.append(list(range(l, r + 1)))
    blocks.append([-k for k in range(l, r + 1)])
    return AlgebraElement.from_diagram(
        SetPartitionDiagram(r, r, blocks), delta, 1 / delta
    )


def _label_tuples(k: int) -> list[tuple[int, ...]]:
    """The canonical label tuples of the set partitions of k items: each
    label at most one more than the largest before it."""
    tuples = [()]
    for _ in range(k):
        tuples = [t + (b,) for t in tuples for b in range(max(t, default=-1) + 2)]
    return tuples


@_memo
def _stirling2(n: int, b: int) -> int:
    if n == 0:
        return 1 if b == 0 else 0
    if b == 0:
        return 0
    return b * _stirling2(n - 1, b) + _stirling2(n - 1, b - 1)


def bell(k: int) -> int:
    """Bell number: set partitions of a k-element set, summed over the
    block count."""
    k = _degree(k)
    return sum(_stirling2(k, b) for b in range(k + 1))


def dim_standard(r: int, nu: Partition) -> int:
    """Dimension of the degree-r standard module labelled by nu: half-diagram
    count times the number of standard tableaux."""
    r, nu = _degree(r), Partition(nu)
    m = nu.size
    if m > r:
        return 0
    half = sum(_stirling2(r, b) * comb(b, m) for b in range(m, r + 1))
    return half * specht_dim(nu)


def half_diagrams(r: int, m: int) -> list[SetPartitionDiagram]:
    """Canonical (r, m) half-diagrams: every set partition of the top row with
    m blocks marked propagating, bottoms attached in least-vertex order, in
    lexicographic order of their label tuples (the order of _label_tuples
    and combinations)."""
    r, m = _degree(r), _degree(m)
    return [
        SetPartitionDiagram._of(r, m, top + chosen)
        for top in _label_tuples(r)
        for chosen in combinations(range(max(top, default=-1) + 1), m)
    ]


class StandardModule:
    """Standard module of the degree-r partition algebra labelled by nu.

    Basis: (canonical half-diagram, standard tableau) pairs, the half-diagrams
    in lexicographic order of their label tuples.  A diagram acts by
    concatenation on the half-diagram; if propagating blocks drop the result
    is zero, otherwise the leftover bottom permutation is pushed onto the
    Specht factor.
    """

    def __init__(self, r: int, nu: Partition, delta):
        self.r = r = _degree(r)
        self.nu = Partition(nu)
        self.m = self.nu.size
        self.delta = _parameter(delta)
        if self.m > r:
            raise ValueError(f"|{nu}| exceeds the degree {r}")
        self.specht = specht_model(self.nu)
        self.halves = half_diagrams(r, self.m)
        self.half_index = {h.labels: i for i, h in enumerate(self.halves)}
        # basis vector (h, t) has index h * specht.dim + t
        self.dim = len(self.halves) * self.specht.dim
        # a join over the r middle vertices leaves at most r loops
        self._powers = [self.delta**t for t in range(r + 1)]

    @staticmethod
    def _factor(x: SetPartitionDiagram, half: SetPartitionDiagram):
        """Join x, an (x.r, x.m) diagram, above the (x.m, m) half-diagram half
        and write the result as delta^t times a canonical half-diagram times
        a permutation: (t, sigma, canonical labels), or None when a
        propagating block drops.  sigma sends each bottom vertex k' to the
        1-based index, in least-top-vertex order, of the propagating block
        holding it: the convention of permutation_diagram."""
        t, outer = _join(x, half)
        # the join numbers the blocks meeting the top row first, in
        # least-top-vertex order.  Each bottom of half lies in its own
        # propagating block, so none drops iff the m bottoms stay in m
        # distinct blocks that meet the top
        tops, bottoms = outer[:x.r], outer[x.r:]
        if max(bottoms, default=-1) > max(tops, default=-1) or len(set(bottoms)) < len(bottoms):
            return None
        props = sorted(bottoms)
        index = {b: k for k, b in enumerate(props, 1)}
        return t, tuple(index[b] for b in bottoms), (*tops, *props)

    def _place(self, entries, block_of) -> list[list]:
        """The matrix that adds scale * block_of(sigma) at block (i, j) for each
        entry (i, j, scale, sigma), block_of called once per distinct sigma;
        integral scales and blocks give int entries."""
        sd = self.specht.dim
        mat = [[0] * self.dim for _ in range(self.dim)]
        blocks = {sigma: block_of(sigma) for sigma in {entry[3] for entry in entries}}
        for i, j, scale, sigma in entries:
            scale = scale.numerator if scale.denominator == 1 else scale
            for a, row in enumerate(blocks[sigma]):
                for b, c in enumerate(row):
                    if c:
                        mat[i * sd + a][j * sd + b] += scale * c
        return mat

    def action_matrix(self, x) -> list[list]:
        """Matrix of a diagram or algebra element on the basis (columns are
        images of basis vectors), placed one Specht block per half-diagram."""
        if isinstance(x, SetPartitionDiagram):
            x = AlgebraElement.from_diagram(x, self.delta)
        if x.r != self.r:
            raise ValueError(f"an element of degree {x.r} does not act in degree {self.r}")
        if x.delta != self.delta:
            raise ValueError("parameter mismatch")
        entries = []
        for d, coeff in x.terms.items():
            scales = [coeff * p for p in self._powers]
            for j, half in enumerate(self.halves):
                step = self._factor(d, half)
                if step is not None:
                    t, sigma, canonical = step
                    entries.append((self.half_index[canonical], j, scales[t], sigma))
        return self._place(entries, self.specht.matrix_of)

    def gram_matrix(self) -> list[list]:
        """Matrix of the natural bilinear form on the basis: half-diagrams i, j
        pair to delta^t sigma, whose block is the Specht form against sigma.
        The form is symmetric, so only the pairs j >= i are joined and the
        lower triangle is the transpose of the upper."""
        entries = []
        halves = self.halves
        for i, vi in enumerate(halves):
            flipped = vi.flip()
            for j in range(i, len(halves)):
                step = self._factor(flipped, halves[j])
                if step is not None:
                    t, sigma, _ = step
                    entries.append((i, j, self._powers[t], sigma))
        mat = self._place(entries, self.specht.form_of)
        for a, row in enumerate(mat):
            for b in range(a):
                row[b] = mat[b][a]
        return mat


def standard_module(r: int, nu: Partition, delta) -> StandardModule:
    """Build the standard module with its Specht factor."""
    return StandardModule(r, nu, delta)


def crossing_profile(d: SetPartitionDiagram, r: int, s: int) -> tuple[int, int, int, int]:
    """Counts (p_r, p_s, p_c, n_c) of propagating blocks supported on the
    left r columns, on the right s columns, crossing propagating blocks, and
    crossing non-propagating blocks.

    Requires d to have exactly as many propagating blocks as bottom vertices.
    """
    r, s = _degree(r), _degree(s)
    if r + s != d.r:
        raise ValueError(f"split {r}+{s} does not match {d.r} top vertices")
    if propagating_count(d) != d.m:
        raise ValueError("half-diagram must have exactly m propagating blocks")
    # with m propagating blocks each bottom vertex has a block of its own
    left, right = set(d.labels[:r]), set(d.labels[r:d.r])
    props = set(d.labels[d.r:])
    crossing = left & right
    p_c = len(crossing & props)
    return len(left & props) - p_c, len(right & props) - p_c, p_c, len(crossing) - p_c


def restrict_multiplicity(nu: Partition, r: int, s: int, lam: Partition, mu: Partition) -> int:
    """Multiplicity of the outer product of standard modules (degree r label
    lam, degree s label mu) in the restriction of the degree r+s standard
    module labelled nu.  By the restriction theorem of Bowman, De Visscher
    and Orellana this is the reduced Kronecker coefficient of (lam, mu, nu)
    whenever the labels fit their degrees."""
    r, s, lam, mu = _degree(r), _degree(s), Partition(lam), Partition(mu)
    if lam.size > r or mu.size > s:
        return 0
    return _reduced_kron(lam.parts, mu.parts, Partition(nu).parts)


def restriction_table(nu: Partition, r: int, s: int) -> dict[tuple[Partition, Partition], int]:
    """Nonzero restriction multiplicities over all label pairs.

    Raises ValueError when |nu| > r + s: no such standard module exists.
    Only the label sizes p <= r and q <= s with |p - q| <= |nu| <= p + q are
    read: the reduced coefficient is zero off that size triangle.
    """
    r, s, nu = _degree(r), _degree(s), Partition(nu)
    if nu.size > r + s:
        raise ValueError(f"{nu} labels no standard module of degree {r} + {s}")
    labels = [partitions_of(k) for k in range(max(r, s) + 1)]
    out = {}
    # every label fits its degree, so each multiplicity is the reduced
    # Kronecker coefficient (restrict_multiplicity without its degree check)
    for p in range(r + 1):
        sizes = [q for q in range(s + 1) if abs(p - q) <= nu.size <= p + q]
        for lam in labels[p]:
            for q in sizes:
                for mu in labels[q]:
                    c = _reduced_kron(lam.parts, mu.parts, nu.parts)
                    if c:
                        out[(lam, mu)] = c
    return out

