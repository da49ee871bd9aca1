"""Set-partition diagram calculus for the partition algebra at an exact
rational parameter.

Diagrams are set partitions of r top and m bottom vertices.  Composition is
concatenation with union-find contraction of the middle layer; the power of
the parameter is returned separately, so that diagram-level reasoning stays
parameter-free.  On top of the diagrams: the algebra elements with rational
coefficients, the standard modules with their explicit action, crossing-block
profiles of half-diagrams, and the restriction multiplicities of a standard
module to a left/right pair of smaller partition algebras.

Text format for a diagram: blocks as sorted vertex lists, top vertices as
plain integers and bottom vertices primed, e.g.
``{1,2,4,2',5'}{3}{5,6,7,3',4',6',7'}{8,8'}{1'}``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from .kronecker import _reduced_kron
from .partitions import Partition, partitions_up_to
from .sym_characters import SpechtModel, _mat_mul, specht_dim, specht_model

# Vertices are encoded internally as +i for top vertex i and -j for bottom
# vertex j'; the display order puts all top vertices before all bottom ones.


def _vertex_key(v: int) -> tuple[int, int]:
    return (0, v) if v > 0 else (1, -v)


class SetPartitionDiagram:
    """A set partition of {1..r} on top and {1'..m'} on the bottom.

    Canonical form: each block sorted top-before-bottom, blocks ordered by
    least vertex.  Diagrams compare equal iff canonical forms match.
    """

    __slots__ = ("r", "m", "blocks")

    def __init__(self, r: int, m: int, blocks):
        self.r = r
        self.m = m
        canon = tuple(
            sorted(
                (tuple(sorted(set(b), key=_vertex_key)) for b in blocks),
                key=lambda b: _vertex_key(b[0]),
            )
        )
        seen: set[int] = set()
        for b in canon:
            if not b:
                raise ValueError("empty block")
            for v in b:
                if v == 0 or v > r or -v > m:
                    raise ValueError(f"vertex {v} out of range for ({r},{m})")
                if v in seen:
                    raise ValueError(f"vertex {v} in two blocks")
                seen.add(v)
        if len(seen) != r + m:
            raise ValueError("blocks do not cover all vertices")
        self.blocks = canon

    @classmethod
    def parse(cls, text: str) -> "SetPartitionDiagram":
        """Inverse of str(); sizes are inferred from the vertex sets."""
        s = text.replace(" ", "")
        if not (s.startswith("{") and s.endswith("}")):
            raise ValueError(f"expected {{...}}-blocks, got {text!r}")
        blocks = []
        for chunk in s[1:-1].split("}{"):
            block = []
            for item in chunk.split(","):
                if not item:
                    raise ValueError(f"empty vertex in {text!r}")
                if item.endswith("'"):
                    block.append(-int(item[:-1]))
                else:
                    block.append(int(item))
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
            and (self.r, self.m, self.blocks) == (other.r, other.m, other.blocks)
        )

    def __hash__(self) -> int:
        return hash((self.r, self.m, self.blocks))

    def flip(self) -> "SetPartitionDiagram":
        """Mirror top and bottom: the (m, r) diagram with the same blocks."""
        return SetPartitionDiagram(
            self.m, self.r, [[-v for v in b] for b in self.blocks]
        )


def identity_diagram(r: int) -> SetPartitionDiagram:
    return SetPartitionDiagram(r, r, [[i, -i] for i in range(1, r + 1)])


def permutation_diagram(sigma: tuple[int, ...]) -> SetPartitionDiagram:
    """Diagram joining bottom k' to top sigma(k), so that the product
    P(sigma)P(tau), with P(sigma) on top, is P(sigma o tau)."""
    r = len(sigma)
    return SetPartitionDiagram(r, r, [[sigma[k - 1], -k] for k in range(1, r + 1)])


def propagating_count(d: SetPartitionDiagram) -> int:
    """Number of blocks meeting both the top and the bottom row."""
    return sum(
        1 for b in d.blocks if any(v > 0 for v in b) and any(v < 0 for v in b)
    )


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def compose(x: SetPartitionDiagram, y: SetPartitionDiagram) -> tuple[int, SetPartitionDiagram]:
    """Concatenate x above y, contract the middle layer, and return
    (t, result) where t counts the removed middle-only components."""
    if x.m != y.r:
        raise ValueError(f"degree mismatch: ({x.r},{x.m}) over ({y.r},{y.m})")
    r, k, m = x.r, x.m, y.m
    # index layout: 0..r-1 top, r..r+k-1 middle, r+k..r+k+m-1 bottom
    uf = _UnionFind(r + k + m)

    def x_idx(v: int) -> int:
        return v - 1 if v > 0 else r + (-v) - 1

    def y_idx(v: int) -> int:
        return r + v - 1 if v > 0 else r + k + (-v) - 1

    for b in x.blocks:
        first = x_idx(b[0])
        for v in b[1:]:
            uf.union(first, x_idx(v))
    for b in y.blocks:
        first = y_idx(b[0])
        for v in b[1:]:
            uf.union(first, y_idx(v))

    components: dict[int, list[int]] = {}
    for i in range(r + k + m):
        components.setdefault(uf.find(i), []).append(i)
    t = 0
    blocks = []
    for members in components.values():
        outer = []
        for i in members:
            if i < r:
                outer.append(i + 1)
            elif i >= r + k:
                outer.append(-(i - r - k + 1))
        if outer:
            blocks.append(outer)
        else:
            t += 1
    return t, SetPartitionDiagram(r, m, blocks)


class AlgebraElement:
    """Finite rational linear combination of (r, r) diagrams at a fixed
    nonzero rational parameter."""

    __slots__ = ("r", "delta", "terms")

    def __init__(self, r: int, delta, terms=None):
        self.r = r
        self.delta = Fraction(delta)
        if self.delta == 0:
            raise ValueError("the diagram algebra parameter must be nonzero")
        clean: dict[SetPartitionDiagram, Fraction] = {}
        for d, c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            if d.r != r or d.m != r:
                raise ValueError(f"diagram {d} does not have profile ({r},{r})")
            clean[d] = c
        self.terms = clean

    @classmethod
    def from_diagram(cls, d: SetPartitionDiagram, delta, coeff=1) -> "AlgebraElement":
        return cls(d.r, delta, {d: Fraction(coeff)})

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
        return AlgebraElement(
            self.r, self.delta, {d: Fraction(scalar) * c for d, c in self.terms.items()}
        )

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

    def __hash__(self):
        return hash((self.r, self.delta, tuple(sorted(self.terms.items(), key=lambda kv: str(kv[0])))))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = [f"({c})*{d}" for d, c in sorted(self.terms.items(), key=lambda kv: str(kv[0]))]
        return " + ".join(bits)


def generator_s(i: int, j: int, r: int, delta) -> AlgebraElement:
    """The transposition diagram swapping strands i and j."""
    if not 1 <= i < j <= r:
        raise ValueError(f"need 1 <= i < j <= r, got ({i},{j},{r})")
    blocks = [[k, -k] for k in range(1, r + 1) if k not in (i, j)]
    blocks += [[i, -j], [j, -i]]
    return AlgebraElement.from_diagram(SetPartitionDiagram(r, r, blocks), delta)


def generator_e(l: int, r: int, delta) -> AlgebraElement:
    """The idempotent with strands 1..l-1, the top vertices l..r merged, the
    bottom vertices l'..r' merged, and coefficient 1/delta."""
    if not 1 <= l <= r:
        raise ValueError(f"need 1 <= l <= r, got ({l},{r})")
    delta = Fraction(delta)
    if delta == 0:
        raise ValueError("the diagram algebra parameter must be nonzero")
    blocks = [[k, -k] for k in range(1, l)]
    blocks.append(list(range(l, r + 1)))
    blocks.append([-k for k in range(l, r + 1)])
    return AlgebraElement.from_diagram(
        SetPartitionDiagram(r, r, blocks), delta, 1 / delta
    )


def set_partitions(items: tuple):
    """All set partitions of the given items, deterministically ordered."""
    items = tuple(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + ((first,) + part[i],) + part[i + 1:]
        yield ((first,),) + part


@lru_cache(maxsize=None)
def bell(k: int) -> int:
    """Bell number: set partitions of a k-element set (triangle recurrence)."""
    if k < 0:
        raise ValueError(f"Bell number of a negative count: {k}")
    if k == 0:
        return 1
    return sum(comb(k - 1, j) * bell(j) for j in range(k))


@lru_cache(maxsize=None)
def _stirling2(n: int, b: int) -> int:
    if n == 0:
        return 1 if b == 0 else 0
    if b == 0:
        return 0
    return b * _stirling2(n - 1, b) + _stirling2(n - 1, b - 1)


def enumerate_diagrams(r: int, m: int) -> list[SetPartitionDiagram]:
    """All (r, m)-partition diagrams."""
    vertices = tuple(range(1, r + 1)) + tuple(-j for j in range(1, m + 1))
    return [SetPartitionDiagram(r, m, part) for part in set_partitions(vertices)]


def dim_standard(r: int, nu: Partition) -> int:
    """Dimension of the degree-r standard module labelled by nu: half-diagram
    count times the number of standard tableaux."""
    nu = Partition(nu)
    m = nu.size
    if m > r:
        return 0
    half = sum(_stirling2(r, b) * comb(b, m) for b in range(m, r + 1))
    return half * specht_dim(nu)


def half_diagrams(r: int, m: int) -> list[SetPartitionDiagram]:
    """Canonical (r, m) half-diagrams: every set partition of the top row with
    m blocks marked propagating, bottoms attached in least-vertex order."""
    out = []
    for part in set_partitions(tuple(range(1, r + 1))):
        blocks = sorted(part, key=lambda b: b[0])
        if len(blocks) < m:
            continue
        for chosen in combinations(range(len(blocks)), m):
            full = []
            for bi, b in enumerate(blocks):
                if bi in chosen:
                    full.append(list(b) + [-(chosen.index(bi) + 1)])
                else:
                    full.append(list(b))
            out.append(SetPartitionDiagram(r, m, full))
    out.sort(key=str)
    return out


def factor_half_diagram(d: SetPartitionDiagram) -> tuple[tuple[int, ...], SetPartitionDiagram]:
    """Write d = (canonical half-diagram) . (permutation): returns (sigma,
    canonical) where sigma sends each bottom vertex k' of d to the 1-based
    index, in least-top-vertex order, of the propagating block holding it;
    this is the convention of permutation_diagram."""
    props = []
    rest = []
    for b in d.blocks:
        tops = [v for v in b if v > 0]
        bots = [v for v in b if v < 0]
        if tops and bots:
            if len(bots) != 1:
                raise ValueError("half-diagram propagating block with several bottoms")
            props.append((tops, -bots[0]))
        elif tops:
            rest.append(tops)
        else:
            raise ValueError("half-diagram with a bottom-only block")
    props.sort(key=lambda tb: tb[0][0])
    sigma = [0] * len(props)
    for k, (_, bottom) in enumerate(props, 1):
        sigma[bottom - 1] = k
    blocks = [tops + [-(k + 1)] for k, (tops, _) in enumerate(props)] + rest
    return tuple(sigma), SetPartitionDiagram(d.r, d.m, blocks)


class StandardModule:
    """Standard module of the degree-r partition algebra labelled by nu.

    Basis: (canonical half-diagram, standard tableau) pairs.  A diagram acts
    by concatenation on the half-diagram; if propagating blocks drop the
    result is zero, otherwise the leftover bottom permutation is pushed onto
    the Specht factor.
    """

    def __init__(self, r: int, nu: Partition, delta, specht: SpechtModel):
        self.r = r
        self.nu = Partition(nu)
        self.m = self.nu.size
        self.delta = Fraction(delta)
        if self.delta == 0:
            raise ValueError("the diagram algebra parameter must be nonzero")
        if self.m > r:
            raise ValueError(f"|{nu}| exceeds the degree {r}")
        self.specht = specht
        self.halves = half_diagrams(r, self.m)
        self.half_index = {h: i for i, h in enumerate(self.halves)}
        self.basis = [(hi, ti) for hi in range(len(self.halves)) for ti in range(specht.dim)]
        self.basis_index = {b: i for i, b in enumerate(self.basis)}
        self.dim = len(self.basis)

    def apply_diagram(self, X: SetPartitionDiagram, index: int) -> dict[int, Fraction]:
        """Action of a single diagram on one basis vector, as a sparse map."""
        if X.r != self.r or X.m != self.r:
            raise ValueError(f"diagram profile ({X.r},{X.m}) does not match degree {self.r}")
        hi, ti = self.basis[index]
        t, vprime = compose(X, self.halves[hi])
        if propagating_count(vprime) < self.m:
            return {}
        sigma, canonical = factor_half_diagram(vprime)
        hj = self.half_index[canonical]
        mat = self.specht.matrix_of(sigma)
        scale = self.delta**t
        out: dict[int, Fraction] = {}
        for a in range(self.specht.dim):
            c = mat[a][ti]
            if c:
                out[self.basis_index[(hj, a)]] = scale * c
        return out

    def action_matrix(self, x) -> list[list[Fraction]]:
        """Matrix of a diagram or algebra element on the basis (columns are
        images of basis vectors)."""
        if isinstance(x, SetPartitionDiagram):
            x = AlgebraElement.from_diagram(x, self.delta)
        if x.delta != self.delta:
            raise ValueError("parameter mismatch")
        mat = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for d, coeff in x.terms.items():
            for j in range(self.dim):
                for i, c in self.apply_diagram(d, j).items():
                    mat[i][j] += coeff * c
        return mat

    def gram_matrix(self) -> list[list[Fraction]]:
        """Matrix of the natural bilinear form on the basis."""
        form0 = self.specht.invariant_form()
        gram = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        sd = self.specht.dim
        for i, vi in enumerate(self.halves):
            flipped = vi.flip()
            for j, vj in enumerate(self.halves):
                t, z = compose(flipped, vj)
                if propagating_count(z) < self.m:
                    continue
                sigma = _permutation_of(z)
                block = _mat_mul(form0, self.specht.matrix_of(sigma))
                scale = self.delta**t
                for a in range(sd):
                    for b in range(sd):
                        if block[a][b]:
                            gram[i * sd + a][j * sd + b] = scale * block[a][b]
        return gram


def _permutation_of(z: SetPartitionDiagram) -> tuple[int, ...]:
    sigma = [0] * z.r
    for b in z.blocks:
        tops = [v for v in b if v > 0]
        bots = [-v for v in b if v < 0]
        if len(tops) != 1 or len(bots) != 1:
            raise ValueError(f"{z} is not a permutation diagram")
        sigma[bots[0] - 1] = tops[0]
    return tuple(sigma)


def standard_module(r: int, nu: Partition, delta) -> StandardModule:
    """Build the standard module with its Specht factor."""
    nu = Partition(nu)
    return StandardModule(r, nu, delta, specht_model(nu))


def crossing_profile(d: SetPartitionDiagram, r: int, s: int) -> tuple[int, int, int, int]:
    """Counts (p_r, p_s, p_c, n_c) of propagating blocks supported on the
    left r columns, on the right s columns, crossing propagating blocks, and
    crossing non-propagating blocks.

    Requires d to have exactly as many propagating blocks as bottom vertices.
    """
    if r + s != d.r:
        raise ValueError(f"split {r}+{s} does not match {d.r} top vertices")
    if propagating_count(d) != d.m:
        raise ValueError("half-diagram must have exactly m propagating blocks")
    p_r = p_s = p_c = n_c = 0
    for b in d.blocks:
        tops = [v for v in b if v > 0]
        if not tops:
            raise ValueError("half-diagram with a bottom-only block")
        prop = any(v < 0 for v in b)
        left = any(v <= r for v in tops)
        right = any(v > r for v in tops)
        if left and right:
            if prop:
                p_c += 1
            else:
                n_c += 1
        elif prop:
            if left:
                p_r += 1
            else:
                p_s += 1
    return p_r, p_s, p_c, n_c


def restrict_multiplicity(nu: Partition, r: int, s: int, lam: Partition, mu: Partition) -> int:
    """Multiplicity of the outer product of standard modules (degree r label
    lam, degree s label mu) in the restriction of the degree r+s standard
    module labelled nu.  By the restriction theorem of Bowman, De Visscher
    and Orellana this is the reduced Kronecker coefficient of (lam, mu, nu)
    whenever the labels fit their degrees."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size > r or mu.size > s:
        return 0
    return _reduced_kron(lam.parts, mu.parts, Partition(nu).parts)


def restriction_table(nu: Partition, r: int, s: int) -> dict[tuple[Partition, Partition], int]:
    """Nonzero restriction multiplicities over all label pairs.

    Raises ValueError when |nu| > r + s: no such standard module exists.
    """
    nu = Partition(nu)
    if nu.size > r + s:
        raise ValueError(f"{nu} labels no standard module of degree {r} + {s}")
    out = {}
    # every label fits its degree, so each multiplicity is the reduced
    # Kronecker coefficient (restrict_multiplicity without its degree check)
    for lam in partitions_up_to(r):
        for mu in partitions_up_to(s):
            c = _reduced_kron(lam.parts, mu.parts, nu.parts)
            if c:
                out[(lam, mu)] = c
    return out


def dimension_identity_cases(max_m: int):
    """Yield (nu, r, s) for the filtration dimension certificate up to
    degree max_m."""
    for m in range(2, max_m + 1):
        for r in range(1, m):
            s = m - r
            for nu in partitions_up_to(m):
                yield nu, r, s


def check_dimension_identity(nu: Partition, r: int, s: int) -> dict:
    """Standard module dimension vs the restriction-weighted sum of products
    of smaller standard module dimensions."""
    lhs = dim_standard(r + s, nu)
    rhs = 0
    for lam in partitions_up_to(r):
        dl = dim_standard(r, lam)
        for mu in partitions_up_to(s):
            c = restrict_multiplicity(nu, r, s, lam, mu)
            if c:
                rhs += c * dl * dim_standard(s, mu)
    return {"dim": lhs, "filtration": rhs, "ok": lhs == rhs}
