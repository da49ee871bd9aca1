"""Symmetric group character theory: the brute-force oracle.

Everything here is exact integer arithmetic: characters by one
Murnaghan-Nakayama kernel that computes chi^lam on every class of S_|lam| at
once, block by block of the classes with the same largest part, in the
order of partitions._classes, which enumerates the classes and their sizes.
The kernel works on bead sets (the abacus of James-Kerber, section 2.7): a
partition is an int with one set bit per row, and a border strip of length t
is a bead moved t places down to a free place, with the sign of the parity
of the beads it passes;
Kronecker coefficients as class-weighted triple products; and explicit
Specht modules on the standard polytabloid basis.  Column t of the matrix of
sigma is sigma . e_t = e_{sigma t}, read off the tableau sigma t: sorting its
columns is a column permutation pi of a tableau t', and
e_{pi t'} = sgn(pi) e_t' (Sagan, section 2.3), so where t' is standard the
column is a signed basis vector.  Only the other columns are expanded over
tabloids and straightened in dominance order.  The tabloid form of the
basis is computed once per model, and the form against sigma is that form
times the matrix of sigma.  A model is built from its tableaux alone: it
computes its generators on their first read, and expands its polytabloids
once, on the first straightening or form: that of its first standard
tableau t0 over its column permutations, signed by _sign as a matrix column
is, and every other e_t as sigma . e_t0 = e_{sigma t0}, by the gather of
row indices that also permutes a polytabloid for a straightening.
The class sizes are those of _classes alone, and a class is located by
partitions._class_key alone; the closed size formula and the cycle type of a
permutation, which only the tests read, are class_size and cycle_type in
tests/oracles.py.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, permutations, product
from math import factorial
from operator import add, itemgetter, mul, neg, sub

from . import _memo
from .partitions import Partition, _class_index, _class_key, _classes, _degree, _partition_count, partitions_of

SPECHT_CAP = 7


def specht_dim(lam: Partition) -> int:
    """Dimension of the Specht module (number of standard tableaux), by the
    hook length formula."""
    lam = Partition(lam)
    if not lam.parts:
        return 1
    conj = lam.conjugate().parts
    prod = 1
    for i, p in enumerate(lam.parts):
        for j in range(p):
            prod *= p - j + conj[j] - i - 1
    return factorial(lam.size) // prod


def character(lam: Partition, rho: Partition) -> int:
    """Irreducible character value chi^lam on the class of cycle type rho."""
    lam, rho = Partition(lam), Partition(rho)
    if lam.size != rho.size:
        raise ValueError(f"size mismatch: |{lam}| != |{rho}|")
    return _chars(lam.parts)[_class_index(lam.size)[_class_key(rho.parts, lam.size)]]


class CharacterTable:
    """Exact character table of the symmetric group of degree n.

    The row of lam is its character vector _chars(lam); rows and columns run
    over partitions_of(n), the cycle types of _classes(n) in their order.
    """

    def __init__(self, n: int):
        self.n = n = _degree(n)
        self.partitions = partitions_of(n)

    def check_orthogonality(self) -> None:
        """Raise if the row orthogonality relation fails.  It implies the
        column relation: for the square table X and the diagonal D of class
        sizes, X D X^T = n! I makes D X^T / n! the inverse of X, so
        X^T X = n! D^-1."""
        nfact = factorial(self.n)
        rows = [_chars(lam.parts) for lam in self.partitions]
        for lam in self.partitions:
            weighted = _weighted(lam.parts)
            for mu, chi in zip(self.partitions, rows):
                if sum(map(mul, weighted, chi)) != (nfact if lam == mu else 0):
                    raise ArithmeticError(f"row orthogonality fails at ({lam}, {mu})")

    def to_tsv(self) -> str:
        """Rows are Specht labels, columns are cycle types."""
        lines = ["\t".join(["lambda\\rho"] + [str(r) for r in self.partitions])]
        for lam in self.partitions:
            lines.append("\t".join([str(lam)] + [str(c) for c in _chars(lam.parts)]))
        return "\n".join(lines) + "\n"


def kron_oracle(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker coefficient g^nu_{lam,mu} for three partitions of the same n,
    as the class-weighted scalar product of characters."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    n = lam.size
    if mu.size != n or nu.size != n:
        raise ValueError("kron_oracle needs three partitions of the same size")
    return _kron(lam.parts, mu.parts, nu.parts)


def _kron(lam: tuple, mu: tuple, nu: tuple) -> int:
    """kron_oracle on parts tuples of one size n: sum over the classes rho of
    |C_rho| chi^lam(rho) chi^mu(rho) chi^nu(rho), divided by n!."""
    total = sum(w * a * b for w, a, b in zip(_weighted(lam), _chars(mu), _chars(nu)))
    q, r = divmod(total, factorial(sum(lam)))
    if r:
        raise ArithmeticError(f"non-integral character sum for ({Partition(lam)},{Partition(mu)},{Partition(nu)})")
    return q


@_memo
def _chars(lam: tuple) -> tuple[int, ...]:
    """chi^lam on every class of S_|lam|, in the order of _classes.

    The bead set of lam has bit lam[i] + len(lam) - 1 - i set for each row i;
    lam has no zero part, so bit 0 is clear.
    """
    n = sum(lam)
    beads = 0
    for i, p in enumerate(reversed(lam)):
        beads |= 1 << (p + i)
    values = _upto(beads, n, n)
    if len(values) != len(_classes(n)):
        raise ArithmeticError(f"{len(values)} character values for the {len(_classes(n))} classes of S_{n}")
    return values


@_memo
def _upto(beads: int, n: int, t: int) -> tuple[int, ...]:
    """chi on the classes whose parts are all <= t, in the order of
    _classes, for the partition of n with bead set beads: the blocks of
    first part 1, 2, ..., min(t, n) in turn.

    _classes(n) is sorted lexicographically, so its classes come grouped by
    first part in ascending order, and the tails of the group of first part u
    are the partitions of n - u with parts <= u, again in that order.
    """
    if not beads:
        return (1,)
    return tuple(chain.from_iterable(_block(beads, n, u) for u in range(1, min(t, n) + 1)))


@_memo
def _block(beads: int, n: int, t: int) -> tuple[int, ...]:
    """chi on the classes of first part t <= n, for the partition of n with
    bead set beads, by the Murnaghan-Nakayama rule: the sum over the border
    strips of length t, with sign (-1)^(rows - 1), of _upto(beads', n - t, t).

    A border strip of length t is a bead moved from x to a free x - t >= 0,
    and its rows - 1 is the number of beads that the move passes.  A bead
    that lands on 0 makes an empty row, which is shifted away so that every
    partition has one bead set.  A single strip's vector is returned as it
    is (tuple of a tuple is that tuple), or negated.
    """
    rest = n - t
    sub_t = min(t, rest)
    between = (1 << (t - 1)) - 1
    total = None
    # bit q of free: a bead on q + t and none on q
    free = (beads >> t) & ~beads
    while free:
        low = free & -free
        free ^= low
        moved = beads ^ low ^ (low << t)
        if moved & 1:
            # the beads on 0, 1, ... are empty rows
            moved >>= (moved ^ (moved + 1)).bit_length() - 1
        # the t - 1 places above q, low.bit_length() = q + 1
        odd = ((beads >> low.bit_length()) & between).bit_count() & 1
        vec = _upto(moved, rest, sub_t)
        if total is None:
            total = map(neg, vec) if odd else vec
        else:
            total = list(map(sub if odd else add, total, vec))
    if total is None:
        return (0,) * _partition_count(rest, t)
    return tuple(total)


@_memo
def _weighted(lam: tuple) -> tuple[int, ...]:
    """|C_rho| chi^lam(rho) on every class, in the order of _classes."""
    return tuple(size * c for (_rho, size), c in zip(_classes(sum(lam)), _chars(lam)))


# ---------------------------------------------------------------------------
# Specht modules on the standard polytabloid basis
# ---------------------------------------------------------------------------


def standard_tableaux(shape: Partition) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All standard Young tableaux of the given shape, entries 1..|shape|."""
    shape = Partition(shape)
    out: list = []

    def grow(rows: list[list[int]], value: int):
        if value > shape.size:
            out.append(tuple(tuple(r) for r in rows))
            return
        for i in range(len(shape)):
            filled = len(rows[i])
            above = len(rows[i - 1]) if i else None
            if filled < shape.row(i + 1) and (above is None or filled < above):
                rows[i].append(value)
                grow(rows, value + 1)
                rows[i].pop()

    grow([[] for _ in shape.parts], 1)
    return tuple(out)


def _sign(seq) -> int:
    """The sign of the permutation that sorts seq: one transposition per
    inversion."""
    sign = 1
    for a, x in enumerate(seq):
        for y in seq[a + 1:]:
            if x > y:
                sign = -sign
    return sign


def _columns(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The columns of a tableau given by its rows, each read top to bottom."""
    return tuple(tuple(row[j] for row in rows if j < len(row)) for j in range(len(rows[0]) if rows else 0))


def _polytabloid(rows: tuple[tuple[int, ...], ...], k: int) -> dict[tuple, int]:
    """The polytabloid e_t of the standard tableau t, each tabloid keyed by
    the row index of each entry 1..k: a permutation pi of each (increasing)
    column gives the tabloid {pi t}, pi(v) in the row of v, with sign sgn(pi)."""
    vec: dict[tuple, int] = {}
    for images in product(*map(permutations, _columns(rows))):
        key = [0] * k
        sign = 1
        for image in images:
            sign *= _sign(image)
            # a column holds one entry of each of the rows 0, 1, ...
            for i, w in enumerate(image):
                key[w - 1] = i
        key = tuple(key)
        if key in vec:
            raise ArithmeticError(f"two column arrangements of {rows} give one tabloid")
        vec[key] = sign
    return vec


def _gather(vec: dict[tuple, int], inverse: list[int]) -> dict[tuple, int]:
    """sigma . vec for a tabloid vector keyed by row indices, given the
    0-based inverse of sigma: sigma moves entry v to sigma(v), so entry w
    sits in the row of sigma^-1(w).  Only k >= 2 reaches here: the one
    permutation of fewer entries is the identity, never gathered by."""
    get = itemgetter(*inverse)
    return {get(key): c for key, c in vec.items()}


class SpechtModel:
    """Specht module with explicit matrices for the permutations.

    The basis is the set of standard polytabloids e_t; every matrix is exact
    and integral.  Column t of matrix_of(sigma) is e_{sigma t}: where sorting
    the columns of sigma t by a column permutation pi gives a standard t',
    it is sgn(pi) e_t' (Sagan, section 2.3), and elsewhere sigma . e_t is
    straightened in dominance order.  form_of(sigma) is the tabloid form of
    the basis, <e_a, e_b>, times matrix_of(sigma).  A model is built from
    its tableaux alone.  The generators, the matrices of the adjacent
    transpositions, are computed on their first read; the polytabloids are
    expanded once, when a straightening or a form first needs them; the form
    of the basis is computed once, on the first form_of; and no other matrix
    is kept.  Validated through the Coxeter relations and trace identities
    rather than any particular basis convention.
    """

    def __init__(self, nu: Partition):
        self.nu = Partition(nu)
        self.k = self.nu.size
        self.tableaux = standard_tableaux(self.nu)
        self.dim = len(self.tableaux)
        # each standard tableau by its columns, in order: a column-sorted
        # tableau is standard exactly when it is found here
        self._index = {_columns(t): j for j, t in enumerate(self.tableaux)}
        # the top tabloid {t} of e_t, the row of each entry 1, 2, ... of t:
        # standard_tableaux puts each entry in the highest row it can, so keys
        # increase with j, and the least key is dominance-largest
        self._tops = [tuple(i for _v, i in sorted((v, i) for i, row in enumerate(t) for v in row)) for t in self.tableaux]

    @cached_property
    def generators(self) -> list[tuple]:
        """The matrices of the adjacent transpositions s_1, ..., s_(k-1),
        computed on first read."""
        return [
            self.matrix_of(tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, self.k + 1)))
            for i in range(1, self.k)
        ]

    @cached_property
    def _keyed(self) -> list[dict[tuple, int]]:
        """The polytabloids keyed by row indices, expanded on first use.  Only
        e_t0 is expanded over its columns: every other e_t is
        sigma . e_t0 = e_{sigma t0} with sigma t0 = t."""
        t0 = self.tableaux[0]
        keyed = [_polytabloid(t0, self.k)]
        for t in self.tableaux[1:]:
            # sigma moves each entry of t0 to the entry of t in its cell
            inverse = [0] * self.k
            for v, w in zip(chain.from_iterable(t0), chain.from_iterable(t)):
                inverse[w - 1] = v - 1
            keyed.append(_gather(keyed[0], inverse))
        return keyed

    @cached_property
    def _form(self) -> tuple:
        """The tabloid form of the basis, <e_a, e_b>, built on first use."""
        keyed = self._keyed
        # a row key names one tabloid, so keys pair up as tabloids do
        return tuple(tuple(sum(c * v.get(key, 0) for key, c in u.items()) for v in keyed) for u in keyed)

    def _straighten(self, vec: dict[tuple, int]) -> tuple[int, ...]:
        # {t} has coefficient 1 in e_t, and every other tabloid of e_t lies
        # below it, so no later e_t' can change the coefficient of {t}
        coeffs = [0] * self.dim
        keyed = self._keyed
        for j, top in enumerate(self._tops):
            c = vec.get(top)
            if c:
                coeffs[j] = c
                for key, b in keyed[j].items():
                    left = vec.get(key, 0) - c * b
                    if left:
                        vec[key] = left
                    else:
                        del vec[key]
        if vec:
            raise ArithmeticError("tabloid vector outside the polytabloid span")
        return tuple(coeffs)

    def matrix_of(self, sigma: tuple[int, ...]) -> tuple:
        """Matrix of the permutation: column t is sigma . e_t = e_{sigma t},
        a signed unit vector where sorting the columns of sigma t gives a
        standard tableau, and straightened where it does not.  sigma[j-1]
        is the image of j."""
        sigma = tuple(sigma)
        if len(sigma) != self.k or sorted(sigma) != list(range(1, self.k + 1)):
            raise ValueError(f"not a permutation of 1..{self.k}: {sigma}")
        inverse = sorted(range(self.k), key=sigma.__getitem__)
        columns = []
        for j, cols in enumerate(self._index):
            sign = 1
            moved = []
            for col in cols:
                image = [sigma[v - 1] for v in col]
                ordered = sorted(image)
                if image != ordered:
                    sign *= _sign(image)
                moved.append(tuple(ordered))
            i = self._index.get(tuple(moved))
            if i is None:
                columns.append(self._straighten(_gather(self._keyed[j], inverse)))
            else:
                unit = [0] * self.dim
                unit[i] = sign
                columns.append(unit)
        return tuple(zip(*columns))

    def form_of(self, sigma: tuple[int, ...]) -> tuple:
        """The matrix <e_a, sigma . e_b> of the tabloid inner product: the
        form of the basis times the matrix of sigma."""
        columns = tuple(zip(*self.matrix_of(sigma)))
        return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in self._form)


@_memo
def _specht_model_cached(parts: tuple) -> SpechtModel:
    return SpechtModel(Partition(parts))


def specht_model(nu: Partition) -> SpechtModel:
    """Explicit Specht module for |nu| up to the desk-scale cap."""
    nu = Partition(nu)
    if nu.size > SPECHT_CAP:
        raise ValueError(f"|{nu}| exceeds the Specht model cap {SPECHT_CAP}")
    return _specht_model_cached(nu.parts)
