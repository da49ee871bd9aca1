"""Symmetric group character theory: the brute-force oracle.

Everything here is exact integer arithmetic: characters by border-strip
recursion, Kronecker coefficients as class-weighted triple products,
induction multiplicities by summing over class pairs, and explicit Specht
module matrices on the standard polytabloid basis, obtained by straightening
in dominance order.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from itertools import permutations, product
from math import factorial

from .partitions import Partition, partitions_of

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
    return _char(lam.parts, rho.parts)


@lru_cache(maxsize=None)
def _char(lam: tuple, rho: tuple) -> int:
    """Murnaghan-Nakayama recursion: remove every border strip of length
    rho[0] from lam, with sign (-1)^(rows - 1), and recurse on rho[1:].

    Strips are removed by row arithmetic.  The strip of length t that starts
    in row i ends in row k - 1, where k is the first row below i with
    lam[k] - k <= lam[i] - i - t; it exists unless that is an equality or
    lam[i] - i - t <= -len(lam).  Rows i+1..k-1 move up one row and lose a
    box each, and row k - 1 becomes lam[i] - i - t + k - 1.
    """
    if not lam:
        return 1
    t, rest = rho[0], rho[1:]
    m = len(lam)
    total = 0
    for i in range(m):
        end = lam[i] - i - t
        k = i + 1
        while k < m and lam[k] - k > end:
            k += 1
        if (lam[k] - k if k < m else -m) >= end:
            continue
        new = lam[:i] + tuple(p - 1 for p in lam[i + 1 : k]) + (end + k - 1,) + lam[k:]
        while new and not new[-1]:
            new = new[:-1]
        total += (-1) ** (k - 1 - i) * _char(new, rest)
    return total


def class_size(rho: Partition) -> int:
    """Number of permutations of cycle type rho: |rho|! / prod k^{m_k} m_k!."""
    rho = Partition(rho)
    z = 1
    mult: dict[int, int] = {}
    for part in rho.parts:
        mult[part] = mult.get(part, 0) + 1
    for k, m in mult.items():
        z *= k**m * factorial(m)
    return factorial(rho.size) // z


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[tuple[tuple, int], ...]:
    return tuple((rho.parts, class_size(rho)) for rho in partitions_of(n))


class CharacterTable:
    """Exact character table of the symmetric group of degree n."""

    def __init__(self, n: int):
        self.n = n
        self.partitions = partitions_of(n)
        self.class_sizes = {rho: class_size(rho) for rho in self.partitions}
        self.values = {
            (lam, rho): character(lam, rho)
            for lam in self.partitions
            for rho in self.partitions
        }

    def value(self, lam: Partition, rho: Partition) -> int:
        return self.values[(Partition(lam), Partition(rho))]

    def check_orthogonality(self) -> None:
        """Raise if either orthogonality relation fails."""
        nfact = factorial(self.n)
        for lam in self.partitions:
            for mu in self.partitions:
                s = sum(
                    self.class_sizes[rho] * self.values[(lam, rho)] * self.values[(mu, rho)]
                    for rho in self.partitions
                )
                if s != (nfact if lam == mu else 0):
                    raise ArithmeticError(f"row orthogonality fails at ({lam}, {mu})")
        for rho in self.partitions:
            for tau in self.partitions:
                s = sum(
                    self.values[(lam, rho)] * self.values[(lam, tau)]
                    for lam in self.partitions
                )
                expect = nfact // self.class_sizes[rho] if rho == tau else 0
                if s != expect:
                    raise ArithmeticError(f"column orthogonality fails at ({rho}, {tau})")

    def to_tsv(self) -> str:
        """Rows are Specht labels, columns are cycle types."""
        header = "\t".join(["lambda\\rho"] + [str(r) for r in self.partitions])
        lines = [header]
        for lam in self.partitions:
            row = [str(lam)] + [str(self.values[(lam, rho)]) for rho in self.partitions]
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"


_tables: dict[int, CharacterTable] = {}
_tables_lock = threading.Lock()


def character_table(n: int) -> CharacterTable:
    """Build (once) and return the character table for degree n.

    Concurrent callers observe a single coherent table.
    """
    with _tables_lock:
        table = _tables.get(n)
        if table is None:
            table = _tables[n] = CharacterTable(n)
        return table


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


@lru_cache(maxsize=None)
def _chars(lam: tuple) -> tuple[int, ...]:
    """chi^lam on every class of S_|lam|, in the order of _classes."""
    return tuple(_char(lam, rho) for rho, _size in _classes(sum(lam)))


@lru_cache(maxsize=None)
def _weighted(lam: tuple) -> tuple[int, ...]:
    """|C_rho| chi^lam(rho) on every class, in the order of _classes."""
    return tuple(size * c for (_rho, size), c in zip(_classes(sum(lam)), _chars(lam)))


def induction_mult(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of the outer product piece S(lam) x S(mu) in the
    restriction of S(nu) to the corresponding Young subgroup."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    r1, r2 = lam.size, mu.size
    if nu.size != r1 + r2:
        raise ValueError("induction_mult needs |nu| = |lam| + |mu|")
    total = 0
    for rho1, s1 in _classes(r1):
        c1 = _char(lam.parts, rho1)
        if not c1:
            continue
        for rho2, s2 in _classes(r2):
            c2 = _char(mu.parts, rho2)
            if not c2:
                continue
            joint = tuple(sorted(rho1 + rho2, reverse=True))
            total += s1 * s2 * c1 * c2 * _char(nu.parts, joint)
    q, rem = divmod(total, factorial(r1) * factorial(r2))
    if rem:
        raise ArithmeticError("non-integral induction sum")
    return q


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


def _perm_parity(seq: tuple, base: tuple) -> int:
    """+1/-1 parity of the rearrangement taking base to seq."""
    pos = {v: i for i, v in enumerate(base)}
    idx = [pos[v] for v in seq]
    inv = sum(1 for i in range(len(idx)) for j in range(i + 1, len(idx)) if idx[i] > idx[j])
    return -1 if inv % 2 else 1


def _tabloid(rows) -> tuple:
    return tuple(tuple(sorted(r)) for r in rows)


def _polytabloid(rows: tuple[tuple[int, ...], ...]) -> dict[tuple, int]:
    """Signed sum of tabloids over the column group of the tableau."""
    ncols = len(rows[0]) if rows else 0
    cols = [tuple(row[j] for row in rows if j < len(row)) for j in range(ncols)]
    vec: dict[tuple, int] = {}
    for images in product(*map(permutations, cols)):
        sign = 1
        mapping = {}
        for col, img in zip(cols, images):
            sign *= _perm_parity(img, col)
            mapping.update(zip(col, img))
        tab = _tabloid(tuple(mapping[v] for v in row) for row in rows)
        vec[tab] = vec.get(tab, 0) + sign
        if vec[tab] == 0:
            del vec[tab]
    return vec


def _row_key(rows, k: int) -> tuple[int, ...]:
    """The row index of each entry 1..k; a smaller key is a tabloid that is
    higher in a linear extension of the dominance order."""
    key = [0] * k
    for i, row in enumerate(rows):
        for v in row:
            key[v - 1] = i
    return tuple(key)


class SpechtModel:
    """Specht module with explicit matrices for the permutations.

    The basis is the set of standard polytabloids.  Every matrix is exact and
    integral: a column is the expansion of a permuted polytabloid, found by
    straightening it against the standard polytabloids in dominance order.
    Validated through the Coxeter relations and trace identities rather than
    any particular basis convention.
    """

    def __init__(self, nu: Partition):
        self.nu = Partition(nu)
        self.k = self.nu.size
        self.tableaux = standard_tableaux(self.nu)
        self.dim = len(self.tableaux)
        self.basis_vectors = [_polytabloid(t) for t in self.tableaux]
        # the same vectors keyed by row indices, and the top tabloid {t} of
        # each e_t, dominance-largest first
        self._keyed = [{_row_key(tab, self.k): c for tab, c in v.items()} for v in self.basis_vectors]
        self._tops = sorted((_row_key(t, self.k), j) for j, t in enumerate(self.tableaux))
        self._matrix_cache: dict[tuple, tuple] = {}
        self.generators = [
            self.matrix_of(tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, self.k + 1)))
            for i in range(1, self.k)
        ]

    def expand(self, vec: dict[tuple, int]) -> tuple[int, ...]:
        """Coefficients of a tabloid vector in the standard polytabloid basis."""
        return self._straighten({_row_key(tab, self.k): c for tab, c in vec.items() if c})

    def _straighten(self, vec: dict[tuple, int]) -> tuple[int, ...]:
        # {t} has coefficient 1 in e_t, and every other tabloid of e_t lies
        # below it, so no later e_t' can change the coefficient of {t}
        coeffs = [0] * self.dim
        for top, j in self._tops:
            c = vec.get(top)
            if c:
                coeffs[j] = c
                for key, b in self._keyed[j].items():
                    left = vec.get(key, 0) - c * b
                    if left:
                        vec[key] = left
                    else:
                        del vec[key]
        if vec:
            raise ArithmeticError("tabloid vector outside the polytabloid span")
        return tuple(coeffs)

    def matrix_of(self, sigma: tuple[int, ...]) -> tuple:
        """Matrix of the permutation given in one-line notation (sigma[j-1] is
        the image of j)."""
        sigma = tuple(sigma)
        if len(sigma) != self.k or sorted(sigma) != list(range(1, self.k + 1)):
            raise ValueError(f"not a permutation of 1..{self.k}: {sigma}")
        cached = self._matrix_cache.get(sigma)
        if cached is not None:
            return cached
        # sigma moves entry v to sigma(v), so entry w sits in the row of sigma^-1(w)
        inverse = sorted(range(self.k), key=sigma.__getitem__)
        cols = [
            self._straighten({tuple(key[v] for v in inverse): c for key, c in vec.items()})
            for vec in self._keyed
        ]
        mat = tuple(zip(*cols))
        self._matrix_cache[sigma] = mat
        return mat

    def invariant_form(self) -> tuple:
        """Gram matrix of the basis under the tabloid inner product."""
        g = []
        for u in self.basis_vectors:
            g.append(tuple(sum(c * v.get(tab, 0) for tab, c in u.items()) for v in self.basis_vectors))
        return tuple(g)


def _mat_mul(a, b):
    n, m = len(a), len(b[0]) if b else 0
    inner = len(b)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(m))
        for i in range(n)
    )


@lru_cache(maxsize=None)
def _specht_model_cached(parts: tuple) -> SpechtModel:
    return SpechtModel(Partition(parts))


def specht_model(nu: Partition) -> SpechtModel:
    """Explicit Specht module for |nu| up to the desk-scale cap."""
    nu = Partition(nu)
    if nu.size > SPECHT_CAP:
        raise ValueError(f"|{nu}| exceeds the Specht model cap {SPECHT_CAP}")
    return _specht_model_cached(nu.parts)


def cycle_type(sigma: tuple[int, ...]) -> Partition:
    """Cycle type of a permutation in one-line notation."""
    k = len(sigma)
    seen = [False] * (k + 1)
    parts = []
    for start in range(1, k + 1):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = sigma[v - 1]
            length += 1
        parts.append(length)
    return Partition(sorted(parts, reverse=True))
