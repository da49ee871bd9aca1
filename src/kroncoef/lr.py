"""Littlewood-Richardson coefficients by counting LR tableaux.

c^nu_{lam,mu} is the number of semistandard fillings of nu/lam with content mu
whose reverse reading word is a lattice word.  The count adds the letters of
mu one at a time: letter j fills a horizontal strip of mu_j boxes on the
current shape, inside nu, and the lattice condition bounds each row in
advance, since rows 1..r may hold no more j's than rows 1..r-1 hold (j-1)'s.

Two cuts keep the count from visiting fillings that cannot finish.  Before
any recursion, a triple is dropped unless lam and mu lie inside nu and nu
lies between the union of the parts of lam and mu and their row-wise sum in
the dominance order.  Within a letter, room[r] bounds the boxes that rows
r, r+1, ... can still take: row r takes at most min(nu_r, shape_{r-1}) -
shape_r boxes and no more than its lattice bound, so a strip with more
boxes left than that is abandoned at row r.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import Partition, partitions_of


def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity c^nu_{lam,mu}; zero unless |lam|+|mu| = |nu| and
    lam fits inside nu."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    return _lr(lam.parts, mu.parts, nu.parts)


def lr_coeff3(lam: Partition, mu: Partition, eta: Partition, nu: Partition) -> int:
    """Three-factor coefficient: sum over xi of c^xi_{lam,mu} c^nu_{xi,eta}."""
    lam, mu, eta, nu = (Partition(p) for p in (lam, mu, eta, nu))
    return _lr3(lam.parts, mu.parts, eta.parts, nu.parts)


@lru_cache(maxsize=None)
def _lr3(lam: tuple, mu: tuple, eta: tuple, nu: tuple) -> int:
    if sum(lam) + sum(mu) + sum(eta) != sum(nu):
        return 0
    total = 0
    for xi in partitions_of(sum(lam) + sum(mu)):
        c1 = _lr(lam, mu, xi.parts)
        if c1:
            total += c1 * _lr(xi.parts, eta, nu)
    return total


@lru_cache(maxsize=None)
def _lr(lam: tuple, mu: tuple, nu: tuple) -> int:
    if not _admissible(lam, mu, nu):
        return 0
    rows = len(nu)
    memo: dict = {}

    def letter(j: int, shape: tuple, limit: tuple) -> int:
        # Ways to place letters j, j+1, ... on shape; limit[r] caps the number
        # of j's in rows 0..r.
        if j == len(mu):
            return 1
        key = (j, shape, limit)
        hit = memo.get(key)
        if hit is None:
            # room[r]: the most j's that rows r, r+1, ... can still take
            room = [0] * (rows + 1)
            for r in range(rows - 1, -1, -1):
                top = min(nu[r], shape[r - 1]) if r else nu[0]
                room[r] = room[r + 1] + min(top - shape[r], limit[r])
            hit = memo[key] = strip(j, 0, shape, limit, room, (), (), mu[j])
        return hit

    def strip(j: int, r: int, shape: tuple, limit: tuple, room: list, new: tuple, placed: tuple, left: int) -> int:
        # Rows 0..r-1 of letter j's strip are chosen: new holds their lengths
        # and placed the running count of j's through each of them.
        done = placed[-1] if placed else 0
        if left == 0:
            counts = placed + (done,) * (rows - r)
            return letter(j + 1, new + shape[r:], (0,) + counts[:-1])
        if left > room[r]:
            return 0
        lo = shape[r]
        hi = min(nu[r], lo + left, lo + limit[r] - done)
        if r:
            hi = min(hi, shape[r - 1])
        total = 0
        for v in range(lo, hi + 1):
            total += strip(j, r + 1, shape, limit, room, new + (v,), placed + (done + v - lo,), left - v + lo)
        return total

    # shapes are padded with zero rows to the length of nu
    return letter(0, lam + (0,) * (rows - len(lam)), (sum(mu),) * rows)


def _admissible(lam: tuple, mu: tuple, nu: tuple) -> bool:
    """Necessary conditions for c^nu_{lam,mu} != 0: |lam| + |mu| = |nu|,
    lam and mu inside nu, and nu between the union of the parts of lam and
    mu and their row-wise sum in the dominance order."""
    if sum(lam) + sum(mu) != sum(nu) or len(lam) > len(nu) or len(mu) > len(nu):
        return False
    if any(p > q for p, q in zip(lam, nu)) or any(p > q for p, q in zip(mu, nu)):
        return False
    return _dominates(_row_sum(lam, mu), nu) and _dominates(nu, sorted(lam + mu, reverse=True))


def _row_sum(lam: tuple, mu: tuple) -> tuple:
    """The row-wise sum lam + mu."""
    if len(lam) < len(mu):
        lam, mu = mu, lam
    return tuple(p + q for p, q in zip(lam, mu)) + lam[len(mu):]


def _dominates(a, b) -> bool:
    """Whether a dominates b, for two partitions of one size."""
    # stopping at the shorter one is enough: past a shorter a nothing can
    # fail, and a longer a already fails at b's last part
    sa = sb = 0
    for p, q in zip(a, b):
        sa += p
        sb += q
        if sa < sb:
            return False
    return True
