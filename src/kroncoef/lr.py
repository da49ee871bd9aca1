"""Littlewood-Richardson coefficients read from skew Schur expansions.

c^nu_{lam,mu} is the number of semistandard fillings of nu/lam with content mu
whose reverse reading word is a lattice word.  _skew(nu, lam) counts the
fillings of every content at once, which is the expansion of the skew Schur
function s_{nu/lam}.  Letter j fills a nonempty horizontal strip on the
current shape, inside nu, and its length is the j-th part of the content.
The lattice condition bounds each row in advance, since rows 1..r may hold
no more j's than rows 1..r-1 hold (j-1)'s; it also makes the content a
partition, and it rules out a strip after which the rows above it can no
longer be filled.  Each call memoizes on the shape and the row bounds.

The three-factor coefficient is symmetric in lam, mu and eta; it expands the
smallest skew shapes by taking eta largest and lam the larger of the rest.
"""

from __future__ import annotations

from . import _memo
from .partitions import Partition


def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity c^nu_{lam,mu}; zero unless |lam|+|mu| = |nu| and
    lam fits inside nu."""
    lam, mu, nu = (Partition(p).parts for p in (lam, mu, nu))
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    return _skew(nu, lam).get(mu, 0)


def lr_coeff3(lam: Partition, mu: Partition, eta: Partition, nu: Partition) -> int:
    """Three-factor coefficient: sum over xi of c^xi_{lam,mu} c^nu_{xi,eta}."""
    lam, mu, eta, nu = (Partition(p).parts for p in (lam, mu, eta, nu))
    if sum(lam) + sum(mu) + sum(eta) != sum(nu):
        return 0
    mu, lam, eta = sorted((lam, mu, eta), key=sum)
    return sum(c * _skew(xi, lam).get(mu, 0) for xi, c in _skew(nu, eta).items())


@_memo
def _skew(outer: tuple, inner: tuple) -> dict[tuple, int]:
    """{mu: c^outer_{inner,mu}} over the mu with a nonzero coefficient: the
    expansion of the skew Schur function s_{outer/inner}.  The cached dict
    is shared by every caller, so it is read, never changed."""
    rows = len(outer)
    if len(inner) > rows or any(p > q for p, q in zip(inner, outer)):
        return {}
    memo: dict = {}

    def letter(shape: tuple, limit: tuple) -> dict:
        # {content of the letters still to place: fillings of outer/shape};
        # limit[r] caps the number of the next letter in rows 0..r
        if shape == outer:
            return {(): 1}
        key = (shape, limit)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = {}
            strip(0, shape, limit, (), (), 0, hit)
        return hit

    def strip(r: int, shape: tuple, limit: tuple, new: tuple, placed: tuple, slack: int, out: dict) -> None:
        # Rows 0..r-1 of the strip are chosen: new holds their lengths and
        # placed the running count of the letter through each of them.  The
        # later letters fit at most sum(placed[:r]) boxes into rows 0..r;
        # slack is that less what rows 0..r-1 still lack.
        done = placed[-1] if placed else 0
        if r == rows:
            for tail, c in letter(new, (0,) + placed[:-1]).items():
                content = (done,) + tail
                out[content] = out.get(content, 0) + c
            return
        lo = shape[r]
        hi = min(outer[r], lo + limit[r] - done)
        if r:
            hi = min(hi, shape[r - 1])
        for v in range(max(lo, outer[r] - slack), hi + 1):
            count = done + v - lo
            strip(r + 1, shape, limit, new + (v,), placed + (count,), slack + count - outer[r] + v, out)

    # shapes are padded with zero rows to the length of outer
    return letter(inner + (0,) * (rows - len(inner)), (sum(outer) - sum(inner),) * rows)
