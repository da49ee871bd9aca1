"""Kronecker and reduced Kronecker coefficients by several routes.

Routes implemented side by side so they can be cross-checked, each as
kron_via_<route>(lam, mu, nu, n):

* oracle: the character oracle on first-row-padded triples,
* blocks: an alternating sum of reduced coefficients over the n-pair chain,
* dagger: an alternating sum over the dagger partitions of the padded nu,
* closed: the dagger sum cut after its first two terms, from the n on which
  _two_term_floor proves the cut exact; for a two-row or hook nu, (n-k, k)
  or (n-k, 1^k), the source paper's closed formulas; no route row of the
  sweep reads it, since where it answers the terms it cuts are zero.

The block chain, dagger and closed routes are one alternating sum,
_alternating, of reduced coefficients from one cached kernel, _reduced_kron,
the positive quadruple sum of Littlewood-Richardson products of the source
paper contracted in class space: one sum of products of character values of
lam, mu and nu, with no LR coefficient and no Kronecker coefficient.  The
chain and the dagger partitions of _daggers are the same partitions, so the
routes are readings of one kernel sum; only the character oracle is
independent of it.
reduced_kron, kron_via_oracle at the stability bound, is the stable route
of kroncoef rkron; kron_via_oracle is the one caller of
sym_characters._kron.  valid_n_range is the range of n of a triple, from its
first padding to past the stability bound; which triples the verification
sweep checks is decided by kroncoef.cli.sweep_rows, whose route rows compare
the kernel's gbar with the oracle at every n of that range from the
stability bound on.

Arguments may be given either as reduced partitions (padded internally with a
first row of n - |.|) or as partitions of n; a partition whose size equals n
is taken to be already padded, and the two readings never overlap.  Every
route reads each label once, by partitions._padded, and hands down its parts.

Each public function validates its arguments as Partition once; from there
on the routes pass plain parts tuples to the cached kernels (_reduced_kron
and its _restricted character tables, sym_characters._kron).  _restricted
finds a joined cycle type by adding the class keys of its pieces, read from
partitions._class_keys.
"""

from __future__ import annotations

from itertools import islice
from math import factorial
from operator import mul

from . import _memo
from .partitions import Partition, _class_index, _class_keys, _classes, _padded, block_chain, dagger
from .sym_characters import _chars, _kron


class FormulaRangeError(ValueError):
    """A closed formula was called outside its validity range."""


def stability_bound(lam: Partition, mu: Partition, nu: Partition) -> int:
    """A value of n from which the padded Kronecker coefficient has reached
    its stable limit (minimum over the three symmetric size+first-row
    combinations)."""
    return _stability_bound(*(Partition(p).parts for p in (lam, mu, nu)))


def _stability_bound(lam: tuple, mu: tuple, nu: tuple) -> int:
    a, b, c = sum(lam), sum(mu), sum(nu)
    return min(a + b + _first(nu), a + c + _first(mu), c + b + _first(lam))


def _first_n(lam: tuple, mu: tuple, nu: tuple) -> int:
    """The least n at which all three paddings exist."""
    return max(1, *(sum(p) + _first(p) for p in (lam, mu, nu)))


def _first(parts: tuple) -> int:
    return parts[0] if parts else 0


def valid_n_range(lam: Partition, mu: Partition, nu: Partition, extra_n: int) -> range:
    """All n from the first padding-valid value to stability_bound + extra_n."""
    lam, mu, nu = (Partition(p).parts for p in (lam, mu, nu))
    return range(_first_n(lam, mu, nu), _stability_bound(lam, mu, nu) + extra_n + 1)


def reduced_kron(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Reduced Kronecker coefficient as the stable limit of the padded
    Kronecker coefficient, kron_via_oracle at _oracle_n: the stable route of
    kroncoef rkron, against reduced_kron_via_lr.  There n >= |p| + p_1 > |p|
    for every nonempty label p, so no label reads as a partition of n."""
    lam, mu, nu = map(Partition, (lam, mu, nu))
    n = _oracle_n(lam.parts, mu.parts, nu.parts)
    return 0 if n is None else kron_via_oracle(lam, mu, nu, n)


def _oracle_n(lam: tuple, mu: tuple, nu: tuple) -> int | None:
    """The n at which reduced_kron runs the oracle, or None when
    |nu| > |lam| + |mu| and the coefficient is 0 without it."""
    if sum(nu) > sum(lam) + sum(mu):
        return None
    return max(_stability_bound(lam, mu, nu), _first_n(lam, mu, nu))


def kron_via_oracle(lam: Partition, mu: Partition, nu: Partition, n: int) -> int:
    """Kronecker coefficient of the padded triple, straight from characters."""
    return _kron(*(_padded(p, n) for p in (lam, mu, nu)))


def kron_via_blocks(lam: Partition, mu: Partition, nu: Partition, n: int) -> int:
    """Kronecker coefficient as an alternating sum of reduced coefficients
    over the n-pair block chain of nu, truncated at degree |lam| + |mu|."""
    lam, mu, nu = (_padded(p, n)[1:] for p in (lam, mu, nu))
    r, s = sum(lam), sum(mu)
    if sum(nu) > r + s:
        return 0
    return _alternating(lam, mu, block_chain(Partition._of(nu), n, r + s))


def kron_via_dagger(lam: Partition, mu: Partition, nu: Partition, n: int) -> int:
    """Kronecker coefficient as an alternating sum of reduced coefficients at
    the dagger partitions of the padded nu (see _daggers)."""
    lam, mu, padded = (_padded(p, n) for p in (lam, mu, nu))
    lam, mu = lam[1:], mu[1:]
    return _alternating(lam, mu, _daggers(lam, mu, padded))


def _daggers(lam: tuple, mu: tuple, padded: tuple):
    """dagger(padded, i) of the nu padded at n, for i below the product of
    the padded lengths of lam and mu, stopping before the first with more
    than |lam| + |mu| boxes: the i-th has n - row_i + i boxes, which strictly
    increases with i, and the gbar of an oversize third factor is zero."""
    n, boxes, nu = sum(padded), sum(lam) + sum(mu), Partition._of(padded)
    for i in range((len(lam) + 1) * (len(mu) + 1)):
        if n - (padded[i] if i < len(padded) else 0) + i > boxes:
            return
        yield dagger(nu, i)


def _alternating(lam: tuple, mu: tuple, entries) -> int:
    """The sum over i of (-1)^i _reduced_kron(lam, mu, entries[i])."""
    return sum((-1) ** i * _reduced_kron(lam, mu, entry.parts) for i, entry in enumerate(entries))


def reduced_kron_via_lr(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Reduced Kronecker coefficient as the positive quadruple sum of
    Littlewood-Richardson products and small Kronecker coefficients of the
    source paper, contracted in class space (see _reduced_kron)."""
    return _reduced_kron(*(Partition(p).parts for p in (lam, mu, nu)))


@_memo
def _reduced_kron(lam: tuple, mu: tuple, nu: tuple) -> int:
    """The sum of c^nu_{alpha beta pi} c^lam_{alpha rho gamma}
    c^mu_{gamma sigma beta} g_{rho sigma pi} over the splits (l1, l2, a, b)
    of _l_splits, with alpha |- a, beta |- b, gamma |- l2, rho, sigma, pi |- l1.

    Each LR coefficient is a restricted character, c^lam_{alpha rho gamma} =
    <chi^lam|(S_a x S_l1 x S_l2), chi^alpha x chi^rho x chi^gamma>, and g is
    the character formula on S_l1, so orthogonality leaves one sum over the
    classes tau |- a, theta |- b, kappa |- l2, C |- l1 of |tau||theta||kappa||C|
    chi^lam(tau kappa C) chi^mu(kappa theta C) chi^nu(tau theta C) / (a! b! l2! l1!),
    juxtaposition joining cycle types.  The coefficient is symmetric, so every
    order of a triple is computed as the one sorted by (size, parts).

    It is 0, before any class sum, when a first-row bound of
    _two_term_floor fails: rho_1 <= |X| + Y_1 for each order (rho, X, Y)
    of the three labels.  A bound holds when |rho| <= |X|, so on the sorted
    triple only three of the six can fail.  A sorted triple off the size
    triangle, |nu| > |lam| + |mu|, leaves _l_splits empty."""
    r, s, t = sum(lam), sum(mu), sum(nu)
    if not (r, lam) <= (s, mu) <= (t, nu):
        a, b, c = sorted(((r, lam), (s, mu), (t, nu)))
        return _reduced_kron(a[1], b[1], c[1])
    lam_1, mu_1, nu_1 = _first(lam), _first(mu), _first(nu)
    if mu_1 > r + nu_1 or nu_1 > r + mu_1 or nu_1 > s + lam_1:
        return 0
    total = 0
    for l1, l2, a, b in _l_splits(r + s - t, r, s):
        x_lam, x_mu, x_nu = _restricted(lam, a, l2, l1), _restricted(mu, l2, b, l1), _restricted(nu, a, b, l1)
        theta_sizes = [size for _theta, size in _classes(b)]
        split = 0
        for (_c, size), lam_c, mu_c, nu_c in zip(_classes(l1), x_lam, x_mu, x_nu):
            # mu's rows weighted by the theta class sizes, once per C
            mu_c = [tuple(map(mul, row, theta_sizes)) for row in mu_c]
            for (_tau, tau), lam_row, nu_row in zip(_classes(a), lam_c, nu_c):
                t = 0
                for (_kappa, kappa), x, mu_row in zip(_classes(l2), lam_row, mu_c):
                    if x:
                        t += kappa * x * sum(map(mul, mu_row, nu_row))
                split += size * tau * t
        q, rem = divmod(split, factorial(a) * factorial(b) * factorial(l2) * factorial(l1))
        if rem:
            raise ArithmeticError(f"non-integral class sum for ({lam}, {mu}, {nu}) at split {(l1, l2, a, b)}")
        total += q
    return total


@_memo
def _restricted(outer: tuple, x: int, y: int, c: int) -> tuple:
    """chi^outer restricted to S_x x S_y x S_c as nested tuples [C][sigma][omega]
    over the classes C of S_c, sigma of S_x and omega of S_y, each in the
    order of _classes: entry chi^outer(sigma omega C) of the joined cycle type,
    whose class key is the sum of the keys of sigma, omega and C."""
    n = x + y + c
    chars, index = _chars(outer), _class_index(n)
    keys_sigma, keys_omega, keys_c = (_class_keys(k, n) for k in (x, y, c))
    return tuple(
        tuple(
            tuple(map(chars.__getitem__, map(index.__getitem__, map((key_c + key_sigma).__add__, keys_omega))))
            for key_sigma in keys_sigma
        )
        for key_c in keys_c
    )


def kron_via_closed(lam: Partition, mu: Partition, nu: Partition, n: int) -> int:
    """Kronecker coefficient of the padded triple as the dagger sum of
    kron_via_dagger cut after two terms, gbar(lam, mu, nu) - gbar(lam, mu, nu+),
    nu+ = dagger(pad(nu, n), 1) = (n - |nu| + 1, nu_2, ...); for a two-row or
    hook nu, (n-k, k) or (n-k, 1^k), the source paper's closed formulas.
    FormulaRangeError below n0 = _two_term_floor(lam, mu, nu), from which
    the two terms are g."""
    lam, mu, padded = (_padded(p, n) for p in (lam, mu, nu))
    lam, mu, nu = lam[1:], mu[1:], padded[1:]
    n0 = _two_term_floor(lam, mu, nu)
    if n < n0:
        raise FormulaRangeError(f"the two-term dagger sum needs n >= {n0}, got n={n}")
    return _alternating(lam, mu, islice(_daggers(lam, mu, padded), 2))


def _two_term_floor(lam: tuple, mu: tuple, nu: tuple) -> int:
    """n0 = min(stability bound, |lam| + |mu| + nu_2 - 1) of reduced parts
    (nu_2 = 0 for fewer than two parts): from n0 on the dagger sum of the
    padded triple is its first two terms.
    1. From |lam| + |mu| + nu_2 - 1 on, the third dagger partition has
       n - nu_2 + 2 > |lam| + |mu| boxes, so it and every later term are zero.
    2. From the stability bound on, g = gbar(lam, mu, nu) and gbar(nu+) = 0:
       gbar(lam, mu, rho) != 0 needs |rho| <= |lam| + |mu|, rho_1 <= |lam| + mu_1
       and rho_1 <= |mu| + lam_1 (in the LR sum rho_1 <= alpha_1 + beta_1 + pi_1,
       alpha_1 + pi_1 <= |lam|, beta_1 <= mu_1), and nu+ has n - nu_1 + 1 boxes
       and first row n - |nu| + 1: each term of the bound rules it out.
    Neither step reads the shape of nu.  A two-row or hook nu has nu_2 <= 1,
    so its range starts by |lam| + |mu|; another shape may need a larger n."""
    second = nu[1] if len(nu) > 1 else 0
    return min(_stability_bound(lam, mu, nu), sum(lam) + sum(mu) + second - 1)


def _l_splits(l: int, r: int, s: int):
    """(l1, l2, a, b) with l = l1 + 2*l2, a = r - l1 - l2 >= 0 and
    b = s - l1 - l2 >= 0; nothing when l < 0."""
    if l < 0:
        return
    for l2 in range(l // 2 + 1):
        l1 = l - 2 * l2
        a, b = r - l1 - l2, s - l1 - l2
        if a >= 0 and b >= 0:
            yield l1, l2, a, b

