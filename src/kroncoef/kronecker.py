"""Kronecker and reduced Kronecker coefficients by several independent routes.

Routes implemented side by side so they can be cross-checked:

* the character oracle on first-row-padded triples,
* an alternating sum of reduced coefficients over the n-pair block chain,
* an alternating sum over the dagger partitions of the padded third factor,
* a positive quadruple sum of Littlewood-Richardson products for the reduced
  coefficients themselves,
* closed formulas for two-row and hook third factors.

Arguments may be given either as reduced partitions (padded internally with a
first row of n - |.|) or as partitions of n; a partition whose size equals n
is taken to be already padded, and the two readings never overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .lr import lr_coeff3
from .partitions import (
    Partition,
    block_chain,
    conjugate,
    dagger,
    pad,
    partitions_of,
)
from .sym_characters import kron_oracle


class FormulaRangeError(ValueError):
    """A closed formula was called outside its validity range."""


def stability_bound(lam: Partition, mu: Partition, nu: Partition) -> int:
    """A value of n from which the padded Kronecker coefficient has reached
    its stable limit (minimum over the three symmetric size+first-row
    combinations)."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    return min(
        lam.size + mu.size + nu.row(1),
        lam.size + nu.size + mu.row(1),
        nu.size + mu.size + lam.row(1),
    )


def reduce_mod_n(p: Partition, n: int) -> Partition:
    """Interpret p as either a partition of n (first row stripped) or an
    already reduced partition (padding must exist); return the reduced form."""
    p = Partition(p)
    if p.size == n:
        return Partition(p.parts[1:])
    pad(p, n)
    return p


def reduced_kron(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Reduced Kronecker coefficient: the stable value of the padded
    Kronecker coefficient, evaluated at the first n where all three paddings
    exist and stability has set in."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    return _reduced_kron(lam.parts, mu.parts, nu.parts)


@lru_cache(maxsize=None)
def _reduced_kron(lam: tuple, mu: tuple, nu: tuple) -> int:
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if nu.size > lam.size + mu.size:
        return 0
    n = max(
        stability_bound(lam, mu, nu),
        lam.size + lam.row(1),
        mu.size + mu.row(1),
        nu.size + nu.row(1),
        1,
    )
    return kron_oracle(
        pad(lam, n).to_partition(),
        pad(mu, n).to_partition(),
        pad(nu, n).to_partition(),
    )


def kron_via_oracle(lam: Partition, mu: Partition, nu: Partition, n: int) -> int:
    """Kronecker coefficient of the padded triple, straight from characters."""
    lam, mu, nu = (reduce_mod_n(p, n) for p in (lam, mu, nu))
    return kron_oracle(
        pad(lam, n).to_partition(),
        pad(mu, n).to_partition(),
        pad(nu, n).to_partition(),
    )


def kron_via_blocks(lam: Partition, mu: Partition, nu: Partition, n: int) -> int:
    """Kronecker coefficient as an alternating sum of reduced coefficients
    over the n-pair block chain of nu, truncated at degree |lam| + |mu|."""
    lam, mu, nu = (reduce_mod_n(p, n) for p in (lam, mu, nu))
    r, s = lam.size, mu.size
    if nu.size > r + s:
        return 0
    chain = block_chain(nu, n, r + s)
    total = 0
    for i, entry in enumerate(chain):
        total += (-1) ** i * reduced_kron(lam, mu, entry)
    return total


def kron_via_dagger(lam: Partition, mu: Partition, nu: Partition, n: int) -> int:
    """Kronecker coefficient as an alternating sum of reduced coefficients at
    the dagger partitions of the padded nu; the number of terms is the product
    of the padded lengths of the first two factors."""
    lam, mu, nu = (reduce_mod_n(p, n) for p in (lam, mu, nu))
    nu_padded = pad(nu, n)
    count = pad(lam, n).length * pad(mu, n).length
    total = 0
    for i in range(count):
        total += (-1) ** i * reduced_kron(lam, mu, dagger(nu_padded, i))
    return total


def reduced_kron_via_lr(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Reduced Kronecker coefficient as a positive quadruple sum of
    Littlewood-Richardson products and small Kronecker coefficients."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    total = 0
    for l1, l2, a, b in _l_splits(lam.size + mu.size - nu.size, lam.size, mu.size):
        for alpha in partitions_of(a):
            for beta in partitions_of(b):
                for pi_ in partitions_of(l1):
                    c_nu = lr_coeff3(alpha, beta, pi_, nu)
                    if not c_nu:
                        continue
                    for gamma in partitions_of(l2):
                        for rho in partitions_of(l1):
                            c_lam = lr_coeff3(alpha, rho, gamma, lam)
                            if not c_lam:
                                continue
                            for sigma in partitions_of(l1):
                                c_mu = lr_coeff3(gamma, sigma, beta, mu)
                                if not c_mu:
                                    continue
                                total += c_nu * c_lam * c_mu * kron_oracle(rho, sigma, pi_)
    return total


def kron_two_row(lam: Partition, mu: Partition, k: int, n: int) -> int:
    """Closed formula for the Kronecker coefficient whose third factor is the
    two-row partition (n-k, k)."""
    lam, mu = Partition(lam), Partition(mu)
    if n - k < k:
        raise FormulaRangeError(f"(n-k,k) needs n >= 2k, got n={n}, k={k}")
    bound = min(lam.size + mu.row(1) + k, mu.size + lam.row(1) + k)
    if n < bound:
        raise FormulaRangeError(f"two-row formula needs n >= {bound}, got {n}")
    return _strip_sum(lam, mu, k, hook=False)


def kron_hook(lam: Partition, mu: Partition, k: int, n: int) -> int:
    """Closed formula for the Kronecker coefficient whose third factor is the
    hook partition (n-k, 1^k)."""
    lam, mu = Partition(lam), Partition(mu)
    if n - k < 1:
        raise FormulaRangeError(f"(n-k,1^k) needs n >= k+1, got n={n}, k={k}")
    bound = min(lam.size + mu.size + 1, mu.size + lam.row(1) + k, lam.size + mu.row(1) + k)
    if n < bound:
        raise FormulaRangeError(f"hook formula needs n >= {bound}, got {n}")
    return _strip_sum(lam, mu, k, hook=True)


def _strip_sum(lam: Partition, mu: Partition, k: int, hook: bool) -> int:
    """Sum of c(strip_a, sigma, gamma; lam) c(gamma, sigma, strip_b; mu) over
    the splits of |lam| + |mu| - k.  The strips are rows for the two-row
    formula; the hook formula conjugates both strips and the middle sigma."""
    flip = conjugate if hook else Partition
    total = 0
    for l1, l2, a, b in _l_splits(lam.size + mu.size - k, lam.size, mu.size):
        for sigma in partitions_of(l1):
            for gamma in partitions_of(l2):
                c1 = lr_coeff3(flip(Partition([a])), sigma, gamma, lam)
                if c1:
                    total += c1 * lr_coeff3(gamma, flip(sigma), flip(Partition([b])), mu)
    return total


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


# ---------------------------------------------------------------------------
# Route-agreement sweep machinery (shared by the CLI and the acceptance suite)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepBounds:
    """Bounds for the verification sweeps.

    max_weight caps |lam| and |mu| for the route-agreement sweep, extra_n is
    how far past the stability bound to push n, dim_max caps r+s for the
    standard-module dimension identity, and stab_max_n is the last n of the
    tensor-square stabilization check (0 disables it).
    """

    max_weight: int = 4
    extra_n: int = 3
    dim_max: int = 6
    stab_max_n: int = 8


def valid_n_range(lam: Partition, mu: Partition, nu: Partition, extra_n: int) -> range:
    """All n from the first padding-valid value to stability_bound + extra_n."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    n_min = max(
        lam.size + lam.row(1),
        mu.size + mu.row(1),
        nu.size + nu.row(1),
        1,
    )
    return range(n_min, stability_bound(lam, mu, nu) + extra_n + 1)


def route_agreement_cases(bounds: SweepBounds):
    """Yield (lam, mu, nu, n) quadruples for the triple-route comparison."""
    if bounds.max_weight < 0:
        return
    weights = range(bounds.max_weight + 1)
    small = [p for w in weights for p in partitions_of(w)]
    for lam in small:
        for mu in small:
            for w in range(lam.size + mu.size + 1):
                for nu in partitions_of(w):
                    for n in valid_n_range(lam, mu, nu, bounds.extra_n):
                        yield lam, mu, nu, n


def check_routes(lam: Partition, mu: Partition, nu: Partition, n: int) -> dict:
    """Compute the Kronecker coefficient by all three routes."""
    o = kron_via_oracle(lam, mu, nu, n)
    b = kron_via_blocks(lam, mu, nu, n)
    d = kron_via_dagger(lam, mu, nu, n)
    return {"oracle": o, "blocks": b, "dagger": d, "ok": o == b == d}


def check_reduced(lam: Partition, mu: Partition, nu: Partition) -> dict:
    """Compare the stable-limit and LR-expansion reduced coefficients."""
    a = reduced_kron(lam, mu, nu)
    b = reduced_kron_via_lr(lam, mu, nu)
    return {"stable": a, "lr": b, "ok": a == b}


def tensor_square_decomposition(n: int) -> dict[Partition, int]:
    """Nonzero multiplicities in the tensor square of the Specht module
    labelled (n-1, 1), straight from the character oracle."""
    if n < 2:
        raise ValueError("tensor square of (n-1,1) needs n >= 2")
    hook = Partition([n - 1, 1])
    out = {}
    for nu in partitions_of(n):
        g = kron_oracle(hook, hook, nu)
        if g:
            out[nu] = g
    return out


def expected_tensor_square(n: int) -> dict[Partition, int]:
    """The stabilized decomposition: four constituents once n reaches 4, with
    the shorter lists at n = 2 and n = 3."""
    if n == 2:
        return {Partition([2]): 1}
    if n == 3:
        return {Partition([3]): 1, Partition([2, 1]): 1, Partition([1, 1, 1]): 1}
    return {
        Partition([n]): 1,
        Partition([n - 1, 1]): 1,
        Partition([n - 2, 1, 1]): 1,
        Partition([n - 2, 2]): 1,
    }
