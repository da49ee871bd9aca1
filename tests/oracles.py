"""Independent brute-force oracles used only by the tests.

These deliberately take different routes than the library: the LR count here
fills the skew shape one cell at a time along the reverse reading word and
checks the lattice condition on each prefix, where the library adds whole
letters as horizontal strips; the character recursion here moves beads on a
beta-set, where the library removes border strips by row arithmetic; the
n-pair check compares raw cell sets.
"""

from functools import lru_cache

from kroncoef.partitions import Partition


def lr_lattice(lam: Partition, mu: Partition, nu: Partition) -> int:
    """LR coefficient as the number of semistandard fillings of nu/lam with
    content mu whose reverse reading word is a lattice word."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.size + mu.size != nu.size or not nu.contains(lam):
        return 0
    cells = []
    for r in range(1, len(nu) + 1):
        row = [(r, c) for c in range(nu.row(r), lam.row(r), -1)]
        cells.extend(row)  # right-to-left within the row: reverse reading word
    labels: dict = {}
    remaining = list(mu.parts)
    counts = [0] * (len(mu) + 1)

    def fill(pos: int) -> int:
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        total = 0
        for a in range(1, len(mu) + 1):
            if remaining[a - 1] == 0:
                continue
            if a >= 2 and counts[a - 1] <= counts[a]:
                continue  # lattice condition on the prefix
            right = labels.get((r, c + 1))
            if right is not None and a > right:
                continue  # weakly increasing along the row (left to right)
            if r > 1 and c > lam.row(r - 1):
                above = labels.get((r - 1, c))
                if above is not None and a <= above:
                    continue  # strictly increasing down columns
            labels[(r, c)] = a
            counts[a] += 1
            remaining[a - 1] -= 1
            total += fill(pos + 1)
            remaining[a - 1] += 1
            counts[a] -= 1
            del labels[(r, c)]
        return total

    return fill(0)


def is_n_pair_bruteforce(mu: Partition, lam: Partition, n: int) -> bool:
    """Definition-chasing n-pair check on explicit cell sets."""
    mu, lam = Partition(mu), Partition(lam)
    cells_mu = {(i, j) for i, p in enumerate(mu.parts, 1) for j in range(1, p + 1)}
    cells_lam = {(i, j) for i, p in enumerate(lam.parts, 1) for j in range(1, p + 1)}
    if not cells_mu < cells_lam:
        return False
    diff = cells_lam - cells_mu
    rows = {i for i, _ in diff}
    if len(rows) != 1:
        return False
    last = max(j for _, j in diff)
    (row,) = rows
    return last - row == n - mu.size


@lru_cache(maxsize=None)
def char_beta(lam: tuple, rho: tuple) -> int:
    """chi^lam(rho) by the Murnaghan-Nakayama rule on beta-sets: a border
    strip of length t is a bead moved t places down to a free position, with
    the sign of the number of beads it passes."""
    if not lam:
        return 1
    t, rest = rho[0], rho[1:]
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        newbeta = sorted((c for c in beta if c != b), reverse=True)
        newbeta.append(nb)
        newbeta.sort(reverse=True)
        newlam = tuple(c - (m - 1 - i) for i, c in enumerate(newbeta))
        while newlam and newlam[-1] == 0:
            newlam = newlam[:-1]
        total += (-1) ** height * char_beta(newlam, rest)
    return total
