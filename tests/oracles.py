"""Independent brute-force oracles used only by the tests.

These deliberately take different routes than the library: the LR count here
fills the skew shape one cell at a time along the reverse reading word and
checks the lattice condition on each prefix, where the library adds whole
letters as horizontal strips; the character recursion here computes one
value chi^lam(rho) at a time by moving beads on a list beta-set and reading
the rows back after each move, where the library moves the set bits of an int
bead set and computes chi^lam on whole blocks of classes at once (the strip
signs are checked apart from both by the conjugate twist
chi^lam' = sgn . chi^lam in test_sym_characters); the n-pair check compares raw cell sets; the partition
list here is generated part by part and sorted, where the library reads the
cycle types of its class enumeration.  A joined cycle type is located here by
sorting its parts into a tuple key, where the library adds additive class
keys; restricted_by_sorting is the restricted character table gathered that
way.  The induction multiplicity here sums character products over pairs of
classes, where the library counts LR tableaux.  The diagram composition here runs a union-find on the vertices of
the stacked picture, given as blocks, where the library joins block labels.
The reduced Kronecker coefficient here is the source paper's positive sum of
LR products and Kronecker coefficients, term by term, where the library
contracts it to one sum over classes of character values.  The Gram matrix
here multiplies the Specht form by a permutation matrix for each pair of
half-diagrams, in Fractions, where the library reads each block off the
permuted polytabloids.  A Specht matrix here straightens every permuted
polytabloid sigma . e_t, where the library reads a column off the tableau
sigma t whenever sorting its columns gives a standard tableau.

The references that the library does without live here too: Young diagram
containment, the size of a conjugacy class by the formula
|rho|! / prod k^{m_k} m_k! (the library sizes its classes by a recursion
over the first part), the cycle type of a permutation, and the list of all
(r, m) diagrams, built vertex by vertex through the public constructor,
where the library builds the canonical label tuples of its half-diagrams;
and the factoring of a composed half-diagram into a canonical half-diagram
and a permutation, read off the whole composed diagram, where the library
reads it off one join of the middle row.

The tests' exact linear algebra lives here too, since the library holds no
matrix helper: the matrix product, the transpose and a fraction-free rank.
"""

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from kroncoef.diagram_algebra import SetPartitionDiagram, compose, propagating_count
from kroncoef.lr import lr_coeff3
from kroncoef.partitions import Partition, _classes, partitions_of
from kroncoef.sym_characters import _chars, kron_oracle


def contains(outer: Partition, inner: Partition) -> bool:
    """True if the Young diagram of inner fits inside that of outer."""
    return all(outer.row(i) >= p for i, p in enumerate(inner.parts, 1))


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


def enumerate_diagrams(r: int, m: int) -> list[SetPartitionDiagram]:
    """All (r, m)-partition diagrams: each vertex in turn joins one of the
    blocks so far or opens a new one, and every set of blocks goes through
    the public constructor.  The diagrams come in the order of their
    canonical label tuples."""
    partitions = [[]]
    for v in [*range(1, r + 1), *range(-1, -m - 1, -1)]:
        partitions = [
            [*blocks[:i], [*blocks[i], v], *blocks[i + 1:]] if i < len(blocks) else [*blocks, [v]]
            for blocks in partitions
            for i in range(len(blocks) + 1)
        ]
    return [SetPartitionDiagram(r, m, blocks) for blocks in partitions]


def lr_lattice(lam: Partition, mu: Partition, nu: Partition) -> int:
    """LR coefficient as the number of semistandard fillings of nu/lam with
    content mu whose reverse reading word is a lattice word."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.size + mu.size != nu.size or not contains(nu, lam):
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


def partitions_of_generated(k: int) -> tuple[Partition, ...]:
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
def sorted_positions(n: int) -> dict[tuple, int]:
    """Position of each cycle type of S_n in _classes(n), keyed by its parts
    tuple."""
    return {rho: i for i, (rho, _size) in enumerate(_classes(n))}


def joined_position(n: int, *pieces: tuple) -> int:
    """Position in _classes(n) of the juxtaposition of the cycle types in
    pieces, found by sorting their parts."""
    return sorted_positions(n)[tuple(sorted(sum(pieces, ()), reverse=True))]


def restricted_by_sorting(outer: tuple, x: int, y: int, c: int) -> tuple:
    """chi^outer restricted to S_x x S_y x S_c as nested tuples [C][sigma][omega],
    each joined cycle type sigma omega C located by joined_position."""
    chars, n = _chars(outer), x + y + c
    return tuple(
        tuple(tuple(chars[joined_position(n, sigma, omega, C)] for omega, _ in _classes(y)) for sigma, _ in _classes(x))
        for C, _ in _classes(c)
    )


def induction_mult(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of the outer product piece S(lam) x S(mu) in the
    restriction of S(nu) to the corresponding Young subgroup."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    r1, r2 = lam.size, mu.size
    if nu.size != r1 + r2:
        raise ValueError("induction_mult needs |nu| = |lam| + |mu|")
    nu_chars = _chars(nu.parts)
    total = 0
    for (rho1, s1), c1 in zip(_classes(r1), _chars(lam.parts)):
        if not c1:
            continue
        for (rho2, s2), c2 in zip(_classes(r2), _chars(mu.parts)):
            if not c2:
                continue
            total += s1 * s2 * c1 * c2 * nu_chars[joined_position(r1 + r2, rho1, rho2)]
    q, rem = divmod(total, factorial(r1) * factorial(r2))
    if rem:
        raise ArithmeticError("non-integral induction sum")
    return q


def reduced_kron_lr_sum(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The reduced Kronecker coefficient as the sum of
    c^nu_{alpha beta pi} c^lam_{alpha rho gamma} c^mu_{gamma sigma beta} g_{rho sigma pi}
    over |lam| + |mu| - |nu| = l1 + 2 l2, alpha |- |lam| - l1 - l2,
    beta |- |mu| - l1 - l2, gamma |- l2 and rho, sigma, pi |- l1."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    excess = lam.size + mu.size - nu.size
    total = 0
    for l2 in range(excess // 2 + 1):
        l1 = excess - 2 * l2
        a, b = lam.size - l1 - l2, mu.size - l1 - l2
        if a < 0 or b < 0:
            continue
        for alpha in partitions_of(a):
            for beta in partitions_of(b):
                for pi in partitions_of(l1):
                    c_nu = lr_coeff3(alpha, beta, pi, nu)
                    if not c_nu:
                        continue
                    for gamma in partitions_of(l2):
                        for rho in partitions_of(l1):
                            c_lam = lr_coeff3(alpha, rho, gamma, lam)
                            if not c_lam:
                                continue
                            for sigma in partitions_of(l1):
                                c_mu = lr_coeff3(gamma, sigma, beta, mu)
                                if c_mu:
                                    total += c_nu * c_lam * c_mu * kron_oracle(rho, sigma, pi)
    return total


def compose_union_find(x_blocks, y_blocks, r: int, k: int, m: int) -> tuple[int, str, int]:
    """Stack the (r, k) diagram x over the (k, m) diagram y, both given as
    blocks of vertices (+i on top, -j for j' below), and join vertices by a
    union-find on the r + k + m vertices of the picture.  Returns (t, text,
    propagating): the number of components left inside the middle row, the
    outer blocks in text form (each sorted top-before-bottom, blocks by least
    vertex) and the number of outer blocks meeting both rows."""
    parent: dict = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    def join(block):
        for v in block[1:]:
            parent[find(v)] = find(block[0])

    for b in x_blocks:
        join([("top", v) if v > 0 else ("mid", -v) for v in b])
    for b in y_blocks:
        join([("mid", v) if v > 0 else ("bot", -v) for v in b])
    vertices = [(row, i) for row, size in (("top", r), ("mid", k), ("bot", m)) for i in range(1, size + 1)]
    components: dict = {}
    for v in vertices:
        components.setdefault(find(v), []).append(v)
    # (False, i) is top vertex i and (True, j) bottom vertex j'
    outer = [sorted((row == "bot", i) for row, i in c if row != "mid") for c in components.values()]
    blocks = sorted(b for b in outer if b)
    text = "".join("{" + ",".join(f"{i}'" if below else str(i) for below, i in b) + "}" for b in blocks)
    propagating = sum(1 for b in blocks if not b[0][0] and b[-1][0])
    return len(outer) - len(blocks), text, propagating


def factor_half_diagram(d: SetPartitionDiagram) -> tuple[tuple[int, ...], SetPartitionDiagram]:
    """Write d = (canonical half-diagram) . (permutation): returns (sigma,
    canonical) where sigma sends each bottom vertex k' of d to the 1-based
    index, in least-top-vertex order, of the propagating block holding it;
    this is the convention of permutation_diagram."""
    tops, bottoms = d.labels[:d.r], d.labels[d.r:]
    # the blocks meeting the top row are labelled first, in least-top-vertex order
    top_count = max(tops, default=-1) + 1
    props = sorted(b for b in bottoms if b < top_count)
    if len(set(props)) < len(props):
        raise ValueError("half-diagram propagating block with several bottoms")
    if len(props) < len(bottoms):
        raise ValueError("half-diagram with a bottom-only block")
    index = {b: k for k, b in enumerate(props, 1)}
    return tuple(index[b] for b in bottoms), SetPartitionDiagram._of(d.r, d.m, tops + tuple(props))


def factor_by_compose(x: SetPartitionDiagram, half: SetPartitionDiagram):
    """StandardModule._factor the long way: the whole diagram x over half,
    its propagating count, and factor_half_diagram of it; (t, sigma,
    canonical labels), or None when a propagating block drops."""
    t, z = compose(x, half)
    if propagating_count(z) < half.m:
        return None
    sigma, canonical = factor_half_diagram(z)
    return t, sigma, canonical.labels


def gram_by_products(mod) -> list[list[Fraction]]:
    """The Gram matrix of a standard module with Fraction entries: the pair
    of half-diagrams (i, j) gives delta^t times the Specht form against
    sigma, paired off the polytabloids, where flip(i) over j is delta^t, a
    canonical half-diagram and sigma."""
    specht, sd = mod.specht, mod.specht.dim
    gram = [[Fraction(0)] * mod.dim for _ in range(mod.dim)]
    for i, vi in enumerate(mod.halves):
        for j, vj in enumerate(mod.halves):
            step = factor_by_compose(vi.flip(), vj)
            if step is None:
                continue
            t, sigma, _ = step
            block = form_by_pairing(specht, sigma)
            for a in range(sd):
                for b in range(sd):
                    gram[i * sd + a][j * sd + b] = mod.delta**t * block[a][b]
    return gram


def permuted_polytabloids(model, sigma: tuple[int, ...]) -> list[dict[tuple, int]]:
    """The sigma . e_t of a Specht model, keyed by row indices: entry w of
    sigma . e_t sits in the row of sigma^-1(w)."""
    inverse = sorted(range(model.k), key=sigma.__getitem__)
    return [{tuple(key[i] for i in inverse): c for key, c in vec.items()} for vec in model._keyed]


def matrix_by_straightening(model, sigma: tuple[int, ...]) -> tuple:
    """The matrix of sigma on a Specht model, each column sigma . e_t
    gathered over tabloids and straightened in dominance order."""
    return tuple(zip(*map(model._straighten, permuted_polytabloids(model, sigma))))


def form_by_pairing(model, sigma: tuple[int, ...]) -> tuple:
    """The matrix <e_a, sigma . e_b> of a Specht model: each sigma . e_b
    gathered over tabloids and paired, tabloid by tabloid, with the basis
    vectors that hold that tabloid."""
    holders = defaultdict(list)
    for a, u in enumerate(model._keyed):
        for key, c in u.items():
            holders[key].append((a, c))
    form = [[0] * model.dim for _ in range(model.dim)]
    for b, v in enumerate(permuted_polytabloids(model, sigma)):
        for key, c in v.items():
            for a, d in holders.get(key, ()):
                form[a][b] += d * c
    return tuple(map(tuple, form))


def mat_mul(a, b) -> tuple[tuple, ...]:
    """The matrix product, as a tuple of row tuples."""
    inner, cols = len(b), len(b[0]) if b else 0
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)) for i in range(len(a)))


def transpose(mat) -> tuple[tuple, ...]:
    return tuple(zip(*mat))


def rank(mat) -> int:
    """Rank of a rational matrix: clear each row's denominators, then run
    fraction-free (Bareiss) elimination on the integers."""
    m = []
    for row in mat:
        row = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        m.append([int(x * scale) for x in row])
    rows = len(m)
    cols = len(m[0]) if m else 0
    found, prev = 0, 1
    for c in range(cols):
        pivot = next((i for i in range(found, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[found], m[pivot] = m[pivot], m[found]
        p = m[found][c]
        # every entry below is a minor of the rows and columns pivoted so far,
        # so the division by the previous pivot is exact (Sylvester)
        for i in range(found + 1, rows):
            f = m[i][c]
            m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], m[found])]
        prev = p
        found += 1
    return found
