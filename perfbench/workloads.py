"""The four workloads: seeded inputs, the timed operations and their checks.

Each workload is a class with three methods:

* ``make_ops(seed)`` builds the list of operations from the seed alone.  It
  runs in the set-up phase, after ``import kroncoef``.
* ``run(op)`` performs one operation through the library's public API (or
  the ``kroncoef`` command) and returns its raw result.  Only this is timed.
* ``check(op, result)`` returns ``None`` when the result is exactly right
  and a one-line reason otherwise.  Checks run after the timed loop.

Library functions are always looked up as module attributes at call time,
so that the tracer's rebinding sees every call.  Partitions are plain tuples
inside the benchmark and become ``Partition`` objects only in ``make_ops``.
"""

from __future__ import annotations

import gzip
import json
import os
import random
import subprocess
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_FILE = os.path.join(HERE, "route_sweep_expected.json.gz")


# ---------------------------------------------------------------------------
# Small exact helpers owned by the benchmark (independent of the library)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def parts_of(k: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of k as tuples, sorted."""
    out: list[tuple[int, ...]] = []

    def gen(total: int, bound: int, prefix: tuple[int, ...]) -> None:
        if total == 0:
            out.append(prefix)
            return
        for part in range(min(total, bound), 0, -1):
            gen(total - part, part, prefix + (part,))

    gen(k, k, ())
    return tuple(sorted(out))


def parts_up_to(k: int) -> list[tuple[int, ...]]:
    return [p for w in range(k + 1) for p in parts_of(w)]


def row1(p: tuple[int, ...]) -> int:
    return p[0] if p else 0


def fmt(p) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def hook_dim(nu: tuple[int, ...]) -> int:
    """Number of standard tableaux of shape nu (hook length formula)."""
    if not nu:
        return 1
    conj = [sum(1 for p in nu if p > j) for j in range(nu[0])]
    prod = 1
    for i, p in enumerate(nu):
        for j in range(p):
            prod *= p - j + conj[j] - i - 1
    return factorial(sum(nu)) // prod


@lru_cache(maxsize=None)
def stirling2(n: int, b: int) -> int:
    if n == 0:
        return 1 if b == 0 else 0
    if b == 0:
        return 0
    return b * stirling2(n - 1, b) + stirling2(n - 1, b - 1)


def dim_std(r: int, nu: tuple[int, ...]) -> int:
    """Dimension of the degree-r standard module labelled nu: set partitions
    of r top vertices with |nu| marked propagating blocks, times f^nu."""
    m = sum(nu)
    if m > r:
        return 0
    return sum(stirling2(r, b) * comb(b, m) for b in range(m, r + 1)) * hook_dim(nu)


def mat_mul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)] for i in range(len(a))]


def identity(k: int):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def random_diagram_blocks(rng: random.Random, r: int) -> list[list[int]]:
    """A random set partition of top vertices 1..r and bottom -1..-r."""
    labels: list[int] = []
    top = 0
    for _ in range(2 * r):
        label = rng.randint(0, top)
        labels.append(label)
        top = max(top, label + 1)
    vertices = list(range(1, r + 1)) + [-j for j in range(1, r + 1)]
    blocks: dict[int, list[int]] = {}
    for v, label in zip(vertices, labels):
        blocks.setdefault(label, []).append(v)
    return list(blocks.values())


def reference_compose(x_blocks, y_blocks):
    """Stack x over y by relabelling and merging; returns (t, set of blocks)."""
    parent: dict = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def join(block):
        head = find(block[0])
        for v in block[1:]:
            parent[find(v)] = head

    join_x = [[("top", v) if v > 0 else ("mid", -v) for v in b] for b in x_blocks]
    join_y = [[("mid", v) if v > 0 else ("bot", -v) for v in b] for b in y_blocks]
    for b in join_x + join_y:
        join(b)
    groups: dict = {}
    for v in list(parent):
        groups.setdefault(find(v), []).append(v)
    t = 0
    out = set()
    for members in groups.values():
        outer = [i if layer == "top" else -i for layer, i in members if layer != "mid"]
        if outer:
            out.add(frozenset(outer))
        else:
            t += 1
    return t, out


def diagram_block_set(d) -> set:
    return {frozenset(b) for b in d.blocks}


# ---------------------------------------------------------------------------
# route_sweep: the default `kroncoef sweep` case set, driven in-process
# ---------------------------------------------------------------------------

DEFAULT_SWEEP = {"max_weight": 4, "extra_n": 3, "dim_max": 6, "stab_max_n": 8}
TINY_SWEEP = {"max_weight": 1, "extra_n": 3, "dim_max": 3, "stab_max_n": 3}


def route_cases(max_weight: int, extra_n: int):
    """(lam, mu, nu, n) in the default sweep: |lam|, |mu| <= max_weight,
    |nu| <= |lam| + |mu|, n from the first valid padding to the stability
    bound plus extra_n."""
    small = parts_up_to(max_weight)
    for lam in small:
        for mu in small:
            a, b = sum(lam), sum(mu)
            for w in range(a + b + 1):
                for nu in parts_of(w):
                    n_min = max(a + row1(lam), b + row1(mu), w + row1(nu), 1)
                    bound = min(a + b + row1(nu), a + w + row1(mu), w + b + row1(lam))
                    for n in range(n_min, bound + extra_n + 1):
                        yield lam, mu, nu, n


def dim_identity_cases(dim_max: int):
    for m in range(2, dim_max + 1):
        for r in range(1, m):
            for nu in parts_up_to(m):
                yield nu, r, m - r


def expected_tensor_square(n: int) -> dict[tuple[int, ...], int]:
    if n == 2:
        return {(2,): 1}
    if n == 3:
        return {(3,): 1, (2, 1): 1, (1, 1, 1): 1}
    return {(n,): 1, (n - 1, 1): 1, (n - 2, 2): 1, (n - 2, 1, 1): 1}


def route_key(kind: str, *items) -> str:
    return kind + ":" + ";".join(str(x) if isinstance(x, int) else fmt(x) for x in items)


@lru_cache(maxsize=None)
def load_expected() -> dict[str, int]:
    with gzip.open(EXPECTED_FILE, "rt") as fh:
        return json.load(fh)


class RouteSweep:
    """All rows of the default sweep; one operation is one checked row."""

    def __init__(self, size: str = "full"):
        self.bounds = DEFAULT_SWEEP if size == "full" else TINY_SWEEP

    def case_keys(self):
        """(kind, args) for every row, in the sweep's kind order."""
        b = self.bounds
        routes = list(route_cases(b["max_weight"], b["extra_n"]))
        seen = set()
        reduced = []
        for lam, mu, nu, _n in routes:
            if (lam, mu, nu) not in seen:
                seen.add((lam, mu, nu))
                reduced.append((lam, mu, nu))
        stab = [(n,) for n in range(2, b["stab_max_n"] + 1)]
        dims = list(dim_identity_cases(b["dim_max"]))
        return [("kron_routes", routes), ("reduced_routes", reduced), ("stabilization", stab), ("dim_identity", dims)]

    def make_ops(self, seed: int):
        from kroncoef import Partition

        rng = random.Random(seed)
        memo: dict = {}

        def P(p):
            obj = memo.get(p)
            if obj is None:
                obj = memo[p] = Partition(p)
            return obj

        ops = []
        for kind, cases in self.case_keys():
            cases = list(cases)
            rng.shuffle(cases)
            for case in cases:
                key = route_key(kind, *case)
                if kind == "stabilization":
                    args = case
                elif kind == "dim_identity":
                    args = (P(case[0]), case[1], case[2])
                else:
                    args = tuple(P(x) if isinstance(x, tuple) else x for x in case)
                ops.append((kind, key, case, args))
        return ops

    @staticmethod
    def kind(op) -> str:
        return op[0]

    def run(self, op):
        import kroncoef.diagram_algebra as da
        import kroncoef.kronecker as kr
        import kroncoef.partitions as pt
        import kroncoef.sym_characters as sc

        kind, _key, _case, args = op
        if kind == "kron_routes":
            return (kr.kron_via_oracle(*args), kr.kron_via_blocks(*args), kr.kron_via_dagger(*args))
        if kind == "reduced_routes":
            return (kr.reduced_kron(*args), kr.reduced_kron_via_lr(*args))
        if kind == "stabilization":
            (n,) = args
            hook = pt.Partition([n - 1, 1])
            out = {}
            for nu in pt.partitions_of(n):
                g = sc.kron_oracle(hook, hook, nu)
                if g:
                    out[tuple(nu)] = g
            return out
        nu, r, s = args
        lhs = da.dim_standard(r + s, nu)
        rhs = 0
        for lam in pt.partitions_up_to(r):
            dl = da.dim_standard(r, lam)
            for mu in pt.partitions_up_to(s):
                c = da.restrict_multiplicity(nu, r, s, lam, mu)
                if c:
                    rhs += c * dl * da.dim_standard(s, mu)
        return (lhs, rhs)

    def check(self, op, result):
        kind, key, case, _args = op
        if kind == "stabilization":
            want = expected_tensor_square(case[0])
            return None if result == want else f"{key}: got {result}, want {want}"
        expected = load_expected().get(key)
        if expected is None:
            return f"{key}: no recorded value"
        values = tuple(result)
        if any(v != expected for v in values):
            return f"{key}: got {values}, recorded {expected}"
        return None


def record_expected(path: str = EXPECTED_FILE) -> int:
    """Write the values of every default-sweep row, computed by the library
    in this checkout, to the recorded-values file.  Returns the row count."""
    sweep = RouteSweep("full")
    values = {}
    for op in sweep.make_ops(0):
        kind, key = op[0], op[1]
        if kind == "stabilization":
            continue
        result = sweep.run(op)
        if len(set(result)) != 1:
            raise SystemExit(f"routes disagree at {key}: {result}")
        values[key] = result[0]
    with gzip.open(path, "wt") as fh:
        json.dump(values, fh, sort_keys=True, separators=(",", ":"))
    return len(values)


# ---------------------------------------------------------------------------
# reduced_large: reduced coefficients at weight 10-12 by both routes
# ---------------------------------------------------------------------------

# (|lam|, |mu|, |nu|) of each operation.  The triples are one sample drawn
# with SAMPLE_SEED and run in this order whatever the run seed: an operation
# costs from 0.02 to 3 s and fills caches that later ones reuse, so a sample
# redrawn, reordered or with lam and mu swapped per seed would give runs with
# different seeds different amounts of work.
LARGE_CELLS = [
    (a, b, c)
    for a, b in ((10, 10), (10, 11), (11, 11), (10, 12), (11, 12), (12, 12))
    for c in (2, 5, 8, 10, 12)
]
TINY_CELLS = [(3, 3, 2), (3, 4, 4), (4, 4, 6)]
SAMPLE_SEED = 1210


class ReducedLarge:
    def __init__(self, size: str = "full"):
        cells = LARGE_CELLS if size == "full" else TINY_CELLS
        pick = random.Random(SAMPLE_SEED)
        self.triples = [(pick.choice(parts_of(a)), pick.choice(parts_of(b)), pick.choice(parts_of(c))) for a, b, c in cells]

    def make_ops(self, seed: int):
        from kroncoef import Partition

        return [
            (f"{fmt(lam)} {fmt(mu)} {fmt(nu)}", (Partition(lam), Partition(mu), Partition(nu)))
            for lam, mu, nu in self.triples
        ]

    @staticmethod
    def kind(op) -> str:
        return "reduced"

    def run(self, op):
        import kroncoef.kronecker as kr

        args = op[1]
        return (kr.reduced_kron(*args), kr.reduced_kron_via_lr(*args))

    def check(self, op, result):
        stable, via_lr = result
        return None if stable == via_lr else f"{op[0]}: stable={stable} lr={via_lr}"


# ---------------------------------------------------------------------------
# module_calculus: Specht models, standard modules, diagrams
# ---------------------------------------------------------------------------


# Specht builds stop at |nu| = 6: the |nu| = 7 builds took about 6 s of a 7 s
# pass, which left room for only a few passes in a run, too few to steady the
# tail latency.
FULL_CALCULUS = {
    "specht_max": 6,
    "action_r": (3, 4),
    "action_rounds": 2,
    "restrict_degree": 7,
    "compose_r": (4, 5, 6),
    "compose_batches": 10,
    "compose_batch": 40,
}
TINY_CALCULUS = {
    "specht_max": 3,
    "action_r": (2,),
    "action_rounds": 1,
    "restrict_degree": 3,
    "compose_r": (2, 3),
    "compose_batches": 1,
    "compose_batch": 5,
}
DELTAS = (Fraction(2), Fraction(3), Fraction(5), Fraction(1, 2), Fraction(-3, 2))


class ModuleCalculus:
    def __init__(self, size: str = "full"):
        self.cfg = FULL_CALCULUS if size == "full" else TINY_CALCULUS

    def make_ops(self, seed: int):
        from kroncoef import Partition, SetPartitionDiagram

        cfg = self.cfg
        rng = random.Random(seed)
        # cold Specht builds first, before anything else can cache them
        specht = [("specht", nu, Partition(nu)) for nu in parts_up_to(cfg["specht_max"])]

        rest = []
        # one action product per degree and label in each round, so every
        # seed builds the same modules; the seed picks delta and the diagrams
        for _ in range(cfg["action_rounds"]):
            for r in cfg["action_r"]:
                for nu in parts_up_to(r):
                    delta = rng.choice(DELTAS)
                    x, y = random_diagram_blocks(rng, r), random_diagram_blocks(rng, r)
                    args = (r, Partition(nu), delta, SetPartitionDiagram(r, r, x), SetPartitionDiagram(r, r, y))
                    rest.append(("action", (r, nu, delta), args))

        m = cfg["restrict_degree"]
        rest.extend(("restrict", (nu, r, m - r), (Partition(nu), r, m - r)) for nu in parts_up_to(m) for r in range(1, m))

        for r in cfg["compose_r"]:
            for _ in range(cfg["compose_batches"]):
                pairs = [(random_diagram_blocks(rng, r), random_diagram_blocks(rng, r)) for _ in range(cfg["compose_batch"])]
                diagrams = [(SetPartitionDiagram(r, r, x), SetPartitionDiagram(r, r, y)) for x, y in pairs]
                rest.append(("compose", (r, pairs), diagrams))

        # everything after the Specht builds interleaved, so that each kind's
        # latencies spread over the whole pass and not over one short stretch
        rng.shuffle(specht)
        rng.shuffle(rest)
        return specht + rest

    @staticmethod
    def kind(op) -> str:
        return op[0]

    def run(self, op):
        import kroncoef.diagram_algebra as da
        import kroncoef.sym_characters as sc

        kind, _case, args = op
        if kind == "specht":
            return sc.specht_model(args)
        if kind == "action":
            r, nu, delta, x, y = args
            module = da.standard_module(r, nu, delta)
            xy = da.AlgebraElement.from_diagram(x, delta) * da.AlgebraElement.from_diagram(y, delta)
            return module.action_matrix(x), module.action_matrix(y), module.action_matrix(xy)
        if kind == "restrict":
            return da.restriction_table(*args)
        return [da.compose(x, y) for x, y in args]

    def check(self, op, result):
        kind, case, _args = op
        if kind == "specht":
            return check_specht(case, result)
        if kind == "action":
            ax, ay, axy = result
            ok = mat_mul(ax, ay) == [list(row) for row in axy]
            return None if ok else f"action r={case[0]} nu={fmt(case[1])} delta={case[2]}: A(X)A(Y) != A(XY)"
        if kind == "restrict":
            nu, r, s = case
            got = sum(c * dim_std(r, tuple(lam)) * dim_std(s, tuple(mu)) for (lam, mu), c in result.items())
            want = dim_std(r + s, nu)
            return None if got == want else f"restrict {fmt(nu)} r={r} s={s}: filtration {got} != dim {want}"
        r, pairs = case
        for (x, y), (t, z) in zip(pairs, result):
            want_t, want_blocks = reference_compose(x, y)
            if t != want_t or diagram_block_set(z) != want_blocks:
                return f"compose r={r}: {x} over {y} gave t={t} {z}"
        return None if len(result) == len(pairs) else f"compose r={r}: {len(result)} results for {len(pairs)} pairs"


def check_specht(nu: tuple[int, ...], model) -> str | None:
    """Dimension by hook lengths, and the Coxeter relations of the generators."""
    k, d = sum(nu), hook_dim(nu)
    gens = [[list(row) for row in g] for g in model.generators]
    if model.dim != d or len(gens) != max(k - 1, 0):
        return f"specht {fmt(nu)}: dim {model.dim} with {len(gens)} generators, want {d} and {max(k - 1, 0)}"
    one = identity(d)
    for i, s in enumerate(gens):
        if mat_mul(s, s) != one:
            return f"specht {fmt(nu)}: s{i + 1}^2 != 1"
        for j in range(i + 1, len(gens)):
            st = mat_mul(s, gens[j])
            power = 3 if j == i + 1 else 2
            acc = st
            for _ in range(power - 1):
                acc = mat_mul(acc, st)
            if acc != one:
                return f"specht {fmt(nu)}: (s{i + 1} s{j + 1})^{power} != 1"
    return None


# ---------------------------------------------------------------------------
# cli_cold: one `kroncoef` process per query
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("kron", "rkron", "lr", "restrict", "table")
# Stratum k of each command is used in exactly one round, so every seed asks
# queries of the same sizes; the seed picks the shapes and the round order.
CLI_SIZES = ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (3, 4), (4, 4), (2, 1), (3, 2))


def cli_args(rng: random.Random, command: str, k: int) -> list[str]:
    """Arguments of one query of the given command in stratum k (0-11)."""
    a, b = CLI_SIZES[k]
    lam, mu = rng.choice(parts_of(a)), rng.choice(parts_of(b))
    if command == "kron":
        while True:
            nu = rng.choice(parts_up_to(a + b))
            w = sum(nu)
            n_min = max(a + row1(lam), b + row1(mu), w + row1(nu), 1)
            n_max = min(16, min(a + b + row1(nu), a + w + row1(mu), w + b + row1(lam)) + 3)
            if n_min <= n_max:
                return ["kron", fmt(lam), fmt(mu), fmt(nu), "--n", str(rng.randint(n_min, n_max))]
    if command == "rkron":
        return ["rkron", fmt(lam), fmt(mu), fmt(rng.choice(parts_up_to(a + b)))]
    if command == "lr":
        lam = rng.choice(parts_of(a + 1))
        return ["lr", fmt(lam), fmt(mu), fmt(rng.choice(parts_of(a + 1 + b)))]
    if command == "restrict":
        nu = rng.choice(parts_of(k % 4))
        m = rng.randint(max(sum(nu), 2), 4)
        r = rng.randint(1, m - 1)
        return ["restrict", fmt(nu), "--r", str(r), "--s", str(m - r)]
    return ["table", "--n", str(k + 1)]


def parse_partition(text: str):
    from kroncoef import Partition

    return Partition.parse(text)


class CliCold:
    """Rounds of one query per command, in seeded order, each query a fresh
    process.  ``command`` is the argv prefix that starts the CLI."""

    def __init__(self, size: str = "full"):
        self.rounds = 12 if size == "full" else 1
        self.command: list[str] = []
        self.env: dict[str, str] = dict(os.environ)
        self.trace_sink: list[dict] | None = None

    def make_ops(self, seed: int):
        rng = random.Random(seed)
        strata = {c: rng.sample(range(len(CLI_SIZES)), self.rounds) for c in CLI_COMMANDS}
        ops = []
        for i in range(self.rounds):
            commands = list(CLI_COMMANDS)
            rng.shuffle(commands)
            ops.extend(cli_args(rng, c, strata[c][i]) + ["--format", "json"] for c in commands)
        return ops

    @staticmethod
    def kind(op) -> str:
        return op[0]

    def run(self, op):
        proc = subprocess.run(self.command + op, env=self.env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def collect_trace(self, result) -> None:
        """Take the trace a traced CLI child wrote as the last stderr line."""
        from tracer import TRACE_PREFIX

        lines = result[2].splitlines()
        if lines and lines[-1].startswith(TRACE_PREFIX):
            self.trace_sink.append(json.loads(lines[-1][len(TRACE_PREFIX):]))

    def check(self, op, result):
        code, out, _err = result
        name = " ".join(op[:-2])
        if code != 0:
            return f"{name}: exit status {code}"
        try:
            if op[0] == "table":
                got = parse_table(out)
            else:
                got = [json.loads(line) for line in out.splitlines() if line.strip()]
        except ValueError as exc:
            return f"{name}: unparseable output ({exc})"
        want = cli_expected(op)
        if op[0] in ("kron", "rkron", "lr"):
            if len(got) != 1 or got[0].get("value") != want:
                return f"{name}: got {got}, want value {want}"
            return None
        if op[0] == "restrict":
            got = {(row["lambda"], row["mu"]): int(row["multiplicity"]) for row in got}
        return None if got == want else f"{name}: got {got}, want {want}"


def option(op: list[str], flag: str) -> int:
    return int(op[op.index(flag) + 1])


def cli_expected(op: list[str]):
    """The value the in-process oracle gives for one CLI query."""
    import kroncoef.diagram_algebra as da
    import kroncoef.kronecker as kr
    import kroncoef.lr as lr
    import kroncoef.sym_characters as sc

    command = op[0]
    if command == "kron":
        lam, mu, nu = (parse_partition(t) for t in op[1:4])
        return kr.kron_via_oracle(lam, mu, nu, option(op, "--n"))
    if command == "rkron":
        return kr.reduced_kron(*(parse_partition(t) for t in op[1:4]))
    if command == "lr":
        return lr.lr_coeff(*(parse_partition(t) for t in op[1:4]))
    if command == "restrict":
        table = da.restriction_table(parse_partition(op[1]), option(op, "--r"), option(op, "--s"))
        return {(str(lam), str(mu)): c for (lam, mu), c in table.items()}
    n = option(op, "--n")
    return {
        (fmt(lam), fmt(rho)): sc.character(lam, rho)
        for lam in parts_of(n)
        for rho in parts_of(n)
    }


def parse_table(text: str) -> dict:
    lines = text.splitlines()
    header = lines[0].split("\t")[1:]
    out = {}
    for line in lines[1:]:
        cells = line.split("\t")
        if len(cells) != len(header) + 1:
            raise ValueError(f"ragged row {line!r}")
        for rho, value in zip(header, cells[1:]):
            out[(cells[0], rho)] = int(value)
    return out


WORKLOADS = {
    "route_sweep": RouteSweep,
    "reduced_large": ReducedLarge,
    "module_calculus": ModuleCalculus,
    "cli_cold": CliCold,
}
