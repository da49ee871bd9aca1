"""Command line front end: single coefficients, chains, restriction tables,
diagram arithmetic, and batch verification sweeps.  route_values lists the
values of one route row, the oracle, blocks and dagger routes and gbar, which
kron --route all and the sweep both check.

Partitions are written in bracket form ([4,1], [] for the empty partition),
diagrams in block form ({1,2'}{2,1'}).  Output formats: human (default),
tsv (tab separated with a header row), json (one object per line).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

# each command imports the modules it calls, so that a process loads only those
from .partitions import Partition, _partition_count, _reduce, block_chain, dagger, pad, partitions_up_to


def _emit_table(fmt: str, command: str, columns: list[str], rows: list[tuple]) -> None:
    if fmt == "json":
        for row in rows:
            print(json.dumps({"command": command, **dict(zip(columns, map(str, row)))}))
    else:
        print("\t".join(columns))
        for row in rows:
            print("\t".join(str(v) for v in row))


# the oracle route sums over the p(n) classes of S_n; this admits n <= 45
# (about 1 s and 165 MiB as a process), where n = 46 takes 195 MiB
ORACLE_MAX_CLASSES = 10**5


def _refuse_past_oracle_cap(n: int, route: str, alternative: str) -> None:
    if _first_past(n, ORACLE_MAX_CLASSES, lambda c: c[-1]) is not None:
        raise ValueError(f"{route} sums over more than {ORACLE_MAX_CLASSES} classes; use {alternative}")


def _agreement(values: dict) -> tuple[str, bool]:
    """The values as k=v pairs, and whether they are all one value."""
    return " ".join(f"{k}={v}" for k, v in values.items()), len(set(values.values())) == 1


def _emit_agreed(fmt: str, command: str, inputs: dict, route: str, routes: dict, start: float) -> int:
    """Print the one value of the routes, labelled route, or name them and
    fail: the one output of the value commands, kron, rkron, lr and dagger."""
    ms = (time.perf_counter() - start) * 1000
    detail, agreed = _agreement(routes)
    if not agreed:
        print(f"error: route disagreement: {detail}", file=sys.stderr)
        return 1
    value = next(iter(routes.values()))
    if fmt == "json":
        print(json.dumps({"command": command, **inputs, "route": route, "value": value, "ms": round(ms, 3)}))
    elif fmt == "tsv":
        print("\t".join([*inputs, "route", "value"]))
        print("\t".join(map(str, [*inputs.values(), route, value])))
    else:
        print(value)
    return 0


# the routes of a route row, which kron --route all runs; --route R runs
# kronecker.kron_via_R, closed included, which no row reads
KRON_ROUTES = ("oracle", "blocks", "dagger")


def route_values(lam: Partition, mu: Partition, nu: Partition, n: int) -> dict:
    """The route values of (lam, mu, nu) at n, which must all be one: every
    route of KRON_ROUTES, in that order, and from the stability bound on
    the reduced coefficient gbar, from the kernel behind reduced_kron_via_lr."""
    from . import kronecker as kr

    values = {route: getattr(kr, f"kron_via_{route}")(lam, mu, nu, n) for route in KRON_ROUTES}
    parts = tuple(_reduce(p, n) for p in (lam, mu, nu))
    if n >= kr._stability_bound(*parts):
        values["gbar"] = kr._reduced_kron(*parts)
    return values


def cmd_kron(args) -> int:
    from . import kronecker as kr

    lam, mu, nu = map(Partition.parse, (args.lam, args.mu, args.nu))
    start = time.perf_counter()
    if args.route in ("all", "oracle"):
        _refuse_past_oracle_cap(args.n, f"the oracle route at --n {args.n}", "--route blocks or --route dagger")
    if args.route == "all":
        routes = route_values(lam, mu, nu, args.n)
    else:
        try:
            routes = {args.route: getattr(kr, f"kron_via_{args.route}")(lam, mu, nu, args.n)}
        except kr.FormulaRangeError as exc:
            raise ValueError(f"{exc} (--route dagger sums every term)")
    inputs = {"lambda": str(lam), "mu": str(mu), "nu": str(nu), "n": args.n}
    return _emit_agreed(args.format, "kron", inputs, args.route, routes, start)


def cmd_rkron(args) -> int:
    from . import kronecker as kr

    lam, mu, nu = map(Partition.parse, (args.lam, args.mu, args.nu))
    start = time.perf_counter()
    routes = {}
    if args.route in ("both", "stable"):
        n = kr._oracle_n(lam.parts, mu.parts, nu.parts)
        if n is not None:
            _refuse_past_oracle_cap(n, f"the stable route runs the oracle at n = {n}, which", "--route lr")
        routes["stable"] = kr.reduced_kron(lam, mu, nu)
    if args.route in ("both", "lr"):
        routes["lr"] = kr.reduced_kron_via_lr(lam, mu, nu)
    inputs = {"lambda": str(lam), "mu": str(mu), "nu": str(nu)}
    return _emit_agreed(args.format, "rkron", inputs, args.route, routes, start)


def cmd_lr(args) -> int:
    from .lr import lr_coeff, lr_coeff3

    lam, mu, nu = map(Partition.parse, (args.lam, args.mu, args.nu))
    start = time.perf_counter()
    inputs = {"lambda": str(lam), "mu": str(mu), "nu": str(nu)}
    if args.eta is not None:
        eta = Partition.parse(args.eta)
        inputs["eta"] = str(eta)
        value = lr_coeff3(lam, mu, eta, nu)
    else:
        value = lr_coeff(lam, mu, nu)
    return _emit_agreed(args.format, "lr", inputs, "placement", {"placement": value}, start)


def _first_past(n: int, limit: int, measure) -> int | None:
    """The least k <= n with measure([p(0), ..., p(k)]) > limit, or None.
    measure grows with k, so counting p(k) upward stops there, long before
    it would count the partitions of a huge n."""
    counts = []
    for k in range(n + 1):
        counts.append(_partition_count(k, k))
        if measure(counts) > limit:
            return k
    return None


# the most cells, rows, boxes or parts one command may print: this admits
# table --n <= 21, diagram dims --r <= 48, chain --r <= 1413 and dagger --i <= 10^6
OUTPUT_BUDGET = 10**6


def cmd_chain(args) -> int:
    nu = Partition.parse(args.nu)
    # the entry sizes strictly increase up to r, so the chain holds at most
    # 1 + 2 + ... + r boxes
    boxes = args.r * (args.r + 1) // 2
    if boxes > OUTPUT_BUDGET:
        raise ValueError(f"a chain up to --r {args.r} may hold {boxes} boxes, more than {OUTPUT_BUDGET}")
    chain = block_chain(nu, args.n, args.r)
    if args.format == "human":
        print(" -> ".join(map(str, chain)))
    else:
        rows = [(i, str(p), p.size) for i, p in enumerate(chain)]
        _emit_table(args.format, "chain", ["index", "partition", "size"], rows)
    return 0


def cmd_dagger(args) -> int:
    nu = Partition.parse(args.nu)
    # the i-th dagger partition has at least i parts
    if args.i > OUTPUT_BUDGET:
        raise ValueError(f"the dagger partition at --i {args.i} has more than {OUTPUT_BUDGET} parts")
    padded = pad(_reduce(nu, args.n), args.n)
    start = time.perf_counter()
    value = str(dagger(padded, args.i))
    return _emit_agreed(args.format, "dagger", {"nu": str(nu), "n": args.n, "i": args.i}, "dagger", {"dagger": value}, start)


# restrict reads at most one reduced coefficient per label pair (lam, mu)
# with |lam| <= r and |mu| <= s; this admits r = s = 9 (97^2 = 9409 pairs)
RESTRICT_MAX_PAIRS = 10**4


def cmd_restrict(args) -> int:
    from . import diagram_algebra as da

    nu = Partition.parse(args.nu)
    # (p(0) + ... + p(r)) * (p(0) + ... + p(s)) label pairs
    k = _first_past(max(args.r, args.s), RESTRICT_MAX_PAIRS, lambda c: sum(c[: args.r + 1]) * sum(c[: args.s + 1]))
    if k is not None:
        raise ValueError(f"--r {args.r} --s {args.s} give more than {RESTRICT_MAX_PAIRS} label pairs")
    table = da.restriction_table(nu, args.r, args.s)
    rows = [
        (str(lam), str(mu), c)
        for (lam, mu), c in sorted(table.items(), key=lambda kv: (kv[0][0], kv[0][1]))
    ]
    _emit_table(args.format, "restrict", ["lambda", "mu", "multiplicity"], rows)
    return 0


def cmd_compose(args) -> int:
    from . import diagram_algebra as da

    delta = da._parse_rational(args.delta) if args.delta is not None else None
    t, z = da.compose(da.SetPartitionDiagram.parse(args.x), da.SetPartitionDiagram.parse(args.y))
    scalar = str(delta**t) if delta is not None else None
    if args.format == "json":
        obj = {"command": "compose", "t": t, "diagram": str(z)}
        if scalar is not None:
            obj["scalar"] = scalar
        print(json.dumps(obj))
    else:
        suffix = f" scalar={scalar}" if scalar is not None else ""
        print(f"delta^{t} {z}{suffix}")
    return 0


def cmd_profile(args) -> int:
    from . import diagram_algebra as da

    counts = da.crossing_profile(da.SetPartitionDiagram.parse(args.d), args.r, args.s)
    profile = dict(zip(("p_r", "p_s", "p_c", "n_c"), counts))
    if args.format == "json":
        print(json.dumps({"command": "profile", **profile}))
    else:
        print(_agreement(profile)[0])
    return 0


def cmd_dims(args) -> int:
    from . import diagram_algebra as da

    # one row per partition of size <= r
    k = _first_past(args.r, OUTPUT_BUDGET, sum)
    if k is not None:
        raise ValueError(f"--r {args.r} gives more than {OUTPUT_BUDGET} rows; use --r <= {k - 1}")
    rows = [(str(nu), da.dim_standard(args.r, nu)) for nu in partitions_up_to(args.r)]
    _emit_table(args.format, "dims", ["nu", "dim"], rows)
    if args.format == "human":
        print(f"algebra dimension = {da.bell(2 * args.r)}")
    return 0


def cmd_table(args) -> int:
    from .sym_characters import CharacterTable

    k = _first_past(args.n, OUTPUT_BUDGET, lambda c: c[-1] ** 2)
    if k is not None:
        raise ValueError(
            f"the character table of S_{args.n} has at least p({k})^2 = {_partition_count(k, k) ** 2} cells, "
            f"more than {OUTPUT_BUDGET}; use --n <= {k - 1}"
        )
    sys.stdout.write(CharacterTable(args.n).to_tsv())
    return 0


def route_cases(max_weight: int, extra_n: int):
    """The (lam, mu, nu, n) of the route rows: |lam|, |mu| <= max_weight (none
    when it is negative), |nu| <= |lam| + |mu|, and every n of
    kronecker.valid_n_range(lam, mu, nu, extra_n)."""
    from .kronecker import valid_n_range

    small = partitions_up_to(max_weight)
    for lam in small:
        for mu in small:
            for nu in partitions_up_to(lam.size + mu.size):
                for n in valid_n_range(lam, mu, nu, extra_n):
                    yield lam, mu, nu, n


def _row(check: str, case: str, compute, *args) -> tuple:
    """The sweep row (check, case, values, ok), (values, ok) = compute(*args).
    An ArithmeticError, such as a non-integral class sum, fails the row with
    its message as the values, and the sweep goes on."""
    try:
        return (check, case, *compute(*args))
    except ArithmeticError as exc:
        return check, case, f"error={exc}", False


def sweep_rows(max_weight: int, extra_n: int, dim_max: int):
    """Deterministically ordered (check, case, values, ok) rows of the
    verification sweep: the route_values of every route_cases(max_weight,
    extra_n), which pass when they are all one, and the standard-module
    dimension identity up to degree dim_max."""
    from . import diagram_algebra as da

    def routes(lam, mu, nu, n):
        return _agreement(route_values(lam, mu, nu, n))

    # dim Delta_{r+s}(nu) against the restriction-weighted sum of products
    # of the dimensions of the degree r and degree s standard modules
    def dimension_identity(nu, r, s):
        dim = da.dim_standard(r + s, nu)
        table = da.restriction_table(nu, r, s)
        filtration = sum(c * da.dim_standard(r, lam) * da.dim_standard(s, mu) for (lam, mu), c in table.items())
        return f"dim={dim} filtration={filtration}", dim == filtration

    for lam, mu, nu, n in route_cases(max_weight, extra_n):
        yield _row("kron_routes", f"{lam} {mu} {nu} n={n}", routes, lam, mu, nu, n)
    for m in range(2, dim_max + 1):
        for r in range(1, m):
            for nu in partitions_up_to(m):
                yield _row("dim_identity", f"{nu} r={r} s={m - r}", dimension_identity, nu, r, m - r)


def cmd_sweep(args) -> int:
    # the route rows reach n = 4w + extra_n, w = max_weight: lam = mu = (w),
    # nu = (2w) has its stability bound and its first padding at 4w, no case more
    if args.max_weight >= 0:
        top = 4 * args.max_weight + args.extra_n
        _refuse_past_oracle_cap(top, f"the oracle route at n = {top}", "a smaller --max-weight or --extra-n")
    start = time.perf_counter()
    rows = dict.fromkeys(("kron_routes", "dim_identity"), 0)
    failed = 0
    if args.format != "json":
        print("check\tcase\tvalues\tok")
    for check, case, values, ok in sweep_rows(args.max_weight, args.extra_n, args.dim_max):
        rows[check] += 1
        failed += not ok
        if args.format == "json":
            print(json.dumps({"check": check, "case": case, "values": values, "ok": ok}))
        else:
            print(f"{check}\t{case}\t{values}\t{ok}")
    seconds = time.perf_counter() - start
    # stdout is the report alone; flushed first, the summary on stderr
    # follows the rows also where both streams go to one file
    sys.stdout.flush()
    rate = round(sum(rows.values()) / seconds, 1)
    print(json.dumps({"rows": rows, "failed": failed, "seconds": round(seconds, 3), "rows_per_s": rate}), file=sys.stderr)
    if failed:
        print(f"error: {failed} sweep mismatches", file=sys.stderr)
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises argparse's refusals as ValueError, to leave through main as one
    error: line like every other refusal; add_subparsers gives its parsers
    this class too."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    # --format can be given before or after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "json", "tsv"), default=argparse.SUPPRESS)
    parser = _Parser(
        prog="kroncoef",
        description="Exact Kronecker and reduced Kronecker coefficients via the partition algebra.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cmd(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text, parents=[common])

    p = add_cmd("kron", "Kronecker coefficient of a padded triple at degree n")
    p.add_argument("lam"), p.add_argument("mu"), p.add_argument("nu")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--route", choices=("all", *KRON_ROUTES, "closed"), default="all")
    p.set_defaults(func=cmd_kron)

    p = add_cmd("rkron", "reduced Kronecker coefficient")
    p.add_argument("lam"), p.add_argument("mu"), p.add_argument("nu")
    p.add_argument("--route", choices=("both", "stable", "lr"), default="both")
    p.set_defaults(func=cmd_rkron)

    p = add_cmd("lr", "Littlewood-Richardson coefficient (optionally three-factor)")
    p.add_argument("lam"), p.add_argument("mu"), p.add_argument("nu")
    p.add_argument("--eta", default=None)
    p.set_defaults(func=cmd_lr)

    p = add_cmd("chain", "n-pair chain through nu, capped at degree r")
    p.add_argument("nu")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_chain)

    p = add_cmd("dagger", "i-th dagger partition of nu padded at n")
    p.add_argument("nu")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(func=cmd_dagger)

    p = add_cmd("restrict", "restriction multiplicities of a standard module")
    p.add_argument("nu")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_restrict)

    p = add_cmd("diagram", "diagram arithmetic")
    dsub = p.add_subparsers(dest="diagram_cmd", required=True)
    pc = dsub.add_parser("compose", help="concatenate two diagrams", parents=[common])
    pc.add_argument("x"), pc.add_argument("y")
    pc.add_argument("--delta", help="exact rational p/q: also print delta^t")
    pc.set_defaults(func=cmd_compose)
    pp = dsub.add_parser("profile", help="crossing-block profile of a half-diagram", parents=[common])
    pp.add_argument("d")
    pp.add_argument("--r", type=int, required=True)
    pp.add_argument("--s", type=int, required=True)
    pp.set_defaults(func=cmd_profile)
    pd = dsub.add_parser("dims", help="standard module dimensions at degree r", parents=[common])
    pd.add_argument("--r", type=int, required=True)
    pd.set_defaults(func=cmd_dims)

    p = add_cmd("table", "character table as TSV")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_table)

    p = add_cmd("sweep", "route-agreement and dimension-identity sweeps; a JSON summary on stderr")
    p.add_argument("--max-weight", type=int, default=4, help="cap on |lambda|, |mu| (negative disables)")
    p.add_argument("--extra-n", type=int, default=3, help="n beyond the stability bound")
    p.add_argument("--dim-max", type=int, default=6, help="degree cap for the dimension identity (below 2 disables)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    """Run one command; every refusal, argparse's and the library's included,
    leaves as SystemExit("error: ..."): one line on stderr, exit status 1."""
    try:
        # --format is suppressed unless given, so that a subcommand does not
        # reset a --format given before it; its default comes in here
        args = build_parser().parse_args(argv, argparse.Namespace(format="human"))
        # --n, --r, --s and --i are degrees, sizes or indices; a negative
        # --extra-n would silently drop cases that the sweep is meant to check
        for name in ("n", "r", "s", "i", "extra_n"):
            value = getattr(args, name, None)
            if value is not None and value < 0:
                raise ValueError(f"--{name.replace('_', '-')} must be >= 0, got {value}")
        return args.func(args)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
