"""Command line front end: single coefficients, chains, restriction tables,
diagram arithmetic, and batch verification sweeps.

Partitions are written in bracket form ([4,1], [] for the empty partition),
diagrams in block form ({1,2'}{2,1'}).  Output formats: human (default),
tsv (tab separated with a header row), json (one object per line).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import diagram_algebra as da
from . import kronecker as kr
from .partitions import Partition, block_chain, dagger, pad, partitions_up_to
from .sym_characters import character_table


@dataclass
class Config:
    """Run configuration assembled from the command line."""

    fmt: str = "human"
    delta: Fraction | None = None


def _parse_partition(text: str) -> Partition:
    try:
        return Partition.parse(text)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"error: bad rational {text!r}: {exc}")


def _emit_value(cfg: Config, command: str, inputs: dict, route: str, value: int, ms: float) -> None:
    if cfg.fmt == "json":
        obj = {"command": command, **inputs, "route": route, "value": value, "ms": round(ms, 3)}
        print(json.dumps(obj))
    elif cfg.fmt == "tsv":
        keys = list(inputs) + ["route", "value"]
        print("\t".join(keys))
        print("\t".join(str(v) for v in list(inputs.values()) + [route, value]))
    else:
        print(value)


def _emit_table(cfg: Config, command: str, columns: list[str], rows: list[tuple]) -> None:
    if cfg.fmt == "json":
        for row in rows:
            print(json.dumps({"command": command, **dict(zip(columns, map(str, row)))}))
    else:
        print("\t".join(columns))
        for row in rows:
            print("\t".join(str(v) for v in row))


def cmd_kron(args, cfg: Config) -> int:
    lam, mu, nu = (_parse_partition(t) for t in (args.lam, args.mu, args.nu))
    start = time.perf_counter()
    routes = {}
    try:
        if args.route in ("all", "oracle"):
            routes["oracle"] = kr.kron_via_oracle(lam, mu, nu, args.n)
        if args.route in ("all", "blocks"):
            routes["blocks"] = kr.kron_via_blocks(lam, mu, nu, args.n)
        if args.route in ("all", "dagger"):
            routes["dagger"] = kr.kron_via_dagger(lam, mu, nu, args.n)
        if args.route == "closed":
            routes["closed"] = _closed_formula(lam, mu, nu, args.n, args.fallback)
    except kr.FormulaRangeError as exc:
        raise SystemExit(f"error: {exc} (use --fallback to fall back to the block chain)")
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    ms = (time.perf_counter() - start) * 1000
    values = set(routes.values())
    if len(values) != 1:
        detail = " ".join(f"{k}={v}" for k, v in routes.items())
        print(f"error: route disagreement: {detail}", file=sys.stderr)
        return 1
    inputs = {"lambda": str(lam), "mu": str(mu), "nu": str(nu), "n": args.n}
    _emit_value(cfg, "kron", inputs, args.route, values.pop(), ms)
    return 0


def _closed_formula(lam: Partition, mu: Partition, nu: Partition, n: int, fallback: bool) -> int:
    lam, mu, nu = (kr.reduce_mod_n(p, n) for p in (lam, mu, nu))
    try:
        if len(nu) <= 1:
            return kr.kron_two_row(lam, mu, nu.size, n)
        if nu.row(1) == 1:
            return kr.kron_hook(lam, mu, nu.size, n)
        raise kr.FormulaRangeError(f"no closed formula: {nu} padded is neither two-row nor hook")
    except kr.FormulaRangeError:
        if fallback:
            return kr.kron_via_blocks(lam, mu, nu, n)
        raise


def cmd_rkron(args, cfg: Config) -> int:
    lam, mu, nu = (_parse_partition(t) for t in (args.lam, args.mu, args.nu))
    start = time.perf_counter()
    routes = {}
    if args.route in ("both", "stable"):
        routes["stable"] = kr.reduced_kron(lam, mu, nu)
    if args.route in ("both", "lr"):
        routes["lr"] = kr.reduced_kron_via_lr(lam, mu, nu)
    ms = (time.perf_counter() - start) * 1000
    values = set(routes.values())
    if len(values) != 1:
        detail = " ".join(f"{k}={v}" for k, v in routes.items())
        print(f"error: route disagreement: {detail}", file=sys.stderr)
        return 1
    inputs = {"lambda": str(lam), "mu": str(mu), "nu": str(nu)}
    _emit_value(cfg, "rkron", inputs, args.route, values.pop(), ms)
    return 0


def cmd_lr(args, cfg: Config) -> int:
    from .lr import lr_coeff, lr_coeff3

    lam, mu, nu = (_parse_partition(t) for t in (args.lam, args.mu, args.nu))
    start = time.perf_counter()
    inputs = {"lambda": str(lam), "mu": str(mu), "nu": str(nu)}
    if args.eta is not None:
        eta = _parse_partition(args.eta)
        inputs["eta"] = str(eta)
        value = lr_coeff3(lam, mu, eta, nu)
    else:
        value = lr_coeff(lam, mu, nu)
    ms = (time.perf_counter() - start) * 1000
    _emit_value(cfg, "lr", inputs, "placement", value, ms)
    return 0


def cmd_chain(args, cfg: Config) -> int:
    nu = _parse_partition(args.nu)
    try:
        chain = block_chain(nu, args.n, args.r)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if cfg.fmt == "human":
        print(chain)
    else:
        rows = [(i, str(p), p.size) for i, p in enumerate(chain)]
        _emit_table(cfg, "chain", ["index", "partition", "size"], rows)
    return 0


def cmd_dagger(args, cfg: Config) -> int:
    nu = _parse_partition(args.nu)
    try:
        padded = pad(kr.reduce_mod_n(nu, args.n), args.n)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    start = time.perf_counter()
    result = dagger(padded, args.i)
    ms = (time.perf_counter() - start) * 1000
    if cfg.fmt == "human":
        print(result)
    else:
        _emit_value(cfg, "dagger", {"nu": str(nu), "n": args.n, "i": args.i}, "dagger", str(result), ms)
    return 0


def cmd_restrict(args, cfg: Config) -> int:
    nu = _parse_partition(args.nu)
    try:
        table = da.restriction_table(nu, args.r, args.s)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    rows = [
        (str(lam), str(mu), c)
        for (lam, mu), c in sorted(table.items(), key=lambda kv: (kv[0][0], kv[0][1]))
    ]
    _emit_table(cfg, "restrict", ["lambda", "mu", "multiplicity"], rows)
    return 0


def cmd_diagram(args, cfg: Config) -> int:
    if args.diagram_cmd == "compose":
        try:
            x = da.SetPartitionDiagram.parse(args.x)
            y = da.SetPartitionDiagram.parse(args.y)
            t, z = da.compose(x, y)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        scalar = str(cfg.delta**t) if cfg.delta is not None else None
        if cfg.fmt == "json":
            obj = {"command": "compose", "t": t, "diagram": str(z)}
            if scalar is not None:
                obj["scalar"] = scalar
            print(json.dumps(obj))
        else:
            suffix = f" scalar={scalar}" if scalar is not None else ""
            print(f"delta^{t} {z}{suffix}")
        return 0
    if args.diagram_cmd == "profile":
        try:
            d = da.SetPartitionDiagram.parse(args.d)
            p_r, p_s, p_c, n_c = da.crossing_profile(d, args.r, args.s)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        if cfg.fmt == "json":
            print(json.dumps({"command": "profile", "p_r": p_r, "p_s": p_s, "p_c": p_c, "n_c": n_c}))
        else:
            print(f"p_r={p_r} p_s={p_s} p_c={p_c} n_c={n_c}")
        return 0
    if args.diagram_cmd == "dims":
        rows = [(str(nu), da.dim_standard(args.r, nu)) for nu in partitions_up_to(args.r)]
        _emit_table(cfg, "dims", ["nu", "dim"], rows)
        if cfg.fmt == "human":
            print(f"algebra dimension = {da.bell(2 * args.r)}")
        return 0
    raise SystemExit("error: unknown diagram subcommand")


def cmd_table(args, cfg: Config) -> int:
    sys.stdout.write(character_table(args.n).to_tsv())
    return 0


def sweep_rows(bounds: kr.SweepBounds):
    """Deterministically ordered (check, case, values, ok) rows of the
    verification sweep: route agreement, reduced routes, tensor-square
    stabilization and the standard-module dimension identity."""
    route_cases = list(kr.route_agreement_cases(bounds))
    for lam, mu, nu, n in route_cases:
        res = kr.check_routes(lam, mu, nu, n)
        yield (
            "kron_routes",
            f"{lam} {mu} {nu} n={n}",
            f"oracle={res['oracle']} blocks={res['blocks']} dagger={res['dagger']}",
            res["ok"],
        )

    for lam, mu, nu in dict.fromkeys(case[:3] for case in route_cases):
        res = kr.check_reduced(lam, mu, nu)
        yield (
            "reduced_routes",
            f"{lam} {mu} {nu}",
            f"stable={res['stable']} lr={res['lr']}",
            res["ok"],
        )

    for n in range(2, bounds.stab_max_n + 1):
        got = kr.tensor_square_decomposition(n)
        want = kr.expected_tensor_square(n)
        yield (
            "stabilization",
            f"n={n}",
            "decomposition=" + ";".join(f"{p}:{c}" for p, c in sorted(got.items())),
            got == want,
        )

    for nu, r, s in da.dimension_identity_cases(bounds.dim_max):
        res = da.check_dimension_identity(nu, r, s)
        yield (
            "dim_identity",
            f"{nu} r={r} s={s}",
            f"dim={res['dim']} filtration={res['filtration']}",
            res["ok"],
        )


def add_bounds_arguments(parser: argparse.ArgumentParser) -> None:
    """The sweep bounds as options, with the defaults of SweepBounds()."""
    default = kr.SweepBounds()
    parser.add_argument("--max-weight", type=int, default=default.max_weight, help="cap on |lambda|, |mu| (negative disables)")
    parser.add_argument("--extra-n", type=int, default=default.extra_n, help="n beyond the stability bound")
    parser.add_argument("--dim-max", type=int, default=default.dim_max, help="degree cap for the dimension identity (below 2 disables)")
    parser.add_argument("--stab-max-n", type=int, default=default.stab_max_n, help="last n of the stabilization check (below 2 disables)")


def bounds_from_args(args) -> kr.SweepBounds:
    return kr.SweepBounds(args.max_weight, args.extra_n, args.dim_max, args.stab_max_n)


def cmd_sweep(args, cfg: Config) -> int:
    failures = 0
    if cfg.fmt != "json":
        print("check\tcase\tvalues\tok")
    for check, case, values, ok in sweep_rows(bounds_from_args(args)):
        failures += not ok
        if cfg.fmt == "json":
            print(json.dumps({"check": check, "case": case, "values": values, "ok": ok}))
        else:
            print(f"{check}\t{case}\t{values}\t{ok}")
    if failures:
        print(f"error: {failures} sweep mismatches", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    # the common flags can be given before or after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("human", "json", "tsv"), default=argparse.SUPPRESS
    )
    common.add_argument(
        "--delta", type=str, default=argparse.SUPPRESS,
        help="exact rational p/q for diagram commands",
    )
    parser = argparse.ArgumentParser(
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
    p.add_argument("--route", choices=("all", "oracle", "blocks", "dagger", "closed"), default="all")
    p.add_argument("--fallback", action="store_true", help="fall back to the block chain when a closed formula is out of range")
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
    pp = dsub.add_parser("profile", help="crossing-block profile of a half-diagram", parents=[common])
    pp.add_argument("d")
    pp.add_argument("--r", type=int, required=True)
    pp.add_argument("--s", type=int, required=True)
    pd = dsub.add_parser("dims", help="standard module dimensions at degree r", parents=[common])
    pd.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_diagram)

    p = add_cmd("table", "character table as TSV")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_table)

    p = add_cmd("sweep", "route-agreement and dimension-identity sweeps")
    add_bounds_arguments(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # in every command --n, --r, --s and --i are degrees, sizes or indices
    for name in ("n", "r", "s", "i"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise SystemExit(f"error: --{name} must be >= 0, got {value}")
    delta = getattr(args, "delta", None)
    cfg = Config(
        fmt=getattr(args, "format", "human"),
        delta=_parse_rational(delta) if delta is not None else None,
    )
    return args.func(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
