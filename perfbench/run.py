"""kroncoef benchmark: four workloads, end-to-end metrics, and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload route_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload runs single-threaded, one caller at a time (closed loop).  A
run first starts ``SETUP_PROBES`` processes that only set up, then one
measured pass after another, each in a fresh process so that every library
cache starts cold: at least ``MIN_PASSES``, and more until ``--seconds``
seconds have gone since the first pass began.  Every pass of a run gets the
same inputs.  Times are scaled by the machine's speed as a fixed probe
kernel measures it (see ``scaled_latencies``); each operation's latency is
its median over passes, wall_s is their sum, and set-up time and peak RSS
are medians.  Outputs are checked exactly after each pass's timed loop.

With ``--trace 1`` the run makes one untraced pass and one traced pass and
reports per-module metrics and the tracing overhead instead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from workloads import CLI_COMMANDS, WORKLOADS  # noqa: E402

SETUP_PROBES = 3
MIN_PASSES = 2
MAX_PASSES = 40
# a run must end within 180 s: no new pass starts past RUN_BUDGET_S, and a
# worker still running at RUN_TIMEOUT_S is killed
RUN_BUDGET_S = 140.0
RUN_TIMEOUT_S = 170.0
# times are scaled to a machine on which the worker's speed probe takes this
# long (about its fastest on the 2-core VM the baseline was measured on)
PROBE_NOMINAL_NS = 2_000_000

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
CACHE_MODULES = ("partitions", "lr", "sym_characters", "kronecker", "diagram_algebra")


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, names in LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.total_s"] = "s"
            units[f"{layer}.{name}.self_s"] = "s"
    units["partitions.block_chain.mean_len"] = "count"
    units["kronecker.dagger.terms"] = "count"
    units["kronecker.dagger.useful_ratio"] = "ratio"
    for mod in CACHE_MODULES:
        units[f"{mod}.cache.hit_ratio"] = "ratio"
        units[f"{mod}.cache.currsize"] = "count"
    for command in CLI_COMMANDS:
        units[f"cli.{command}.p50_ms"] = "ms"
    units["cli.import_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = per_layer_units()


class BenchError(RuntimeError):
    pass


def tail_rank(count: int) -> int:
    """1-based rank of the tail sample: the highest one with at least ten
    samples beyond it, or the median rank when there are fewer than twenty."""
    return count - 10 if count >= 20 else (count + 1) // 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("KRONCOEF_CACHE_DIR", None)  # a persisted table would not be cold
    return env


def time_left(started: float) -> float:
    """Seconds a worker may still take in a run that began at `started`."""
    return max(RUN_TIMEOUT_S - (time.monotonic() - started), 1.0)


def spawn(cfg: dict, timeout: float) -> dict:
    """Run one worker process to completion and return its record."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(), start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{cfg['workload']} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    rec = json.loads(out.strip().splitlines()[-1])
    rec["setup_s"] = rec["ready"] - t0
    rec["elapsed_s"] = time.monotonic() - t0
    return rec


def scaled_latencies(rec: dict) -> list[float]:
    """The pass's operation latencies in ns, scaled by the speed of the
    machine during the pass: PROBE_NOMINAL_NS over the mean speed probe."""
    factor = PROBE_NOMINAL_NS / statistics.fmean(rec["probes"])
    return [ns * factor for ns in rec["latencies_ns"]]


def op_latencies(passes: list[dict]) -> list[float]:
    """Each operation's scaled latency in ms, the median over the run's passes.

    Every pass repeats the same cold work in a fresh process, so the passes
    differ only by time lost to other load on the machine.  The scaling takes
    out how much of a pass that load slowed; the median drops passes that a
    burst hit between probes.
    """
    return [statistics.median(ns) / 1e6 for ns in zip(*(scaled_latencies(rec) for rec in passes))]


def scaled_setup(rec: dict) -> float:
    return rec["setup_s"] * PROBE_NOMINAL_NS / rec["setup_probe_ns"]


def measure(workload: str, seed: int, seconds: int, size: str) -> dict:
    """The untraced run: set-up probes, then at least MIN_PASSES passes and
    more until `seconds` seconds have gone since the first pass started."""
    base = {"root": ROOT, "workload": workload, "seed": seed, "size": size, "trace_out": None}
    started = time.monotonic()
    setups = [scaled_setup(spawn({**base, "mode": "setup"}, time_left(started))) for _ in range(SETUP_PROBES)]
    passes = []
    first_pass = time.monotonic()
    while True:
        rec = spawn({**base, "mode": "pass"}, time_left(started))
        passes.append(rec)
        setups.append(scaled_setup(rec))
        now = time.monotonic()
        if now - started + rec["elapsed_s"] > RUN_BUDGET_S or len(passes) >= MAX_PASSES:
            break
        if now - first_pass >= seconds and len(passes) >= MIN_PASSES:
            break
    lat_ms = op_latencies(passes)
    ordered = sorted(lat_ms)
    rank = tail_rank(len(ordered))
    wall_s = sum(lat_ms) / 1e3
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "ops_per_s": len(lat_ms) / wall_s,
        "op_p50_ms": statistics.median(ordered),
        "op_tail_ms": ordered[rank - 1],
        "peak_rss_mb": statistics.median(rec["maxrss_kb"] for rec in passes) / 1024,
    }
    return {
        "metrics": metrics,
        "passes": passes,
        "tail_p": 100 * rank / len(ordered),
        "raw_wall_s": statistics.median(rec["wall_s"] for rec in passes),
        "probe_ms": statistics.median(statistics.fmean(rec["probes"]) for rec in passes) / 1e6,
        "setups": len(setups),
        "attempted": sum(rec["attempted"] for rec in passes),
        "failed": sum(rec["failed"] for rec in passes),
        "failures": passes[0]["failures"],
    }


def traced(workload: str, seed: int, size: str) -> dict:
    """One untraced and one traced pass; per-module metrics from the second."""
    base = {"root": ROOT, "workload": workload, "seed": seed, "size": size}
    out_dir = os.path.join(ROOT, ".perfbench-out")
    started = time.monotonic()
    plain = spawn({**base, "mode": "pass", "trace_out": None}, time_left(started))
    trace_out = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    rec = spawn({**base, "mode": "traced", "trace_out": trace_out}, time_left(started))
    report = rec["trace"]
    metrics = {}
    for layer, names in LAYERS.items():
        for name in names:
            f = report["functions"].get(f"{layer}.{name}", {"calls": 0, "total_ns": 0, "self_ns": 0})
            metrics[f"{layer}.{name}.calls"] = f["calls"]
            metrics[f"{layer}.{name}.total_s"] = f["total_ns"] / 1e9
            metrics[f"{layer}.{name}.self_s"] = f["self_ns"] / 1e9
    c = report["counters"]
    metrics["partitions.block_chain.mean_len"] = c["chain_len_total"] / c["chains"] if c["chains"] else 0
    metrics["kronecker.dagger.terms"] = c["dagger_terms"]
    metrics["kronecker.dagger.useful_ratio"] = c["dagger_useful"] / c["dagger_terms"] if c["dagger_terms"] else 0
    for mod in CACHE_MODULES:
        caches = [v for k, v in report["caches"].items() if k.split(".")[0] == mod]
        hits = sum(v["hits"] for v in caches)
        lookups = hits + sum(v["misses"] for v in caches)
        metrics[f"{mod}.cache.hit_ratio"] = hits / lookups if lookups else 0
        metrics[f"{mod}.cache.currsize"] = sum(v["currsize"] for v in caches)
    by_kind: dict[str, list[float]] = {}
    for kind, ns in zip(plain["kinds"], scaled_latencies(plain)):
        by_kind.setdefault(kind, []).append(ns / 1e6)
    for command in CLI_COMMANDS:
        values = by_kind.get(command) if workload == "cli_cold" else None
        metrics[f"cli.{command}.p50_ms"] = statistics.median(values) if values else 0
    imports = report.get("import_s") or []
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0
    metrics["trace.overhead_s"] = rec["wall_s"] - plain["wall_s"]
    return {
        "metrics": metrics,
        "caches": report["caches"],
        "plain_wall_s": plain["wall_s"],
        "traced_wall_s": rec["wall_s"],
        "trace_out": trace_out,
        "attempted": plain["attempted"] + rec["attempted"],
        "failed": plain["failed"] + rec["failed"],
        "failures": plain["failures"],
    }


def fmt_value(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_summary(workload: str, seed: int, res: dict, trace: bool) -> None:
    attempted, failed = res["attempted"], res["failed"]
    print(f"== {workload} (seed {seed})")
    if trace:
        print(f"   traced pass {res['traced_wall_s']:.3f} s, untraced pass {res['plain_wall_s']:.3f} s")
        for name, value in res["metrics"].items():
            print(f"   {name:<48} {fmt_value(value):>14} {PER_LAYER[name]}")
        for name, c in sorted(res["caches"].items()):
            lookups = c["hits"] + c["misses"]
            ratio = c["hits"] / lookups if lookups else 0
            print(f"   cache {name:<38} hits {c['hits']} misses {c['misses']} ratio {ratio:.4f} currsize {c['currsize']}")
        print(f"   spans written to {os.path.relpath(res['trace_out'], ROOT)}")
    else:
        passes = len(res["passes"])
        ops = res["passes"][0]["attempted"]
        print(f"   {passes} passes of {ops} operations, {res['setups']} set-ups")
        print(f"   median pass wall time {res['raw_wall_s']:.4f} s, unscaled; speed probe {res['probe_ms']:.3f} ms")
        print(f"   times scaled to a {PROBE_NOMINAL_NS / 1e6:g} ms probe; latencies are per-operation medians over passes")
        for name, unit in END_TO_END.items():
            extra = ""
            if name == "op_tail_ms":
                extra = f"  (p{res['tail_p']:.4g} of {ops} samples per pass)"
            print(f"   {name:<12} {fmt_value(res['metrics'][name]):>14} {unit}{extra}")
    print(f"   {'failed_frac':<12} {fmt_value(failed / attempted):>14} ratio  ({failed} of {attempted})")
    for line in res["failures"]:
        print(f"   FAILED {line}")


def run_one(workload: str, seed: int, seconds: int, trace: bool, size: str) -> dict:
    res = traced(workload, seed, size) if trace else measure(workload, seed, seconds, size)
    print_summary(workload, seed, res, trace)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kroncoef benchmark")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the benchmark's own tests")
    args = parser.parse_args(argv)
    # a terminated run still kills its worker (see spawn) before it exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "kroncoef", "__init__.py")):
        print(f"error: no kroncoef source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_one(name, args.seed, args.seconds, bool(args.trace), args.size) for name in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
