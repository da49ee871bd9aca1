"""One fresh process: set a workload up, run every operation once, check.

Invoked by run.py as ``python3 perfbench/worker.py '<json config>'`` with the
config keys root, workload, seed, size, mode ("setup", "pass" or "traced")
and trace_out.  Prints one JSON record as its last line of output.  Library
caches start empty because the process is new; nothing is warmed.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
# a speed probe runs between operations at most this often
PROBE_GAP_NS = 50_000_000


def speed_probe() -> int:
    """Nanoseconds of a fixed kernel of tuple, dict, list and sort work
    (about 2 ms) that uses no library code, so it measures the machine and
    not the program.  The collector is off meanwhile, so that a collection
    of the library's heap is not timed as machine speed."""
    gc.disable()
    start = time.perf_counter_ns()
    table = {}
    for i in range(4000):
        table[(i % 97, i, str(i))] = [i, i + 1]
    total = 0
    for key in sorted(table):
        total += table[key][1]
    del table
    elapsed = time.perf_counter_ns() - start
    gc.enable()
    return elapsed


def check_all(workload, ops, results, errors) -> list[str]:
    """One line per failed operation: an exception while it ran, a wrong
    value, or a result the checker cannot read.  Runs after the timed loop."""
    failures = []
    for i, (op, result) in enumerate(zip(ops, results)):
        if i in errors:
            failures.append(f"op {i} {workload.kind(op)}: {errors[i]}")
            continue
        try:
            reason = workload.check(op, result)
        except Exception as exc:  # a checker that cannot read a result fails it
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"op {i} {workload.kind(op)}: {reason}")
    return failures


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(cfg["root"], "src"))
    import kroncoef  # noqa: F401  (the import is part of set-up)
    import workloads
    from tracer import Tracer, merge_reports

    workload = workloads.WORKLOADS[cfg["workload"]](cfg["size"])
    is_cli = cfg["workload"] == "cli_cold"
    traced = cfg["mode"] == "traced"
    if is_cli:
        workload.command = (
            [sys.executable, os.path.join(HERE, "cli_traced.py")] if traced else [sys.executable, "-m", "kroncoef.cli"]
        )
        workload.trace_sink = [] if traced else None
    ops = workload.make_ops(cfg["seed"])
    ready = time.monotonic()
    setup_probe_ns = sorted(speed_probe() for _ in range(3))[1]
    if cfg["mode"] == "setup":
        print(json.dumps({"ready": ready, "setup_probe_ns": setup_probe_ns}))
        return 0

    tracer = None
    if traced and not is_cli:
        tracer = Tracer()
        tracer.install()
        tracer.start()

    results, latencies, errors, op_spans, probes = [], [], {}, [], []
    begin = time.perf_counter_ns()
    next_probe = begin
    for i, op in enumerate(ops):
        if not traced and time.perf_counter_ns() >= next_probe:
            probes.append(speed_probe())
            next_probe = time.perf_counter_ns() + PROBE_GAP_NS
        start = time.perf_counter_ns()
        try:
            results.append(workload.run(op))
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append(None)
            errors[i] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        end = time.perf_counter_ns()
        latencies.append(end - start)
        op_spans.append((i, workload.kind(op), start, end))
    wall_ns = sum(latencies)
    if not traced:
        probes.append(speed_probe())
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    maxrss_kb = resource.getrusage(who).ru_maxrss

    report = None
    if tracer is not None:
        report = tracer.report()
    elif traced:
        for result in results:
            if result is not None:
                workload.collect_trace(result)
        report = merge_reports(workload.trace_sink)
        report["import_s"] = [rep["import_s"] for rep in workload.trace_sink]

    failures = check_all(workload, ops, results, errors)

    if traced and cfg.get("trace_out"):
        os.makedirs(os.path.dirname(cfg["trace_out"]), exist_ok=True)
        spans = tracer.spans if tracer is not None else []
        with open(cfg["trace_out"], "w") as fh:
            json.dump({"workload": cfg["workload"], "seed": cfg["seed"], "ops": op_spans, "spans": spans, "report": report}, fh)

    print(
        json.dumps(
            {
                "ready": ready,
                "wall_s": wall_ns / 1e9,
                "latencies_ns": latencies,
                "probes": probes,
                "setup_probe_ns": setup_probe_ns,
                "kinds": [workload.kind(op) for op in ops],
                "attempted": len(ops),
                "failed": len(failures),
                "failures": failures[:20],
                "maxrss_kb": maxrss_kb,
                "trace": report,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
