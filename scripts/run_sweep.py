#!/usr/bin/env python3
"""Run the full verification sweep with the default bounds and exit nonzero
on any mismatch.  Runs the rows of `kroncoef sweep` but summarises them by
check kind instead of printing every row."""

import argparse
import sys
import time
from collections import Counter

from kroncoef.cli import add_bounds_arguments, bounds_from_args, sweep_rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_bounds_arguments(parser)
    bounds = bounds_from_args(parser.parse_args())

    start = time.perf_counter()
    counts = Counter()
    failures = []
    for check, case, values, ok in sweep_rows(bounds):
        counts[check] += 1
        if not ok:
            failures.append((check, case, values))
    print(f"route agreement: {counts['kron_routes']} padded cases, {counts['reduced_routes']} reduced triples")
    print(f"stabilization: {counts['stabilization']} cases, n = 2..{bounds.stab_max_n}")
    print(f"dimension identity: {counts['dim_identity']} cases up to degree {bounds.dim_max}")

    elapsed = time.perf_counter() - start
    if failures:
        for f in failures:
            print("MISMATCH:", *f, file=sys.stderr)
        print(f"FAILED with {len(failures)} mismatches in {elapsed:.1f}s", file=sys.stderr)
        return 1
    print(f"all checks passed in {elapsed:.1f}s ({sum(counts.values()) / elapsed:.0f} rows/s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
