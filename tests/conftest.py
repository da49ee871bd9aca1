import functools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@functools.cache
def default_sweep() -> tuple:
    """The rows of the default kroncoef sweep, sweep_rows(4, 3, 6), computed
    once per session for every test that reads them.  A test that patches
    cli.sweep_rows with a replay of these rows takes them first."""
    from kroncoef.cli import sweep_rows

    return tuple(sweep_rows(4, 3, 6))


@functools.cache
def default_route_rows() -> tuple:
    """(lam, mu, nu, n, values) of the default sweep's route rows, in the
    order of cli.route_cases(4, 3), with values the row's k=v pairs as a
    dict of ints."""
    from kroncoef.cli import route_cases

    rows = [row for row in default_sweep() if row[0] == "kron_routes"]
    result = []
    for (lam, mu, nu, n), (_check, case, values, _ok) in zip(route_cases(4, 3), rows, strict=True):
        if case != f"{lam} {mu} {nu} n={n}":
            raise ValueError(f"route row {case!r} out of step with the case {lam} {mu} {nu} n={n}")
        result.append((lam, mu, nu, n, {k: int(v) for k, v in (pair.split("=") for pair in values.split())}))
    return tuple(result)
