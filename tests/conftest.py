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
