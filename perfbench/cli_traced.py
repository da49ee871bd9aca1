"""Run the ``kroncoef`` command with the benchmark's tracer installed.

Used by the traced cli_cold pass in place of ``python3 -m kroncoef.cli``.
The command's own output is unchanged; the trace report (with the time
``import kroncoef.cli`` took) goes to stderr as the last line, after
``TRACE_PREFIX``.
"""

import json
import sys
import time

t0 = time.perf_counter()
import kroncoef.cli  # noqa: E402

IMPORT_S = time.perf_counter() - t0

from tracer import TRACE_PREFIX, Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.start()
    try:
        code = kroncoef.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
        if isinstance(code, str):
            print(code, file=sys.stderr)
            code = 1
    report = tracer.report()
    report["import_s"] = IMPORT_S
    sys.stdout.flush()
    print(TRACE_PREFIX + json.dumps(report), file=sys.stderr)
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
