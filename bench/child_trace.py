"""Run one hoopshot CLI call with the bench tracer installed.

    python bench/child_trace.py TRACE_JSON ARG...

Behaves like `python -m hoopshot.cli ARG...` (same stdout, stderr and
exit code) and writes the tracer's aggregates and spans to TRACE_JSON.
Interpreter start and imports happen before tracing begins; they are
measured separately with -X importtime.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from tracer import Tracer  # noqa: E402

import hoopshot.cli  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    try:
        rc = hoopshot.cli.run(argv)
    finally:
        tracer.uninstall()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"snapshot": tracer.snapshot(), "spans": list(tracer.span_rows())}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
