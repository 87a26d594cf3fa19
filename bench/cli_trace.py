"""Run the posetgames command line with the benchmark's tracer installed.

    python cli_trace.py TRACE_OUT ARG...

Behaves like ``python -m posetgames.cli ARG...`` (same output and exit
status, same traceback if it crashes) and also writes the tracer's
snapshot to TRACE_OUT as JSON.
"""

import json
import sys

from posetgames import cli

from tracing import Tracer


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.installed():
            return cli.main(argv)
    finally:
        with open(trace_out, "w") as f:
            json.dump(tracer.snapshot(), f)


if __name__ == "__main__":
    sys.exit(main())
