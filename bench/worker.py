"""One pass of one workload, in a fresh process (started by ``run.py``).

Protocol on stdout: the line ``READY <cpu seconds>`` once the interpreter
has started, posetgames is imported and the inputs are generated (the
parent times set-up up to it), then one JSON line with the checked pass
(none with ``--setup-only``).
Times are taken on the monotonic clock, which the parent and its speed probe
share; CPU time counts this process and the CLI processes it ran.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import posetgames

import workloads

ROOT = Path(__file__).resolve().parent.parent


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for a workload without verification instances."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)] if ordered else 0.0


def cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="exit after READY")
    args = parser.parse_args()
    source = Path(posetgames.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"posetgames imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, Path(tmp))
        print("READY", cpu_s(), flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.traced:
            from tracing import Tracer

            tracer = Tracer()
        with tracer.installed() if tracer else nullcontext():
            t0, c0 = time.monotonic(), cpu_s()
            raw = workload.run(tracer)
            t1, c1 = time.monotonic(), cpu_s()
        outcome = workload.check(raw)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    print(json.dumps({
        "t0": t0,
        "t1": t1,
        "wall_s": t1 - t0,
        "cpu_s": c1 - c0,
        "rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "wrong": outcome.wrong,
        "notes": outcome.notes,
        "counts": outcome.counts,
        "op_s": {name: outcome.op_s.get(name, 0.0) for name in workloads.CLI_OPS},
        "inst_p50_ms": percentile(outcome.inst_ms, 0.50),
        "inst_p99_ms": percentile(outcome.inst_ms, 0.99),
        "sizes": workload.sizes,
        "trace": tracer.snapshot() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
