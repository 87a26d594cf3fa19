"""Benchmark harness for posetgames.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload, one at a time, each in a fresh worker process
(``worker.py``), for about S seconds and at least three passes.  The harness
pins itself, its workers and their CLI processes to one CPU, and runs the
speed probe (``speed_probe.py``) on that CPU for the whole run.  Each pass's
CPU time is then given in seconds of a CPU of fixed speed, using the speed
the probe measured during that pass; end-to-end metrics are medians of these
over the passes.  With ``--trace 1`` untraced passes run for S/2 seconds (at
least one), then one pass with the per-layer tracer installed.  The line
before last on stdout is the full record (provenance, input sizes, counts,
per-pass figures); the last line is the result object, with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
``--smoke`` shrinks every input, for the harness's own test.  Workloads and
metrics are described in ``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed_probe import REF_CHUNKS_PER_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUPS = 10
RUN_LIMIT_S = 170  # a hung pass is killed so that the run ends within 180 s


class HarnessError(RuntimeError):
    pass


class SpeedProbe:
    """The speed probe process and the slices it has reported."""

    def __init__(self):
        self.slices: list[tuple[float, float, float, float]] = []
        self._closed = False
        self._cond = threading.Condition()
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "speed_probe.py")],
                                     stdout=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        with self._cond:  # no pass starts before the probe measures
            self._cond.wait_for(lambda: self.slices or self._closed, timeout=10)

    def _read(self):
        for line in self.proc.stdout:
            with self._cond:
                self.slices.append(tuple(map(float, line.split())))
                self._cond.notify_all()
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def chunks_per_s(self, t0: float, t1: float) -> float:
        """Probe speed over [t0, t1], each slice weighted by its overlap."""
        with self._cond:
            covered = self._cond.wait_for(
                lambda: self._closed or (self.slices and self.slices[-1][1] >= t1), timeout=10)
            chunks = cpu = 0.0
            for a, b, n, c in self.slices:
                share = max(0.0, min(b, t1) - max(a, t0)) / (b - a)
                chunks += share * n
                cpu += share * c
        if not covered or self._closed or cpu <= 0:
            raise HarnessError("the speed probe stopped reporting")
        return chunks / cpu

    def ref_s(self, cpu_s: float, t0: float, t1: float) -> float:
        """CPU seconds used over [t0, t1], in seconds of the reference CPU."""
        return cpu_s * self.chunks_per_s(t0, t1) / REF_CHUNKS_PER_S

    def stop(self):
        self.proc.kill()
        self.proc.wait()
        self._reader.join()


def run_worker(args, deadline: float, probe: SpeedProbe, mode: str = "pass") -> dict:
    """One pass in a fresh process, ``mode`` "pass", "traced" or "setup"
    (set-up only); set-up lasts until its READY line."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--smoke"] * args.smoke + ["--traced"] * (mode == "traced") + ["--setup-only"] * (mode == "setup")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    # the worker leads its own process group, so a kill also ends the CLI runs it started
    watchdog = threading.Timer(max(deadline - t0, 0), os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        ready = proc.stdout.readline().split()
        t_ready = time.monotonic()
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
    if ready[:1] != ["READY"] or proc.returncode != 0 or not (rest.strip() or mode == "setup"):
        raise HarnessError(f"worker exited with {proc.returncode} before reporting a pass")
    setup_s = probe.ref_s(float(ready[1]), t0, t_ready)
    if mode == "setup":
        return {"setup_s": setup_s}
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_wall_s"] = t_ready - t0
    result["setup_s"] = setup_s
    result["ref_s"] = probe.ref_s(result["cpu_s"], result["t0"], result["t1"])
    result["speed"] = probe.chunks_per_s(result["t0"], result["t1"]) / REF_CHUNKS_PER_S
    result["scale"] = result["ref_s"] / result["wall_s"]  # wall seconds to reference seconds
    return result


def cli_startup_s(probe: SpeedProbe) -> float:
    """Median time to start an interpreter and import the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(5):
        t0, c0 = time.monotonic(), resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", "import posetgames.cli"], env=env, cwd=ROOT, check=True)
        t1, c1 = time.monotonic(), resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = c1.ru_utime + c1.ru_stime - c0.ru_utime - c0.ru_stime
        times.append(probe.ref_s(cpu, t0, t1))
    return statistics.median(times)


def provenance() -> dict:
    def git(*argv):
        out = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None

    revision = dirty = None
    try:
        if git("rev-parse", "--show-toplevel") == str(ROOT):
            revision = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": revision,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "jobs": 1,
    }


def determinism_problems(passes: list[dict], traced: dict | None) -> list[str]:
    """Counts must repeat exactly across passes, traced or not, and the
    tracer's solver states must equal the states the program reported."""
    problems = []
    first = passes[0]["counts"]
    for i, p in enumerate(passes[1:] + ([traced] if traced else []), start=1):
        if p["counts"] != first:
            problems.append(f"pass {i} counts {p['counts']} differ from pass 0 counts {first}")
    if traced is not None and traced["failed"] == 0:
        reported = sum(v for k, v in traced["counts"].items() if k.endswith("states"))
        if traced["trace"]["count"].get("solver.states", 0) != reported:
            problems.append("traced solver states differ from the states the program reported")
    return problems


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    def med(key):
        return statistics.median(p[key] for p in passes)

    return {
        "cpu_ref_s": (med("ref_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (med("rss_mb"), "MB"),
        "ok_share": (1 - failed / attempted, "ratio"),
    }


def per_layer(passes: list[dict], traced: dict, startup_s: float) -> dict:
    snap = traced["trace"]
    c = snap["count"]
    s = {layer: seconds * traced["scale"] for layer, seconds in snap["self_s"].items()}
    states, hits, calls = c.get("solver.states", 0), c.get("solver.table_hits", 0), c.get("solver.calls", 0)
    children = c.get("games.child", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "graphs.parse.calls": (c.get("graphs.parse.calls", 0), "count"),
        "graphs.parse.self_s": (s.get("graphs.parse", 0.0), "s"),
        "graphs.enumerate.graphs": (c.get("graphs.enumerate.graphs", 0), "count"),
        "graphs.enumerate.self_s": (s.get("graphs.enumerate", 0.0), "s"),
        "posets.parse.self_s": (s.get("posets.parse", 0.0), "s"),
        "posets.closure.calls": (c.get("posets.closure.calls", 0), "count"),
        "posets.closure.elements": (c.get("posets.closure.elements", 0), "count"),
        "posets.closure.self_s": (s.get("posets.closure", 0.0), "s"),
        "posets.validate.self_s": (s.get("posets.validate", 0.0), "s"),
        "posets.init.self_s": (s.get("posets.init", 0.0), "s"),
        "reductions.psi.calls": (c.get("reductions.psi.calls", 0), "count"),
        "reductions.psi.self_s": (s.get("reductions.psi", 0.0), "s"),
        "reductions.phi.calls": (c.get("reductions.phi.calls", 0), "count"),
        "reductions.phi.elements": (c.get("reductions.phi.elements", 0), "count"),
        "reductions.phi.self_s": (s.get("reductions.phi", 0.0), "s"),
        "reductions.upper_cones.self_s": (s.get("reductions.upper_cones", 0.0), "s"),
        "games.build.calls": (c.get("games.build.calls", 0), "count"),
        "games.build.self_s": (s.get("games.build", 0.0), "s"),
        "games.movegen.calls": (c.get("games.moves", 0) + children, "count"),
        "games.movegen.self_s": (s.get("games.movegen", 0.0), "s"),
        "games.children": (children, "count"),
        "solver.calls": (calls, "count"),
        "solver.states": (states, "count"),
        "solver.table_hits": (hits, "count"),
        "solver.hit_rate": (ratio(hits, states + hits), "ratio"),
        "solver.table_peak": (snap["table_peak"], "count"),
        "solver.self_s": (s.get("solver", 0.0), "s"),
        "solver.ns_per_state": (ratio(snap["solver_s"] * traced["scale"] * 1e9, states), "ns"),
        "solver.children_per_state": (ratio(children, states), "ratio"),
        "solver.child_use_ratio": (ratio(states + hits - calls, children), "ratio"),
        "verify.instances": (c.get("verify.instances", 0), "count"),
        "verify.driver.self_s": (s.get("verify.driver", 0.0), "s"),
        "verify.instance_p50_ms": (statistics.median(p["inst_p50_ms"] * p["scale"] for p in passes), "ms"),
        "verify.instance_p99_ms": (statistics.median(p["inst_p99_ms"] * p["scale"] for p in passes), "ms"),
        "cli.startup_s": (startup_s, "s"),
        "trace_overhead": (traced["ref_s"] / statistics.median(p["ref_s"] for p in passes), "ratio"),
    }
    for op in traced["op_s"]:
        metrics[f"cli.op_s.{op}"] = (statistics.median(p["op_s"][op] * p["scale"] for p in passes), "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness test")
    args = parser.parse_args()
    if not (SRC / "posetgames" / "__init__.py").is_file():
        print(f"error: no posetgames sources under {SRC}", file=sys.stderr)
        return 2

    # one CPU for everything, so the probe shares the CPU the pass runs on;
    # threads and processes started from here on inherit the mask
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    probe = SpeedProbe()
    try:
        # a traced run spends half its time on untraced passes, the base of
        # trace_overhead and cli.op_s, and then runs the traced pass
        seconds, min_passes = (args.seconds / 2, 1) if args.trace else (args.seconds, MIN_PASSES)
        passes, lengths = [], []
        # stop before a pass that would likely end after the run's time
        while len(passes) < min_passes or time.monotonic() - start + statistics.median(lengths) <= seconds:
            t0 = time.monotonic()
            passes.append(run_worker(args, deadline, probe))
            lengths.append(time.monotonic() - t0)
        traced = run_worker(args, deadline, probe, "traced") if args.trace else None
        # set-up is short and noisy, so its median takes at least SETUPS samples
        setups = [p["setup_s"] for p in passes]
        while not args.trace and len(setups) < SETUPS:
            setups.append(run_worker(args, deadline, probe, "setup")["setup_s"])
        startup_s = cli_startup_s(probe) if args.trace and args.workload == "cli" else 0.0
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        probe.stop()

    problems = determinism_problems(passes, traced)
    wrong = sum(p["wrong"] for p in passes + ([traced] if traced else []))
    for line in problems + [note for p in passes[:1] for note in p["notes"]]:
        print(line, file=sys.stderr)
    metrics = per_layer(passes, traced, startup_s) if args.trace else end_to_end(passes, setups)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "provenance": provenance(),
        "inputs": passes[0]["sizes"],
        "counts": passes[0]["counts"],
        "deterministic": not problems,
        "setups_s": setups,
        "ref_chunks_per_s": REF_CHUNKS_PER_S,
        "passes": [{k: p[k] for k in ("ref_s", "cpu_s", "wall_s", "speed", "setup_s", "setup_wall_s", "rss_mb", "failed")}
                   for p in passes],
        "notes": passes[0]["notes"],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": wrong == 0 and not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
