"""The benchmark's workloads.

Each workload builds its inputs from the seed (set-up), runs one pass over
them (the timed part), and then checks the pass's answers against
``references`` (untimed).  An operation fails if its verdict is ``fail`` or
``inconclusive``, if its answer differs from the reference, or if it exits
outside its contract; an answer that differs from its reference also counts
as wrong, which makes the run incorrect.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from posetgames import games, graphs, posets, solver, verify

import references as ref

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Outcome:
    """Checked result of one pass."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)
    inst_ms: list[float] = field(default_factory=list)  # verification instances only
    counts: dict[str, int] = field(default_factory=dict)
    op_s: dict[str, float] = field(default_factory=dict)

    def add(self, ok: bool, note: str = "", wrong: bool = False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += wrong
            if len(self.notes) < 5:
                self.notes.append(note)


# ---------------------------------------------------------------------------
# verification suites, in process


class VerifySuites:
    """``run_suite`` over fixed regimes; the seed does not enter, because the
    regimes are exhaustive or sampled with the suites' own default seed."""

    def __init__(self, configs: list[verify.SuiteConfig]):
        self.configs = configs
        self.sizes = {f"{c.suite}.max_n": c.resolved_max_n() for c in configs}
        self.sizes["sampling_seed"] = configs[0].seed

    def run(self, tracer):
        fns = {"psi_fn": tracer.psi, "phi_fn": tracer.phi} if tracer else {}
        reports = []
        for cfg in self.configs:
            try:
                reports.append((cfg, verify.run_suite(cfg, **fns)))
            except Exception as exc:  # the suite's instances all count as failed
                reports.append((cfg, exc))
        return reports

    def check(self, reports) -> Outcome:
        out = Outcome()
        for cfg, report in reports:
            expected = ref.regime_instances(cfg.suite, cfg.resolved_max_n(), cfg.random_posets)
            if isinstance(report, Exception):
                for _ in range(expected):
                    out.add(False, f"{cfg.suite}: {report!r}")
                continue
            for r in report.results:
                out.add(r.verdict == "pass", f"{cfg.suite} {r.instance}: {r.verdict} {r.detail}",
                        wrong=r.verdict == "fail")
                out.inst_ms.append(r.millis)
            out.counts[f"{cfg.suite}.instances"] = len(report.results)
            out.counts[f"{cfg.suite}.states"] = report.states
            if len(report.results) != expected:
                out.add(False, f"{cfg.suite}: {len(report.results)} instances, regime has {expected}",
                        wrong=True)
        return out


def theorem_n5(seed: int, smoke: bool, workdir: Path) -> VerifySuites:
    return VerifySuites([verify.SuiteConfig("theorem", max_n=3 if smoke else 5)])


def suites_default(seed: int, smoke: bool, workdir: Path) -> VerifySuites:
    if smoke:
        return VerifySuites([verify.SuiteConfig(s, max_n=2, random_posets=5) for s in verify.SUITES])
    return VerifySuites([verify.SuiteConfig(s) for s in verify.SUITES])


# ---------------------------------------------------------------------------
# game sums, in process


class GameSums:
    """Positions that split into independent components: Kayles on a path,
    and two reversed chains (listed top-first, so the lowest-index move
    removes only a top element and the search runs deep)."""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.path_n = 8 if smoke else 27
        self.chains = (6, 4) if smoke else (120, 100)
        self.path_edges = [(i, i + 1) for i in range(self.path_n - 1)]
        self.chain_pairs, base = [], 0
        for length in self.chains:
            self.chain_pairs += [(base + i + 1, base + i) for i in range(length - 1)]
            base += length
        self.sizes = {"kayles_path": self.path_n, "reversed_chains": list(self.chains)}

    def run(self, tracer):
        m = sum(self.chains)
        ops = (
            ("kayles_path_grundy", solver.grundy,
             lambda: games.KaylesGame(graphs.Graph.of(self.path_n, self.path_edges))),
            ("chain_sum_grundy", solver.grundy,
             lambda: games.PosetGame(posets.Poset.from_pairs(m, self.chain_pairs))),
            ("chain_sum_winner", solver.solve_winner,
             lambda: games.PosetGame(posets.Poset.from_pairs(m, self.chain_pairs))),
        )
        results = []
        for name, solve, build in ops:
            table, stats = solver.TranspositionTable(), solver.SearchStats()
            try:
                value = solve(build(), table=table, stats=stats)
            except Exception as exc:
                value = exc
            results.append((name, value, stats.states, table.hits))
        return results

    def check(self, results) -> Outcome:
        chains = ref.sum_grundy(*(ref.chain_grundy(c) for c in self.chains))
        expected = {
            "kayles_path_grundy": ref.dawson_path_grundy(self.path_n),
            "chain_sum_grundy": chains,
            "chain_sum_winner": solver.GameValue.WIN if chains else solver.GameValue.LOSS,
        }
        out = Outcome()
        for name, value, states, hits in results:
            want = expected[name]
            raised = isinstance(value, Exception)
            # a bool is an int in Python, but True is not a Grundy number
            ok = not raised and type(value) is type(want) and value == want
            out.add(ok, f"{name}: got {value!r}, reference {want!r}", wrong=not raised)
            out.counts[f"{name}.states"] = states
            out.counts[f"{name}.hits"] = hits
        return out


# ---------------------------------------------------------------------------
# the command-line interface, one child process per operation

_STATS = re.compile(r"states=(\d+) hits=(\d+)")


_CLI_ARGS = {
    "reduce_kayles_poset": ["reduce", "reduce.graph", "--from", "kayles", "--to", "poset",
                            "--out", "image.poset", "--map-out", "image.map", "--dot", "image.dot"],
    "reduce_poset_setgame": ["reduce", "image.poset", "--from", "poset", "--to", "setgame",
                             "--out", "image.sets"],
    "winner_poset_chain": ["winner", "bottom.poset", "--game", "poset"],
    "grundy_poset_chain": ["grundy", "top.poset", "--game", "poset"],
    "winner_kayles": ["winner", "kayles.graph", "--game", "kayles"],
}
CLI_OPS = tuple(_CLI_ARGS)


def _pairs_text(m: int, pairs) -> str:
    return f"{m}\n" + "".join(f"{x} {y}\n" for x, y in pairs)


def _parse_pairs(text: str) -> tuple[int, list[tuple[int, int]]]:
    rows = [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]
    return int(rows[0][0]), [(int(x), int(y)) for x, y in rows[1:]]


class CliRuns:
    """Sequential runs of ``python -m posetgames.cli``: a reduction chain on a
    seeded G(60, 0.15), a long chain whose parsing dominates, a top-first
    chain whose depth exceeds the recursion limit, and a small Kayles
    board whose run is mostly process start."""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = random.Random(seed)
        self.reduce_n, self.kayles_n = (10, 8) if smoke else (60, 24)
        self.bottom_first, self.top_first = (30, 12) if smoke else (1500, 600)
        p = 0.3 if smoke else 0.15
        self.reduce_edges = ref.random_graph(self.reduce_n, p, rng)
        self.kayles_edges = ref.random_graph(self.kayles_n, p, rng)
        self.dir = workdir
        files = {
            "reduce.graph": _pairs_text(self.reduce_n, self.reduce_edges),
            "kayles.graph": _pairs_text(self.kayles_n, self.kayles_edges),
            "bottom.poset": _pairs_text(self.bottom_first, ((i, i + 1) for i in range(self.bottom_first - 1))),
            "top.poset": _pairs_text(self.top_first, ((i + 1, i) for i in range(self.top_first - 1))),
        }
        for name, text in files.items():
            (workdir / name).write_text(text)
        self.sizes = {
            "reduce_graph": [self.reduce_n, len(self.reduce_edges)],
            "kayles_graph": [self.kayles_n, len(self.kayles_edges)],
            "chain_bottom_first": self.bottom_first,
            "chain_top_first": self.top_first,
        }

    def run(self, tracer):
        results = []
        for name, args in _CLI_ARGS.items():
            if tracer is None:
                cmd = [sys.executable, "-m", "posetgames.cli", *args]
            else:
                trace_file = self.dir / f"{name}.trace.json"
                cmd = [sys.executable, str(BENCH_DIR / "cli_trace.py"), str(trace_file), *args]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=self.dir, capture_output=True, text=True, timeout=120)
                done = (proc.returncode, proc.stdout, proc.stderr)
            except subprocess.TimeoutExpired:
                done = (None, "", "timed out after 120 s")
            seconds = time.perf_counter() - t0
            results.append((name, *done, seconds))
            if tracer is not None and trace_file.exists():
                tracer.merge(json.loads(trace_file.read_text()))
        return results

    def check(self, results) -> Outcome:
        out = Outcome()
        for name, rc, stdout, stderr, seconds in results:
            problem, wrong = self._judge(name, rc, stdout.strip())
            tail = stderr.strip().splitlines()[-1:] or [""]
            out.add(problem is None, f"{name}: {problem} (exit {rc}; {tail[0][:200]})", wrong=wrong)
            out.op_s[name] = seconds
            stats = _STATS.search(stderr)
            if stats:
                out.counts[f"{name}.states"] = int(stats.group(1))
                out.counts[f"{name}.hits"] = int(stats.group(2))
        return out

    def _judge(self, name: str, rc, stdout: str):
        """(problem or None, whether the problem is a wrong answer)."""
        if name == "winner_poset_chain":
            return _verdict(rc, stdout, ref.chain_grundy(self.bottom_first) != 0)
        if name == "winner_kayles":
            return _verdict(rc, stdout, ref.kayles_grundy(self.kayles_n, self.kayles_edges) != 0)
        if rc != 0:
            return f"exit code {rc}, contract is 0", False
        if name == "grundy_poset_chain":
            want = str(ref.chain_grundy(self.top_first))
            return (None, False) if stdout == want else (f"printed {stdout!r}, reference {want}", True)
        try:
            problems = self._reduction_problems(name)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return (None, False) if not problems else ("; ".join(problems[:3]), True)

    def _reduction_problems(self, name: str) -> list[str]:
        m, pairs = _parse_pairs((self.dir / "image.poset").read_text())
        rows = ref.closure(m, pairs)
        if name == "reduce_poset_setgame":
            lines = (self.dir / "image.sets").read_text().split("\n")
            if lines[0].split() != [str(m), str(m)]:
                return [f"set-game header {lines[0]!r}, expected '{m} {m}'"]
            return [f"set {x} is not the upper cone of {x}" for x in range(m)
                    if {int(t) for t in lines[1 + x].split()} != set(ref.bits(rows[x]))]
        return self._phi_problems(m, rows)

    def _phi_problems(self, m: int, rows: list[int]) -> list[str]:
        """The poset must be the closure of the three-level relation over a
        padding of the source graph, as laid out by the element map."""
        a_of, b_of, c_of = {}, {}, {}
        for line in (self.dir / "image.map").read_text().splitlines():
            kind, *nums = line.split()
            *key, index = map(int, nums)
            {"A": a_of, "B": b_of, "C": c_of}[kind][tuple(key)] = index
        edges, n = set(a_of), self.reduce_n
        nv = len(b_of)
        problems = []
        if sorted(list(a_of.values()) + list(b_of.values()) + list(c_of.values())) != list(range(m)):
            problems.append("element map is not a permutation of the poset's elements")
        if set(c_of) != edges or set(b_of) != {(v,) for v in range(nv)} or m != nv + 2 * len(edges):
            problems.append("element map levels disagree")
        if {e for e in edges if e[1] < n} != set(self.reduce_edges) or any(u < n <= v for u, v in edges):
            problems.append("padding changed the source graph")
        if len(edges) % 2 != 1 or any(all(w in e for e in edges) for w in range(nv)):
            problems.append("padded graph lacks odd edge count or non-incident edges")
        if problems:
            return problems
        generators = [
            (b_of[(w,)], c_of[e]) if w in e else (a_of[e], b_of[(w,)])
            for e in edges for w in range(nv)
        ]
        if ref.closure(m, generators) != rows:
            problems.append("poset is not the closure of the three-level relation")
        dot = (self.dir / "image.dot").read_text()
        arcs = {tuple(map(int, a)) for a in re.findall(r"^\s*(\d+) -> (\d+);", dot, re.M)}
        nodes = {int(x) for x in re.findall(r"^\s*(\d+)(?: \[[^\]]*\])?;", dot, re.M)}
        if nodes != set(range(m)) or arcs != ref.cover_pairs(rows):
            problems.append("DOT diagram is not the Hasse diagram")
        return problems


def _verdict(rc, stdout: str, first_wins: bool):
    """``winner`` prints first/second and exits 0/1 accordingly."""
    want, want_rc = ("first", 0) if first_wins else ("second", 1)
    if rc not in (0, 1):
        return f"exit code {rc}, contract is 0 or 1", False
    if stdout != want or rc != want_rc:
        return f"printed {stdout!r} with exit {rc}, reference {want!r} with exit {want_rc}", True
    return None, False


WORKLOADS = {
    "theorem-n5": theorem_n5,
    "suites-default": suites_default,
    "game-sums": GameSums,
    "cli": CliRuns,
}
