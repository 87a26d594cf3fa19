"""Brute-force verification suites for the reductions.

Each suite drives a check over enumerated small graphs (or sampled random
posets), solving both sides with the exhaustive solver and reporting any
disagreement as a failure with the full instance attached.  Runs are
deterministic for a fixed config, including the sampling seed.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace

from .games import KaylesGame, PosetGame, SetGameRules
from .graphs import ENUMERATION_CAP, Graph, enumerate_labeled_graphs, format_graph
from .posets import Poset, format_poset, random_poset
from .reductions import PhiImage, phi, poset_to_setgame, psi
from .solver import (
    BudgetExceeded,
    GameValue,
    SearchStats,
    TranspositionTable,
    grundy,
    solve_winner,
)

# arbitrary constant, fixed so that sampled regimes are reproducible
DEFAULT_SEED = 1381187924
DEFAULT_BUDGET = 5_000_000

SUITES = ("theorem", "lemma1", "lemma2", "lemma3", "lemma4", "setgame", "psi")

# exhaustive (chosen, e) cross products are only affordable for tiny sources;
# larger sources get a fixed-size seeded sample per graph
LEMMA_EXHAUSTIVE_MAX_N = 3
LEMMA_MAX_N = 4
LEMMA_SAMPLES_PER_GRAPH = 32

_SUITE_DEFAULT_MAX_N = {
    "theorem": 4,
    "lemma1": 5,
    "lemma2": LEMMA_MAX_N,
    "lemma3": LEMMA_MAX_N,
    "lemma4": LEMMA_MAX_N,
    "setgame": 3,
    "psi": 6,
}


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    max_n: int | None = None
    seed: int = DEFAULT_SEED
    budget: int = DEFAULT_BUDGET
    jobs: int = 1
    random_posets: int = 200
    max_poset_elements: int = 12

    def resolved_max_n(self) -> int:
        return self.max_n if self.max_n is not None else _SUITE_DEFAULT_MAX_N[self.suite]

    def check(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r} (choose from {', '.join(SUITES)})")
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        n = self.resolved_max_n()
        if n > ENUMERATION_CAP:
            raise ValueError(f"max_n={n} exceeds enumeration cap {ENUMERATION_CAP}")
        if self.suite.startswith("lemma") and self.suite != "lemma1" and n > LEMMA_MAX_N:
            raise ValueError(f"max_n={n} exceeds {self.suite} cap {LEMMA_MAX_N}")


@dataclass
class CheckResult:
    verdict: str  # "pass" | "fail" | "inconclusive"
    states: int = 0
    detail: str = ""


@dataclass
class InstanceResult:
    instance: str
    verdict: str
    states: int
    millis: float
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    config: SuiteConfig
    results: list[InstanceResult] = field(default_factory=list)
    wall_millis: float = 0.0

    @property
    def failures(self) -> list[InstanceResult]:
        return [r for r in self.results if r.verdict == "fail"]

    @property
    def inconclusives(self) -> list[InstanceResult]:
        return [r for r in self.results if r.verdict == "inconclusive"]

    @property
    def passed(self) -> bool:
        return not self.failures and not self.inconclusives

    @property
    def states(self) -> int:
        return sum(r.states for r in self.results)

    def to_text(self) -> str:
        cfg = self.config
        lines = [
            f"suite: {self.suite}",
            f"config: max_n={cfg.resolved_max_n()} seed={cfg.seed} "
            f"budget={cfg.budget} jobs={cfg.jobs}",
            f"instances: {len(self.results)}  failures: {len(self.failures)}  "
            f"inconclusive: {len(self.inconclusives)}",
            f"states: {self.states}  wall_ms: {self.wall_millis:.0f}",
        ]
        for r in self.failures + self.inconclusives:
            lines.append(f"{r.verdict.upper()} {r.instance}: {r.detail}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines) + "\n"

    def to_records(self) -> str:
        out = []
        for r in self.results:
            out.append(
                json.dumps(
                    {
                        "suite": self.suite,
                        "instance": r.instance,
                        "verdict": r.verdict,
                        "states": r.states,
                        "millis": round(r.millis, 3),
                        "detail": r.detail,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# individual checks


def check_psi_properties(g: Graph, psi_fn=psi) -> CheckResult:
    """Structural guarantees the poset construction relies on: the padded
    graph has an odd number of edges, and every vertex has a non-incident
    edge."""
    h = psi_fn(g)
    if len(h.edges) % 2 != 1:
        return CheckResult("fail", 0, f"even edge count {len(h.edges)} on\n{format_graph(g)}")
    for v in range(h.n):
        if not any(v not in e for e in h.edges):
            return CheckResult("fail", 0, f"vertex {v} incident to every edge on\n{format_graph(g)}")
    return CheckResult("pass")


def check_lemma1(g: Graph, budget: int = DEFAULT_BUDGET, psi_fn=psi) -> CheckResult:
    """Padding must not change the Kayles Grundy number."""
    stats = SearchStats(budget=budget)
    try:
        before = grundy(KaylesGame(g), stats=stats)
        after = grundy(KaylesGame(psi_fn(g)), stats=stats)
    except BudgetExceeded:
        return CheckResult("inconclusive", stats.states, "budget exhausted")
    if before != after:
        return CheckResult(
            "fail",
            stats.states,
            f"grundy {before} vs {after} after padding on\n{format_graph(g)}",
        )
    return CheckResult("pass", stats.states)


def check_theorem(g: Graph, budget: int = DEFAULT_BUDGET, psi_fn=psi, phi_fn=phi) -> CheckResult:
    """The Kayles winner on g must match the poset-game winner on its image."""
    stats = SearchStats(budget=budget)
    try:
        kayles = solve_winner(KaylesGame(g), stats=stats)
        image = phi_fn(psi_fn(g))
        posets = solve_winner(PosetGame(image.poset), stats=stats)
    except BudgetExceeded:
        return CheckResult("inconclusive", stats.states, "budget exhausted")
    if kayles != posets:
        return CheckResult(
            "fail",
            stats.states,
            f"kayles={kayles.value} poset={posets.value} on\n{format_graph(g)}",
        )
    return CheckResult("pass", stats.states)


def check_setgame_equiv(p: Poset, budget: int = DEFAULT_BUDGET) -> CheckResult:
    """A poset and its upper-cone set game must have equal Grundy numbers."""
    stats = SearchStats(budget=budget)
    try:
        gp = grundy(PosetGame(p), stats=stats)
        gs = grundy(SetGameRules(poset_to_setgame(p)), stats=stats)
    except BudgetExceeded:
        return CheckResult("inconclusive", stats.states, "budget exhausted")
    if gp != gs:
        return CheckResult(
            "fail", stats.states, f"poset grundy {gp} vs set game {gs} on\n{format_poset(p)}"
        )
    return CheckResult("pass", stats.states)


class BOnlyContext:
    """Shared solver state for probing positions reachable by picks from the
    vertex level only.

    Vertex-level elements are pairwise incomparable and are removed only by
    being picked directly, so a history that stays on that level is just a
    subset of vertices; order does not matter.
    """

    def __init__(self, g: Graph, budget: int = DEFAULT_BUDGET, psi_fn=psi, phi_fn=phi):
        self.source = g
        self.padded = psi_fn(g)
        self.image: PhiImage = phi_fn(self.padded)
        self.game = PosetGame(self.image.poset)
        self.table = TranspositionTable()
        self.stats = SearchStats(budget=budget)

    def position_after(self, chosen) -> int:
        pos = self.game.initial()
        for v in chosen:
            pos &= ~self.image.poset.up[self.image.b_of_vertex(v)]
        return pos

    def winner_from(self, pos: int) -> GameValue:
        return solve_winner(self.game, pos, self.table, stats=self.stats)

    def remaining_b(self, pos: int) -> list[int]:
        return [b for b in self.image.b_elements() if pos >> b & 1]


def _endpoint_split(ctx: BOnlyContext, chosen, e):
    u, v = min(e), max(e)
    if (u, v) not in ctx.padded.edges:
        raise ValueError(f"({u}, {v}) is not an edge of the padded graph")
    bad = [w for w in chosen if not 0 <= w < ctx.padded.n]
    if bad:
        raise ValueError(f"chosen vertices {bad} out of range")
    return (u in chosen) + (v in chosen)


def check_lemma2(g: Graph, chosen, e, ctx: BOnlyContext | None = None,
                 budget: int = DEFAULT_BUDGET) -> CheckResult:
    """With both endpoints of e already picked, the low copy of e must be a
    winning move."""
    ctx = ctx or BOnlyContext(g, budget)
    if _endpoint_split(ctx, chosen, e) != 2:
        raise ValueError("lemma2 needs both endpoints of e in the chosen set")
    pos = ctx.position_after(chosen)
    a = ctx.image.a_of_edge(e)
    try:
        reply = ctx.winner_from(ctx.game.apply(pos, a))
    except BudgetExceeded:
        return CheckResult("inconclusive", ctx.stats.states, "budget exhausted")
    if reply is not GameValue.LOSS:
        return CheckResult(
            "fail",
            ctx.stats.states,
            f"gamma({e}) not winning after chosen={sorted(chosen)} on\n{format_graph(g)}",
        )
    return CheckResult("pass", ctx.stats.states)


def check_lemma3(g: Graph, chosen, e, ctx: BOnlyContext | None = None,
                 budget: int = DEFAULT_BUDGET) -> CheckResult:
    """With exactly one endpoint picked, the low copy of e must be a losing
    move, and playing it must strand exactly one vertex-level element."""
    ctx = ctx or BOnlyContext(g, budget)
    if _endpoint_split(ctx, chosen, e) != 1:
        raise ValueError("lemma3 needs exactly one endpoint of e in the chosen set")
    pos = ctx.position_after(chosen)
    a = ctx.image.a_of_edge(e)
    child = ctx.game.apply(pos, a)
    left_in_b = ctx.remaining_b(child)
    if len(left_in_b) != 1:
        return CheckResult(
            "fail",
            ctx.stats.states,
            f"{len(left_in_b)} vertex-level elements left after gamma({e}), "
            f"chosen={sorted(chosen)} on\n{format_graph(g)}",
        )
    try:
        reply = ctx.winner_from(child)
    except BudgetExceeded:
        return CheckResult("inconclusive", ctx.stats.states, "budget exhausted")
    if reply is not GameValue.WIN:
        return CheckResult(
            "fail",
            ctx.stats.states,
            f"gamma({e}) not losing after chosen={sorted(chosen)} on\n{format_graph(g)}",
        )
    return CheckResult("pass", ctx.stats.states)


def check_lemma4(g: Graph, chosen, e, ctx: BOnlyContext | None = None,
                 budget: int = DEFAULT_BUDGET) -> CheckResult:
    """With neither endpoint picked, both e and its low copy must be losing
    moves."""
    ctx = ctx or BOnlyContext(g, budget)
    if _endpoint_split(ctx, chosen, e) != 0:
        raise ValueError("lemma4 needs neither endpoint of e in the chosen set")
    pos = ctx.position_after(chosen)
    c = ctx.image.c_of_edge(e)
    if not pos >> c & 1:
        raise ValueError(f"edge {e} already removed from the position")
    for label, move in (("e", c), ("gamma(e)", ctx.image.a_of_edge(e))):
        try:
            reply = ctx.winner_from(ctx.game.apply(pos, move))
        except BudgetExceeded:
            return CheckResult("inconclusive", ctx.stats.states, "budget exhausted")
        if reply is not GameValue.WIN:
            return CheckResult(
                "fail",
                ctx.stats.states,
                f"{label} for {e} not losing, chosen={sorted(chosen)} on\n{format_graph(g)}",
            )
    return CheckResult("pass", ctx.stats.states)


# ---------------------------------------------------------------------------
# suite driver


def _lemma_cases(ctx: BOnlyContext, which: int, graph_index: int, seed: int):
    """(chosen, e) pairs qualifying for a lemma: endpoints-chosen count
    ``which``.  Exhaustive for tiny sources, seeded sample otherwise."""
    h = ctx.padded
    edges = sorted(h.edges)
    if ctx.source.n <= LEMMA_EXHAUSTIVE_MAX_N:
        for bits in range(1 << h.n):
            chosen = frozenset(v for v in range(h.n) if bits >> v & 1)
            for e in edges:
                if (e[0] in chosen) + (e[1] in chosen) == which:
                    yield chosen, e
        return
    rng = random.Random(seed * 1_000_003 + graph_index)
    for _ in range(LEMMA_SAMPLES_PER_GRAPH):
        e = edges[rng.randrange(len(edges))]
        others = [v for v in range(h.n) if v not in e]
        base = {v for v in others if rng.random() < 0.5}
        if which == 2:
            chosen = base | set(e)
        elif which == 1:
            chosen = base | {e[rng.randrange(2)]}
        else:
            chosen = base
        yield frozenset(chosen), e


def _run_lemma_suite(which: int, check, cfg: SuiteConfig, psi_fn, phi_fn):
    results = []
    for n in range(1, cfg.resolved_max_n() + 1):
        for gi, g in enumerate(enumerate_labeled_graphs(n)):
            ctx = BOnlyContext(g, cfg.budget, psi_fn, phi_fn)
            before = 0
            for ci, (chosen, e) in enumerate(_lemma_cases(ctx, which, gi, cfg.seed)):
                t0 = time.perf_counter()
                res = check(g, chosen, e, ctx=ctx)
                millis = (time.perf_counter() - t0) * 1000
                states = res.states - before
                before = res.states
                results.append(
                    InstanceResult(f"n={n}/g={gi}/case={ci}", res.verdict, states, millis, res.detail)
                )
    return results


def _graph_instances(cfg: SuiteConfig):
    for n in range(1, cfg.resolved_max_n() + 1):
        for gi, g in enumerate(enumerate_labeled_graphs(n)):
            yield f"n={n}/g={gi}", g


def _setgame_instances(cfg: SuiteConfig, psi_fn, phi_fn):
    limit = min(cfg.resolved_max_n(), 3)
    for n in range(1, limit + 1):
        for gi, g in enumerate(enumerate_labeled_graphs(n)):
            yield f"phi-image/n={n}/g={gi}", phi_fn(psi_fn(g)).poset
    for i in range(cfg.random_posets):
        rng = random.Random(cfg.seed * 1_000_003 + i)
        m = rng.randint(1, cfg.max_poset_elements)
        density = rng.uniform(0.1, 0.9)
        yield f"random/{i}/m={m}", random_poset(m, density, cfg.seed * 7_919 + i)


def _timed(check, instance):
    t0 = time.perf_counter()
    res = check(instance)
    millis = (time.perf_counter() - t0) * 1000
    return res, millis


_LEMMA_WHICH = {"lemma2": 2, "lemma3": 1, "lemma4": 0}
_LEMMA_CHECKS = {"lemma2": check_lemma2, "lemma3": check_lemma3, "lemma4": check_lemma4}


def run_suite(config: SuiteConfig, psi_fn=psi, phi_fn=phi) -> SuiteReport:
    """Run one verification suite; deterministic for a fixed config."""
    config.check()
    t0 = time.perf_counter()
    suite = config.suite
    if suite in _LEMMA_WHICH:
        results = _run_lemma_suite(
            _LEMMA_WHICH[suite], _LEMMA_CHECKS[suite], config, psi_fn, phi_fn
        )
    elif suite == "psi":
        results = [
            InstanceResult(name, *_flatten(_timed(lambda g: check_psi_properties(g, psi_fn), g)))
            for name, g in _graph_instances(config)
        ]
    elif suite == "lemma1":
        results = [
            InstanceResult(name, *_flatten(_timed(lambda g: check_lemma1(g, config.budget, psi_fn), g)))
            for name, g in _graph_instances(config)
        ]
    elif suite == "theorem":
        results = _map_instances(
            config,
            list(_graph_instances(config)),
            lambda g: check_theorem(g, config.budget, psi_fn, phi_fn),
            psi_fn,
            phi_fn,
        )
    elif suite == "setgame":
        results = [
            InstanceResult(name, *_flatten(_timed(lambda p: check_setgame_equiv(p, config.budget), p)))
            for name, p in _setgame_instances(config, psi_fn, phi_fn)
        ]
    else:  # pragma: no cover - guarded by config.check()
        raise ValueError(suite)
    report = SuiteReport(suite, config, results)
    report.wall_millis = (time.perf_counter() - t0) * 1000
    return report


def _flatten(timed_result):
    res, millis = timed_result
    return res.verdict, res.states, millis, res.detail


def _theorem_worker(args):
    name, text, budget = args
    from .graphs import parse_graph

    res, millis = _timed(lambda g: check_theorem(g, budget), parse_graph(text))
    return InstanceResult(name, res.verdict, res.states, millis, res.detail)


def _map_instances(config, named, check, psi_fn, phi_fn):
    if config.jobs > 1 and psi_fn is psi and phi_fn is phi:
        from concurrent.futures import ProcessPoolExecutor

        args = [(name, format_graph(g), config.budget) for name, g in named]
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            return list(pool.map(_theorem_worker, args))
    return [InstanceResult(name, *_flatten(_timed(check, g))) for name, g in named]


def run_all(config: SuiteConfig) -> list[SuiteReport]:
    """Run every suite with its default regime, reusing seed/budget/jobs."""
    reports = []
    for suite in SUITES:
        cfg = replace(config, suite=suite, max_n=None)
        reports.append(run_suite(cfg))
    return reports
