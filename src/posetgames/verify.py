"""Brute-force verification suites for the reductions.

A suite is a stream of units: enumerated small source graphs, or for
``setgame`` posets.  Each unit runs its checks, solving both sides with the
exhaustive solver and reporting any disagreement as a failure with the full
instance attached.  ``run_suite`` maps one function over the units, in this
process or in ``jobs`` workers, with the same report either way.  Runs are
deterministic for a fixed config, including the sampling seed.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from functools import partial

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

# exhaustive (chosen, e) cross products are only affordable for tiny sources;
# larger sources get a fixed-size seeded sample per graph
LEMMA_EXHAUSTIVE_MAX_N = 3
LEMMA_MAX_N = 4
LEMMA_SAMPLES_PER_GRAPH = 32

# suite -> (default max_n, largest max_n accepted).  setgame Grundy-solves
# the phi images of its sources on both sides: max_n=4 takes about 21 s
# against 0.7 s at 3 (2-CPU VM, Python 3.11).
_SUITE_MAX_N = {
    "theorem": (4, ENUMERATION_CAP),
    "lemma1": (5, ENUMERATION_CAP),
    "lemma2": (LEMMA_MAX_N, LEMMA_MAX_N),
    "lemma3": (LEMMA_MAX_N, LEMMA_MAX_N),
    "lemma4": (LEMMA_MAX_N, LEMMA_MAX_N),
    "setgame": (3, 3),
    "psi": (6, ENUMERATION_CAP),
}
SUITES = tuple(_SUITE_MAX_N)


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
        return self.max_n if self.max_n is not None else _SUITE_MAX_N[self.suite][0]

    def check(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r} (choose from {', '.join(SUITES)})")
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        n = self.resolved_max_n()
        cap = _SUITE_MAX_N[self.suite][1]
        if n > cap:
            raise ValueError(f"max_n={n} exceeds {self.suite} cap {cap}")


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


# lemma suite -> (endpoints of e in the chosen set, check)
_LEMMA_CHECKS = {"lemma2": (2, check_lemma2), "lemma3": (1, check_lemma3), "lemma4": (0, check_lemma4)}


def _units(cfg: SuiteConfig, psi_fn, phi_fn):
    """(name, index, instance) for each unit of a suite, in report order:
    the source graphs, or for ``setgame`` their phi images, then random posets."""
    for n in range(1, cfg.resolved_max_n() + 1):
        for gi, g in enumerate(enumerate_labeled_graphs(n)):
            if cfg.suite == "setgame":
                yield f"phi-image/n={n}/g={gi}", gi, phi_fn(psi_fn(g)).poset
            else:
                yield f"n={n}/g={gi}", gi, g
    if cfg.suite == "setgame":
        for i in range(cfg.random_posets):
            rng = random.Random(cfg.seed * 1_000_003 + i)
            m = rng.randint(1, cfg.max_poset_elements)
            density = rng.uniform(0.1, 0.9)
            yield f"random/{i}/m={m}", i, random_poset(m, density, cfg.seed * 7_919 + i)


def _run_unit(cfg: SuiteConfig, psi_fn, phi_fn, unit) -> list[InstanceResult]:
    """Run and time each check of one unit.

    A lemma unit has one check per (chosen, e) case, on one shared context
    that counts states across them; each result gets the states its own
    check added.
    """
    name, index, instance = unit
    if cfg.suite == "theorem":
        checks = [(name, partial(check_theorem, instance, cfg.budget, psi_fn, phi_fn))]
    elif cfg.suite == "lemma1":
        checks = [(name, partial(check_lemma1, instance, cfg.budget, psi_fn))]
    elif cfg.suite == "psi":
        checks = [(name, partial(check_psi_properties, instance, psi_fn))]
    elif cfg.suite == "setgame":
        checks = [(name, partial(check_setgame_equiv, instance, cfg.budget))]
    else:
        which, lemma = _LEMMA_CHECKS[cfg.suite]
        ctx = BOnlyContext(instance, cfg.budget, psi_fn, phi_fn)
        cases = enumerate(_lemma_cases(ctx, which, index, cfg.seed))
        checks = (
            (f"{name}/case={ci}", partial(lemma, instance, chosen, e, ctx=ctx))
            for ci, (chosen, e) in cases
        )
    results = []
    before = 0
    for case, check in checks:
        t0 = time.perf_counter()
        res = check()
        millis = (time.perf_counter() - t0) * 1000
        results.append(InstanceResult(case, res.verdict, res.states - before, millis, res.detail))
        before = res.states
    return results


def run_suite(config: SuiteConfig, psi_fn=psi, phi_fn=phi) -> SuiteReport:
    """Run one verification suite; deterministic for a fixed config.

    With ``jobs > 1`` the units, ``psi_fn`` and ``phi_fn`` are pickled to a
    process pool, which returns the units' results in the same order.
    """
    config.check()
    t0 = time.perf_counter()
    run = partial(_run_unit, config, psi_fn, phi_fn)
    units = _units(config, psi_fn, phi_fn)
    if config.jobs == 1:
        per_unit = map(run, units)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only parallel runs load it

        units = list(units)
        # eight chunks per worker: few round trips, and late chunks even out uneven units
        chunksize = max(1, len(units) // (8 * config.jobs))
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            per_unit = list(pool.map(run, units, chunksize=chunksize))
    results = [r for unit_results in per_unit for r in unit_results]
    report = SuiteReport(config.suite, config, results)
    report.wall_millis = (time.perf_counter() - t0) * 1000
    return report
