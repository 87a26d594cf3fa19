"""Brute-force verification suites for the reductions.

A suite is a stream of units: enumerated small source graphs, or for
``setgame`` posets.  Each unit runs its checks, solving both sides with the
exhaustive solver and reporting any disagreement as a failure with the full
instance attached.  ``run_suite`` maps one function over the units, in this
process or in ``jobs`` workers, with the same report either way.  Runs are
deterministic for a fixed config, including the sampling seed.

A check returns what is wrong, or None when it holds, and counts the states
of its solves in the ``SearchStats`` it is given.  ``_run_unit`` gives each
check a budgeted one, times it and turns its answer into a verdict.  Lemmas
2-4 are one check driven by the ``_LEMMAS`` table, and the ``_SUITES`` table
holds all ``run_suite`` knows about a suite.  A lemma unit is one source
graph and its ``BOnlyContext``: ``_run_unit`` checks its cases, each a mask
of vertex picks and an edge, in one loop on that context, which caches the
position after each mask.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from .games import KaylesGame, PosetGame, SetGameRules
from .graphs import ENUMERATION_CAP, Graph, enumerate_labeled_graphs, format_graph, mask_to_sorted
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
from .suites import DEFAULT_BUDGET, DEFAULT_SEED, SUITES

# exhaustive (chosen, e) cross products are only affordable for tiny sources;
# larger sources get a fixed-size seeded sample per graph
LEMMA_EXHAUSTIVE_MAX_N = 3
LEMMA_MAX_N = 4
LEMMA_SAMPLES_PER_GRAPH = 32


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
        return self.max_n if self.max_n is not None else _SUITES[self.suite].default_max_n

    def check(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r} (choose from {', '.join(SUITES)})")
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.random_posets < 0:
            raise ValueError("random_posets must not be negative")
        if self.max_poset_elements < 1:
            raise ValueError("max_poset_elements must be at least 1")
        n, cap = self.resolved_max_n(), _SUITES[self.suite].cap
        if not 1 <= n <= cap:
            raise ValueError(f"max_n={n} is not between 1 and the {self.suite} cap {cap}")


@dataclass(slots=True)  # one per case, and a report holds them all
class InstanceResult:
    instance: str
    verdict: str  # "pass" | "fail" | "inconclusive"
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


def check_psi_properties(g: Graph, stats: SearchStats, psi_fn=psi, phi_fn=phi) -> str | None:
    """Structural guarantees the poset construction relies on: the padded
    graph has an odd number of edges, and every vertex has a non-incident
    edge."""
    h = psi_fn(g)
    if len(h.edges) % 2 != 1:
        return f"even edge count {len(h.edges)}"
    common = (1 << h.n) - 1  # the vertices on every edge seen so far
    for u, v in h.edges:
        common &= 1 << u | 1 << v
        if not common:
            return None
    return f"vertex {(common & -common).bit_length() - 1} incident to every edge"


def check_lemma1(g: Graph, stats: SearchStats, psi_fn=psi, phi_fn=phi) -> str | None:
    """Padding must not change the Kayles Grundy number."""
    before = grundy(KaylesGame(g), stats=stats)
    after = grundy(KaylesGame(psi_fn(g)), stats=stats)
    if before != after:
        return f"grundy {before} vs {after} after padding"
    return None


def check_theorem(g: Graph, stats: SearchStats, psi_fn=psi, phi_fn=phi) -> str | None:
    """The Kayles winner on g must match the poset-game winner on its image."""
    kayles = solve_winner(KaylesGame(g), stats=stats)
    posets = solve_winner(PosetGame(phi_fn(psi_fn(g)).poset), stats=stats)
    if kayles != posets:
        return f"kayles={kayles.value} poset={posets.value}"
    return None


def check_setgame_equiv(p: Poset, stats: SearchStats, psi_fn=psi, phi_fn=phi) -> str | None:
    """A poset and its upper-cone set game must have equal Grundy numbers."""
    gp = grundy(PosetGame(p), stats=stats)
    gs = grundy(SetGameRules(poset_to_setgame(p)), stats=stats)
    if gp != gs:
        return f"poset grundy {gp} vs set game {gs}"
    return None


class BOnlyContext:
    """Shared solver state for probing positions reachable by picks from the
    vertex level only.

    Vertex-level elements are pairwise incomparable and are removed only by
    being picked directly, so a history that stays on that level is just a
    subset of vertices; order does not matter.  What every probe reads is
    built once: ``cones[v]``, the up-cone mask of vertex v's element;
    ``edges[e]``, edge e's low copy, its element and the mask of its
    endpoints; ``b_mask``, the vertex level.  The position after each set of
    picks is cached by the set's mask, since the exhaustive cases pick one
    set for every edge in turn.  The probes share one table, but each check
    counts its states in its own ``SearchStats``, so its verdict does not
    depend on the checks before it.
    """

    def __init__(self, g: Graph, psi_fn=psi, phi_fn=phi):
        self.source = g
        self.padded = psi_fn(g)
        self.image: PhiImage = phi_fn(self.padded)
        self.game = PosetGame(self.image.poset)
        self.table = TranspositionTable()
        up, b_elements = self.image.poset.up, self.image.b_elements()
        self.cones = tuple(up[b] for b in b_elements)
        c_elements = self.image.c_elements()
        self.edges = {
            e: (a, c_elements[a], 1 << e[0] | 1 << e[1]) for a, e in enumerate(self.image.edge_order)
        }
        self.b_mask = sum(1 << b for b in b_elements)
        self._positions = {0: self.game.initial()}

    def _after(self, chosen: int) -> int:
        """The position after picking the vertices in the mask ``chosen``."""
        pos = self._positions.get(chosen)
        if pos is None:
            rest = chosen & (chosen - 1)  # all picks but the lowest
            pos = self._after(rest) & ~self.cones[(chosen ^ rest).bit_length() - 1]
            self._positions[chosen] = pos
        return pos


# lemma -> (endpoints of e in the chosen set, the moves probed in turn, each
# with its place in an ``edges`` entry, the value each probe's child must
# have, fail detail).  With both endpoints of e picked, gamma(e) must win
# (Lemma 2); with one, it must lose and leave exactly one vertex-level element
# (Lemma 3); with neither, e and gamma(e) must both lose (Lemma 4).
_LEMMAS = {
    "lemma2": (2, (("gamma(e)", 0),), GameValue.LOSS, "gamma({e}) not winning after chosen={chosen}"),
    "lemma3": (1, (("gamma(e)", 0),), GameValue.WIN, "gamma({e}) not losing after chosen={chosen}"),
    "lemma4": (0, (("e", 1), ("gamma(e)", 0)), GameValue.WIN,
               "{probe} for {e} not losing, chosen={chosen}"),
}
_ENDPOINTS = ("neither endpoint", "exactly one endpoint", "both endpoints")


def _check_lemma(lemma: str, ctx: BOnlyContext, chosen: int, e, stats: SearchStats) -> str | None:
    """Play each probed move of ``lemma`` after picking the vertices in the
    mask ``chosen``, and check the value of its child.  The edge, its
    endpoints in ``chosen`` and the probed elements are checked before the
    first solve."""
    endpoints, probes, reply, detail = _LEMMAS[lemma]
    edge = ctx.edges.get(e)
    if edge is None:
        raise ValueError(f"{e} is not an edge of the padded graph")
    if (chosen & edge[2]).bit_count() != endpoints:
        raise ValueError(f"{lemma} needs {_ENDPOINTS[endpoints]} of e in the chosen set")
    pos = ctx._after(chosen)
    for _, k in probes:
        if not pos >> edge[k] & 1:
            raise ValueError(f"edge {e} already removed from the position")
    for probe, k in probes:
        child = pos & ~ctx.game.kill[edge[k]]
        if lemma == "lemma3" and (left := (child & ctx.b_mask).bit_count()) != 1:
            return (f"{left} vertex-level elements left after gamma({e}), "
                    f"chosen={mask_to_sorted(chosen)}")
        if solve_winner(ctx.game, child, ctx.table, stats=stats) is not reply:
            return detail.format(probe=probe, e=e, chosen=mask_to_sorted(chosen))
    return None


# ---------------------------------------------------------------------------
# suite driver


def _lemma_cases(ctx: BOnlyContext, which: int, graph_index: int, seed: int):
    """(chosen, e) pairs qualifying for a lemma: ``chosen`` is the mask of the
    picked vertices, ``which`` of them endpoints of e.  Exhaustive for tiny
    sources, seeded sample otherwise."""
    h = ctx.padded
    edges = sorted(h.edges)
    if ctx.source.n <= LEMMA_EXHAUSTIVE_MAX_N:
        ends = [(e, ctx.edges[e][2]) for e in edges]
        for chosen in range(1 << h.n):
            for e, mask in ends:
                if (chosen & mask).bit_count() == which:
                    yield chosen, e
        return
    rng = random.Random(seed * 1_000_003 + graph_index)
    for _ in range(LEMMA_SAMPLES_PER_GRAPH):
        u, v = e = edges[rng.randrange(len(edges))]
        chosen = sum(1 << w for w in range(h.n) if w != u and w != v and rng.random() < 0.5)
        if which == 2:
            chosen |= 1 << u | 1 << v
        elif which == 1:
            chosen |= 1 << e[rng.randrange(2)]
        yield chosen, e


class _Suite(NamedTuple):
    default_max_n: int
    cap: int  # the largest max_n accepted
    check: Callable | None  # (unit, stats, psi_fn, phi_fn) -> what is wrong or None; None for a lemma
    posets: bool = False  # units are the graphs' phi images, then random posets


# setgame Grundy-solves the phi images of its sources on both sides: max_n=4
# takes about 21 s against 0.7 s at 3 (2-CPU VM, Python 3.11).
_SUITES = {
    "theorem": _Suite(4, ENUMERATION_CAP, check_theorem),
    "lemma1": _Suite(5, ENUMERATION_CAP, check_lemma1),
    "lemma2": _Suite(LEMMA_MAX_N, LEMMA_MAX_N, None),
    "lemma3": _Suite(LEMMA_MAX_N, LEMMA_MAX_N, None),
    "lemma4": _Suite(LEMMA_MAX_N, LEMMA_MAX_N, None),
    "setgame": _Suite(3, 3, check_setgame_equiv, posets=True),
    "psi": _Suite(6, ENUMERATION_CAP, check_psi_properties),
}  # keyed in the order of SUITES


def _units(cfg: SuiteConfig, psi_fn, phi_fn):
    """(name, index, instance) for each unit of a suite, in report order:
    the source graphs, or their phi images followed by random posets."""
    posets = _SUITES[cfg.suite].posets
    for n in range(1, cfg.resolved_max_n() + 1):
        for gi, g in enumerate(enumerate_labeled_graphs(n)):
            if posets:
                yield f"phi-image/n={n}/g={gi}", gi, phi_fn(psi_fn(g)).poset
            else:
                yield f"n={n}/g={gi}", gi, g
    if posets:
        for i in range(cfg.random_posets):
            rng = random.Random(cfg.seed * 1_000_003 + i)
            m = rng.randint(1, cfg.max_poset_elements)
            density = rng.uniform(0.1, 0.9)
            yield f"random/{i}/m={m}", i, random_poset(m, density, cfg.seed * 7_919 + i)


def _run_unit(cfg: SuiteConfig, psi_fn, phi_fn, unit) -> list[InstanceResult]:
    """Run, time and judge each check of one unit.

    Each check counts its states against a budget of its own; running out
    makes it inconclusive, and what it finds wrong fails it, with the
    unit's instance attached.  A lemma unit has one check per (chosen, e)
    case, on one shared context.
    """
    name, index, instance = unit
    clock = time.perf_counter
    suite = _SUITES[cfg.suite]
    if suite.check is None:
        ctx = BOnlyContext(instance, psi_fn, phi_fn)
        check, fns = _check_lemma, ()
        picks = _lemma_cases(ctx, _LEMMAS[cfg.suite][0], index, cfg.seed)
        cases = ((f"{name}/case={ci}", (cfg.suite, ctx, *case)) for ci, case in enumerate(picks))
    else:
        check, fns = suite.check, (psi_fn, phi_fn)
        cases = [(name, (instance,))]
    results = []
    for case, args in cases:
        stats = SearchStats(budget=cfg.budget)
        t0 = clock()
        try:
            wrong = check(*args, stats, *fns)
        except BudgetExceeded:
            verdict, detail = "inconclusive", "budget exhausted"
        else:
            verdict, detail = "pass", ""
            if wrong is not None:
                text = format_poset(instance) if suite.posets else format_graph(instance)
                verdict, detail = "fail", f"{wrong} on\n{text}"
        results.append(InstanceResult(case, verdict, stats.states, (clock() - t0) * 1000, detail))
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
