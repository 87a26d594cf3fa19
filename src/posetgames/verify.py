"""Brute-force verification suites for the reductions.

A suite is a stream of units: enumerated small source graphs, or for
``setgame`` posets.  Each unit runs its checks, solving both sides with the
exhaustive solver and reporting any disagreement as a failure with the full
instance attached.  ``run_suite`` runs the units in this process, or in
chunks in ``jobs`` workers whose reports it joins, with the same report
either way.  Runs are deterministic for a fixed config, including the
sampling seed.

A check returns what is wrong, or None when it holds, and counts the states
of its solves in the ``SearchStats`` it is given.  What a faulty reduction
breaks is returned, so it fails its case and the run goes on; only a
caller's error, such as a ``max_n`` past its suite's cap, raises.
``_run_units`` is the one loop over units and their cases: it binds the
suite's check, the report's columns and one budgeted ``SearchStats`` once
per run, resets the stats' ``states`` before each case, calls the check,
times it, turns its answer into a verdict and appends the case to the
columns of a ``SuiteReport``, which builds a row object only when one is
read.  Lemmas 2-4 are one check driven by the ``_LEMMAS`` table, and the
``_SUITES`` table holds all ``run_suite`` knows about a suite.  A lemma
unit is one source graph and its ``BOnlyContext``: its cases, each a mask
of vertex picks and the index of an edge in the image's ``edge_order``, are
checked in turn on that context, which caches the position after each
mask.  The index names both probed elements in ``phi``'s layout, so a case
looks nothing up, and ``_lemma_cases`` yields only cases with the lemma's
count of the edge's endpoints, so the check does not count them again.
Most of the probes are answered by one lookup in the context's table,
which the solver makes before it validates the position.
"""

from __future__ import annotations

import json
import os
import random
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass
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

# exhaustive (chosen, edge) cross products are only affordable for tiny sources;
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


@dataclass(slots=True)  # one per row that a report's results view reads
class InstanceResult:
    instance: str
    verdict: str  # "pass" | "fail" | "inconclusive"
    states: int
    millis: float
    detail: str = ""


_VERDICTS = ("pass", "fail", "inconclusive")  # a case's verdict code is its index
_PASS, _FAIL, _INCONCLUSIVE = range(3)


class SuiteReport:
    """The cases of one suite run, stored as columns.

    Per unit: its name, as UTF-8 bytes ending at ``_name_ends[u]`` in
    ``_names``, and ``_ends[u]``, the index where its cases end.  Per case: a
    verdict code, its states and its millis.  A case that did not pass has
    its detail in ``_details``, keyed by case index in increasing order.  A
    case costs about 18 bytes.  ``results`` is read in order: it has a
    length, and its iterator builds each case's ``InstanceResult`` as it
    reaches it.  ``failures`` and ``inconclusives`` are lists.  In a lemma
    suite a unit has one case per (chosen, a) pair, named
    ``{unit}/case={k}``; in the others a unit is one case, named by the
    unit.
    """

    def __init__(self, config: SuiteConfig):
        self.suite = config.suite
        self.config = config
        self.wall_millis = 0.0
        self._case_names = _SUITES[config.suite].check is None
        self._names = bytearray()
        self._name_ends = array("q")
        self._ends = array("q")
        self._verdicts = bytearray()
        self._states = array("q")
        self._millis = array("d")
        self._details: dict[int, str] = {}

    def _extend(self, part: SuiteReport):
        """Append the units of ``part``, a report on later units of the same run."""
        names, cases = len(self._names), len(self._verdicts)
        self._names += part._names
        self._name_ends.extend(end + names for end in part._name_ends)
        self._ends.extend(end + cases for end in part._ends)
        self._verdicts += part._verdicts
        self._states += part._states
        self._millis += part._millis
        self._details.update((i + cases, detail) for i, detail in part._details.items())

    def _unit_name(self, u: int) -> str:
        return self._names[self._name_ends[u - 1] if u else 0:self._name_ends[u]].decode()

    def _row(self, i: int, name: str, k: int) -> InstanceResult:
        """Case ``i``, the ``k``-th case of the unit named ``name``."""
        return InstanceResult(
            f"{name}/case={k}" if self._case_names else name,
            _VERDICTS[self._verdicts[i]], self._states[i], self._millis[i],
            self._details.get(i, ""),
        )

    def _case(self, i: int) -> InstanceResult:
        u = bisect_right(self._ends, i)
        return self._row(i, self._unit_name(u), i - (self._ends[u - 1] if u else 0))

    def _rows(self):
        start = 0
        for u, end in enumerate(self._ends):
            name = self._unit_name(u)
            for i in range(start, end):
                yield self._row(i, name, i - start)
            start = end

    @property
    def results(self) -> _Results:
        return _Results(self)

    def _non_pass(self, code: int) -> list[InstanceResult]:
        return [self._case(i) for i in self._details if self._verdicts[i] == code]

    @property
    def failures(self) -> list[InstanceResult]:
        return self._non_pass(_FAIL)

    @property
    def inconclusives(self) -> list[InstanceResult]:
        return self._non_pass(_INCONCLUSIVE)

    @property
    def passed(self) -> bool:
        return not self._details

    @property
    def states(self) -> int:
        return sum(self._states)

    def to_text(self) -> str:
        cfg = self.config
        failures, inconclusives = self.failures, self.inconclusives
        lines = [
            f"suite: {self.suite}",
            f"config: max_n={cfg.resolved_max_n()} seed={cfg.seed} "
            f"budget={cfg.budget} jobs={cfg.jobs}",
            f"instances: {len(self._verdicts)}  failures: {len(failures)}  "
            f"inconclusive: {len(inconclusives)}",
            f"states: {self.states}  wall_ms: {self.wall_millis:.0f}",
        ]
        for r in failures + inconclusives:
            lines.append(f"{r.verdict.upper()} {r.instance}: {r.detail}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines) + "\n"

    def record_lines(self):
        """One JSON record per case, each a line ending in a newline, built
        as it is read."""
        for r in self._rows():
            yield json.dumps(
                {
                    "suite": self.suite,
                    "instance": r.instance,
                    "verdict": r.verdict,
                    "states": r.states,
                    "millis": round(r.millis, 3),
                    "detail": r.detail,
                },
                sort_keys=True,
            ) + "\n"


class _Results:
    """A report's cases as ``InstanceResult`` rows, in order.  A row is built
    each time it is read and never kept."""

    __slots__ = ("_report",)

    def __init__(self, report: SuiteReport):
        self._report = report

    def __len__(self) -> int:
        return len(self._report._verdicts)

    def __iter__(self):
        return self._report._rows()


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
    subset of vertices; order does not matter.  The image's layout names
    every element a case needs: edge ``a`` of ``image.edge_order`` has its
    low copy gamma(e) at element ``a`` and e itself at ``c_start + a``.
    What every probe reads is built once: ``cones[v]``, the up-cone mask of
    vertex v's element; ``ends[a]``, the mask of edge a's endpoints;
    ``b_mask``, the vertex level.  The position after each set of picks is
    cached by the set's mask, since the exhaustive cases pick one set for
    every edge in turn.  The probes share one table, but each check counts
    its states from zero against the whole budget, so its verdict does not
    depend on the checks before it.
    """

    def __init__(self, g: Graph, psi_fn=psi, phi_fn=phi):
        self.source = g
        self.image: PhiImage = phi_fn(psi_fn(g))
        self.game = PosetGame(self.image.poset)
        self.table = TranspositionTable()
        up, b_elements = self.image.poset.up, self.image.b_elements()
        self.cones = tuple(up[b] for b in b_elements)
        self.ends = tuple(1 << u | 1 << v for u, v in self.image.edge_order)
        self.c_start = self.image.c_elements().start
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
# with its block, 0 for gamma(e) in the A block and 1 for e in the C block,
# the value each probe's child must have, fail detail).  With both endpoints
# of e picked, gamma(e) must win (Lemma 2); with one, it must lose and leave
# exactly one vertex-level element (Lemma 3); with neither, e and gamma(e)
# must both lose (Lemma 4).
_LEMMAS = {
    "lemma2": (2, (("gamma(e)", 0),), GameValue.LOSS, "gamma({e}) not winning after chosen={chosen}"),
    "lemma3": (1, (("gamma(e)", 0),), GameValue.WIN, "gamma({e}) not losing after chosen={chosen}"),
    "lemma4": (0, (("e", 1), ("gamma(e)", 0)), GameValue.WIN,
               "{probe} for {e} not losing, chosen={chosen}"),
}


def _check_lemma(lemma: str, ctx: BOnlyContext, chosen: int, a: int, stats: SearchStats) -> str | None:
    """Play each probed move of ``lemma`` for edge ``a`` of
    ``ctx.image.edge_order`` after picking the vertices in the mask
    ``chosen``, and check the value of its child.  The case is taken as
    ``_lemma_cases`` makes it, with the lemma's endpoint count of the edge
    in ``chosen``.  A probed element that the picks already removed is a
    fault of the reduction, so it fails the case, as does a child of the
    wrong value; the edge itself is read only to name it."""
    _, probes, reply, detail = _LEMMAS[lemma]
    e = ctx.image.edge_order[a]
    pos = ctx._after(chosen)
    for probe, block in probes:
        x = a + block * ctx.c_start
        if not pos >> x & 1:
            return f"{probe} for {e} removed by the picks, chosen={mask_to_sorted(chosen)}"
        child = pos & ~ctx.game.kill[x]
        if lemma == "lemma3" and (left := (child & ctx.b_mask).bit_count()) != 1:
            return (f"{left} vertex-level elements left after gamma({e}), "
                    f"chosen={mask_to_sorted(chosen)}")
        if solve_winner(ctx.game, child, ctx.table, stats=stats) is not reply:
            return detail.format(probe=probe, e=e, chosen=mask_to_sorted(chosen))
    return None


# ---------------------------------------------------------------------------
# suite driver


def _lemma_cases(ctx: BOnlyContext, which: int, graph_index: int, seed: int):
    """(chosen, a) pairs qualifying for a lemma: ``a`` indexes an edge of
    ``ctx.image.edge_order`` and ``chosen`` is the mask of the picked
    vertices, ``which`` of them endpoints of that edge.  Exhaustive for tiny
    sources, a seeded sample of edges and picks otherwise."""
    n = ctx.image.source.n
    if ctx.source.n <= LEMMA_EXHAUSTIVE_MAX_N:
        for chosen in range(1 << n):
            for a, mask in enumerate(ctx.ends):
                if (chosen & mask).bit_count() == which:
                    yield chosen, a
        return
    rng = random.Random(seed * 1_000_003 + graph_index)
    edges = ctx.image.edge_order
    for _ in range(LEMMA_SAMPLES_PER_GRAPH):
        a = rng.randrange(len(edges))
        u, v = edges[a]
        chosen = sum(1 << w for w in range(n) if w != u and w != v and rng.random() < 0.5)
        if which == 2:
            chosen |= 1 << u | 1 << v
        elif which == 1:
            chosen |= 1 << (u, v)[rng.randrange(2)]
        yield chosen, a


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


def _run_units(config: SuiteConfig, psi_fn, phi_fn, units) -> SuiteReport:
    """A report on ``units``, run in turn: each check of each unit is run,
    timed and judged, and its case appended to the report's columns.

    The suite's check, the columns and one ``SearchStats`` are bound once.
    Each case starts from ``states = 0`` against the run's budget, so it
    counts only its own states; running out makes it inconclusive, and what
    it finds wrong fails it, with the unit's instance attached.  A lemma
    unit has one check per (chosen, a) case, on one shared context; any
    other unit is one case.
    """
    report = SuiteReport(config)
    suite = _SUITES[config.suite]
    lemma = config.suite if suite.check is None else None
    check = _check_lemma if lemma else suite.check
    show = format_poset if suite.posets else format_graph
    names, name_ends, ends = report._names, report._name_ends, report._ends
    verdicts, states, millis, details = report._verdicts, report._states, report._millis, report._details
    stats = SearchStats(budget=config.budget)
    clock = time.perf_counter
    one_case = ((None, None),)  # (chosen, a) of a unit that is not a lemma's
    for name, index, instance in units:
        if lemma:
            ctx = BOnlyContext(instance, psi_fn, phi_fn)
            cases = _lemma_cases(ctx, _LEMMAS[lemma][0], index, config.seed)
        else:
            cases = one_case
        for chosen, a in cases:
            stats.states = 0
            t0 = clock()
            try:
                if lemma:
                    wrong = check(lemma, ctx, chosen, a, stats)
                else:
                    wrong = check(instance, stats, psi_fn, phi_fn)
            except BudgetExceeded:
                details[len(verdicts)] = "budget exhausted"
                verdicts.append(_INCONCLUSIVE)
            else:
                if wrong is None:
                    verdicts.append(_PASS)
                else:
                    details[len(verdicts)] = f"{wrong} on\n{show(instance)}"
                    verdicts.append(_FAIL)
            states.append(stats.states)
            millis.append((clock() - t0) * 1000)
        names += name.encode()
        name_ends.append(len(names))
        ends.append(len(verdicts))
    return report


def run_suite(config: SuiteConfig, psi_fn=psi, phi_fn=phi) -> SuiteReport:
    """Run one verification suite; deterministic for a fixed config.

    With ``jobs > 1`` the units are cut into chunks, which are pickled with
    ``psi_fn`` and ``phi_fn`` to a process pool.  Each worker returns a report
    on its chunk, and the chunks' columns are joined in unit order.  The pool
    has at most one worker per CPU and per chunk, since a forking pool starts
    all its workers at once; on one CPU the units run in this process.
    """
    config.check()
    t0 = time.perf_counter()
    units = _units(config, psi_fn, phi_fn)
    jobs = min(config.jobs, os.cpu_count() or 1)
    if jobs == 1:
        report = _run_units(config, psi_fn, phi_fn, units)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only parallel runs load it

        units = list(units)
        # eight chunks per worker: few round trips, and late chunks even out uneven units
        size = max(1, len(units) // (8 * jobs))
        chunks = [units[i:i + size] for i in range(0, len(units), size)]
        report = SuiteReport(config)
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            for part in pool.map(partial(_run_units, config, psi_fn, phi_fn), chunks):
                report._extend(part)
    report.wall_millis = (time.perf_counter() - t0) * 1000
    return report
