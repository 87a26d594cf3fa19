"""Per-layer tracing of posetgames from outside the program.

``Tracer.installed()`` replaces the public functions and constructors of each
posetgames module with timing wrappers, at every module binding that refers
to them (so ``verify.grundy`` and ``cli.grundy`` are wrapped as well as
``solver.grundy``), and restores them on exit.  A layer's self time is the
time inside its calls minus the time inside the traced calls they made.
Rules objects built while tracing are wrapped in a proxy that times
``moves``/``child``, the move generation the search drives.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from posetgames import cli, games, graphs, posets, reductions, solver, verify

_clock = time.perf_counter
_MODULES = (sys.modules["posetgames"], graphs, posets, games, solver, reductions, verify, cli)


class Tracer:
    def __init__(self):
        self.count: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.solver_s = 0.0  # inclusive time inside top-level solver calls
        self.table_peak = 0
        self._child_s = [0.0]  # time of traced callees, one slot per open span
        self.psi = self.span("reductions.psi", reductions.psi)
        self.phi = self.span(
            "reductions.phi", reductions.phi, self._count_result("reductions.phi.elements", lambda im: im.poset.m))

    def _enter(self) -> float:
        self._child_s.append(0.0)
        return _clock()

    def _exit(self, layer: str, t0: float) -> float:
        dt = _clock() - t0
        self.self_s[layer] += dt - self._child_s.pop()
        self._child_s[-1] += dt
        return dt

    def _leaf(self, key: str, dt: float):
        self.count[key] += 1
        self.self_s["games.movegen"] += dt
        self._child_s[-1] += dt

    def span(self, layer: str, fn, on_result=None):
        """Wrap ``fn`` so each call is a span of ``layer``."""

        def traced(*args, **kwargs):
            self.count[layer + ".calls"] += 1
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, t0)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _enumerate(self, fn):
        """Generator spans: each ``next`` is timed, the consumer's work is not."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit("graphs.enumerate", t0)
                self.count["graphs.enumerate.graphs"] += 1
                yield item

        return traced

    def _search(self, fn):
        """Solver span; reads states and table hits off the stats and table
        objects, supplying fresh ones exactly as the solver would."""

        def traced(game, pos=None, table=None, budget=None, stats=None):
            if table is None:
                table = solver.TranspositionTable()
            if stats is None:
                stats, budget = solver.SearchStats(budget=budget), None
            states0, hits0 = stats.states, table.hits
            self.count["solver.calls"] += 1
            t0 = self._enter()
            try:
                return fn(game, pos, table, budget, stats)
            finally:
                self.solver_s += self._exit("solver", t0)
                self.count["solver.states"] += stats.states - states0
                self.count["solver.table_hits"] += table.hits - hits0
                self.table_peak = max(self.table_peak, len(table))

        return traced

    def _rules(self, cls):
        build = self.span("games.build", cls)
        return lambda *args, **kwargs: _TracedRules(build(*args, **kwargs), self)

    def _count_result(self, key: str, size):
        def add(result):
            self.count[key] += size(result)

        return add

    @contextmanager
    def installed(self):
        """Wrap every traced entry point for the duration of the block."""
        undo = []

        def patch(target, replacement):
            for mod in _MODULES:
                for name, obj in list(vars(mod).items()):
                    if obj is target:
                        undo.append((mod, name, obj))
                        setattr(mod, name, replacement)

        def patch_attr(owner, name, replacement):
            undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, replacement)

        patch(graphs.parse_graph, self.span("graphs.parse", graphs.parse_graph))
        patch(graphs.enumerate_labeled_graphs, self._enumerate(graphs.enumerate_labeled_graphs))
        patch(posets.parse_poset, self.span("posets.parse", posets.parse_poset))
        patch(posets.validate_relation, self.span("posets.validate", posets.validate_relation))
        from_pairs = posets.Poset.__dict__["from_pairs"].__func__
        patch_attr(posets.Poset, "from_pairs", classmethod(self.span(
            "posets.closure", from_pairs, self._count_result("posets.closure.elements", lambda p: p.m))))
        patch_attr(posets.Poset, "__init__", self.span("posets.init", posets.Poset.__init__))
        patch(reductions.psi, self.psi)
        patch(reductions.phi, self.phi)
        patch(reductions.poset_to_setgame, self.span("reductions.upper_cones", reductions.poset_to_setgame))
        for cls in (games.KaylesGame, games.PosetGame, games.SetGameRules):
            patch(cls, self._rules(cls))
        patch(solver.solve_winner, self._search(solver.solve_winner))
        patch(solver.grundy, self._search(solver.grundy))
        patch(verify.run_suite, self.span(
            "verify.driver", verify.run_suite, self._count_result("verify.instances", lambda r: len(r.results))))
        try:
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def snapshot(self) -> dict:
        return {
            "count": dict(self.count),
            "self_s": dict(self.self_s),
            "solver_s": self.solver_s,
            "table_peak": self.table_peak,
        }

    def merge(self, snap: dict):
        """Add the snapshot of a traced child process."""
        for key, value in snap["count"].items():
            self.count[key] += value
        for key, value in snap["self_s"].items():
            self.self_s[key] += value
        self.solver_s += snap["solver_s"]
        self.table_peak = max(self.table_peak, snap["table_peak"])


class _TracedRules:
    """Rules proxy timing ``moves`` and ``child`` as leaf spans."""

    def __init__(self, rules, tracer: Tracer):
        self._rules = rules
        self._tracer = tracer
        self._moves = rules.moves
        self._child = rules.child

    def __getattr__(self, name):
        return getattr(self._rules, name)

    def moves(self, pos):
        t0 = _clock()
        out = self._moves(pos)
        self._tracer._leaf("games.moves", _clock() - t0)
        return out

    def child(self, pos, move):
        t0 = _clock()
        out = self._child(pos, move)
        self._tracer._leaf("games.child", _clock() - t0)
        return out
