import gc
import hashlib
import json
import re
import tracemalloc
from dataclasses import replace

import pytest

from posetgames import (
    Graph,
    antichain,
    chain,
    format_graph,
    grundy,
    KaylesGame,
    random_poset,
)
from posetgames import verify
from posetgames.games import SetGame
from posetgames.graphs import enumerate_labeled_graphs
from posetgames.posets import Poset, format_poset
from posetgames.reductions import PhiImage, phi, psi
from posetgames.solver import BudgetExceeded, SearchStats
from posetgames.verify import (
    BOnlyContext,
    DEFAULT_SEED,
    SUITES,
    SuiteConfig,
    SuiteReport,
    _check_lemma,
    _run_unit,
    _units,
    check_lemma1,
    check_psi_properties,
    check_setgame_equiv,
    check_theorem,
    run_suite,
)

from shapes import complete_graph, graph_sum

K2 = complete_graph(2)
P3 = Graph.of(3, [(0, 1), (1, 2)])


def row(r):
    """A result without its timing field."""
    return (r.instance, r.verdict, r.states, r.detail)


def run_unit(cfg, unit, psi_fn=psi, phi_fn=phi):
    """The rows that ``_run_unit`` adds to a fresh report on ``unit``."""
    report = SuiteReport(cfg)
    _run_unit(report, psi_fn, phi_fn, unit)
    return report.results


def run_one(suite, instance, budget=verify.DEFAULT_BUDGET, psi_fn=psi, phi_fn=phi):
    """``(instance, verdict, states, detail)`` of each result of ``_run_unit``
    on the one unit ``instance``, named "unit"."""
    results = run_unit(SuiteConfig(suite, budget=budget), ("unit", 0, instance), psi_fn, phi_fn)
    return list(map(row, results))


class TestLemma1Check:
    def test_k2(self):
        assert grundy(KaylesGame(K2)) == 1
        assert check_lemma1(K2, SearchStats()) is None
        [(name, verdict, states, detail)] = run_one("lemma1", K2)
        assert (name, verdict, detail) == ("unit", "pass", "")
        assert states > 0

    def test_empty_two_vertices(self):
        assert check_lemma1(Graph.of(2), SearchStats()) is None

    def test_p3(self):
        assert grundy(KaylesGame(P3)) == 2
        assert check_lemma1(P3, SearchStats()) is None

    def test_budget_inconclusive(self):
        with pytest.raises(BudgetExceeded):
            check_lemma1(complete_graph(4), SearchStats(budget=2))
        assert run_one("lemma1", complete_graph(4), budget=2) == [
            ("unit", "inconclusive", 3, "budget exhausted")]


class TestLemma2Check:
    def test_k2_both_endpoints(self):
        ctx = BOnlyContext(K2)
        assert _check_lemma("lemma2", ctx, 0b11, (0, 1), SearchStats()) is None
        # after the winning reply only the other low edge copies remain
        after = ctx.game.apply(ctx._after(0b11), ctx.edges[0, 1][0])
        remaining = [x for x in range(ctx.image.num_edges) if after >> x & 1]
        assert after.bit_count() == len(remaining) == 2

    def test_all_vertices_chosen(self):
        ctx = BOnlyContext(K2)
        for e in ctx.image.edge_order:
            assert _check_lemma("lemma2", ctx, (1 << ctx.padded.n) - 1, e, SearchStats()) is None

    def test_missing_endpoint_rejected(self):
        with pytest.raises(ValueError, match="lemma2 needs both endpoints"):
            _check_lemma("lemma2", BOnlyContext(K2), 0b1, (0, 1), SearchStats())


class TestLemma3Check:
    def test_k2_one_endpoint(self):
        assert _check_lemma("lemma3", BOnlyContext(K2), 0b1, (0, 1), SearchStats()) is None

    def test_k3_each_incident_edge(self):
        g = complete_graph(3)
        ctx = BOnlyContext(g)
        for e in ((0, 1), (0, 2)):
            assert _check_lemma("lemma3", ctx, 0b1, e, SearchStats()) is None

    def test_both_endpoints_rejected(self):
        with pytest.raises(ValueError, match="lemma3 needs exactly one endpoint"):
            _check_lemma("lemma3", BOnlyContext(K2), 0b11, (0, 1), SearchStats())

    def test_removed_gamma_rejected(self):
        # a phi that puts vertex 0 below gamma((0, 1)) removes gamma((0, 1))
        # with the pick, so the probe has no element to play
        def gamma_above_an_endpoint(g):
            image = phi(g)
            pairs = [*image.poset.cover_pairs(), (image.b_of_vertex(image.edge_order[0][0]), 0)]
            return PhiImage(Poset.from_pairs(image.poset.m, pairs), g, image.edge_order)

        ctx = BOnlyContext(K2, phi_fn=gamma_above_an_endpoint)
        assert ctx.image.edge_order[0] == (0, 1)
        with pytest.raises(ValueError, match=r"edge \(0, 1\) already removed from the position"):
            _check_lemma("lemma3", ctx, 0b1, (0, 1), SearchStats())

    def test_winning_gamma_fails(self):
        # a table that calls the child lost makes gamma(e) a winning move
        ctx = BOnlyContext(K2)
        ctx.table.wins[ctx.game.apply(ctx._after(0b1), ctx.edges[0, 1][0])] = False
        assert _check_lemma("lemma3", ctx, 0b1, (0, 1), SearchStats()) == (
            "gamma((0, 1)) not losing after chosen=[0]")


class TestLemma4Check:
    def test_k2_every_edge(self):
        ctx = BOnlyContext(K2)
        assert len(ctx.image.edge_order) == 3
        for e in ctx.image.edge_order:
            assert _check_lemma("lemma4", ctx, 0, e, SearchStats()) is None

    def test_k3_inner_edge(self):
        g = complete_graph(3)
        assert _check_lemma("lemma4", BOnlyContext(g), 0, (0, 1), SearchStats()) is None

    def test_removed_edge_rejected(self):
        with pytest.raises(ValueError):
            _check_lemma("lemma4", BOnlyContext(K2), 0b1, (0, 1), SearchStats())

    @pytest.mark.parametrize("e", [(0, 2), (1, 0)])
    def test_unknown_edge_rejected(self, e):
        # psi(K2) adds the edges (2, 3) and (4, 5); edges are given low end first
        with pytest.raises(ValueError, match=re.escape(f"{e} is not an edge of the padded graph")):
            _check_lemma("lemma4", BOnlyContext(K2), 0, e, SearchStats())

    def test_winning_gamma_fails(self):
        # e itself is still losing; a table that calls gamma(e)'s child lost
        # makes the second probe fail
        ctx = BOnlyContext(K2)
        ctx.table.wins[ctx.game.apply(ctx._after(0), ctx.edges[0, 1][0])] = False
        assert _check_lemma("lemma4", ctx, 0, (0, 1), SearchStats()) == (
            "gamma(e) for (0, 1) not losing, chosen=[]")


class TestRunUnitAgainstFreshContext:
    """``_run_unit`` runs a unit's lemma cases as vertex masks on one context,
    with a cached position per mask and one table.  Each case must see the
    position built directly from its picks and get the verdict of
    ``_check_lemma`` on a fresh context; the exhaustive cases must be the
    (set, edge) pairs counted directly."""

    @pytest.mark.parametrize("lemma", ["lemma2", "lemma3", "lemma4"])
    def test_cases_match(self, lemma, monkeypatch):
        cfg = SuiteConfig(lemma, max_n=4)
        units = list(_units(replace(cfg, max_n=3), psi, phi))
        n4 = list(enumerate_labeled_graphs(4))
        units += [(f"n=4/g={gi}", gi, n4[gi]) for gi in (0, 22, 63)]  # sampled cases
        seen = []

        def spy(lemma, ctx, chosen, e, stats):
            res = real(lemma, ctx, chosen, e, stats)
            seen.append((ctx, chosen, e, ctx._positions[chosen]))
            return res

        real = verify._check_lemma
        monkeypatch.setattr(verify, "_check_lemma", spy)
        runs = [(g, run_unit(cfg, (name, gi, g))) for name, gi, g in units]
        monkeypatch.undo()

        cases = iter(seen)
        which = {"lemma2": 2, "lemma3": 1, "lemma4": 0}[lemma]
        for g, results in runs:
            unit_cases = [next(cases) for _ in results]
            ctx = unit_cases[0][0]
            h, image = ctx.padded, ctx.image
            if g.n <= 3:
                assert [(chosen, e) for _, chosen, e, _ in unit_cases] == [
                    (bits, e) for bits in range(1 << h.n) for e in sorted(h.edges)
                    if (bits >> e[0] & 1) + (bits >> e[1] & 1) == which]
            for (_, chosen, e, pos), r in zip(unit_cases, results):
                vertices = [v for v in range(h.n) if chosen >> v & 1]
                cones = 0
                for v in vertices:
                    cones |= image.poset.up[image.b_of_vertex(v)]
                assert pos == (1 << image.poset.m) - 1 & ~cones
                fresh = _check_lemma(lemma, BOnlyContext(g), chosen, e, SearchStats())
                assert (r.verdict, r.detail, fresh) == ("pass", "", None)
        assert next(cases, None) is None


class TestTheoremCheck:
    def test_k2(self):
        assert check_theorem(K2, SearchStats()) is None
        [(name, verdict, states, detail)] = run_one("theorem", K2)
        assert (name, verdict, detail) == ("unit", "pass", "")
        assert states > 0

    def test_empty_two_vertices(self):
        assert check_theorem(Graph.of(2), SearchStats()) is None

    def test_p3(self):
        assert check_theorem(P3, SearchStats()) is None

    def test_budget_inconclusive(self):
        with pytest.raises(BudgetExceeded):
            check_theorem(complete_graph(4), SearchStats(budget=2))
        assert run_one("theorem", complete_graph(4), budget=2) == [
            ("unit", "inconclusive", 3, "budget exhausted")]


class TestPsiCheck:
    @pytest.mark.parametrize("padded, detail", [
        (P3, "even edge count 2"),
        (Graph.of(4, [(0, 1), (0, 2), (0, 3)]), "vertex 0 incident to every edge"),
        (Graph.of(4, [(1, 2)]), "vertex 1 incident to every edge"),
        (Graph.of(5, [(1, 3), (2, 3), (3, 4)]), "vertex 3 incident to every edge"),
    ], ids=["even", "star", "one-edge", "hub"])
    def test_bad_padding(self, padded, detail):
        assert check_psi_properties(P3, SearchStats(), psi_fn=lambda g: padded) == detail
        assert run_one("psi", P3, psi_fn=lambda g: padded) == [
            ("unit", "fail", 0, f"{detail} on\n{format_graph(P3)}")]


class TestSetGameCheck:
    def test_antichain(self):
        assert check_setgame_equiv(antichain(3), SearchStats()) is None

    def test_chain(self):
        assert check_setgame_equiv(chain(4), SearchStats()) is None

    def test_random(self):
        assert check_setgame_equiv(random_poset(10, 0.3, 7), SearchStats()) is None

    def test_failure_shows_the_poset(self, monkeypatch):
        # a set game of one singleton is *1, against *2 for the 2-chain
        monkeypatch.setattr(verify, "poset_to_setgame", lambda p: SetGame(1, [0b1]))
        [(name, verdict, _, detail)] = run_one("setgame", chain(2))
        assert (name, verdict) == ("unit", "fail")
        assert detail == f"poset grundy 2 vs set game 1 on\n{format_poset(chain(2))}"


def strip_millis(report):
    """The report's JSON records without their timing field."""
    return [
        {k: v for k, v in json.loads(line).items() if k != "millis"}
        for line in "".join(report.record_lines()).splitlines()
    ]


class TestRunSuite:
    def test_theorem_counts(self):
        report = run_suite(SuiteConfig(suite="theorem", max_n=3))
        assert len(report.results) == 1 + 2 + 8
        assert report.passed

    def test_lemma1_counts(self):
        report = run_suite(SuiteConfig(suite="lemma1", max_n=4))
        assert len(report.results) == 1 + 2 + 8 + 64
        assert report.passed

    def test_psi_suite(self):
        report = run_suite(SuiteConfig(suite="psi", max_n=4))
        assert report.passed

    @pytest.mark.parametrize("suite, max_n", [("lemma2", 9), ("setgame", 4), ("theorem", 7)])
    def test_over_cap_rejected(self, suite, max_n):
        with pytest.raises(ValueError, match="cap"):
            run_suite(SuiteConfig(suite=suite, max_n=max_n))

    @pytest.mark.parametrize("field, value", [
        ("max_n", 0), ("max_n", -2), ("random_posets", -1), ("max_poset_elements", 0), ("jobs", 0),
    ])
    def test_vacuous_regime_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            run_suite(SuiteConfig(suite="setgame", **{field: value}))

    def test_no_random_posets(self):
        report = run_suite(SuiteConfig(suite="setgame", max_n=2, random_posets=0))
        assert [r.instance for r in report.results] == [
            "phi-image/n=1/g=0", "phi-image/n=2/g=0", "phi-image/n=2/g=1"]
        assert report.passed

    @pytest.mark.parametrize("suite", ["lemma1", "lemma2", "lemma3", "lemma4"])
    def test_budget_one_inconclusive(self, suite):
        report = run_suite(SuiteConfig(suite=suite, max_n=2, budget=1))
        assert report.results
        if suite == "lemma2":
            # a lemma 2 probe leaves an antichain, which the search answers in
            # one state, or in none when the shared table holds it already;
            # each case has a budget of its own, so every case passes
            assert {(r.verdict, r.states) for r in report.results} == {("pass", 1), ("pass", 0)}
        else:
            assert {(r.verdict, r.detail) for r in report.results} == {
                ("inconclusive", "budget exhausted")}

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            SuiteConfig(suite="nope").check()

    def test_records_deterministic(self):
        cfg = SuiteConfig(suite="setgame", max_n=2, random_posets=10)
        a, b = run_suite(cfg), run_suite(cfg)
        assert strip_millis(a) == strip_millis(b)

    def test_report_text_shape(self):
        text = run_suite(SuiteConfig(suite="theorem", max_n=2)).to_text()
        assert text.startswith("suite: theorem")
        assert text.rstrip().endswith("PASS")
        assert f"seed={DEFAULT_SEED}" in text
        # a case that did not pass gets a line of its own, with its detail
        text = run_suite(SuiteConfig(suite="theorem", max_n=2, budget=1)).to_text()
        assert text.splitlines()[-4:] == [
            "INCONCLUSIVE n=1/g=0: budget exhausted",
            "INCONCLUSIVE n=2/g=0: budget exhausted",
            "INCONCLUSIVE n=2/g=1: budget exhausted",
            "FAIL",
        ]

    @pytest.mark.parametrize("suite", SUITES)
    def test_jobs_match_sequential(self, suite):
        cfg = SuiteConfig(suite=suite, max_n=3, random_posets=10)
        seq, par = run_suite(cfg), run_suite(replace(cfg, jobs=2))
        assert seq.results
        assert strip_millis(seq) == strip_millis(par)

    @pytest.mark.parametrize("cpus", [None, 1, 2, 64])
    def test_jobs_capped_by_cpus_and_chunks(self, cpus, monkeypatch):
        # a forking pool starts all its workers at once, so --jobs 1000000
        # must not ask for them: a fake pool records the request and maps here
        import concurrent.futures

        asked = []

        class FakePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        cfg = SuiteConfig(suite="theorem", max_n=3)  # 11 units, so at most 11 chunks
        report = run_suite(replace(cfg, jobs=10**6))
        assert asked == ([] if (cpus or 1) == 1 else [min(cpus, 11)])
        assert strip_millis(report) == strip_millis(run_suite(cfg))


class TestReportColumns:
    """A report stores its cases as columns and builds a row only when one is
    read: rows must keep their names and details, and a report must stay
    small."""

    def test_memory_per_case(self):
        run_suite(SuiteConfig("lemma3", max_n=1))  # imports and caches fill before tracing
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = run_suite(SuiteConfig("lemma3"))
            for _ in report.results:
                pass
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(report.results) == 13_088
        assert kept <= 32 * len(report.results), f"{kept / len(report.results):.1f} bytes per case"

    def test_inconclusive_rows_keep_names_and_details(self):
        report = run_suite(SuiteConfig("lemma3", max_n=2, budget=1))
        names = []
        for n in (1, 2):
            for gi, g in enumerate(enumerate_labeled_graphs(n)):
                h = psi(g)
                cases = sum((bits >> u & 1) + (bits >> v & 1) == 1
                            for bits in range(1 << h.n) for u, v in h.edges)
                names += [f"n={n}/g={gi}/case={k}" for k in range(cases)]
        rows = list(report.results)
        assert [r.instance for r in rows] == names
        assert {(r.verdict, r.detail) for r in rows} == {("inconclusive", "budget exhausted")}
        for i in (0, len(rows) // 2, len(rows) - 1):
            assert report.results[i] == rows[i]
            assert report.results[i - len(rows)] == rows[i]
        for i in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                report.results[i]
        assert report.failures == []
        assert report.inconclusives == rows
        assert not report.passed
        assert report.states == sum(r.states for r in rows)

    def test_slices_are_lists_of_rows(self):
        results = run_suite(SuiteConfig("theorem", max_n=3)).results
        rows = list(results)
        assert len(rows) == 11  # the labeled graphs on 1, 2 and 3 vertices
        for i, j, step in ((1, 3, None), (-5, None, None), (2, -1, 3), (None, None, -2), (-3, 2, -1), (7, 2, None)):
            assert results[i:j:step] == rows[i:j:step]
        assert results[:] == rows

    def test_failures_carry_the_graph(self):
        report = run_suite(SuiteConfig("theorem", max_n=3), phi_fn=drop_one_low_relation)
        rows = list(report.results)
        assert report.failures
        assert report.failures == [r for r in rows if r.verdict != "pass"]
        assert report.inconclusives == []
        graphs = {f"n={n}/g={gi}": g for n in (1, 2, 3) for gi, g in enumerate(enumerate_labeled_graphs(n))}
        assert list(graphs) == [r.instance for r in rows]
        for r in report.failures:
            assert re.fullmatch(r"kayles=\w+ poset=\w+ on\n", r.detail.removesuffix(format_graph(graphs[r.instance])))
        text = report.to_text()
        assert all(f"FAIL {r.instance}: {r.detail}" in text for r in report.failures)
        parallel = run_suite(SuiteConfig("theorem", max_n=3, jobs=2), phi_fn=drop_one_low_relation)
        assert list(map(row, parallel.failures)) == list(map(row, report.failures))


# SHA-256 of each suite's records at its default regime without the timing
# field (instance, verdict, states, detail): enumeration order, sampling and
# search must all stay put.  A change that moves them updates these values
# and says why.
GOLDEN_RECORDS = {
    "theorem": "4cc229fd86792fb7097b3aa84fe74504d0bd0fa8154359e9046e9c4738f6ae6a",
    "lemma1": "ebaa957b6dcd55c296c25590e1990eb44694ecb7da9ba1bc42ccaa9653168286",
    "lemma2": "be638dab8738e80348f68f9f36a3a90ceadb5619e10ff2d9827fefbff0df0b76",
    "lemma3": "7e66a52b73dd7f6a5c0809a1db10064fec900eb0e21841e57d60b746680ade7f",
    "lemma4": "8172a094a0702512404f21c9764422325e4fa4e4a68e135ee5b97aaa6ddc990d",
    "setgame": "b803abfde469349eebdeccff0c044995899117f1bd8ddee4c278820fa2cffd01",
    "psi": "c73941ec7afd1d04a7034def44230e50a1bea89a45d0686bfb6c2f7f401879de",
}


def test_suite_table_follows_the_names():
    assert tuple(verify._SUITES) == SUITES


@pytest.mark.parametrize("suite", SUITES)
def test_golden_records(suite):
    report = run_suite(SuiteConfig(suite))
    records = "".join(json.dumps(r, sort_keys=True) + "\n" for r in strip_millis(report))
    assert hashlib.sha256(records.encode()).hexdigest() == GOLDEN_RECORDS[suite]


def drop_one_low_relation(g):
    """phi with one generating low-copy-below-vertex pair removed."""
    edges = tuple(sorted(g.edges))
    ne, nv = len(edges), g.n
    pairs = []
    dropped = False
    for i, (v1, v2) in enumerate(edges):
        for v in range(nv):
            b = ne + v
            if v in (v1, v2):
                pairs.append((b, ne + nv + i))
            elif dropped:
                pairs.append((i, b))
            else:
                dropped = True
    return PhiImage(Poset.from_pairs(nv + 2 * ne, pairs), g, edges)


def single_k3_padding(g):
    """Padding that appends one K3 where a K2 belongs."""
    if len(g.edges) % 2 == 1:
        return graph_sum(g, complete_graph(3))
    return graph_sum(g, complete_graph(3), complete_graph(4))


class TestMutationSensitivity:
    def test_corrupted_phi_detected_by_theorem_suite(self):
        report = run_suite(SuiteConfig(suite="theorem", max_n=3), phi_fn=drop_one_low_relation)
        assert len(report.failures) >= 1

    def test_corrupted_phi_reaches_workers(self):
        report = run_suite(SuiteConfig(suite="theorem", max_n=3, jobs=2), phi_fn=drop_one_low_relation)
        assert len(report.failures) >= 1

    @pytest.mark.parametrize("suite, mutation, detail", [
        ("lemma1", {"psi_fn": single_k3_padding}, r"grundy \d+ vs \d+ after padding on\n"),
        ("lemma2", {"phi_fn": drop_one_low_relation}, r"gamma\(\(\d+, \d+\)\) not winning after chosen=\["),
        ("lemma3", {"phi_fn": drop_one_low_relation}, r"2 vertex-level elements left after gamma\(\("),
        ("lemma4", {"phi_fn": drop_one_low_relation}, r"(e|gamma\(e\)) for \(\d+, \d+\) not losing, chosen=\["),
    ], ids=["lemma1-psi", "lemma2-phi", "lemma3-phi", "lemma4-phi"])
    def test_corrupted_reduction_detected_by_lemma_suite(self, suite, mutation, detail):
        report = run_suite(SuiteConfig(suite=suite, max_n=3), **mutation)
        assert report.failures
        assert all(re.match(detail, r.detail) for r in report.failures)

    def test_corrupted_psi_detected(self):
        parity = run_suite(SuiteConfig(suite="psi", max_n=3), psi_fn=single_k3_padding)
        theorem = run_suite(SuiteConfig(suite="theorem", max_n=3), psi_fn=single_k3_padding)
        assert len(parity.failures) >= 1
        assert len(theorem.failures) >= 1
