import json
from dataclasses import replace

import pytest

from posetgames import (
    Graph,
    antichain,
    chain,
    complete_graph,
    disjoint_union,
    grundy,
    KaylesGame,
    random_poset,
)
from posetgames.posets import Poset
from posetgames.reductions import PhiImage
from posetgames.verify import (
    BOnlyContext,
    DEFAULT_SEED,
    SUITES,
    SuiteConfig,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_setgame_equiv,
    check_theorem,
    run_suite,
)

K2 = complete_graph(2)
P3 = Graph.of(3, [(0, 1), (1, 2)])


class TestLemma1Check:
    def test_k2(self):
        assert grundy(KaylesGame(K2)) == 1
        assert check_lemma1(K2).verdict == "pass"

    def test_empty_two_vertices(self):
        assert check_lemma1(Graph.of(2)).verdict == "pass"

    def test_p3(self):
        assert grundy(KaylesGame(P3)) == 2
        assert check_lemma1(P3).verdict == "pass"

    def test_budget_inconclusive(self):
        assert check_lemma1(complete_graph(4), budget=2).verdict == "inconclusive"


class TestLemma2Check:
    def test_k2_both_endpoints(self):
        ctx = BOnlyContext(K2)
        res = check_lemma2(K2, {0, 1}, (0, 1), ctx=ctx)
        assert res.verdict == "pass"
        # after the winning reply only the other low edge copies remain
        pos = ctx.position_after({0, 1})
        after = ctx.game.apply(pos, ctx.image.a_of_edge((0, 1)))
        remaining = [x for x in ctx.image.a_elements() if after >> x & 1]
        assert after.bit_count() == len(remaining) == 2

    def test_all_vertices_chosen(self):
        ctx = BOnlyContext(K2)
        for e in ctx.image.edge_order:
            assert check_lemma2(K2, set(range(ctx.padded.n)), e, ctx=ctx).verdict == "pass"

    def test_missing_endpoint_rejected(self):
        with pytest.raises(ValueError):
            check_lemma2(K2, {0}, (0, 1))


class TestLemma3Check:
    def test_k2_one_endpoint(self):
        ctx = BOnlyContext(K2)
        res = check_lemma3(K2, {0}, (0, 1), ctx=ctx)
        assert res.verdict == "pass"

    def test_k3_each_incident_edge(self):
        g = complete_graph(3)
        ctx = BOnlyContext(g)
        for e in ((0, 1), (0, 2)):
            assert check_lemma3(g, {0}, e, ctx=ctx).verdict == "pass"

    def test_both_endpoints_rejected(self):
        with pytest.raises(ValueError):
            check_lemma3(K2, {0, 1}, (0, 1))


class TestLemma4Check:
    def test_k2_every_edge(self):
        ctx = BOnlyContext(K2)
        assert len(ctx.image.edge_order) == 3
        for e in ctx.image.edge_order:
            assert check_lemma4(K2, set(), e, ctx=ctx).verdict == "pass"

    def test_k3_inner_edge(self):
        g = complete_graph(3)
        assert check_lemma4(g, set(), (0, 1)).verdict == "pass"

    def test_removed_edge_rejected(self):
        with pytest.raises(ValueError):
            check_lemma4(K2, {0}, (0, 1))


class TestTheoremCheck:
    def test_k2(self):
        assert check_theorem(K2).verdict == "pass"

    def test_empty_two_vertices(self):
        assert check_theorem(Graph.of(2)).verdict == "pass"

    def test_p3(self):
        assert check_theorem(P3).verdict == "pass"

    def test_budget_inconclusive(self):
        assert check_theorem(complete_graph(4), budget=2).verdict == "inconclusive"


class TestSetGameCheck:
    def test_antichain(self):
        assert check_setgame_equiv(antichain(3)).verdict == "pass"

    def test_chain(self):
        assert check_setgame_equiv(chain(4)).verdict == "pass"

    def test_random(self):
        assert check_setgame_equiv(random_poset(10, 0.3, 7)).verdict == "pass"


def strip_millis(report):
    """The report's JSON records without their timing field."""
    return [
        {k: v for k, v in json.loads(line).items() if k != "millis"}
        for line in report.to_records().splitlines()
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

    @pytest.mark.parametrize("suite", SUITES)
    def test_jobs_match_sequential(self, suite):
        cfg = SuiteConfig(suite=suite, max_n=3, random_posets=10)
        seq, par = run_suite(cfg), run_suite(replace(cfg, jobs=2))
        assert seq.results
        assert strip_millis(seq) == strip_millis(par)


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
    levels = ["A"] * ne + ["B"] * nv + ["C"] * ne
    return PhiImage(Poset.from_pairs(nv + 2 * ne, pairs, levels), g, edges)


def single_k3_padding(g):
    """Padding that appends one K3 where a K2 belongs."""
    if len(g.edges) % 2 == 1:
        return disjoint_union(g, complete_graph(3))
    return disjoint_union(disjoint_union(g, complete_graph(3)), complete_graph(4))


class TestMutationSensitivity:
    def test_corrupted_phi_detected_by_theorem_suite(self):
        report = run_suite(SuiteConfig(suite="theorem", max_n=3), phi_fn=drop_one_low_relation)
        assert len(report.failures) >= 1

    def test_corrupted_phi_reaches_workers(self):
        report = run_suite(SuiteConfig(suite="theorem", max_n=3, jobs=2), phi_fn=drop_one_low_relation)
        assert len(report.failures) >= 1

    def test_corrupted_psi_detected(self):
        parity = run_suite(SuiteConfig(suite="psi", max_n=3), psi_fn=single_k3_padding)
        theorem = run_suite(SuiteConfig(suite="theorem", max_n=3), psi_fn=single_k3_padding)
        assert len(parity.failures) >= 1
        assert len(theorem.failures) >= 1
