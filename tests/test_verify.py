import hashlib
import json
import re
from dataclasses import replace

import pytest

from posetgames import (
    Graph,
    antichain,
    chain,
    complete_graph,
    disjoint_union,
    format_graph,
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
    check_psi_properties,
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


class TestVertexRange:
    @pytest.mark.parametrize("v", [-1, 6])
    def test_position_after(self, v):
        ctx = BOnlyContext(K2)
        assert ctx.padded.n == 6
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            ctx.position_after({v})

    @pytest.mark.parametrize("check, endpoints", [
        (check_lemma2, {0, 1}), (check_lemma3, {0}), (check_lemma4, set()),
    ])
    @pytest.mark.parametrize("v", [-1, 6])
    def test_lemma_checks(self, check, endpoints, v):
        with pytest.raises(ValueError, match=re.escape(f"chosen vertices [{v}] out of range")):
            check(K2, endpoints | {v}, (0, 1), ctx=BOnlyContext(K2))


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

    def test_winning_gamma_fails(self):
        # a table that calls the child lost makes gamma(e) a winning move
        ctx = BOnlyContext(K2)
        pos = ctx.position_after({0})
        ctx.table.wins[ctx.game.apply(pos, ctx.image.a_of_edge((0, 1)))] = False
        res = check_lemma3(K2, {0}, (0, 1), ctx=ctx)
        assert res.verdict == "fail"
        assert res.detail == f"gamma((0, 1)) not losing after chosen=[0] on\n{format_graph(K2)}"


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

    def test_winning_gamma_fails(self):
        # e itself is still losing; a table that calls gamma(e)'s child lost
        # makes the second probe fail
        ctx = BOnlyContext(K2)
        pos = ctx.position_after(set())
        ctx.table.wins[ctx.game.apply(pos, ctx.image.a_of_edge((0, 1)))] = False
        res = check_lemma4(K2, set(), (0, 1), ctx=ctx)
        assert res.verdict == "fail"
        assert res.detail == f"gamma(e) for (0, 1) not losing, chosen=[] on\n{format_graph(K2)}"


class TestTheoremCheck:
    def test_k2(self):
        assert check_theorem(K2).verdict == "pass"

    def test_empty_two_vertices(self):
        assert check_theorem(Graph.of(2)).verdict == "pass"

    def test_p3(self):
        assert check_theorem(P3).verdict == "pass"

    def test_budget_inconclusive(self):
        assert check_theorem(complete_graph(4), budget=2).verdict == "inconclusive"


class TestPsiCheck:
    @pytest.mark.parametrize("padded, detail", [
        (P3, "even edge count 2"),
        (Graph.of(4, [(0, 1), (0, 2), (0, 3)]), "vertex 0 incident to every edge"),
        (Graph.of(4, [(1, 2)]), "vertex 1 incident to every edge"),
        (Graph.of(5, [(1, 3), (2, 3), (3, 4)]), "vertex 3 incident to every edge"),
    ], ids=["even", "star", "one-edge", "hub"])
    def test_bad_padding(self, padded, detail):
        res = check_psi_properties(P3, psi_fn=lambda g: padded)
        assert res.verdict == "fail"
        assert res.detail == f"{detail} on\n{format_graph(P3)}"


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

    @pytest.mark.parametrize("field, value", [
        ("max_n", 0), ("max_n", -2), ("random_posets", -1), ("max_poset_elements", 0),
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
        assert all(r.verdict == "inconclusive" for r in report.results)
        assert {r.detail for r in report.results} == {"budget exhausted"}

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


# SHA-256 of each suite's records at its default regime without the timing
# field (instance, verdict, states, detail): enumeration order, sampling and
# search must all stay put.  A change that moves them updates these values
# and says why.
GOLDEN_RECORDS = {
    "theorem": "b37443661dad7e49691628a112448457313b7b5ef47050bd5ed862dda73a49a9",
    "lemma1": "ebaa957b6dcd55c296c25590e1990eb44694ecb7da9ba1bc42ccaa9653168286",
    "lemma2": "6498507c92e3e07da9b362076ba3f0110be0d0f95d33aa9518475592ef44696e",
    "lemma3": "5887ba55e9ddea3d68acb55af24494af5f58554eaf94ce3f7da3a13f8752a516",
    "lemma4": "8ad9ac21eb3c1a482bab117e020c1f02b3cc940b91cf78e4ebb78fa2a3fba66c",
    "setgame": "ed3780c3cf419587c8c0ba7a41fb1c58b22c28598c36a71e62fd22f2f0b47a2c",
    "psi": "c73941ec7afd1d04a7034def44230e50a1bea89a45d0686bfb6c2f7f401879de",
}


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
