"""Acceptance gate: one test per release criterion, each printing a verdict
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them all).
Time limits are generous bounds for a commodity machine.
"""

import random
import time

from posetgames import (
    KaylesGame,
    PosetGame,
    enumerate_labeled_graphs,
    GameValue,
    grundy,
    phi,
    psi,
    random_poset,
    SearchStats,
    solve_winner,
    TranspositionTable,
)
from posetgames.verify import DEFAULT_SEED, SuiteConfig, run_suite

from oracle import naive_kayles_grundy, naive_poset_grundy
from shapes import graph_sum, poset_sum
from test_verify import drop_one_low_relation, single_k3_padding


def _report(name, ok, extra=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {extra}")
    assert ok, f"{name} failed: {extra}"


def _suite_within(suite, seconds, **cfg):
    t0 = time.perf_counter()
    report = run_suite(SuiteConfig(suite=suite, **cfg))
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed <= seconds
    detail = (
        f"({len(report.results)} instances, {len(report.failures)} failures, "
        f"{len(report.inconclusives)} inconclusive, {elapsed:.1f}s/{seconds}s)"
    )
    return report, ok, detail, elapsed


def test_criterion_1_theorem_winner_preservation():
    report, ok, detail, _ = _suite_within("theorem", 300, max_n=4)
    ok = ok and len(report.results) == 1 + 2 + 8 + 64
    _report("1 theorem winner preservation n<=4", ok, detail)


def test_criterion_2_padding_grundy_invariance():
    report, ok, detail, _ = _suite_within("lemma1", 120, max_n=5)
    ok = ok and len(report.results) == 1 + 2 + 8 + 64 + 1024
    _report("2 padding grundy invariance n<=5", ok, detail)


def test_criterion_3_vertex_level_lemmas():
    t0 = time.perf_counter()
    details = []
    ok = True
    for suite in ("lemma2", "lemma3", "lemma4"):
        report = run_suite(SuiteConfig(suite=suite, max_n=4))
        ok = ok and report.passed
        details.append(f"{suite}:{len(report.results)}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 600
    _report("3 vertex-level move lemmas", ok, f"({' '.join(details)}, {elapsed:.1f}s/600s)")


def test_criterion_4_setgame_equivalence():
    report, ok, detail, _ = _suite_within(
        "setgame", 300, max_n=3, random_posets=200, max_poset_elements=12
    )
    _report("4 upper-cone set-game equivalence", ok, detail)


def test_criterion_5_padding_structure():
    report, ok, detail, _ = _suite_within("psi", 60, max_n=6)
    _report("5 padding structural properties n<=6", ok, detail)


def test_criterion_6_solver_self_consistency():
    # grundy == 0 <=> loss, across every memoized grundy state of the
    # criterion-1/4 style instances (well past 10^4 states in total)
    checked = 0
    mismatches = 0
    for n in range(1, 4):
        for g in enumerate_labeled_graphs(n):
            game = PosetGame(phi(psi(g)).poset)
            gtable, wtable = TranspositionTable(), TranspositionTable()
            stats = SearchStats()
            grundy(game, table=gtable, stats=stats)
            for pos, value in gtable.values.items():
                if (value == 0) != (solve_winner(game, pos, wtable, stats=stats) is GameValue.LOSS):
                    mismatches += 1
            checked += len(gtable.values)
    enough = checked >= 10_000

    # Grundy numbers of disjoint unions must XOR
    xor_bad = 0
    small = [g for n in range(1, 4) for g in enumerate_labeled_graphs(n)]
    for a in small:
        for b in small:
            if a.n + b.n > 9:
                continue
            if grundy(KaylesGame(graph_sum(a, b))) != grundy(KaylesGame(a)) ^ grundy(KaylesGame(b)):
                xor_bad += 1
    rng = random.Random(DEFAULT_SEED)
    pools = {n: list(enumerate_labeled_graphs(n)) for n in (4, 5)}
    for _ in range(200):
        n1 = rng.choice((4, 5))
        n2 = rng.randint(1, 9 - n1)
        a = rng.choice(pools.get(n1) or [])
        b = rng.choice(pools.get(n2) or list(enumerate_labeled_graphs(n2)))
        if grundy(KaylesGame(graph_sum(a, b))) != grundy(KaylesGame(a)) ^ grundy(KaylesGame(b)):
            xor_bad += 1
    for i in range(200):
        rng2 = random.Random(DEFAULT_SEED + 7 * i)
        m1 = rng2.randint(1, 8)
        m2 = rng2.randint(1, 9 - m1)
        p1 = random_poset(m1, rng2.uniform(0, 1), DEFAULT_SEED + i)
        p2 = random_poset(m2, rng2.uniform(0, 1), DEFAULT_SEED + 10_000 + i)
        if grundy(PosetGame(poset_sum(p1, p2))) != grundy(PosetGame(p1)) ^ grundy(PosetGame(p2)):
            xor_bad += 1
    ok = enough and mismatches == 0 and xor_bad == 0
    _report(
        "6 solver self-consistency",
        ok,
        f"({checked} states checked, {mismatches} grundy/loss mismatches, {xor_bad} xor failures)",
    )


def test_criterion_7_naive_oracle_agreement():
    bad = 0
    graphs = 0
    for n in range(5):
        for g in enumerate_labeled_graphs(n):
            graphs += 1
            if grundy(KaylesGame(g)) != naive_kayles_grundy(g):
                bad += 1
    posets = 0
    for i in range(200):
        rng = random.Random(DEFAULT_SEED * 1_000_003 + i)
        m = rng.randint(1, 12)
        density = rng.uniform(0.1, 0.9)
        if m > 10:
            continue
        p = random_poset(m, density, DEFAULT_SEED * 7_919 + i)
        posets += 1
        if grundy(PosetGame(p)) != naive_poset_grundy(p):
            bad += 1
    _report(
        "7 naive oracle agreement",
        bad == 0,
        f"({graphs} kayles graphs, {posets} posets <=10 elements, {bad} disagreements)",
    )


def test_criterion_8_mutation_sensitivity():
    phi_hits = len(
        run_suite(SuiteConfig(suite="theorem", max_n=3), phi_fn=drop_one_low_relation).failures
    )
    psi_parity_hits = len(
        run_suite(SuiteConfig(suite="psi", max_n=3), psi_fn=single_k3_padding).failures
    )
    psi_theorem_hits = len(
        run_suite(SuiteConfig(suite="theorem", max_n=3), psi_fn=single_k3_padding).failures
    )
    ok = phi_hits >= 1 and (psi_parity_hits >= 1 or psi_theorem_hits >= 1)
    _report(
        "8 mutation sensitivity",
        ok,
        f"(corrupted-phi theorem failures={phi_hits}, k3-padding parity failures="
        f"{psi_parity_hits}, k3-padding theorem failures={psi_theorem_hits})",
    )
