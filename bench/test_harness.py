"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/test_harness.py

Checks that every metric named in BENCHMARK.json is emitted for every
workload the harness knows, that the names are well formed, that the
harness refuses to run without the program's sources, and that the
independent references agree with the naive oracle in ``tests/oracle.py``
and with the suites' regimes.
"""

import json
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src", ROOT / "tests"):
    sys.path.insert(0, str(path))

import references as ref  # noqa: E402
import workloads  # noqa: E402
from oracle import naive_kayles_grundy, naive_poset_grundy  # noqa: E402
from posetgames import Graph, Poset, chain, random_poset  # noqa: E402
from posetgames.verify import SUITES, SuiteConfig, run_suite  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    record = json.loads(out.stdout.strip().splitlines()[-2])["record"]
    assert record["deterministic"] and record["provenance"]["src_sha256"]


def test_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench(Path(tmp), "game-sums", 0)
    assert out.returncode != 0
    assert "metrics" not in out.stdout


def test_references_agree_with_the_naive_oracle():
    for n in range(9):
        path = Graph.of(n, [(i, i + 1) for i in range(n - 1)])
        assert ref.dawson_path_grundy(n) == naive_kayles_grundy(path)
        assert ref.kayles_grundy(n, path.edges) == naive_kayles_grundy(path)
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 7)
        edges = ref.random_graph(n, 0.4, rng)
        assert ref.kayles_grundy(n, edges) == naive_kayles_grundy(Graph.of(n, edges))
    for m in range(7):
        assert ref.chain_grundy(m) == naive_poset_grundy(chain(m))
    for a in range(1, 5):
        for b in range(1, 5):
            pairs = [(i + 1, i) for i in range(a - 1)] + [(a + i + 1, a + i) for i in range(b - 1)]
            total = naive_poset_grundy(Poset.from_pairs(a + b, pairs))
            assert ref.sum_grundy(ref.chain_grundy(a), ref.chain_grundy(b)) == total


def test_closure_and_covers_agree_with_poset():
    for seed in range(10):
        p = random_poset(9, 0.3, seed)
        strict = [(x, y) for x in range(p.m) for y in range(p.m) if x != y and p.leq(x, y)]
        assert ref.closure(p.m, strict) == list(p.up)
        assert ref.cover_pairs(list(p.up)) == set(p.cover_pairs())


def test_regime_instance_counts_match_the_suites():
    for suite in SUITES:
        max_n = 4 if suite.startswith("lemma") and suite != "lemma1" else 3
        report = run_suite(SuiteConfig(suite, max_n=max_n, random_posets=5))
        assert len(report.results) == ref.regime_instances(suite, max_n, 5)
