"""Tests of the benchmark itself: seeded inputs, oracles, metric names, output contract.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import instances  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
POOLS = {
    "solve": lambda seed, _: instances.solve_pool(seed, 2),
    "refute": lambda seed, _: instances.refute_pool(seed, 2, 1),
    "verify": lambda seed, _: instances.verify_pool(seed, 2),
    "cli": instances.cli_pool,
}
JUDGED = {
    "solve": (instances.run_solve, instances.judge_solve),
    "refute": (instances.run_refute, instances.judge_refute),
    "verify": (instances.run_verify, instances.judge_verify),
}


@pytest.mark.parametrize("workload", sorted(POOLS))
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a = POOLS[workload](7, tmp_path)
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    b = POOLS[workload](7, tmp_path)
    assert instances.pool_bytes(a) == instances.pool_bytes(b)
    assert files == {p.name: p.read_bytes() for p in tmp_path.iterdir()}


@pytest.mark.parametrize("workload", sorted(POOLS))
def test_different_seed_gives_different_inputs(workload, tmp_path):
    a = POOLS[workload](7, tmp_path)
    b = POOLS[workload](8, tmp_path)
    assert instances.pool_bytes(a) != instances.pool_bytes(b)


@pytest.mark.parametrize("workload", sorted(JUDGED))
def test_same_seed_gives_identical_digest(workload, tmp_path):
    run, judge = JUDGED[workload]

    def verdicts():
        pool = POOLS[workload](7, tmp_path)[:12]
        return instances.digest(judge(c, run(c)).digest_line(c.id) for c in pool)

    assert verdicts() == verdicts()


def test_refute_instances_satisfy_their_certificates():
    pool = instances.refute_pool(3, 12, 6)
    assert {c.pinned for c in pool} == {True, False}
    for case in pool:
        if case.pinned:
            assert instances.schwarz_margin(case.problem, case.k) > 0, case.id
        else:
            assert 0 not in case.problem.nodes
            assert instances.classical_pick_margin(case.problem.nodes, case.problem.targets) < -instances.CLASSICAL_MARGIN


def test_feasible_instances_interpolate_their_ground_truth():
    pools = [instances.solve_pool(5, 2), instances.verify_pool(5, 1)]
    pools += [instances.defect_pool(w, 5) for w in ("solve", "verify")]
    for case in (c for pool in pools for c in pool):
        for z, w in zip(case.problem.nodes, case.problem.targets):
            assert abs(instances.own_eval(case.truth, z) - w) < 1e-9, case.id


@pytest.mark.parametrize("workload", ["solve", "verify"])
def test_known_defect_regimes_are_replayed_not_timed(workload):
    timed = POOLS[workload](4, None)
    defects = instances.defect_pool(workload, 4)
    left_out = {r.label for r in instances.defect_regimes(workload)}
    label = 1 if workload == "verify" else 0
    assert left_out and {c.id.split("/")[label] for c in defects} == left_out
    assert not {c.id.split("/")[label] for c in timed} & left_out
    assert instances.defect_pool("refute", 4) == instances.defect_pool("cli", 4) == []


def test_solve_nodes_keep_away_from_zero():
    for case in instances.solve_pool(6, 8):
        assert all(instances.SOLVE_INNER_RADIUS <= abs(z) <= 0.9 for z in case.problem.nodes), case.id


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    emitted = {**harness.END_TO_END, **harness.PER_LAYER}
    assert declared == emitted
    assert all(NAME.fullmatch(name) for name in emitted)
    assert {w["name"] for w in spec["workloads"]} == set(POOLS)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_result_line(trace):
    proc = _run(ROOT, "--workload", "verify", "--seed", "1", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    report = json.loads(proc.stdout.strip().splitlines()[-2].removeprefix("report "))
    assert report["known_defects"]["attempted"] == len(instances.defect_pool("verify", 1))
    expected = harness.PER_LAYER if trace == "1" else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
