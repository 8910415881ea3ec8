"""Tests of the benchmark itself (not part of the library's tier-1 suite).

    python3 -m pytest perfbench/tests

About a minute: the smoke runs make one pass of every workload, and the
lattice pass is the longest.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def last_line(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_prints_every_end_to_end_metric(workload):
    info, result = last_line(bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert info["error_rate"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["environment"]["seed"] == 0 and info["environment"]["nproc"] >= 1


def test_traced_run_prints_every_per_layer_metric():
    info, result = last_line(bench("--workload", "pcp", "--seed", "0", "--seconds", "0", "--trace", "1"))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["cayley.enumerate.calls"]["value"] > 0
    assert info["traced_passes"] == 1 and Path(ROOT, info["spans_file"]).exists()


def test_benchmark_json_matches_what_the_code_prints():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.metric_specs()
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_digest_and_wrong_exit_code_count_as_failures(tmp_path, monkeypatch):
    golden = json.loads(worker.GOLDEN.read_text())
    golden["pcp"]["digest"]["abelian222"] = "0" * 64
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden))
    generate = workloads.generate

    def wrong_exit_code(*args):
        reqs, probes = generate(*args)
        reqs[1].expect_rc = 3
        return reqs, probes

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(worker, "GOLDEN", tampered)
    monkeypatch.setattr(workloads, "generate", wrong_exit_code)
    pass_ = worker.run_pass("pcp", workloads.DEFAULT_SEED, trace=False, setup_only=False)
    reasons = {f["request"]: f["reason"] for f in pass_["failures"]}
    assert reasons == {
        "abelian222": "digest differs from the golden output",
        "dihedral6": "exit code 0, expected 3",
    }
    info, result = run.summarize("pcp", 0, 0, [pass_], [pass_], [])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 2)
    assert info["error_rate"] == 0.5


def test_wrong_output_on_a_held_out_seed_fails_the_oracle():
    table = workloads.Table([[(i + j) % 4 for j in range(4)] for i in range(4)])
    check = workloads._check_verdict(table, [2], [0, 1], total=False)
    good = "group cyclic:4  S=[2]  C=[0, 1]\nperfect code: definition=True group_ring=True transversal=None\n"
    assert check(good) is None
    assert check(good.replace("definition=True", "definition=False")) == "the three checks disagree"
    assert "definition says True" in check(good.replace("=True", "=False"))


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("groups.closure", lambda: sum(range(10000)))
    outer = tracer.wrap("groups.all_subgroups", lambda: [inner() for _ in range(3)])
    outer()
    m = tracer.metrics()
    assert m["groups.closure.calls"] == 3 and m["groups.all_subgroups.calls"] == 1
    assert m["groups.all_subgroups.self_s"] == pytest.approx(
        m["groups.all_subgroups.s"] - m["groups.closure.s"]
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "suites", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
