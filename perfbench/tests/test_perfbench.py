"""Tests of the benchmark itself: tracing and running scenario by scenario
leave reports unchanged, the verdict oracle catches a wrong status, and the
command emits every metric that BENCHMARK.json names.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from projcomp import cli, fields, jets, paracx

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = {"scenarios": [
    {"id": "dm", "catalog": "dm-random",
     "params": {"n": 2, "degree": 1, "seed": 3},
     "checks": ["einstein", "nijenhuis-tangential"], "points": 2, "seed": 3},
    {"id": "cone", "catalog": "cone", "params": {"base": "sphere"},
     "checks": ["extension"], "points": 2, "seed": 4},
]}


def test_traced_report_equals_untraced_apart_from_wall_time():
    originals = (fields.levi_civita, paracx.levi_civita, jets.JetAlgebra.mul,
                 cli.run_scenario)
    _, plain = run.scaled_pass(SMALL, [run.time_reference()])
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _, traced = run.scaled_pass(SMALL, [run.time_reference()])
    assert run.canonical(traced) == run.canonical(plain)
    assert (fields.levi_civita, paracx.levi_civita, jets.JetAlgebra.mul,
            cli.run_scenario) == originals
    metrics = tracing.layer_metrics(tracer.aggregate())
    assert metrics["jets.mul.calls"][0] > 0
    assert metrics["fields.levi_civita.evals"][0] > 0
    assert metrics["paracx.pullback.evals"][0] > 0
    assert metrics["compactify.extend_to_boundary.tangent_points"][0] >= 2


def test_scaled_pass_gives_the_whole_manifest_verdicts():
    whole = cli.run_manifest(SMALL)
    refs = [run.time_reference()]
    times, merged = run.scaled_pass(SMALL, refs)
    assert len(refs) == 1 + len(SMALL["scenarios"])
    assert all(t > 0 for t in times)
    assert run.canonical(merged) == {
        "scenarios": run.canonical(whole)["scenarios"],
        "summary": whole["summary"]}


def test_oracle_counts_wrong_and_missing_verdicts():
    wl = workloads.make("paper-suite", 0)
    _, report = run.scaled_pass(
        {"scenarios": [sc for sc in wl.manifest["scenarios"] if sc["id"] == "eh"]},
        [run.time_reference()])
    expected = {k: v for k, v in wl.expected.items() if k[0] == "eh"}
    assert expected[("eh", "metricity")] == "inconclusive"
    assert run.mismatches(report, expected, None) == 0
    assert run.mismatches(report, expected, run.canonical(report)) == 0
    report["scenarios"][0]["records"][0]["status"] = "fail"
    assert run.mismatches(report, expected, None) >= 1
    del report["scenarios"][0]["records"][1]
    assert run.mismatches(report, expected, None) >= 2


def test_generated_workloads_follow_the_seed():
    for name in ("interior-deep", "boundary-ladder"):
        a, b = workloads.make(name, 5), workloads.make(name, 5)
        assert a.manifest == b.manifest
        assert a.manifest != workloads.make(name, 6).manifest
        cli.validate_manifest(a.manifest)
    assert workloads.make("paper-suite", 1).manifest == cli.builtin_manifest()
    assert set(workloads.WORKLOADS) >= {w["name"] for w in SPEC["workloads"]}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_is_emitted(trace, key):
    proc = _bench("--workload", "interior-deep", "--seed", "2",
                  "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name in want:
        assert name in proc.stdout.split("\n", 1)[-1]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "paper-suite", "--seed", "0", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
