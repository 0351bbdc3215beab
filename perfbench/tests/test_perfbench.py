"""Tests of the benchmark itself, at the smoke size.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        bench.layer_units()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def _smoke_outputs(workload, tmp_path):
    plan = wl.make_plan(workload, 5, tmp_path, 1, "smoke")
    runner = bench.Runner(ROOT, time.perf_counter() + 150)
    records = bench.run_sequence(runner, plan)
    reference = wl.load_reference()
    assert all(g.ok for g in bench.check_gates(plan, records, reference))
    return plan, records, reference


def _rewrite_csv(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _failing(plan, records, reference):
    return [g.name for g in bench.check_gates(plan, records, reference)
            if not g.ok]


def test_dropped_particles_fail_the_density_gate(tmp_path):
    plan, records, reference = _smoke_outputs("ensemble-interacting",
                                              tmp_path)
    run = plan.commands[0].out
    for f in run.glob("particles_*.csv"):
        _rewrite_csv(f, lambda lines: lines[:1] + lines[1::2])
    assert "late density" in _failing(plan, records, reference)


def test_perturbed_estimate_fails_the_recompute_gate(tmp_path):
    plan, records, reference = _smoke_outputs("free-oracle", tmp_path)
    run = plan.commands[0].out

    def bump(lines):
        head, *rows = lines
        cols = rows[0].split(",")
        cols[-2] = repr(float(cols[-2]) + 0.5)
        return [head, ",".join(cols)] + rows[1:]
    _rewrite_csv(run / "k1.csv", bump)
    verify = plan.commands[1]
    records["verify"] = bench.Runner(ROOT, time.perf_counter() + 60).contpop(
        verify.argv, tmp_path / "verify.log")
    records["verify"]["stdout"] = (tmp_path / "verify.log").read_text()
    assert "verify k1-recompute" in _failing(plan, records, reference)


def test_free_counts_off_the_exact_law_fail(tmp_path):
    plan, records, reference = _smoke_outputs("free-oracle", tmp_path)
    last = sorted(plan.commands[0].out.glob("particles_*.csv"))[-1]
    _rewrite_csv(last, lambda lines: lines[:1] + lines[1::3])
    assert any(name.startswith("exact-law")
               for name in _failing(plan, records, reference))


def test_changed_final_density_fails_the_deterministic_gate(tmp_path):
    plan, records, reference = _smoke_outputs("deterministic", tmp_path)
    summary = plan.commands[1].out / "summary.json"
    data = json.loads(summary.read_text())
    data["final_density"] = [v * (1 + 1e-4) for v in data["final_density"]]
    summary.write_text(json.dumps(data))
    assert _failing(plan, records, reference) == \
        ["hierarchy_kirkwood final density"]


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("ensemble-interacting", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
