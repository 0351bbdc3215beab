"""tools/bench_record.py: parent/change benchmark runs summarised per workload."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

END_TO_END = [m["name"] for m in json.loads(
    (TOOL.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]]


def fake_run(path, workload, post_s, correct=True):
    """A saved run.py stdout: environment, workload line, a gate, metrics."""
    metrics = {name: {"value": 1.0, "unit": "s"} for name in END_TO_END}
    metrics["post_s"]["value"] = post_s
    path.write_text("\n".join([
        json.dumps({"environment": {"nproc": 2}}),
        json.dumps({"absent": [], "trace": 0, "workload": workload}),
        "gate PASS [0] something: fine",
        json.dumps({"correct": correct, "attempted": 3, "failed": 0,
                    "metrics": metrics})]) + "\n")
    return str(path)


def test_medians_quartiles_and_wins(tmp_path):
    parent = [fake_run(tmp_path / f"p{i}.txt", "deterministic", v)
              for i, v in enumerate([1.0, 1.2, 1.1, 0.5])]
    change = [fake_run(tmp_path / f"c{i}.txt", "deterministic", v)
              for i, v in enumerate([0.6, 0.7, 1.1, 0.6])]
    out = tmp_path / "BENCH_1.json"
    assert bench_record.main(["--pr", "1", "--parent", *parent,
                              "--change", *change, "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    post = result["workloads"]["deterministic"]["metrics"]["post_s"]
    assert post["parent"] == {"median": 1.05, "q1": 0.875, "q3": 1.125,
                              "runs": 4}
    assert post["change"]["median"] == pytest.approx(0.65)
    # the tie (1.1, 1.1) counts for neither side, the last pair for parent
    assert (post["change_wins"], post["pairs"]) == (2, 4)
    assert post["change_over_parent"] == pytest.approx(0.65 / 1.05)
    assert sorted(result["workloads"]["deterministic"]["metrics"]) == \
        sorted(END_TO_END)


def test_mismatched_runs_are_rejected(tmp_path, capsys):
    parent = [fake_run(tmp_path / "p.txt", "deterministic", 1.0)]
    change = [fake_run(tmp_path / "c.txt", "free-oracle", 1.0)]
    assert bench_record.main(["--pr", "1", "--parent", *parent, "--change",
                              *change, "--out", str(tmp_path / "b.json")]) == 2
    assert "differ" in capsys.readouterr().err
    (tmp_path / "bad.txt").write_text("no json here\n")
    assert bench_record.main(["--pr", "1", "--parent", str(tmp_path / "bad.txt"),
                              "--change", *change]) == 2


def test_a_run_without_its_workload_line_names_the_line(tmp_path, capsys):
    whole = Path(fake_run(tmp_path / "whole.txt", "deterministic", 1.0))
    last = tmp_path / "last.txt"   # what `| tail -n 1` keeps
    last.write_text(whole.read_text().splitlines()[-1] + "\n")
    assert bench_record.main(["--pr", "1", "--parent", str(last), "--change",
                              str(whole), "--out", str(tmp_path / "b.json")]) == 2
    err = capsys.readouterr().err
    assert '{"workload": ...} line' in err and "whole stdout" in err
