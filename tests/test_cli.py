"""End-to-end command-line runs: manifests, outputs, exit codes, verify."""

import csv
import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

import contpop.cli as cli
from contpop import HierarchyState, build_params, integrate, load_config
from contpop.cli import main

FREE_KERNEL = {"kind": "gaussian", "amplitude": 0.0, "range": 1.0}
UNIT_KERNEL = {"kind": "gaussian", "amplitude": 1.0,
               "range": 1.0 / math.sqrt(2.0 * math.pi)}


def write_cfg(tmp_path, name="model.json", kernel=None, b=1.0, m=1.0,
              initial=None, extra=None):
    cfg = {
        "dimension": 1,
        "sides": [10.0],
        "kernel": kernel or dict(FREE_KERNEL),
        "b": {"kind": "constant", "value": b},
        "m": {"kind": "constant", "value": m},
    }
    if initial is not None:
        cfg["initial"] = initial
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------- simulate

def test_simulate_produces_run_directory(tmp_path):
    cfg = write_cfg(tmp_path, initial={"kind": "poisson", "density": 0.5})
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--seed", "11", "--replicas", "4", "--snapshots", "0.5,1.0"])
    assert code == 0
    for name in ("manifest.json", "summary.json", "k1.csv", "moments.csv",
                 "k2.csv", "particles_0000.csv", "particles_0001.csv"):
        assert (out / name).is_file(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 11
    assert manifest["arguments"]["snapshots"] == [0.5, 1.0]
    assert len(manifest["config_sha256"]) == 64
    summary = json.loads((out / "summary.json").read_text())
    assert summary["replicas"] == 4
    assert summary["max_audit_residual"] <= 1e-6
    rows = read_rows(out / "particles_0000.csv")
    assert set(r["replica"] for r in rows) <= {"0", "1", "2", "3"}


def test_simulate_manifest_lands_before_numerical_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, b=5.0, m=0.1)
    out = tmp_path / "capped"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--seed", "1", "--replicas", "1", "--snapshots", "4.0",
                 "--max-events", "1"])
    assert code == 3
    assert (out / "manifest.json").is_file()
    assert not (out / "k1.csv").exists()
    assert "numerical failure" in capsys.readouterr().err


def test_simulate_capped_in_workers_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, b=5.0, m=0.1)
    code = main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "capped"), "--seed", "1", "--threads", "2",
                 "--replicas", "3", "--snapshots", "4.0",
                 "--max-events", "1"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_threads_below_one_exit_2_without_manifest(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--seed", "1", "--replicas", "2", "--snapshots", "1.0",
                 "--threads", "0"])
    assert code == 2
    assert not (out / "manifest.json").exists()
    err = capsys.readouterr().err
    assert "--threads" in err and err.count("\n") == 1


def test_repair_counts_in_summary_match_across_workers(tmp_path):
    cfg = write_cfg(tmp_path, kernel=dict(UNIT_KERNEL), m=0.0,
                    initial={"kind": "poisson", "density": 0.5})
    repairs = []
    for threads in ("1", "2"):
        out = tmp_path / f"run{threads}"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", "31", "--replicas", "4",
                     "--snapshots", "2,4", "--threads", threads]) == 0
        repairs.append(json.loads((out / "summary.json").read_text())
                       ["repairs"])
    assert repairs[0] == repairs[1]
    assert set(repairs[0]) == {"selection_fallbacks"}


def test_simulate_rerun_and_threads_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, kernel=dict(UNIT_KERNEL), m=0.5,
                    initial={"kind": "poisson", "density": 0.5})
    outs = [tmp_path / f"run{i}" for i in range(3)]
    for out, threads in zip(outs, ("1", "1", "8")):
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", "99", "--replicas", "6",
                     "--snapshots", "0.5,1.0", "--threads", threads])
        assert code == 0
    names = ["k1.csv", "k2.csv", "moments.csv", "particles_0000.csv",
             "particles_0001.csv"]
    for name in names:
        reference = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == reference, name
        assert (outs[2] / name).read_bytes() == reference, name


# sha256 of every CSV of a small free 1-D run, recorded before the estimators
# moved to whole-ensemble arrays; any refactor that keeps the draw order must
# keep these bytes
GOLDEN_SHA256 = {
    "k1.csv": "45937a189306c5bef6625de1d2a8b12593fb477345bdd2a69f13652c546d17c2",
    "k2.csv": "1f7217ba93aacf422b073419aff673b5ed986cfa3fdbd7993c9aa6af6c20d9a7",
    "moments.csv":
        "020bdad4e3f5b499a1041f5c78768a79dbe20ec54cbac9bd926b388e9338474e",
    "particles_0000.csv":
        "fc007c2996423c1ed14eb089a5340cb4ce3b0a3205c9a19a611f530a4c7663c2",
    "particles_0001.csv":
        "091e877f92a67ee90f6f31dd879734ecfba0155f4d2d9d2e22e018282a026e77",
}


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """The golden manifest run at threads 1 and 2."""
    tmp = tmp_path_factory.mktemp("golden")
    cfg = write_cfg(tmp, initial={"kind": "poisson", "density": 0.5})
    outs = {}
    for threads in (1, 2):
        outs[threads] = tmp / f"run{threads}"
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(outs[threads]), "--seed", "20261018",
                     "--replicas", "6", "--snapshots", "0.5,1.0",
                     "--cell-side", "0.1", "--threads", str(threads)])
        assert code == 0
    return outs


@pytest.mark.parametrize("threads", (1, 2))
def test_golden_manifest_csvs_are_byte_identical(golden_runs, threads):
    out = golden_runs[threads]
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(GOLDEN_SHA256)
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == \
            digest, name


# sha256 of every CSV of a small 2-D periodic interacting run, recorded before
# the neighbour scan was inlined and the uniforms drawn in blocks; the grid
# has 3 x 2 cells, so the y stencil is deduplicated
GOLDEN_INTERACTING_SHA256 = {
    "k1.csv": "5a26edefb92c55668a178bd18084dd2799fc4493c715e8ada1d145d51b0b5ecb",
    "k2.csv": "7c51c70922c416337a7a192bb24b2ec11ef241432e5ac32692c0b7960f9dc1ef",
    "moments.csv":
        "2a84a61cb7cb5a22e2eb97f0bc4f0628894bf0ea2433d174ef7902315897ba7d",
    "particles_0000.csv":
        "2d763db752fe70b62313b9087b8661bbc4344e53c9d09e96dc7be28d1f54e657",
    "particles_0001.csv":
        "fcf62ac5349a26d1ba18391e00bbfb9a6c601e718c18b0d40a94f960a5bf9dc8",
}


@pytest.fixture(scope="module")
def golden_interacting_runs(tmp_path_factory):
    """The golden 2-D interacting run at threads 1 and 2."""
    tmp = tmp_path_factory.mktemp("golden2d")
    cfg = write_cfg(tmp, b=2.0, m=0.5,
                    kernel={"kind": "gaussian", "amplitude": 1.0,
                            "range": 0.4, "r_cut": 1.5},
                    initial={"kind": "poisson", "density": 1.0},
                    extra={"dimension": 2, "sides": [5.0, 4.0]})
    outs = {}
    for threads in (1, 2):
        outs[threads] = tmp / f"run{threads}"
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(outs[threads]), "--seed", "20261018",
                     "--replicas", "6", "--snapshots", "1.0,4.0",
                     "--cell-side", "1.0", "--threads", str(threads)])
        assert code == 0
    return outs


@pytest.mark.parametrize("threads", (1, 2))
def test_golden_interacting_csvs_are_byte_identical(golden_interacting_runs,
                                                    threads):
    out = golden_interacting_runs[threads]
    assert sorted(p.name for p in out.glob("*.csv")) == \
        sorted(GOLDEN_INTERACTING_SHA256)
    for name, digest in GOLDEN_INTERACTING_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == \
            digest, name


# exit code and per-check lines of verify on the two golden runs, recorded
# before the recompute checks were rebuilt on the estimator writers' own
# tables; six free replicas are too few for oracle-equivalence, which
# false-alarms here
GOLDEN_VERIFY = {
    "free": (1, [
        "verify PASS k1-recompute: max deviation 0",
        "verify PASS moments-recompute: max deviation 0",
        "verify PASS moment-identity: max relative residual 1.57e-16",
        "verify PASS domination: worst envelope excess -0.393",
        "verify FAIL oracle-equivalence: worst |deviation| - 3 sigma = 2.42",
        "verify SKIP moment-envelope: kernel infimum over the cell "
        "separations is zero",
        "verify SKIP density-cap: kernel vanishes at the origin",
    ]),
    "interacting": (0, [
        "verify PASS k1-recompute: max deviation 0",
        "verify PASS moments-recompute: max deviation 0",
        "verify PASS moment-identity: max relative residual 2.13e-16",
        "verify PASS domination: worst envelope excess -2.35",
        "verify SKIP oracle-equivalence: competition kernel present",
        "verify PASS moment-envelope: kappa 1036, worst excess -1.04e+03",
        "verify PASS density-cap: level 2, worst excess -1.09",
    ]),
}


@pytest.mark.parametrize("run", sorted(GOLDEN_VERIFY))
def test_golden_verify_lines(golden_runs, golden_interacting_runs, capsys,
                             run):
    out = {"free": golden_runs, "interacting": golden_interacting_runs}[run][1]
    capsys.readouterr()
    code = main(["verify", "--config", str(out.parent / "model.json"),
                 "--run", str(out)])
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.split(" ")[0] == "verify"]
    assert (code, lines) == GOLDEN_VERIFY[run]


def test_summary_records_phase_times(golden_runs):
    for out in golden_runs.values():
        phases = json.loads((out / "summary.json").read_text())["phase_s"]
        assert set(phases) == {"replicas", "replicas_initial",
                               "replicas_event_loop", "particle_csv",
                               "estimators", "estimator_csv"}
        assert all(v >= 0.0 for v in phases.values())
        # summed over the replicas in the processes that ran them
        assert phases["replicas_initial"] + phases["replicas_event_loop"] > 0.0
    for path in golden_runs[1].glob("*.csv"):
        assert (golden_runs[2] / path.name).read_bytes() == path.read_bytes()


def test_summary_records_per_replica_spreads(golden_interacting_runs):
    out = golden_interacting_runs[1]
    summary = json.loads((out / "summary.json").read_text())
    spread = summary["per_replica"]
    final = [0] * summary["replicas"]
    for row in read_rows(out / "particles_0001.csv"):
        final[int(row["replica"])] += 1
    final.sort()
    assert spread["final_particles"] == {
        "min": final[0], "median": (final[2] + final[3]) / 2.0,
        "max": final[-1]}
    events = spread["events"]
    assert 0 < events["min"] <= events["median"] <= events["max"]
    assert events["max"] < summary["events"]["total"]
    assert json.loads((golden_interacting_runs[2] / "summary.json")
                      .read_text())["per_replica"] == spread


def test_seed_comes_from_environment_when_flag_is_absent(tmp_path,
                                                         monkeypatch):
    cfg = write_cfg(tmp_path, initial={"kind": "poisson", "density": 0.3})
    flagged = tmp_path / "flagged"
    assert main(["simulate", "--config", str(cfg), "--out", str(flagged),
                 "--seed", "77", "--replicas", "3",
                 "--snapshots", "1.0"]) == 0
    from_env = tmp_path / "from_env"
    monkeypatch.setenv("CONTPOP_SEED", "77")
    assert main(["simulate", "--config", str(cfg), "--out", str(from_env),
                 "--replicas", "3", "--snapshots", "1.0"]) == 0
    assert (from_env / "particles_0000.csv").read_bytes() == \
        (flagged / "particles_0000.csv").read_bytes()


def test_missing_seed_and_bad_env_seed(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path)
    monkeypatch.delenv("CONTPOP_SEED", raising=False)
    code = main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "o1"), "--replicas", "1",
                 "--snapshots", "1.0"])
    assert code == 2
    assert "seed" in capsys.readouterr().err
    monkeypatch.setenv("CONTPOP_SEED", "pi")
    code = main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "o2"), "--replicas", "1",
                 "--snapshots", "1.0"])
    assert code == 2


def test_config_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    code = main(["simulate", "--config", str(missing), "--out",
                 str(tmp_path / "o"), "--seed", "1", "--replicas", "1",
                 "--snapshots", "1.0"])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    cfg = json.loads(write_cfg(tmp_path).read_text())
    cfg["speling"] = 1
    bad.write_text(json.dumps(cfg))
    code = main(["simulate", "--config", str(bad), "--out",
                 str(tmp_path / "o2"), "--seed", "1", "--replicas", "1",
                 "--snapshots", "1.0"])
    assert code == 2
    assert "speling" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, literal", [
    ("bounds", "b.value", "NaN"),
    ("simulate", "b.value", "NaN"),
    ("simulate", "b.value", "Infinity"),
    ("simulate", "kernel.amplitude", "NaN"),
    ("simulate", "kernel.range", "NaN"),
    ("simulate", "theta0", "NaN"),
    ("simulate", "theta0", "Infinity"),
    ("simulate", "theta0", "-Infinity"),
    ("bounds", "sides", "[NaN]"),
    ("simulate", "m.value", "1e999"),
    ("simulate", "sides", "[1" + "0" * 400 + "]"),
    ("simulate", "b.value", '"1.0"'),
    ("simulate", "initial.density", "[1]"),
    ("simulate", "theta0", "[1]"),
    ("simulate", "initial.points", "[[1, 2], [3, 4]]"),
    ("simulate", "initial.points", "[[11.0]]"),
    ("simulate", "initial.points", "[[1.0], [2.0, 3.0]]"),
], ids=lambda v: v if len(v) < 20 else v[:12] + "...")
@pytest.mark.filterwarnings("error")
def test_config_values_exit_2_before_manifest(tmp_path, capsys, command, key,
                                              literal):
    # config numbers are finite and of the right type, and explicit points
    # are d-vectors inside the domain, all checked before the manifest
    initial = {"kind": "explicit" if key == "initial.points" else "poisson",
               "density": 0.5, "points": []}
    cfg = json.loads(write_cfg(tmp_path, initial=initial).read_text())
    cfg["initial"].pop("density" if key == "initial.points" else "points")
    section, _, name = key.rpartition(".")
    (cfg[section] if section else cfg)[name] = "@"
    path = tmp_path / "values.json"
    path.write_text(json.dumps(cfg).replace('"@"', literal))
    out = tmp_path / "o"
    code = main([command, "--config", str(path), "--out", str(out),
                 *(["--seed", "1", "--replicas", "1", "--snapshots", "1",
                    "--max-events", "1000"] if command == "simulate" else [])])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not out.exists()


def test_bad_cell_side_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--seed", "1", "--replicas", "1",
                 "--snapshots", "1.0", "--cell-side", "3.0"])
    assert code == 2
    assert "tile" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bounds", "--schedule", "-1"],
    ["bounds", "--kappa", "0.7", "--schedule", "3"],
    ["bounds", "--schedule", "0", "--schedule-steps", "3"],
    ["bounds", "--schedule", "0"],
    ["bounds", "--schedule-steps", "0"],
    ["simulate", "--replicas", "0", "--snapshots", "1"],
    ["simulate", "--replicas", "1", "--snapshots", "2,1"],
    ["simulate", "--replicas", "1", "--snapshots", "1", "--lmax", "9"],
    ["simulate", "--replicas", "1", "--snapshots", "1", "--nmax", "5"],
    ["simulate", "--replicas", "1", "--snapshots", "1", "--cell-side", "3"],
    ["simulate", "--replicas", "1", "--snapshots", "1", "--k2-bins", "-1"],
    ["simulate", "--replicas", "1", "--snapshots", "1", "--max-events", "0"],
    ["simulate", "--replicas", "1", "--snapshots", "nan"],
    ["simulate", "--replicas", "1", "--snapshots", "1,inf"],
    ["bounds", "--kappa", "0.7"],
    ["bounds", "--schedule", "1", "--schedule-steps", "3"],
    ["bounds", "--moment-system", "x", "1"],
    ["bounds", "--moment-system", "0", "1"],
    ["bounds", "--moment-system", "2", "nan"],
    ["bounds", "--cell-side", "-1", "--moment-system", "2", "1"],
    ["surgailis", "--times", "1", "--grid", "0"],
    ["surgailis", "--times", "1", "--pair-grid", "-1"],
    ["surgailis", "--times", "nan"],
    ["surgailis", "--times", "1,inf"],
    ["hierarchy", "--dt", "0.1", "--t-end", "1", "--snapshots", "nan"],
    ["hierarchy", "--dt", "nan", "--t-end", "1"],
    ["hierarchy", "--dt", "0.1", "--t-end", "nan"],
    ["hierarchy", "--dt", "0.1", "--t-end", "inf"],
    ["hierarchy", "--dt", "0", "--t-end", "1"],
    ["hierarchy", "--dt", "0.1", "--t-end", "-1"],
    ["hierarchy", "--dt", "0.03", "--t-end", "1"],
    ["hierarchy", "--dt", "0.1", "--t-end", "1", "--snapshots", "-1"],
    ["surgailis", "--times", "-1"],
    ["bounds", "--theta-norm", "nan"],
    ["simulate", "--replicas", "x", "--snapshots", "1"],
    ["simulate", "--replicas", "1", "--snapshots", "1", "--cell-side", "nan"],
    ["simulate", "--snapshots", "1"],
    ["bounds", "--no-such-flag"],
], ids=" ".join)
@pytest.mark.filterwarnings("error")
def test_argument_errors_exit_2(tmp_path, capsys, argv):
    # a bad, missing or unknown flag and a ValueError from a library check
    # are configuration errors, not failed checks (exit 1), and print no
    # usage block, warning or traceback; every command checks its arguments
    # before it writes the manifest
    cfg = write_cfg(tmp_path)
    out = tmp_path / "o"
    code = main([argv[0], "--config", str(cfg), "--out", str(out),
                 *(["--seed", "1"] if argv[0] == "simulate" else []),
                 *argv[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bounds"],
    ["bounds", "--moment-system", "2", "1"],
    ["hierarchy", "--dt", "0.01", "--t-end", "0.1"],
    ["surgailis", "--times", "1"],
], ids=" ".join)
def test_explicit_initial_state_exit_2_before_manifest(tmp_path, capsys,
                                                        argv):
    # deterministic commands need a density: six particles in [1, 1.05]
    # are refused, not read as density 0
    points = [[1.0 + 0.01 * i] for i in range(6)]
    cfg = write_cfg(tmp_path, kernel=dict(UNIT_KERNEL),
                    initial={"kind": "explicit", "points": points})
    out = tmp_path / "o"
    code = main([argv[0], "--config", str(cfg), "--out", str(out),
                 *argv[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "explicit" in err
    assert not out.exists()


# ---------------------------------------------------------------- hierarchy

def test_hierarchy_outputs_tagged_csv(tmp_path):
    cfg = write_cfg(tmp_path, initial={"kind": "poisson", "density": 0.3})
    out = tmp_path / "hier"
    code = main(["hierarchy", "--config", str(cfg), "--out", str(out),
                 "--dt", "0.01", "--t-end", "1.0", "--grid", "16",
                 "--snapshots", "0.0,0.5,1.0"])
    assert code == 0
    rows = read_rows(out / "k1.csv")
    assert list(rows[0]) == ["t", "value", "stderr", "source"]
    assert all(r["source"] == "hierarchy" for r in rows)
    assert all(float(r["stderr"]) == 0.0 for r in rows)
    exact = 0.3 * math.exp(-1.0) + (1.0 - math.exp(-1.0))
    finals = [float(r["value"]) for r in rows if float(r["t"]) == 1.0]
    assert finals and abs(finals[0] - exact) <= 1e-6
    k2_rows = read_rows(out / "k2.csv")
    assert list(k2_rows[0]) == ["t", "r", "value", "stderr", "source"]
    final_k2 = [float(r["value"]) for r in k2_rows if float(r["t"]) == 1.0]
    assert len(final_k2) == 16
    assert all(abs(v - exact**2) <= 1e-6 for v in final_k2)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["clip_ratio"] == 0.0
    assert abs(summary["final_density"] - exact) <= 1e-6


def test_hierarchy_full_grid_schema(tmp_path):
    cfg = write_cfg(tmp_path, kernel=dict(UNIT_KERNEL),
                    initial={"kind": "poisson", "density": 0.2},
                    extra={"hierarchy": {"grid": 16, "mode": "full-grid"}})
    out = tmp_path / "hier_fg"
    code = main(["hierarchy", "--config", str(cfg), "--out", str(out),
                 "--dt", "0.01", "--t-end", "0.2"])
    assert code == 0
    rows = read_rows(out / "k1.csv")
    assert list(rows[0]) == ["t", "x1", "value", "stderr", "source"]
    assert len(rows) == 16
    k2_rows = read_rows(out / "k2.csv")
    assert list(k2_rows[0]) == ["t", "x1", "x2", "value", "stderr", "source"]
    assert len(k2_rows) == 16 * 16


def test_hierarchy_summary_records_stability_margin(tmp_path):
    cfg = write_cfg(tmp_path, kernel=dict(UNIT_KERNEL),
                    initial={"kind": "poisson", "density": 0.2},
                    extra={"hierarchy": {"grid": 16, "mode": "full-grid"}})
    out = tmp_path / "hier_margin"
    assert main(["hierarchy", "--config", str(cfg), "--out", str(out),
                 "--dt", "0.01", "--t-end", "0.2"]) == 0
    margin = json.loads((out / "summary.json").read_text())[
        "max_stability_margin"]
    assert 0.0 < margin <= 1.0


def test_hierarchy_numerical_and_config_failures(tmp_path, capsys):
    cfg = write_cfg(tmp_path, kernel=dict(UNIT_KERNEL), m=4.0,
                    initial={"kind": "poisson", "density": 0.5})
    code = main(["hierarchy", "--config", str(cfg), "--out",
                 str(tmp_path / "h1"), "--dt", "0.5", "--t-end", "2.0"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    code = main(["hierarchy", "--config", str(cfg), "--out",
                 str(tmp_path / "h2"), "--dt", "0.02", "--t-end", "1.0",
                 "--snapshots", "0.305"])
    assert code == 2
    assert "multiple" in capsys.readouterr().err
    explicit = write_cfg(tmp_path, name="explicit.json",
                         initial={"kind": "explicit", "points": [[1.0]]})
    code = main(["hierarchy", "--config", str(explicit), "--out",
                 str(tmp_path / "h3"), "--dt", "0.01", "--t-end", "0.1"])
    assert code == 2
    capsys.readouterr()
    # a window or rates the hierarchy mode cannot use
    bump = {"kind": "gaussian-bump", "amplitude": 1.0, "center": [5.0],
            "width": 1.0}
    for name, extra in (
            ("absorbing", {"boundary": {"mode": "absorbing-buffer",
                                        "buffer_width": 2.0}}),
            ("full2d", {"dimension": 2, "sides": [10.0, 10.0],
                        "hierarchy": {"mode": "full-grid"}}),
            ("bump", {"b": bump})):
        unsuitable = write_cfg(tmp_path, name=f"{name}.json", extra=extra)
        code = main(["hierarchy", "--config", str(unsuitable), "--out",
                     str(tmp_path / name), "--dt", "0.1", "--t-end", "1",
                     "--grid", "16"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("config error:"), name
        assert not (tmp_path / name).exists()
    # the --grid flag gets the check the config's hierarchy.grid gets
    for grid in ("3", "0"):
        code = main(["hierarchy", "--config", str(cfg), "--out",
                     str(tmp_path / f"g{grid}"), "--dt", "0.02",
                     "--t-end", "1.0", "--grid", grid])
        assert code == 2
        assert capsys.readouterr().err == \
            "config error: hierarchy grid must have at least 8 points\n"
        assert not (tmp_path / f"g{grid}" / "k1.csv").exists()


# ---------------------------------------------------------------- surgailis

def test_surgailis_linear_growth_without_mortality(tmp_path):
    cfg = write_cfg(tmp_path, b=2.0, m=0.0,
                    initial={"kind": "poisson", "density": 0.5})
    out = tmp_path / "sur"
    code = main(["surgailis", "--config", str(cfg), "--out", str(out),
                 "--times", "0.5,1.0", "--grid", "8", "--pair-grid", "4"])
    assert code == 0
    for row in read_rows(out / "density.csv"):
        expected = 0.5 + 2.0 * float(row["t"])
        assert float(row["value"]) == pytest.approx(expected, abs=1e-12)
    k2_rows = read_rows(out / "k2.csv")
    assert len(k2_rows) == 2 * 4 * 4
    for row in k2_rows:
        expected = (0.5 + 2.0 * float(row["t"])) ** 2
        assert float(row["value"]) == pytest.approx(expected, rel=1e-10)
    summary = json.loads((out / "summary.json").read_text())
    counts = summary["expected_core_counts"]
    assert counts[repr(1.0)] == pytest.approx(25.0)


def test_surgailis_propagates_each_time_in_one_call(tmp_path, monkeypatch):
    # the whole pair grid is one batch, so the subset sum runs once per time
    shapes = []
    propagate = cli.propagate_correlation

    def counted(eta, k0, flow):
        shapes.append(eta.shape)
        return propagate(eta, k0, flow)

    monkeypatch.setattr(cli, "propagate_correlation", counted)
    cfg = write_cfg(tmp_path, initial={"kind": "poisson", "density": 0.5})
    code = main(["surgailis", "--config", str(cfg), "--out",
                 str(tmp_path / "sur"), "--times", "0.5,1.0,2.0",
                 "--grid", "8", "--pair-grid", "5"])
    assert code == 0
    assert shapes == [(5, 5, 2, 1)] * 3


def test_surgailis_pair_grid_outside_1d_exit_2(tmp_path, capsys):
    # the pair grid is 1-D only: a 2-D run with --pair-grid is refused
    # before its manifest could record the flag, and writes nothing
    cfg = write_cfg(tmp_path, initial={"kind": "poisson", "density": 0.5},
                    extra={"dimension": 2, "sides": [4.0, 4.0]})
    argv = ["surgailis", "--config", str(cfg), "--times", "0.5",
            "--grid", "4"]
    assert main([*argv, "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    out = tmp_path / "sur"
    code = main([*argv, "--out", str(out), "--pair-grid", "8"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "--pair-grid" in err
    assert not (out / "manifest.json").exists()
    assert not (out / "k2.csv").exists()


# ------------------------------------------------------------------- bounds

def test_verify_refuses_a_run_that_is_not_simulate(tmp_path, capsys):
    # a hierarchy directory has a manifest and a summary too, but no
    # particle files: a configuration error, not a failed check
    cfg = write_cfg(tmp_path, initial={"kind": "poisson", "density": 0.3})
    out = tmp_path / "hier"
    assert main(["hierarchy", "--config", str(cfg), "--out", str(out),
                 "--dt", "0.01", "--t-end", "0.1", "--grid", "16"]) == 0
    capsys.readouterr()
    code = main(["verify", "--config", str(cfg), "--run", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "'hierarchy'" in err


def test_bounds_report_sections(tmp_path):
    cfg = write_cfg(tmp_path, kernel=dict(UNIT_KERNEL),
                    initial={"kind": "poisson", "density": 0.5})
    out = tmp_path / "bounds"
    code = main(["bounds", "--config", str(cfg), "--out", str(out),
                 "--schedule", "2.0", "--moment-system", "3", "1.0",
                 "--theta-norm", "0.5"])
    assert code == 0
    report = json.loads((out / "bounds.json").read_text())
    assert report["norms"]["b_sup"] == 1.0
    assert report["norms"]["a_sup"] == pytest.approx(1.0)
    assert report["operator"]["total"] > 0.0
    assert report["operator"]["existence_time"] > 0.0
    sched = report["schedule"]
    assert sched["total_time"] >= 2.0
    assert sched["max_identity_residual"] <= 1e-12
    assert len(sched["times"]) == sched["steps"] + 1
    ms = report["moment_system"]
    assert ms["orders"] == 3
    assert len(ms["trajectories"]) == len(ms["t_grid"]) == 101
    assert all(len(row) == 3 for row in ms["trajectories"])
    assert report["theta_norm"]["value"] > 0.0
    assert report["stationary_density"]["available"] is True


def test_bounds_schedule_steps_mode_and_flag_conflict(tmp_path, capsys):
    cfg = write_cfg(tmp_path, kernel=dict(UNIT_KERNEL))
    out = tmp_path / "b2"
    code = main(["bounds", "--config", str(cfg), "--out", str(out),
                 "--schedule-steps", "5"])
    assert code == 0
    report = json.loads((out / "bounds.json").read_text())
    assert report["schedule"]["steps"] == 5
    code = main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "b3"),
                 "--schedule", "1.0", "--schedule-steps", "5"])
    assert code == 2
    assert "not both" in capsys.readouterr().err


def test_bounds_without_effective_mortality(tmp_path):
    cfg = write_cfg(tmp_path)   # amplitude 0: no competition at the origin
    out = tmp_path / "b4"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "bounds.json").read_text())
    assert report["stationary_density"]["available"] is False
    assert "theta_growth_fallback" in report["stationary_density"]
    assert "schedule" not in report


# ------------------------------------------------- deterministic goldens

# sha256 of the outputs of the deterministic commands, recorded before their
# CSVs moved to the shared writer; any refactor of hierarchy, surgailis or
# bounds that keeps the arithmetic must keep these bytes
GOLDEN_DETERMINISTIC_SHA256 = {
    "fg-zero-third-cumulant/k1.csv":
        "f1f4286cf4b42d10fc1bc87756c77602d01bceb056b0a6e4ee2aa3ed41f8d8fd",
    "fg-zero-third-cumulant/k2.csv":
        "732e10181e2d80e9be2a392d91dab7325fd0b75e497bda5b0fea9c22f7b07913",
    "fg-kirkwood/k1.csv":
        "44b56d0a20fd45edc4fc3bceac8157cd79857d69a51109f24e5b1822bc2973f4",
    "fg-kirkwood/k2.csv":
        "497b7d4167ab4dafa378cc5a79bc03013043ebc3a559567d6b03061d18543d03",
    "fg-mean-field/k1.csv":
        "c942aff5500cddd1f3bed364eab25cc17385d02547824c50cd8043438ab5b285",
    "fg-mean-field/k2.csv":
        "ce95004a0c850884efaf35fb1842097db6a2deb4c4d90911b2b0c1bcb770f4cd",
    "ti-1d/k1.csv":
        "9896c5edf6c0df446b1d2b7e4619c24ea2cb18e74f1e2cce84ff22fa3d359082",
    "ti-1d/k2.csv":
        "a83072d49e9cd83f7d6d32b2fc741cf90812ad1115dab3e79492b6b7fa9f6ac5",
    "ti-2d/k1.csv":
        "f9ed30e7d287e5385014c384380e6d6cd9b720faa3cb5c7279cb8c1ece3dd5cd",
    "ti-2d/k2.csv":
        "cb2ff2b5b5f78921a82ae56575d4cb1fbac1ce51c6c0ae8b81be4336f05f930b",
    "surgailis/density.csv":
        "7579d472fe1a35abd80242075987d8157de1baedf170dec1e1a1e12fb0743b1c",
    "surgailis/k2.csv":
        "4e9cb35332c772bc156b7705b95c57d95970ebf3f2f5d050d9d2b9743ba51870",
    "bounds/bounds.json":
        "b7c1e555beed8e056cf20e385ccbd3667c5bb0cf686ab38808188578fad16da1",
}


@pytest.fixture(scope="module")
def deterministic_runs(tmp_path_factory):
    """Small hierarchy, surgailis and bounds runs; returns their root."""
    tmp = tmp_path_factory.mktemp("golden_det")
    bump = {"kind": "gaussian-bump", "amplitude": 0.8, "center": [4.0],
            "width": 1.5}
    full = write_cfg(tmp, name="full.json", kernel=dict(UNIT_KERNEL), m=0.7,
                     initial={"kind": "poisson", "density": dict(bump)},
                     extra={"b": dict(bump, center=[6.0]),
                            "hierarchy": {"grid": 16, "mode": "full-grid"}})
    ti1 = write_cfg(tmp, name="ti1.json", kernel=dict(UNIT_KERNEL),
                    initial={"kind": "poisson", "density": 0.4},
                    extra={"hierarchy": {"grid": 16}})
    ti2 = write_cfg(tmp, name="ti2.json", b=1.5, m=0.5,
                    kernel={"kind": "gaussian", "amplitude": 1.0,
                            "range": 0.5, "r_cut": 2.0},
                    initial={"kind": "poisson", "density": 0.4},
                    extra={"dimension": 2, "sides": [5.0, 4.0],
                           "hierarchy": {"grid": 8}})
    steps = ["--dt", "0.01", "--t-end", "0.2", "--snapshots", "0.0,0.1,0.2"]
    runs = [("ti-1d", ["hierarchy", "--config", str(ti1)] + steps),
            ("ti-2d", ["hierarchy", "--config", str(ti2)] + steps),
            ("surgailis", ["surgailis", "--config", str(full),
                           "--times", "0.5,1.0", "--grid", "8",
                           "--pair-grid", "6"]),
            ("bounds", ["bounds", "--config", str(ti1), "--schedule", "2.0",
                        "--moment-system", "3", "1.0",
                        "--theta-norm", "0.5"])]
    runs += [(f"fg-{closure}", ["hierarchy", "--config", str(full),
                                "--closure", closure] + steps)
             for closure in ("zero-third-cumulant", "kirkwood", "mean-field")]
    for name, argv in runs:
        assert main(argv + ["--out", str(tmp / name)]) == 0, name
    return tmp


@pytest.mark.parametrize("name", sorted(GOLDEN_DETERMINISTIC_SHA256))
def test_golden_deterministic_outputs_are_byte_identical(deterministic_runs,
                                                         name):
    digest = hashlib.sha256((deterministic_runs / name).read_bytes())
    assert digest.hexdigest() == GOLDEN_DETERMINISTIC_SHA256[name]


def test_golden_deterministic_headers(deterministic_runs):
    heads = {name: (deterministic_runs / name).read_text().split("\n", 1)[0]
             for name in GOLDEN_DETERMINISTIC_SHA256 if name.endswith(".csv")}
    assert heads["ti-1d/k2.csv"] == "t,r,value,stderr,source"
    assert heads["ti-2d/k2.csv"] == "t,u1,u2,value,stderr,source"
    assert heads["fg-kirkwood/k2.csv"] == "t,x1,x2,value,stderr,source"
    assert heads["surgailis/density.csv"] == "t,x1,value"
    assert heads["surgailis/k2.csv"] == "t,x1,x2,value"


def test_hierarchy_csv_is_written_one_grid_row_at_a_time(tmp_path,
                                                         monkeypatch):
    # a 2-D translation-invariant snapshot at M = 128 has 16384 rows; the
    # writer may hold the text of one grid row of 128, not of a snapshot
    cfg = write_cfg(tmp_path, b=1.5, m=0.5,
                    kernel={"kind": "gaussian", "amplitude": 1.0,
                            "range": 0.5, "r_cut": 2.0},
                    initial={"kind": "poisson", "density": 0.4},
                    extra={"dimension": 2, "sides": [5.0, 4.0],
                           "hierarchy": {"grid": 128}})
    state = HierarchyState.translation_invariant(
        build_params(load_config(cfg)), 128, 0.4)
    traj = integrate(state, 0.01, 0.01, snapshots=(0.0, 0.01))
    start = []

    def precomputed(*args, **kwargs):
        tracemalloc.reset_peak()
        start.append(tracemalloc.get_traced_memory()[0])
        return traj

    monkeypatch.setattr(cli, "integrate", precomputed)
    out = tmp_path / "ti128"
    tracemalloc.start()
    try:
        assert main(["hierarchy", "--config", str(cfg), "--out", str(out),
                     "--dt", "0.01", "--t-end", "0.01",
                     "--snapshots", "0.0,0.01"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(read_rows(out / "k2.csv")) == 2 * 128 * 128
    assert peak - start[0] < 2**20


# ------------------------------------------------------------------- verify

def run_free_simulation(tmp_path):
    cfg = write_cfg(tmp_path, initial={"kind": "poisson", "density": 0.5})
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--seed", "7", "--replicas", "40",
                 "--snapshots", "0.5,1.0"])
    assert code == 0
    return cfg, out


def test_verify_passes_on_clean_free_run(tmp_path, capsys):
    cfg, out = run_free_simulation(tmp_path)
    code = main(["verify", "--config", str(cfg), "--run", str(out)])
    output = capsys.readouterr().out
    assert code == 0
    assert "PASS k1-recompute" in output
    assert "PASS moments-recompute" in output
    assert "PASS moment-identity" in output
    assert "PASS domination" in output
    assert "PASS oracle-equivalence" in output
    assert "SKIP moment-envelope" in output
    assert "SKIP density-cap" in output
    assert "verify: 5 passed, 2 skipped, 0 failed" in output


def edit_rows(path, edit):
    """Rewrite a CSV after `edit` changed its list of row dicts in place."""
    rows = read_rows(path)
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_verify_catches_tampered_moments(tmp_path, capsys):
    cfg, out = run_free_simulation(tmp_path)
    edit_rows(out / "moments.csv", lambda rows: rows[0].update(
        value=repr(float(rows[0]["value"]) + 1.0)))
    code = main(["verify", "--config", str(cfg), "--run", str(out)])
    assert code == 1
    assert "FAIL moments-recompute" in capsys.readouterr().out


@pytest.mark.parametrize("name, check, edit", [
    ("moments.csv", "moments-recompute", lambda rows: rows.pop(5)),
    ("k1.csv", "k1-recompute", lambda rows: rows[1].update(
        x1=repr(float(rows[1]["x1"]) + 0.05))),
    ("k1.csv", "k1-recompute", lambda rows: rows[0].update(value="abc")),
    ("moments.csv", "moments-recompute",
     lambda rows: rows[0].update(value="abc")),
], ids=("moments-row-deleted", "k1-x1-changed", "k1-value-not-a-number",
        "moments-value-not-a-number"))
def test_verify_checks_every_column_and_row(tmp_path, capsys, name, check,
                                            edit):
    # the stored file is compared with the writer's own table, so a lost row,
    # a moved cell centre or a cell that is not a number fails as surely as
    # a changed value, and is no configuration error
    cfg, out = run_free_simulation(tmp_path)
    edit_rows(out / name, edit)
    code = main(["verify", "--config", str(cfg), "--run", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert f"FAIL {check}" in captured.out
    assert captured.err == ""
    if name == "moments.csv":   # the identity needs the stored moments
        assert "SKIP moment-identity" in captured.out


def test_verify_fails_on_empty_k1_csv(tmp_path, capsys):
    cfg, out = run_free_simulation(tmp_path)
    (out / "k1.csv").write_bytes(b"")
    code = main(["verify", "--config", str(cfg), "--run", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL k1-recompute" in captured.out
    assert "Traceback" not in captured.err


def test_verify_reads_each_bound_from_its_owner(golden_runs,
                                                golden_interacting_runs,
                                                capsys, monkeypatch):
    # shift what each owner returns: every printed level, kappa and excess
    # must move with it, so verify holds no copy of the formulas
    def shifted(owner, change):
        return lambda *args, **kwargs: change(owner(*args, **kwargs))

    monkeypatch.setattr(cli, "stationary_density_bound", shifted(
        cli.stationary_density_bound,
        lambda bound: dataclasses.replace(bound, global_bound=5e6)))
    monkeypatch.setattr(cli, "moment_bound_system", shifted(
        cli.moment_bound_system, lambda system: dataclasses.replace(
            system, kappa=7e6, envelope=np.full_like(system.envelope, 3e6))))
    monkeypatch.setattr(cli, "poisson_density_flow", shifted(
        cli.poisson_density_flow, lambda density: density + 4e6))
    expected = {
        "free": [
            "verify PASS domination: worst envelope excess -4e+06",
            "verify FAIL oracle-equivalence: worst |deviation| - 3 sigma "
            "= 4e+06",
            "verify SKIP density-cap: kernel vanishes at the origin"],
        "interacting": [
            "verify PASS domination: worst envelope excess -4e+06",
            "verify PASS moment-envelope: kappa 7e+06, worst excess -3e+06",
            "verify PASS density-cap: level 5e+06, worst excess -5e+06"],
    }
    for run, runs in (("free", golden_runs),
                      ("interacting", golden_interacting_runs)):
        out = runs[1]
        capsys.readouterr()
        main(["verify", "--config", str(out.parent / "model.json"),
              "--run", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in expected[run] if line not in lines] == [], \
            (run, lines)


def test_verify_rejects_empty_particle_file(tmp_path, capsys):
    cfg, out = run_free_simulation(tmp_path)
    (out / "particles_0001.csv").write_bytes(b"")
    code = main(["verify", "--config", str(cfg), "--run", str(out)])
    assert code == 2
    assert "lacks columns ['replica', 'x1']" in capsys.readouterr().err


def test_verify_rejects_foreign_replica_ids(tmp_path, capsys):
    cfg, out = run_free_simulation(tmp_path)
    with open(out / "particles_0001.csv", "a") as fh:
        fh.write("99,1.5\n-1,2.5\n")
    code = main(["verify", "--config", str(cfg), "--run", str(out)])
    assert code == 2
    assert "particles_0001.csv" in capsys.readouterr().err


def test_verify_rejects_config_hash_mismatch(tmp_path, capsys):
    cfg, out = run_free_simulation(tmp_path)
    edited = tmp_path / "edited.json"
    edited.write_text(cfg.read_text() + "\n")
    code = main(["verify", "--config", str(edited), "--run", str(out)])
    assert code == 2
    assert "hash mismatch" in capsys.readouterr().err
    missing_run = tmp_path / "nowhere"
    assert main(["verify", "--config", str(cfg),
                 "--run", str(missing_run)]) == 2


def test_verify_interacting_run_all_checks(tmp_path, capsys):
    cfg = write_cfg(tmp_path, kernel=dict(UNIT_KERNEL), m=1.0,
                    initial={"kind": "poisson", "density": 0.5})
    out = tmp_path / "irun"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--seed", "21", "--replicas", "30",
                 "--snapshots", "0.5,1.5", "--cell-side", "1.0"])
    assert code == 0
    code = main(["verify", "--config", str(cfg), "--run", str(out)])
    output = capsys.readouterr().out
    assert code == 0, output
    assert "PASS domination" in output
    assert "SKIP oracle-equivalence" in output
    assert "PASS moment-envelope" in output
    assert "PASS density-cap" in output


def run_late_free_simulation(tmp_path, seed):
    """Free run (b = m = 1) whose first snapshot is at t = 1, not 0."""
    cfg = write_cfg(tmp_path, initial={"kind": "poisson", "density": 0.5})
    out = tmp_path / f"late{seed}"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--seed", str(seed), "--replicas", "200",
                 "--snapshots", "1.0,2.0"])
    assert code == 0
    return cfg, out


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_verify_envelope_starts_at_first_snapshot(tmp_path, capsys, seed):
    # the exact law is propagated from the first snapshot's densities over
    # t - t_0; propagating over t from there false-alarmed on these runs
    cfg, out = run_late_free_simulation(tmp_path, seed)
    code = main(["verify", "--config", str(cfg), "--run", str(out)])
    output = capsys.readouterr().out
    assert code == 0, output
    assert "PASS domination" in output
    assert "PASS oracle-equivalence" in output


def test_verify_envelope_leaves_out_the_first_snapshot(tmp_path, capsys):
    # the envelope equals the first snapshot's densities by construction, and
    # one replica has no stderr, so that snapshot pinned the worst excess at
    # 0 and hid the later one's margin; here competition keeps the density
    # far below the free envelope
    cfg = write_cfg(tmp_path, kernel=dict(UNIT_KERNEL),
                    initial={"kind": "poisson", "density": 5.0})
    out = tmp_path / "one"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--seed", "3", "--replicas", "1",
                 "--snapshots", "0.0,1.0"]) == 0
    capsys.readouterr()
    main(["verify", "--config", str(cfg), "--run", str(out)])
    line = next(l for l in capsys.readouterr().out.splitlines()
                if "domination" in l)
    assert line.startswith("verify PASS domination")
    assert float(line.rsplit(" ", 1)[1]) < 0.0
    out = tmp_path / "single"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--seed", "3", "--replicas", "2", "--snapshots", "1.0"]) == 0
    main(["verify", "--config", str(cfg), "--run", str(out)])
    output = capsys.readouterr().out
    assert "SKIP domination: needs two snapshots" in output
    assert "SKIP oracle-equivalence: needs two snapshots" in output


def test_verify_oracle_catches_lost_particles(tmp_path, capsys):
    cfg, out = run_late_free_simulation(tmp_path, 1)
    path = out / "particles_0001.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(row for i, row in enumerate(rows)
                                     if i % 10 >= 3))   # drop 30% of rows
    code = main(["verify", "--config", str(cfg), "--run", str(out)])
    assert code == 1
    assert "FAIL oracle-equivalence" in capsys.readouterr().out
