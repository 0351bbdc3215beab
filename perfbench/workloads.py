"""The benchmark's workloads: inputs made from a seed, commands, and gates.

Each workload writes its own config JSON files, so the program receives only
generated inputs.  A workload's commands are `contpop` CLI argument lists; the
"engine" commands are the ones whose cost the workload is built around
(`simulate`, or the `hierarchy` runs) and the "post" commands the ones that
follow them (`verify`, or `surgailis` and `bounds`).

Correctness gates never use `verify`'s exit code.  At the seed commit it
exits 1 on correct runs: `density-cap` false-alarms on interacting runs, and
`oracle-equivalence` false-alarms on free runs (see NOTES.md).  The gates are:

* simulate workloads: verify's recompute checks must PASS;
* interacting workloads: the late-time window density must agree with the
  stored reference for the same workload and size;
* free-oracle: the total count at each snapshot must agree with the exact
  Poisson law of the free flow;
* deterministic: final densities must agree with the stored reference, the
  surgailis density with the exact law, and the schedule must reach its
  horizon.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# Gaussian kernel with a(0) = 1 and unit mass: the scale is (2 pi)^(-1/2) in
# every dimension, so the 1-D and 2-D models share it.
UNIT_RANGE = (2.0 * math.pi) ** -0.5

# Gates compare a statistic with its reference at Z standard errors; with a
# few hundred gated runs per benchmark round a false alarm stays below 1e-4.
Z = 5.0

RECOMPUTE_CHECKS = ("k1-recompute", "moments-recompute", "moment-identity")
VERIFY_CHECKS = RECOMPUTE_CHECKS + ("domination", "oracle-equivalence",
                                    "moment-envelope", "density-cap")
CLOSURE_KEYS = {"zero-third-cumulant": "zc", "kirkwood": "kirkwood",
                "mean-field": "meanfield"}
# the deterministic workload's initial density is picked by seed % 4
DETERMINISTIC_DENSITIES = (0.5, 0.75, 1.0, 1.25)

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class Command:
    """One `contpop` invocation: its label, CLI arguments and role."""

    name: str
    argv: list
    role: str            # "engine" or "post"
    out: Path            # directory the command writes or reads


@dataclass
class Plan:
    """A workload instance: its commands, set-up probe spec and sizes."""

    workload: str
    size: str
    seed: int
    commands: list
    setup: dict                              # what the setup probe builds
    parallel: dict | None = None             # in-process threads 1 vs N
    facts: dict = field(default_factory=dict)


@dataclass
class Gate:
    name: str
    ok: bool
    detail: str


def model_config(dimension: int, side: float, density: float,
                      amplitude: float = 1.0, m: float = 0.0) -> dict:
    return {
        "dimension": dimension,
        "sides": [side] * dimension,
        "kernel": {"kind": "gaussian", "amplitude": amplitude,
                   "range": UNIT_RANGE},
        "b": {"kind": "constant", "value": 1.0},
        "m": {"kind": "constant", "value": m},
        "initial": {"kind": "poisson", "density": density},
    }


# Sizes: "full" is what the benchmark measures, "smoke" what its tests run.
SIMULATE_SIZES = {
    # the acceptance long_run model: ~12 particles in 4 simulator cells per
    # replica, many replicas, so the per-event path and dispatch dominate
    "ensemble-interacting": {
        "full": dict(side=10.0, replicas=96, snapshots=(6, 12, 18, 24),
                     late_from=12, cell_side=1.0),
        "smoke": dict(side=10.0, replicas=8, snapshots=(1, 2),
                      late_from=1, cell_side=1.0),
    },
    # one replica of ~2.7k particles in 19x19 simulator cells, past one
    # AUDIT_PERIOD (2**16) of events; blocks estimate the density's error
    "large-window-2d": {
        "full": dict(side=48.0, replicas=1, snapshots=(12, 14, 16),
                     late_from=12, cell_side=4.0, block=8.0),
        "smoke": dict(side=16.0, replicas=1, snapshots=(0.5, 1),
                      late_from=0.5, cell_side=4.0, block=4.0),
    },
    # no competition: the exact law is the oracle, and the per-cell loops of
    # the estimators and verify outweigh the simulator
    "free-oracle": {
        "full": dict(side=10.0, replicas=450, snapshots=(0, 1, 2, 4),
                     cell_side=0.1),
        "smoke": dict(side=10.0, replicas=20, snapshots=(0, 1),
                      cell_side=0.5),
    },
}

DETERMINISTIC_SIZES = {
    "full": dict(grid=128, dt=2e-3, t_end=0.3, snapshots=(0.15, 0.3),
                 pair_grid=48, schedule=50.0, moment_system=(4, 5.0),
                 moment_cell=0.5),
    "smoke": dict(grid=16, dt=2e-3, t_end=0.02, snapshots=(0.01, 0.02),
                  pair_grid=6, schedule=5.0, moment_system=(2, 1.0),
                  moment_cell=0.5),
}

WORKLOADS = tuple(SIMULATE_SIZES) + ("deterministic",)


def _times(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return str(path)


def make_plan(workload: str, seed: int, work: Path, threads: int,
              size: str = "full") -> Plan:
    """Write the workload's configs under `work` and list its commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    work.mkdir(parents=True, exist_ok=True)
    if workload == "deterministic":
        return _deterministic_plan(seed, work, size)
    spec = SIMULATE_SIZES[workload][size]
    if workload == "free-oracle":
        model = model_config(1, spec["side"], 0.5, amplitude=0.0, m=0.5)
    elif workload == "large-window-2d":
        model = model_config(2, spec["side"], 1.2)
    else:
        model = model_config(1, spec["side"], 0.5)
    cfg = _write_json(work / "model.json", model)
    run = work / "run"
    simulate = ["simulate", "--config", cfg, "--out", str(run),
                "--seed", str(seed), "--replicas", str(spec["replicas"]),
                "--snapshots", _times(spec["snapshots"]),
                "--threads", str(threads),
                "--cell-side", repr(spec["cell_side"])]
    verify = ["verify", "--config", cfg, "--run", str(run)]
    parallel = None
    if spec["replicas"] >= 8:
        # a quarter of the replicas to the full horizon, in process
        parallel = {"config": cfg, "seed": seed,
                    "replicas": spec["replicas"] // 4,
                    "snapshots": list(spec["snapshots"])}
    return Plan(workload, size, seed,
                [Command("simulate", simulate, "engine", run),
                 Command("verify", verify, "post", run)],
                setup={"kind": "simulate", "config": cfg,
                       "cell_side": spec["cell_side"]},
                parallel=parallel, facts=dict(spec, model=model))


def _deterministic_plan(seed: int, work: Path, size: str) -> Plan:
    spec = DETERMINISTIC_SIZES[size]
    rho0 = DETERMINISTIC_DENSITIES[seed % len(DETERMINISTIC_DENSITIES)]
    full = model_config(1, 10.0, rho0)
    full["hierarchy"] = {"grid": spec["grid"], "mode": "full-grid"}
    ti = model_config(2, 10.0, rho0)
    ti["hierarchy"] = {"grid": spec["grid"], "mode": "translation-invariant"}
    cfg_full = _write_json(work / "full-grid.json", full)
    cfg_ti = _write_json(work / "ti-2d.json", ti)
    steps = ["--dt", repr(spec["dt"]), "--t-end", repr(spec["t_end"]),
             "--snapshots", _times(spec["snapshots"])]
    commands = []
    for closure, key in CLOSURE_KEYS.items():
        out = work / f"hierarchy_{key}"
        commands.append(Command(
            f"hierarchy_{key}",
            ["hierarchy", "--config", cfg_full, "--out", str(out),
             "--closure", closure] + steps, "engine", out))
    out = work / "hierarchy_ti"
    commands.append(Command(
        "hierarchy_ti",
        ["hierarchy", "--config", cfg_ti, "--out", str(out),
         "--closure", "zero-third-cumulant"] + steps, "engine", out))
    out = work / "surgailis"
    commands.append(Command(
        "surgailis",
        ["surgailis", "--config", cfg_full, "--out", str(out),
         "--times", _times(spec["snapshots"]),
         "--pair-grid", str(spec["pair_grid"])], "post", out))
    out = work / "bounds"
    orders, horizon = spec["moment_system"]
    commands.append(Command(
        "bounds",
        ["bounds", "--config", cfg_full, "--out", str(out),
         "--schedule", repr(spec["schedule"]),
         "--moment-system", str(orders), repr(horizon),
         "--cell-side", repr(spec["moment_cell"])], "post", out))
    return Plan("deterministic", size, seed, commands,
                setup={"kind": "hierarchy", "full_grid": cfg_full,
                       "ti": cfg_ti, "grid": spec["grid"], "rho0": rho0},
                facts=dict(spec, rho0=rho0, model=full,
                           variant=str(seed % len(DETERMINISTIC_DENSITIES))))


# -- outputs ------------------------------------------------------------------


def verify_outcomes(stdout: str) -> dict:
    """Map verify's check names to PASS / FAIL / SKIP from its stdout."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[0] == "verify" and \
                parts[1] in ("PASS", "FAIL", "SKIP"):
            out[parts[2].split(":", 1)[0]] = parts[1]
    return out


def work_units(plan: Plan, run_dirs: dict) -> int:
    """Engine work of one sequence: simulator events or RK4 steps."""
    if plan.workload == "deterministic":
        engines = [c for c in plan.commands if c.role == "engine"]
        return len(engines) * round(plan.facts["t_end"] / plan.facts["dt"])
    summary = json.loads((run_dirs["simulate"] / "summary.json").read_text())
    return int(summary["events"]["total"])


def csv_files(directory: Path) -> list:
    return sorted(p.name for p in directory.glob("*.csv"))


def output_hashes(plan: Plan, run_dirs: dict) -> dict:
    """sha256 of every CSV the commands wrote, keyed 'command/file'."""
    out = {}
    for cmd in plan.commands:
        if cmd.name != "verify":     # verify writes no CSV
            for name in csv_files(run_dirs[cmd.name]):
                out[f"{cmd.name}/{name}"] = hashlib.sha256(
                    (run_dirs[cmd.name] / name).read_bytes()).hexdigest()
    return out


def _particle_counts(path: Path, replicas: int, dimension: int,
                     block: float | None, side: float) -> tuple:
    """Per-replica counts and, with `block`, per-block counts of one file."""
    per_replica = [0] * replicas
    nb = int(round(side / block)) if block else 0
    per_block = [0] * (nb ** dimension) if block else []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            per_replica[int(row[0])] += 1
            if block:
                flat = 0
                for x in row[1:1 + dimension]:
                    flat = flat * nb + min(int(float(x) / block), nb - 1)
                per_block[flat] += 1
    return per_replica, per_block


def mean_se(values: list) -> tuple:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def late_density(plan: Plan, run: Path) -> tuple:
    """Late-time window density and its standard error.

    Averaged over the snapshots at or after `late_from`.  The error comes
    from the spread across replicas, or, for a single replica, across
    equal spatial blocks much wider than the kernel's range.
    """
    spec = plan.facts
    model = spec["model"]
    d = model["dimension"]
    side = spec["side"]
    summary = json.loads((run / "summary.json").read_text())
    late = [k for k, t in enumerate(summary["snapshot_times"])
            if t >= spec["late_from"]]
    block = spec.get("block")
    per_unit = [0.0] * (spec["replicas"] if not block
                        else int(round(side / block)) ** d)
    for k in late:
        reps, blocks = _particle_counts(run / summary["particle_files"][k],
                                        spec["replicas"], d, block, side)
        for i, c in enumerate(blocks if block else reps):
            per_unit[i] += c
    volume = (block if block else side) ** d
    densities = [c / (len(late) * volume) for c in per_unit]
    return mean_se(densities)


def _exact_law_gates(plan: Plan, run: Path) -> list:
    """Free flow from a Poisson start stays Poisson: the total count over
    replicas at time t is Poisson with mean R L rho(t)."""
    spec = plan.facts
    model = spec["model"]
    b = model["b"]["value"]
    m = model["m"]["value"]
    rho0 = model["initial"]["density"]
    volume = spec["side"] ** model["dimension"]
    summary = json.loads((run / "summary.json").read_text())
    gates = []
    for t, name in zip(summary["snapshot_times"], summary["particle_files"]):
        reps, _ = _particle_counts(run / name, spec["replicas"],
                                   model["dimension"], None, spec["side"])
        decay = math.exp(-m * t)
        rho = rho0 * decay + (b / m) * (1.0 - decay)
        lam = spec["replicas"] * volume * rho
        total = sum(reps)
        z = (total - lam) / math.sqrt(lam)
        gates.append(Gate(f"exact-law t={t:g}", abs(z) <= Z,
                          f"count {total} vs Poisson mean {lam:.1f} "
                          f"(z = {z:+.2f})"))
    return gates


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def reference_for(plan: Plan, reference: dict) -> dict | None:
    entry = reference.get(plan.size, {}).get(plan.workload)
    if entry is not None and plan.workload == "deterministic":
        entry = entry.get(plan.facts["variant"])
    return entry


def deterministic_values(plan: Plan, run_dirs: dict) -> dict:
    """Final densities of the hierarchy runs, keyed by command name."""
    values = {}
    for cmd in plan.commands:
        if cmd.role != "engine":
            continue
        summary = json.loads((run_dirs[cmd.name] / "summary.json").read_text())
        final = summary["final_density"]
        final = final if isinstance(final, list) else [final]
        values[cmd.name] = {"mean": sum(final) / len(final),
                            "min": min(final), "max": max(final)}
    return values


def check(plan: Plan, run_dirs: dict, stdouts: dict,
          reference: dict) -> list:
    """All correctness gates of one command sequence's outputs."""
    ref = reference_for(plan, reference)
    if plan.workload == "deterministic":
        return _deterministic_gates(plan, run_dirs, ref)
    run = run_dirs["simulate"]
    gates = []
    outcomes = verify_outcomes(stdouts.get("verify", ""))
    for name in RECOMPUTE_CHECKS:
        status = outcomes.get(name, "missing")
        gates.append(Gate(f"verify {name}", status == "PASS", status))
    if plan.workload == "free-oracle":
        return gates + _exact_law_gates(plan, run)
    mean, se = late_density(plan, run)
    if ref is None:
        gates.append(Gate("late density", False, "no stored reference"))
        return gates
    tol = Z * math.hypot(se, ref["se"])
    gates.append(Gate("late density", abs(mean - ref["mean"]) <= tol,
                      f"{mean:.4f} +- {se:.4f} vs reference "
                      f"{ref['mean']:.4f} +- {ref['se']:.4f}"))
    return gates


def _deterministic_gates(plan: Plan, run_dirs: dict, ref) -> list:
    gates = []
    values = deterministic_values(plan, run_dirs)
    for name, got in values.items():
        want = None if ref is None else ref["final_density"].get(name)
        if want is None:
            gates.append(Gate(f"{name} final density", False,
                              "no stored reference"))
            continue
        worst = max(abs(got[k] - want[k]) / abs(want[k]) for k in want)
        gates.append(Gate(f"{name} final density", worst <= 1e-6,
                          f"mean {got['mean']:.10g}, worst relative "
                          f"deviation {worst:.2g}"))
    # surgailis: density of the free flow is rho0 e^{-mt} + (b/m)(1 - e^{-mt})
    model = plan.facts["model"]
    b, m = model["b"]["value"], model["m"]["value"]
    worst = 0.0
    with open(run_dirs["surgailis"] / "density.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            t = float(row["t"])
            exact = plan.facts["rho0"] * math.exp(-m * t) + (
                b * t if m == 0 else (b / m) * (1.0 - math.exp(-m * t)))
            worst = max(worst, abs(float(row["value"]) - exact))
    gates.append(Gate("surgailis exact law", worst <= 1e-9,
                      f"worst deviation {worst:.2g}"))
    report = json.loads((run_dirs["bounds"] / "bounds.json").read_text())
    sched = report.get("schedule", {})
    reached = sched.get("total_time", 0.0)
    gates.append(Gate("schedule horizon", reached >= plan.facts["schedule"],
                      f"{sched.get('steps')} steps reach t = {reached:.6g}"))
    return gates


def reference_hash_matches(plan: Plan, run_dirs: dict,
                           reference: dict) -> tuple:
    """(matching, total) CSVs against the stored reference hashes."""
    ref = reference_for(plan, reference)
    if plan.workload != "deterministic" or ref is None:
        return 0, 0
    hashes = output_hashes(plan, run_dirs)
    want = ref["csv_sha256"]
    return sum(hashes.get(k) == v for k, v in want.items()), len(want)
