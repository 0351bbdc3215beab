"""contpop benchmark: run a workload's CLI commands and time them from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ensemble-interacting, large-window-2d, free-oracle, deterministic
(see workloads.py and NOTES.md).  The program is run from `src` through
PYTHONPATH; nothing is installed.

--trace 0 repeats the workload's command sequence, each command a
subprocess timed from outside, until S seconds have been measured, checks
every repetition's outputs, and reports the end-to-end metrics from each
command's median.
--trace 1 runs the sequence once as subprocesses (threads = nproc), then in
process at threads 1, untraced and with every layer wrapped
(trace_worker.py), and reports per-layer metrics, the tracing overhead and
the byte-identity of the subprocess and traced runs' CSVs.

Earlier stdout lines give the environment, per-command timings and every
gate; the last line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  --size smoke runs tiny inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
# a run must end within 180 s; commands still running at this point are
# killed and counted as failed
DEADLINE_S = 165.0
SETUP_REPEATS = 9      # set-up samples in a traced run
# a timed run takes 2 set-up samples before the first pass and one per
# SETUP_EVERY_S seconds of pass time after each pass
SETUP_EVERY_S = 2.0
BLAS_THREADS = "1"

UNITS = {"setup_s": "s", "wall_s": "s", "engine_s": "s", "post_s": "s",
         "work_per_s": "1/s", "peak_rss_mb": "MB", "ops_ok_frac": "ratio"}
COMMAND_NAMES = ("simulate", "verify", "hierarchy_zc", "hierarchy_kirkwood",
                 "hierarchy_meanfield", "hierarchy_ti", "surgailis", "bounds")


def layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for name in ("insert", "remove"):
        units[f"simulator.{name}.s"] = "s"
        units[f"simulator.{name}.calls"] = "count"
    units.update({
        "simulator.loop_self.s": "s", "simulator.us_per_event": "us",
        "simulator.events": "count", "simulator.births": "count",
        "simulator.deaths": "count", "simulator.select_death.s": "s",
        "simulator.neighbors.s": "s", "simulator.audit.s": "s",
        "simulator.audit.calls": "count",
        "simulator.max_audit_residual": "1/t",
        "simulator.parallel_efficiency": "ratio",
        "simulator.replica_self.s": "s", "simulator.state_init.s": "s",
        "estimators.moment_series.s": "s",
        "estimators.moment_series.cells": "count",
        "estimators.density_estimate.s": "s",
        "estimators.write_csv.s": "s", "estimators.write_csv.bytes": "bytes",
        "estimators.read_csv_columns.s": "s",
        "estimators.pair_correlation_estimate.s": "s",
        "estimators.pair_correlation_estimate.pairs": "count",
        "cli.particles_csv.s": "s", "cli.verify_self.s": "s",
        "cli.load_ensemble.s": "s", "cli.hierarchy_csv.s": "s",
        "cli.import_s": "s",
        "hierarchy.integrate.s": "s", "hierarchy.rhs_order1.s": "s",
        "hierarchy.rhs_order2.s": "s", "hierarchy.unpack.s": "s",
        "hierarchy.rk4_self.s": "s",
    })
    for key in ("zero-third-cumulant", "kirkwood", "mean-field", "ti"):
        units[f"hierarchy.ms_per_step.{key}"] = "ms"
    units.update({
        "hierarchy.rhs.calls": "count", "hierarchy.clipped_mass": "density",
        "hierarchy.state_init.s": "s",
        "surgailis.propagate_correlation.s": "s",
        "surgailis.propagate_correlation.calls": "count",
        "bounds.continuation_schedule.s": "s",
        "bounds.continuation_schedule.steps": "count",
        "bounds.moment_bound_system.s": "s",
        "config.load_config.s": "s", "config.build_params.s": "s",
    })
    for check in wl.VERIFY_CHECKS:
        units[f"verify.{check}.pass"] = "count"
        units[f"verify.{check}.fail"] = "count"
    for name in COMMAND_NAMES:
        units[f"cmd.{name}.s"] = "s"
    units.update({
        "gate.thread_identical_csvs": "count",
        "gate.thread_compared_csvs": "count",
        "gate.reference_hash_matches": "count",
        "gate.reference_hashes": "count",
        "trace.untraced_s": "s", "trace.traced_s": "s",
        "trace.overhead_s": "s",
    })
    return units


class Runner:
    """Starts children with a fixed environment and a shared deadline."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = BLAS_THREADS
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.timed_out = False

    def run(self, argv: list, stdout_path: Path, ok_codes=(0,)) -> dict:
        """Run one child; wall time and peak RSS come from os.wait4."""
        self.attempted += 1
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            self.timed_out = True
            self.failed += 1
            return {"wall_s": 0.0, "rss_mb": 0.0, "code": None}
        with open(stdout_path, "w") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:    # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
        proc.returncode = code
        if code not in ok_codes:
            self.failed += 1
            if code < 0:
                self.timed_out = True
        return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                "code": code}

    def contpop(self, argv: list, stdout_path: Path) -> dict:
        # verify exits 1 when a check fails; only other codes are failures
        return self.run([sys.executable, "-m", "contpop.cli"] + argv,
                        stdout_path, ok_codes=(0, 1))


def run_sequence(runner: Runner, plan: wl.Plan) -> dict:
    """One pass over the plan's commands, each timed from outside."""
    for cmd in plan.commands:
        if cmd.name != "verify":     # verify reads simulate's directory
            shutil.rmtree(cmd.out, ignore_errors=True)
    records = {}
    for cmd in plan.commands:
        log = cmd.out.parent / f"{cmd.name}.log"
        records[cmd.name] = runner.contpop(cmd.argv, log)
        records[cmd.name]["stdout"] = log.read_text()
    return records


def setup_probe(runner: Runner, plan: wl.Plan, work: Path) -> tuple:
    spec = work / "setup.json"
    spec.write_text(json.dumps(plan.setup))
    log = work / "setup.log"
    rec = runner.run([sys.executable, str(HERE / "probe.py"), str(spec)], log)
    detail = None
    if rec["code"] == 0:
        detail = json.loads(log.read_text().strip().splitlines()[-1])
    return rec["wall_s"], detail


def measure_setup(runner: Runner, plan: wl.Plan, work: Path, n: int,
                  walls: list, details: list) -> None:
    """Append the wall times and timings of n fresh set-ups."""
    for _ in range(n):
        wall, d = setup_probe(runner, plan, work)
        if d is not None:
            walls.append(wall)
            details.append(d)


def check_gates(plan, records, reference) -> list:
    if any(rec["code"] not in (0, 1) for rec in records.values()):
        return [wl.Gate("commands", False, "a command failed: " + ", ".join(
            f"{k} exit {r['code']}" for k, r in records.items()))]
    run_dirs = {c.name: c.out for c in plan.commands}
    stdouts = {k: r["stdout"] for k, r in records.items()}
    try:
        return wl.check(plan, run_dirs, stdouts, reference)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [wl.Gate("outputs", False, f"unreadable outputs: {exc!r}")]


def environment(seed: int, details: list, threads: int) -> dict:
    env = {"nproc": threads, "seed": seed,
           "blas_threads": BLAS_THREADS, "git_commit": None}
    if details:
        env.update(details[0].get("environment", {}))
    root = Path.cwd()
    if (root / ".git").exists():     # a checkout without .git has no commit
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                cwd=root, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return env


def probe_medians(details: list) -> dict:
    """Median of each set-up probe timing over the samples."""
    keys = {k for d in details for k, v in d.items() if isinstance(v, float)}
    return {k: median([d[k] for d in details if k in d]) for k in keys}


def median(values):
    return statistics.median(values) if values else 0.0


def timed_run(runner, plan, work, seconds, reference) -> tuple:
    # set-up samples are spread over the run, after a warm-up, so that they
    # average over the same stretch of time as the passes
    walls, details = [], []
    setup_probe(runner, plan, work)
    measure_setup(runner, plan, work, 2, walls, details)
    repeats = []
    gates = []
    t_start = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        records = run_sequence(runner, plan)
        rep_gates = check_gates(plan, records, reference)
        runner.attempted += len(rep_gates)
        runner.failed += sum(not g.ok for g in rep_gates)
        gates.append(rep_gates)
        ok = all(r["code"] in (0, 1) for r in records.values())
        units = wl.work_units(plan, {c.name: c.out for c in plan.commands}) \
            if ok else 0
        repeats.append({"records": records, "work": units})
        samples = max(1, round((time.perf_counter() - t_rep) / SETUP_EVERY_S))
        measure_setup(runner, plan, work, samples, walls, details)
        now = time.perf_counter()
        if runner.timed_out or now - t_start >= seconds or \
                now + 1.5 * (now - t_rep) > runner.deadline:
            break
    walls_per_rep = [sum(r["wall_s"] for r in rep["records"].values())
                     for rep in repeats]
    # each command's median over the passes; sums of these are steadier
    # than medians of pass sums when the noise hits single commands
    per_command = {name: median([rep["records"][name]["wall_s"]
                                 for rep in repeats])
                   for name in repeats[0]["records"]}
    engine = sum(v for k, v in per_command.items()
                 if _role(plan, k) == "engine")
    metrics = {
        "setup_s": median(walls),
        "wall_s": sum(per_command.values()),
        "engine_s": engine,
        "post_s": sum(per_command.values()) - engine,
        "work_per_s": median([rep["work"] for rep in repeats]) / engine
        if engine > 0 else 0.0,
        "peak_rss_mb": max(r["rss_mb"] for rep in repeats
                           for r in rep["records"].values()),
    }
    info = {"repeats": len(repeats), "setup_samples": walls,
            "pass_wall_s": walls_per_rep,
            "per_command_s": per_command,
            "work_per_repeat": [rep["work"] for rep in repeats],
            "environment": environment(plan.seed, details, nproc())}
    return metrics, gates, info


def _role(plan, name):
    return next(c.role for c in plan.commands if c.name == name)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _identical_csvs(a: Path, b: Path) -> tuple:
    names = sorted(set(wl.csv_files(a)) | set(wl.csv_files(b)))
    same = sum((a / n).is_file() and (b / n).is_file() and
               (a / n).read_bytes() == (b / n).read_bytes() for n in names)
    return same, len(names)


def _argvs(plan) -> list:
    return [[c.name, c.argv] for c in plan.commands]


def _outs(plan) -> list:
    # verify reads simulate's directory and writes none of its own
    return [str(c.out) for c in plan.commands if c.name != "verify"]


def traced_run(runner, workload, seed, work, size, reference) -> tuple:
    threads = nproc()
    plan = wl.make_plan(workload, seed, work / "untraced", threads, size)
    plan_t = wl.make_plan(workload, seed, work / "traced", 1, size)
    walls, details = [], []
    setup_probe(runner, plan, work)
    measure_setup(runner, plan, work, SETUP_REPEATS, walls, details)
    records = run_sequence(runner, plan)
    gates = check_gates(plan, records, reference)
    warmup = wl.make_plan(workload, seed, work / "warmup", 1, "smoke")
    spec = {"commands": _argvs(plan_t), "outs": _outs(plan_t),
            "warmup": _argvs(warmup), "warmup_outs": _outs(warmup)}
    if plan_t.parallel:
        spec["parallel"] = dict(plan_t.parallel, threads=threads)
    spec_path = work / "trace-spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = work / "trace-result.json"
    rec = runner.run([sys.executable, str(HERE / "trace_worker.py"),
                      str(spec_path), str(out_path)], work / "trace.log")
    result = {}
    if rec["code"] != 0:
        tail = (work / "trace.log").read_text()[-2000:]
        gates.append(wl.Gate("traced run", False, f"exit {rec['code']}: "
                             f"{tail}"))
    else:
        result = json.loads(out_path.read_text())
        traced_records = {name: {"code": code,
                                 "stdout": result["stdouts"][name]}
                          for name, code in result["codes"].items()}
        gates += [wl.Gate(f"traced {g.name}", g.ok, g.detail)
                  for g in check_gates(plan_t, traced_records, reference)]
    same = compared = 0
    if workload != "deterministic" and result:
        same, compared = _identical_csvs(plan.commands[0].out,
                                         plan_t.commands[0].out)
        gates.append(wl.Gate("thread byte-identity", same == compared,
                             f"{same}/{compared} CSVs identical between "
                             f"threads {threads} and threads 1"))
    runner.attempted += len(gates)
    runner.failed += sum(not g.ok for g in gates)
    matches, hashes = wl.reference_hash_matches(
        plan, {c.name: c.out for c in plan.commands}, reference)
    metrics = layer_metrics(plan_t, result, probe_medians(details), records)
    metrics.update({
        "gate.thread_identical_csvs": same,
        "gate.thread_compared_csvs": compared,
        "gate.reference_hash_matches": matches,
        "gate.reference_hashes": hashes,
        "trace.untraced_s": result.get("untraced_s", 0.0),
        "trace.traced_s": result.get("traced_s", 0.0),
        "trace.overhead_s": result.get("traced_s", 0.0)
        - result.get("untraced_s", 0.0),
    })
    info = {"setup_samples": walls,
            "absent": result.get("absent", []),
            "parallel": result.get("parallel"),
            "environment": environment(seed, details, threads),
            "threads": {"timed": threads, "in_process": 1}}
    return metrics, [gates], info


def layer_metrics(plan, result: dict, probe: dict, records: dict) -> dict:
    stats = result.get("stats", {})
    counts = result.get("counts", {})

    def total(name):
        return stats.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    m = {}
    for name in ("insert", "remove"):
        m[f"simulator.{name}.s"] = total(f"simulator.{name}")
        m[f"simulator.{name}.calls"] = calls(f"simulator.{name}")
    events = births = deaths = 0
    residual = 0.0
    summary = plan.commands[0].out / "summary.json"
    if plan.workload != "deterministic" and summary.is_file():
        s = json.loads(summary.read_text())
        events = s["events"]["total"]
        births = s["events"]["births"]
        deaths = s["events"]["deaths"]
        residual = s["max_audit_residual"]
    # loop_self: the event loop minus insert, remove and audit, so clock
    # draws, birth placement and death selection
    m["simulator.loop_self.s"] = self_s("simulator.advance") + \
        total("simulator.select_death")
    m["simulator.us_per_event"] = 1e6 * total("simulator.advance") / events \
        if events else 0.0
    m["simulator.events"] = events
    m["simulator.births"] = births
    m["simulator.deaths"] = deaths
    m["simulator.select_death.s"] = total("simulator.select_death")
    m["simulator.neighbors.s"] = total("simulator.neighbors")
    m["simulator.audit.s"] = total("simulator.audit")
    m["simulator.audit.calls"] = calls("simulator.audit")
    m["simulator.max_audit_residual"] = residual
    par = result.get("parallel")
    m["simulator.parallel_efficiency"] = par["efficiency"] if par else 0.0
    m["simulator.replica_self.s"] = self_s("simulator.run_replicas")
    m["simulator.state_init.s"] = probe.get("simulator_state_init_s", 0.0)
    m["estimators.moment_series.s"] = total("estimators.moment_series")
    m["estimators.moment_series.cells"] = counts.get(
        "estimators.moment_series.cells", 0)
    m["estimators.density_estimate.s"] = total("estimators.density_estimate")
    m["estimators.write_csv.s"] = total("estimators.write_csv")
    m["estimators.write_csv.bytes"] = counts.get(
        "estimators.write_csv.bytes", 0)
    m["estimators.read_csv_columns.s"] = total("estimators.read_csv_columns")
    m["estimators.pair_correlation_estimate.s"] = total(
        "estimators.pair_correlation_estimate")
    m["estimators.pair_correlation_estimate.pairs"] = counts.get(
        "estimators.pair_correlation_estimate.pairs", 0)
    m["cli.particles_csv.s"] = self_s("cli.cmd_simulate")
    m["cli.verify_self.s"] = self_s("cli.cmd_verify")
    m["cli.load_ensemble.s"] = self_s("cli.load_ensemble")
    m["cli.hierarchy_csv.s"] = self_s("cli.cmd_hierarchy")
    m["cli.import_s"] = probe.get("import_s", 0.0)
    m["hierarchy.integrate.s"] = total("hierarchy.integrate")
    m["hierarchy.rhs_order1.s"] = total("hierarchy.rhs_order1")
    m["hierarchy.rhs_order2.s"] = total("hierarchy.rhs_order2")
    m["hierarchy.unpack.s"] = total("hierarchy.unpack")
    m["hierarchy.rk4_self.s"] = self_s("hierarchy.integrate")
    for key in ("zero-third-cumulant", "kirkwood", "mean-field", "ti"):
        m[f"hierarchy.ms_per_step.{key}"] = counts.get(
            f"hierarchy.ms_per_step.{key}", 0.0)
    m["hierarchy.rhs.calls"] = calls("hierarchy.rhs_order1")
    m["hierarchy.clipped_mass"] = counts.get("hierarchy.clipped_mass", 0.0)
    m["hierarchy.state_init.s"] = probe.get("hierarchy_state_init_s", 0.0)
    m["surgailis.propagate_correlation.s"] = total(
        "surgailis.propagate_correlation")
    m["surgailis.propagate_correlation.calls"] = calls(
        "surgailis.propagate_correlation")
    m["bounds.continuation_schedule.s"] = total(
        "bounds.continuation_schedule")
    m["bounds.continuation_schedule.steps"] = counts.get(
        "bounds.continuation_schedule.steps", 0)
    m["bounds.moment_bound_system.s"] = total("bounds.moment_bound_system")
    m["config.load_config.s"] = probe.get("load_config_s", 0.0)
    m["config.build_params.s"] = probe.get("build_params_s", 0.0)
    outcomes = wl.verify_outcomes(result.get("stdouts", {}).get("verify", ""))
    for check in wl.VERIFY_CHECKS:
        m[f"verify.{check}.pass"] = int(outcomes.get(check) == "PASS")
        m[f"verify.{check}.fail"] = int(outcomes.get(check) == "FAIL")
    for name in COMMAND_NAMES:
        m[f"cmd.{name}.s"] = records.get(name, {}).get("wall_s", 0.0)
    return m


def report(workload, trace, metrics, units, gates, info) -> None:
    print(json.dumps({"environment": info["environment"]}, sort_keys=True))
    extra = {k: v for k, v in info.items() if k != "environment"}
    print(json.dumps({"workload": workload, "trace": trace, **extra},
                     sort_keys=True))
    for i, rep_gates in enumerate(gates):
        for g in rep_gates:
            status = "PASS" if g.ok else "FAIL"
            print(f"gate {status} [{i}] {g.name}: {g.detail}")
    absent = set(info.get("absent", []))
    for name, unit in units.items():
        value = metrics[name]
        mark = "  (absent)" if name.rsplit(".", 1)[0] in absent else ""
        print(f"{name:48s} {value!r:>24} {unit}{mark}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so running children are killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.perf_counter() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "contpop" / "cli.py").is_file():
        print(f"perfbench: no contpop sources under {root / 'src'}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be nonnegative", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / \
        f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    runner = Runner(root, deadline)
    reference = wl.load_reference()
    try:
        if args.trace:
            metrics, gates, info = traced_run(runner, args.workload,
                                              args.seed, work, args.size,
                                              reference)
            units = layer_units()
        else:
            plan = wl.make_plan(args.workload, args.seed, work, nproc(),
                                args.size)
            metrics, gates, info = timed_run(runner, plan, work,
                                             args.seconds, reference)
            units = UNITS
            metrics["ops_ok_frac"] = \
                (runner.attempted - runner.failed) / runner.attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench_work").rmdir()
        except OSError:
            pass
    report(args.workload, args.trace, metrics, units, gates, info)
    correct = runner.failed == 0 and all(g.ok for rep in gates for g in rep)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
