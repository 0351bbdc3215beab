"""Regenerate perfbench/reference.json, the stored values the gates use.

Run from the root of a checkout:  python3 perfbench/make_reference.py

* Interacting workloads: the late-time window density, pooled over
  REFERENCE_SEEDS runs of the workload itself (same sizes and times), with
  its standard error; the error is the larger of the pooled within-run
  error and the spread of the per-seed means.
* Deterministic: per initial-density variant, the final densities of the
  hierarchy runs and the sha256 of every CSV.

Rerun it only when a change is meant to alter these results, and say so.
"""

import json
import math
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

REFERENCE_SEEDS = {"full": range(900001, 900009),
                   "smoke": range(900001, 900017)}


def _run(plan, runner):
    records = bench.run_sequence(runner, plan)
    bad = {k: r["code"] for k, r in records.items() if r["code"] not in (0, 1)}
    if bad:
        raise SystemExit(f"{plan.workload} seed {plan.seed}: failed {bad}")
    return {c.name: c.out for c in plan.commands}


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_work" / "reference"
    runner = bench.Runner(root, time.perf_counter() + 24 * 3600)
    threads = bench.nproc()
    out = {}
    try:
        for size in ("smoke", "full"):
            out[size] = {}
            for workload in ("ensemble-interacting", "large-window-2d"):
                means, ses = [], []
                for seed in REFERENCE_SEEDS[size]:
                    plan = wl.make_plan(workload, seed, work, threads, size)
                    plan.commands = plan.commands[:1]      # simulate only
                    dirs = _run(plan, runner)
                    mean, se = wl.late_density(plan, dirs["simulate"])
                    means.append(mean)
                    ses.append(se)
                k = len(means)
                pooled = math.sqrt(sum(s * s for s in ses)) / k
                spread = wl.mean_se(means)[1]
                out[size][workload] = {
                    "mean": sum(means) / k, "se": max(pooled, spread),
                    "pooled_se": pooled, "seed_spread_se": spread,
                    "seeds": [min(REFERENCE_SEEDS[size]),
                              max(REFERENCE_SEEDS[size])]}
                print(size, workload, out[size][workload], flush=True)
            variants = {}
            for seed in range(len(wl.DETERMINISTIC_DENSITIES)):
                plan = wl.make_plan("deterministic", seed, work, threads, size)
                dirs = _run(plan, runner)
                variants[plan.facts["variant"]] = {
                    "rho0": plan.facts["rho0"],
                    "final_density": wl.deterministic_values(plan, dirs),
                    "csv_sha256": wl.output_hashes(plan, dirs)}
                print(size, "deterministic", seed, flush=True)
            out[size]["deterministic"] = variants
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    wl.REFERENCE_PATH.write_text(json.dumps(out, indent=1, sort_keys=True)
                                 + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
