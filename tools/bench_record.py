"""Record parent/change benchmark runs as one BENCH_<pr>.json.

Usage, from the root of a checkout:

    python tools/bench_record.py --pr N --parent P1.txt P2.txt ... \
        --change C1.txt C2.txt ...

Each file is the whole saved stdout of one untraced `perfbench/run.py` run
(`> run.txt`, not `| tail -n 1`): its `{"workload": ...}` line names the
workload and its last line, one JSON object, holds `correct` and the
metrics.  The files are grouped by workload; the i-th parent and i-th
change file of a workload form pair i, so list them in the order they
ran.  For every end-to-end metric that BENCHMARK.json names, the output
gives each side's median and quartiles, the change/parent ratio of the
medians, and the number of pairs the change won (ties count for neither
side).  The result is written to BENCH_<pr>.json at the root of the
checkout, or to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_run(path: Path) -> tuple:
    """(workload, final JSON object) of one saved run.py output."""
    objects = [json.loads(line) for line in path.read_text().splitlines()
               if line.startswith("{")]
    if not objects or "metrics" not in objects[-1]:
        raise ValueError(f"{path}: not the output of a perfbench/run.py run")
    workload = next((o["workload"] for o in objects if "workload" in o), None)
    if workload is None:
        raise ValueError(f'{path}: no {{"workload": ...}} line; save the '
                         'whole stdout of perfbench/run.py, not its last '
                         'line only')
    return workload, objects[-1]


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method) of the runs."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values)}


def by_workload(paths: list) -> dict:
    runs: dict = {}
    for path in paths:
        workload, final = read_run(Path(path))
        runs.setdefault(workload, []).append(final)
    return runs


def record(pr: int, parent_paths: list, change_paths: list) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = by_workload(parent_paths), by_workload(change_paths)
    if sorted(parent) != sorted(change):
        raise ValueError(f"parent workloads {sorted(parent)} and change "
                         f"workloads {sorted(change)} differ")
    workloads = {}
    for name in sorted(parent):
        sides = {"parent": parent[name], "change": change[name]}
        if len(sides["parent"]) != len(sides["change"]):
            raise ValueError(f"{name}: {len(sides['parent'])} parent runs "
                             f"but {len(sides['change'])} change runs")
        metrics = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = {side: [run["metrics"][key]["value"] for run in finals]
                      for side, finals in sides.items()}
            sign = 1.0 if metric["better"] == "lower" else -1.0
            entry = {side: spread(v) for side, v in values.items()}
            base = entry["parent"]["median"]
            metrics[key] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], **entry,
                "change_over_parent": entry["change"]["median"] / base
                if base else None,
                "change_wins": sum(sign * (c - p) < 0 for p, c in
                                   zip(values["parent"], values["change"])),
                "pairs": len(values["parent"]),
            }
        workloads[name] = {
            "correct": {side: sum(bool(run["correct"]) for run in finals)
                        for side, finals in sides.items()},
            "metrics": metrics,
        }
    return {"pr": pr, "command": spec["command"], "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        result = record(args.pr, args.parent, args.change)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_record: {exc!r}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"bench_record: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
