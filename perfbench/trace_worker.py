"""Traced in-process run of a workload's command sequence.

Run as `python3 perfbench/trace_worker.py SPEC_JSON OUT_JSON` with `src` on
PYTHONPATH.  The spec lists `contpop.cli.main` argument lists (threads 1),
the smoke-size lists for the warm-up and, for replica workloads, a
`parallel` entry.

1. Without tracing, `run_replicas` runs at threads 1 and at N in process;
   (t1 / tN) / N is the parallel efficiency.
2. The smoke-size commands run as a warm-up, then the commands run once
   untraced, for the tracing overhead.
3. The public functions of each layer are wrapped where they are looked up
   (`contpop.cli.run_replicas`, `contpop.hierarchy.rhs_order2`, methods of
   `SimulationState` and `HierarchyState`, ...) and the commands run through
   `contpop.cli.main`.  Each wrapper records calls, total time and self time
   (total minus the time of wrapped calls made inside it), plus work counts.

Private names (`_select_death`, `_neighbors`, `_load_ensemble`) are optional:
once a refactor removes one, its metrics are reported absent.
"""

import contextlib
import functools
import io
import json
import os
import shutil
import sys
import time

import contpop.cli as cli
import contpop.hierarchy as hierarchy
from contpop import ReplicaPlan, build_initial, build_params, load_config
from contpop.hierarchy import HierarchyState
from contpop.simulator import SimulationState, run_replicas


class Tracer:
    """Per-name call counts, total and self time, kept in memory."""

    def __init__(self):
        self.stats = {}          # name -> [calls, total_s, self_s]
        self.counts = {}         # name -> number
        self._stack = []         # time spent in wrapped children, per frame
        self._undo = []

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result
        return traced

    def patch(self, owner, attr, name, after=None, optional=False):
        """Replace owner.attr by a traced wrapper; False if absent."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if raw is None:
            if optional:
                return False
            raise AttributeError(f"{owner.__name__}.{attr} is missing")
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, after))
        else:
            new = self.wrap(name, raw, after)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))
        return True

    def restore(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()


def parallel_efficiency(spec: dict) -> dict:
    cfg = load_config(spec["config"])
    params = build_params(cfg)
    plan = ReplicaPlan(replicas=spec["replicas"], base_seed=spec["seed"],
                       snapshots=tuple(spec["snapshots"]),
                       initial=build_initial(cfg, params))
    threads = spec["threads"]
    times = {}
    for n in (1, threads):
        t0 = time.perf_counter()
        _, stats = run_replicas(params, plan, threads=n)
        times[n] = time.perf_counter() - t0
    return {"t1_s": times[1], "tN_s": times[threads], "threads": threads,
            "replicas": spec["replicas"], "events": stats.events,
            "efficiency": times[1] / times[threads] / threads}


def install(tracer: Tracer) -> list:
    """Wrap every layer boundary; returns the optional names found absent."""
    absent = []

    def csv_bytes(args, kwargs, result, elapsed):
        tracer.count("estimators.write_csv.bytes", os.path.getsize(args[0]))

    def pairs(args, kwargs, result, elapsed):
        ensemble = args[0]
        k = kwargs.get("time_index", -1)
        tracer.count("estimators.pair_correlation_estimate.pairs", sum(
            n * (n - 1) // 2 for n in (
                ensemble.positions(r, k).shape[0]
                for r in range(ensemble.n_replicas))))

    def cells(args, kwargs, result, elapsed):
        ensemble, partition = args[0], args[1]
        tracer.count("estimators.moment_series.cells",
                     ensemble.n_replicas * ensemble.n_times * len(partition))

    def integrated(args, kwargs, result, elapsed):
        state, t_end, dt = args[0], args[1], args[2]
        closure = kwargs.get("closure", "zero-third-cumulant")
        key = "ti" if state.mode == "translation-invariant" else closure
        steps = max(round(t_end / dt), 1)
        tracer.count(f"hierarchy.ms_per_step.{key}", 1e3 * elapsed / steps)
        tracer.count("hierarchy.clipped_mass", result.clipped_mass)

    def schedule(args, kwargs, result, elapsed):
        tracer.count("bounds.continuation_schedule.steps", result.steps)

    for attr, name, after in (
            ("load_config", "config.load_config", None),
            ("build_params", "config.build_params", None),
            ("run_replicas", "simulator.run_replicas", None),
            ("density_estimate", "estimators.density_estimate", None),
            ("moment_series", "estimators.moment_series", cells),
            ("pair_correlation_estimate",
             "estimators.pair_correlation_estimate", pairs),
            ("read_csv_columns", "estimators.read_csv_columns", None),
            ("write_k1_csv", "estimators.write_csv", csv_bytes),
            ("write_k2_csv", "estimators.write_csv", csv_bytes),
            ("write_moments_csv", "estimators.write_csv", csv_bytes),
            ("integrate", "hierarchy.integrate", integrated),
            ("propagate_correlation", "surgailis.propagate_correlation", None),
            ("continuation_schedule", "bounds.continuation_schedule",
             schedule),
            ("moment_bound_system", "bounds.moment_bound_system", None),
            ("cmd_simulate", "cli.cmd_simulate", None),
            ("cmd_verify", "cli.cmd_verify", None),
            ("cmd_hierarchy", "cli.cmd_hierarchy", None),
            ("cmd_surgailis", "cli.cmd_surgailis", None),
            ("cmd_bounds", "cli.cmd_bounds", None)):
        tracer.patch(cli, attr, name, after)
    if not tracer.patch(cli, "_load_ensemble", "cli.load_ensemble",
                        optional=True):
        absent.append("cli.load_ensemble")
    tracer.patch(hierarchy, "rhs_order1", "hierarchy.rhs_order1")
    tracer.patch(hierarchy, "rhs_order2", "hierarchy.rhs_order2")
    tracer.patch(HierarchyState, "unpack", "hierarchy.unpack")
    tracer.patch(HierarchyState, "full_grid", "hierarchy.state_init")
    tracer.patch(HierarchyState, "translation_invariant",
                 "hierarchy.state_init")
    for attr in ("insert", "remove", "advance", "audit"):
        tracer.patch(SimulationState, attr, f"simulator.{attr}")
    for attr, name in (("_select_death", "simulator.select_death"),
                       ("_neighbors", "simulator.neighbors")):
        if not tracer.patch(SimulationState, attr, name, optional=True):
            absent.append(name)
    return absent


def run_commands(commands: list, outs: list) -> tuple:
    """Run the commands through contpop.cli.main; returns wall time, exit
    codes and captured stdout per command."""
    for out in outs:
        shutil.rmtree(out, ignore_errors=True)
    codes, stdouts = {}, {}
    t0 = time.perf_counter()
    for name, argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes[name] = cli.main(argv)
        stdouts[name] = buf.getvalue()
    return time.perf_counter() - t0, codes, stdouts


def main(spec_path: str, out_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = {}
    if spec.get("parallel"):
        result["parallel"] = parallel_efficiency(spec["parallel"])
    # the smoke-size commands pay the first-call costs (about 0.5 s on the
    # hierarchy runs), so the untraced and traced passes compare like runs
    run_commands(spec["warmup"], spec["warmup_outs"])
    result["untraced_s"], _, _ = run_commands(spec["commands"], spec["outs"])
    tracer = Tracer()
    result["absent"] = install(tracer)
    try:
        result["traced_s"], result["codes"], result["stdouts"] = \
            run_commands(spec["commands"], spec["outs"])
    finally:
        tracer.restore()
    result["stats"] = {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                       for k, v in tracer.stats.items()}
    result["counts"] = tracer.counts
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
