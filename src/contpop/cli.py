"""Command-line interface: simulate, hierarchy, surgailis, bounds, verify.

Every run writes a manifest.json (command, config hash, seed, and every
parsed flag as the command resolved it) into the output directory before any
computation starts, so a finished or failed run can always be reproduced.
Data outputs are CSV/JSON with repr-formatted floats: rerunning the same
manifest yields byte-identical CSV files regardless of the worker and
thread counts (`--threads`).  Every CSV is written by
`estimators.write_csv`, one replica, snapshot or grid row per block.  summary.json additionally records
wall-clock times, per-replica spreads, repair counters and the build of the
compiled event loop, and is diagnostic only.  `verify` reads a run's settings from its manifest, compares k1.csv
and moments.csv with the tables their writers build (`estimators.k1_table`,
`moments_table`), rebuilt from the particle files, and tests the analytic
envelopes that `surgailis` and `bounds` compute.

Exit codes: 0 success, 1 failed verification checks, 3 numerical failures
(event-budget cap, step-size guard, clipping budget, divergence, schedule
horizon), 2 configuration errors: a bad, missing or unknown flag, or any
ValueError, a library check's included.  Each prints one `config error:`
line (`config error: argument --flag: ...` for the flag ranges that
`_build_parser` declares).  Every flag, the config (through `config`'s
builders, the initial state's included) and the engine a command builds
from them are checked before the manifest, so a refused run leaves no
output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (EffectiveMortalityUnavailable, ScheduleHorizonError,
                     cell_rates, continuation_schedule, existence_time,
                     kappa_from_factorial_moments, moment_bound_system,
                     operator_norm_bound, stationary_density_bound,
                     surgailis_theta_growth, unit_existence_time)
from .config import (ConfigError, build_initial, build_params, config_sha256,
                     hierarchy_options, load_config)
from .estimators import (CellPartition, SnapshotEnsemble,
                         check_moment_orders, density_estimate, k1_table,
                         moment_series, moments_table,
                         pair_correlation_estimate, raw_moment_from_factorials,
                         read_csv_columns, separation_edges, write_csv,
                         write_k1_csv, write_k2_csv, write_moments_csv)
from .hierarchy import (CLOSURES, ClipBudgetError, DivergenceError,
                        HierarchyState, StepSizeError, check_steps,
                        integrate)
from .model import RateField
from .simulator import CappedRunError, ReplicaPlan, engine, run_replicas
from .surgailis import (SurgailisFlow, box_quadrature, expected_count,
                        poisson_density_flow, propagate_correlation)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
# the particle file of snapshot k, which simulate writes and verify reads
_PARTICLE_FILE = "particles_{:04d}.csv"


class _Parser(argparse.ArgumentParser):
    """Its errors (a bad value, a missing or an unknown flag), and those of
    its subparsers, are configuration errors."""

    def error(self, message):
        raise ConfigError(message)


def _number(kind, low, high=math.inf):
    """argparse `type=`: an int >= low, or a float strictly between low and
    high, which refuses nan and inf."""
    def check(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan   # fails both comparisons below
        if low <= value if kind is int else low < value < high:
            return value
        raise argparse.ArgumentTypeError(
            f"expects an integer >= {low}, not {text!r}" if kind is int else
            f"expects a finite number in ({low:g}, {high:g}), not {text!r}")
    return check


def _parse_times(text: str) -> tuple:
    """argparse `type=`: comma-separated finite times >= 0."""
    try:
        times = tuple(float(part) for part in text.split(",") if part != "")
    except ValueError:
        times = ()
    if not times or not all(0.0 <= t < math.inf for t in times):
        raise argparse.ArgumentTypeError(
            f"expects comma-separated finite times >= 0, not {text!r}")
    return times


def _write_manifest(args) -> Path:
    """Create args.out with its manifest.json, whose `arguments` are the
    parsed flags as the command resolved them; returns the directory."""
    out = Path(args.out)
    manifest = {"tool": "contpop", "version": __version__,
                "command": args.command, "config_path": str(args.config),
                "config_sha256": config_sha256(args.config),
                "seed": getattr(args, "seed", None),
                "arguments": {key: value for key, value in vars(args).items()
                              if key not in ("command", "config", "out",
                                             "seed", "func")}}
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", manifest)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _jsonable(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return _jsonable(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None    # JSON has no inf; absent bound means unbounded
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


# -- simulate -----------------------------------------------------------------


def _spread(values) -> dict:
    """Min, median and max of per-replica numbers.  The median is taken in
    plain Python: numpy's float median pages in about 0.5 MB of its
    library, which shows in the peak memory of a run."""
    s = sorted(values)
    median = (s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2
    return {"min": s[0], "median": float(median), "max": s[-1]}


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    params = build_params(cfg)
    if args.seed is None:   # its range is the ReplicaPlan's to check
        raise ConfigError("no seed given: pass --seed or set CONTPOP_SEED")
    snapshots = args.snapshots
    flag = "argument --cell-side"
    if args.cell_side is None:
        args.cell_side = float(np.min(params.window.sides))
        flag += f" (default {args.cell_side:g}, the smallest window side)"
    # the estimator arguments and the plan are checked before the manifest
    try:
        partition = CellPartition(params.window, args.cell_side)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    check_moment_orders(args.l_max, args.n_max)
    periodic = params.window.boundary == "periodic"
    if args.k2_bins and not periodic:
        raise ConfigError("--k2-bins needs a periodic window")
    if args.k2_bins is None:   # the manifest records the bins the run uses
        args.k2_bins = 16 if periodic else 0
    if args.k2_bins > 0:
        half = float(np.min(params.window.sides)) / 2.0
        edges = separation_edges(params.window,
                                 np.linspace(0.0, half, args.k2_bins + 1))
    plan = ReplicaPlan(replicas=args.replicas, base_seed=args.seed,
                       snapshots=snapshots,
                       initial=build_initial(cfg, params),
                       max_events=args.max_events)
    build = engine()   # a missing compiler is refused before the manifest
    out = _write_manifest(args)
    phase_s = {}
    t0 = time.perf_counter()
    ensemble, stats = run_replicas(params, plan, threads=args.threads)
    phase_s["replicas"] = time.perf_counter() - t0
    phase_s["replicas_initial"] = stats.initial_s
    phase_s["replicas_event_loop"] = stats.event_loop_s
    d = params.dimension
    header = ["replica"] + [f"x{i+1}" for i in range(d)]
    particle_files = [_PARTICLE_FILE.format(k) for k in range(len(snapshots))]
    t0 = time.perf_counter()
    for k, name in enumerate(particle_files):
        write_csv(out / name, header,    # one block per replica
                  ([np.full(ensemble.counts[r, k], r),
                    *ensemble.positions(r, k).T]
                   for r in range(ensemble.n_replicas)))
    phase_s["particle_csv"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    grids = density_estimate(ensemble, partition)
    series = moment_series(ensemble, partition, l_max=args.l_max,
                           n_max=args.n_max)
    t1 = time.perf_counter()
    k2_grids = [pair_correlation_estimate(ensemble, edges, time_index=k,
                                          threads=args.threads)
                for k in range(len(snapshots))] if args.k2_bins > 0 else []
    phase_s["pair_correlation"] = time.perf_counter() - t1
    phase_s["estimators"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    write_k1_csv(out / "k1.csv", grids, snapshots, d)
    write_moments_csv(out / "moments.csv", series)
    if k2_grids:
        write_k2_csv(out / "k2.csv", k2_grids, snapshots)
    phase_s["estimator_csv"] = time.perf_counter() - t0
    summary = {
        "replicas": plan.replicas,
        "snapshot_times": list(snapshots),
        "particle_files": particle_files,
        "events": {"births": stats.births, "deaths": stats.deaths,
                   "total": stats.events},
        "per_replica": {
            "events": _spread(stats.replica_events),
            "final_particles": _spread(ensemble.counts[:, -1].tolist()),
            "audits": _spread(stats.replica_audits),
            "max_audit_residual": _spread(stats.replica_residuals)},
        "max_audit_residual": stats.max_audit_residual,
        "repairs": {"selection_fallbacks": stats.selection_fallbacks},
        "phase_s": phase_s,
        "engine": build,
    }
    _write_json(out / "summary.json", _jsonable(summary))
    print(f"simulate: {plan.replicas} replicas, {stats.events} events, "
          f"outputs in {out}")
    return EXIT_OK


# -- hierarchy ----------------------------------------------------------------


def _initial_density(cfg: dict, params) -> RateField:
    """Initial density field for deterministic runs."""
    initial = build_initial(cfg, params)
    if not isinstance(initial, RateField):
        raise ConfigError("deterministic runs need an empty or poisson "
                          "initial state, not explicit points")
    return initial


def _grid_blocks(times, values, coords, *constants):
    """CSV blocks of fields on a grid, one per time and grid row.

    coords[i] holds the coordinates (n, c) of the n points of grid row i,
    each time's values reshape to one row of n values per grid row, and each
    constant adds a column that repeats it; no block outgrows a grid row.
    """
    for t, snap in zip(times, values):
        for c, v in zip(coords, np.reshape(snap, (len(coords), -1))):
            yield [np.full(v.size, t), *c.T, v,
                   *(np.full(v.size, k) for k in constants)]


def cmd_hierarchy(args) -> int:
    cfg = load_config(args.config)
    params = build_params(cfg)
    if args.grid is not None:   # the flag overrides the config, same check
        cfg = {**cfg, "hierarchy": {**cfg.get("hierarchy", {}),
                                    "grid": args.grid}}
    opts = hierarchy_options(cfg)
    # the resolved grid, mode and snapshots are what the manifest records
    grid = args.grid = opts["grid"]
    mode = args.mode = opts["mode"]
    snapshots = args.snapshots = args.snapshots or (args.t_end,)
    check_steps(args.t_end, args.dt, snapshots)
    rho0 = _initial_density(cfg, params)
    ti = mode == "translation-invariant"
    if ti and rho0.kind != "constant":
        raise ConfigError("translation-invariant runs need a constant "
                          "initial density")
    # built before the manifest: it refuses windows and rates it cannot use
    if ti:
        state = HierarchyState.translation_invariant(params, grid, rho0.value)
    else:
        state = HierarchyState.full_grid(params, grid, rho0)
    out = _write_manifest(args)
    traj = integrate(state, args.t_end, args.dt, closure=args.closure,
                     n_max=args.nmax, snapshots=snapshots)
    d = params.dimension
    # deterministic trajectories reuse the estimator CSV schema: stderr is 0
    # and a trailing source column tags the producer
    columns = ["value", "stderr", "source"]
    # k1: a TI snapshot is one point without coordinates, a full-grid one
    # is one grid row of M points
    write_csv(out / "k1.csv", ["t"] + ([] if ti else ["x1"]) + columns,
              _grid_blocks(traj.times, traj.density,
                           np.empty((1, 1, 0)) if ti
                           else state.x.reshape(1, grid, 1),
                           0.0, "hierarchy"))
    if traj.k2 is not None:
        if ti:
            names = ["r"] if d == 1 else [f"u{i+1}" for i in range(d)]
            coords = traj.separations.reshape(-1, grid, d)
        else:
            names = ["x1", "x2"]
            coords = np.stack(np.meshgrid(state.x, state.x, indexing="ij"),
                              axis=-1)
        write_csv(out / "k2.csv", ["t", *names, *columns],
                  _grid_blocks(traj.times, traj.k2, coords, 0.0,
                               "hierarchy"))
    summary = {"clipped_mass": traj.clipped_mass,
               "clip_ratio": traj.clip_ratio,
               "max_stability_margin": traj.max_stability_margin,
               "final_density": traj.final_density()}
    _write_json(out / "summary.json", _jsonable(summary))
    print(f"hierarchy: {mode}, closure {args.closure}, outputs in {out}")
    return EXIT_OK


# -- surgailis ----------------------------------------------------------------


def cmd_surgailis(args) -> int:
    cfg = load_config(args.config)
    params = build_params(cfg)
    times = args.times
    rho0 = _initial_density(cfg, params)
    if args.pair_grid > 0 and params.dimension != 1:
        raise ConfigError("--pair-grid needs a 1-D window, not dimension "
                          f"{params.dimension}")
    out = _write_manifest(args)
    window = params.window
    d = params.dimension
    flows = [SurgailisFlow.from_params(params, t) for t in times]
    pts, _ = box_quadrature(window.core, args.grid, periodic=True)
    density = (poisson_density_flow(rho0, flow, pts) for flow in flows)
    write_csv(out / "density.csv",
              ["t"] + [f"x{i+1}" for i in range(d)] + ["value"],
              _grid_blocks(times, density, pts.reshape(-1, args.grid, d)))
    if args.pair_grid > 0:
        # second correlation on point pairs, via the subset-sum propagator
        # over the whole pair grid at once
        if rho0.kind == "constant":   # value ** n, as `x * x` may differ
            k0 = lambda eta: rho0.value ** eta.shape[-2]
        else:
            k0 = lambda eta: np.prod(np.asarray(rho0(eta), dtype=float),
                                     axis=-1)
        grid1 = box_quadrature(window.core, args.pair_grid,
                               periodic=True)[0][:, 0]
        pairs = np.stack(np.meshgrid(grid1, grid1, indexing="ij"), axis=-1)
        k2 = (propagate_correlation(pairs[..., None], k0, flow)
              for flow in flows)
        write_csv(out / "k2.csv", ["t", "x1", "x2", "value"],
                  _grid_blocks(times, k2, pairs))
    counts = {repr(float(t)): expected_count(window.core, flow, rho0)
              for t, flow in zip(times, flows)}
    _write_json(out / "summary.json", _jsonable({"expected_core_counts": counts}))
    print(f"surgailis: {len(times)} times, outputs in {out}")
    return EXIT_OK


# -- bounds -------------------------------------------------------------------


def _poisson_term(rho: float, theta: float, n: int) -> float:
    """(rho e^-theta)^n as rho**n * exp(-theta n); where a factor overflows,
    through its logarithm, and inf past the largest float (e^709.78)."""
    try:
        return rho ** n * math.exp(-theta * n)
    except OverflowError:
        log = n * (math.log(rho) - theta) if rho > 0.0 else -math.inf
        return math.exp(log) if log < 709.78 else math.inf


def cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    params = build_params(cfg)
    # the initial density and flag conflicts are checked before the manifest
    rho0 = _initial_density(cfg, params)
    if args.schedule is not None and args.schedule_steps is not None:
        raise ConfigError("pass --schedule or --schedule-steps, not both")
    if args.moment_system:
        order_text, t_text = args.moment_system
        try:
            orders, t_end = int(order_text), float(t_text)
        except ValueError:
            orders, t_end = 0, math.nan
        if not 0.0 <= t_end < math.inf:
            raise ConfigError("--moment-system needs an integer L and a "
                              "finite T_END >= 0")
        check_moment_orders(orders, orders)   # L! overflows a float past 170
        if rho0.kind != "constant":
            raise ConfigError("moment-system report needs a constant initial "
                              "density")
    out = _write_manifest(args)
    theta0 = params.theta0
    report: dict = {
        "norms": {"b_sup": params.b_norm, "m_sup": params.m_norm,
                  "a_integral": params.a_integral, "a_sup": params.a_sup,
                  "theta0": theta0},
    }
    op = operator_norm_bound(params.b_norm, params.m_norm, params.a_sup,
                             params.a_integral, theta0 + 1.0, theta0)
    report["operator"] = {
        **asdict(op),
        "existence_time": existence_time(params.b_norm, params.a_integral,
                                         theta0 + 1.0, theta0),
        "unit_existence_time": unit_existence_time(theta0, params.b_norm,
                                                   params.a_integral),
    }
    horizon_ref = args.schedule if args.schedule else 1.0
    theta_t = surgailis_theta_growth(theta0, params.b_norm, horizon_ref)
    report["theta_growth"] = {"t": horizon_ref, "theta_t": theta_t}
    try:
        sd = stationary_density_bound(params, rho0.sup)
        report["stationary_density"] = {
            "available": True, "a_zero": sd.a_zero,
            "global_bound": sd.global_bound, "level": sd.level_sup,
        }
    except EffectiveMortalityUnavailable:
        report["stationary_density"] = {"available": False,
                                        "theta_growth_fallback": theta_t}
    if args.schedule is not None or args.schedule_steps is not None:
        sched = continuation_schedule(
            params.b_norm, params.a_integral, theta0,
            horizon=args.schedule, kappa=args.kappa,
            steps=args.schedule_steps)
        report["schedule"] = {
            "kappa": sched.kappa, "horizon": sched.horizon,
            "steps": sched.steps, "total_time": sched.total_time,
            "theta_final": float(sched.thetas[-1]),
            "max_identity_residual": float(np.max(sched.identity_residuals())),
            "times": sched.times, "thetas": sched.thetas,
        }
    if args.moment_system:
        h = args.cell_side
        a_cell, b_cell = cell_rates(params, h)
        volume = math.prod([h] * params.dimension)
        lam = rho0.value * volume
        q0 = [lam**l / math.factorial(l) for l in range(1, orders + 1)]
        kappa0 = max(volume * math.exp(theta0), lam)
        t_grid = np.linspace(0.0, t_end, 101)
        mb = moment_bound_system(q0, b_cell, a_cell, t_grid, kappa0=kappa0)
        report["moment_system"] = {**asdict(mb), "orders": orders,
                                   "cell_side": h}
    if args.theta_norm is not None:
        # the norm of the Poisson family rho^n over every order: its terms
        # (rho e^-theta)^n peak at n = 0 when rho e^-theta <= 1 and grow
        # without bound otherwise
        terms = [_poisson_term(rho0.sup, args.theta_norm, n)
                 for n in range(17)]
        report["theta_norm"] = {
            "theta": args.theta_norm,
            "per_order": dict(zip(map(str, range(17)), terms)),
            "value": 1.0 if terms[1] <= 1.0 else math.inf}
    _write_json(out / "bounds.json", _jsonable(report))
    print(f"bounds: report in {out / 'bounds.json'}")
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def _load_ensemble(run: Path, params, arguments: dict) -> SnapshotEnsemble:
    """A simulate run's particle table: one stable sort by slot of every
    particle file's rows keeps each slot's rows in file order."""
    times = arguments["snapshots"]
    replicas = arguments["replicas"]
    d = params.dimension
    points, slots = [], []
    for k in range(len(times)):
        path = run / _PARTICLE_FILE.format(k)
        cols = read_csv_columns(path)
        missing = {"replica", *(f"x{i+1}" for i in range(d))} - set(cols)
        if missing:
            raise ConfigError(f"{path} lacks columns {sorted(missing)}")
        if len({len(cols[name]) for name in cols}) > 1:
            raise ConfigError(f"{path} has rows of different lengths")
        reps = np.asarray(cols["replica"], dtype=int)
        if np.any((reps < 0) | (reps >= replicas)):
            raise ConfigError(f"{path} has replica ids outside "
                              f"0..{replicas - 1}")
        points.append(np.asarray([cols[f"x{i+1}"] for i in range(d)],
                                 dtype=float).T)
        slots.append(reps * len(times) + k)
    slot = np.concatenate(slots)
    counts = np.bincount(slot, minlength=replicas * len(times))
    return SnapshotEnsemble(params.window, times, np.concatenate(points)[
        np.argsort(slot, kind="stable")], counts.reshape(replicas, -1))


def _recompute(name: str, path: Path, table) -> tuple:
    """Check a stored estimator CSV against its writer's (header, blocks)
    rebuilt from the reloaded particles: the same header, row count and
    text in str-written columns, and float columns within 1e-9.  Returns
    the check and the stored columns, or None for them if the rows differ
    or a float column holds a cell that is not a number."""
    header, blocks = table
    fresh = dict(zip(header, map(np.concatenate, zip(*blocks))))
    text = {column: list(map(str, col.tolist()))
            for column, col in fresh.items() if col.dtype.kind != "f"}
    stored = read_csv_columns(path)
    rows = sorted({len(col) for col in stored.values()})
    if list(stored) != header or rows != [fresh[header[0]].size] \
            or any(stored[column] != t for column, t in text.items()):
        return (name, "FAIL", f"header, row counts {rows} or text differ "
                f"from the {fresh[header[0]].size} recomputed rows"), None
    try:
        floats = [(np.asarray(stored[column], dtype=float), col)
                  for column, col in fresh.items() if column not in text]
    except ValueError as exc:
        return (name, "FAIL", f"non-numeric cell: {exc}"), None
    worst = float(np.max([np.max(np.abs(got - want), initial=0.0)
                          for got, want in floats]))
    return (name, "PASS" if worst <= 1e-9 else "FAIL",
            f"max deviation {worst:.3g}"), stored


def _moment_identity(stored, series) -> tuple:
    """Stored raw moments against the Stirling transform of the stored
    factorial ones, a row of both per time and cell."""
    if stored is None:
        return "moment-identity", "SKIP", "moments.csv rows do not match"
    table = np.asarray(stored["value"], dtype=float).reshape(
        -1, series.orders + series.raw_orders)
    facts = table[:, :series.orders].T
    expect = np.stack([raw_moment_from_factorials(facts, n)
                       for n in range(1, series.raw_orders + 1)], axis=1)
    worst = float(np.max(np.abs(table[:, series.orders:] - expect)
                         / np.maximum(1.0, np.abs(expect)), initial=0.0))
    return ("moment-identity", "PASS" if worst <= 1e-9 else "FAIL",
            f"max relative residual {worst:.3g}")


def _envelope(name: str, detail: str, value, bound, stderr) -> tuple:
    """PASS when max(value - bound - 3 stderr), put into `detail`, is <= 0."""
    worst = float(np.max(value - bound - 3.0 * stderr))
    return name, "PASS" if worst <= 0 else "FAIL", detail.format(worst)


def _envelope_checks(params, partition, series):
    """domination, oracle-equivalence, moment-envelope and density-cap."""
    volume = partition.volume
    dens = series.factorial[:, :, 0] / volume
    err = series.factorial_stderr[:, :, 0] / volume
    constant_rates = {params.birth.kind, params.mortality.kind} == {"constant"}
    if not constant_rates or series.times.size < 2:
        reason = "needs two snapshots" if constant_rates \
            else "needs constant b and m"
        yield "domination", "SKIP", reason
        yield "oracle-equivalence", "SKIP", reason
    else:
        # the envelope starts from the first snapshot's densities, which it
        # equals there by construction, so that snapshot is left out
        origin = np.zeros(params.dimension)
        flows = (SurgailisFlow.from_params(params, float(t - series.times[0]))
                 for t in series.times[1:])
        envelope = np.array([poisson_density_flow(dens[0], f, origin)
                             for f in flows])
        yield _envelope("domination", "worst envelope excess {:.3g}",
                        dens[1:], envelope, err[1:])
        if params.a_integral == 0.0:   # the envelope is the exact law
            yield _envelope("oracle-equivalence",
                            "worst |deviation| - 3 sigma = {:.3g}",
                            np.abs(dens[1:] - envelope), 0.0, err[1:])
        else:
            yield "oracle-equivalence", "SKIP", "competition kernel present"
    a_cell, b_cell = cell_rates(params, partition.cell_side)
    if a_cell > 0.0 and constant_rates:
        q0 = np.max(series.factorial[0], axis=0)
        mb = moment_bound_system(
            q0, b_cell, a_cell, series.times - series.times[0],
            kappa0=max(volume * math.exp(params.theta0),
                       kappa_from_factorial_moments(q0)))
        yield _envelope("moment-envelope",
                        f"kappa {mb.kappa:.4g}, worst excess {{:.3g}}",
                        series.factorial, mb.envelope, series.factorial_stderr)
    else:
        yield "moment-envelope", "SKIP", "needs constant rates" if a_cell > 0 \
            else "kernel infimum over the cell separations is zero"
    try:
        level = stationary_density_bound(
            params, float(np.max(dens[0]))).global_bound
    except EffectiveMortalityUnavailable:
        yield "density-cap", "SKIP", "kernel vanishes at the origin"
    else:
        yield _envelope("density-cap",
                        f"level {level:.4g}, worst excess {{:.3g}}",
                        dens, level, err)


def cmd_verify(args) -> int:
    run = Path(args.run)
    manifest_path = run / "manifest.json"
    if not manifest_path.is_file():
        raise ConfigError(f"no manifest.json under {run}")
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict):
        raise ConfigError(f"{manifest_path} is not a JSON object")
    if manifest.get("command") != "simulate":
        raise ConfigError(f"{run} holds a {manifest.get('command')!r} run; "
                          "verify checks simulate runs")
    actual = config_sha256(args.config)
    if actual != manifest.get("config_sha256"):
        raise ConfigError(f"config hash mismatch: {actual} vs manifest "
                          f"{manifest.get('config_sha256')}")
    params = build_params(load_config(args.config))
    arguments = manifest.get("arguments")
    # the settings verify reads, of the types simulate records (no booleans)
    kinds = {"replicas": [int], "l_max": [int], "n_max": [int],
             "cell_side": [int, float], "snapshots": [list]}
    if not isinstance(arguments, dict) or any(
            type(arguments.get(key)) not in kinds[key] for key in kinds) \
            or any(type(t) not in (int, float) for t in arguments["snapshots"]):
        raise ConfigError(f"{manifest_path}: arguments lack replicas, "
                          "snapshots, cell_side, l_max or n_max, or hold one "
                          "of the wrong type")
    ensemble = _load_ensemble(run, params, arguments)
    partition = CellPartition(params.window, arguments["cell_side"])
    grids = density_estimate(ensemble, partition)
    k1_check, _ = _recompute("k1-recompute", run / "k1.csv",
                             k1_table(grids, ensemble.times, params.dimension))
    series = moment_series(ensemble, partition, l_max=arguments["l_max"],
                           n_max=arguments["n_max"])
    moments_check, moments = _recompute(
        "moments-recompute", run / "moments.csv", moments_table(series))
    results = [k1_check, moments_check, _moment_identity(moments, series),
               *_envelope_checks(params, partition, series)]
    for name, status, detail in results:
        print(f"verify {status} {name}: {detail}")
    passed, skipped, failed = (sum(r[1] == s for r in results)
                               for s in ("PASS", "SKIP", "FAIL"))
    print(f"verify: {passed} passed, {skipped} skipped, {failed} failed")
    return EXIT_CHECK if failed else EXIT_OK


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="contpop",
        description="Spatial birth-death population dynamics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True, seed=False):
        p.add_argument("--config", required=True, help="model config JSON")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        if seed:
            p.add_argument("--seed", type=int,
                           default=os.environ.get("CONTPOP_SEED"),
                           help="base seed (fallback: CONTPOP_SEED)")
            p.add_argument("--threads", type=_number(int, 1), default=1,
                           help="processes for the replicas, this one and "
                                "forked workers, at most one per replica and "
                                "per CPU; then threads for the k2 pair count, "
                                "at most one per CPU (default 1: run in this "
                                "process and thread)")

    p = sub.add_parser("simulate", help="run stochastic replicas")
    common(p, seed=True)
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--snapshots", type=_parse_times, required=True,
                   help="comma-separated snapshot times")
    p.add_argument("--max-events", type=int, default=10**8)
    p.add_argument("--cell-side", type=float, default=None,
                   help="moment/density cell side (default: smallest window side)")
    p.add_argument("--lmax", dest="l_max", type=int, default=4)
    p.add_argument("--nmax", dest="n_max", type=int, default=4)
    p.add_argument("--k2-bins", type=_number(int, 0), default=None,
                   help="pair-correlation bins (default 16; 0, no k2.csv, "
                        "on absorbing windows)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("hierarchy", help="integrate the truncated hierarchy")
    common(p)
    p.add_argument("--closure", choices=list(CLOSURES),
                   default="zero-third-cumulant")
    p.add_argument("--nmax", type=int, choices=(1, 2), default=2)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--snapshots", type=_parse_times, default=None)
    p.add_argument("--grid", type=int, default=None)
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("surgailis", help="exact non-interacting flow")
    common(p)
    p.add_argument("--times", type=_parse_times, required=True)
    p.add_argument("--grid", type=_number(int, 1), default=1024)
    p.add_argument("--pair-grid", type=_number(int, 0), default=0,
                   help="also emit k2 on an NxN pair grid (d = 1 only)")
    p.set_defaults(func=cmd_surgailis)

    p = sub.add_parser("bounds", help="analytical bounds report")
    common(p)
    p.add_argument("--schedule", type=_number(float, 0.0), default=None,
                   help="build the continuation schedule to this horizon")
    p.add_argument("--schedule-steps", type=_number(int, 1), default=None,
                   help="build the schedule for a fixed number of steps")
    p.add_argument("--kappa", type=_number(float, 0.0, 0.5), default=0.4)
    p.add_argument("--moment-system", nargs=2, metavar=("L", "T_END"))
    p.add_argument("--theta-norm", type=_number(float, -math.inf))
    p.add_argument("--cell-side", type=_number(float, 0.0), default=1.0)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="re-check a finished simulate run")
    common(p, out=False)
    p.add_argument("--run", required=True, help="directory of the run")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (CappedRunError, StepSizeError, ClipBudgetError, DivergenceError,
            ScheduleHorizonError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:   # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
