"""Command-line interface: simulate, hierarchy, surgailis, bounds, verify.

Every run writes a manifest.json (command, normalized arguments, config
hash, seed) into the output directory before any computation starts, so a
finished or failed run can always be reproduced.  Data outputs are CSV/JSON
with repr-formatted floats: rerunning the same manifest yields byte-identical
CSV files regardless of the worker count (`--threads`).  Every CSV is
written by `estimators.write_csv`, one replica, snapshot or grid row per
block.  summary.json additionally records wall-clock times, per-replica
spreads and repair counters and is therefore diagnostic, not reproducible.
`verify` compares k1.csv and moments.csv with the tables their writers
build (`estimators.k1_table`, `moments_table`), rebuilt from the particle
files (the layouts are spelled out only there), and tests the analytic
envelopes that `surgailis` and `bounds` compute.

Exit codes: 0 success, 1 failed verification checks, 2 configuration errors
(any ValueError, including a library check's), 3 numerical failures (event-budget cap, step-size guard, clipping budget,
divergence, schedule horizon).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (EffectiveMortalityUnavailable, ScheduleHorizonError,
                     cell_rates, continuation_schedule, existence_time,
                     kappa_from_factorial_moments, moment_bound_system,
                     operator_norm_bound, stationary_density_bound,
                     surgailis_theta_growth, theta_norm, unit_existence_time)
from .config import (ConfigError, build_initial, build_params, config_sha256,
                     hierarchy_options, load_config)
from .estimators import (CellPartition, SnapshotEnsemble,
                         check_moment_orders, density_estimate, k1_table,
                         moment_series, moments_table,
                         pair_correlation_estimate, raw_moment_from_factorials,
                         read_csv_columns, separation_edges, write_csv,
                         write_k1_csv, write_k2_csv, write_moments_csv)
from .hierarchy import (CLOSURES, ClipBudgetError, DivergenceError,
                        HierarchyState, StepSizeError, integrate)
from .simulator import CappedRunError, ReplicaPlan, run_replicas
from .surgailis import (SurgailisFlow, box_quadrature, expected_count,
                        poisson_density_flow, propagate_correlation)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_times(text: str, flag: str) -> tuple:
    try:
        times = tuple(float(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated numbers: {exc}")
    if not times or not all(map(math.isfinite, times)):
        raise ConfigError(f"{flag} must list finite times")
    return times


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    else:
        env = os.environ.get("CONTPOP_SEED")
        if env is None:
            raise ConfigError("no seed given: pass --seed or set CONTPOP_SEED")
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"CONTPOP_SEED is not an integer: {env!r}")
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must fit in an unsigned 64-bit integer")
    return seed


def _write_manifest(out: Path, command: str, arguments: dict,
                    config_path: str, seed=None) -> None:
    manifest = {
        "tool": "contpop",
        "version": __version__,
        "command": command,
        "config_path": str(config_path),
        "config_sha256": config_sha256(config_path),
        "seed": seed,
        "arguments": arguments,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None    # JSON has no inf; absent bound means unbounded
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


# -- simulate -----------------------------------------------------------------


def _spread(values) -> dict:
    """Min, median and max of per-replica numbers."""
    return {"min": min(values), "median": float(np.median(values)),
            "max": max(values)}


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    params = build_params(cfg)
    seed = _resolve_seed(args)
    snapshots = _parse_times(args.snapshots, "--snapshots")
    cell_side = args.cell_side if args.cell_side is not None \
        else float(np.min(params.window.sides))
    # the estimator arguments and the plan are checked before the manifest
    partition = CellPartition(params.window, cell_side)
    check_moment_orders(args.lmax, args.nmax)
    if args.k2_bins < 0:
        raise ConfigError("--k2-bins must be nonnegative (0 writes no k2.csv)")
    k2_bins = args.k2_bins if params.window.boundary == "periodic" else 0
    if k2_bins > 0:
        half = float(np.min(params.window.sides)) / 2.0
        edges = separation_edges(params.window,
                                 np.linspace(0.0, half, k2_bins + 1))
    plan = ReplicaPlan(replicas=args.replicas, base_seed=seed,
                       snapshots=snapshots,
                       initial=build_initial(cfg, params),
                       max_events=args.max_events)
    out = Path(args.out)
    arguments = {"replicas": args.replicas, "snapshots": list(snapshots),
                 "threads": args.threads, "max_events": args.max_events,
                 "cell_side": cell_side, "l_max": args.lmax,
                 "n_max": args.nmax, "k2_bins": args.k2_bins}
    _write_manifest(out, "simulate", arguments, args.config, seed=seed)
    phase_s = {}
    t0 = time.perf_counter()
    ensemble, stats = run_replicas(params, plan, threads=args.threads)
    phase_s["replicas"] = time.perf_counter() - t0
    phase_s["replicas_initial"] = stats.initial_s
    phase_s["replicas_event_loop"] = stats.event_loop_s
    d = params.dimension
    header = ["replica"] + [f"x{i+1}" for i in range(d)]
    particle_files = [f"particles_{k:04d}.csv" for k in range(len(snapshots))]
    t0 = time.perf_counter()
    for k, name in enumerate(particle_files):
        write_csv(out / name, header,    # one block per replica
                  ([np.full(len(reps[k]), r), *reps[k].T]
                   for r, reps in enumerate(ensemble.configurations)))
    phase_s["particle_csv"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    grids = density_estimate(ensemble, partition)
    series = moment_series(ensemble, partition, l_max=args.lmax,
                           n_max=args.nmax)
    k2_grids = [pair_correlation_estimate(ensemble, edges, time_index=k)
                for k in range(len(snapshots))] if k2_bins > 0 else []
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
                   "total": stats.events,
                   "max_per_replica": stats.max_replica_events},
        "per_replica": {
            "events": _spread(stats.replica_events),
            "final_particles": _spread(
                [ensemble.positions(r, -1).shape[0]
                 for r in range(ensemble.n_replicas)])},
        "max_audit_residual": stats.max_audit_residual,
        "repairs": {"selection_fallbacks": stats.selection_fallbacks},
        "wall_time_s": phase_s["replicas"],
        "phase_s": phase_s,
        "estimators": {"cell_side": cell_side, "l_max": args.lmax,
                       "n_max": args.nmax, "k2_bins": k2_bins},
    }
    _write_json(out / "summary.json", _jsonable(summary))
    print(f"simulate: {plan.replicas} replicas, {stats.events} events, "
          f"outputs in {out}")
    return EXIT_OK


# -- hierarchy ----------------------------------------------------------------


def _initial_density(cfg: dict, params):
    """Initial density for deterministic runs: a float or a RateField."""
    spec = build_initial(cfg, params)
    if spec["kind"] == "empty":
        return 0.0
    if spec["kind"] == "poisson":
        return spec["density"]
    raise ConfigError("deterministic runs need an empty or poisson initial "
                      "state (a density), not an explicit point list")


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
    grid = opts["grid"]
    mode = opts["mode"]
    snapshots = _parse_times(args.snapshots, "--snapshots") \
        if args.snapshots else (args.t_end,)
    rho0 = _initial_density(cfg, params)
    ti = mode == "translation-invariant"
    if ti and not isinstance(rho0, (int, float)):
        raise ConfigError("translation-invariant runs need a constant "
                          "initial density")
    out = Path(args.out)
    arguments = {"closure": args.closure, "nmax": args.nmax, "dt": args.dt,
                 "t_end": args.t_end, "grid": grid, "mode": mode,
                 "snapshots": list(snapshots)}
    _write_manifest(out, "hierarchy", arguments, args.config)
    if ti:
        state = HierarchyState.translation_invariant(params, grid, rho0)
    else:
        state = HierarchyState.full_grid(params, grid, rho0)
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
    summary = {"mode": mode, "grid": grid, "closure": args.closure,
               "nmax": args.nmax, "dt": args.dt, "t_end": args.t_end,
               "clipped_mass": traj.clipped_mass,
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
    times = _parse_times(args.times, "--times")
    rho0 = _initial_density(cfg, params)
    if args.grid < 1:
        raise ConfigError("--grid must be at least 1")
    if args.pair_grid < 0:
        raise ConfigError("--pair-grid must be nonnegative")
    if args.pair_grid > 0 and params.dimension != 1:
        raise ConfigError("--pair-grid needs a 1-D window, not dimension "
                          f"{params.dimension}")
    out = Path(args.out)
    arguments = {"times": list(times), "grid": args.grid,
                 "pair_grid": args.pair_grid}
    _write_manifest(out, "surgailis", arguments, args.config)
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
        if isinstance(rho0, (int, float)):
            r0 = float(rho0)
            k0 = lambda eta: r0 ** eta.shape[-2]
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
    counts = {repr(float(t)): expected_count(window.core, flow, rho0=rho0)
              for t, flow in zip(times, flows)}
    _write_json(out / "summary.json", _jsonable({"expected_core_counts": counts}))
    print(f"surgailis: {len(times)} times, outputs in {out}")
    return EXIT_OK


# -- bounds -------------------------------------------------------------------


def cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    params = build_params(cfg)
    # the initial density and the flags are checked before the manifest
    rho0 = _initial_density(cfg, params)
    if args.schedule is not None and args.schedule_steps is not None:
        raise ConfigError("pass --schedule or --schedule-steps, not both")
    if args.schedule is not None and not 0.0 < args.schedule < math.inf:
        raise ConfigError("--schedule must be a positive finite horizon")
    if args.schedule_steps is not None and args.schedule_steps < 1:
        raise ConfigError("--schedule-steps must be positive")
    if not 0.0 < args.kappa < 0.5:
        raise ConfigError("--kappa must lie in (0, 1/2)")
    if not 0.0 < args.cell_side < math.inf:
        raise ConfigError("--cell-side must be positive and finite")
    if args.moment_system:
        order_text, t_text = args.moment_system
        try:
            orders, t_end = int(order_text), float(t_text)
        except ValueError as exc:
            raise ConfigError(f"--moment-system L T_END: {exc}")
        if orders < 1 or not 0.0 <= t_end < math.inf:
            raise ConfigError("--moment-system needs L >= 1 and a finite "
                              "T_END >= 0")
        if not isinstance(rho0, (int, float)):
            raise ConfigError("moment-system report needs a constant initial "
                              "density")
    out = Path(args.out)
    arguments = {"schedule": args.schedule,
                 "schedule_steps": args.schedule_steps, "kappa": args.kappa,
                 "moment_system": args.moment_system,
                 "theta_norm": args.theta_norm, "cell_side": args.cell_side}
    _write_manifest(out, "bounds", arguments, args.config)
    theta0 = params.theta0
    report: dict = {
        "norms": {"b_sup": params.b_norm, "m_sup": params.m_norm,
                  "a_integral": params.a_integral, "a_sup": params.a_sup,
                  "theta0": theta0},
    }
    op = operator_norm_bound(params.b_norm, params.m_norm, params.a_sup,
                             params.a_integral, theta0 + 1.0, theta0)
    report["operator"] = {
        "theta": op.theta, "theta_prime": op.theta_prime,
        "kernel_mortality_part": op.kernel_mortality_part,
        "birth_kernel_part": op.birth_kernel_part, "total": op.total,
        "existence_time": existence_time(params.b_norm, params.a_integral,
                                         theta0 + 1.0, theta0),
        "unit_existence_time": unit_existence_time(theta0, params.b_norm,
                                                   params.a_integral),
    }
    horizon_ref = args.schedule if args.schedule else 1.0
    theta_t = surgailis_theta_growth(theta0, params.b_norm, horizon_ref)
    report["theta_growth"] = {"t": horizon_ref, "theta_t": theta_t}
    rho0_value = rho0 if not hasattr(rho0, "sup") else rho0.sup
    try:
        sd = stationary_density_bound(params, rho0)
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
        lam = float(rho0) * volume
        q0 = [lam**l / math.factorial(l) for l in range(1, orders + 1)]
        kappa0 = max(volume * math.exp(theta0), lam)
        t_grid = np.linspace(0.0, t_end, 101)
        mb = moment_bound_system(q0, b_cell, a_cell, t_grid, kappa0=kappa0)
        report["moment_system"] = {
            "orders": orders, "cell_side": h, "a_cell": a_cell,
            "b_cell": b_cell, "kappa": mb.kappa, "kappa0": mb.kappa0,
            "t_grid": mb.t_grid, "trajectories": mb.trajectories,
            "envelope": mb.envelope,
        }
    if args.theta_norm is not None:
        family = {n: float(rho0_value) ** n for n in range(17)}
        th = args.theta_norm
        report["theta_norm"] = {
            "theta": th,
            "per_order": {str(n): v * math.exp(-th * n)
                          for n, v in family.items()},
            "value": theta_norm(family, th),
        }
    _write_json(out / "bounds.json", _jsonable(report))
    print(f"bounds: report in {out / 'bounds.json'}")
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def _load_ensemble(run: Path, params, summary) -> SnapshotEnsemble:
    times = summary["snapshot_times"]
    replicas = summary["replicas"]
    d = params.dimension
    configs = [[None] * len(times) for _ in range(replicas)]
    for k, fname in enumerate(summary["particle_files"]):
        cols = read_csv_columns(run / fname)
        missing = {"replica", *(f"x{i+1}" for i in range(d))} - set(cols)
        if missing:
            raise ConfigError(f"{run / fname} lacks columns {sorted(missing)}")
        reps = np.asarray(cols["replica"], dtype=int)
        if np.any((reps < 0) | (reps >= replicas)):
            raise ConfigError(f"{run / fname} has replica ids outside "
                              f"0..{replicas - 1}")
        coords = np.column_stack([np.asarray(cols[f"x{i+1}"], dtype=float)
                                  for i in range(d)])
        # one stable sort groups the rows by replica in file order
        order = np.argsort(reps, kind="stable")
        coords = coords[order]
        bounds = np.searchsorted(reps[order], np.arange(replicas + 1))
        for r in range(replicas):
            configs[r][k] = coords[bounds[r]:bounds[r + 1]]
    return SnapshotEnsemble(params.window, times, configs)


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
    volume = partition.cell_side ** params.dimension
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
    if manifest.get("command") != "simulate":
        raise ConfigError(f"{run} holds a {manifest.get('command')!r} run; "
                          "verify checks simulate runs")
    actual = config_sha256(args.config)
    if actual != manifest.get("config_sha256"):
        print(f"verify: config hash mismatch: {actual} vs manifest "
              f"{manifest.get('config_sha256')}", file=sys.stderr)
        return EXIT_CONFIG
    params = build_params(load_config(args.config))
    summary = json.loads((run / "summary.json").read_text())
    ensemble = _load_ensemble(run, params, summary)
    est = summary["estimators"]
    partition = CellPartition(params.window, est["cell_side"])
    grids = density_estimate(ensemble, partition)
    k1_check, _ = _recompute("k1-recompute", run / "k1.csv",
                             k1_table(grids, ensemble.times, params.dimension))
    series = moment_series(ensemble, partition, l_max=est["l_max"],
                           n_max=est["n_max"])
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
    parser = argparse.ArgumentParser(
        prog="contpop",
        description="Spatial birth-death population dynamics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True, seed=False):
        p.add_argument("--config", required=True, help="model config JSON")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="base seed (fallback: CONTPOP_SEED)")
            p.add_argument("--threads", type=int, default=1,
                           help="worker processes for the replicas, at most "
                                "one per replica and per CPU (default 1: "
                                "run in this process)")

    p = sub.add_parser("simulate", help="run stochastic replicas")
    common(p, seed=True)
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--snapshots", required=True,
                   help="comma-separated snapshot times")
    p.add_argument("--max-events", type=int, default=10**8)
    p.add_argument("--cell-side", type=float, default=None,
                   help="moment/density cell side (default: smallest window side)")
    p.add_argument("--lmax", type=int, default=4)
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--k2-bins", type=int, default=16)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("hierarchy", help="integrate the truncated hierarchy")
    common(p)
    p.add_argument("--closure", choices=list(CLOSURES),
                   default="zero-third-cumulant")
    p.add_argument("--nmax", type=int, choices=(1, 2), default=2)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--snapshots", default=None)
    p.add_argument("--grid", type=int, default=None)
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("surgailis", help="exact non-interacting flow")
    common(p)
    p.add_argument("--times", required=True)
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--pair-grid", type=int, default=0,
                   help="also emit k2 on an NxN pair grid (d = 1 only)")
    p.set_defaults(func=cmd_surgailis)

    p = sub.add_parser("bounds", help="analytical bounds report")
    common(p)
    p.add_argument("--schedule", type=float, default=None,
                   help="build the continuation schedule to this horizon")
    p.add_argument("--schedule-steps", type=int, default=None,
                   help="build the schedule for a fixed number of steps")
    p.add_argument("--kappa", type=float, default=0.4)
    p.add_argument("--moment-system", nargs=2, metavar=("L", "T_END"),
                   default=None)
    p.add_argument("--theta-norm", type=float, default=None)
    p.add_argument("--cell-side", type=float, default=1.0)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="re-check a finished simulate run")
    common(p, out=False)
    p.add_argument("--run", required=True, help="directory of the run")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print("config error: --threads must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
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
