"""Set-up probe: a fresh interpreter imports contpop and builds the engines.

Run as `python3 perfbench/probe.py SPEC_JSON` with `src` on PYTHONPATH.  It
times the import, `load_config`, `build_params` and the workload's engine
constructors, and prints one JSON object with those timings and the
environment (Python, numpy and its BLAS).  run.py times the whole process
from outside as `setup_s`.
"""

import json
import sys
import time

t_start = time.perf_counter()
# the imports below are what set-up time measures
import contpop  # noqa: E402
import numpy as np  # noqa: E402
from contpop import (CellPartition, HierarchyState,  # noqa: E402
                     SimulationState, build_params, load_config)

t_import = time.perf_counter() - t_start


def _blas() -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {"name": info.get("name"), "version": info.get("version"),
            "config": info.get("openblas configuration")}


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def main(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    out = {"import_s": t_import}
    if spec["kind"] == "simulate":
        cfg, out["load_config_s"] = _timed(load_config, spec["config"])
        params, out["build_params_s"] = _timed(build_params, cfg)
        rng = np.random.default_rng(0)
        _, out["simulator_state_init_s"] = _timed(SimulationState, params, rng)
        _, out["cell_partition_s"] = _timed(CellPartition, params.window,
                                            spec["cell_side"])
    else:
        cfg, out["load_config_s"] = _timed(load_config, spec["full_grid"])
        cfg_ti, t = _timed(load_config, spec["ti"])
        out["load_config_s"] += t
        params, out["build_params_s"] = _timed(build_params, cfg)
        params_ti, t = _timed(build_params, cfg_ti)
        out["build_params_s"] += t
        _, t_full = _timed(HierarchyState.full_grid, params, spec["grid"],
                           spec["rho0"])
        _, t_ti = _timed(HierarchyState.translation_invariant, params_ti,
                         spec["grid"], spec["rho0"])
        out["hierarchy_state_init_s"] = t_full + t_ti
    out["environment"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "contpop": contpop.__version__,
        "blas": _blas(),
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1])
