"""JSON run configuration: strict parsing into model objects.

The configuration fixes the model (window, kernel, rate fields, theta0) and
optionally the initial state and hierarchy grid.  Parsing is strict: any key
outside the documented schema fails with a ConfigError naming the offending
keys, so typos cannot silently fall back to defaults.  Every number must
be finite, and a value of the wrong type, a boolean included, is a
ConfigError.  The initial state becomes a RateField (a Poisson start) or an
(n, d) array of points inside the domain, checked here, before any command
writes its manifest.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .model import CompetitionKernel, ModelParams, RateField, Window

__all__ = ["ConfigError", "load_config", "build_params", "build_initial",
           "config_sha256", "hierarchy_options"]


class ConfigError(ValueError):
    """Configuration file is missing, malformed, or inconsistent."""


_TOP_KEYS = {"dimension", "sides", "boundary", "kernel", "b", "m", "theta0",
             "initial", "hierarchy"}
_BOUNDARY_KEYS = {"mode", "buffer_width"}
_KERNEL_KEYS = {"kind", "amplitude", "range", "r_cut", "r", "a"}
_FIELD_KEYS = {"kind", "value", "values", "amplitude", "center", "width"}
_INITIAL_KEYS = {"kind", "density", "points"}
_HIERARCHY_KEYS = {"grid", "mode"}


def _unknown_keys(section: dict, allowed: set, prefix: str) -> list:
    return [f"{prefix}{k}" for k in sorted(set(section) - allowed)]


def _finite(text: str, kind=float):
    """JSON parse hook: the number `text` as `kind`, refused unless finite
    (NaN, Infinity, and literals past the float range such as 1e999)."""
    value = kind(text)
    if abs(value) <= sys.float_info.max:   # exact for ints; false for nan
        return value
    raise ConfigError(f"config numbers must be finite, not {text}")


def _refuse_booleans(node, path: str) -> None:
    """Raise a ConfigError at the first JSON true or false under `node`: no
    config key takes one, and Python would read it as the number 1 or 0."""
    if isinstance(node, bool):
        raise ConfigError(f"config key {path} is {str(node).lower()}; no "
                          "key takes a boolean")
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        _refuse_booleans(value, f"{path}.{key}" if path else str(key))


def _refusing(build):
    """`build` with a TypeError or ValueError raised as a ConfigError."""
    @functools.wraps(build)
    def checked(*args):
        try:
            return build(*args)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
    return checked


def load_config(path) -> dict:
    """Read and structurally validate a config file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text(), parse_float=_finite,
                         parse_constant=_finite,
                         parse_int=lambda text: _finite(text, int))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _refuse_booleans(cfg, "")
    unknown = _unknown_keys(cfg, _TOP_KEYS, "")
    for name, keys in (("boundary", _BOUNDARY_KEYS), ("kernel", _KERNEL_KEYS),
                       ("b", _FIELD_KEYS), ("m", _FIELD_KEYS),
                       ("initial", _INITIAL_KEYS),
                       ("hierarchy", _HIERARCHY_KEYS)):
        section = cfg.get(name)
        if section is not None:
            if not isinstance(section, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            unknown += _unknown_keys(section, keys, f"{name}.")
    initial = cfg.get("initial")
    if initial and isinstance(initial.get("density"), dict):
        unknown += _unknown_keys(initial["density"], _FIELD_KEYS,
                                 "initial.density.")
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    for key in ("dimension", "sides", "kernel", "b", "m"):
        if key not in cfg:
            raise ConfigError(f"config is missing required key {key!r}")
    return cfg


def config_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _build_window(cfg: dict) -> Window:
    dimension = cfg["dimension"]
    if dimension not in (1, 2, 3):
        raise ConfigError("dimension must be 1, 2, or 3")
    sides = cfg["sides"]
    if not isinstance(sides, list) or len(sides) != dimension:
        raise ConfigError("sides must list one extent per dimension")
    boundary = cfg.get("boundary", {"mode": "periodic"})
    return Window(sides, boundary=boundary.get("mode", "periodic"),
                  buffer_width=boundary.get("buffer_width", 0.0))


def _build_kernel(spec: dict, dimension: int) -> CompetitionKernel:
    kind = spec.get("kind")
    if kind not in CompetitionKernel.KINDS:
        raise ConfigError(f"unknown kernel kind {kind!r}")
    needs = ("r", "a") if kind == "tabulated" else ("amplitude", "range")
    if any(key not in spec for key in needs):
        raise ConfigError(f"{kind} kernel needs {needs[0]!r} and {needs[1]!r}")
    return CompetitionKernel(kind, dimension, spec.get("amplitude", 0.0),
                             spec.get("range", 1.0), spec.get("r_cut"),
                             spec.get("r"), spec.get("a"))


def _build_field(spec: dict, window: Window, label: str) -> RateField:
    kind = spec.get("kind")
    try:
        if kind == "constant":
            if "value" not in spec:
                raise ValueError("constant field needs 'value'")
            return RateField.constant(spec["value"], window.dimension)
        if kind == "tabulated":
            if "values" not in spec:
                raise ValueError("tabulated field needs 'values'")
            return RateField.tabulated(np.asarray(spec["values"], dtype=float),
                                       window.domain)
        if kind == "gaussian-bump":
            for need in ("amplitude", "center", "width"):
                if need not in spec:
                    raise ValueError(f"gaussian-bump needs {need!r}")
            return RateField.gaussian_bump(spec["amplitude"], spec["center"],
                                           spec["width"], window.domain)
        raise ValueError(f"unknown field kind {kind!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc


@_refusing
def build_params(cfg: dict) -> ModelParams:
    window = _build_window(cfg)
    kernel = _build_kernel(cfg["kernel"], window.dimension)
    birth = _build_field(cfg["b"], window, "b")
    mortality = _build_field(cfg["m"], window, "m")
    return ModelParams(window, kernel, birth, mortality,
                       theta0=float(cfg.get("theta0", 0.0)))


@_refusing
def build_initial(cfg: dict, params: ModelParams):
    """The initial state: the density RateField of a Poisson start (`empty`
    is density 0), or the (n, d) float array of an `explicit` point list,
    each point inside the simulation domain."""
    spec = cfg.get("initial", {"kind": "empty"})
    kind = spec.get("kind")
    d = params.dimension
    if kind == "empty":
        return RateField.constant(0.0, d)
    if kind == "poisson":
        if "density" not in spec:
            raise ConfigError("poisson initial state needs 'density'")
        density = spec["density"]
        if isinstance(density, dict):
            return _build_field(density, params.window, "initial.density")
        return RateField.constant(density, d)
    if kind != "explicit":
        raise ConfigError(f"unknown initial kind {kind!r}")
    if "points" not in spec:
        raise ConfigError("explicit initial state needs 'points'")
    if not all(isinstance(x, list) and len(x) == d for x in spec["points"]):
        raise ConfigError(f"explicit initial points must each list {d} "
                          "coordinates")
    points = np.array(spec["points"], dtype=float).reshape(-1, d)
    if not np.all(params.window.domain.contains_points(points)):
        raise ConfigError("explicit initial points fall outside the domain")
    return points


@_refusing
def hierarchy_options(cfg: dict) -> dict:
    section = cfg.get("hierarchy", {})
    grid = section.get("grid", 256)
    if not isinstance(grid, int):
        raise ConfigError(f"hierarchy grid must be an integer, not {grid!r}")
    if grid < 8:
        raise ConfigError("hierarchy grid must have at least 8 points")
    mode = section.get("mode", "translation-invariant")
    if mode not in ("translation-invariant", "full-grid"):
        raise ConfigError(f"unknown hierarchy mode {mode!r}")
    return {"grid": grid, "mode": mode}
