"""Strict JSON configuration parsing."""

import json

import numpy as np
import pytest

from contpop import (
    ConfigError,
    build_initial,
    build_params,
    config_sha256,
    hierarchy_options,
    load_config,
)

BASE = {
    "dimension": 1,
    "sides": [10.0],
    "kernel": {"kind": "gaussian", "amplitude": 1.0, "range": 0.5},
    "b": {"kind": "constant", "value": 1.0},
    "m": {"kind": "constant", "value": 0.5},
}


def write_config(tmp_path, overrides=None, name="run.json", drop=()):
    cfg = {**BASE, **(overrides or {})}
    for key in drop:
        cfg.pop(key, None)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_round_trip_minimal(tmp_path):
    cfg = load_config(write_config(tmp_path))
    params = build_params(cfg)
    assert params.dimension == 1
    assert params.window.sides.tolist() == [10.0]
    assert float(params.birth(np.array([1.0]))) == 1.0
    assert float(params.mortality(np.array([1.0]))) == 0.5
    assert params.theta0 == 0.0
    empty = build_initial(cfg, params)
    assert (empty.kind, empty.value) == ("constant", 0.0)


def test_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="nope.json"):
        load_config(missing)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(path)


def test_unknown_keys_listed_with_dotted_paths(tmp_path):
    path = write_config(tmp_path, {"speed": 3,
                                   "kernel": {"kind": "gaussian",
                                              "amplitude": 1.0,
                                              "range": 0.5,
                                              "sigma": 2.0}})
    with pytest.raises(ConfigError) as info:
        load_config(path)
    message = str(info.value)
    assert "speed" in message and "kernel.sigma" in message


def test_missing_required_key(tmp_path):
    path = write_config(tmp_path, drop=("m",))
    with pytest.raises(ConfigError, match="'m'"):
        load_config(path)


def test_dimension_and_sides_checked(tmp_path):
    cfg = load_config(write_config(tmp_path))
    cfg["dimension"] = 4
    with pytest.raises(ConfigError, match="dimension"):
        build_params(cfg)
    cfg["dimension"] = 2
    with pytest.raises(ConfigError, match="sides"):
        build_params(cfg)


def test_boundary_section(tmp_path):
    path = write_config(tmp_path, {
        "sides": [20.0],
        "boundary": {"mode": "absorbing-buffer", "buffer_width": 4.0}})
    params = build_params(load_config(path))
    assert params.window.boundary == "absorbing-buffer"
    assert params.window.buffer_width == 4.0
    bad = write_config(tmp_path, {"boundary": {"mode": "reflecting"}},
                       name="bad.json")
    with pytest.raises(ConfigError):
        build_params(load_config(bad))


def test_kernel_kinds(tmp_path):
    path = write_config(tmp_path, {
        "kernel": {"kind": "tabulated", "r": [0.0, 0.5, 1.0],
                   "a": [1.0, 0.5, 0.0]}})
    params = build_params(load_config(path))
    assert params.kernel.kind == "tabulated"
    cfg = load_config(write_config(tmp_path, name="k2.json"))
    cfg["kernel"] = {"kind": "mexican-hat", "amplitude": 1.0, "range": 1.0}
    with pytest.raises(ConfigError, match="kernel kind"):
        build_params(cfg)
    cfg["kernel"] = {"kind": "gaussian", "amplitude": 1.0}
    with pytest.raises(ConfigError, match="range"):
        build_params(cfg)
    cfg["kernel"] = {"kind": "tabulated", "r": [0.0, 1.0]}
    with pytest.raises(ConfigError, match="'a'"):
        build_params(cfg)


def test_field_kinds(tmp_path):
    path = write_config(tmp_path, {
        "b": {"kind": "gaussian-bump", "amplitude": 2.0, "center": [5.0],
              "width": 1.0},
        "m": {"kind": "tabulated", "values": [1.0, 2.0, 1.0, 1.0]}})
    params = build_params(load_config(path))
    assert float(params.birth(np.array([5.0]))) == pytest.approx(2.0)
    assert float(params.mortality(np.array([3.0]))) == pytest.approx(2.0)
    cfg = load_config(write_config(tmp_path, name="f2.json"))
    cfg["b"] = {"kind": "constant"}
    with pytest.raises(ConfigError, match="b.*value"):
        build_params(cfg)
    cfg["b"] = {"kind": "white-noise", "value": 1.0}
    with pytest.raises(ConfigError, match="field kind"):
        build_params(cfg)
    cfg["b"] = {"kind": "gaussian-bump", "amplitude": 1.0, "center": [5.0]}
    with pytest.raises(ConfigError, match="width"):
        build_params(cfg)


def test_negative_rate_rejected(tmp_path):
    cfg = load_config(write_config(tmp_path))
    cfg["m"] = {"kind": "constant", "value": -0.5}
    with pytest.raises(ConfigError):
        build_params(cfg)


def test_theta0_parsed(tmp_path):
    path = write_config(tmp_path, {"theta0": -0.7})
    assert build_params(load_config(path)).theta0 == -0.7


def test_build_initial_kinds(tmp_path):
    cfg = load_config(write_config(tmp_path))
    params = build_params(cfg)
    cfg["initial"] = {"kind": "poisson", "density": 0.5}
    density = build_initial(cfg, params)
    assert (density.kind, density.value) == ("constant", 0.5)
    cfg["initial"] = {"kind": "poisson",
                      "density": {"kind": "constant", "value": 1.5}}
    assert build_initial(cfg, params).value == 1.5
    cfg["initial"] = {"kind": "explicit", "points": [[1.0], [2.0]]}
    points = build_initial(cfg, params)
    assert points.dtype == float and points.tolist() == [[1.0], [2.0]]
    cfg["initial"] = {"kind": "explicit", "points": []}
    assert build_initial(cfg, params).shape == (0, 1)
    cfg["initial"] = {"kind": "explicit"}
    with pytest.raises(ConfigError, match="points"):
        build_initial(cfg, params)
    cfg["initial"] = {"kind": "poisson"}
    with pytest.raises(ConfigError, match="density"):
        build_initial(cfg, params)
    cfg["initial"] = {"kind": "poisson", "density": -2.0}
    with pytest.raises(ConfigError, match="nonnegative"):
        build_initial(cfg, params)
    cfg["initial"] = {"kind": "grid"}
    with pytest.raises(ConfigError, match="initial kind"):
        build_initial(cfg, params)


@pytest.mark.parametrize("points, message", [
    ([[1, 2], [3, 4]], "each list 1 coordinates"),
    ([[1.0], [2.0, 3.0]], "each list 1 coordinates"),
    ([1.0, 2.0], "each list 1 coordinates"),
    ([[11.0]], "outside the domain"),
    ([[-1.0]], "outside the domain"),
    ([["a"]], "convert string to float"),
    (3.0, "not iterable"),
], ids=str)
def test_explicit_points_checked(tmp_path, points, message):
    # exactly one coordinate per point in 1-D, each inside [0, 10)
    cfg = load_config(write_config(tmp_path))
    cfg["initial"] = {"kind": "explicit", "points": points}
    with pytest.raises(ConfigError, match=message):
        build_initial(cfg, build_params(cfg))


def test_initial_density_field_keys_checked(tmp_path):
    path = write_config(tmp_path, {
        "initial": {"kind": "poisson",
                    "density": {"kind": "constant", "value": 1.0,
                                "sigma": 3.0}}})
    with pytest.raises(ConfigError, match="initial.density.sigma"):
        load_config(path)


def test_hierarchy_options(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert hierarchy_options(cfg) == {"grid": 256,
                                      "mode": "translation-invariant"}
    cfg["hierarchy"] = {"grid": 64, "mode": "full-grid"}
    assert hierarchy_options(cfg) == {"grid": 64, "mode": "full-grid"}
    cfg["hierarchy"] = {"grid": 4}
    with pytest.raises(ConfigError, match="grid"):
        hierarchy_options(cfg)
    cfg["hierarchy"] = {"mode": "spectral"}
    with pytest.raises(ConfigError, match="mode"):
        hierarchy_options(cfg)


def test_config_sha256_tracks_bytes(tmp_path):
    path = write_config(tmp_path)
    digest = config_sha256(path)
    assert len(digest) == 64 and digest == config_sha256(path)
    other = write_config(tmp_path, {"theta0": 1.0}, name="other.json")
    assert config_sha256(other) != digest
