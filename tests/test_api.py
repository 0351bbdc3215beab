"""The public API: every exported name resolves, removed names stay gone."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import contpop

MODULES = ["contpop"] + [f"contpop.{m.name}"
                         for m in pkgutil.iter_modules(contpop.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ())
            if not hasattr(mod, name)] == []


def test_package_exports_exactly_the_module_export_lists():
    # `cli`, the command line, keeps no export list and is not re-exported
    exported = [name for module in MODULES[1:]
                for name in getattr(importlib.import_module(module),
                                    "__all__", ())]
    assert len(exported) == len(set(exported))
    assert sorted(contpop.__all__) == sorted(["__version__", *exported])


# modules deleted whole; their names are gone with them
REMOVED_MODULES = {"combinatorics"}


def has_dotted(obj, name):
    """Whether `obj` has the attribute path `name`, e.g. "Class.method"."""
    for part in name.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


@pytest.mark.parametrize("module, name", [
    ("combinatorics", "product_functional"),
    ("combinatorics", "falling_factorial"),
    ("model", "PointConfiguration"),
    ("surgailis", "domination_bound"),
    ("bounds", "comparison_ode_bound"),
    ("bounds", "comparison_uniform_bound"),
    ("bounds", "relaxation_time"),
    ("bounds", "StationaryDensityBound.level"),
    ("estimators", "cross_moment"),
    ("estimators", "MomentSeries.q"),
    ("model", "interaction_energy"),
    ("surgailis", "bogoliubov_functional"),
    ("surgailis", "SurgailisFlow.window_quadrature"),
    ("combinatorics", "StirlingTable"),
    ("model", "Window.wrap"),
    ("estimators", "CorrelationGrid.order"),
    ("estimators", "MomentSeries.cell_side"),
    ("estimators", "CellPartition.counts"),
    ("estimators", "SnapshotEnsemble.configurations"),
    ("estimators", "_stack"),
    ("estimators", "_stacked"),
    ("model", "CompetitionKernel.scalar_profile"),
    ("simulator", "SimulationState._neighbors"),
    ("simulator", "SimulationState._select_death"),
    ("simulator", "_sum_in_order"),
    ("simulator", "sample_initial"),
    ("model", "Box.contains"),
    ("model", "RateField._grid_max"),
    ("model", "_box_grid"),
    ("combinatorics", "binomial"),
    ("combinatorics", "touchard"),
    ("estimators", "factorial_moment"),
    ("estimators", "CellPartition.separation_box"),
    ("model", "death_rate"),
    ("model", "death_rates"),
    ("model", "Window.distance"),
    ("model", "CompetitionKernel.gaussian"),
    ("model", "CompetitionKernel.exponential"),
    ("model", "CompetitionKernel.top_hat"),
    ("model", "CompetitionKernel.tabulated"),
    ("model", "CompetitionKernel.zero"),
    ("model", "RateField.scalar"),
    ("simulator", "_block_uniforms"),
    ("simulator", "SimulationState._draw_birth_position"),
    ("simulator", "_UNIFORM_BLOCK"),
])
def test_removed_names_are_gone(module, name):
    assert not has_dotted(contpop, name)
    assert name not in contpop.__all__
    if module in REMOVED_MODULES:
        assert importlib.util.find_spec(f"contpop.{module}") is None
    else:
        assert not has_dotted(importlib.import_module(f"contpop.{module}"),
                              name)


@pytest.mark.parametrize("module, name, parameter", [
    ("surgailis", "SurgailisFlow", "points_per_axis"),
    ("surgailis", "SurgailisFlow.from_params", "points_per_axis"),
    ("surgailis", "expected_count", "mu0_mean"),
    ("model", "cell_infimum", "divisions"),
    ("hierarchy", "HierarchyState.translation_invariant", "k20"),
    ("hierarchy", "HierarchyState.full_grid", "k20"),
    ("model", "Window.minimum_image", "axis"),
    ("model", "Window.minimum_image", "out"),
])
def test_removed_parameters_are_gone(module, name, parameter):
    obj = importlib.import_module(f"contpop.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert parameter not in inspect.signature(obj).parameters


SOURCES = sorted(p for p in Path(contpop.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(importlib.import_module(f"contpop.{path.stem}"),
                        "__all__", ()))
    assert sorted(imported - used) == []
