"""Shared fixtures and the acceptance-criteria report hook.

Acceptance tests register one line apiece through `record_criterion` before
asserting, so the terminal summary always shows a pass/fail line per
criterion, including for failed tests.
"""

import numpy as np
import pytest

from contpop import (Box, CompetitionKernel, ModelParams, RateField,
                     SnapshotEnsemble, Window)

ACCEPTANCE_RESULTS = []


def record_criterion(number: int, label: str, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((int(number), label, bool(passed), detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, label, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            "criterion %2d %s  %s: %s" % (number, status, label, detail))


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture
def torus10():
    """1-d periodic window of length 10, the workhorse habitat."""
    return Window([10.0], boundary="periodic")


def make_params(window=None, kernel=None, b=1.0, m=1.0, theta0=0.0):
    """Constant-rate ModelParams with d taken from the window."""
    window = window if window is not None else Window([10.0])
    d = window.dimension
    kernel = kernel if kernel is not None else CompetitionKernel("gaussian", d)
    birth = b if isinstance(b, RateField) else RateField.constant(b, d)
    death = m if isinstance(m, RateField) else RateField.constant(m, d)
    return ModelParams(window, kernel, birth, death, theta0=theta0)


def nested_ensemble(window, times, configs):
    """The particle table of configs[r][k], the (n, d) positions of replica
    r at snapshot k."""
    d = window.dimension
    configs = [[np.asarray(pos, dtype=float).reshape(-1, d) for pos in reps]
               for reps in configs]
    points = [pos for reps in configs for pos in reps] or [np.empty((0, d))]
    return SnapshotEnsemble(window, times, np.concatenate(points),
                            [[len(pos) for pos in reps] for reps in configs])


def brute_death_rate(i, pos, params):
    """Death rate of particle i of the (n, d) array pos, straight off the
    generator: m(x) plus the truncated kernel at the minimum-image distance
    to every other row, coincident ones included."""
    x = pos[i]
    rate = float(params.mortality(x))
    for j, y in enumerate(pos):
        if j != i:
            r = np.linalg.norm(params.window.displacement(x, y))
            rate += float(params.kernel.radial(r))
    return rate


def gaussian_unit_kernel(dimension: int = 1) -> CompetitionKernel:
    """Gaussian kernel with a(0) = 1 and integral 1 (scale fixed by d)."""
    scale = (2.0 * np.pi) ** (-0.5)
    return CompetitionKernel("gaussian", dimension, 1.0, scale)


@pytest.fixture
def unit_gaussian():
    return gaussian_unit_kernel(1)
