"""The compiled event step against the pure-Python reference engine.

Random sequences of inserts, removes, deaths and audits run through a
`SimulationState` (its `_events.c` step) and a `ReferenceState` side by side;
after every operation the rates, cell sums, cell lists, `d_tot`, the chosen
rows, the fallback counts and the audit residuals must be equal with `==`.
"""

import math
import subprocess
import warnings

import numpy as np
import pytest

from contpop import CompetitionKernel, ModelParams, RateField, Window
from contpop.simulator import SimulationState, _build, engine
from conftest import make_params
from reference_engine import ReferenceState, neighbors, views


def _absorbing(sides, width):
    return Window(sides, boundary="absorbing-buffer", buffer_width=width)


def _tabulated(d, r_cut=None):
    return CompetitionKernel("tabulated", d, r_cut=r_cut,
                             r_table=[0.0, 0.5, 1.0, 1.5],
                             a_table=[1.0, 0.8, 0.3, 0.1])


def _cases():
    """(label, params): d = 1..3, periodic and absorbing windows, every
    kernel kind, grids of one to two cells per axis (where the stencil
    steps -1 and +1 reach the same cell) and wider ones, and a mortality
    field that varies in space."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # top-hat is flagged
        top_hat = CompetitionKernel("top-hat", 2, 0.5, 1.0)
    cases = [
        ("1d-periodic-gaussian-2", Window([10.0]),
         CompetitionKernel("gaussian", 1, 1.0, 0.7, r_cut=5.0)),
        ("1d-periodic-exponential-10", Window([20.0]),
         CompetitionKernel("exponential", 1, 0.7, 0.5, r_cut=2.0)),
        ("1d-absorbing-tabulated", _absorbing([3.0], 1.5), _tabulated(1)),
        ("2d-periodic-exponential-2x3", Window([4.0, 6.0]),
         CompetitionKernel("exponential", 2, 0.7, 0.3, r_cut=2.0)),
        ("2d-absorbing-top-hat-2x5", _absorbing([0.5, 3.0], 1.0), top_hat),
        ("2d-free-1x1", Window([3.0, 3.0]), CompetitionKernel("gaussian", 2)),
        ("3d-periodic-gaussian-2x2x3", Window([4.0, 4.0, 6.0]),
         CompetitionKernel("gaussian", 3, 1.0, 0.5, r_cut=2.0)),
        ("3d-absorbing-tabulated-3x3x3", _absorbing([1.0, 1.0, 1.0], 1.0),
         _tabulated(3, r_cut=1.0)),
    ]
    out = []
    for label, window, kernel in cases:
        d = window.dimension
        domain = window.domain
        mortality = RateField.gaussian_bump(0.8, domain.lo + domain.sides / 3,
                                            1.5, domain)
        out.append((label, ModelParams(window, kernel,
                                       RateField.constant(1.0, d), mortality)))
    return out


CASES = _cases()


def assert_same(state, ref):
    view = views(state)
    assert state.n == len(ref.rate)
    assert view.pos.tolist() == ref.pos
    assert view.rate.tolist() == ref.rate
    assert view.cell_of.tolist() == ref.cell_of
    assert view.slot_of.tolist() == ref.slot_of
    assert view.cell_rate.tolist() == ref.cell_rate
    assert [c.tolist() for c in view.cells] == ref.cells
    assert state.d_tot == ref.d_tot
    stats = state.stats()
    assert stats.selection_fallbacks == ref.selection_fallbacks
    assert stats.max_audit_residual == ref.max_audit_residual


def _points(params, state, gen, count):
    """Positions to insert or query: uniform in the domain, on cell
    corners, or on a present particle."""
    domain = params.window.domain
    d = params.dimension
    out = []
    for _ in range(count):
        kind = gen.random()
        if kind < 0.15 and state.n:
            out.append(views(state).pos[gen.integers(state.n)].tolist())
        elif kind < 0.3:
            corner = gen.integers(0, state.n_cells, size=d)
            out.append((domain.lo + corner * np.array(state.cell_sides))
                       .tolist())
        else:
            out.append(gen.uniform(domain.lo, domain.hi).tolist())
    return out


def death(state, u):
    """One death for the uniform u through the compiled step; its row."""
    return state._lib.cp_death(state._c, u)


@pytest.mark.parametrize("label,params", CASES, ids=[c[0] for c in CASES])
def test_random_event_sequences_match_reference(label, params):
    gen = np.random.default_rng(sum(map(ord, label)))
    state = SimulationState(params, np.random.default_rng(0))
    ref = ReferenceState(params)
    assert state.n_cells == ref.n_cells
    deaths = audits = 0
    for _ in range(400):
        op = gen.random()
        if op < 0.45 or not state.n:
            x = _points(params, state, gen, 1)[0]
            assert state.insert(x) == ref.insert(x)
        elif op < 0.6:
            i = int(gen.integers(state.n))
            state.remove(i)
            ref.remove(i)
        elif op < 0.95:
            u = gen.random()
            j = ref.select_death(u)
            ref.remove(j)
            assert death(state, u) == j
            deaths += 1
        else:
            assert state.audit() == ref.audit()
            audits += 1
        assert_same(state, ref)
        for x in _points(params, state, gen, 2):
            assert neighbors(state, x) == ref.neighbors(x, ref.cell_index(x))
    assert deaths > 50 and audits > 5
    assert state.audit() == ref.audit()
    assert_same(state, ref)


@pytest.mark.parametrize("label,params", CASES, ids=[c[0] for c in CASES])
def test_fallbacks_match_reference(label, params):
    """Drift pushed into `d_tot` and into one cell sum sends the death
    search past every sum: both engines take the same fallback row and
    count it."""
    gen = np.random.default_rng(5)
    state = SimulationState(params, np.random.default_rng(0))
    ref = ReferenceState(params)
    for x in _points(params, state, gen, 30):
        state.insert(x)
        ref.insert(x)
    # past every cell sum: the last occupied cell's last member
    for totals in (state._s, ref):
        totals.d_tot += 1.0
    j = ref.select_death(1.0 - 2.0**-53)
    ref.remove(j)
    assert death(state, 1.0 - 2.0**-53) == j
    fallbacks = ref.selection_fallbacks
    assert fallbacks >= 1
    assert_same(state, ref)
    # past one cell's members: that cell's last member
    c = ref.cell_of[0]
    before = math.fsum(ref.cell_rate[:c])
    for cell_rate in (views(state).cell_rate, ref.cell_rate):
        cell_rate[c] += 1.0
    u = (before + ref.cell_rate[c] - 0.5) / ref.d_tot
    j = ref.select_death(u)
    ref.remove(j)
    assert death(state, u) == j
    assert ref.selection_fallbacks == fallbacks + 1
    assert_same(state, ref)


def test_kernel_values_match_reference():
    """The compiled kernel against the reference's scalar profile at the
    table knots, the cut-off and between, for every kind."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        kernels = [CompetitionKernel("gaussian", 1, 1.3, 0.4, r_cut=1.5),
                   CompetitionKernel("exponential", 1, 0.7, 0.3, r_cut=1.5),
                   CompetitionKernel("top-hat", 1, 0.5, 1.0),
                   _tabulated(1)]
    radii = [*np.linspace(0.0, 1.5, 61).tolist(), 0.5, 1.0, 1.4999999]
    for kernel in kernels:
        params = make_params(window=Window([10.0]), kernel=kernel)
        state = SimulationState(params, np.random.default_rng(0))
        ref = ReferenceState(params)
        state.insert([5.0])
        ref.insert([5.0])
        for r in radii:
            x = [5.0 + r]
            assert neighbors(state, x) == ref.neighbors(x, ref.cell_index(x))


def test_remove_refuses_a_missing_row():
    state = SimulationState(make_params(), np.random.default_rng(0))
    state.insert([1.0])
    for row in (-1, 1):
        with pytest.raises(IndexError, match="no particle"):
            state.remove(row)
    assert state.n == 1
    assert death(SimulationState(make_params(), np.random.default_rng(0)),
                 0.5) == -1


def test_library_build_is_cached(tmp_path):
    path = _build(tmp_path)
    mtime = path.stat().st_mtime_ns
    assert _build(tmp_path) == path and path.stat().st_mtime_ns == mtime
    assert [p.name for p in tmp_path.iterdir()] == [path.name]   # no temp


def test_missing_compiler_is_one_line(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.raises(OSError, match="needs a C compiler") as info:
        _build(tmp_path / "cache")
    assert "\n" not in str(info.value)


def test_engine_names_source_and_compiler():
    info = engine()
    assert len(info["source_sha256"]) == 64
    version = subprocess.run(["cc", "-dumpversion"], capture_output=True,
                             text=True).stdout.strip()
    assert version in info["compiler"]
