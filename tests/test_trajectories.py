"""Whole replicas of the compiled event loop against the pure-Python reference.

A `SimulationState` (the loop of `_events.c`, reading blocks of
`rng.random(n)`) and a `ReferenceState` (the engine it replaced, one
`rng.random()` call per uniform) run the same replica from generators of the
same key.  At every snapshot the positions, the clock, the event, birth,
death and audit counts, the death total, the rates and the largest audit
residual must be equal with `==`.  Blocks of 1, 2, 3 and 7 uniforms make the
compiled loop run out inside the waits, the choices and the birth sampler's
rejection loop, and resume there.  Replicas run back to back on one state,
reset between them, must each equal a reference replica on a fresh state.
"""

import functools
import math
import warnings

import numpy as np
import pytest

from contpop import (Box, CappedRunError, CompetitionKernel, ModelParams,
                     RateField, SimulationState, Window)
from contpop.simulator import _UNIFORM_BLOCK
from conftest import gaussian_unit_kernel, make_params
from reference_engine import ReferenceState, views

AUDIT_PERIOD = 29   # several audits per replica
BLOCKS = (1, 2, 3, 7, _UNIFORM_BLOCK)   # the last one, the default


def _absorbing(sides, width):
    return Window(sides, boundary="absorbing-buffer", buffer_width=width)


def _fields(kinds, domain):
    """One field of each kind named in `kinds`, over `domain`: a constant,
    a narrow bump off the centre (most sampler tries are rejected) and a
    table with a zero cell."""
    d = domain.dimension
    made = {
        "constant": RateField.constant(0.6, d),
        "gaussian-bump": RateField.gaussian_bump(
            2.5, domain.lo + domain.sides / 3, 0.2 * float(domain.sides.min()),
            domain),
        "tabulated": RateField.tabulated(
            np.arange(2**d, dtype=float).reshape((2,) * d) / 2**d + 0.1 * (
                np.arange(2**d).reshape((2,) * d) != 0), domain),
    }
    return [made[kind] for kind in kinds]


# every field kind in every role (birth, mortality, initial density) over
# the six windows, d = 1..3, periodic and absorbing
ROLES = [("constant", "gaussian-bump", "tabulated"),
         ("gaussian-bump", "tabulated", "constant"),
         ("tabulated", "constant", "gaussian-bump")]


def _cases():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # top-hat is flagged
        top_hat = CompetitionKernel("top-hat", 2, 0.5, 0.6)
    windows = [
        ("1d-periodic", Window([12.0]),
         CompetitionKernel("gaussian", 1, 1.0, 0.5, r_cut=2.0)),
        ("1d-absorbing", _absorbing([8.0], 1.5),
         CompetitionKernel("tabulated", 1, r_table=[0.0, 0.5, 1.0, 1.5],
                           a_table=[1.0, 0.8, 0.3, 0.1])),
        ("2d-periodic", Window([5.0, 4.0]),
         CompetitionKernel("exponential", 2, 0.7, 0.3, r_cut=1.5)),
        ("2d-absorbing", _absorbing([4.0, 3.0], 0.6), top_hat),
        ("3d-periodic", Window([3.0, 3.0, 4.0]),
         CompetitionKernel("gaussian", 3, 0.8, 0.4, r_cut=1.2)),
        ("3d-absorbing", _absorbing([2.0, 2.0, 2.0], 0.5),
         CompetitionKernel("gaussian", 3)),   # no interactions: one cell
    ]
    out = []
    for k, (label, window, kernel) in enumerate(windows):
        roles = ROLES[k % 3]
        birth, mortality, density = _fields(roles, window.domain)
        out.append((f"{label}-{'-'.join(r[:3] for r in roles)}",
                    ModelParams(window, kernel, birth, mortality), density))
    return out


CASES = _cases()
SNAPSHOTS = (0.0, 1.0, 5.0, 20.0)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def _record(state) -> tuple:
    """What the two engines must agree on: the clock, the event counts, the
    positions, the rates, the death total and the audit results."""
    if isinstance(state, SimulationState):
        stats = state.stats()
        return (state.t, state.events, state.births, state.deaths,
                state.snapshot().tolist(), views(state).rate.tolist(),
                state.d_tot, stats.replica_audits, stats.max_audit_residual,
                stats.selection_fallbacks)
    return (state.t, state.events, state.births, state.deaths,
            [list(x) for x in state.pos], list(state.rate), state.d_tot,
            [state.audits], state.max_audit_residual,
            state.selection_fallbacks)


def assert_same(state, ref):
    assert _record(state) == _record(ref)


def _replica(engine, params, initial, seed=3, state=None):
    """Start `engine`, or reset `state`, on the stream of `seed`, seed it
    from `initial` and advance it through the snapshots, yielding it at
    each."""
    if state is None:
        state = engine(params, _rng(seed))
    else:
        state.reset(_rng(seed))
    state.seed_initial(initial)
    for t in SNAPSHOTS:
        state.advance(t, replica=seed)
        yield state


@functools.cache
def _reference_run(label, seed=3):
    """The reference's records at each snapshot, and the count of birth
    sampler tries it turned down."""
    params, initial = next((p, i) for name, p, i in CASES if name == label)
    records = []
    for ref in _replica(ReferenceState, params, initial, seed):
        records.append(_record(ref))
    return records, ref.rejections


@pytest.fixture(autouse=True)
def short_audit_period(monkeypatch):
    monkeypatch.setattr("contpop.simulator.AUDIT_PERIOD", AUDIT_PERIOD)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("label,params,initial", CASES,
                         ids=[c[0] for c in CASES])
def test_replica_matches_reference(label, params, initial, block,
                                   monkeypatch):
    monkeypatch.setattr("contpop.simulator._UNIFORM_BLOCK", block)
    expected, rejections = _reference_run(label)
    assert [_record(state) for state in
            _replica(SimulationState, params, initial)] == expected
    t, events, births, deaths, *_, audits, _, _ = expected[-1]
    assert births > 20 and deaths > 20 and rejections > 0
    assert audits == [events // AUDIT_PERIOD] and events > 3 * AUDIT_PERIOD


@pytest.mark.parametrize("block", (1, 3, _UNIFORM_BLOCK))
def test_halting_without_birth_matches_reference(block, monkeypatch):
    """b = 0 from a Poisson start: every particle dies and both clocks halt
    at t = inf after the same events."""
    monkeypatch.setattr("contpop.simulator._UNIFORM_BLOCK", block)
    params = make_params(window=Window([10.0]), kernel=gaussian_unit_kernel(1),
                         b=0.0, m=0.1)
    for seed in range(4):
        engines = [engine(params, _rng(seed))
                   for engine in (SimulationState, ReferenceState)]
        for engine in engines:
            engine.seed_initial(RateField.constant(3.0, 1))
            engine.advance(math.inf)
        state, ref = engines
        assert state.t == ref.t == math.inf and state.n == 0
        assert state.deaths == ref.deaths > 0
        assert_same(state, ref)


@functools.cache
def _drift_params(b):
    return make_params(window=Window([10.0]), kernel=gaussian_unit_kernel(1),
                       b=b, m=0.0)


def _totals(state):
    """Where an engine keeps its death total."""
    return state._s if isinstance(state, SimulationState) else state


def _drift(state):
    """m = 0: add a lone particle at 2.0 whose rate, cell sum and the death
    total sit a few ulps below their true value 0, as float drift leaves
    them when its competitors die (the cases of test_simulator.py)."""
    lone = state.insert([2.0])
    drift = 4 * math.ulp(1.0)
    target = views(state) if isinstance(state, SimulationState) else state
    target.rate[lone] -= drift
    target.cell_rate[target.cell_of[lone]] -= drift
    _totals(state).d_tot -= drift


def _drifted(engine, b, seed):
    state = engine(_drift_params(b), _rng(seed))
    _drift(state)
    return state


def test_drifted_death_total_matches_reference():
    """A death total a few ulps below zero halts the clock when b = 0, and
    makes the events births when b > 0, the same in both engines."""
    for seed in range(5):
        state, ref = (_drifted(e, 0.0, seed)
                      for e in (SimulationState, ReferenceState))
        assert state.d_tot < 0.0
        assert state.step(5.0) == ref.step(5.0) == "halted"
        assert state.step() == ref.step() == "halted"
        assert state.t == math.inf
        assert_same(state, ref)
        state, ref = (_drifted(e, 1.0, seed)
                      for e in (SimulationState, ReferenceState))
        assert state.step() == ref.step() == "birth"
        for t in (0.5, 4.0):
            state.advance(t)
            ref.advance(t)
            assert_same(state, ref)
        assert state.deaths > 0


@pytest.mark.parametrize("block", (1, 7, _UNIFORM_BLOCK))
def test_capped_run_matches_reference(block, monkeypatch):
    """The event budget stops both engines after the same event, with the
    same count and clock in the error."""
    monkeypatch.setattr("contpop.simulator._UNIFORM_BLOCK", block)
    _, params, initial = CASES[2]
    errors = []
    for engine in (SimulationState, ReferenceState):
        state = engine(params, _rng(8))
        state.seed_initial(initial)
        with pytest.raises(CappedRunError) as info:
            state.advance(50.0, max_events=75, replica=4)
        errors.append((info.value.replica, info.value.events, info.value.t))
        if engine is SimulationState:
            compiled = state
    assert errors[0] == errors[1] and errors[0][:2] == (4, 76)
    assert_same(compiled, state)


def test_compiled_fields_match_reference(rng):
    """Each field kind as mortality: a particle without neighbours gets the
    rate m(x) that the reference's scalar field gives, at points inside and
    outside a tabulated field's box."""
    window = Window([4.0, 3.0, 2.0])
    box = Box([0.5, -0.5, 0.0], [3.0, 2.0, 1.5])
    fields = [RateField.constant(0.7, 3),
              RateField.gaussian_bump(1.5, [1.0, 0.5, 1.2], 0.8, box),
              RateField.tabulated(rng.random((3, 5, 2)), box)]
    points = rng.uniform(window.domain.lo, window.domain.hi, size=(300, 3))
    for field in fields:
        params = ModelParams(window, CompetitionKernel("gaussian", 3),
                             RateField.constant(1.0, 3), field)
        state = SimulationState(params, _rng(0))
        ref = ReferenceState(params)
        for x in points:
            state.insert(x)
            ref.insert(x)
        assert views(state).rate.tolist() == ref.rate, field.kind


def test_event_times_match_reference():
    """`step`, one event of the compiled loop, against the reference's:
    the kind of each event and the clock after it, which no snapshot shows
    (a snapshot's clock is its time)."""
    _, params, initial = CASES[4]
    state, ref = (engine(params, _rng(6))
                  for engine in (SimulationState, ReferenceState))
    for engine in (state, ref):
        engine.seed_initial(initial)
    for _ in range(300):
        assert (state.step(), state.t) == (ref.step(), ref.t)
    assert_same(state, ref)


@pytest.mark.parametrize("label,params,initial", CASES,
                         ids=[c[0] for c in CASES])
def test_replicas_on_one_reset_state_match_reference(label, params, initial):
    """Three replicas back to back on one state, reset between them, each
    past several audits: each equals the reference's replica of its seed
    on a fresh state, so nothing of one replica reaches the next."""
    state = SimulationState(params, _rng(0))
    for seed in (4, 3, 5):
        records = [_record(s) for s in _replica(
            SimulationState, params, initial, seed, state)]
        assert records == _reference_run(label, seed)[0]
        t, events, *_, audits, _, _ = records[-1]
        assert audits == [events // AUDIT_PERIOD] != [0]


def _overshoot(state):
    """A death total pushed 1.0 above the sum of the rates: until the next
    audit, a death whose target lands in the gap falls past every cell sum
    and takes the fallback (the case of test_events.py)."""
    _totals(state).d_tot += 1.0


def test_drifted_replicas_on_one_reset_state_match_reference():
    """Replicas of the drift model back to back on one reset state: a
    Poisson start, the drifted lone particle, a Poisson start whose death
    total overshoots and whose deaths take a fallback, and a Poisson start
    after it.  Each equals the reference's replica of its seed on a fresh
    state, fallback and audit counts included."""
    params, density = _drift_params(1.0), RateField.constant(1.0, 1)
    starts = [(0, density, None), (1, np.empty((0, 1)), _drift),
              (2, density, _overshoot), (3, density, None)]
    state = SimulationState(params, _rng(0))
    fallbacks = []
    for seed, initial, change in starts:
        state.reset(_rng(seed))
        ref = ReferenceState(params, _rng(seed))
        for engine in (state, ref):
            engine.seed_initial(initial)
            if change is not None:
                change(engine)
        for t in SNAPSHOTS:
            state.advance(t)
            ref.advance(t)
            assert_same(state, ref)
        assert ref.audits > 0
        fallbacks.append(ref.selection_fallbacks)
    assert fallbacks[2] > 0 and fallbacks[3] == 0
