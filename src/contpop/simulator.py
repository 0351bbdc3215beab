"""Event-driven simulation of the spatial birth-death process.

Each replica runs the direct stochastic simulation algorithm: waiting times
are exponential in the total event rate B + D, where B is the integral of
the birth intensity over the domain and D the sum of all death rates; the
event is a birth with probability B / (B + D) (exact ties resolve to birth,
the first kind in the fixed ordering).  Birth positions, and the points of a
Poisson start, are drawn by one rejection sampler against the field's sup.
Death rates are maintained incrementally under a cell list with cell side
>= r_cut, so only neighboring cells are touched per event; per-cell rate
sums drive a two-level search for the dying particle.  Rates are recomputed
from scratch every AUDIT_PERIOD events to keep float drift in check, and the
worst residual seen is reported.  Drift a few ulps below zero is read as
zero where it is used; the one repair it needs, a death-selection fallback,
is counted.

The whole event loop runs in C, in `_events.c`, over flat buffers: the
clock, the choice of event, the birth sampler, the three rate-field kinds,
the stencil neighbour scan, the rate and cell-sum updates of an insert or a
remove, the death selection and the audit.  `SimulationState.advance` and
`step` are one entry point, `cp_advance`.  The loop draws each uniform from
the replica's generator through numpy's `BitGenerator.ctypes.next_double`,
which returns the double that one `rng.random()` call would, so the draws
and the results are those of one call per uniform.  The C code makes the
float operations of the pure-Python engine it replaced in the same order
(that engine is kept in `tests/` as the reference), so results are the same
to the last bit.  The library is built with `cc` on first use and cached in
`__pycache__` (see `_build`).

Replica streams come from counter-based Philox generators keyed by
(base_seed, replica_index), so any subset of replicas can run concurrently,
in any order, with identical results.  A replica starts from
`SimulationState.seed_initial`: fixed points, or a Poisson state.
`run_replicas` cuts the replicas into contiguous ranges, runs the first in
this process and the others in forked workers, each process on one state
reset between its replicas, and merges the results in replica order.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import pickle
import signal
import time
import weakref
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .estimators import SnapshotEnsemble
from .model import CompetitionKernel, ModelParams, RateField

__all__ = [
    "AUDIT_PERIOD",
    "ReplicaPlan",
    "RunStats",
    "CappedRunError",
    "SimulationState",
    "engine",
    "run_replicas",
]

AUDIT_PERIOD = 1 << 16
# what cp_advance and cp_place return (the enum in _events.c)
_DONE, _LIMIT, _NO_MEMORY, _EMPTY = 0, 1, -1, -2
_BIRTH, _MORTALITY, _DENSITY = 0, 1, 2   # the field slots of a state


class CappedRunError(RuntimeError):
    """A replica exceeded the event budget before reaching its horizon."""

    def __init__(self, replica: int, events: int, t: float):
        super().__init__(f"replica {replica} exceeded the event budget "
                         f"({events} events by t = {t:g})")
        self.replica = replica
        self.events = events
        self.t = t

    def __reduce__(self):   # rebuilt from its fields when sent between processes
        return type(self), (self.replica, self.events, self.t)


@dataclass
class ReplicaPlan:
    """What to run: replicas, seed, snapshot times, and the initial state
    that `SimulationState.seed_initial` takes (by default, no points)."""

    replicas: int
    base_seed: int
    snapshots: tuple
    initial: RateField | np.ndarray = dataclass_field(
        default_factory=lambda: np.empty((0, 0)))
    max_events: int = 10**8

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        if not 0 <= self.base_seed < 2**64:
            raise ValueError("base_seed must fit in 64 bits")
        times = tuple(float(t) for t in self.snapshots)
        if not times or not all(0 <= t < math.inf for t in times) or \
                any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("snapshots must be finite, nonnegative, ascending")
        self.snapshots = times
        if self.max_events < 1:
            raise ValueError("max_events must be positive")


@dataclass
class RunStats:
    """Aggregate counters across replicas.

    `replica_events`, `replica_audits` and `replica_residuals` list each
    replica's event count, audit count and largest audit residual, in
    replica order.  `selection_fallbacks` counts the float-drift repairs of
    the death selection (see `SimulationState.step`).
    `initial_s` and `event_loop_s` sum over the replicas the wall time of
    the initial sampling and of the event loop, each timed in the process
    that ran the replica (a process builds its state in its first replica's
    initial sampling and resets it in the others'); they are diagnostics,
    left out of comparisons.
    """

    births: int = 0
    deaths: int = 0
    events: int = 0
    max_audit_residual: float = 0.0
    selection_fallbacks: int = 0
    replica_events: list = dataclass_field(default_factory=list)
    replica_audits: list = dataclass_field(default_factory=list)
    replica_residuals: list = dataclass_field(default_factory=list)
    initial_s: float = dataclass_field(default=0.0, compare=False)
    event_loop_s: float = dataclass_field(default=0.0, compare=False)

    def merge(self, other: "RunStats") -> None:
        self.births += other.births
        self.deaths += other.deaths
        self.events += other.events
        self.selection_fallbacks += other.selection_fallbacks
        self.replica_events.extend(other.replica_events)
        self.replica_audits.extend(other.replica_audits)
        self.replica_residuals.extend(other.replica_residuals)
        self.initial_s += other.initial_s
        self.event_loop_s += other.event_loop_s
        self.max_audit_residual = max(self.max_audit_residual,
                                      other.max_audit_residual)


def _replica_rng(base_seed: int, replica: int) -> np.random.Generator:
    key = np.array([base_seed, replica], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _State(ctypes.Structure):
    """The leading fields of `State` in _events.c, which Python reads."""

    _fields_ = [("n", ctypes.c_int64), ("d_tot", ctypes.c_double),
                ("t", ctypes.c_double), ("events", ctypes.c_int64),
                ("births", ctypes.c_int64), ("deaths", ctypes.c_int64),
                ("audits", ctypes.c_int64),
                ("max_audit_residual", ctypes.c_double),
                ("selection_fallbacks", ctypes.c_int64),
                ("pos", ctypes.POINTER(ctypes.c_double)),
                ("rate", ctypes.POINTER(ctypes.c_double)),
                ("cell_of", ctypes.POINTER(ctypes.c_int64)),
                ("slot_of", ctypes.POINTER(ctypes.c_int64)),
                ("cell_rate", ctypes.POINTER(ctypes.c_double)),
                ("members", ctypes.POINTER(ctypes.POINTER(ctypes.c_int64))),
                ("count", ctypes.POINTER(ctypes.c_int64))]


_SOURCE = Path(__file__).with_name("_events.c")
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _build(cache: Path) -> Path:
    """The shared library of `_events.c`, compiled by `cc` into `cache` on
    first use and kept there under a name keyed by the source and the
    flags.  It is written under a temporary name and renamed into place, so
    processes that build it at the same time each find a whole file."""
    key = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_CFLAGS).encode())
    path = cache / f"_events-{key.hexdigest()[:16]}.so"
    if not path.exists():
        import subprocess   # here, so that loading a built library skips it
        cache.mkdir(exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            subprocess.run(["cc", *_CFLAGS, "-o", str(tmp), str(_SOURCE),
                            "-lm"], check=True, capture_output=True, text=True)
        except FileNotFoundError:
            raise OSError(f"building {_SOURCE.name} needs a C compiler, and "
                          f"`cc` is not on PATH") from None
        except subprocess.CalledProcessError as exc:
            raise OSError(f"cc could not build {_SOURCE.name}: " + (
                exc.stderr.strip().splitlines() or ["no output"])[0]) from None
        os.replace(tmp, path)
    return path


@functools.cache
def _library() -> ctypes.CDLL:
    lib = ctypes.CDLL(str(_build(_SOURCE.parent / "__pycache__")))
    # a state travels as its address, a plain c_void_p: `cp_new` returns it,
    # `_State.from_address` mirrors it and every entry point takes it back
    state = address = ctypes.c_void_p
    c_int, c_int64, c_double = ctypes.c_int, ctypes.c_int64, ctypes.c_double
    floats = np.ctypeslib.ndpointer(np.float64, flags="C")
    ints = np.ctypeslib.ndpointer(np.int64, flags="C")
    for name, restype, argtypes in (
            ("cp_new", state, [c_int, c_int, floats, floats, floats, floats,
                               ints, c_double, c_int, c_double, c_double,
                               c_int64, floats, floats, c_double]),
            ("cp_free", None, [state]),
            ("cp_reset", None, [state, address, address]),
            ("cp_field", c_int, [state, c_int, c_int, c_double, c_double,
                                 floats, floats, ints, floats, c_double]),
            ("cp_insert", c_int64, [state, floats]),
            ("cp_place", c_int, [state, c_int64]),
            ("cp_advance", c_int, [state, c_double, c_int64, c_int64]),
            ("cp_remove", c_int, [state, c_int64]),
            ("cp_death", c_int64, [state, c_double]),
            ("cp_audit", c_double, [state]),
            ("cp_neighbors", c_int64, [state, floats, c_int64, ints, floats]),
            ("cp_pairs", None, [floats, c_int, c_int, floats, ints, ints,
                                c_int64, c_int64, floats, c_int64, c_double,
                                ints]),
            ("cp_compiler", ctypes.c_char_p, [])):
        getattr(lib, name).restype = restype
        getattr(lib, name).argtypes = argtypes
    return lib


def engine() -> dict:
    """Which build runs the event loop: the sha256 of `_events.c` and the
    compiler that built it.  Builds the library if it is not cached."""
    return {"source_sha256": hashlib.sha256(_SOURCE.read_bytes()).hexdigest(),
            "compiler": _library().cp_compiler().decode()}


def _mirrored(name: str, doc: str) -> property:
    """A read-only attribute of the state, read from its mirror `_s`."""
    return property(lambda self: getattr(self._s, name), doc=doc)


class SimulationState:
    """One replica's mutable state: particles, rates, cell lists, clocks.

    Particles, rates, cell lists, the clock and the event counters live in
    the compiled state (`_events.c`), which `_s` mirrors; Python keeps the
    generator `rng`, set by `reset`, which also empties the state for the
    next replica of the same model.  The compiled loop draws each uniform
    from `rng` when it needs it, so after any call `rng` stands where one
    `rng.random()` call per uniform leaves it.  During a call the loop
    draws without numpy's lock on the generator, so no other thread may
    draw from `rng` at the same time.
    """

    def __init__(self, params: ModelParams, rng: np.random.Generator):
        self.params = params
        self._lib = lib = _library()
        window = params.window
        domain = window.domain
        kernel = params.kernel
        d = window.dimension
        self.dimension = d
        self._domain = domain
        sides = domain.sides.tolist()
        if kernel.r_cut > 0.0:
            counts = [max(math.floor(s / kernel.r_cut), 1) for s in sides]
        else:
            counts = [1] * d   # no interactions: one cell
        self.n_cells = counts
        self.cell_sides = [s / n for s, n in zip(sides, counts)]
        self.total_cells = math.prod(counts)
        table = (kernel._r_table, kernel._a_table) \
            if kernel.kind == "tabulated" else (np.empty(0), np.empty(0))
        self._c = lib.cp_new(
            d, window.boundary == "periodic", window.sides, domain.lo,
            domain.sides, np.array(self.cell_sides),
            np.array(counts, dtype=np.int64), kernel.r_cut,
            CompetitionKernel.KINDS.index(kernel.kind), kernel.amplitude,
            kernel.scale, len(table[0]), *table, params.birth_total)
        if not self._c:
            raise MemoryError("no memory for the simulation state")
        self._s = _State.from_address(self._c)
        weakref.finalize(self, lib.cp_free, self._c)
        self._set_field(_BIRTH, params.birth)
        self._set_field(_MORTALITY, params.mortality)
        # the start density that `seed_initial` last set, and its mean count
        self._density, self._density_mean = None, 0.0
        self.reset(rng)

    def reset(self, rng: np.random.Generator) -> None:
        """Empty the state for a new replica that draws from `rng`: no
        particles, the clock and every counter at 0.  The geometry, the
        kernel, the fields and the allocated buffers are kept."""
        bits = rng.bit_generator.ctypes
        self._lib.cp_reset(self._c, bits.state_address,
                           ctypes.cast(bits.next_double, ctypes.c_void_p))
        self.rng = rng

    def _set_field(self, slot: int, field: RateField) -> None:
        d = self.dimension
        origin = side = np.zeros(d)
        shape, values = np.ones(d, dtype=np.int64), np.zeros(1)
        scale = width2 = 0.0
        if field.kind == "constant":
            scale = field.value
        elif field.kind == "gaussian-bump":
            scale, origin, width2 = field.amplitude, field.center, \
                field.width**2
        else:
            origin, side = field.box.lo, field.box.sides
            shape = np.array(field.values.shape, dtype=np.int64)
            values = np.ascontiguousarray(field.values.ravel())
        if self._lib.cp_field(self._c, slot, RateField.KINDS.index(field.kind),
                              scale, width2, origin, side, shape, values,
                              field.sup):
            raise MemoryError("no memory for a rate field")

    def _run(self, entry, *args) -> int:
        """Call a compiled loop; returns its DONE or LIMIT."""
        code = entry(self._c, *args)
        if code == _NO_MEMORY:
            raise MemoryError("no memory for another particle")
        if code == _EMPTY:
            raise RuntimeError("a death was drawn in an empty window")
        return code

    n = _mirrored("n", "The number of particles.")
    d_tot = _mirrored("d_tot", "The death total D, the sum of the rates.")
    t = _mirrored("t", "The clock.")
    events = _mirrored("events", "Events run so far.")
    births = _mirrored("births", "Births among the events.")
    deaths = _mirrored("deaths", "Deaths among the events.")

    # -- particle bookkeeping --------------------------------------------------

    def insert(self, x) -> int:
        """Add a particle at position x, a sequence of d finite numbers
        inside the simulation domain; returns its row."""
        x = [float(v) for v in x]
        if len(x) != self.dimension or not all(map(math.isfinite, x)):
            raise ValueError(f"a position is {self.dimension} finite "
                             f"numbers, not {x}")
        if not self._domain.contains_points(x).all():
            raise ValueError(f"position {x} lies outside the simulation "
                             f"domain {self._domain}")
        i = self._lib.cp_insert(self._c, np.array(x))
        if i < 0:
            raise MemoryError("no memory for another particle")
        return i

    def remove(self, i: int) -> None:
        """Delete the particle in row i; the last row moves into row i.

        Float drift can leave a rate, a cell sum or `d_tot` a few ulps below
        zero; the death selection and `step` read such a value as zero.
        """
        if self._lib.cp_remove(self._c, i):
            raise IndexError(f"no particle in row {i}")

    # -- events ----------------------------------------------------------------

    def step(self, until: float = math.inf) -> str:
        """Run the next event, or set the clock to `until` and return
        'halted' when no event can happen or the event falls after `until`
        (the clock is memoryless, so the discarded wait is redrawn exactly).
        A death total a few ulps below zero halts the clock when b = 0 and
        makes the event a birth when b > 0; with b = 0 an empty window
        halts it whatever drift leaves in the death total.

        A death takes one uniform u and removes the particle that a
        two-level search for u * D finds over the cell sums, then the member
        rates; when float drift carries the target past every sum, the last
        occupied cell or the cell's last member is taken and counted in
        `selection_fallbacks`.  This is one event of the loop `advance`
        runs (`cp_advance` in `_events.c`)."""
        births = self.births
        if self._run(self._lib.cp_advance, until, self.events,
                     AUDIT_PERIOD) == _DONE:
            return "halted"
        return "birth" if self.births > births else "death"

    def advance(self, until: float, max_events: int = 10**8,
                replica: int = 0) -> None:
        """Run events up to time `until`; more than `max_events` events in
        all raise CappedRunError."""
        if self._run(self._lib.cp_advance, until, max_events,
                     AUDIT_PERIOD) == _LIMIT:
            raise CappedRunError(replica, self.events, self.t)

    # -- integrity ---------------------------------------------------------------

    def audit(self) -> float:
        """Recompute all rates from scratch; record and return the residual."""
        return self._lib.cp_audit(self._c)

    def seed_initial(self, initial) -> None:
        """Insert an (n, d) array of points, or a Poisson state of a density
        RateField, its count drawn from `rng` and its points like births."""
        if isinstance(initial, RateField):
            if initial is not self._density:
                self._set_field(_DENSITY, initial)
                self._density = initial
                self._density_mean = initial.integral_over(self._domain)
            self._run(self._lib.cp_place,
                      self.rng.poisson(self._density_mean))
            return
        for x in initial:
            self.insert(x)

    def snapshot(self) -> np.ndarray:
        n, d = self._s.n, self.dimension
        return np.ctypeslib.as_array(self._s.pos, (n * d,)).reshape(
            n, d).copy()

    def stats(self) -> RunStats:
        s = self._s
        return RunStats(births=s.births, deaths=s.deaths, events=s.events,
                        max_audit_residual=s.max_audit_residual,
                        selection_fallbacks=s.selection_fallbacks,
                        replica_events=[s.events], replica_audits=[s.audits],
                        replica_residuals=[s.max_audit_residual])


def _run_range(params: ModelParams, plan: ReplicaPlan,
               replicas: range) -> tuple[np.ndarray, list, RunStats]:
    """Run `replicas` in order on one state, reset between them; returns
    their snapshots as one particle table, its counts per replica and
    snapshot, and their merged stats.  The first failing replica raises."""
    state, configs, counts, stats = None, [], [], RunStats()
    for replica in replicas:
        t0 = time.perf_counter()
        rng = _replica_rng(plan.base_seed, replica)
        if state is None:
            state = SimulationState(params, rng)
        else:
            state.reset(rng)
        state.seed_initial(plan.initial)
        t1 = time.perf_counter()
        shots = []
        for t_snap in plan.snapshots:
            state.advance(t_snap, max_events=plan.max_events, replica=replica)
            shots.append(state.snapshot())
        replica_stats = state.stats()
        replica_stats.initial_s = t1 - t0
        replica_stats.event_loop_s = time.perf_counter() - t1
        stats.merge(replica_stats)
        configs += shots
        counts.append([len(pos) for pos in shots])
    return np.concatenate(configs), counts, stats


def _fork(params: ModelParams, plan: ReplicaPlan, replicas: range):
    """Fork a worker that runs `replicas` and sends what `_run_range`
    returns, or what it raised, pickled down a pipe; returns the worker's
    pid and the pipe's read end."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:   # the worker: never returns into the caller's frames
        status = 1
        try:
            os.close(read)
            try:
                result = _run_range(params, plan, replicas)
            except BaseException as exc:
                result = exc
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def run_replicas(params: ModelParams, plan: ReplicaPlan,
                 threads: int = 1) -> tuple[SnapshotEnsemble, RunStats]:
    """Run all replicas and collect their snapshots, in replica order, into
    one particle table.

    With W = min(threads, replicas, os.cpu_count()), the R replicas are
    cut into the ranges [R k / W, R (k + 1) / W).  This process runs range
    0 and forks a worker for each other range; the workers' pipes are read
    in range order, so a worker's exception, raised here, is that of the
    lowest failing replica, as with W = 1.  On any exception here the
    workers still running are killed and reaped first.  Workers are forked,
    so a caller that runs other threads should pass 1.  Results are a
    function of (params, plan) only: replica streams are independent by
    construction and the merge order is fixed, so W never changes them.
    """
    if threads < 1:
        raise ValueError("threads must be positive")
    workers = min(threads, plan.replicas, os.cpu_count() or 1)
    cuts = [plan.replicas * k // workers for k in range(workers + 1)]
    ranges = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    _library()   # loaded before any fork: the workers share one build
    running = []   # (replicas, pid, pipe) of the workers not yet reaped
    try:
        for replicas in ranges[1:]:
            running.append((replicas, *_fork(params, plan, replicas)))
        parts = [_run_range(params, plan, ranges[0])]
        while running:
            replicas, pid, pipe = running[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[0]
            if status != 0:
                raise RuntimeError(
                    f"the worker running replicas {replicas.start} to "
                    f"{replicas.stop - 1} ended with status {status} before "
                    f"sending its results")
            result = pickle.loads(data)
            if isinstance(result, BaseException):
                raise result
            parts.append(result)
    finally:
        for _, pid, pipe in running:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            pipe.close()
    stats = RunStats()
    for _, _, part_stats in parts:
        stats.merge(part_stats)
    return SnapshotEnsemble(
        params.window, plan.snapshots,
        np.concatenate([points for points, _, _ in parts]),
        [counts for _, part_counts, _ in parts for counts in part_counts]
    ), stats
