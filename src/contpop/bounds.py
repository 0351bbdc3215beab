"""Analytical bounds: weighted norms, existence times, and moment envelopes.

Correlation functions are measured in the scale of exponentially weighted
norms ||k||_theta = sup_n sup |k^(n)| e^(-theta n).  The generator maps one
scale into a larger one with a norm bound that blows up as the scales merge;
optimizing the blow-up gives a guaranteed existence time per step and a
continuation schedule whose step lengths shrink but whose total diverges, so
the evolution is global in time.

The second half of the module bounds cell counts: a closed triangular system
for factorial moments of the count in a cell where the kernel has a positive
infimum and the cell rates it runs on, and a self-regulation level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Box, ModelParams, cell_infimum

__all__ = [
    "theta_norm",
    "OperatorNormBound",
    "operator_norm_bound",
    "existence_time",
    "unit_existence_time",
    "surgailis_theta_growth",
    "Schedule",
    "ScheduleHorizonError",
    "continuation_schedule",
    "MomentBoundResult",
    "cell_rates",
    "moment_bound_system",
    "kappa_from_factorial_moments",
    "EffectiveMortalityUnavailable",
    "StationaryDensityBound",
    "stationary_density_bound",
]


def theta_norm(values_by_order: dict, theta: float) -> float:
    """sup over orders n of |k^(n)| e^(-theta n), over the provided family.

    `values_by_order` maps n to sup |k^(n)|.  The order-0 value k(empty) = 1
    is not implied; include it if the family should contain it.
    """
    best = 0.0
    for n, value in values_by_order.items():
        best = max(best, abs(float(value)) * math.exp(-theta * int(n)))
    return best


@dataclass
class OperatorNormBound:
    """Norm bound of the hierarchy generator between two weight scales."""

    theta: float
    theta_prime: float
    kernel_mortality_part: float   # kernel hop plus mortality multiplication
    birth_kernel_part: float       # birth lowering plus kernel mass growth
    total: float


def operator_norm_bound(b_norm: float, m_norm: float, a_sup: float,
                        a_integral: float, theta_prime: float,
                        theta: float) -> OperatorNormBound:
    """Bound on the generator's norm from scale theta into theta_prime.

    Requires theta_prime > theta; the bound is
    4 sup a / (e^2 (dth)^2) + (|b| e^-theta + |m| + <a> e^theta') / (e dth).
    """
    dth = theta_prime - theta
    if dth <= 0:
        raise ValueError("theta_prime must exceed theta")
    hop = 4.0 * a_sup / (math.e**2 * dth**2)
    part_a = hop + m_norm / (math.e * dth)
    part_b = (b_norm * math.exp(-theta) + a_integral * math.exp(theta_prime)) \
        / (math.e * dth)
    return OperatorNormBound(theta=theta, theta_prime=theta_prime,
                             kernel_mortality_part=part_a,
                             birth_kernel_part=part_b,
                             total=part_a + part_b)


def existence_time(b_norm: float, a_integral: float, theta_prime: float,
                   theta: float) -> float:
    """Guaranteed solution lifetime when moving from scale theta to theta_prime."""
    dth = theta_prime - theta
    if dth <= 0:
        raise ValueError("theta_prime must exceed theta")
    rate = b_norm * math.exp(-theta) + a_integral * math.exp(theta_prime)
    return dth / rate if rate > 0 else math.inf


def unit_existence_time(theta: float, b_norm: float, a_integral: float) -> float:
    """Existence time for a unit scale step: 1/(|b| e^-theta + e <a> e^theta)."""
    rate = b_norm * math.exp(-theta) + math.e * a_integral * math.exp(theta)
    return 1.0 / rate if rate > 0 else math.inf


def surgailis_theta_growth(theta0: float, b_norm: float, t: float) -> float:
    """Weight growth of the non-interacting envelope over [0, t].

    The envelope propagated from a state of finite theta0-norm has finite
    theta_t-norm with theta_t = theta0 + log(1 + t |b| e^-theta0), and its
    theta_t-norm does not exceed the initial theta0-norm.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    return theta0 + math.log1p(t * b_norm * math.exp(-theta0))


class ScheduleHorizonError(RuntimeError):
    """Continuation schedule did not reach the target horizon in max_steps."""

    def __init__(self, horizon: float, steps: int, reached: float):
        super().__init__(f"horizon {horizon:g} not reached after {steps} steps "
                         f"(cumulative time {reached:g})")
        self.horizon = horizon
        self.steps = steps
        self.reached = reached


@dataclass
class Schedule:
    """Continuation schedule: step lengths and weight scales per step.

    `times[n]` is T_n with the seed T_0 at index 0; executed steps are
    times[1:].  `exp_thetas[n]` = e^(theta_n) is carried as the primary
    variable, so e^(theta_n) - e^(theta_n-1) = T_(n-1) |b| holds exactly;
    `thetas` are its logarithms.  `cumulative[n]` = sum of times[1..n].
    """

    kappa: float
    b_norm: float
    a_integral: float
    theta0: float
    times: np.ndarray = field(repr=False)
    exp_thetas: np.ndarray = field(repr=False)
    cumulative: np.ndarray = field(repr=False)
    horizon: float = 0.0

    @property
    def steps(self) -> int:
        return self.times.size - 1

    @property
    def thetas(self) -> np.ndarray:
        return np.log(self.exp_thetas)

    @property
    def total_time(self) -> float:
        return float(self.cumulative[-1]) if self.cumulative.size else 0.0

    def identity_residuals(self) -> np.ndarray:
        """|e^(theta_n) - e^(theta_n-1) - T_(n-1) |b|| per executed step."""
        diff = np.diff(self.exp_thetas)
        return np.abs(diff - self.times[:-1] * self.b_norm)


def continuation_schedule(b_norm: float, a_integral: float, theta0: float,
                          horizon: float | None = None, kappa: float = 0.4,
                          max_steps: int = 10**6,
                          steps: int | None = None) -> Schedule:
    """Build the step schedule to a time horizon or for a fixed step count.

    Seed T_0 = kappa tau(theta0); then T_n = kappa tau(theta_(n-1)) and
    theta_n = theta_(n-1) + log(1 + T_(n-1) |b| e^(-theta_(n-1))).  With
    `horizon` the recursion runs until the cumulative time reaches it (step
    lengths shrink as theta grows but their sum diverges, so any horizon is
    reached eventually; max_steps only guards against misconfiguration).
    With `steps` it runs exactly that many steps instead.
    """
    if not 0.0 < kappa < 0.5:
        raise ValueError("kappa must lie in (0, 1/2)")
    if (horizon is None) == (steps is None):
        raise ValueError("pass exactly one of horizon or steps")
    if horizon is not None and horizon <= 0:
        raise ValueError("horizon must be positive")
    if steps is not None:
        if steps < 1:
            raise ValueError("steps must be positive")
        max_steps = steps
    times = [kappa * unit_existence_time(theta0, b_norm, a_integral)]
    exp_thetas = [math.exp(theta0)]
    cumulative = [0.0]
    total = 0.0
    for n in range(1, max_steps + 1):
        t_n = kappa * unit_existence_time(math.log(exp_thetas[-1]), b_norm,
                                          a_integral)
        growth = times[-1] * b_norm if b_norm > 0.0 else 0.0  # inf step, b = 0
        exp_thetas.append(exp_thetas[-1] + growth)
        times.append(t_n)
        total += t_n
        cumulative.append(total)
        if horizon is not None and total >= horizon:
            break
    else:
        if horizon is not None:
            raise ScheduleHorizonError(horizon, max_steps, total)
    return Schedule(kappa=kappa, b_norm=b_norm, a_integral=a_integral,
                    theta0=theta0, times=np.asarray(times),
                    exp_thetas=np.asarray(exp_thetas),
                    cumulative=np.asarray(cumulative),
                    horizon=horizon if horizon is not None else total)


@dataclass
class MomentBoundResult:
    """Factorial-moment bounds for the count in one cell.

    `trajectories[i, l-1]` solves the closed comparison system
    q_l' = b_cell q_(l-1) - l a_cell q_l (q_0 = 1) at t_grid[i]; `envelope[l-1]`
    is the uniform bound kappa^l / l!.
    """

    t_grid: np.ndarray
    trajectories: np.ndarray
    envelope: np.ndarray
    kappa: float
    kappa0: float
    b_cell: float
    a_cell: float


def cell_rates(params: ModelParams, h: float) -> tuple[float, float]:
    """Rates (a_cell, b_cell) of the comparison system for a cube of side h,
    wherever it lies: the kernel's infimum over the separations of two
    points in it, and sup b times its volume, a bound on the birth rate into
    every such cube (the birth rate into each one when b is constant)."""
    d = params.dimension
    cell = Box(np.zeros(d), np.full(d, h))
    return (cell_infimum(params.kernel, cell.separation_box()),
            params.b_norm * cell.volume)


def moment_bound_system(q0, b_cell: float, a_cell: float, t_grid,
                        kappa0: float | None = None) -> MomentBoundResult:
    """Solve the triangular factorial-moment comparison system exactly.

    `q0[l-1]` are the initial factorial moments of the cell count for
    l = 1..L.  With a_cell > 0 each order is a finite sum of decaying
    exponentials, computed by variation of constants order by order; with
    a_cell = 0 the system integrates to polynomials in t.

    `kappa0` is the sub-Poissonian initial mass V(cell) e^theta; when omitted
    it is derived as the smallest value consistent with q0.  The uniform
    envelope uses kappa = max(kappa0, b_cell/a_cell).
    """
    q0 = np.asarray(q0, dtype=float)
    if q0.ndim != 1 or q0.size == 0:
        raise ValueError("q0 must be a nonempty 1-d array (orders 1..L)")
    if np.any(q0 < 0):
        raise ValueError("factorial moments are nonnegative")
    t_grid = np.asarray(t_grid, dtype=float)
    orders = q0.size
    if kappa0 is None:
        kappa0 = kappa_from_factorial_moments(q0)
    traj = np.empty((t_grid.size, orders))
    if a_cell > 0.0:
        # q_l(t) = sum_j c[l][j] exp(-j a t); recurse the coefficients
        coeff = [np.array([1.0])]
        for l in range(1, orders + 1):
            c = np.zeros(l + 1)
            for j in range(l):
                c[j] = b_cell * coeff[l - 1][j] / ((l - j) * a_cell)
            c[l] = q0[l - 1] - np.sum(c[:l])
            coeff.append(c)
        decay = np.exp(-a_cell * np.outer(t_grid, np.arange(orders + 1)))
        for l in range(1, orders + 1):
            traj[:, l - 1] = decay[:, :l + 1] @ coeff[l]
        kappa = max(kappa0, b_cell / a_cell)
        envelope = np.array([kappa**l / math.factorial(l)
                             for l in range(1, orders + 1)])
    else:
        # no decay: q_l(t) = sum_j q0_(l-j) (b t)^j / j!
        powers = np.ones((t_grid.size, orders + 1))
        for j in range(1, orders + 1):
            powers[:, j] = powers[:, j - 1] * (b_cell * t_grid) / j
        q0_ext = np.concatenate(([1.0], q0))
        for l in range(1, orders + 1):
            traj[:, l - 1] = sum(q0_ext[l - j] * powers[:, j]
                                 for j in range(l + 1))
        kappa = math.inf
        envelope = np.full(orders, math.inf)
    return MomentBoundResult(t_grid=t_grid, trajectories=traj,
                             envelope=envelope, kappa=kappa, kappa0=kappa0,
                             b_cell=b_cell, a_cell=a_cell)


def kappa_from_factorial_moments(q) -> float:
    """Smallest kappa with q_l <= kappa^l / l! for all provided orders."""
    best = 0.0
    for l, value in enumerate(np.asarray(q, dtype=float), start=1):
        if value > 0:
            best = max(best, (math.factorial(l) * value) ** (1.0 / l))
    return best


class EffectiveMortalityUnavailable(RuntimeError):
    """Self-regulation bound needs a(0) > 0; the kernel vanishes at the origin."""


@dataclass
class StationaryDensityBound:
    """Pointwise and global long-run density bound from self-regulation."""

    a_zero: float
    global_bound: float
    rho0_sup: float
    level_sup: float


def stationary_density_bound(params: ModelParams,
                             rho0_sup: float) -> StationaryDensityBound:
    """The self-regulation level max(sup rho0, sup b/a(0)), no proven cap;
    `rho0_sup` is the sup of the initial density.  At b/a(0) the competition
    a(0) of every neighbour balances births, but a particle alone feels
    none: the four known-red tests (README "Testing", ROADMAP item 2) find
    the stationary density near 1.27, above a level of 1.  Raises
    EffectiveMortalityUnavailable when a(0) = 0 (the non-interacting
    regime; use surgailis_theta_growth there instead).
    """
    a_zero = float(params.kernel.radial(0.0))
    if a_zero <= 0.0:
        raise EffectiveMortalityUnavailable(
            "kernel vanishes at the origin; no self-regulation bound")
    level_sup = params.b_norm / a_zero
    return StationaryDensityBound(a_zero=a_zero,
                                  global_bound=max(rho0_sup, level_sup),
                                  rho0_sup=rho0_sup, level_sup=level_sup)
