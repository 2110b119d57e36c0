"""The mean-field limit control problem and its closed-form benchmark.

In the limit the controller picks a slope field gamma and rate field aleph;
the representative agent plays the Hamiltonian-optimal response and the
objective is

    J(gamma, aleph) = E[Upsilon(X_T)] - g_P(mu, g^{-1}(mu, Y_T)) - E[int L_P dt],
    Y_T = Y_0 - E[int L_hat dt],       Y_0 = reservation level R,

estimated here by one large particle ensemble standing in for the limiting
law. Policies are piecewise constant in time and affine in the state
(PolicyParam); optimize_policy runs a derivative-free search over the
coefficient vector with common random numbers, so the objective seen by the
optimizer is a deterministic function of the parameters.

The linear-interaction quadratic-cost model has a closed-form solution
(analytic_multitask): slope gamma_hat(t) = exp(kappa_bar (T - t)) and value
V_inf = -R + exp(kappa_bar T) E[iota] + expm1(2 kappa_bar T) / (4 kappa_bar),
with the kappa_bar -> 0 limit T/2 for the last term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Union

import numpy as np
from scipy.optimize import Bounds, minimize

from .estimates import MCEstimate
from .measures import EmpiricalMeasure, MeasureFlow
from .model import ModelSpec, MultitaskParams
from .sde_engine import DEFAULT_N_PROXY, SeedSpec, SimGrid, _as_generator, _euler_steps

_COEFF_FIELDS = ("gamma_c0", "gamma_c1", "aleph_c0", "aleph_c1")


def _normalize_parts(parts: Iterable[str]) -> tuple[str, ...]:
    out: list[str] = []
    for p in parts:
        if p == "gamma":
            out += ["gamma_c0", "gamma_c1"]
        elif p == "aleph":
            out += ["aleph_c0", "aleph_c1"]
        elif p in _COEFF_FIELDS:
            out.append(p)
        else:
            raise ValueError(f"unknown policy part {p!r}")
    return tuple(dict.fromkeys(out))


@dataclass(frozen=True)
class PolicyParam:
    """Piecewise-constant-in-time, affine-in-state policy pair.

    knots are the m+1 interval endpoints (increasing, spanning the horizon);
    on [knots[j], knots[j+1]) the slope field is gamma_c0[j] + gamma_c1[j]*x
    and the rate field aleph_c0[j] + aleph_c1[j]*x. bounds, when set, is a
    (lo, hi) box applied to every coefficient during optimization.
    """

    knots: np.ndarray
    gamma_c0: np.ndarray
    gamma_c1: np.ndarray
    aleph_c0: np.ndarray
    aleph_c1: np.ndarray
    bounds: Optional[tuple] = None

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "knots", knots)
        if knots.ndim != 1 or len(knots) < 2:
            raise ValueError("knots must be a 1-d array of at least two times")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        m = len(knots) - 1
        for name in _COEFF_FIELDS:
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != (m,):
                raise ValueError(f"{name} must have shape ({m},), got {arr.shape}")
        if self.bounds is not None:
            lo, hi = self.bounds
            if not (float(lo) < float(hi)):
                raise ValueError(f"bounds must satisfy lo < hi, got {self.bounds}")

    @property
    def n_intervals(self) -> int:
        return len(self.knots) - 1

    def _interval(self, t) -> int:
        j = int(np.searchsorted(self.knots, t, side="right")) - 1
        return min(max(j, 0), self.n_intervals - 1)

    def gamma_fn(self, t, x):
        j = self._interval(t)
        return self.gamma_c0[j] + self.gamma_c1[j] * x

    def aleph_fn(self, t, x):
        j = self._interval(t)
        return self.aleph_c0[j] + self.aleph_c1[j] * x

    # -- flat-vector round trip for the optimizer -------------------------
    # parts: any of "gamma_c0", "gamma_c1", "aleph_c0", "aleph_c1", with
    # "gamma"/"aleph" as shorthand for the respective (c0, c1) pair.

    def to_vector(self, parts: Iterable[str] = ("gamma",)) -> np.ndarray:
        return np.concatenate([getattr(self, p) for p in _normalize_parts(parts)])

    def replace_from_vector(self, vec, parts: Iterable[str] = ("gamma",)) -> "PolicyParam":
        vec = np.asarray(vec, dtype=float)
        names = _normalize_parts(parts)
        m = self.n_intervals
        if len(vec) != m * len(names):
            raise ValueError(
                f"vector length {len(vec)} does not match {len(names)} parts "
                f"of {m} coefficients"
            )
        fields = {
            name: vec[i * m : (i + 1) * m] for i, name in enumerate(names)
        }
        return replace(self, **fields)

    @classmethod
    def from_time_function(
        cls,
        knots,
        gamma_of_t: Callable[[float], float],
        aleph_of_t: Optional[Callable[[float], float]] = None,
    ) -> "PolicyParam":
        """State-independent policy sampling the given rate at interval midpoints."""
        knots = np.asarray(knots, dtype=float)
        mids = 0.5 * (knots[:-1] + knots[1:])
        g0 = np.array([float(gamma_of_t(t)) for t in mids])
        a0 = (
            np.zeros(len(mids))
            if aleph_of_t is None
            else np.array([float(aleph_of_t(t)) for t in mids])
        )
        z = np.zeros(len(mids))
        return cls(knots=knots, gamma_c0=g0, gamma_c1=z, aleph_c0=a0, aleph_c1=z)


PolicyLike = Union[PolicyParam, tuple]


def _policy_fns(policy: PolicyLike) -> tuple[Callable, Callable]:
    if isinstance(policy, PolicyParam):
        return policy.gamma_fn, policy.aleph_fn
    gamma, aleph = policy
    return gamma, aleph


def _limit_objective_from_draws(
    model: ModelSpec,
    gamma: Callable,
    aleph: Callable,
    grid: SimGrid,
    x0: np.ndarray,
    draws,
) -> MCEstimate:
    """Streaming evaluation of the limit objective on given initial draws.

    `draws(k)` must return the length-N standard-normal vector of step k;
    the caller controls whether these come fresh from a generator or from a
    cached matrix (the optimizer path).
    """
    dt = grid.dt
    N = len(x0)
    x = x0
    lhat_acc = np.zeros(N)
    lp_acc = np.zeros(N)
    for step in _euler_steps(model, gamma, aleph, x0, grid, draws):
        lhat_acc = lhat_acc + step.L * dt
        lp_acc = lp_acc + model.principal_running_cost_LP(step.t, step.e) * dt
        x = step.x_next

    y_T = model.reservation_R - float(np.mean(lhat_acc))
    flow1 = MeasureFlow.single(grid.horizon_T, EmpiricalMeasure(x))

    def ghat_p(y: float) -> float:
        return float(
            model.principal_terminal_cost_gP(flow1, model.g_inverse(flow1, y))
        )

    ups = np.asarray(model.production_utility_Upsilon(x), dtype=float)
    value = float(np.mean(ups)) - ghat_p(y_T) - float(np.mean(lp_acc))

    # Linearized SE: propagate the per-particle terms through the scalar
    # slope of y -> g_P(g^{-1}(y)) at Y_T (the measure argument is treated
    # as frozen).
    h = 1e-6 * max(1.0, abs(y_T))
    slope = (ghat_p(y_T + h) - ghat_p(y_T - h)) / (2.0 * h)
    influence = ups - lp_acc + slope * lhat_acc
    se = float(np.std(influence, ddof=1) / math.sqrt(N)) if N > 1 else 0.0
    return MCEstimate(value=value, se=se, n_samples=N)


def evaluate_limit_objective(
    model: ModelSpec,
    policy: PolicyLike,
    N_proxy: int = DEFAULT_N_PROXY,
    grid: Optional[SimGrid] = None,
    seed: Optional[SeedSpec] = None,
) -> MCEstimate:
    """Monte Carlo estimate of the limit objective under the given policy.

    policy is a PolicyParam or a (gamma, aleph) pair of (t, x) callables.
    The estimate is a deterministic function of (policy, N_proxy, grid,
    seed): the same seed always yields the same draws, so policies compared
    under one seed are compared with common random numbers.
    """
    if grid is None:
        grid = SimGrid(model.horizon_T, 100)
    if seed is None:
        raise ValueError("seed is required (pass a SeedSpec)")
    gamma, aleph = _policy_fns(policy)
    rng = _as_generator(seed)
    x0 = np.asarray(model.initial_law_nu(N_proxy, rng), dtype=float)
    return _limit_objective_from_draws(
        model, gamma, aleph, grid, x0, lambda k: rng.standard_normal(N_proxy)
    )


@dataclass
class PolicyOptResult:
    """Outcome of optimize_policy."""

    policy: PolicyParam
    value: float
    se: float
    initial_value: float
    n_evaluations: int
    converged: bool
    trace: list  # objective value at every evaluation, in order


def optimize_policy(
    model: ModelSpec,
    initial: PolicyParam,
    N_proxy: int = 20_000,
    grid: Optional[SimGrid] = None,
    seed: Optional[SeedSpec] = None,
    budget: int = 400,
    parts: Iterable[str] = ("gamma",),
) -> PolicyOptResult:
    """Derivative-free ascent of the limit objective over PolicyParam coefficients.

    Runs Nelder-Mead (adaptive simplex) on the flat coefficient vector of
    the chosen parts, holding the knots and the Brownian draws fixed: the
    initial states and all increments are generated once from the seed and
    reused for every objective call, so the search sees a smooth
    deterministic surface. The returned policy is the best one actually
    evaluated (never worse than the initial policy on these draws), with
    converged=False when the evaluation budget ran out first.
    """
    if seed is None:
        raise ValueError("seed is required (pass a SeedSpec)")
    if grid is None:
        grid = SimGrid(model.horizon_T, 100)
    parts = tuple(parts)
    rng = _as_generator(seed)
    x0 = np.asarray(model.initial_law_nu(N_proxy, rng), dtype=float)
    dW_cache = np.empty((grid.steps, N_proxy))
    for k in range(grid.steps):
        dW_cache[k] = rng.standard_normal(N_proxy)

    trace: list[float] = []
    best: dict = {"value": -math.inf, "vec": None, "se": 0.0}

    def value_of(vec: np.ndarray) -> float:
        policy = initial.replace_from_vector(vec, parts)
        est = _limit_objective_from_draws(
            model, policy.gamma_fn, policy.aleph_fn, grid, x0, lambda k: dW_cache[k]
        )
        trace.append(est.value)
        if est.value > best["value"]:
            best.update(value=est.value, vec=np.array(vec), se=est.se)
        return est.value

    v0 = initial.to_vector(parts)
    initial_value = value_of(v0)
    box = None
    if initial.bounds is not None:
        lo, hi = initial.bounds
        box = Bounds(np.full(len(v0), float(lo)), np.full(len(v0), float(hi)))
    res = minimize(
        lambda v: -value_of(v),
        v0,
        method="Nelder-Mead",
        bounds=box,
        options={
            "adaptive": True,
            "maxfev": int(budget),
            "xatol": 1e-4,
            "fatol": 1e-7,
        },
    )
    return PolicyOptResult(
        policy=initial.replace_from_vector(best["vec"], parts),
        value=best["value"],
        se=best["se"],
        initial_value=initial_value,
        n_evaluations=len(trace),
        converged=bool(res.success),
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Closed forms for the linear-interaction quadratic-cost model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultitaskAnalytic:
    """Closed-form optimal slope and value of the unclamped multitask model."""

    params: MultitaskParams
    R: float
    T: float
    E_iota: float

    def gamma_hat(self, t, x=None):
        """Optimal slope exp(kappa_bar (T - t)); x accepted and ignored."""
        return np.exp(self.params.kappa_bar * (self.T - np.asarray(t, dtype=float)))

    @property
    def gamma_sq_integral(self) -> float:
        """int_0^T gamma_hat(t)^2 dt."""
        k = self.params.kappa_bar
        if k == 0.0:
            return self.T
        return math.expm1(2.0 * k * self.T) / (2.0 * k)

    @property
    def half_gamma_sq_integral(self) -> float:
        return 0.5 * self.gamma_sq_integral

    @property
    def xi_mean(self) -> float:
        """Expected terminal payment R + (1/2) int gamma_hat^2 dt."""
        return self.R + self.half_gamma_sq_integral

    @property
    def V_infinity(self) -> float:
        """Limit value -R + exp(kappa_bar T) E[iota] + (1/2) int gamma_hat^2 dt."""
        k = self.params.kappa_bar
        return -self.R + math.exp(k * self.T) * self.E_iota + self.half_gamma_sq_integral


def analytic_multitask(
    params: MultitaskParams, R: float = 0.0, T: float = 1.0, E_iota: float = 0.0
) -> MultitaskAnalytic:
    """Closed-form solution of the multitask limit problem (no clamp).

    Valid for the unclamped model (b_bar = inf); for finite clamp levels it
    remains the correct limit whenever the mean state stays inside the clamp.
    """
    return MultitaskAnalytic(params=params, R=float(R), T=float(T), E_iota=float(E_iota))
