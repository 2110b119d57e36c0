"""The mean-field limit control problem and its closed-form benchmark.

In the limit the controller picks a slope field gamma and rate field aleph;
the representative agent plays the Hamiltonian-optimal response and the
objective is

    J(gamma, aleph) = E[Upsilon(X_T)] - g_P(mu, g^{-1}(mu, Y_T)) - E[int L_P dt],
    Y_T = Y_0 - E[int L_hat dt],       Y_0 = reservation level R,

estimated by one large particle ensemble standing in for the limiting law.
Policies are piecewise constant in time and affine in the state
(PolicyParam); optimize_policy searches the coefficient arrays that its
parts name (POLICY_PARTS) with common random numbers, so the objective it
sees is a deterministic function of the searched vector.

The linear-interaction quadratic-cost model has a closed-form solution
(MultitaskAnalytic): slope gamma_hat(t) = exp(kappa_bar (T - t)) and value
V_inf = -R + exp(kappa_bar T) E[iota] + expm1(2 kappa_bar T) / (4 kappa_bar),
with the kappa_bar -> 0 limit T/2 for the last term.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from .contracts import _g_inverse
from .estimates import MCEstimate, _central_slope, mean_se
from .measures import EmpiricalMeasure, _mean_last
from .model import ModelSpec, NumericDomainError
from .sde_engine import SeedSpec, SimGrid, _euler_steps, _stream

_COEFF_FIELDS = ("gamma_c0", "gamma_c1", "aleph_c0", "aleph_c1")

# The names a `parts` argument accepts, each with the coefficient arrays it
# selects: a whole field ("gamma", "aleph") or one array of it.
POLICY_PARTS = {
    "gamma": ("gamma_c0", "gamma_c1"),
    "aleph": ("aleph_c0", "aleph_c1"),
    **{name: (name,) for name in _COEFF_FIELDS},
}


@dataclass(frozen=True)
class PolicyParam:
    """Piecewise-constant-in-time, affine-in-state policy pair.

    knots are the m+1 interval endpoints, finite and strictly increasing,
    kept as a read-only copy; on [knots[j], knots[j+1]) the slope field is
    gamma_c0[j] + gamma_c1[j]*x and the rate field aleph_c0[j] +
    aleph_c1[j]*x; a time outside the knots takes the nearest interval.
    The four coefficient arrays are what optimize_policy searches, by the
    POLICY_PARTS names; the knots stay fixed.
    """

    knots: np.ndarray
    gamma_c0: np.ndarray
    gamma_c1: np.ndarray
    aleph_c0: np.ndarray
    aleph_c1: np.ndarray

    def __post_init__(self):
        knots = np.array(self.knots, dtype=float)
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        if knots.ndim != 1 or len(knots) < 2:
            raise ValueError("knots must be a 1-d array of at least two times")
        if not np.isfinite(knots).all():
            raise ValueError(f"knots must be finite, got {knots.tolist()!r}")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        object.__setattr__(self, "_knot_list", knots.tolist())
        m = len(knots) - 1
        for name in _COEFF_FIELDS:
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != (m,):
                raise ValueError(f"{name} must have shape ({m},), got {arr.shape}")

    def _interval(self, t) -> int:
        # np.searchsorted(knots, t, side="right") - 1, clamped to the
        # intervals; a NaN t lands past the end either way.
        j = bisect.bisect_right(self._knot_list, t) - 1
        return min(max(j, 0), len(self._knot_list) - 2)

    @staticmethod
    def _affine(c0, c1, x):
        # With c1 == 0 the scalar c0 broadcasts to the value c0 + c1 * x has at
        # every finite x, except for c0 = -0.0: -0.0 + (+-0.0) takes the sign
        # of the product, so that case keeps the array.
        if c1 == 0.0 and (c0 != 0.0 or math.copysign(1.0, c0) > 0.0):
            return c0
        return c0 + c1 * x

    def gamma_fn(self, t, x):
        j = self._interval(t)
        return self._affine(self.gamma_c0[j], self.gamma_c1[j], x)

    def aleph_fn(self, t, x):
        j = self._interval(t)
        return self._affine(self.aleph_c0[j], self.aleph_c1[j], x)


def _limit_objective_from_draws(
    model: ModelSpec,
    gamma: Callable,
    aleph: Callable,
    grid: SimGrid,
    x0: np.ndarray,
    dWs: Iterable[np.ndarray],
) -> MCEstimate:
    """The limit objective on the initial states x0 and the increments dWs.

    dWs yields the scaled length-N increments sqrt(dt) * Z of each step,
    fresh from the stream or from a cached matrix (the optimizer's). A
    non-finite value raises NumericDomainError, and a g^{-1} that fails or
    returns a non-finite payment ContractEvaluationError; numpy's overflow
    warnings are silenced in favour of these guards, as in the contract pass.
    """
    dt = grid.dt
    N = len(x0)
    x = x0
    # L_hat and L_P are summed as scalars while they stay ones (each becomes
    # an array, then summed in place, if it ever returns one); each element
    # sees the same additions, and a scalar sum stands for N equal entries.
    lhat_acc = lp_acc = np.float64(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in _euler_steps(model, gamma, aleph, x0, grid, dWs):
            lhat_acc += step.L * dt
            lp_acc += model.principal_running_cost_LP(step.t, step.e) * dt
            x = step.x_next
    lhat_acc, lp_acc = np.broadcast_to(lhat_acc, (N,)), np.broadcast_to(lp_acc, (N,))

    y_T = model.reservation_R - float(_mean_last(lhat_acc))
    m = EmpiricalMeasure(x)

    def ghat_p(y: float) -> float:
        return float(model.principal_terminal_cost_gP(m, _g_inverse(model, m, y)))

    ups = np.broadcast_to(np.asarray(model.production_utility_Upsilon(x), dtype=float), (N,))
    value = float(_mean_last(ups)) - ghat_p(y_T) - float(_mean_last(lp_acc))
    if not math.isfinite(value):
        raise NumericDomainError(f"limit objective value is non-finite: {value!r}")

    # Linearized SE: propagate the per-particle terms through the scalar
    # slope of y -> g_P(g^{-1}(y)) at Y_T (the measure argument is treated
    # as frozen).
    influence = ups - lp_acc + _central_slope(ghat_p, y_T) * lhat_acc
    return MCEstimate(value=value, se=mean_se(influence).se)


def evaluate_limit_objective(
    model: ModelSpec,
    policy: tuple[Callable, Callable],
    N_proxy: int,
    grid: SimGrid,
    seed: SeedSpec,
) -> MCEstimate:
    """Monte Carlo estimate of the limit objective under the policy (gamma, aleph).

    For a PolicyParam p pass (p.gamma_fn, p.aleph_fn). The estimate is a
    deterministic function of its arguments, so policies compared under one
    seed are compared with common random numbers.
    """
    gamma, aleph = policy
    x0, dWs = _stream(model, N_proxy, grid, seed)
    return _limit_objective_from_draws(model, gamma, aleph, grid, x0, dWs)


class _BudgetSpent(Exception):
    pass


def minimize(fun, x0, box, maxfev, xatol, fatol) -> bool:
    """Minimize fun from x0 by the adaptive Nelder-Mead simplex search.

    Gao & Han (2012) parameters for N = len(x0): reflection 1, expansion
    1 + 2/N, contraction 0.75 - 1/(2N), shrink 1 - 1/N. box is a (lo, hi)
    pair of scalars or length-N arrays, (-inf, inf) for an unbounded search;
    x0, the initial simplex and every trial point are clipped to it. fun
    gets a fresh copy of each point and is called at most maxfev times.
    Returns True when the simplex shrinks below xatol in x and fatol in
    value before the budget runs out.

    The arithmetic, the order of evaluations and the tie-breaking of the
    vertex sort are those of scipy 1.17.1's
    minimize(method="Nelder-Mead", options={"adaptive": True}), so the
    sequence of points handed to fun is bit-identical to scipy's.
    """
    clip = lambda x: np.clip(x, *box)
    x0 = clip(np.array(x0, dtype=float, ndmin=1))
    N = len(x0)
    chi, psi, sigma = 1 + 2 / N, 0.75 - 1 / (2 * N), 1 - 1 / N
    sim = np.vstack([x0] * (N + 1))
    k = np.arange(N)
    sim[k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    sim = clip(np.where(sim > box[1], 2 * box[1] - sim, sim))
    fsim = np.full(N + 1, np.inf)
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return fun(np.copy(x))

    def order(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
        # sorted twice, as scipy does: a long simplex can reorder tied values
        sim, fsim = order(*order(sim, fsim))
        while calls < maxfev:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                return True
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = clip(2 * xbar - sim[-1])
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = clip((1 + chi) * xbar - chi * sim[-1])
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = clip((1 + psi) * xbar - psi * sim[-1])
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = clip((1 - psi) * xbar + psi * sim[-1])
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    sim[1:] = clip(sim[0] + sigma * (sim[1:] - sim[0]))
                    for j in range(1, N + 1):
                        fsim[j] = f(sim[j])
            sim, fsim = order(sim, fsim)
    except _BudgetSpent:
        pass
    return False


@dataclass
class PolicyOptResult:
    """Outcome of optimize_policy."""

    policy: PolicyParam
    value: float
    se: float
    converged: bool
    trace: list  # objective value at every evaluation, in order; trace[0] is the (clipped) start's


def optimize_policy(
    model: ModelSpec,
    initial: PolicyParam,
    N_proxy: int,
    grid: SimGrid,
    seed: SeedSpec,
    budget: int = 400,
    parts: Iterable[str] = ("gamma",),
    bounds: tuple = (-math.inf, math.inf),
) -> PolicyOptResult:
    """Derivative-free ascent of the limit objective over PolicyParam coefficients.

    parts names POLICY_PARTS entries; their coefficient arrays, in the order
    given and without repeats, form the vector minimize searches (("aleph_c1",
    "gamma") searches aleph_c1, gamma_c0, gamma_c1), and an unknown part
    raises ValueError before any draw. The knots and the draws stay fixed:
    the initial states and all increments are read once from the seed's
    stream, so the search sees a deterministic surface. bounds is a (lo, hi)
    box with lo < hi (else ValueError), unbounded by default; every point
    evaluated is clipped into it, the initial policy's included, and a start
    outside it is searched from its clipped point. The returned policy is
    the best one evaluated, never worse than that start on these draws,
    with converged=False when the budget ran out first.
    """
    if not bounds[0] < bounds[1]:
        raise ValueError(f"bounds must satisfy lo < hi, got {bounds}")
    parts = tuple(parts)  # read twice below, so a generator is taken whole first
    if unknown := [p for p in parts if p not in POLICY_PARTS]:
        raise ValueError(f"unknown policy part {unknown[0]!r}")
    names = list(dict.fromkeys(name for p in parts for name in POLICY_PARTS[p]))

    def policy_at(vec: np.ndarray) -> PolicyParam:
        return replace(initial, **dict(zip(names, np.split(vec, len(names)))))

    x0, dWs = _stream(model, N_proxy, grid, seed)
    dW_cache = np.empty((grid.steps, N_proxy))
    for k, dW in enumerate(dWs):
        dW_cache[k] = dW

    trace: list[float] = []
    best: dict = {"value": -math.inf, "vec": None, "se": 0.0}

    def value_of(vec: np.ndarray) -> float:
        policy = policy_at(vec)
        est = _limit_objective_from_draws(
            model, policy.gamma_fn, policy.aleph_fn, grid, x0, iter(dW_cache)
        )
        trace.append(est.value)
        if est.value > best["value"]:
            best.update(value=est.value, vec=np.array(vec), se=est.se)
        return est.value

    v0 = np.concatenate([getattr(initial, name) for name in names])
    value_of(np.clip(v0, *bounds))  # minimize clips v0 alike
    converged = minimize(
        lambda v: -value_of(v), v0, bounds, int(budget), xatol=1e-4, fatol=1e-7
    )
    return PolicyOptResult(
        policy=policy_at(best["vec"]),
        value=best["value"],
        se=best["se"],
        converged=converged,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Closed forms for the linear-interaction quadratic-cost model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultitaskAnalytic:
    """Closed-form optimal slope and value of the multitask limit problem.

    Exact for the unclamped model (b_bar = inf); for a finite clamp level it
    is still the limit while the mean state stays inside the clamp.
    """

    kappa_bar: float
    R: float = 0.0
    T: float = 1.0
    E_iota: float = 0.0

    def gamma_hat(self, t, x=None):
        """Optimal slope exp(kappa_bar (T - t)); x accepted and ignored."""
        return np.exp(self.kappa_bar * (self.T - np.asarray(t, dtype=float)))

    @property
    def gamma_sq_integral(self) -> float:
        """int_0^T gamma_hat(t)^2 dt."""
        k = self.kappa_bar
        if k == 0.0:
            return self.T
        return math.expm1(2.0 * k * self.T) / (2.0 * k)

    @property
    def V_infinity(self) -> float:
        """Limit value -R + exp(kappa_bar T) E[iota] + (1/2) int gamma_hat^2 dt."""
        k = self.kappa_bar
        return -self.R + math.exp(k * self.T) * self.E_iota + 0.5 * self.gamma_sq_integral
