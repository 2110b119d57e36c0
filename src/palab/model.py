"""Model primitives and the reduced-Hamiltonian machinery.

A ModelSpec bundles the coefficients of one interacting-agent contract
problem: production drift b, volatility sigma, the agents' running cost L,
the terminal-utility pair (g, g^{-1}), the principal's costs (L_P, g_P), the
production payoff Upsilon, the principal's utility U and the initial law.
Everything downstream is written against this one record. Pointwise,

    h(t, x, m, e, z, a)  =  b(t, x, m, e, a) · z / sigma(t, x)  +  L(t, x, m, e, a)

    alpha_hat(t, x, m, e, z)  =  argmax_a  [ b(t, x, m, e, a) · z  +  L(t, x, m, e, a) ]

    b_hat, L_hat (t, x, m, e, z)  =  b, L  evaluated at  alpha_hat(t, x, m, e, z/sigma)

    H(t, x, m, e, z)  =  b_hat · z / sigma  +  L_hat   ( = max_a h(t, x, m, e, z, a) )

so maximize_hamiltonian takes the raw slope of b·z + L, and the reduced
coefficients feed it z/sigma, which makes H the upper envelope of h in the
action. The theory assumes a unique maximizer, so the numeric search raises
AmbiguousMaximizerError on a tie instead of picking one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Numeric maximizer tolerances (golden-section search).
TOL_A = 1e-8  # location tolerance for the argmax
TOL_H = 1e-10  # value tolerance used by the ambiguity check
DEFAULT_PROBES = 33  # coarse probe grid size over action_bounds

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi, golden-section shrink factor


class NumericDomainError(ValueError):
    """A coefficient evaluated to a non-finite value."""


class AmbiguousMaximizerError(RuntimeError):
    """Two maximizers more than TOL_A apart have values within TOL_H of each other."""


@dataclass(frozen=True)
class ModelSpec:
    """All coefficient functions and constants of one model; immutable, safe to share.

    Coefficients take numpy arrays for the state, action and payment and
    broadcast: the stepper calls them once per step on a whole ensemble or a
    (batch, n) stack of ensembles. The measure argument m is an
    EmpiricalMeasure, whose statistics are floats for one ensemble and
    (batch, 1) columns for a stack. Running coefficients get the current
    measure, the terminal maps (g, g_inverse, g_P) the terminal one. The
    contract pass prices a stack at once: its terminal maps get levels and
    payments as (batch, 1) columns, Upsilon the (batch, n) terminal states
    and U a (batch, 1) column. Without an analytic_maximizer, the drift and
    running cost also get actions with a leading axis in front of the
    state's shape, so they must act elementwise in the action.
    """

    drift_b: Callable  # (t, x, m, e, a) -> drift
    vol_sigma: Callable  # (t, x) -> volatility, finite and >= 0
    running_cost_L: Callable  # (t, x, m, e, a) -> running reward rate (cost is negative)
    terminal_utility_g: Callable  # (m, e) -> utility level
    g_inverse: Callable  # (m, y) -> payment, inverse of g in e
    principal_running_cost_LP: Callable  # (t, e) -> cost rate
    principal_terminal_cost_gP: Callable  # (m, e) -> cost
    production_utility_Upsilon: Callable  # (x) -> payoff
    principal_utility_U: Callable  # (v) -> utility, non-decreasing concave
    initial_law_nu: Callable  # (n, rng) -> length-n sample vector
    reservation_R: float
    action_bounds: tuple[float, float] = (-64.0, 64.0)
    analytic_maximizer: Optional[Callable] = None  # (t, x, m, e, z) -> action


@dataclass(frozen=True)
class MultitaskParams:
    """Interaction strength and clamp level of the multitask model.

    b_bar may be math.inf, in which case the clamp is the identity.
    """

    kappa_bar: float
    b_bar: float = math.inf

    def __post_init__(self):
        if not (self.b_bar > 0):
            raise ValueError(f"b_bar must be > 0 (or inf), got {self.b_bar}")


# ---------------------------------------------------------------------------
# Initial laws
# ---------------------------------------------------------------------------


def point_mass(c: float) -> Callable:
    """Initial law: every agent starts at the constant c."""

    def sample(n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, float(c))

    return sample


def normal_law(mean: float = 0.0, std: float = 1.0) -> Callable:
    """Initial law: iid Gaussian draws."""

    def sample(n: int, rng: np.random.Generator) -> np.ndarray:
        return mean + std * rng.standard_normal(n)

    return sample


# ---------------------------------------------------------------------------
# Principal utility choices
# ---------------------------------------------------------------------------


def identity_utility(v):
    return v


def exp_saturating_utility(v):
    """U(v) = 1 - exp(-v): strictly concave, increasing, bounded above."""
    return 1.0 - np.exp(-v)


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def multitask_model(
    params: MultitaskParams,
    R: float = 0.0,
    nu: Callable | None = None,
    U: Callable = identity_utility,
) -> ModelSpec:
    """The linear-interaction quadratic-cost benchmark model.

    drift(t,x,m,e,a) = a + kappa_bar · clamped_mean(m, b_bar), sigma = 1,
    L = -a²/2, g and g_P are the identity in the payment, Upsilon(x) = x,
    L_P = 0, and the action Hamiltonian's maximizer is analytic: alpha = z.
    """
    kappa = float(params.kappa_bar)
    b_bar = float(params.b_bar)
    if nu is None:
        nu = point_mass(0.0)

    def drift(t, x, m, e, a):
        return a + kappa * m.clamped_mean(b_bar)

    def cost(t, x, m, e, a):
        return -0.5 * np.square(a)

    return ModelSpec(
        drift_b=drift,
        vol_sigma=lambda t, x: 1.0,
        running_cost_L=cost,
        terminal_utility_g=lambda m, e: e,
        g_inverse=lambda m, y: y,
        principal_running_cost_LP=lambda t, e: 0.0,
        principal_terminal_cost_gP=lambda m, e: e,
        production_utility_Upsilon=lambda x: x,
        principal_utility_U=U,
        initial_law_nu=nu,
        reservation_R=float(R),
        action_bounds=(-64.0, 64.0),
        analytic_maximizer=lambda t, x, m, e, z: z,
    )


def quadratic_generic_model(
    a_base: float = 0.5,
    sigma0: float = 1.0,
    R: float = 0.0,
    nu: Callable | None = None,
    U: Callable = identity_utility,
) -> ModelSpec:
    """A demo model on the numeric maximizer: drift = a, sigma = sigma0, L = -(a - a_base)²/2.

    The maximizer of b·z + L is a_base + z, deliberately not registered so
    that this model runs the numeric search. g, g_P identity; Upsilon(x) = x;
    L_P = 0.
    """
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    if nu is None:
        nu = point_mass(0.0)
    return ModelSpec(
        drift_b=lambda t, x, m, e, a: np.asarray(a, dtype=float) + 0.0,
        vol_sigma=lambda t, x: float(sigma0),
        running_cost_L=lambda t, x, m, e, a: -0.5 * np.square(a - a_base),
        terminal_utility_g=lambda m, e: e,
        g_inverse=lambda m, y: y,
        principal_running_cost_LP=lambda t, e: 0.0,
        principal_terminal_cost_gP=lambda m, e: e,
        production_utility_Upsilon=lambda x: x,
        principal_utility_U=U,
        initial_law_nu=nu,
        reservation_R=float(R),
        action_bounds=(-8.0, 8.0),
        analytic_maximizer=None,
    )


# ---------------------------------------------------------------------------
# Hamiltonian machinery
# ---------------------------------------------------------------------------


def slope_over_sigma(z, sig):
    """z / sigma with 0/sigma = +0.0 even at sigma = 0, so zero-volatility ODE limits stay finite.

    sigma must be finite and >= 0 (NaN fails), else NumericDomainError: the
    theory needs sigma > 0, and sigma == 0 is allowed so that ODE-limit
    diagnostics run.
    """
    z = np.asarray(z, dtype=float)
    if isinstance(sig, float) and 0.0 < sig < math.inf:
        # The general path's bits: z + 0.0 turns -0.0 into +0.0 and keeps
        # every other z, and a positive sig keeps the sign of a quotient that
        # underflows. z / 1.0 is z exactly.
        out = z + 0.0
        if sig != 1.0:
            out /= sig
    else:
        if not np.all((sig >= 0.0) & (sig < math.inf)):
            raise NumericDomainError(f"volatility must be finite and >= 0: {sig!r}")
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(z == 0.0, 0.0, z / sig)
    return float(out) if out.ndim == 0 else out


def hamiltonian_h(model: ModelSpec, t, x, m, e, z, a):
    """h(t,x,m,e,z,a) = b(t,x,m,e,a)·z/sigma(t,x) + L(t,x,m,e,a).

    Raises NumericDomainError if sigma is invalid (see slope_over_sigma) or
    h evaluates non-finite.
    """
    sig = model.vol_sigma(t, x)
    b = model.drift_b(t, x, m, e, a)
    L = model.running_cost_L(t, x, m, e, a)
    val = b * slope_over_sigma(z, sig) + L
    if not np.all(np.isfinite(val)):
        raise NumericDomainError(
            f"non-finite Hamiltonian at t={t}: b={b!r}, L={L!r}, sigma={sig!r}"
        )
    return val


def maximize_hamiltonian(model: ModelSpec, t, x, m, e, z):
    """Maximizer of a -> b(t,x,m,e,a)·z + L(t,x,m,e,a) over action_bounds.

    A model's analytic_maximizer is returned as it is. Otherwise every
    element of x (e and z broadcast against it) is searched at once, on
    finite action_bounds: DEFAULT_PROBES probes in one call of the drift and
    running cost, then golden-section steps, one call each, on the best
    probe's bracket down to TOL_A. Every other local probe maximum (endpoints
    one-sided) is refined too and the best is returned; two more than TOL_A
    apart with values within TOL_H raise AmbiguousMaximizerError. A
    non-finite probe value raises NumericDomainError, and a slope or values
    that do not broadcast to x's shape ValueError. The answer is a fresh
    writable array of x's shape, or a float for a scalar x. For the
    maximizer of h, pass z/sigma(t, x), as reduced_coefficients does.

    The search runs on the shape the values take. When that has one element
    (values constant in x, or a scalar x) the bracket is kept in Python
    floats, else in arrays; both round as float64 does, so the result bits
    do not depend on how many elements a search has.
    """
    if model.analytic_maximizer is not None:
        return model.analytic_maximizer(t, x, m, e, z)
    lo, hi = model.action_bounds
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"numeric maximization needs finite action_bounds lo < hi, got {lo, hi}")
    x = np.asarray(x, dtype=float)
    if np.ndim(z) > x.ndim:
        # a leading axis of length 1 would merge into the actions' axis
        raise ValueError(f"slope of shape {np.shape(z)} has more dimensions than x {x.shape}")

    def objective(a):
        """b·z + L at the actions a, which carry a leading axis; the values keep it."""
        v = model.drift_b(t, x, m, e, a) * z + model.running_cost_L(t, x, m, e, a)
        if np.ndim(v) <= x.ndim:  # constant in a
            v = np.broadcast_to(v, np.broadcast_shapes(np.shape(v), a.shape))
        return v

    grid = np.linspace(lo, hi, DEFAULT_PROBES)
    vals = objective(grid.reshape((-1,) + (1,) * x.ndim))
    shape = vals.shape[1:]
    if np.broadcast_shapes(shape, x.shape) != x.shape:
        raise ValueError(f"Hamiltonian values of shape {shape} do not broadcast to x {x.shape}")
    if not np.isfinite(vals).all():
        raise NumericDomainError("non-finite Hamiltonian probe value")
    step = grid[1] - grid[0]
    n_iter = max(int(math.ceil(math.log(TOL_A / (2.0 * step)) / math.log(_INVPHI))) + 1, 1)
    pair = np.empty((2,) + shape)
    c, d = pair[0, ...], pair[1, ...]
    w = np.empty(shape)
    left = np.empty(shape, dtype=bool)

    def refine(probe):
        """Golden-section search on the bracket grid[probe] ± step, per element."""
        if c.size == 1:
            # one element: the same steps on Python floats, which round
            # +, - and * as float64 does, so the bits match the array loop
            g, s = grid.item(probe.item()), step.item()
            a_lo, a_hi = max(g - s, float(lo)), min(g + s, float(hi))
            cd = pair.reshape(2)
            for _ in range(n_iter):
                span = (a_hi - a_lo) * _INVPHI
                cd[0] = a_c = a_hi - span
                cd[1] = a_d = a_lo + span
                v_c, v_d = objective(pair).reshape(2).tolist()
                if v_c >= v_d:
                    a_hi = a_d
                else:
                    a_lo = a_c
            return np.full(shape, 0.5 * (a_lo + a_hi))
        a_lo = np.maximum(grid[probe] - step, lo, out=np.empty(shape))
        a_hi = np.minimum(grid[probe] + step, hi, out=np.empty(shape))
        for _ in range(n_iter):
            np.multiply(np.subtract(a_hi, a_lo, out=w), _INVPHI, out=w)
            np.subtract(a_hi, w, out=c)
            np.add(a_lo, w, out=d)
            v = objective(pair)
            np.greater_equal(v[0], v[1], out=left)
            np.copyto(a_hi, d, where=left)
            np.logical_not(left, out=left)
            np.copyto(a_lo, c, where=left)
        return 0.5 * (a_lo + a_hi)

    def full(a):
        if x.ndim == 0:
            return float(a)
        return a if a.shape == x.shape else np.broadcast_to(a, x.shape).copy()

    best = np.argmax(vals, axis=0)
    a_star = refine(best)
    # Probe-local maxima besides the best probe, endpoints one-sided.
    peaks = np.ones(vals.shape, dtype=bool)
    peaks[1:] &= vals[1:] >= vals[:-1]
    peaks[:-1] &= vals[:-1] >= vals[1:]
    np.put_along_axis(peaks, best[None], False, axis=0)
    multi = peaks.any(axis=0)
    if not multi.any():
        return full(a_star)

    # Tie check: refine the other peaks one rank at a time (an element out
    # of peaks repeats its best probe) and compare every refined candidate
    # with the best refined one.
    cands = [a_star]
    while peaks.any():
        probe = np.where(peaks.any(axis=0), np.argmax(peaks, axis=0), best)
        np.put_along_axis(peaks, probe[None], False, axis=0)
        cands.append(refine(probe))
    cands = np.stack(cands)
    values = objective(cands)
    top = np.argmax(values, axis=0)[None]
    a_top = np.take_along_axis(cands, top, axis=0)
    h_top = np.take_along_axis(values, top, axis=0)
    tie = multi & (np.abs(cands - a_top) > TOL_A) & (np.abs(values - h_top) < TOL_H)
    if tie.any():
        rank, *where = np.argwhere(tie)[0]
        raise AmbiguousMaximizerError(
            f"two maximizers at a={a_top[(0, *where)]:.10g} and "
            f"a={cands[(rank, *where)]:.10g} with values within {TOL_H}"
        )
    return full(np.where(multi, a_top[0], a_star))


def _node(model: ModelSpec, t, x, m, e, z):
    """The one node evaluation: (sigma, z/sigma, alpha_hat, b_hat, L_hat) at (t, x, m, e), slope z."""
    sig = model.vol_sigma(t, x)
    zsig = slope_over_sigma(z, sig)
    a_hat = maximize_hamiltonian(model, t, x, m, e, zsig)
    b_hat = model.drift_b(t, x, m, e, a_hat)
    L_hat = model.running_cost_L(t, x, m, e, a_hat)
    return sig, zsig, a_hat, b_hat, L_hat


def reduced_coefficients(model: ModelSpec, t, x, m, e, z):
    """(b_hat, L_hat, H) at the slope z, for scalar or array (x, e, z).

    b_hat and L_hat are b and L at the maximizer for the slope z/sigma(t, x),
    and H = b_hat·z/sigma + L_hat = max_a h(t, x, m, e, z, a).
    """
    _, zsig, _, b_hat, L_hat = _node(model, t, x, m, e, z)
    return b_hat, L_hat, b_hat * zsig + L_hat
