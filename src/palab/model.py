"""Model primitives and the reduced-Hamiltonian machinery.

A ModelSpec bundles the coefficient functions of one interacting-agent
contract problem: production drift b, volatility sigma, the agents' running
cost L, the terminal-utility pair (g, g^{-1}), the principal's costs (L_P,
g_P), the production payoff Upsilon, the principal's utility U, and the
initial law. Everything downstream (simulation, contracts, value estimation)
is written against this one record.

The pointwise machinery:

    h(t, x, m, e, z, a)  =  b(t, x, m, e, a) · z / sigma(t, x)  +  L(t, x, m, e, a)

    alpha_hat(t, x, m, e, z)  =  argmax_a  [ b(t, x, m, e, a) · z  +  L(t, x, m, e, a) ]

    b_hat, L_hat (t, x, m, e, z)  =  b, L  evaluated at  alpha_hat(t, x, m, e, z/sigma)

    H(t, x, m, e, z)  =  b_hat · z / sigma  +  L_hat   ( = max_a h(t, x, m, e, z, a) )

Note the slope convention: ``maximize_hamiltonian`` takes the *raw* slope of
the linear term b·z + L, while the reduced coefficients feed it z/sigma, so
that H is the upper envelope of h in the action argument. This matches how
the contract construction consumes these objects.

Without an analytic maximizer, alpha_hat is found numerically by one
vectorized routine for scalar and array arguments alike, and every call
checks its answer for ties: the theory assumes a unique maximizer, so two
equally good actions raise AmbiguousMaximizerError instead of one being
picked silently.

Coefficient functions must accept numpy arrays for the state/action/payment
arguments and broadcast (the simulation engine calls them once per time step
on whole particle ensembles). The measure argument ``m`` provides
``mean()``, ``moment(p)`` and ``clamped_mean(b_bar)``; these return scalars
for a single ensemble and (batch, 1) columns for batched ensembles, so
drift expressions written against them broadcast in both modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    """Two probe maxima tie in value but not in location.

    The theory this package implements assumes the action Hamiltonian has a
    unique maximizer; when the numeric search finds two locations more than
    TOL_A apart whose values agree within TOL_H, that assumption is violated
    and we refuse to pick one silently.
    """


@dataclass(frozen=True)
class ModelSpec:
    """All coefficient functions and constants of one model instance.

    Immutable after construction; safe to share across workers. See the
    module docstring for the calling conventions of the coefficient fields.

    Terminal maps (terminal_utility_g, g_inverse, principal_terminal_cost_gP)
    receive a MeasureFlow (possibly a one-node flow from a streaming
    evaluator) as their measure argument; running coefficients receive the
    current-time empirical measure.
    """

    drift_b: Callable  # (t, x, m, e, a) -> drift
    vol_sigma: Callable  # (t, x) -> volatility, strictly positive
    running_cost_L: Callable  # (t, x, m, e, a) -> running reward rate (cost is negative)
    terminal_utility_g: Callable  # (flow, e) -> utility level
    g_inverse: Callable  # (flow, y) -> payment, inverse of g in e
    principal_running_cost_LP: Callable  # (t, e) -> cost rate
    principal_terminal_cost_gP: Callable  # (flow, e) -> cost
    production_utility_Upsilon: Callable  # (x) -> payoff
    principal_utility_U: Callable  # (v) -> utility, non-decreasing concave
    initial_law_nu: Callable  # (n, rng) -> length-n sample vector
    horizon_T: float
    reservation_R: float
    action_bounds: tuple[float, float] = (-64.0, 64.0)
    payment_bounds: tuple[float, float] = (-64.0, 64.0)
    analytic_maximizer: Optional[Callable] = None  # (t, x, m, e, z) -> action
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def with_principal_utility(self, U: Callable) -> "ModelSpec":
        return replace(self, principal_utility_U=U)


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
    T: float = 1.0,
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
        terminal_utility_g=lambda flow, e: e,
        g_inverse=lambda flow, y: y,
        principal_running_cost_LP=lambda t, e: 0.0,
        principal_terminal_cost_gP=lambda flow, e: e,
        production_utility_Upsilon=lambda x: x,
        principal_utility_U=U,
        initial_law_nu=nu,
        horizon_T=float(T),
        reservation_R=float(R),
        action_bounds=(-64.0, 64.0),
        analytic_maximizer=lambda t, x, m, e, z: z,
        name="multitask",
        params={"kappa_bar": kappa, "b_bar": b_bar},
    )


def quadratic_generic_model(
    a_base: float = 0.5,
    sigma0: float = 1.0,
    R: float = 0.0,
    T: float = 1.0,
    nu: Callable | None = None,
    U: Callable = identity_utility,
) -> ModelSpec:
    """A small demo model without an analytic maximizer.

    drift = a, sigma = sigma0, L = -(a - a_base)²/2. The true maximizer of
    b·z + L is a_base + z (derivable by hand), but it is deliberately not
    registered so this model exercises the numeric golden-section path
    end to end. g, g_P identity; Upsilon(x) = x; L_P = 0.
    """
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    if nu is None:
        nu = point_mass(0.0)
    return ModelSpec(
        drift_b=lambda t, x, m, e, a: np.asarray(a, dtype=float) + 0.0,
        vol_sigma=lambda t, x: float(sigma0),
        running_cost_L=lambda t, x, m, e, a: -0.5 * np.square(a - a_base),
        terminal_utility_g=lambda flow, e: e,
        g_inverse=lambda flow, y: y,
        principal_running_cost_LP=lambda t, e: 0.0,
        principal_terminal_cost_gP=lambda flow, e: e,
        production_utility_Upsilon=lambda x: x,
        principal_utility_U=U,
        initial_law_nu=nu,
        horizon_T=float(T),
        reservation_R=float(R),
        action_bounds=(-8.0, 8.0),
        analytic_maximizer=None,
        name="quadratic-generic",
        params={"a_base": float(a_base), "sigma0": float(sigma0)},
    )


# ---------------------------------------------------------------------------
# Hamiltonian machinery
# ---------------------------------------------------------------------------


def slope_over_sigma(z, sig):
    """z / sigma with the convention 0/sigma = 0 even at sigma = 0.

    The theory assumes sigma > 0, but degenerate diagnostic runs (sigma
    scaled to zero, slope identically zero) are legitimate ODE limits; this
    keeps them finite instead of producing 0/0.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(z == 0.0, 0.0, z / sig)
    return float(out) if out.ndim == 0 else out


def hamiltonian_h(model: ModelSpec, t, x, flow, e, z, a):
    """h(t,x,m,e,z,a) = b(t,x,m,e,a)·z/sigma(t,x) + L(t,x,m,e,a).

    Raises NumericDomainError if any coefficient evaluates non-finite.
    """
    sig = model.vol_sigma(t, x)
    b = model.drift_b(t, x, flow, e, a)
    L = model.running_cost_L(t, x, flow, e, a)
    val = b * slope_over_sigma(z, sig) + L
    if not np.all(np.isfinite(val)):
        raise NumericDomainError(
            f"non-finite Hamiltonian at t={t}: b={b!r}, L={L!r}, sigma={sig!r}"
        )
    return val


def maximize_hamiltonian(model: ModelSpec, t, x, flow, e, z):
    """Maximizer of a -> b(t,x,m,e,a)·z + L(t,x,m,e,a) over action_bounds.

    When the model carries an analytic_maximizer it is returned directly.
    Otherwise every element of x (e and z broadcast against it) is searched
    at once: a uniform probe grid of DEFAULT_PROBES points over
    action_bounds, then a fixed number of golden-section steps on the
    bracket of the best probe, enough to shrink it below TOL_A. A non-finite
    probe value raises NumericDomainError. Where an element's probe values
    have more than one local maximum (endpoints count with one-sided
    neighbourhoods), each is refined the same way and the best refined one
    is returned; if two of them lie more than TOL_A apart while their values
    agree within TOL_H, AmbiguousMaximizerError is raised — the underlying
    theory assumes a unique maximizer and we will not pick one arbitrarily.
    Scalar arguments are a size-1 search and return a float.

    Note the slope convention: to obtain the maximizer of h(·, z, a) pass
    z/sigma(t, x) here (that is what reduced_coefficients does).
    """
    if model.analytic_maximizer is not None:
        return model.analytic_maximizer(t, x, flow, e, z)
    lo, hi = model.action_bounds
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"numeric maximization needs finite action_bounds lo < hi, got {lo, hi}")
    x = np.asarray(x, dtype=float)

    def objective(a):
        return model.drift_b(t, x, flow, e, a) * z + model.running_cost_L(t, x, flow, e, a)

    grid = np.linspace(lo, hi, DEFAULT_PROBES)
    vals = np.stack([np.broadcast_to(objective(a), x.shape) for a in grid])
    if not np.isfinite(vals).all():
        raise NumericDomainError("non-finite Hamiltonian probe value")
    step = grid[1] - grid[0]
    n_iter = max(int(math.ceil(math.log(TOL_A / (2.0 * step)) / math.log(_INVPHI))) + 1, 1)

    def refine(probe):
        """Golden-section search on the bracket grid[probe] ± step, per element."""
        a_lo = np.maximum(grid[probe] - step, lo)
        a_hi = np.minimum(grid[probe] + step, hi)
        for _ in range(n_iter):
            c = a_hi - _INVPHI * (a_hi - a_lo)
            d = a_lo + _INVPHI * (a_hi - a_lo)
            take_left = objective(c) >= objective(d)
            a_hi = np.where(take_left, d, a_hi)
            a_lo = np.where(take_left, a_lo, c)
        return 0.5 * (a_lo + a_hi)

    best = np.argmax(vals, axis=0)
    a_star = refine(best)
    # Probe-local maxima besides the best probe, endpoints one-sided.
    peaks = np.ones(vals.shape, dtype=bool)
    peaks[1:] &= vals[1:] >= vals[:-1]
    peaks[:-1] &= vals[:-1] >= vals[1:]
    np.put_along_axis(peaks, best[None], False, axis=0)
    multi = peaks.any(axis=0)
    if not multi.any():
        return float(a_star) if a_star.ndim == 0 else a_star

    # Tie check: refine the other peaks one rank at a time (an element out
    # of peaks repeats its best probe) and compare every refined candidate
    # with the best refined one.
    cands = [a_star]
    while peaks.any():
        probe = np.where(peaks.any(axis=0), np.argmax(peaks, axis=0), best)
        np.put_along_axis(peaks, probe[None], False, axis=0)
        cands.append(refine(probe))
    cands = np.stack(cands)
    values = np.stack([np.broadcast_to(objective(a), x.shape) for a in cands])
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
    a_star = np.where(multi, a_top[0], a_star)
    return float(a_star) if a_star.ndim == 0 else a_star


def _recommended(model: ModelSpec, t, x, flow, e, zsig):
    """(alpha, b_hat, L_hat, H) at the slope zsig = z/sigma.

    The one place the Hamiltonian maximizer runs for the simulation and
    contract code: alpha comes from maximize_hamiltonian (analytic or
    numeric), and b_hat, L_hat and H are evaluated at it once.
    """
    a_star = maximize_hamiltonian(model, t, x, flow, e, zsig)
    b_hat = model.drift_b(t, x, flow, e, a_star)
    L_hat = model.running_cost_L(t, x, flow, e, a_star)
    return a_star, b_hat, L_hat, b_hat * zsig + L_hat


def reduced_coefficients(model: ModelSpec, t, x, flow, e, z):
    """(b_hat, L_hat, H) with the maximizer evaluated at slope z/sigma.

    b_hat = b(·, alpha), L_hat = L(·, alpha) with alpha the maximizer at
    slope z/sigma(t,x), and H = b_hat·z/sigma + L_hat, so that
    H(t,x,m,e,z) = max_a h(t,x,m,e,z,a) (the envelope property).

    Accepts scalars or arrays for (x, e, z), with or without an analytic
    maximizer.
    """
    zsig = slope_over_sigma(z, model.vol_sigma(t, x))
    return _recommended(model, t, x, flow, e, zsig)[1:]
