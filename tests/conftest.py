"""Shared helpers for the test suite.

The closed-form quantities of the linear-interaction model are checked
against an independent composite-Simpson quadrature (written before the
library code, frozen below). Tests import these via plain `import conftest`
(pytest puts this directory on sys.path).
"""

import math

import numpy as np
from hypothesis import settings

from palab.measures import EmpiricalMeasure
from palab.mkv_control import MultitaskAnalytic
from palab.model import multitask_model

# Property tests draw their examples from a fixed seed (derandomize), so a
# run is reproducible and the suite's time is bounded; no example database
# is written.
settings.register_profile("palab", derandomize=True, max_examples=25, deadline=None, database=None)
settings.load_profile("palab")


def simpson_gamma_sq_integral(kappa_bar: float, T: float = 1.0, nodes: int = 2001) -> float:
    """Composite-Simpson value of int_0^T exp(2*kappa_bar*(T-t)) dt.

    Deliberately does NOT call anything in palab: this is the oracle the
    library's closed forms are judged against. nodes must be odd.
    """
    t = np.linspace(0.0, T, nodes)
    y = np.exp(2.0 * kappa_bar * (T - t))
    h = t[1] - t[0]
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


# Frozen values of 0.5 * int_0^1 exp(2*kappa*(1-t)) dt from the oracle above
# (computed once with nodes=200001 and pinned; regression guard for both the
# oracle and the closed form).
HALF_GAMMA_SQ_FROZEN = {
    -1.0: 0.21616617919084682,
    -0.5: 0.3160602794142788,
    0.0: 0.5,
    0.5: 0.8591409142295226,
    1.0: 1.5972640247326626,
}


def gamma_hat(kappa_bar: float, T: float = 1.0):
    """The optimal slope t -> exp(kappa_bar * (T - t)) as a plain closure."""

    def g(t):
        return float(np.exp(kappa_bar * (T - t)))

    return g


def _clipped_normal_mean(mean: float, var: float, b_bar: float) -> float:
    """E[clip(X, -b_bar, b_bar)] for X ~ N(mean, var); var = 0 is a point mass."""
    if math.isinf(b_bar):
        return mean
    if var == 0.0:
        return min(max(mean, -b_bar), b_bar)
    s = math.sqrt(var)
    lo, hi = (-b_bar - mean) / s, (b_bar - mean) / s
    cdf = lambda u: 0.5 * (1.0 + math.erf(u / math.sqrt(2.0)))
    pdf = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    inside = mean * (cdf(hi) - cdf(lo)) + s * (pdf(lo) - pdf(hi))
    return -b_bar * cdf(lo) + b_bar * (1.0 - cdf(hi)) + inside


def grid_limit_law(kappa_bar, b_bar, gamma, grid, R=0.0, nu_mean=0.0, nu_var=0.0, gamma_c1=None):
    """(means, variances, payment, value) of the multitask limit law on the Euler grid.

    For N -> infinity the clamped mean is deterministic, so under a slope
    c0_k + c1_k x that is affine in x on each step, with c0_k = gamma(t_k)
    and c1_k = gamma_c1(t_k) (0 when gamma_c1 is None), and a point-mass
    (nu_var = 0) or normal initial law, every node law is Gaussian, for any
    b_bar:

        m_{k+1} = m_k + (c0_k + c1_k m_k + kappa_bar E[clip(X_k, -b_bar, b_bar)]) dt,
        v_{k+1} = (1 + c1_k dt)^2 v_k + dt   (sigma = 1, alpha = z).

    means and variances hold the steps+1 node values. The limit contract pays
    R + (1/2) sum_k E[(c0_k + c1_k X_k)^2] dt
      = R + (1/2) sum_k [(c0_k + c1_k m_k)^2 + c1_k^2 v_k] dt,
    and the principal's value is m_K - payment (Upsilon = x, g and g_P the
    identity, L_P = 0). Like the Simpson oracle, it calls nothing in palab;
    grid only gives horizon_T and steps.
    """
    dt = grid.horizon_T / grid.steps
    times = np.linspace(0.0, grid.horizon_T, grid.steps + 1)
    means, variances = [float(nu_mean)], [float(nu_var)]
    payment = float(R)
    for t in times[:-1]:
        c1 = 0.0 if gamma_c1 is None else float(gamma_c1(t))
        m, v = means[-1], variances[-1]
        g = float(gamma(t)) + c1 * m
        drift = g + kappa_bar * _clipped_normal_mean(m, v, b_bar)
        means.append(m + drift * dt)
        variances.append((1.0 + c1 * dt) ** 2 * v + dt)
        payment += 0.5 * g * g * dt + 0.5 * c1 * c1 * v * dt
    return np.array(means), np.array(variances), payment, means[-1] - payment


def grid_finite_n_law(kappa_bar, gamma, grid, n, R=0.0, nu_mean=0.0, nu_var=0.0):
    """(mu, s2, EU) of the n-agent principal value v_n of the unclamped multitask model.

    Under an x-independent slope gamma(t), no clamp (a b_bar far beyond the
    states acts as none) and a point-mass or normal initial law, the
    ensemble mean follows the linear Euler recursion
    Xbar_{k+1} = Phi Xbar_k + gamma_k dt + dWbar_k with Phi = 1 + kappa_bar dt,
    Xbar_0 ~ N(E nu, Var nu / n) and dWbar_k ~ N(0, dt / n); the level is
    Y_K = R + sum gamma_k^2 dt / 2 + sum gamma_k dWbar_k. So v_n = Xbar_K - Y_K
    is Gaussian, with a_k = Phi^(K-k-1):

        mu = Phi^K E nu + sum a_k gamma_k dt - sum gamma_k^2 dt / 2 - R,
        s2 = (Phi^(2K) Var nu + sum (a_k - gamma_k)^2 dt) / n,

    and EU = E[1 - exp(-v_n)] = 1 - exp(-mu + s2 / 2). Calls nothing in palab.
    """
    K = grid.steps
    dt = grid.horizon_T / K
    phi = 1.0 + kappa_bar * dt
    times = np.linspace(0.0, grid.horizon_T, K + 1)[:-1]
    g = np.array([float(gamma(t)) for t in times])
    a = phi ** (K - 1 - np.arange(K))
    mu = phi**K * nu_mean + float(np.sum(a * g)) * dt - float(np.sum(g * g)) * dt / 2.0 - R
    s2 = (phi ** (2 * K) * nu_var + float(np.sum((a - g) ** 2)) * dt) / n
    return mu, s2, 1.0 - math.exp(-mu + s2 / 2.0)


def variance_se(samples) -> tuple[float, float]:
    """Unbiased sample variance and its large-sample standard error.

    The SE is sqrt((m4 - var^2 (m-3)/(m-1)) / m), which reduces to
    var sqrt(2/(m-1)) for Gaussian samples.
    """
    arr = np.asarray(samples, dtype=float).ravel()
    m = arr.size
    var = float(arr.var(ddof=1))
    m4 = float(np.mean((arr - arr.mean()) ** 4))
    return var, float(np.sqrt(max(m4 - var**2 * (m - 3) / (m - 1), 0.0) / m))


def multitask_sweep(kappa_bar: float, b_bars, grid, U, nu=None):
    """(models, gamma, v_limit) of a gap_sweep over the multitask model at R = 0.

    One multitask_model per clamp level in b_bars, the closed-form slope
    gamma_hat and the limit value U(V_infinity), both on the grid's horizon.
    nu (default: point mass at 0) must have mean 0, the E[iota] of the limit.
    """
    models = [(b, multitask_model(kappa_bar, b, nu=nu, U=U)) for b in b_bars]
    am = MultitaskAnalytic(kappa_bar, T=grid.horizon_T)
    return models, am.gamma_hat, float(U(am.V_infinity))


def stream_increments(model, n, grid, seed):
    """The (n, steps) Brownian increments an ensemble of n reads from seed.

    Replays the documented stream layout of seed.generator(): the initial
    law's draws for n agents (n normals for normal_law, none for a point
    mass), then one length-n vector of standard normals per step, each
    scaled by sqrt(dt).
    """
    rng = seed.generator()
    model.initial_law_nu(n, rng)
    return (math.sqrt(grid.dt) * rng.standard_normal((grid.steps, n))).T


def reference_multitask_objective(model, kappa_bar, b_bar, policy, grid, x0, normals):
    """(value, se, crossings) of the multitask limit objective, written plainly.

    The stepper of the library, with each step spelled out for the
    multitask model (sigma = 1, alpha = z): the PolicyParam interval found
    by np.searchsorted, the fields c0 + c1 * x, the clamped mean as
    np.mean(np.clip(x, -b_bar, b_bar)) and the increment sqrt(dt) * Z with
    Z = normals(k) on every step. model supplies L, L_P, Upsilon, g^{-1} and
    g_P. crossings[k] tells whether the clip moved any state at step k.
    """
    dt = grid.dt
    sqdt = math.sqrt(dt)
    times = grid.nodes
    m_int = len(policy.knots) - 1
    x = x0
    lhat = np.zeros(len(x0))
    lp = np.float64(0.0)
    crossings = []
    for k in range(grid.steps):
        t = float(times[k])
        j = min(max(int(np.searchsorted(policy.knots, t, side="right")) - 1, 0), m_int - 1)
        z = policy.gamma_c0[j] + policy.gamma_c1[j] * x
        e = policy.aleph_c0[j] + policy.aleph_c1[j] * x
        a = np.where(z == 0.0, 0.0, z / 1.0)
        clipped = np.clip(x, -b_bar, b_bar)
        crossings.append(bool(np.any(clipped != x)))
        b = a + kappa_bar * float(np.mean(clipped))
        L = model.running_cost_L(t, x, None, e, a)
        x_next = x + b * dt
        x_next += sqdt * normals(k)
        assert np.all(np.abs(x_next) <= 1e8)
        lhat += L * dt
        lp = lp + model.principal_running_cost_LP(t, e) * dt
        x = x_next
    if np.shape(lp) != x.shape:
        lp = np.full(x.shape, lp)
    m = EmpiricalMeasure(x)

    def ghat_p(y):
        return float(model.principal_terminal_cost_gP(m, model.g_inverse(m, y)))

    y_T = model.reservation_R - float(np.mean(lhat))
    ups = np.asarray(model.production_utility_Upsilon(x), dtype=float)
    value = float(np.mean(ups)) - ghat_p(y_T) - float(np.mean(lp))
    h = 1e-6 * max(1.0, abs(y_T))
    slope = (ghat_p(y_T + h) - ghat_p(y_T - h)) / (2.0 * h)
    influence = ups - lp + slope * lhat
    se = float(np.std(influence, ddof=1) / math.sqrt(len(x)))
    return value, se, crossings
