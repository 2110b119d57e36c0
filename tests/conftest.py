"""Shared helpers for the test suite.

The closed-form quantities of the linear-interaction model are checked
against an independent composite-Simpson quadrature (written before the
library code, frozen below). Tests import these via plain `import conftest`
(pytest puts this directory on sys.path).
"""

import numpy as np
from hypothesis import settings

from palab.mkv_control import analytic_multitask
from palab.model import MultitaskParams, multitask_model

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
    models = [(b, multitask_model(MultitaskParams(kappa_bar, b), nu=nu, U=U)) for b in b_bars]
    am = analytic_multitask(MultitaskParams(kappa_bar), T=grid.horizon_T)
    return models, am.gamma_hat, float(U(am.V_infinity))
