"""Finite-n principal value estimation and convergence measurement.

estimate_n_player_value averages the principal's realized utility over
replications of the n-agent system, on the contract pass that
contract_report also runs, so on the same draws the two give bit-identical
payments and values. gap_sweep runs it over a grid of ensemble sizes and the
(b_bar, model) cells it is given, and reports each cell's gap to the limit
value it is given: no model and no closed form is built here. fit_rate
turns (n, gap) rows into a log-log convergence slope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .contracts import Contract, _contract_pass
from .estimates import MCEstimate, mean_se
from .model import ModelSpec
from .sde_engine import SeedSpec, SimGrid


class InsufficientDataError(ValueError):
    """Too few usable points to fit a convergence rate."""


def estimate_n_player_value(
    model: ModelSpec,
    gamma: Callable,
    aleph: Callable,
    n: int,
    grid: SimGrid,
    replications: int,
    seed: SeedSpec,
) -> tuple[MCEstimate, dict]:
    """Across-replication estimate of the principal's n-agent value.

    The contract priced is Contract(R, gamma, aleph): its level Y starts at
    the reservation level R, so its floor holds. Each replication simulates
    n agents playing the optimal response to the slope field gamma(t, x)
    under the payment rate aleph(t, x), pays xi = g^{-1}(mu_T, Y_T), and
    records U(v) with v = mean_i [Upsilon(X^i_T) - int L_P dt] - g_P(mu_T, xi).
    Returns (MCEstimate of U(v), details), where details are the
    per-replication arrays of contracts._contract_pass, whose guards apply.
    """
    contract = Contract(model.reservation_R, gamma, aleph)
    details = _contract_pass(contract, model, n, grid, replications, seed)
    return mean_se(details["u"]), details


def gap_sweep(
    models: Sequence[tuple[float, ModelSpec]],
    gamma: Callable,
    v_limit: float,
    n_values: Sequence[int],
    grid: SimGrid,
    replications: int,
    seed: SeedSpec,
) -> list[dict]:
    """Signed gap v_limit - J_n over a grid of ensemble sizes and (b_bar, model) cells.

    For every n and every cell (a repeated b_bar still gives its own rows),
    the slope field gamma(t, x) is offered as the contract with no payment
    rate and J_n is the n-agent value, utility inside. Cells sharing n share
    their draws (seed.child(i_n)), so clamp comparisons at fixed n are
    paired; each row carries its per-replication U(v) as "values".
    """
    no_rate = lambda t, x: 0.0

    rows = []
    for i_n, n in enumerate(n_values):
        n = int(n)
        # gamma through the per-agent loading gamma / n and back: the round
        # trip moves the last bit at some n, and the recorded sweep results
        # keep it until they are re-recorded (ROADMAP item 6).
        gamma_n = lambda t, x, n=n: n * (gamma(t, x) / n)
        for b_bar, model in models:
            est, details = estimate_n_player_value(
                model, gamma_n, no_rate, n, grid, replications, seed.child(i_n)
            )
            rows.append({
                "n": n,
                "b_bar": float(b_bar),
                "v_n": est.value,
                "se": est.se,
                "v_limit": v_limit,
                "gap": v_limit - est.value,
                "values": details["u"],
            })
    return rows


@dataclass(frozen=True)
class RateFit:
    """OLS fit of log(gap) = intercept + slope * log(n)."""

    slope: float
    intercept: float
    r_squared: float
    n_used: int


def fit_rate(n_values: Sequence[float], gaps: Sequence[float]) -> RateFit:
    """Log-log convergence-rate fit, ignoring non-positive gaps.

    Gaps at or below zero (or NaN) carry no rate information on a log scale
    and are dropped, whatever their n; a kept point whose n is not finite and
    > 0, or whose gap is not finite, raises ValueError. Fewer than three
    usable points, or usable points at fewer than two distinct n (a slope no
    data determines), raise InsufficientDataError.
    """
    ns = np.asarray(n_values, dtype=float)
    gs = np.asarray(gaps, dtype=float)
    if ns.shape != gs.shape:
        raise ValueError("n_values and gaps must have the same length")
    keep = gs > 0
    ns, gs = ns[keep], gs[keep]
    bad = ~(np.isfinite(ns) & (ns > 0) & np.isfinite(gs))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"kept point n={ns[i]:g}, gap={gs[i]:g}: need a finite n > 0 and a finite gap")
    used = len(ns)
    if used < 3:
        raise InsufficientDataError(f"need >= 3 positive gaps to fit a rate, got {used}")
    lx = np.log(ns)
    if np.all(lx == lx[0]):
        raise InsufficientDataError(f"need >= 2 distinct n to fit a rate, got only n={ns[0]:g}")
    ly = np.log(gs)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (intercept + slope * lx)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2, n_used=used)
