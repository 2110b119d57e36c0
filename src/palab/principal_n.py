"""Finite-n principal value estimation and convergence measurement.

estimate_n_player_value simulates the n-agent system under a slope field
gamma and a rate field aleph on the contract pass that contract_report also
runs, and averages the principal's realized utility across replications.
The pass steps and prices replications together as (batch, n) chunks of
ensembles, each row on its own stream, so the same draws give the estimator
and contract_report bit-identical payments and values. gap_sweep runs the
estimator over a grid of ensemble sizes and the models it is given, and
reports each cell's gap to the limit value it is given: no model and no
closed form is built here. fit_rate turns (n, gap) rows into a log-log
convergence slope.

Replication r of any sweep cell draws from the generator keyed by that
cell's n-index and r alone, so cells that differ only in the clamp level
see identical Brownian draws (common random numbers) and their gaps are
directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .contracts import _contract_pass
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

    Each replication simulates n agents playing the optimal response to the
    slope field gamma(t, x) under the payment rate aleph(t, x), accumulates
    the contract level Y from R (one contract pass, as in contract_report),
    pays xi = g^{-1}(mu_T, Y_T), and records

        v = mean_i [Upsilon(X^i_T) - int L_P dt] - g_P(mu_T, xi),

    then U(v). Returns (MCEstimate of U(v) over replications, details), with
    details the pass's per-replication arrays y_T, xi, v, u = U(v) and the
    average agent reward agent = mean_i [int L dt + g(mu_T, xi)].

    Replications are stepped together in (batch, n) chunks, each row on its
    own stream, so results do not depend on the chunking. A non-finite
    payment raises ContractEvaluationError, and a non-finite level or
    priced value NumericDomainError, as in contract_report. A state past
    the blow-up threshold in any replication of a chunk raises
    SimulationBlowupError whose step and t locate the first step at which
    the chunk breached it, which need not be the first failing replication.
    """
    details = _contract_pass(model, gamma, aleph, model.reservation_R, n, grid, replications, seed)
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
    """Gap to a limit value over a grid of ensemble sizes and models.

    models is a sequence of (b_bar, model) cells, one per clamp level; a
    repeated b_bar still gives its own rows. For every n and every cell:
    offer the slope field gamma(t, x) as the contract (no payment rate),
    estimate the n-agent value (utility inside), and record the signed gap
    v_limit - J_n, positive when the finite system falls short of the limit
    value v_limit of these models on the grid's horizon. Cells sharing n
    share Brownian draws (seed.child(i_n)) across clamp levels, so clamp
    comparisons at fixed n are paired; each row carries its per-replication
    U(v) samples as "values" for paired-difference SEs.
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

    Gaps at or below zero carry no rate information on a log scale and are
    dropped; fewer than three usable points raise InsufficientDataError.
    """
    ns = np.asarray(n_values, dtype=float)
    gs = np.asarray(gaps, dtype=float)
    if ns.shape != gs.shape:
        raise ValueError("n_values and gaps must have the same length")
    mask = gs > 0
    used = int(np.sum(mask))
    if used < 3:
        raise InsufficientDataError(f"need >= 3 positive gaps to fit a rate, got {used}")
    lx = np.log(ns[mask])
    ly = np.log(gs[mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (intercept + slope * lx)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2, n_used=used)
