"""Finite-n principal value estimation and convergence measurement.

estimate_n_player_value simulates the n-agent system under a slope/rate
policy, builds the terminal payment through the same per-step accumulation
as the contract evaluator (bit-identical op order on the same draws), and
averages the principal's realized utility across replications, which are
stepped together as (batch, n) chunks of ensembles, each row on its own
stream. gap_sweep
runs the estimator over a grid of ensemble sizes and clamp levels for the
linear-interaction benchmark and reports the gap to the closed-form limit
value; fit_rate turns (n, gap) rows into a log-log convergence slope.

Replication r of any sweep cell draws from the generator keyed by that
cell's n-index and r alone, so cells that differ only in the clamp level
see identical Brownian draws (common random numbers) and their gaps are
directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .contracts import _g_inverse, contract_y_step
from .estimates import MCEstimate, mean_se
from .measures import EmpiricalMeasure, MeasureFlow
from .mkv_control import PolicyParam, analytic_multitask
from .model import ModelSpec, MultitaskParams, exp_saturating_utility, multitask_model
from .sde_engine import SeedSpec, SimGrid, _euler_steps, _replication_chunks

DEFAULT_N_CAP = 64


class InsufficientDataError(ValueError):
    """Too few usable points to fit a convergence rate."""


@dataclass(frozen=True)
class NPlayerPolicy:
    """Symmetric per-agent feedback pair for the n-agent system.

    z_fn is the per-agent martingale loading Z(t, x); the contract slope
    seen by agent i is n * Z(t, X^i) (the n-scaling identification), so a
    slope field gamma corresponds to the loading gamma / n. aleph_fn is the
    payment-rate field, applied as-is.
    """

    z_fn: Callable  # (t, x) -> per-agent loading Z; slope = n * Z
    aleph_fn: Callable  # (t, x) -> payment rate

    @classmethod
    def from_loading(cls, z: Callable, aleph: Optional[Callable] = None) -> "NPlayerPolicy":
        if aleph is None:
            aleph = lambda t, x: 0.0
        return cls(z_fn=z, aleph_fn=aleph)

    @classmethod
    def from_gamma(
        cls, gamma: Callable, n: int, aleph: Optional[Callable] = None
    ) -> "NPlayerPolicy":
        """Policy whose effective slope field is gamma (loading gamma/n)."""
        if aleph is None:
            aleph = lambda t, x: 0.0
        return cls(z_fn=lambda t, x: gamma(t, x) / n, aleph_fn=aleph)

    @classmethod
    def from_policy_param(cls, policy: PolicyParam, n: int) -> "NPlayerPolicy":
        return cls.from_gamma(policy.gamma_fn, n, aleph=policy.aleph_fn)


def estimate_n_player_value(
    model: ModelSpec,
    policy: NPlayerPolicy,
    n: int,
    grid: SimGrid,
    replications: int,
    seed: SeedSpec,
    u_inside: bool = True,
    n_cap: Optional[int] = DEFAULT_N_CAP,
    return_details: bool = False,
):
    """Across-replication estimate of the principal's n-agent value.

    Each replication simulates n agents playing the optimal response to the
    effective slope n * Z(t, x), accumulates the contract level Y with the
    shared per-step update, pays xi = g^{-1}(mu_T, Y_T), and records

        v = mean_i Upsilon(X^i_T) - g_P(mu_T, xi) - mean_i int L_P dt,

    then U(v) (u_inside=True, the default convention) or v itself. Returns
    the MCEstimate over replications; with return_details=True also a dict
    of the per-replication v, xi and Y_T arrays.

    Replications are stepped together in (batch, n) chunks, each row on its
    own stream, so results do not depend on the chunking. A non-finite
    payment raises ContractEvaluationError, as in contract_report. A state
    past the blow-up threshold in any replication of a chunk raises
    SimulationBlowupError whose step and t locate the first step at which
    the chunk breached it, which need not be the first failing replication.

    n above n_cap (default 64) is rejected to catch accidentally quadratic
    experiment sizes; pass n_cap=None to lift the guard deliberately (the
    sweep drivers do).
    """
    if n_cap is not None and n > n_cap:
        raise ValueError(
            f"n={n} exceeds n_cap={n_cap}; pass n_cap=None to run large ensembles"
        )
    if replications < 1:
        raise ValueError("replications must be >= 1")

    dt = grid.dt
    U = model.principal_utility_U
    gamma = lambda t, x: n * policy.z_fn(t, x)  # effective slope under the n-scaling

    v_vals = np.empty(replications)
    xi_vals = np.empty(replications)
    yT_vals = np.empty(replications)
    out = np.empty(replications)
    for reps, x, draws in _replication_chunks(model, n, replications, seed):
        y = np.full(len(reps), float(model.reservation_R))
        lp_acc = np.zeros(x.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            for step in _euler_steps(model, gamma, policy.aleph_fn, x, grid, draws):
                y = contract_y_step(y, dt, step.H, step.zsig, step.x_next - x)
                lp_acc = lp_acc + model.principal_running_cost_LP(step.t, step.e) * dt
                x = step.x_next
        for i, r in enumerate(reps):
            flow1 = MeasureFlow.single(grid.horizon_T, EmpiricalMeasure(x[i]))
            xi = float(_g_inverse(model, flow1, float(y[i])))
            v = (
                float(np.mean(model.production_utility_Upsilon(x[i])))
                - float(model.principal_terminal_cost_gP(flow1, xi))
                - float(np.mean(lp_acc[i]))
            )
            v_vals[r] = v
            xi_vals[r] = xi
            yT_vals[r] = y[i]
            out[r] = float(U(v)) if u_inside else v

    est = mean_se(out)
    if return_details:
        return est, {"v": v_vals, "xi": xi_vals, "y_T": yT_vals}
    return est


def gap_sweep(
    kappa_bar: float,
    n_values: Sequence[int],
    b_bar_values: Sequence[float],
    grid: SimGrid,
    replications: int,
    seed: SeedSpec,
    R: float = 0.0,
    T: float = 1.0,
    nu: Optional[Callable] = None,
    E_iota: float = 0.0,
    U: Callable = exp_saturating_utility,
    keep_values: bool = False,
) -> list[dict]:
    """Gap to the limit value over a grid of ensemble sizes and clamp levels.

    For every (n, b_bar) cell: build the linear-interaction model with that
    clamp, offer the closed-form optimal slope gamma_hat as the contract,
    estimate the n-agent value (utility inside), and record the signed gap
    U(V_inf) - J_n (positive when the finite system falls short of the
    limit). nu must be consistent with E_iota (defaults: point mass at 0).
    Cells sharing n share Brownian draws across clamp levels, so clamp
    comparisons at fixed n are paired; keep_values=True attaches the
    per-replication U(v) samples to each row for paired-difference SEs.
    """
    params_by_b = {float(b): MultitaskParams(kappa_bar, float(b)) for b in b_bar_values}
    am = analytic_multitask(MultitaskParams(kappa_bar), R=R, T=T, E_iota=E_iota)
    v_limit = float(U(am.V_infinity))

    rows = []
    for i_n, n in enumerate(n_values):
        policy = NPlayerPolicy.from_gamma(am.gamma_hat, int(n))
        for b_bar in b_bar_values:
            model = multitask_model(params_by_b[float(b_bar)], R=R, T=T, nu=nu, U=U)
            est = estimate_n_player_value(
                model,
                policy,
                int(n),
                grid,
                replications,
                seed.child(i_n),
                u_inside=True,
                n_cap=None,
                return_details=keep_values,
            )
            if keep_values:
                est, details = est
            row = {
                "n": int(n),
                "b_bar": float(b_bar),
                "v_n": est.value,
                "se": est.se,
                "v_limit": v_limit,
                "gap": v_limit - est.value,
            }
            if keep_values:
                row["values"] = np.array(
                    [float(model.principal_utility_U(v)) for v in details["v"]]
                )
            rows.append(row)
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
    if int(np.sum(mask)) < 3:
        raise InsufficientDataError(
            f"need >= 3 positive gaps to fit a rate, got {int(np.sum(mask))}"
        )
    lx = np.log(ns[mask])
    ly = np.log(gs[mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (intercept + slope * lx)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        n_used=int(np.sum(mask)),
    )
