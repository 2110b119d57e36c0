"""Contract construction and reward evaluation for the n-agent system.

A Contract is the triple (Y0, gamma, aleph) plus a truncation level l: the
fields actually written into the contract are gamma ^ l and aleph ^ l
(one-sided pointwise minimum; a symmetric clip is available behind a flag
for bounded-feedback experiments). The terminal payment is defined through
the ensemble certainty-equivalent process

    Y_{k+1} = Y_k  -  dt * mean_i H(t_k, X^i_k, mu_k, e^i_k, z^i_k)
                   +  mean_i [ z^i_k / sigma(t_k, X^i_k) * (X^i_{k+1} - X^i_k) ],

with z = gamma ^ l along the paths, and xi = g^{-1}(mu, Y_T). The same
one-step update (contract_y_step below) is used by the stored-path pricer
evaluate_terminal_payment, by contract_report while it simulates, and by
the n-player value estimator, so all three agree bit for bit on the same
draws, not just in distribution.

Because X^i_{k+1} - X^i_k = b_hat dt + sigma dW for an agent playing the
recommended response, the two H terms cancel pathwise and the update
reduces to -L_hat dt + z dW: the contract pays the reservation level in
expectation and the recommended response is optimal up to O(1/n) terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimates import MCEstimate, mean_se
from .measures import BatchedEmpiricalMeasure, EmpiricalMeasure, MeasureFlow
from .model import ModelSpec, identity_utility, reduced_coefficients, slope_over_sigma
from .sde_engine import (
    ParticlePaths,
    SeedSpec,
    SimGrid,
    _euler_steps,
    _initial_states,
    _replication_chunks,
)

MAX_DEVIATION_CELLS = 20_000


class ContractEvaluationError(RuntimeError):
    """g_inverse (or another terminal map) failed while pricing a contract."""


@dataclass(frozen=True)
class Contract:
    """Terminal-payment contract: initial level, slope field, rate field.

    gamma and aleph are (t, x) -> value callables that broadcast over state
    arrays. truncation_l caps both fields from above (value ^ l, the
    literal one-sided minimum); use math.inf for the untruncated contract,
    or symmetric=True to clip into [-l, l] instead.
    """

    Y0: float
    gamma: Callable
    aleph: Callable
    truncation_l: float = math.inf
    symmetric: bool = False

    def __post_init__(self):
        if math.isnan(self.truncation_l):
            raise ValueError("truncation_l must be a number or +inf")

    def _truncate(self, v):
        if math.isinf(self.truncation_l):
            return v
        if self.symmetric:
            return np.clip(v, -self.truncation_l, self.truncation_l)
        return np.minimum(v, self.truncation_l)

    def gamma_l(self, t, x):
        """The truncated slope gamma(t, x) ^ l."""
        return self._truncate(self.gamma(t, x))

    def aleph_l(self, t, x):
        """The truncated rate aleph(t, x) ^ l."""
        return self._truncate(self.aleph(t, x))


def _check_floor(contract: Contract, model: ModelSpec) -> None:
    if contract.Y0 < model.reservation_R - 1e-12:
        raise ValueError(
            f"contract Y0={contract.Y0} is below the reservation level "
            f"R={model.reservation_R}"
        )


def contract_y_step(y, dt: float, H, zsig, dX):
    """One ensemble step of the certainty-equivalent accumulation.

    Shared between evaluate_terminal_payment, contract_report and the
    n-player value estimator so all produce bit-identical Y paths on the
    same inputs: per step, take the ensemble mean of H and of z/sigma * dX,
    then accumulate.

    y is one float level for an (n,) ensemble, or a (batch,) array of levels
    for a (batch, n) stack of ensembles. H and z/sigma * dX are averaged
    over their last axis only where they have one: a scalar or (batch, 1)
    H is used as it is, since the mean of n copies of h need not be h bit
    for bit. Returns a float for a float y, else a (batch,) array.
    """

    def ensemble_mean(v):
        return np.mean(v, axis=-1) if np.ndim(v) else v

    y_next = y - dt * ensemble_mean(H) + ensemble_mean(zsig * dX)
    return float(y_next) if np.ndim(y) == 0 else y_next


def _grid_dt(times: np.ndarray) -> float:
    # Matches SimGrid.dt exactly for grids built by SimGrid.nodes.
    return (float(times[-1]) - float(times[0])) / (len(times) - 1)


def _g_inverse(model: ModelSpec, flow, y):
    try:
        out = model.g_inverse(flow, y)
    except Exception as exc:  # noqa: BLE001 - user-supplied map
        raise ContractEvaluationError(f"g_inverse failed at y={y!r}: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise ContractEvaluationError(f"g_inverse returned non-finite payment at y={y!r}")
    return out


def evaluate_terminal_payment(
    contract: Contract,
    model: ModelSpec,
    paths: ParticlePaths,
    flow: MeasureFlow,
) -> tuple[float, np.ndarray]:
    """Terminal payment xi and the ensemble Y path along simulated paths.

    Returns (xi, y_path) with y_path of length steps+1, y_path[0] = Y0 and
    xi = g^{-1}(flow, y_path[-1]). The paths are expected to come from
    simulate_particles under this contract's truncated fields.
    """
    _check_floor(contract, model)
    times = paths.times
    dt = _grid_dt(times)
    n_steps = paths.n_steps
    y_path = np.empty(n_steps + 1)
    y = float(contract.Y0)
    y_path[0] = y
    for k in range(n_steps):
        t = float(times[k])
        x = paths.states[:, k]
        m = flow.at(k)
        e = contract.aleph_l(t, x)
        z = contract.gamma_l(t, x)
        sig = model.vol_sigma(t, x)
        _, _, H = reduced_coefficients(model, t, x, m, e, z)
        dX = paths.states[:, k + 1] - paths.states[:, k]
        y = contract_y_step(y, dt, H, slope_over_sigma(z, sig), dX)
        y_path[k + 1] = y
    xi = float(_g_inverse(model, flow, y))
    return xi, y_path


def mkv_contract_payment(
    contract: Contract,
    model: ModelSpec,
    paths: ParticlePaths,
    flow: MeasureFlow,
    return_levels: bool = False,
):
    """Limit-regime payment: per-path levels, averaged, then inverted.

    Each path carries its own accumulation

        s^i = Y0 - sum_k H^i_k dt + sum_k (z/sigma)^i_k dX^i_k,

    and the payment is g^{-1}(flow, mean_i s^i) — the level average is
    taken before inverting g, matching the limit construction. Returns the
    scalar payment, or (payment, levels) with return_levels=True.
    """
    _check_floor(contract, model)
    times = paths.times
    dt = _grid_dt(times)
    levels = np.full(paths.n_particles, float(contract.Y0))
    for k in range(paths.n_steps):
        t = float(times[k])
        x = paths.states[:, k]
        m = flow.at(k)
        e = contract.aleph_l(t, x)
        z = contract.gamma_l(t, x)
        sig = model.vol_sigma(t, x)
        _, _, H = reduced_coefficients(model, t, x, m, e, z)
        dX = paths.states[:, k + 1] - paths.states[:, k]
        levels = levels - H * dt + slope_over_sigma(z, sig) * dX
    payment = float(_g_inverse(model, flow, float(np.mean(levels))))
    if return_levels:
        return payment, levels
    return payment


def contract_report(
    contract: Contract,
    model: ModelSpec,
    n: int,
    grid: SimGrid,
    replications: int,
    seed: SeedSpec,
) -> dict:
    """Simulate the contracted system and report across-replication stats.

    Replications are stepped together in (batch, n) chunks; each one
    simulates n agents playing the recommended response to the truncated
    contract fields and, in the same pass, accumulates the contract level Y,
    each agent's integral of L_hat dt and of L_P dt. Per replication it
    records the payment xi = g^{-1}(mu_T, Y_T), the average agent reward
    mean_i [int L_hat dt + g(mu_T, xi)], and the principal's pre-utility
    value v = mean_i [Upsilon(X^i_T) - int L_P dt] - g_P(mu_T, xi). Terminal
    maps run once per replication on the one-node flow of its terminal
    measure. Replication r draws from seed.child(r), exactly as
    simulate_particles would, so its payment equals
    evaluate_terminal_payment on those stored paths. The report gives
    across-replication estimates of E[xi] and the agent reward, plus the
    principal's value under both utility conventions: "principal_inside"
    averages U(v) over replications and "principal_outside" applies U to
    the averaged v (delta-method SE).

    A state past the blow-up threshold in any replication of a chunk raises
    SimulationBlowupError at the first step where the chunk breaches it.
    Overflow in the step arithmetic is left to the typed guards (blow-up,
    g^{-1}) instead of numpy warnings.
    """
    _check_floor(contract, model)
    if replications < 1:
        raise ValueError("replications must be >= 1")
    dt = grid.dt
    xi_vals = np.empty(replications)
    agent_vals = np.empty(replications)
    v_vals = np.empty(replications)
    u_vals = np.empty(replications)
    for reps, x, draws in _replication_chunks(model, n, replications, seed):
        y = np.full(len(reps), float(contract.Y0))
        lhat_acc = np.zeros(x.shape)
        lp_acc = np.zeros(x.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            for step in _euler_steps(model, contract.gamma_l, contract.aleph_l, x, grid, draws):
                y = contract_y_step(y, dt, step.H, step.zsig, step.x_next - x)
                lhat_acc = lhat_acc + step.L * dt
                lp_acc = lp_acc + model.principal_running_cost_LP(step.t, step.e) * dt
                x = step.x_next
        for i, r in enumerate(reps):
            flow1 = MeasureFlow.single(grid.horizon_T, EmpiricalMeasure(x[i]))
            xi = float(_g_inverse(model, flow1, float(y[i])))
            xi_vals[r] = xi
            g_term = float(model.terminal_utility_g(flow1, xi))
            agent_vals[r] = float(np.mean(lhat_acc[i] + g_term))
            v_vals[r] = float(np.mean(model.production_utility_Upsilon(x[i]) - lp_acc[i])) - float(
                model.principal_terminal_cost_gP(flow1, xi)
            )
            u_vals[r] = float(model.principal_utility_U(v_vals[r]))

    v_est = mean_se(v_vals)
    U = model.principal_utility_U
    h = 1e-6 * max(1.0, abs(v_est.value))
    slope = (float(U(v_est.value + h)) - float(U(v_est.value - h))) / (2.0 * h)
    outside = MCEstimate(
        value=float(U(v_est.value)), se=abs(slope) * v_est.se, n_samples=replications
    )
    return {
        "xi": mean_se(xi_vals),
        "agent_reward": mean_se(agent_vals),
        "principal_inside": mean_se(u_vals),
        "principal_outside": outside,
        "per_replication": {
            "xi": xi_vals.tolist(),
            "agent_reward": agent_vals.tolist(),
            "principal_value": v_vals.tolist(),
        },
    }


def joint_deviation_scan(
    contract: Contract,
    model: ModelSpec,
    action_grid,
    n: int,
    grid: SimGrid,
    replications: int,
    seed: SeedSpec,
) -> dict:
    """Paired reward change under constant joint deviations of all n agents.

    Every cell assigns each agent a constant action from action_grid (the
    full cartesian product, so len(action_grid)**n cells — keep n tiny); a
    baseline system where everyone plays the recommended response runs on
    the same Brownian draws. The reported gain per cell is the across-
    replication mean of (average agent reward under the deviation) minus
    (average agent reward under the recommendation), a paired difference
    with far smaller SE than either term alone. Cooperative optimality of
    the recommendation means no gain should exceed noise.

    Returns {"actions": (B, n), "gain": (B,), "se": (B,), "baseline":
    MCEstimate of the recommended-play reward}. Requires terminal maps that
    ignore the flow argument or accept batched measures. A deviation that
    drives any state past the blow-up threshold raises
    SimulationBlowupError, like every other simulation.
    """
    _check_floor(contract, model)
    action_grid = np.asarray(action_grid, dtype=float)
    B = action_grid.size ** n
    if B > MAX_DEVIATION_CELLS:
        raise ValueError(
            f"{B} deviation cells exceed the {MAX_DEVIATION_CELLS} cap; "
            "use a coarser action grid or fewer agents"
        )
    cells = np.array(list(itertools.product(action_grid, repeat=n)))
    rows = B + 1  # last row: everyone plays the recommendation
    dt = grid.dt

    def play(t, x, a_rec):
        a_play = np.array(np.broadcast_to(a_rec, x.shape))
        a_play[:B, :] = cells
        return a_play

    rewards = np.empty((replications, rows))
    for r in range(replications):
        rng = seed.generator(r)
        x = np.tile(_initial_states(model, n, rng), (rows, 1))
        y = np.full(rows, float(contract.Y0))
        run_acc = np.zeros((rows, n))
        draws = lambda k: rng.standard_normal(n)
        for step in _euler_steps(model, contract.gamma_l, contract.aleph_l, x, grid, draws, play):
            run_acc = run_acc + np.broadcast_to(step.L, x.shape) * dt
            dX = step.x_next - x
            y = (
                y
                - dt * np.mean(np.broadcast_to(step.H, x.shape), axis=1)
                + np.mean(np.broadcast_to(step.zsig * dX, x.shape), axis=1)
            )
            x = step.x_next
        flow1 = MeasureFlow.single(grid.horizon_T, BatchedEmpiricalMeasure(x))
        xi = np.asarray(_g_inverse(model, flow1, y), dtype=float)
        g_term = np.asarray(model.terminal_utility_g(flow1, xi), dtype=float)
        rewards[r] = np.mean(run_acc, axis=1) + g_term

    gains = rewards[:, :B] - rewards[:, B:]
    gain_mean = gains.mean(axis=0)
    if replications > 1:
        gain_se = gains.std(axis=0, ddof=1) / math.sqrt(replications)
    else:
        gain_se = np.zeros(B)
    return {
        "actions": cells,
        "gain": gain_mean,
        "se": gain_se,
        "baseline": mean_se(rewards[:, B]),
    }


def multitask_principal_formula(
    params,
    R: float,
    T: float,
    E_iota: float,
    n: int,
    U: Callable = identity_utility,
    noise_factor: float = 2.0,
    iota_var: float = 0.0,
    quad_nodes: int = 95,
) -> float:
    """The stated large-n expansion of the principal's inside-utility value.

    Evaluates E[ U( -R + e^{kT} mean(iota) + (1/2)int gamma_hat^2
    + (noise_factor/n) sum_i int gamma_hat dW^i ) ] by Gauss-Hermite
    quadrature, treating the argument as Gaussian with mean V_inf and
    variance e^{2kT} iota_var / n + noise_factor^2 int gamma_hat^2 / n.
    The default noise_factor of 2 reproduces the expansion as stated;
    direct simulation of the finite-n system shows the production and
    contract noise terms cancel instead of adding (see tests), so treat
    nonzero factors as an upper model of the fluctuation — exact only for
    linear U, where the noise terms average out either way.
    """
    from scipy.special import roots_hermitenorm

    from .mkv_control import analytic_multitask

    am = analytic_multitask(params, R=R, T=T, E_iota=E_iota)
    var = (
        noise_factor**2 * am.gamma_sq_integral / n
        + math.exp(2.0 * params.kappa_bar * T) * iota_var / n
    )
    s = math.sqrt(var)
    if s == 0.0:
        return float(U(am.V_infinity))
    nodes, weights = roots_hermitenorm(int(quad_nodes))
    vals = np.asarray(U(am.V_infinity + s * nodes), dtype=float)
    return float(np.sum(weights * vals) / math.sqrt(2.0 * math.pi))
