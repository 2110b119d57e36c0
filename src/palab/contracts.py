"""Contract construction and reward evaluation for the n-agent system.

A Contract is the triple (Y0, gamma, aleph) with a truncation level l; the
fields written into it are gamma ^ l and aleph ^ l. It pays
xi = g^{-1}(mu_T, Y_T), where mu_T is the terminal measure and Y the
ensemble certainty-equivalent process

    Y_{k+1} = Y_k  -  dt * mean_i H(t_k, X^i_k, mu_k, e^i_k, z^i_k)
                   +  mean_i [ z^i_k / sigma(t_k, X^i_k) * (X^i_{k+1} - X^i_k) ],

with z = gamma ^ l along the paths. For an agent playing the recommended
response, X^i_{k+1} - X^i_k = b_hat dt + sigma dW, so the H terms cancel
pathwise and the update is -L_hat dt + z dW: the contract pays the
reservation level in expectation, and the recommended response is optimal
up to O(1/n) terms.

One simulating pass, _contract_pass, prices a Contract for contract_report
(with the CLI's path dump as one more row of its pass, recorded by
sde_engine's path recorder, the one simulate_particles uses), the
joint-deviation scan and principal_n's estimator, and checks its floor
Y0 >= R once, before any stream is read. Each row of the pass is one
SeedSpec, handed to sde_engine's stream reader as it is: this module never
takes a seed apart.
The stored-path replay evaluate_terminal_payment is a separate pricer, so
that it can check the pass, but it shares the pass's node evaluation
(model._node) and Y step (contract_y_step), so on the same draws the two
agree bit for bit. It and mkv_contract_payment check the floor themselves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .estimates import MCEstimate, _central_slope, mean_se
from .measures import EmpiricalMeasure, _mean_last
from .model import ModelSpec, NumericDomainError, _node
from .sde_engine import ParticlePaths, SeedSpec, SimGrid, _euler_steps, _recorded, _replication_chunks

MAX_DEVIATION_CELLS = 20_000


def _over_deviation_cap(actions, n: int) -> bool:
    """Whether actions**n deviation cells exceed MAX_DEVIATION_CELLS.

    The exponent is capped at 64, so a large n never builds a huge integer:
    any grid of >= 2 actions is over the cap by then, and a one-action grid
    has one cell whatever the exponent.
    """
    return actions ** min(n, 64) > MAX_DEVIATION_CELLS


class ContractEvaluationError(RuntimeError):
    """g_inverse (or another terminal map) failed while pricing a contract."""


@dataclass(frozen=True)
class Contract:
    """Terminal-payment contract: initial level, slope field, rate field.

    gamma and aleph are (t, x) -> value callables that broadcast over state
    arrays. truncation_l caps both fields from above (the one-sided minimum
    value ^ l), or clips them into [-l, l] with symmetric=True; math.inf
    leaves them untruncated, and NaN, -inf or a symmetric l below 0 raises
    ValueError.
    """

    Y0: float
    gamma: Callable
    aleph: Callable
    truncation_l: float = math.inf
    symmetric: bool = False

    def __post_init__(self):
        if not self.truncation_l > -math.inf:  # NaN fails this test too
            raise ValueError("truncation_l must be a number or +inf")
        if self.symmetric and self.truncation_l < 0:
            raise ValueError(f"a symmetric truncation_l must be >= 0, got {self.truncation_l}")

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
    """Y_{k+1} from Y_k = y: the ensemble means of H and of z/sigma * dX, accumulated.

    y is a float level for an (n,) ensemble, or a (batch,) array for a
    (batch, n) stack. H and zsig * dX are averaged over their last axis where
    they have one; a scalar or (batch, 1) H is used as it is, since the mean
    of n copies of h need not be h bit for bit. Returns Y_{k+1} in y's shape.
    """

    def ensemble_mean(v):
        return _mean_last(v) if np.ndim(v) else v

    return y - dt * ensemble_mean(H) + ensemble_mean(zsig * dX)


def _g_inverse(model: ModelSpec, m: EmpiricalMeasure, y):
    """g^{-1}(m, y); a failure or a non-finite payment raises ContractEvaluationError."""
    # The message is built only on failure, and names a column of levels by
    # its range so that it stays on one line.
    at = lambda: f"y={float(y)!r}" if np.ndim(y) == 0 else f"y in [{float(np.min(y))!r}, {float(np.max(y))!r}]"
    try:
        out = model.g_inverse(m, y)
    except Exception as exc:  # noqa: BLE001 - user-supplied map
        raise ContractEvaluationError(f"g_inverse failed at {at()}: {exc}") from exc
    if not np.isfinite(out).all():
        raise ContractEvaluationError(f"g_inverse returned non-finite payment at {at()}")
    return out


def _check_level(y, t: float) -> None:
    if not np.isfinite(y).all():
        raise NumericDomainError(f"contract level went non-finite at t={t:.6g}")


def _replay_steps(contract: Contract, model: ModelSpec, paths: ParticlePaths):
    """Per step of stored paths: (t, dt, H, z/sigma, dX), recomputed at each left node."""
    times, dt = paths.grid.nodes, paths.grid.dt
    for k in range(paths.states.shape[1] - 1):
        t = float(times[k])
        x = paths.states[:, k]
        m = EmpiricalMeasure(x)
        e = contract.aleph_l(t, x)
        _, zsig, _, b_hat, L_hat = _node(model, t, x, m, e, contract.gamma_l(t, x))
        yield t, dt, b_hat * zsig + L_hat, zsig, paths.states[:, k + 1] - x


def evaluate_terminal_payment(
    contract: Contract,
    model: ModelSpec,
    paths: ParticlePaths,
) -> tuple[float, np.ndarray]:
    """(xi, y_path): the ensemble Y path along stored paths and the payment it makes.

    y_path has length steps+1, y_path[0] = Y0 and xi = g^{-1}(mu_T, y_path[-1]).
    The paths should come from simulate_particles under this contract's
    truncated fields. A non-finite level raises NumericDomainError at its step;
    numpy's overflow warnings are silenced in favour of that guard.
    """
    _check_floor(contract, model)
    y_path = [float(contract.Y0)]
    with np.errstate(over="ignore", invalid="ignore"):
        for t, dt, H, zsig, dX in _replay_steps(contract, model, paths):
            y_path.append(contract_y_step(y_path[-1], dt, H, zsig, dX))
            _check_level(y_path[-1], t)
        xi = float(_g_inverse(model, EmpiricalMeasure(paths.states[:, -1]), y_path[-1]))
    return xi, np.array(y_path)


def mkv_contract_payment(
    contract: Contract,
    model: ModelSpec,
    paths: ParticlePaths,
) -> tuple[float, np.ndarray]:
    """(payment, levels): limit-regime payment along stored paths from per-path levels.

    Path i accumulates s^i = Y0 - sum_k H^i_k dt + sum_k (z/sigma)^i_k dX^i_k,
    and the payment is g^{-1}(mu_T, mean_i s^i). This is the contract of the
    principal-agent problem with McKean-Vlasov dynamics: on the multitask
    model with gamma_hat it pays R + (1/2) int gamma_hat^2 in expectation and
    leaves the principal V_infinity. levels holds the n terminal s^i. A
    non-finite level raises NumericDomainError at its step, as in
    evaluate_terminal_payment.
    """
    _check_floor(contract, model)
    levels = np.full(paths.states.shape[0], float(contract.Y0))
    with np.errstate(over="ignore", invalid="ignore"):
        for t, dt, H, zsig, dX in _replay_steps(contract, model, paths):
            levels = levels - H * dt + zsig * dX
            _check_level(levels, t)
        payment = _g_inverse(model, EmpiricalMeasure(paths.states[:, -1]), float(_mean_last(levels)))
    return float(payment), levels


def _price(model: ModelSpec, x: np.ndarray, y: np.ndarray, l_acc, lp_acc) -> dict:
    """The (batch, 1) columns of _contract_pass for terminal states x, shape (batch, n), at levels y.

    l_acc and lp_acc hold each agent's int L dt and int L_P dt, scalars or
    arrays that broadcast against x. Each terminal map is called once, on
    the stacked terminal measure.
    """
    m = EmpiricalMeasure(x)
    level = y[:, None]

    def column(v):
        return np.broadcast_to(np.asarray(v, dtype=float), level.shape)

    def average(v):
        return _mean_last(np.broadcast_to(v, x.shape), keepdims=True)

    xi = column(_g_inverse(model, m, level))
    v = average(model.production_utility_Upsilon(x) - lp_acc) - column(
        model.principal_terminal_cost_gP(m, xi)
    )
    u = column(model.principal_utility_U(v))
    agent = average(l_acc + column(model.terminal_utility_g(m, xi)))
    priced = {"y_T": level, "xi": xi, "v": v, "u": u, "agent": agent}
    for name, col in priced.items():
        if not np.isfinite(col).all():
            raise NumericDomainError(f"contract pass priced a non-finite {name}")
    return priced


def _contract_pass(
    contract: Contract,
    model: ModelSpec,
    n: int,
    grid: SimGrid,
    replications: int,
    seed: SeedSpec,
    play: Optional[Callable] = None,
    copies: int = 1,
    paths_seed: Optional[SeedSpec] = None,
) -> dict:
    """Simulate the n-agent system under contract and price every replication.

    The contract's Y0 must be at or above the reservation level R, else
    ValueError before any stream is read. Replication r reads the stream of
    seed.child(r), as simulate_particles on seed.child(r) would; its agents
    play the recommended response to contract.gamma_l, or play(t, x, a_star),
    under the rate contract.aleph_l, while Y, started at contract.Y0, follows
    contract_y_step. With copies > 1 each replication runs as that many
    consecutive rows.
    Returns per-row arrays, replications * copies long, which do not depend
    on how replications are chunked:

        y_T    terminal level Y_T
        xi     payment g^{-1}(mu_T, Y_T)
        v      principal's value mean_i [Upsilon(X^i_T) - int L_P dt] - g_P(mu_T, xi)
        u      U(v)
        agent  average agent reward mean_i [int L dt + g(mu_T, xi)], L at the played action

    Guards: a non-finite level or priced value raises NumericDomainError, and
    a g^{-1} that fails or returns a non-finite payment
    ContractEvaluationError. A state past the blow-up threshold raises
    SimulationBlowupError at the first step where any row of its chunk
    breaches it, which need not be in the first failing replication. numpy's
    overflow warnings are silenced in favour of these guards. A seed or
    paths_seed that is not a SeedSpec raises TypeError.

    With paths_seed, any SeedSpec, one more row, on the stream of paths_seed,
    steps after the replications under the same guards; its states come back
    as "paths", a ParticlePaths equal to simulate_particles on paths_seed,
    and it enters no per-row array.
    """
    _check_floor(contract, model)
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if not isinstance(seed, SeedSpec):  # refused before seed.child is looked up
        raise TypeError(f"seed must be a SeedSpec, got {type(seed)!r}")
    seeds = [seed.child(r) for r in range(replications)] + ([] if paths_seed is None else [paths_seed])
    dt = grid.dt
    cols, paths = {}, None
    for reps, x, dWs in _replication_chunks(model, n, grid, seeds, copies):
        steps = _euler_steps(model, contract.gamma_l, contract.aleph_l, x, grid, dWs, play)
        if replications in reps:  # the chunk holds the paths_seed row
            paths = ParticlePaths(grid, np.empty((n, grid.steps + 1)))
            steps = _recorded(steps, x, (replications - reps.start) * copies, paths.states)
        y = np.full(len(x), float(contract.Y0))
        # L and L_P are summed as scalars while they stay ones (each broadcasts
        # to an array if it ever returns one); each element sees the same
        # additions, and _price averages a scalar as n equal entries.
        l_acc = lp_acc = np.float64(0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            for step in steps:
                y = contract_y_step(y, dt, step.H, step.zsig, step.x_next - x)
                _check_level(y, step.t)
                l_acc = l_acc + step.L * dt
                lp_acc = lp_acc + model.principal_running_cost_LP(step.t, step.e) * dt
                x = step.x_next
            priced = _price(model, x, y, l_acc, lp_acc)
        rows = slice(reps.start * copies, reps.stop * copies)
        for name, col in priced.items():
            cols.setdefault(name, np.empty(len(seeds) * copies))[rows] = col[:, 0]
    out = {name: col[: replications * copies] for name, col in cols.items()}  # not the paths_seed row
    if paths is not None:
        out["paths"] = paths
    return out


def contract_report(
    contract: Contract,
    model: ModelSpec,
    n: int,
    grid: SimGrid,
    replications: int,
    seed: SeedSpec,
    paths_seed: Optional[SeedSpec] = None,
) -> dict:
    """Across-replication estimates for the contract, from one _contract_pass.

    The pass prices the contract whole and checks its floor: a Y0 below the
    reservation level R raises ValueError. Replication r draws from
    seed.child(r) as simulate_particles would, so its payment equals
    evaluate_terminal_payment on those stored paths. Reports
    E[xi], the agent reward and the principal's value under both utility
    conventions: "principal_inside" averages U(v) over replications, and
    "principal_outside" applies U to the averaged v (delta-method SE).

    With paths_seed, any SeedSpec, the same pass also steps the ensemble
    simulate_particles would draw from paths_seed, and the result gains
    "paths": a ParticlePaths equal to that call's bit for bit. That ensemble
    is guarded like a replication, so its blow-up, non-finite level or failed
    payment raises as theirs would, but it enters no estimate and no
    per_replication list.
    """
    res = _contract_pass(contract, model, n, grid, replications, seed, paths_seed=paths_seed)
    v_est = mean_se(res["v"])
    U = model.principal_utility_U
    se_outside = abs(_central_slope(U, v_est.value)) * v_est.se
    outside = MCEstimate(value=float(U(v_est.value)), se=se_outside)
    report = {
        "xi": mean_se(res["xi"]),
        "agent_reward": mean_se(res["agent"]),
        "principal_inside": mean_se(res["u"]),
        "principal_outside": outside,
        "per_replication": {
            "xi": res["xi"].tolist(),
            "agent_reward": res["agent"].tolist(),
            "principal_value": res["v"].tolist(),
        },
    }
    if paths_seed is not None:
        report["paths"] = res["paths"]
    return report


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

    Each cell gives every agent a constant action from action_grid, over the
    full cartesian product: len(action_grid)**n cells, at most
    MAX_DEVIATION_CELLS, else ValueError. A cell's gain is the
    across-replication mean of the average agent reward under the deviation
    minus that under the recommended response on the same draws, a paired
    difference with a far smaller SE than either term. Cooperative optimality
    means no gain should exceed noise. All cells of a replication and its
    baseline are rows of one _contract_pass on that replication's draws,
    which prices the contract whole and checks its floor: a Y0 below the
    reservation level R raises ValueError, after the cell cap. Returns
    {"actions": (B, n), "gain": (B,), "se": (B,), "baseline": MCEstimate of
    the recommended-play reward}.
    """
    action_grid = np.asarray(action_grid, dtype=float)
    if _over_deviation_cap(action_grid.size, n):
        raise ValueError(
            f"({action_grid.size} actions)^(n={n}) deviation cells exceed the "
            f"{MAX_DEVIATION_CELLS} cap; use a coarser action grid or fewer agents"
        )
    cells = np.array(list(itertools.product(action_grid, repeat=n)))
    B = len(cells)
    rows = B + 1  # last row: everyone plays the recommendation

    def play(t, x, a_rec):
        a_play = np.array(np.broadcast_to(a_rec, x.shape))
        a_play.reshape(-1, rows, n)[:, :B, :] = cells
        return a_play

    res = _contract_pass(contract, model, n, grid, replications, seed, play=play, copies=rows)
    rewards = res["agent"].reshape(replications, rows)

    gain = mean_se(rewards[:, :B] - rewards[:, B:])
    return {
        "actions": cells,
        "gain": gain.value,
        "se": gain.se,
        "baseline": mean_se(rewards[:, B]),
    }
