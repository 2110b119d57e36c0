"""Tests for the n-agent value estimator and convergence-rate fitting."""

import math
from dataclasses import replace

import numpy as np
import pytest

import conftest
from palab import sde_engine
from palab.contracts import Contract, ContractEvaluationError, evaluate_terminal_payment
from palab.mkv_control import PolicyParam, analytic_multitask
from palab.model import (
    MultitaskParams,
    identity_utility,
    multitask_model,
    normal_law,
)
from palab.principal_n import (
    InsufficientDataError,
    NPlayerPolicy,
    estimate_n_player_value,
    fit_rate,
    gap_sweep,
)
from palab.sde_engine import SeedSpec, SimGrid, SimulationBlowupError, simulate_particles

EXACT = 1e-12


def _zero(t, x):
    return 0.0


# ---------------------------------------------------------------------------
# policy wrappers
# ---------------------------------------------------------------------------


def test_policy_wrappers():
    gamma = lambda t, x: 2.0 + t
    pol = NPlayerPolicy.from_gamma(gamma, 4)
    # per-agent loading is gamma/n, so the effective slope n*Z is gamma again
    assert 4 * pol.z_fn(0.5, 0.0) == pytest.approx(2.5, abs=EXACT)
    assert pol.aleph_fn(0.0, 0.0) == 0.0
    direct = NPlayerPolicy.from_loading(lambda t, x: 0.25)
    assert direct.z_fn(0.3, 1.0) == 0.25
    pp = PolicyParam(
        knots=np.array([0.0, 1.0]),
        gamma_c0=np.array([3.0]),
        gamma_c1=np.zeros(1),
        aleph_c0=np.array([0.7]),
        aleph_c1=np.zeros(1),
    )
    bridged = NPlayerPolicy.from_policy_param(pp, 6)
    assert 6 * bridged.z_fn(0.2, 0.0) == pytest.approx(3.0, abs=EXACT)
    assert bridged.aleph_fn(0.2, 0.0) == 0.7


# ---------------------------------------------------------------------------
# the estimator itself
# ---------------------------------------------------------------------------


def test_matches_contract_pipeline_stepwise():
    # The n-agent estimator and the contract evaluator must produce the same
    # terminal level and payment on the same draws: both use the shared
    # per-step update, the same stream layout, and n a power of two so the
    # n * (gamma/n) round trip is exact.
    kappa, n, steps, reps = 0.5, 16, 50, 5
    am = analytic_multitask(MultitaskParams(kappa))
    model = multitask_model(MultitaskParams(kappa, b_bar=10.0), nu=normal_law())
    grid = SimGrid(1.0, steps)
    seed = SeedSpec(2718)
    policy = NPlayerPolicy.from_gamma(am.gamma_hat, n)
    _, details = estimate_n_player_value(
        model, policy, n, grid, reps, seed, return_details=True
    )
    contract = Contract(Y0=model.reservation_R, gamma=am.gamma_hat, aleph=_zero)
    for r in range(reps):
        paths, flow = simulate_particles(
            model, contract.gamma_l, contract.aleph_l, n, grid, seed.child(r)
        )
        xi, y_path = evaluate_terminal_payment(contract, model, paths, flow)
        assert abs(y_path[-1] - details["y_T"][r]) <= EXACT
        assert abs(xi - details["xi"][r]) <= EXACT


def test_chunked_replications_equal_lone_replays(monkeypatch):
    # replications are stepped together in (batch, n) chunks; capping the
    # batch so 7 replications run as chunks of 3, 3, 1 must still give every
    # replication exactly what a lone simulation of its stream gives
    kappa, n, reps = 0.5, 8, 7  # n a power of two: n * (gamma/n) is exact
    model = multitask_model(MultitaskParams(kappa, b_bar=1.0), R=0.1, nu=normal_law())
    grid = SimGrid(1.0, 12)
    seed = SeedSpec(404)
    monkeypatch.setattr(sde_engine, "_BATCH_ELEMENTS", 3 * n)
    chunks = sde_engine._replication_chunks(model, n, reps, seed)
    assert [len(r) for r, _, _ in chunks] == [3, 3, 1]
    gamma = lambda t, x: 0.8 + 0.3 * np.sin(x)
    policy = NPlayerPolicy.from_gamma(gamma, n)
    _, details = estimate_n_player_value(
        model, policy, n, grid, reps, seed, u_inside=False, return_details=True
    )
    contract = Contract(Y0=model.reservation_R, gamma=gamma, aleph=_zero)
    for r in range(reps):
        paths, flow = simulate_particles(model, gamma, _zero, n, grid, seed.child(r))
        xi, y_path = evaluate_terminal_payment(contract, model, paths, flow)
        v = float(np.mean(model.production_utility_Upsilon(paths.states[:, -1]))) - xi
        assert details["y_T"][r] == y_path[-1]
        assert details["xi"][r] == xi
        assert details["v"][r] == v


def test_nonfinite_payment_raises():
    # the estimator pays through the same checked g^{-1} as contract_report
    model = replace(multitask_model(MultitaskParams(0.5)), g_inverse=lambda flow, y: math.nan)
    policy = NPlayerPolicy.from_gamma(lambda t, x: 1.0, 4)
    with pytest.raises(ContractEvaluationError):
        estimate_n_player_value(model, policy, 4, SimGrid(1.0, 5), 3, SeedSpec(0))


def test_batched_blowup_raises_at_first_breach_in_chunk():
    # With kappa_bar = 1e6 every replication leaves the blow-up threshold;
    # on this seed replication 0 does so at step 3 and the others at step 2.
    # The replications share one (batch, n) chunk, so the error's step and t
    # locate the first step at which any of them breached it, not the step
    # of the first failing replication.
    model = multitask_model(MultitaskParams(1e6), nu=normal_law())
    grid = SimGrid(1.0, 20)
    seed = SeedSpec(0)
    policy = NPlayerPolicy.from_gamma(lambda t, x: 1.0, 4)
    with pytest.raises(SimulationBlowupError) as exc:
        estimate_n_player_value(model, policy, 4, grid, 6, seed)
    lone_steps = []
    for r in range(6):
        with pytest.raises(SimulationBlowupError) as lone:
            simulate_particles(model, lambda t, x: 1.0, _zero, 4, grid, seed.child(r))
        lone_steps.append(lone.value.step)
    assert min(lone_steps) < lone_steps[0]
    assert exc.value.step == min(lone_steps)
    assert exc.value.t == grid.nodes[exc.value.step]


def test_zero_loading_terminal_level_is_reservation():
    # Z = 0: H = 0 and the martingale term vanishes, so Y_T = R exactly
    model = multitask_model(MultitaskParams(0.5), R=0.4, nu=normal_law())
    policy = NPlayerPolicy.from_loading(lambda t, x: 0.0)
    est, details = estimate_n_player_value(
        model, policy, 8, SimGrid(1.0, 10), 6, SeedSpec(1), return_details=True
    )
    assert np.all(details["y_T"] == 0.4)
    assert np.all(details["xi"] == 0.4)


def test_single_agent_flat_slope_is_deterministic():
    # n = 1, kappa = 0, gamma = 1: the noise in production and in the
    # contract level cancels pathwise, leaving v = T/2 on every replication
    model = multitask_model(MultitaskParams(0.0))
    policy = NPlayerPolicy.from_gamma(lambda t, x: 1.0, 1)
    est, details = estimate_n_player_value(
        model, policy, 1, SimGrid(1.0, 64), 40, SeedSpec(5), return_details=True
    )
    assert np.max(np.abs(details["v"] - 0.5)) <= 1e-10
    assert abs(est.value - 0.5) <= 1e-10


def test_value_matches_closed_form_linear_utility():
    # with U = identity the expected n-agent value equals the limit value up
    # to the Euler quadrature bias, uniformly in n
    kappa = 0.5
    am = analytic_multitask(MultitaskParams(kappa))
    model = multitask_model(MultitaskParams(kappa, b_bar=10.0), U=identity_utility)
    grid = SimGrid(1.0, 250)
    policy = NPlayerPolicy.from_gamma(am.gamma_hat, 8)
    est = estimate_n_player_value(model, policy, 8, grid, 300, SeedSpec(31))
    v_inf = conftest.HALF_GAMMA_SQ_FROZEN[kappa]
    assert abs(est.value - v_inf) <= 3.0 * est.se + 0.01


def test_n_cap_guard():
    model = multitask_model(MultitaskParams(0.0))
    policy = NPlayerPolicy.from_gamma(lambda t, x: 1.0, 100)
    with pytest.raises(ValueError):
        estimate_n_player_value(model, policy, 100, SimGrid(1.0, 5), 2, SeedSpec(0))
    est = estimate_n_player_value(
        model, policy, 100, SimGrid(1.0, 5), 2, SeedSpec(0), n_cap=None
    )
    assert math.isfinite(est.value)
    with pytest.raises(ValueError):
        estimate_n_player_value(model, policy, 4, SimGrid(1.0, 5), 0, SeedSpec(0))


# ---------------------------------------------------------------------------
# gap sweeps
# ---------------------------------------------------------------------------


def test_gap_sweep_rows_and_pairing():
    rows = gap_sweep(
        kappa_bar=0.5,
        n_values=[4, 8],
        b_bar_values=[4.0, 10.0],
        grid=SimGrid(1.0, 20),
        replications=30,
        seed=SeedSpec(12),
        keep_values=True,
    )
    assert len(rows) == 4
    assert [(r["n"], r["b_bar"]) for r in rows] == [(4, 4.0), (4, 10.0), (8, 4.0), (8, 10.0)]
    for r in rows:
        assert r["gap"] == r["v_limit"] - r["v_n"]
        assert len(r["values"]) == 30
    # same n, different clamp: simulated on shared draws, so the paired
    # difference has far less scatter than the unpaired combination
    a, b = rows[0]["values"], rows[1]["values"]
    paired_sd = np.std(a - b, ddof=1)
    unpaired_sd = math.sqrt(np.var(a, ddof=1) + np.var(b, ddof=1))
    assert paired_sd < 0.5 * unpaired_sd
    # without keep_values the arrays are absent
    lean = gap_sweep(
        kappa_bar=0.5,
        n_values=[4],
        b_bar_values=[10.0],
        grid=SimGrid(1.0, 20),
        replications=5,
        seed=SeedSpec(12),
    )
    assert "values" not in lean[0]


def test_gap_vanishes_for_linear_utility():
    # the finite-n shortfall is a Jensen effect: with U = identity the gap
    # is pure discretization noise at every n
    rows = gap_sweep(
        kappa_bar=0.5,
        n_values=[4, 16],
        b_bar_values=[10.0],
        grid=SimGrid(1.0, 200),
        replications=200,
        seed=SeedSpec(77),
        U=identity_utility,
    )
    for r in rows:
        assert abs(r["gap"]) <= 3.0 * r["se"] + 0.01


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_fit_rate_exact_power_laws():
    ns = np.array([10.0, 100.0, 1000.0, 10000.0])
    fit = fit_rate(ns, 3.0 * ns**-0.5)
    assert abs(fit.slope + 0.5) <= 1e-12
    assert abs(fit.intercept - math.log(3.0)) <= 1e-12
    assert abs(fit.r_squared - 1.0) <= 1e-12
    assert fit.n_used == 4
    fit2 = fit_rate(ns, 0.2 / ns)
    assert abs(fit2.slope + 1.0) <= 1e-12


def test_fit_rate_drops_nonpositive_gaps():
    ns = [10.0, 100.0, 1000.0, 10000.0]
    fit = fit_rate(ns, [1.0, 0.1, -0.5, 0.001])  # the negative point is ignored
    assert fit.n_used == 3
    with pytest.raises(InsufficientDataError):
        fit_rate(ns, [1.0, 0.1, -0.5, 0.0])  # only two usable points
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0], [1.0])
