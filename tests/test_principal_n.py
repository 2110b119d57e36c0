"""Tests for the n-agent value estimator and convergence-rate fitting."""

import math
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import conftest
from palab import sde_engine
from palab.contracts import (
    Contract,
    ContractEvaluationError,
    contract_report,
    evaluate_terminal_payment,
    joint_deviation_scan,
    mkv_contract_payment,
)
from palab.mkv_control import MultitaskAnalytic, evaluate_limit_objective
from palab.model import (
    NumericDomainError,
    exp_saturating_utility,
    identity_utility,
    multitask_model,
    normal_law,
    point_mass,
    quadratic_generic_model,
)
from palab.principal_n import (
    InsufficientDataError,
    estimate_n_player_value,
    fit_rate,
    gap_sweep,
)
from palab.sde_engine import (
    SeedSpec,
    SimGrid,
    SimulationBlowupError,
    simulate_particles,
    simulate_terminal_measure,
)

EXACT = 1e-12


def _zero(t, x):
    return 0.0


# ---------------------------------------------------------------------------
# the estimator itself
# ---------------------------------------------------------------------------


def test_matches_contract_pipeline_stepwise():
    # The n-agent estimator and the contract evaluator must produce the same
    # terminal level and payment on the same draws: both use the shared
    # per-step update and the same stream layout. With L_P = 0 the estimator
    # and contract_report also price each replication identically, bit for
    # bit: the same xi, v and U(v).
    kappa, n, steps, reps = 0.5, 16, 50, 5
    am = MultitaskAnalytic(kappa)
    model = multitask_model(kappa, b_bar=10.0, nu=normal_law(), U=exp_saturating_utility)
    grid = SimGrid(1.0, steps)
    seed = SeedSpec(2718)
    _, details = estimate_n_player_value(model, am.gamma_hat, _zero, n, grid, reps, seed)
    contract = Contract(Y0=model.reservation_R, gamma=am.gamma_hat, aleph=_zero)
    report = contract_report(contract, model, n, grid, reps, seed)["per_replication"]
    assert details["xi"].tolist() == report["xi"]
    assert details["v"].tolist() == report["principal_value"]
    assert details["u"].tolist() == [float(model.principal_utility_U(v)) for v in report["principal_value"]]
    for r in range(reps):
        paths = simulate_particles(
            model, contract.gamma_l, contract.aleph_l, n, grid, seed.child(r)
        )
        xi, y_path = evaluate_terminal_payment(contract, model, paths)
        assert abs(y_path[-1] - details["y_T"][r]) <= EXACT
        assert abs(xi - details["xi"][r]) <= EXACT


@pytest.mark.parametrize("model_name", ["multitask", "quadratic"])
def test_estimator_agent_reward_equals_contract_report(model_name):
    # the estimator's details carry the pass's average agent reward, priced
    # exactly as contract_report prices it on the same seed
    if model_name == "multitask":
        model = multitask_model(0.5, b_bar=1.0, R=0.1, nu=normal_law())
        gamma, aleph = (lambda t, x: 0.8 + 0.3 * np.sin(x)), (lambda t, x: 0.2 * x)
    else:
        model = quadratic_generic_model(a_base=0.3, sigma0=0.7, nu=normal_law())
        gamma, aleph = (lambda t, x: 0.5 + 0.3 * np.sin(x)), _zero
    n, grid, reps, seed = 6, SimGrid(1.0, 10), 5, SeedSpec(93)
    _, details = estimate_n_player_value(model, gamma, aleph, n, grid, reps, seed)
    contract = Contract(Y0=model.reservation_R, gamma=gamma, aleph=aleph)
    report = contract_report(contract, model, n, grid, reps, seed)
    assert details["agent"].tolist() == report["per_replication"]["agent_reward"]


def test_chunked_replications_equal_lone_replays(monkeypatch):
    # replications are stepped together in (batch, n) chunks; capping the
    # batch so 7 replications run as chunks of 3, 3, 1 must still give every
    # replication of both estimators exactly what a lone simulation of its
    # stream gives. The payment map reads the measure, so it sees the chunk's
    # stack: a level handed to it as a (batch,) row instead of a (batch, 1)
    # column would broadcast to (batch, batch).
    kappa, n, reps = 0.5, 8, 7
    model = replace(
        multitask_model(kappa, b_bar=1.0, R=0.1, nu=normal_law()),
        g_inverse=lambda m, y: y + m.mean(),
    )
    grid = SimGrid(1.0, 12)
    seed = SeedSpec(404)
    monkeypatch.setattr(sde_engine, "_BATCH_ELEMENTS", 3 * n)
    keys = [(r,) for r in range(reps)]
    chunks = sde_engine._replication_chunks(model, n, grid, [seed.child(*k) for k in keys])
    assert [len(r) for r, _, _ in chunks] == [3, 3, 1]
    gamma = lambda t, x: 0.8 + 0.3 * np.sin(x)
    _, details = estimate_n_player_value(model, gamma, _zero, n, grid, reps, seed)
    contract = Contract(Y0=model.reservation_R, gamma=gamma, aleph=_zero)
    report = contract_report(contract, model, n, grid, reps, seed)
    for r in range(reps):
        paths = simulate_particles(model, gamma, _zero, n, grid, seed.child(r))
        xi, y_path = evaluate_terminal_payment(contract, model, paths)
        v = float(np.mean(model.production_utility_Upsilon(paths.states[:, -1]))) - xi
        assert details["y_T"][r] == y_path[-1]
        assert details["xi"][r] == xi
        assert report["per_replication"]["xi"][r] == xi
        assert details["v"][r] == v


@given(
    model=st.one_of(
        st.builds(
            lambda kappa, b_bar: multitask_model(kappa, b_bar, R=0.1, nu=normal_law()),
            st.floats(-1.0, 1.0),
            st.sampled_from([math.inf, 0.5, 2.0]),
        ),
        st.builds(
            lambda a_base, sigma0: quadratic_generic_model(a_base, sigma0, nu=normal_law()),
            st.floats(-1.0, 1.0),
            st.sampled_from([1.0, 0.7, 2.5]) | st.floats(0.1, 4.0),
        ),
    ),
    n=st.integers(1, 6),
    reps=st.integers(1, 6),
    key=st.integers(0, 2**16),
    cap_rows=st.integers(1, 4),
    slope=st.floats(-1.0, 1.5),
)
@settings(max_examples=15)
def test_results_do_not_depend_on_chunk_cap(model, n, reps, key, cap_rows, slope):
    # a random small cap on the replication batch (chunks of cap_rows rows)
    # must give bit for bit what one chunk of every replication gives; this
    # runs the float-sigma step paths on (batch, n) states. The deviation
    # scan's 2**n + 1 rows per replication exceed any such cap, so it runs
    # one replication per chunk against all of them in one.
    grid, seed = SimGrid(1.0, 6), SeedSpec(key)
    gamma = lambda t, x: slope + 0.3 * np.sin(x)
    contract = Contract(Y0=model.reservation_R, gamma=gamma, aleph=lambda t, x: 0.1 * x, truncation_l=1.2)

    def run():
        est = estimate_n_player_value(model, gamma, _zero, n, grid, reps, seed)
        scan = joint_deviation_scan(contract, model, [0.0, 1.0], n, grid, reps, seed)
        return est, contract_report(contract, model, n, grid, reps, seed), scan

    (est, details), report, scan = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde_engine, "_BATCH_ELEMENTS", cap_rows * n)
        (est_c, details_c), report_c, scan_c = run()
    assert est_c == est
    for name in details:
        assert np.array_equal(details_c[name], details[name])
    assert report_c == report
    for name in ("gain", "se"):
        assert np.array_equal(scan_c[name], scan[name])
    assert scan_c["baseline"] == scan["baseline"]


def test_nonfinite_level_raises():
    # L = -inf makes H = -inf, so Y jumps to +inf at the first step while
    # every state stays finite; tanh would turn that level into the finite
    # payment 1.0, so the pass and the stored-path replays must stop at the
    # level itself
    model = replace(
        multitask_model(0.5, nu=normal_law()),
        running_cost_L=lambda t, x, m, e, a: -math.inf,
        g_inverse=lambda m, y: np.tanh(y),
    )
    grid, seed = SimGrid(1.0, 5), SeedSpec(0)
    gamma = lambda t, x: 1.0
    contract = Contract(Y0=0.0, gamma=gamma, aleph=_zero)
    paths = simulate_particles(model, gamma, _zero, 4, grid, seed)
    runs = [
        lambda: estimate_n_player_value(model, gamma, _zero, 4, grid, 3, seed),
        lambda: contract_report(contract, model, 4, grid, 3, seed),
        lambda: joint_deviation_scan(contract, model, [0.0, 1.0], 2, grid, 3, seed),
        lambda: evaluate_terminal_payment(contract, model, paths),
        lambda: mkv_contract_payment(contract, model, paths),
    ]
    for run in runs:
        with pytest.raises(NumericDomainError, match="t=0$"):
            run()


def test_nonfinite_payment_raises():
    # the estimator pays through the same checked g^{-1} as contract_report
    # on a chunk's (batch, 1) column of levels, named on one line
    model = replace(multitask_model(0.5), g_inverse=lambda m, y: math.nan)
    with pytest.raises(ContractEvaluationError, match=r"at y in \[") as exc:
        estimate_n_player_value(model, lambda t, x: 1.0, _zero, 4, SimGrid(1.0, 5), 3, SeedSpec(0))
    assert len(str(exc.value).splitlines()) == 1


_NU = st.one_of(
    st.builds(point_mass, st.floats(-2.0, 2.0)),
    st.builds(normal_law, st.floats(-2.0, 2.0), st.floats(0.0, 2.0)),
)


@given(
    model=st.one_of(
        st.builds(
            lambda kappa, b_bar, R, nu: multitask_model(kappa, b_bar, R=R, nu=nu),
            st.floats(-1.0, 1.0),
            st.sampled_from([math.inf, 0.5, 2.0]),
            st.floats(-1.0, 1.0),
            _NU,
        ),
        st.builds(
            lambda a_base, sigma0, R, nu: quadratic_generic_model(a_base, sigma0, R=R, nu=nu),
            st.floats(-1.0, 1.0),
            st.floats(0.1, 4.0),
            st.floats(-1.0, 1.0),
            _NU,
        ),
    ),
    coefficient=st.sampled_from(["drift_b", "vol_sigma", "running_cost_L", "principal_running_cost_LP", "gamma"]),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    step=st.integers(0, 3),
    n=st.integers(1, 6),
    reps=st.integers(1, 4),
    key=st.integers(0, 2**32),
    slope=st.floats(-1.5, 1.5),
)
# the limit objective once let numpy's RuntimeWarning out ahead of its guard
@example(model=quadratic_generic_model(), coefficient="drift_b", bad=math.inf, step=0, n=1, reps=1, key=0, slope=0.0)
def test_nonfinite_coefficient_always_ends_in_a_typed_error(model, coefficient, bad, step, n, reps, key, slope):
    # One coefficient turns non-finite at one step, for the whole ensemble.
    # Every estimator, simulator and replay that reads it must stop with a
    # typed error, whatever the model, law, sizes and seed; never another
    # exception, a numpy warning or a finite result.
    grid, seed = SimGrid(1.0, 4), SeedSpec(key)
    at = grid.nodes[step]

    def spoiled(f):
        return lambda t, *args: f(t, *args) + (bad if t == at else 0.0)

    clean = model
    gamma = lambda t, x: slope
    if coefficient == "gamma":
        gamma = spoiled(gamma)
    else:
        model = replace(model, **{coefficient: spoiled(getattr(model, coefficient))})
    contract = Contract(Y0=model.reservation_R, gamma=gamma, aleph=_zero)
    # the replays price zero-slope paths of the unspoiled model
    paths = simulate_particles(clean, _zero, _zero, n, grid, seed)
    # each run with the coefficients it reads; the simulators read no L
    every = {"drift_b", "vol_sigma", "running_cost_L", "principal_running_cost_LP", "gamma"}
    state = {"drift_b", "vol_sigma", "gamma"}
    runs = [
        (every, lambda: estimate_n_player_value(model, gamma, _zero, n, grid, reps, seed)),
        (every, lambda: contract_report(contract, model, n, grid, reps, seed)),
        (every, lambda: joint_deviation_scan(contract, model, [0.0, 1.0], n, grid, reps, seed)),
        (every, lambda: evaluate_limit_objective(model, (gamma, _zero), 2 * n, grid, seed)),
        (state, lambda: simulate_particles(model, gamma, _zero, n, grid, seed)),
        (state, lambda: simulate_terminal_measure(model, gamma, _zero, n, grid, seed)),
        (state | {"running_cost_L"}, lambda: evaluate_terminal_payment(contract, model, paths)),
        (state | {"running_cost_L"}, lambda: mkv_contract_payment(contract, model, paths)),
    ]
    for reads, run in runs:
        if coefficient in reads:
            with pytest.raises((NumericDomainError, ContractEvaluationError, SimulationBlowupError)):
                run()


def test_batched_blowup_raises_at_first_breach_in_chunk():
    # With kappa_bar = 1e6 every replication leaves the blow-up threshold;
    # on this seed replication 0 does so at step 3 and the others at step 2.
    # The replications share one (batch, n) chunk, so the error's step and t
    # locate the first step at which any of them breached it, not the step
    # of the first failing replication.
    model = multitask_model(1e6, nu=normal_law())
    grid = SimGrid(1.0, 20)
    seed = SeedSpec(0)
    with pytest.raises(SimulationBlowupError) as exc:
        estimate_n_player_value(model, lambda t, x: 1.0, _zero, 4, grid, 6, seed)
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
    model = multitask_model(0.5, R=0.4, nu=normal_law())
    est, details = estimate_n_player_value(model, _zero, _zero, 8, SimGrid(1.0, 10), 6, SeedSpec(1))
    assert np.all(details["y_T"] == 0.4)
    assert np.all(details["xi"] == 0.4)


def test_single_agent_flat_slope_is_deterministic():
    # n = 1, kappa = 0, gamma = 1: the noise in production and in the
    # contract level cancels pathwise, leaving v = T/2 on every replication
    model = multitask_model(0.0)
    est, details = estimate_n_player_value(
        model, lambda t, x: 1.0, _zero, 1, SimGrid(1.0, 64), 40, SeedSpec(5)
    )
    assert np.max(np.abs(details["v"] - 0.5)) <= 1e-10
    assert abs(est.value - 0.5) <= 1e-10


def test_value_matches_closed_form_linear_utility():
    # with U = identity the expected n-agent value equals the limit value up
    # to the Euler quadrature bias, uniformly in n
    kappa = 0.5
    am = MultitaskAnalytic(kappa)
    model = multitask_model(kappa, b_bar=10.0, U=identity_utility)
    grid = SimGrid(1.0, 250)
    est, _ = estimate_n_player_value(model, am.gamma_hat, _zero, 8, grid, 300, SeedSpec(31))
    v_inf = conftest.HALF_GAMMA_SQ_FROZEN[kappa]
    assert abs(est.value - v_inf) <= 3.0 * est.se + 0.01


def test_replications_guard():
    model = multitask_model(0.0)
    with pytest.raises(ValueError, match="replications"):
        estimate_n_player_value(model, lambda t, x: 1.0, _zero, 4, SimGrid(1.0, 5), 0, SeedSpec(0))


# ---------------------------------------------------------------------------
# gap sweeps
# ---------------------------------------------------------------------------


def test_gap_sweep_rows_and_pairing():
    grid = SimGrid(1.0, 20)
    models, gamma, v_limit = conftest.multitask_sweep(0.5, [4.0, 10.0], grid, exp_saturating_utility)
    rows = gap_sweep(
        models, gamma, v_limit, n_values=[4, 8], grid=grid, replications=30, seed=SeedSpec(12)
    )
    assert len(rows) == 4
    assert [(r["n"], r["b_bar"]) for r in rows] == [(4, 4.0), (4, 10.0), (8, 4.0), (8, 10.0)]
    for r in rows:
        assert r["v_limit"] == v_limit
        assert r["gap"] == r["v_limit"] - r["v_n"]
        assert len(r["values"]) == 30
    # same n, different clamp: simulated on shared draws, so the paired
    # difference has far less scatter than the unpaired combination
    a, b = rows[0]["values"], rows[1]["values"]
    paired_sd = np.std(a - b, ddof=1)
    unpaired_sd = math.sqrt(np.var(a, ddof=1) + np.var(b, ddof=1))
    assert paired_sd < 0.5 * unpaired_sd
    # replication r reads the same draws whatever the replication count
    lean = gap_sweep(
        models[1:], gamma, v_limit, n_values=[4], grid=grid, replications=5, seed=SeedSpec(12)
    )
    assert np.array_equal(lean[0]["values"], rows[1]["values"][:5])


def test_gap_vanishes_for_linear_utility():
    # the finite-n shortfall is a Jensen effect: with U = identity the gap
    # is pure discretization noise at every n
    grid = SimGrid(1.0, 200)
    models, gamma, v_limit = conftest.multitask_sweep(0.5, [10.0], grid, identity_utility)
    rows = gap_sweep(
        models, gamma, v_limit, n_values=[4, 16], grid=grid, replications=200, seed=SeedSpec(77)
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
