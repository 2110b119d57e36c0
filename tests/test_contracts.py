"""Tests for contract construction, payment evaluation, and deviation scans."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import conftest
from palab.contracts import (
    Contract,
    ContractEvaluationError,
    contract_report,
    contract_y_step,
    evaluate_terminal_payment,
    joint_deviation_scan,
    mkv_contract_payment,
)
from palab.mkv_control import MultitaskAnalytic, evaluate_limit_objective
from palab.model import (
    NumericDomainError,
    exp_saturating_utility,
    multitask_model,
    normal_law,
    quadratic_generic_model,
)
from palab import sde_engine
from palab.principal_n import estimate_n_player_value
from palab.sde_engine import SeedSpec, SimGrid, simulate_particles

EXACT = 1e-12
PATH_TOL = 1e-10  # pathwise identities reconstructed in a different op order


def _zero(t, x):
    return 0.0


def _one(t, x):
    return 1.0


def _gamma_hat(kappa):
    return lambda t, x: math.exp(kappa * (1.0 - t))


def _simulated(contract, model, n, steps, key=0):
    grid = SimGrid(1.0, steps)
    paths = simulate_particles(
        model, contract.gamma_l, contract.aleph_l, n, grid, SeedSpec(42).child(key)
    )
    return paths


# ---------------------------------------------------------------------------
# truncation and validation
# ---------------------------------------------------------------------------


def test_truncation_fields():
    c = Contract(Y0=0.0, gamma=lambda t, x: 2.0 * x, aleph=_zero, truncation_l=1.0)
    rng = np.random.default_rng(3)
    x = rng.uniform(-3, 3, 1000)
    g = c.gamma_l(0.0, x)
    assert np.all(g <= 1.0 + EXACT)
    assert np.all(g == np.minimum(2.0 * x, 1.0))  # one-sided: no lower clip
    assert g.min() < -1.0
    sym = Contract(Y0=0.0, gamma=lambda t, x: 2.0 * x, aleph=_zero, truncation_l=1.0, symmetric=True)
    gs = sym.gamma_l(0.0, x)
    assert np.all((-1.0 - EXACT <= gs) & (gs <= 1.0 + EXACT))
    free = Contract(Y0=0.0, gamma=lambda t, x: 2.0 * x, aleph=_zero)
    assert np.array_equal(free.gamma_l(0.0, x), 2.0 * x)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            Contract(Y0=0.0, gamma=_zero, aleph=_zero, truncation_l=bad)
    # [-l, l] is empty below 0, where np.clip would return -l for every value
    with pytest.raises(ValueError, match="symmetric"):
        Contract(Y0=0.0, gamma=_zero, aleph=_zero, truncation_l=-1.0, symmetric=True)
    one_sided = Contract(Y0=0.0, gamma=lambda t, x: 2.0 * x, aleph=_zero, truncation_l=-1.0)
    assert np.array_equal(one_sided.gamma_l(0.0, x), np.minimum(2.0 * x, -1.0))


def test_floor_check():
    # every pricer refuses a Y0 below R: the two replays themselves, and
    # the report and the scan through their contract pass
    model = multitask_model(0.0, R=1.0)
    c = Contract(Y0=0.5, gamma=_zero, aleph=_zero)
    paths = _simulated(Contract(Y0=1.0, gamma=_zero, aleph=_zero), model, 4, 5)
    grid, seed = SimGrid(1.0, 5), SeedSpec(0)
    runs = [
        lambda: evaluate_terminal_payment(c, model, paths),
        lambda: mkv_contract_payment(c, model, paths),
        lambda: contract_report(c, model, 4, grid, 2, seed),
        lambda: joint_deviation_scan(c, model, [0.0, 1.0], 2, grid, 2, seed),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="below the reservation level"):
            run()
    # the scan checks its cell cap before the pass checks the floor
    with pytest.raises(ValueError, match="cap"):
        joint_deviation_scan(c, model, [0.0, 1.0], 15, grid, 2, seed)


# ---------------------------------------------------------------------------
# terminal payment
# ---------------------------------------------------------------------------


def test_zero_slope_pays_exactly_y0():
    # gamma = 0 kills both the H drift (optimal action 0, zero cost) and the
    # martingale term, so the level never moves — even with interaction on.
    model = multitask_model(0.5, nu=normal_law())
    c = Contract(Y0=0.25, gamma=_zero, aleph=_zero)
    model = replace(model, reservation_R=0.0)
    paths = _simulated(c, model, 30, 20)
    xi, y_path = evaluate_terminal_payment(c, model, paths)
    assert xi == 0.25
    assert np.all(y_path == 0.25)


def test_constant_slope_pathwise_identity():
    # kappa = 0, gamma = c: per step H = c^2/2 and dX = c dt + dW, so
    # Y_T = Y0 + c^2 T / 2 + c * mean_i(sum_k dW_ik); reconstruct from the
    # stream's increments and match.
    cval = 0.8
    model = multitask_model(0.0, nu=normal_law())
    c = Contract(Y0=0.1, gamma=lambda t, x: cval, aleph=_zero)
    paths = _simulated(c, model, 25, 32)
    xi, y_path = evaluate_terminal_payment(c, model, paths)
    increments = conftest.stream_increments(model, 25, SimGrid(1.0, 32), SeedSpec(42).child(0))
    expected = 0.1 + 0.5 * cval * cval + cval * float(np.mean(increments.sum(axis=1)))
    assert abs(xi - expected) <= PATH_TOL
    assert xi == y_path[-1]  # identity g


def test_expected_payment_identity():
    # E[xi] = R + (1/2) sum_k gamma_hat(t_k)^2 dt exactly for the discrete
    # scheme; check to 3 SE across replications.
    kappa, steps, reps, n = 0.5, 50, 60, 50
    model = multitask_model(kappa, b_bar=10.0)
    c = Contract(Y0=0.0, gamma=_gamma_hat(kappa), aleph=_zero)
    grid = SimGrid(1.0, steps)
    xis = []
    for r in range(reps):
        paths = simulate_particles(
            model, c.gamma_l, c.aleph_l, n, grid, SeedSpec(7).child(r)
        )
        xi, _ = evaluate_terminal_payment(c, model, paths)
        xis.append(xi)
    xis = np.asarray(xis)
    dt = grid.dt
    target = 0.5 * sum(_gamma_hat(kappa)(t, None) ** 2 * dt for t in grid.nodes[:-1])
    se = xis.std(ddof=1) / math.sqrt(reps)
    assert abs(xis.mean() - target) <= 3.0 * se


def test_recommended_controls_follow_truncated_slope():
    # sigma = 1 and alpha = z for the multitask model: agents left to the
    # recommendation move exactly like agents forced to play gamma_hat ^ l
    kappa = 0.5
    model = multitask_model(kappa)
    c = Contract(Y0=0.0, gamma=_gamma_hat(kappa), aleph=_zero, truncation_l=1.2)
    paths = _simulated(c, model, 10, 8)
    forced_play = lambda t, x, m, e, z: min(_gamma_hat(kappa)(t, x), 1.2)
    forced = simulate_particles(
        replace(model, analytic_maximizer=forced_play),
        c.gamma_l,
        c.aleph_l,
        10,
        SimGrid(1.0, 8),
        SeedSpec(42).child(0),
    )
    assert np.array_equal(paths.states, forced.states)
    # the truncation binds early on, so this is not the untruncated response
    free = _simulated(replace(c, truncation_l=math.inf), model, 10, 8)
    assert not np.array_equal(paths.states, free.states)


def test_g_inverse_failure_is_wrapped():
    # a g^{-1} that raises or returns a non-finite payment is a
    # ContractEvaluationError wherever a payment is priced: on stored paths,
    # in the n-agent pass and in the limit objective; the message names the
    # level as a plain number, or a column of levels by its range
    model = multitask_model(0.0)

    def bad_inverse(m, y):
        raise ZeroDivisionError("no inverse here")

    c = Contract(Y0=0.0, gamma=_zero, aleph=_zero)
    paths = _simulated(c, model, 4, 5)
    grid = SimGrid(1.0, 5)
    pricers = [
        lambda m: evaluate_terminal_payment(c, m, paths),
        lambda m: contract_report(c, m, 4, grid, 2, SeedSpec(3)),
        lambda m: evaluate_limit_objective(m, (_one, _zero), N_proxy=8, grid=grid, seed=SeedSpec(3)),
    ]
    for g_inverse in (bad_inverse, lambda m, y: math.inf):
        broken = replace(model, g_inverse=g_inverse)
        for price in pricers:
            with pytest.raises(ContractEvaluationError, match=r"g_inverse.* at y(=| in \[)-?[0-9]"):
                price(broken)


# ---------------------------------------------------------------------------
# limit-regime payment
# ---------------------------------------------------------------------------


def test_mkv_payment_zero_slope_levels():
    model = multitask_model(0.5, nu=normal_law())
    c = Contract(Y0=0.4, gamma=_zero, aleph=_zero)
    paths = _simulated(c, model, 20, 10)
    payment, levels = mkv_contract_payment(c, model, paths)
    assert np.all(levels == 0.4)  # per-path levels never move
    assert abs(payment - 0.4) <= EXACT  # averaging them rounds in the last ulp


def test_mkv_payment_averages_levels_before_inverting():
    # distinguishable only through a nonlinear g^{-1}: the payment must be
    # g^{-1}(mean(levels)), not mean(g^{-1}(levels))
    model = multitask_model(0.0, nu=normal_law())
    cubed = replace(model, g_inverse=lambda m, y: y**3)
    c = Contract(Y0=0.0, gamma=lambda t, x: 1.0, aleph=_zero)
    paths = _simulated(c, model, 30, 12)
    payment, levels = mkv_contract_payment(c, cubed, paths)
    assert payment == float(np.mean(levels)) ** 3
    assert abs(payment - np.mean(levels**3)) > 1e-6  # really a different number


def test_mkv_payment_matches_ensemble_accumulation_for_linear_g():
    # with identity g the per-path-then-average and average-per-step orders
    # agree up to rounding
    kappa = 0.5
    model = multitask_model(kappa, b_bar=10.0, nu=normal_law())
    c = Contract(Y0=0.0, gamma=_gamma_hat(kappa), aleph=_zero)
    paths = _simulated(c, model, 40, 25)
    xi, _ = evaluate_terminal_payment(c, model, paths)
    payment, _ = mkv_contract_payment(c, model, paths)
    assert abs(xi - payment) <= PATH_TOL


def test_mkv_payment_closed_form_on_multitask():
    # The paper's second result on the multitask model: the limit contract
    # built from gamma_hat pays E[xi] = R + (1/2) int gamma_hat^2 and leaves
    # the principal the McKean-Vlasov value V_infinity. Per path the level
    # is R + (1/2) sum gamma_hat^2 dt + sum gamma_hat dW, so E[xi] is checked
    # against the SE of the levels; the principal's value mean(X_T) - xi is
    # checked against the SE of X_T - level, which overstates the value's own
    # noise: that nearly cancels, since the mean-field feedback offsets the
    # slope's. The continuous-time closed forms carry the O(dt) bias of
    # Euler's 100 steps: the grid value is 5.54e-3 (about 2.2 SE) below
    # V_infinity and the grid payment 4.30e-3 above R + (1/2) int gamma_hat^2.
    # The grid-exact targets of grid_limit_law have no such bias, so they are
    # checked at the same 3 SE. The value is then checked once more at 3 SE
    # of its own noise, taken across 8 independent ensembles (this one
    # first): that SE is about 2e-5, over 100 times below se_v, so this
    # check resolves the Euler bias (about 300 of these SE) that se_v hides.
    kappa, R, N = 0.5, 0.1, 20_000
    am = MultitaskAnalytic(kappa, R=R)
    model = multitask_model(kappa, R=R)
    c = Contract(Y0=R, gamma=am.gamma_hat, aleph=_zero)
    paths = _simulated(c, model, N, 100)
    xi, levels = mkv_contract_payment(c, model, paths)
    se_xi = float(np.std(levels, ddof=1)) / math.sqrt(N)
    assert abs(xi - (R + 0.5 * am.gamma_sq_integral)) <= 3.0 * se_xi
    x_T = paths.states[:, -1]
    se_v = float(np.std(x_T - levels, ddof=1)) / math.sqrt(N)
    assert abs(float(np.mean(x_T)) - xi - am.V_infinity) <= 3.0 * se_v
    _, _, grid_payment, grid_value = conftest.grid_limit_law(
        kappa, math.inf, conftest.gamma_hat(kappa), paths.grid, R=R
    )
    assert abs(xi - grid_payment) <= 3.0 * se_xi
    assert abs(float(np.mean(x_T)) - xi - grid_value) <= 3.0 * se_v
    values = [float(np.mean(x_T)) - xi]
    for key in range(1, 8):
        more = _simulated(c, model, N, 100, key=key)
        values.append(float(np.mean(more.states[:, -1])) - mkv_contract_payment(c, model, more)[0])
    se_value = float(np.std(values, ddof=1)) / math.sqrt(len(values))
    assert abs(float(np.mean(values)) - grid_value) <= 3.0 * se_value


# ---------------------------------------------------------------------------
# rewards and reports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "field, bad, quantity, reads_limit",
    [
        ("production_utility_Upsilon", lambda x: x + math.inf, "v", True),
        ("principal_terminal_cost_gP", lambda m, e: e + math.inf, "v", True),
        ("terminal_utility_g", lambda m, e: e + math.inf, "agent", False),
        ("principal_utility_U", lambda v: v * math.nan, "u", False),
    ],
    ids=["Upsilon", "g_P", "g", "U"],
)
def test_non_finite_priced_value_rejected(field, bad, quantity, reads_limit):
    # a terminal map that returns inf or NaN must not come back as an
    # estimate of inf or NaN: each pricer names the non-finite quantity
    model = replace(multitask_model(0.5), **{field: bad})
    grid = SimGrid(1.0, 5)
    contract = Contract(0.0, _one, _zero)
    with pytest.raises(NumericDomainError, match=rf"non-finite {quantity}$"):
        contract_report(contract, model, 4, grid, 3, SeedSpec(0))
    if quantity != "agent":  # the estimator prices no agent reward
        with pytest.raises(NumericDomainError, match=rf"non-finite {quantity}$"):
            estimate_n_player_value(model, _one, _zero, 4, grid, 3, SeedSpec(0))
    if reads_limit:  # the limit objective reads Upsilon and g_P, not g or U
        with pytest.raises(NumericDomainError, match="limit objective value is non-finite"):
            evaluate_limit_objective(model, (_one, _zero), N_proxy=8, grid=grid, seed=SeedSpec(0))


def test_contract_report_agent_breaks_even():
    # the contract built from gamma_hat with Y0 = R leaves the agents exactly
    # their reservation utility in expectation
    kappa, R = 0.5, 0.3
    model = multitask_model(kappa, b_bar=10.0, R=R)
    c = Contract(Y0=R, gamma=_gamma_hat(kappa), aleph=_zero)
    rep = contract_report(c, model, 40, SimGrid(1.0, 40), 50, SeedSpec(11))
    agent = rep["agent_reward"]
    assert abs(agent.value - R) <= 3.0 * agent.se
    # E[xi] >= R: the payment funds the action cost on top of the floor
    assert rep["xi"].value > R
    assert len(rep["per_replication"]["xi"]) == 50


def test_report_utility_conventions():
    kappa = 0.0
    model = multitask_model(kappa)
    c = Contract(Y0=0.0, gamma=_gamma_hat(kappa), aleph=_zero)
    rep = contract_report(c, model, 20, SimGrid(1.0, 10), 30, SeedSpec(5))
    # identity utility: inside and outside coincide
    assert rep["principal_inside"].value == rep["principal_outside"].value
    model_u = replace(model, principal_utility_U=exp_saturating_utility)
    rep_u = contract_report(c, model_u, 20, SimGrid(1.0, 10), 30, SeedSpec(5))
    # Jensen: E[U(v)] <= U(E[v]) for concave U
    assert rep_u["principal_inside"].value <= rep_u["principal_outside"].value + EXACT
    # the pre-utility values are the same simulation either way
    assert rep_u["per_replication"]["principal_value"] == rep["per_replication"]["principal_value"]


def test_agent_reward_direct_formula():
    # zero slope, flat rate field: reward = integral of L(a=0) dt + g(xi)
    # with L(0) = 0, so it is exactly the payment
    model = multitask_model(0.0, nu=normal_law())
    c = Contract(Y0=0.7, gamma=_zero, aleph=lambda t, x: 0.3)
    rep = contract_report(c, model, 15, SimGrid(1.0, 8), 4, SeedSpec(42))
    assert rep["per_replication"]["xi"] == [0.7] * 4
    for reward in rep["per_replication"]["agent_reward"]:
        assert abs(reward - 0.7) <= EXACT
    # no real scatter; np.std of near-constant values only sees mean rounding
    assert rep["agent_reward"].se <= 1e-15


def test_contract_y_step_batched_levels():
    # A (batch,) level steps each row like its own float level. A scalar or
    # (batch, 1) H is used as it is: the mean of three copies of 0.1 is not
    # 0.1 bit for bit, so averaging a broadcast H would move Y.
    dt = 0.25
    dX = np.array([[0.3, -0.1, 0.7], [1.1, 0.2, -0.4]])
    zsig = np.array([[0.5, 0.5, 0.5], [0.2, 0.9, 1.3]])
    y0 = np.array([0.4, -0.2])
    assert np.mean(np.full(3, 0.1)) != 0.1
    y_lone = contract_y_step(0.0, 1.0, 0.1, 0.0, np.zeros(3))
    assert isinstance(y_lone, float) and y_lone == -0.1
    H_col = np.array([[0.1], [0.7]])
    y_col = contract_y_step(np.zeros(2), 1.0, H_col, 0.0, np.zeros((2, 3)))
    assert np.array_equal(y_col, -H_col[:, 0])
    H_full = np.array([[0.1, 0.2, 0.3], [0.7, -0.5, 0.05]])
    for H, H_rows in [(0.1, [0.1, 0.1]), (H_col, [0.1, 0.7]), (H_full, list(H_full))]:
        y = contract_y_step(y0, dt, H, zsig, dX)
        assert y.shape == (2,)
        for i in range(2):
            assert y[i] == contract_y_step(float(y0[i]), dt, H_rows[i], zsig[i], dX[i])


@pytest.mark.parametrize("model_name", ["multitask", "quadratic", "quadratic-chunked"])
def test_report_payment_equals_replay_pipeline(model_name, monkeypatch):
    # contract_report accumulates Y while it simulates; replaying the stored
    # paths of the same stream through evaluate_terminal_payment must give
    # the same payment bit for bit. The quadratic model has no analytic
    # maximizer, so this also covers the numeric path. The chunked case caps
    # the replication batch so the 5 replications run as chunks of 2, 2, 1.
    n, reps = 9, 5
    if model_name == "multitask":
        model = multitask_model(0.5, b_bar=1.0, R=0.1, nu=normal_law())
        c = Contract(Y0=0.1, gamma=_gamma_hat(0.5), aleph=lambda t, x: 0.2 * x, truncation_l=1.3)
    else:
        model = quadratic_generic_model(a_base=0.3, sigma0=0.7, nu=normal_law())
        c = Contract(Y0=0.0, gamma=lambda t, x: 0.5 + 0.3 * np.sin(x), aleph=_zero)
    grid = SimGrid(1.0, 12)
    seed = SeedSpec(31)
    if model_name == "quadratic-chunked":
        monkeypatch.setattr(sde_engine, "_BATCH_ELEMENTS", 2 * n)
        keys = [(r,) for r in range(reps)]
        chunks = sde_engine._replication_chunks(model, n, grid, [seed.child(*k) for k in keys])
        assert [len(r) for r, _, _ in chunks] == [2, 2, 1]
    rep = contract_report(c, model, n, grid, reps, seed)
    for r in range(reps):
        paths = simulate_particles(model, c.gamma_l, c.aleph_l, n, grid, seed.child(r))
        xi, _ = evaluate_terminal_payment(c, model, paths)
        assert rep["per_replication"]["xi"][r] == xi
        v = float(np.mean(model.production_utility_Upsilon(paths.states[:, -1]))) - xi
        assert rep["per_replication"]["principal_value"][r] == v


@pytest.mark.parametrize(
    "model_name, n, batch, chunk_rows",
    [
        ("quadratic", 9, None, [5]),
        ("multitask", sde_engine._BATCH_ELEMENTS // 2 + 1, None, [1, 1, 1, 1, 1]),
        ("quadratic", 9, 3 * 9, [3, 2]),
    ],
    ids=["quadratic-shared-chunk", "multitask-own-chunks", "quadratic-dump-mid-chunk"],
)
def test_report_paths_seed_adds_only_the_dump(model_name, n, batch, chunk_rows, monkeypatch):
    # the dump rides the report's pass as one more ensemble: the estimates
    # and per_replication lists keep every bit, and report["paths"] is what
    # simulate_particles draws from paths_seed. At n = 9 the 4 replications
    # and the dump step as one chunk; past half the batch budget each row
    # steps alone; with a budget of 3 rows the dump is the second row of a
    # chunk that starts at replication 3. The quadratic model runs the
    # numeric maximizer.
    reps, grid, seed = 4, SimGrid(1.0, 6), SeedSpec(17)
    if batch is not None:
        monkeypatch.setattr(sde_engine, "_BATCH_ELEMENTS", batch)
    if model_name == "multitask":
        model = multitask_model(0.5, b_bar=1.0, R=0.1, nu=normal_law())
        c = Contract(Y0=0.1, gamma=_gamma_hat(0.5), aleph=lambda t, x: 0.2 * x, truncation_l=1.3)
    else:
        model = quadratic_generic_model(a_base=0.3, sigma0=0.7, nu=normal_law())
        c = Contract(Y0=0.0, gamma=lambda t, x: 0.5 + 0.3 * np.sin(x), aleph=_zero)
    keys = [(0, r) for r in range(reps)] + [(2,)]
    chunks = sde_engine._replication_chunks(model, n, grid, [seed.child(*k) for k in keys])
    assert [len(r) for r, _, _ in chunks] == chunk_rows
    plain = contract_report(c, model, n, grid, reps, seed.child(0))
    dumped = contract_report(c, model, n, grid, reps, seed.child(0), paths_seed=seed.child(2))
    report_paths = dumped.pop("paths")
    assert dumped == plain  # MCEstimates and lists compared exactly
    paths = simulate_particles(model, c.gamma_l, c.aleph_l, n, grid, seed.child(2))
    assert report_paths.grid == paths.grid
    np.testing.assert_array_equal(report_paths.states, paths.states)


def test_report_paths_seed_checked():
    model = multitask_model(0.0, nu=normal_law())
    c, grid = Contract(0.0, _zero, _zero), SimGrid(1.0, 2)
    # the dump may sit on any master seed: it is one more row of the pass
    plain = contract_report(c, model, 3, grid, 2, SeedSpec(1).child(0))
    dumped = contract_report(c, model, 3, grid, 2, SeedSpec(1).child(0), paths_seed=SeedSpec(2).child(2))
    report_paths = dumped.pop("paths")
    assert dumped == plain
    paths = simulate_particles(model, c.gamma_l, c.aleph_l, 3, grid, SeedSpec(2).child(2))
    np.testing.assert_array_equal(report_paths.states, paths.states)
    with pytest.raises(ValueError, match="replications"):
        contract_report(c, model, 3, grid, 0, SeedSpec(1).child(0), paths_seed=SeedSpec(1).child(2))
    # a seed that is not a SeedSpec is refused before any stream is read
    rng = np.random.default_rng(0)
    with pytest.raises(TypeError, match="SeedSpec"):
        contract_report(c, model, 3, grid, 2, rng, paths_seed=SeedSpec(1).child(2))
    with pytest.raises(TypeError, match="SeedSpec"):
        contract_report(c, model, 3, grid, 2, SeedSpec(1).child(0), paths_seed=rng)


# ---------------------------------------------------------------------------
# joint deviations
# ---------------------------------------------------------------------------


def test_joint_deviation_scan_no_gain():
    # kappa = 0 makes the recommended action identically 1; the (1, 1) cell
    # replays the recommendation and must have exactly zero gain, and no cell
    # may beat the recommendation beyond noise.
    model = multitask_model(0.0)
    c = Contract(Y0=0.0, gamma=lambda t, x: 1.0, aleph=_zero)
    grid_a = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    out = joint_deviation_scan(c, model, grid_a, n=2, grid=SimGrid(1.0, 20), replications=40, seed=SeedSpec(9))
    assert out["actions"].shape == (25, 2)
    match = np.all(out["actions"] == 1.0, axis=1)
    assert match.sum() == 1
    assert out["gain"][match][0] == 0.0
    assert np.all(out["gain"] <= 3.0 * out["se"] + EXACT)
    # strictly worse cells are visibly worse
    worst = np.all(out["actions"] == -1.0, axis=1)
    assert out["gain"][worst][0] < -0.5


def test_joint_deviation_cell_cap():
    model = multitask_model(0.0)
    c = Contract(Y0=0.0, gamma=lambda t, x: 1.0, aleph=_zero)
    too_many = np.linspace(-3, 3, 150)  # 150^2 > 20000 cells
    with pytest.raises(ValueError):
        joint_deviation_scan(c, model, too_many, n=2, grid=SimGrid(1.0, 5), replications=2, seed=SeedSpec(0))


def test_joint_deviation_cell_cap_never_builds_the_count():
    # 9^5000 has 4,772 digits: the cap is read from a capped exponent and the
    # message names the cells by their factors, promptly and in full
    model = multitask_model(0.0)
    c = Contract(Y0=0.0, gamma=lambda t, x: 1.0, aleph=_zero)
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        joint_deviation_scan(c, model, np.linspace(-1, 1, 9), n=5000, grid=SimGrid(1.0, 5), replications=2, seed=SeedSpec(0))
    assert time.perf_counter() - start < 0.5
    assert str(info.value) == (
        "(9 actions)^(n=5000) deviation cells exceed the 20000 cap; "
        "use a coarser action grid or fewer agents"
    )
