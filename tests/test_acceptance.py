"""Acceptance battery: closed-form targets, convergence rates, determinism.

Each test prints one ``acceptance[...]: PASS/FAIL`` line (visible with -s or
in failure output) so a full run reads as a checklist.  Tolerances are fixed
here, not tuned: statistical checks use 3 standard errors, rate checks carry
the stated slope windows, and exact identities use machine-level bounds.
"""

import json
import math
import time

import numpy as np
import pytest

import palab.cli as cli
from conftest import (
    HALF_GAMMA_SQ_FROZEN,
    gamma_hat,
    grid_finite_n_law,
    grid_limit_law,
    multitask_sweep,
    simpson_gamma_sq_integral,
    variance_se,
)
from palab import (
    Contract,
    MultitaskAnalytic,
    PolicyParam,
    SeedSpec,
    SimGrid,
    contract_report,
    estimate_n_player_value,
    evaluate_limit_objective,
    exp_saturating_utility,
    fit_rate,
    gap_sweep,
    hamiltonian_h,
    joint_deviation_scan,
    maximize_hamiltonian,
    mean_se,
    multitask_model,
    normal_law,
    optimize_policy,
    quadratic_generic_model,
    reduced_coefficients,
    simulate_terminal_measure,
    slope_over_sigma,
    wasserstein_p,
)
from palab.measures import EmpiricalMeasure


def _zero(t, x):
    return 0.0


def _report(name, ok):
    print(f"acceptance[{name}]: {'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# 1. limit objective vs quadrature oracle
# ---------------------------------------------------------------------------

CRIT1_KAPPAS = [-0.5, 0.0, 0.5]


@pytest.mark.parametrize("kappa_bar", CRIT1_KAPPAS)
def test_limit_objective_matches_quadrature_oracle(kappa_bar):
    # identity utility, point-mass start at 0, R = 0, unit horizon, clamp 10
    start = time.monotonic()
    model = multitask_model(kappa_bar, 10.0)
    am = MultitaskAnalytic(kappa_bar)
    est = evaluate_limit_objective(
        model,
        (am.gamma_hat, _zero),
        N_proxy=100_000,
        grid=SimGrid(1.0, 1000),
        seed=SeedSpec(404).child(CRIT1_KAPPAS.index(kappa_bar)),
    )
    elapsed = time.monotonic() - start

    target = HALF_GAMMA_SQ_FROZEN[kappa_bar]  # = -R + half squared-slope mass
    assert abs(0.5 * simpson_gamma_sq_integral(kappa_bar) - target) < 1e-10
    if kappa_bar == 0.0:
        assert target == 0.5

    tol = max(3.0 * est.se, 5e-3)
    ok = abs(est.value - target) <= tol
    _report(f"limit objective, kappa_bar={kappa_bar}", ok)
    assert ok, (est.value, target, tol)
    assert elapsed <= 120.0, f"took {elapsed:.1f}s"

    # the grid-exact limit value carries no Euler bias, so it needs no floor
    _, _, _, grid_value = grid_limit_law(kappa_bar, 10.0, am.gamma_hat, SimGrid(1.0, 1000))
    grid_ok = abs(est.value - grid_value) <= 3.0 * est.se
    _report(f"limit objective on the grid, kappa_bar={kappa_bar}", grid_ok)
    assert grid_ok, (est.value, grid_value, est.se)


# ---------------------------------------------------------------------------
# 2. terminal payment mean identity and 1/n variance decay
# ---------------------------------------------------------------------------


def test_terminal_payment_mean_and_variance_rate():
    R = 0.3
    model = multitask_model(0.5, 10.0, R=R, nu=normal_law(0.0, 1.0))
    am = MultitaskAnalytic(0.5, R=R)
    contract = Contract(Y0=R, gamma=am.gamma_hat, aleph=_zero)
    grid = SimGrid(1.0, 400)
    target = R + 0.5 * simpson_gamma_sq_integral(0.5)
    seed = SeedSpec(505)
    # On the grid the level is Y_K = R + sum gamma_k^2 dt / 2 + sum gamma_k dWbar_k,
    # so xi is Gaussian with mean grid_payment (1.160215 here, against the
    # continuous 1.159141) and variance sum gamma_k^2 dt / n, exactly at every
    # n. Over seeds 505 and 0-7 the mean checks give |z| <= 2.02 and the
    # variance checks |z| <= 2.12.
    _, _, grid_payment, _ = grid_limit_law(0.5, 10.0, gamma_hat(0.5), grid, R=R, nu_var=1.0)
    gamma_sq_sum = 2.0 * (grid_payment - R)

    n_values = [10, 100, 1000]
    variances = []
    for i, n in enumerate(n_values):
        report = contract_report(contract, model, n, grid, 100, seed.child(i))
        est = report["xi"]
        assert abs(est.value - target) <= 3.0 * est.se, (n, est.value, target, est.se)
        assert abs(est.value - grid_payment) <= 3.0 * est.se, (n, est.value, grid_payment, est.se)
        variances.append(float(np.var(report["per_replication"]["xi"], ddof=1)))
        exact = gamma_sq_sum / n  # a Gaussian sample variance of 100 has sd exact * sqrt(2/99)
        assert abs(variances[-1] - exact) <= 3.0 * exact * math.sqrt(2.0 / 99.0), (n, variances[-1], exact)

    slope = float(np.polyfit(np.log(n_values), np.log(variances), 1)[0])
    ok = -1.2 <= slope <= -0.8
    _report(f"payment mean identity + variance slope {slope:.3f}", ok)
    assert ok, (variances, slope)


# ---------------------------------------------------------------------------
# 3. n-player gap: sign, monotonicity, square-root bound
# ---------------------------------------------------------------------------


def test_gap_positive_nonincreasing_with_sqrt_bound():
    start = time.monotonic()
    n_values = [10, 30, 100, 300, 1000]
    grid = SimGrid(1.0, 100)
    cells = multitask_sweep(0.5, [10.0], grid, exp_saturating_utility, nu=normal_law(0.0, 1.0))
    rows = gap_sweep(*cells, n_values, grid, 2000, SeedSpec(7))
    elapsed = time.monotonic() - start
    gaps = [r["gap"] for r in rows]
    ses = [r["se"] for r in rows]

    for g, s in zip(gaps, ses):
        assert g >= -3.0 * s, (gaps, ses)  # positive or noise
    for i in range(len(gaps) - 1):
        slack = 3.0 * math.hypot(ses[i], ses[i + 1])
        assert gaps[i + 1] <= gaps[i] + slack, (gaps, ses)

    C = max(gaps[0], 0.0) * math.sqrt(n_values[0])
    ok = all(
        g <= C * n**-0.5 + 3.0 * s for n, g, s in zip(n_values, gaps, ses)
    )
    _report("gap decay within calibrated sqrt(n) bound", ok)
    assert ok, [(n, g, C * n**-0.5) for n, g in zip(n_values, gaps)]
    assert elapsed <= 600.0, f"took {elapsed:.1f}s"

    # b_bar = 10 acts as no clamp, so each cell's E U(v_n) is exact on the
    # Euler grid (grid_finite_n_law); seeds 0-8 give |z| <= 2.30
    for r in rows:
        _, _, exact = grid_finite_n_law(0.5, gamma_hat(0.5), grid, r["n"], nu_var=1.0)
        assert abs(r["v_n"] - exact) <= 3.0 * r["se"], (r["n"], r["v_n"], exact, r["se"])


# ---------------------------------------------------------------------------
# 4. clamp-level differences: 1/b decay with constant calibrated at b = 0.5
# ---------------------------------------------------------------------------


def test_clamp_difference_monotone_and_inverse_b_bound():
    b_bars = [0.5, 1.0, 2.0, 4.0, 8.0]
    reference = 64.0
    grid = SimGrid(1.0, 100)
    cells = multitask_sweep(
        0.5, b_bars + [reference], grid, exp_saturating_utility, nu=normal_law(0.0, 1.0)
    )
    rows = gap_sweep(*cells, [100], grid, 2000, SeedSpec(11))
    values = {r["b_bar"]: np.asarray(r["values"]) for r in rows}
    ref = values[reference]
    m = len(ref)

    diffs, ses = [], []
    for b in b_bars:
        d = values[b] - ref  # paired: replication r shares draws across clamps
        diffs.append(abs(float(np.mean(d))))
        ses.append(float(np.std(d, ddof=1)) / math.sqrt(m))

    for i in range(len(b_bars) - 1):
        slack = 3.0 * math.hypot(ses[i], ses[i + 1])
        assert diffs[i + 1] <= diffs[i] + slack, (b_bars, diffs, ses)

    C = b_bars[0] * diffs[0]
    table = "\n".join(
        f"  b_bar={b:<4} |J_b - J_ref|={d:.6f} se={s:.2g} C/b={C / b:.6f}"
        for b, d, s in zip(b_bars, diffs, ses)
    )
    ok = all(d <= C / b + 3.0 * s for b, d, s in zip(b_bars, diffs, ses))
    _report("clamp difference within calibrated 1/b bound", ok)
    # Known to fail at b_bar = 1: with a unit-width state distribution the
    # map b -> b * |J_b - J_ref| peaks near b = 1, so a constant read off at
    # b = 0.5 undershoots there.  See notes on the truncation-rate check.
    assert ok, "\n" + table


def test_clamp_difference_table_on_grid():
    # The N -> infinity Euler law of the cells above is Gaussian, so
    # b * |U(V_b) - U(V_ref)| is computed, not estimated (grid_limit_law):
    # 0.0784, 0.1026, 0.0686, 0.0055 and 0.0000 at b = 0.5, 1, 2, 4 and 8.
    # It is larger at b = 1 than at b = 0.5, so no constant read off at
    # b = 0.5 bounds it by C / b. The table is printed beside a Monte Carlo
    # run of the same cells at n = 100, with a quarter of the replications.
    b_bars = [0.5, 1.0, 2.0, 4.0, 8.0]
    reference = 64.0
    grid = SimGrid(1.0, 100)
    U = exp_saturating_utility

    def limit_utility(b):
        _, _, _, value = grid_limit_law(0.5, b, gamma_hat(0.5), grid, nu_var=1.0)
        return float(U(value))

    u_ref = limit_utility(reference)
    exact = [b * abs(limit_utility(b) - u_ref) for b in b_bars]
    cells = multitask_sweep(0.5, b_bars + [reference], grid, U, nu=normal_law(0.0, 1.0))
    rows = gap_sweep(*cells, [100], grid, 500, SeedSpec(11))
    values = {r["b_bar"]: np.asarray(r["values"]) for r in rows}
    for b, e in zip(b_bars, exact):
        d = values[b] - values[reference]  # paired across clamps
        se = float(np.std(d, ddof=1)) / math.sqrt(len(d))
        print(f"  b_bar={b:<4} grid b*|dU|={e:.6f} MC b*|dJ|={b * abs(float(np.mean(d))):.6f} se={b * se:.2g}")

    ok = exact[1] > exact[0]
    _report("clamp difference b * |dU| larger at b = 1 than at b = 0.5", ok)
    assert ok, exact


# ---------------------------------------------------------------------------
# 5. no constant joint deviation beats the recommended controls
# ---------------------------------------------------------------------------


def test_joint_deviations_never_beat_recommended_controls():
    R = 0.3
    model = multitask_model(0.5, 10.0, R=R)
    am = MultitaskAnalytic(0.5, R=R)
    contract = Contract(Y0=R, gamma=am.gamma_hat, aleph=_zero)
    action_grid = np.linspace(-3.0, 3.0, 25)  # step 0.25

    scan = joint_deviation_scan(
        contract, model, action_grid, 2, SimGrid(1.0, 50), 400, SeedSpec(606)
    )
    no_gain = bool(np.all(scan["gain"] <= 3.0 * scan["se"] + 1e-12))
    base = scan["baseline"]
    breaks_even = abs(base.value - R) <= 3.0 * base.se

    _report("no joint deviation beats recommended controls", no_gain and breaks_even)
    worst = int(np.argmax(scan["gain"]))
    assert no_gain, (scan["gain"][worst], scan["se"][worst], scan["actions"][worst])
    assert breaks_even, (base.value, R, base.se)


# ---------------------------------------------------------------------------
# 6. Hamiltonian envelope on random tuples
# ---------------------------------------------------------------------------


def test_hamiltonian_envelope_zero_violations():
    rng = np.random.default_rng(808)
    models = [
        multitask_model(0.7, b_bar=5.0),
        quadratic_generic_model(a_base=0.4, sigma0=1.3),
    ]
    probes = np.linspace(-8.0, 8.0, 1000)
    for model in models:
        for _ in range(500):  # 2 models x 500 = 10^3 tuples
            t = float(rng.uniform(0, 1))
            x = float(rng.uniform(-2, 2))
            m = EmpiricalMeasure(rng.standard_normal(8))
            z = float(rng.uniform(-4, 4))
            _, _, big_h = reduced_coefficients(model, t, x, m, 0.0, z)
            h_vals = hamiltonian_h(model, t, x, m, 0.0, z, probes)
            assert np.all(h_vals <= big_h + 1e-10), (t, x, z)
            zsig = slope_over_sigma(z, model.vol_sigma(t, x))
            a_hat = maximize_hamiltonian(model, t, x, m, 0.0, zsig)
            h_at_max = hamiltonian_h(model, t, x, m, 0.0, z, a_hat)
            assert abs(big_h - h_at_max) <= 1e-8, (t, x, z, a_hat)
    _report("Hamiltonian envelope, zero violations", True)


# ---------------------------------------------------------------------------
# 7. terminal-measure convergence rate in Wasserstein-1
# ---------------------------------------------------------------------------


def test_wasserstein_convergence_rate():
    model = multitask_model(0.5, 10.0, nu=normal_law(0.0, 1.0))
    am = MultitaskAnalytic(0.5)
    grid = SimGrid(1.0, 20)
    master = SeedSpec(90210)
    n_values = [100, 1000, 10_000]

    w = np.empty((20, len(n_values)))
    for r in range(20):
        proxy = simulate_terminal_measure(
            model, am.gamma_hat, _zero, 100_000, grid, master.child(1, 0, r)
        )
        for i, n in enumerate(n_values):
            ensemble = simulate_terminal_measure(
                model, am.gamma_hat, _zero, n, grid, master.child(0, i, r)
            )
            w[r, i] = wasserstein_p(ensemble, proxy)

    medians = np.median(w, axis=0)
    fit = fit_rate(n_values, medians)
    ok = -0.65 <= fit.slope <= -0.35
    _report(f"W1 ensemble-size slope {fit.slope:.3f}", ok)
    assert ok, (list(medians), fit)


# ---------------------------------------------------------------------------
# 8. policy search recovers the closed-form optimum
# ---------------------------------------------------------------------------


def test_policy_search_recovers_closed_form():
    model = multitask_model(0.5)
    am = MultitaskAnalytic(0.5)
    knots = np.linspace(0.0, 1.0, 9)
    m = len(knots) - 1
    initial = PolicyParam(
        knots=knots,
        gamma_c0=np.full(m, 0.5),
        gamma_c1=np.zeros(m),
        aleph_c0=np.zeros(m),
        aleph_c1=np.zeros(m),
    )
    result = optimize_policy(
        model,
        initial,
        N_proxy=10_000,
        grid=SimGrid(1.0, 50),
        seed=SeedSpec(77).child(0),
        budget=3000,
        parts=("gamma",),  # knot values and state coefficients both free
    )
    assert result.value >= result.trace[0]

    mids = 0.5 * (knots[:-1] + knots[1:])
    targets = np.array([am.gamma_hat(t) for t in mids])
    knot_err = float(np.max(np.abs(result.policy.gamma_c0 - targets)))
    state_mag = float(np.max(np.abs(result.policy.gamma_c1)))

    # unbiased value of the recovered policy, finer grid and fresh draws
    final = evaluate_limit_objective(
        model, (result.policy.gamma_fn, result.policy.aleph_fn), N_proxy=100_000,
        grid=SimGrid(1.0, 200),
        seed=SeedSpec(991).child(0),
    )
    value_err = abs(final.value - am.V_infinity)

    # The grid value of the recovered policy, whose slope is affine in x on
    # each interval: 0.856031 here (V_infinity = 0.859141). The se treats
    # the measure as frozen, so it understates the spread by about
    # sqrt((e^(2 kappa) - 1) / (2 kappa)) = 1.3; over evaluation seeds 991
    # and 0-7 the check still gives |z| <= 2.32.
    pol = result.policy
    interval = lambda t: min(max(int(np.searchsorted(knots, t, side="right")) - 1, 0), m - 1)
    _, _, _, grid_value = grid_limit_law(
        0.5, math.inf, lambda t: pol.gamma_c0[interval(t)], SimGrid(1.0, 200),
        gamma_c1=lambda t: pol.gamma_c1[interval(t)],
    )
    grid_z = (final.value - grid_value) / final.se

    ok = knot_err <= 0.05 and state_mag <= 0.05 and value_err <= 0.02 and abs(grid_z) <= 3.0
    _report(
        f"policy recovery: knot err {knot_err:.3f}, state coeff {state_mag:.3f}, "
        f"value err {value_err:.4f}, grid z {grid_z:+.2f}",
        ok,
    )
    assert knot_err <= 0.05, (result.policy.gamma_c0, targets)
    assert state_mag <= 0.05, result.policy.gamma_c1
    assert value_err <= 0.02, (final.value, am.V_infinity)
    assert abs(grid_z) <= 3.0, (final.value, grid_value, final.se)


# ---------------------------------------------------------------------------
# 9. self-check byte-identical across worker counts
# ---------------------------------------------------------------------------


def test_self_check_byte_identical_across_workers(tmp_path):
    cfg = {
        "experiment": "determinism",
        "model": {"name": "multitask", "params": {"kappa_bar": 0.5}},
        "grid": {"steps": 10},
        "mc": {"master_seed": 123},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    blobs = []
    for tag, workers in (("w1", "1"), ("w4", "4")):
        out = tmp_path / tag
        code = cli.main(
            ["self-check", "--config", str(cfg_path), "--out", str(out), "--workers", workers]
        )
        assert code == 0
        blobs.append((out / "self_check.json").read_bytes())

    ok = blobs[0] == blobs[1]
    _report("self-check byte-identical across workers", ok)
    assert ok
    assert json.loads(blobs[0])["all_passed"] is True


# ---------------------------------------------------------------------------
# 10. numeric baseline: exact terminal variance, first-order weak error
# ---------------------------------------------------------------------------


def test_variance_baseline_and_weak_error_halving():
    # zero drift, unit volatility: Var(X_T) = T
    model = multitask_model(0.0)
    ensemble = simulate_terminal_measure(
        model, _zero, _zero, 100_000, SimGrid(1.0, 16), SeedSpec(314).child(0)
    )
    var, var_se = variance_se(ensemble.samples)
    var_ok = abs(var - 1.0) <= 3.0 * var_se

    # kappa_bar = 0 with slope gamma(t) = 1 + t sampled at left endpoints:
    # the exact value is int(gamma) - int(gamma^2)/2 = 1/3 and the scheme's
    # weak error is the left-endpoint quadrature term, linear in dt.
    target = 1.0 / 3.0
    errors = []
    grid_z = []
    for steps in (4, 8):
        knots = np.linspace(0.0, 1.0, steps + 1)
        zeros = np.zeros(steps)
        policy = PolicyParam(
            knots=knots,
            gamma_c0=1.0 + knots[:-1],
            gamma_c1=zeros,
            aleph_c0=zeros,
            aleph_c1=zeros,
        )
        est = evaluate_limit_objective(
            model, (policy.gamma_fn, policy.aleph_fn), N_proxy=1_000_000,
            grid=SimGrid(1.0, steps),
            seed=SeedSpec(272).child(steps),
        )
        errors.append(abs(est.value - target))
        # the grid value holds the whole weak error: left-endpoint sums
        _, _, _, grid_value = grid_limit_law(0.0, math.inf, lambda t: 1.0 + t, SimGrid(1.0, steps))
        grid_z.append((est.value - grid_value) / est.se)

    ratio = errors[0] / errors[1]
    weak_ok = errors[0] > errors[1] > 0 and ratio >= 1.7
    grid_ok = all(abs(z) <= 3.0 for z in grid_z)
    _report(
        f"terminal variance {var:.4f} (se {var_se:.4f}), "
        f"weak-error ratio {ratio:.2f}, grid z {grid_z[0]:.2f} and {grid_z[1]:.2f}",
        var_ok and weak_ok and grid_ok,
    )
    assert var_ok, (var, var_se)
    assert weak_ok, (errors, ratio)
    assert grid_ok, grid_z


# ---------------------------------------------------------------------------
# 11. the McKean-Vlasov slope is the principal's best at finite n
# ---------------------------------------------------------------------------
# With the exp utility and a deterministic slope gamma_k, the n-agent value is
# J_n(gamma) = 1 - exp(-mu + s2 / 2) (conftest.grid_finite_n_law). Its
# exponent -mu + s2 / 2 is (1 + 1/n) sum (a_k - gamma_k)^2 dt / 2 plus terms
# free of gamma, so the grid form a_k = Phi^(K-k-1) of the McKean-Vlasov slope,
# Phi = 1 + kappa_bar dt, is the principal's best deterministic slope at every n.

MV_KAPPA = 0.5
MV_GRID = SimGrid(1.0, 100)


def _mv_slope() -> np.ndarray:
    K = MV_GRID.steps
    return (1.0 + MV_KAPPA * MV_GRID.dt) ** (K - 1 - np.arange(K))


def _step_slope(values):
    """The slope (t, x) -> values[k] on the k-th grid interval."""
    dt = MV_GRID.dt
    return lambda t, x=None: values[int(round(t / dt))]


def _exact_value(values, n) -> float:
    return grid_finite_n_law(MV_KAPPA, _step_slope(values), MV_GRID, n, nu_var=1.0)[2]


def _mv_perturbations(a):
    """name -> (slope values, the slope as the n-agent run is offered it)."""
    bump = a.copy()
    bump[25:50] += 0.5  # on t in [0.25, 0.5)
    out = {f"scaled {c}": (c * a, _step_slope(c * a)) for c in (0.8, 1.2)}
    out["bump"] = (bump, _step_slope(bump))
    for level in (1.2, 1.4):
        contract = Contract(Y0=0.0, gamma=_step_slope(a), aleph=_zero, truncation_l=level)
        out[f"truncated at {level}"] = (np.minimum(a, level), contract.gamma_l)
    return out


@pytest.mark.parametrize("n", [1, 10, 1000])
def test_mv_slope_is_stationary_and_best_at_finite_n(n):
    a = _mv_slope()
    best = _exact_value(a, n)
    h = 1e-4

    def gradient(g):
        steps = h * np.eye(len(g))
        return np.array([(_exact_value(g + e, n) - _exact_value(g - e, n)) / (2 * h) for e in steps])

    at_mv = float(np.max(np.abs(gradient(a))))
    off_mv = float(np.min(np.abs(gradient(0.8 * a))))  # every coordinate is off its optimum
    stationary = at_mv <= 1e-9 and off_mv >= 1e-4

    times = MV_GRID.nodes[:-1]
    candidates = {name: g for name, (g, _) in _mv_perturbations(a).items()}
    candidates["closed form exp(kappa_bar (T - t_k))"] = np.exp(MV_KAPPA * (1.0 - times))
    rng = np.random.default_rng(10)
    for i, delta in enumerate(rng.normal(scale=0.1, size=(200, len(a)))):
        candidates[f"random {i}"] = a + delta
    losses = {name: best - _exact_value(g, n) for name, g in candidates.items()}
    lower = all(loss > 0 for loss in losses.values())
    _report(
        f"MV slope stationary (max |dJ| {at_mv:.1e}) and best of {len(losses)} slopes "
        f"(least loss {min(losses.values()):.2e}) at n={n}",
        stationary and lower,
    )
    assert stationary, (at_mv, off_mv)
    assert lower, {k: v for k, v in losses.items() if v <= 0}


def test_mv_slope_paired_losses_match_exact_values():
    # one SeedSpec drives the run at a_k and at every perturbation, so each
    # replication's loss is a paired difference on common draws. 80
    # comparisons (8 seeds, 2 sizes, 5 perturbations): the two-sided
    # Bonferroni bound at family-wise 5 % is 3.42 se
    k_se = 3.5
    model = multitask_model(MV_KAPPA, 10.0, nu=normal_law(0.0, 1.0), U=exp_saturating_utility)
    a = _mv_slope()
    worst = 0.0
    for seed in range(8):
        for n in (10, 100):
            spec = SeedSpec(seed).child(n)
            _, base = estimate_n_player_value(model, _step_slope(a), _zero, n, MV_GRID, 500, spec)
            best = _exact_value(a, n)
            cells = []
            for name, (g, gamma) in _mv_perturbations(a).items():
                _, run = estimate_n_player_value(model, gamma, _zero, n, MV_GRID, 500, spec)
                loss = mean_se(base["u"] - run["u"])
                z = (loss.value - (best - _exact_value(g, n))) / loss.se
                worst = max(worst, abs(z))
                cells.append(f"{name} {loss.value:.5f} (z {z:+.2f})")
            print(f"  seed {seed}, n={n}: paired losses " + ", ".join(cells))
    ok = worst <= k_se
    _report(f"MV slope paired losses within {k_se} se on 8 seeds (max |z| {worst:.2f})", ok)
    assert ok, worst
