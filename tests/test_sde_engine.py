"""Tests for the particle simulation engine: grids, seeds, paths, integrals."""

import math
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

import conftest
from palab.contracts import (
    Contract,
    contract_report,
    evaluate_terminal_payment,
    joint_deviation_scan,
    mkv_contract_payment,
)
from palab.mkv_control import PolicyParam, evaluate_limit_objective, optimize_policy
from palab.measures import EmpiricalMeasure
from palab.model import (
    NumericDomainError,
    hamiltonian_h,
    multitask_model,
    normal_law,
    point_mass,
    quadratic_generic_model,
    reduced_coefficients,
)
from palab import sde_engine
from palab.principal_n import estimate_n_player_value
from palab.sde_engine import (
    SeedSpec,
    SimGrid,
    SimulationBlowupError,
    save_paths_csv,
    simulate_particles,
    simulate_terminal_measure,
)

def _zero(t, x):
    return 0.0


def _one(t, x):
    return 1.0


# ---------------------------------------------------------------------------
# grid and seeds
# ---------------------------------------------------------------------------


def test_grid_basics():
    g = SimGrid(2.0, 4)
    assert g.dt == 0.5
    assert np.array_equal(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        SimGrid(1.0, 0)
    with pytest.raises(ValueError):
        SimGrid(-1.0, 10)
    with pytest.raises(ValueError):
        SimGrid(math.inf, 5)
    with pytest.raises(ValueError):
        SimGrid(1.0, 2.5)
    assert np.array_equal(SimGrid(1.0, np.int64(4)).nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_seedspec_child_matches_keyed_generator():
    seed = SeedSpec(12345)
    a = seed.generator(7).standard_normal(5)
    b = seed.child(7).generator().standard_normal(5)
    assert np.array_equal(a, b)
    # deeper keys commute the same way
    c = seed.child(1).generator(2, 3).standard_normal(4)
    d = seed.child(1, 2).generator(3).standard_normal(4)
    e = seed.child(1, 2, 3).generator().standard_normal(4)
    assert np.array_equal(c, d) and np.array_equal(d, e)


def test_seedspec_distinct_keys_distinct_streams():
    seed = SeedSpec(0)
    x = seed.generator(0).standard_normal(8)
    y = seed.generator(1).standard_normal(8)
    assert not np.array_equal(x, y)


# ---------------------------------------------------------------------------
# simulation determinism and structure
# ---------------------------------------------------------------------------


def test_simulation_bitwise_deterministic():
    model = multitask_model(0.5, nu=normal_law())
    grid = SimGrid(1.0, 25)
    p1 = simulate_particles(model, _one, _zero, 50, grid, SeedSpec(9).child(0))
    p2 = simulate_particles(model, _one, _zero, 50, grid, SeedSpec(9).child(0))
    assert p1.states.tobytes() == p2.states.tobytes()
    p3 = simulate_particles(model, _one, _zero, 50, grid, SeedSpec(9).child(1))
    assert p1.states.tobytes() != p3.states.tobytes()
    # shapes and grid bookkeeping
    assert p1.states.shape == (50, 26)
    assert p1.grid == grid


def test_exchangeability_under_relabeling():
    # Relabeling the particles (same initial states and increments, permuted)
    # permutes the paths and nothing else. Without interaction the drift sees
    # no ensemble statistic, so the identity is bitwise.
    n = 17
    rng = np.random.default_rng(555)
    p = rng.permutation(n)
    grid = SimGrid(1.0, 20)
    x0 = rng.standard_normal(n)
    dW = math.sqrt(grid.dt) * rng.standard_normal((grid.steps, n))

    def paths(model, perm):
        steps = sde_engine._euler_steps(model, _one, _zero, x0[perm], grid, iter(dW[:, perm]))
        return np.stack([x0[perm]] + [step.x_next for step in steps], axis=1)

    same = np.arange(n)
    model = multitask_model(0.0)
    assert np.array_equal(paths(model, p), paths(model, same)[p, :])
    # with interaction the ensemble mean re-sums in a different order, so
    # agreement is to rounding, not bitwise
    model_i = multitask_model(0.5)
    assert np.allclose(paths(model_i, p), paths(model_i, same)[p, :], atol=1e-10)


def test_terminal_measure_matches_full_paths():
    model = multitask_model(0.5, nu=normal_law())
    grid = SimGrid(1.0, 30)
    paths = simulate_particles(model, _one, _zero, 40, grid, SeedSpec(4).child(2))
    m = simulate_terminal_measure(model, _one, _zero, 40, grid, SeedSpec(4).child(2))
    assert np.array_equal(m.samples, paths.states[:, -1])


def test_stepper_hands_each_measure_the_guarded_range():
    # The measure of X_k carries X_k's (min, max) from the guard of step k,
    # for one ensemble and for a (batch, n) stack; the measure of x0 has none.
    seen = []

    def drift(t, x, m, e, a):
        seen.append((m._range, None if m._range is None else (x.min(), x.max())))
        return a + 0.0 * x

    model = replace(multitask_model(0.0, nu=normal_law()), drift_b=drift)
    grid = SimGrid(1.0, 6)
    simulate_terminal_measure(model, _one, _zero, 9, grid, SeedSpec(5))
    estimate_n_player_value(model, _one, _zero, 4, grid, 3, SeedSpec(5))
    assert [r is None for r, _ in seen] == ([True] + [False] * 5) * 2
    assert all(r == want for r, want in seen if r is not None)


def test_initial_law_shape_checked():
    # Every entry point draws its initial states through the one check, the
    # limit objective and the policy search included.
    model = multitask_model(0.0)
    bad = replace(model, initial_law_nu=lambda n, rng: np.zeros((n, 1)))
    grid = SimGrid(1.0, 2)
    policy = PolicyParam([0.0, 1.0], [1.0], [0.0], [0.0], [0.0])
    runs = [
        lambda: simulate_particles(bad, _zero, _zero, 5, grid, SeedSpec(0)),
        lambda: evaluate_limit_objective(bad, (_zero, _zero), 5, grid, SeedSpec(0)),
        lambda: optimize_policy(bad, policy, 5, grid, SeedSpec(0), budget=2),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="initial law returned shape"):
            run()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
def test_initial_law_nonfinite_rejected(value):
    # A non-finite initial draw is a numeric-domain error before the first
    # step, on the analytic and the numeric maximizer alike, not a blow-up at
    # step 1 or a Hamiltonian probe error.
    grid = SimGrid(1.0, 2)
    runs = {
        "simulate_particles": lambda m: simulate_particles(m, _zero, _zero, 5, grid, SeedSpec(0)),
        "estimate_n_player_value": lambda m: estimate_n_player_value(
            m, _zero, _zero, 5, grid, 2, SeedSpec(0)
        ),
        "evaluate_limit_objective": lambda m: evaluate_limit_objective(
            m, (_zero, _zero), 5, grid, SeedSpec(0)
        ),
    }
    for model in (multitask_model(0.0), quadratic_generic_model()):
        bad = replace(model, initial_law_nu=lambda n, rng: np.full(n, value))
        for name, run in runs.items():
            with pytest.raises(NumericDomainError, match="initial law returned a non-finite"):
                run(bad)
                pytest.fail(f"{name} accepted a non-finite initial state")


def test_seed_must_be_seedspec():
    model = multitask_model(0.0, nu=normal_law())
    grid = SimGrid(1.0, 2)
    rng = np.random.default_rng(0)
    with pytest.raises(TypeError, match="SeedSpec"):
        simulate_particles(model, _zero, _zero, 3, grid, rng)
    with pytest.raises(TypeError, match="SeedSpec"):
        evaluate_limit_objective(model, (_zero, _zero), 3, grid, rng)
    # the batched replications check it too, before the first generator call
    contract = Contract(0.0, _zero, _zero)
    with pytest.raises(TypeError, match="SeedSpec"):
        estimate_n_player_value(model, _zero, _zero, 3, grid, 2, rng)
    with pytest.raises(TypeError, match="SeedSpec"):
        contract_report(contract, model, 3, grid, 2, rng)
    with pytest.raises(TypeError, match="SeedSpec"):
        joint_deviation_scan(contract, model, [0.0, 1.0], 2, grid, 2, rng)


# ---------------------------------------------------------------------------
# the stream reader's step blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("copies", [1, 3])
def test_block_draws_equal_whole_horizon_reference(copies, monkeypatch):
    # 7 steps read in blocks of kb = 3 (a budget of 3 * batch * n elements):
    # two full blocks and a partial one, so exactly 7 increments, no more.
    # Every row of every step is its replication's stream as one
    # whole-horizon (steps, n) fill reads it.
    model = multitask_model(0.5, nu=normal_law())
    n, reps, grid, seed = 5, 4, SimGrid(1.0, 7), SeedSpec(77)
    monkeypatch.setattr(sde_engine, "_DRAW_BLOCK_ELEMENTS", 3 * reps * n)
    keys = [(r,) for r in range(reps)]
    ((_, _, dWs),) = sde_engine._replication_chunks(model, n, grid, [seed.child(*k) for k in keys], copies)
    got = [np.array(dW) for dW in dWs]
    assert len(got) == grid.steps
    got = np.stack(got, axis=-1)
    assert got.shape == (reps * copies, n, grid.steps)
    for r in range(reps):
        want = conftest.stream_increments(model, n, grid, seed.child(r))
        for c in range(copies):
            assert (got[r * copies + c] == want).all()


def test_block_draws_one_generator_call_per_row_per_block(monkeypatch):
    # Each chunk reads its steps in blocks of kb: batch * ceil(steps / kb)
    # generator calls per chunk, not batch * steps. With a budget of 9 * n
    # elements, a chunk of 3 has kb = 3 (3 * 3 calls) and a chunk of 1 has
    # kb = 9 capped at the 7 steps (1 call). A point-mass initial law draws
    # nothing, so every call counted is a step draw.
    calls = []
    make = SeedSpec.generator

    class Counting:
        def __init__(self, g):
            self.g, self.calls = g, 0
            calls.append(self)

        def standard_normal(self, *args, **kwargs):
            self.calls += 1
            return self.g.standard_normal(*args, **kwargs)

    monkeypatch.setattr(SeedSpec, "generator", lambda self, *key: Counting(make(self, *key)))
    n, grid = 4, SimGrid(1.0, 7)
    monkeypatch.setattr(sde_engine, "_BATCH_ELEMENTS", 3 * n)
    monkeypatch.setattr(sde_engine, "_DRAW_BLOCK_ELEMENTS", 9 * n)
    model = multitask_model(0.5)
    keys = [(r,) for r in range(7)]
    chunks = sde_engine._replication_chunks(model, n, grid, [SeedSpec(3).child(*k) for k in keys])
    seen = []
    for reps, _, dWs in chunks:
        before = sum(g.calls for g in calls)
        for _ in dWs:
            pass
        seen.append((len(reps), sum(g.calls for g in calls) - before))
    assert seen == [(3, 3 * 3), (3, 3 * 3), (1, 1)]


def test_stepper_takes_exactly_one_increment_per_step():
    # the stepper pairs step k with the k-th increment, so a source one
    # short or one long is an error, not a silently shifted or truncated path
    model = multitask_model(0.5)
    grid, x0 = SimGrid(1.0, 4), np.zeros(3)
    for count in (grid.steps - 1, grid.steps + 1):
        dWs = iter(np.zeros((count, 3)))
        with pytest.raises(ValueError):
            for _ in sde_engine._euler_steps(model, _one, _zero, x0, grid, dWs):
                pass
            pytest.fail(f"{count} increments for {grid.steps} steps were accepted")


def test_negative_volatility_rejected():
    # z/sigma is formed only by slope_over_sigma, which guards sigma, so every
    # entry point that divides by sigma rejects a negative or NaN one, for
    # float and for array sigma alike.
    model = multitask_model(0.0)
    grid = SimGrid(1.0, 2)
    paths = simulate_particles(model, _zero, _zero, 5, grid, SeedSpec(0))
    contract = Contract(0.0, _zero, _zero)
    x = paths.states[:, 0]
    runs = {
        "simulate_particles": lambda m: simulate_particles(m, _zero, _zero, 5, grid, SeedSpec(0)),
        "estimate_n_player_value": lambda m: estimate_n_player_value(
            m, _zero, _zero, 5, grid, 2, SeedSpec(0)
        ),
        "evaluate_limit_objective": lambda m: evaluate_limit_objective(
            m, (_zero, _zero), N_proxy=5, grid=grid, seed=SeedSpec(0)
        ),
        # the stored-path replays, on paths simulated under the valid model
        "evaluate_terminal_payment": lambda m: evaluate_terminal_payment(contract, m, paths),
        "mkv_contract_payment": lambda m: mkv_contract_payment(contract, m, paths),
        # the node evaluation and h at a nonzero slope, outside any simulation
        "reduced_coefficients": lambda m: reduced_coefficients(m, 0.0, x, EmpiricalMeasure(x), 0.0, 1.0),
        "hamiltonian_h": lambda m: hamiltonian_h(m, 0.0, x, EmpiricalMeasure(x), 0.0, 1.0, 0.0),
    }
    for sigma in (lambda t, x: -1.0, lambda t, x: np.full(np.shape(x), np.nan)):
        bad = replace(model, vol_sigma=sigma)
        for name, run in runs.items():
            with pytest.raises(NumericDomainError):
                run(bad)
                pytest.fail(f"{name} accepted an invalid volatility")


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------


def test_terminal_variance_is_horizon():
    # zero slope, no interaction: X_T = W_T, Var = T
    model = multitask_model(0.0)
    grid = SimGrid(1.0, 20)
    m = simulate_terminal_measure(model, _zero, _zero, 20_000, grid, SeedSpec(77))
    var, se = conftest.variance_se(m.samples)
    assert abs(var - 1.0) <= 4.0 * se


def test_deterministic_ode_limit():
    # sigma scaled to zero and a forced unit action: X_T = sum dt = T exactly
    # (64 steps keeps the dt accumulation exact in binary floating point)
    model = multitask_model(0.0)
    model = replace(model, vol_sigma=lambda t, x: 0.0)
    grid = SimGrid(1.0, 64)
    forced = replace(model, analytic_maximizer=lambda t, x, m, e, z: 1.0)
    paths = simulate_particles(forced, _zero, _zero, 3, grid, SeedSpec(0))
    assert np.all(paths.states[:, -1] == 1.0)
    # zero slope with zero volatility is the tolerated 0/0 case
    m = simulate_terminal_measure(model, _zero, _zero, 3, grid, SeedSpec(0))
    assert np.all(m.samples == 0.0)


def test_ensemble_mean_replays_linear_recursion():
    # With the clamp slack, the ensemble mean follows
    #   xbar_{k+1} = (1 + kappa dt) xbar_k + gamma(t_k) dt + mean(sigma dW_k)
    # exactly; replaying the recursion from the stream's increments must match.
    kappa = 0.5
    model = multitask_model(kappa, b_bar=10.0)
    grid = SimGrid(1.0, 40)
    gamma = lambda t, x: math.exp(kappa * (1.0 - t))
    paths = simulate_particles(model, gamma, _zero, 500, grid, SeedSpec(21))
    increments = conftest.stream_increments(model, 500, grid, SeedSpec(21))
    xbar = float(np.mean(paths.states[:, 0]))
    dt = grid.dt
    for k in range(grid.steps):
        t = float(paths.grid.nodes[k])
        xbar = xbar + (gamma(t, None) + kappa * xbar) * dt + float(
            np.mean(increments[:, k])
        )
    assert abs(xbar - float(np.mean(paths.states[:, -1]))) <= 1e-10


def test_blowup_detected():
    # strong positive feedback through the mean: the state doubles every few
    # steps and must trip the threshold, not overflow silently
    model = multitask_model(50.0, nu=point_mass(1.0))
    grid = SimGrid(1.0, 100)
    with pytest.raises(SimulationBlowupError) as exc:
        simulate_particles(model, _one, _zero, 10, grid, SeedSpec(0))
    assert exc.value.step >= 1
    assert exc.value.worst > 1e8 or math.isinf(exc.value.worst)


def test_blowup_threshold_override(monkeypatch):
    # alpha = z on the multitask model: slope 100 moves every state by about
    # 10 in the first step, past the lowered threshold
    monkeypatch.setattr(sde_engine, "BLOWUP_THRESHOLD", 1.0)
    model = multitask_model(0.0)
    with pytest.raises(SimulationBlowupError):
        simulate_particles(model, lambda t, x: 100.0, _zero, 5, SimGrid(1.0, 10), SeedSpec(0))


@given(
    steps=st.integers(1, 12),
    data=st.data(),
    n=st.integers(1, 5),
    replications=st.integers(1, 4),
    key=st.integers(0, 2**16),
)
def test_blowup_step_is_the_breaching_step(steps, data, n, replications, key):
    # The drift is zero before t_s and, from t_s on, moves every state about
    # ten times the threshold in one step, so X_{s+1} is the first breaching
    # state. Every entry point must report step s + 1 at its grid time: the
    # stepper pairs step k with the k-th increment and the k-th node.
    s = data.draw(st.integers(0, steps - 1), label="breach_step")
    grid, seed = SimGrid(1.0, steps), SeedSpec(key)
    t_s = float(grid.nodes[s])
    push = 10 * sde_engine.BLOWUP_THRESHOLD / grid.dt
    model = replace(
        multitask_model(0.5, nu=normal_law()),
        drift_b=lambda t, x, m, e, a: push if t >= t_s else 0.0,
    )
    contract = Contract(model.reservation_R, _one, _zero)
    runs = {
        "simulate_particles": lambda: simulate_particles(model, _one, _zero, n, grid, seed),
        "simulate_terminal_measure": lambda: simulate_terminal_measure(
            model, _one, _zero, n, grid, seed
        ),
        "estimate_n_player_value": lambda: estimate_n_player_value(
            model, _one, _zero, n, grid, replications, seed
        ),
        "contract_report": lambda: contract_report(contract, model, n, grid, replications, seed),
        "evaluate_limit_objective": lambda: evaluate_limit_objective(
            model, (_one, _zero), n, grid, seed
        ),
    }
    for name, run in runs.items():
        with pytest.raises(SimulationBlowupError) as exc:
            run()
            pytest.fail(f"{name} did not blow up")
        assert (exc.value.step, exc.value.t) == (s + 1, grid.nodes[s + 1]), name


def _held_states(states):
    """One Euler step (dt = 1, zero volatility) from X_0 = 0 under drift `states`.

    X_1 = 0 + states * 1 = states exactly, so the guard, at a threshold
    lowered to 2.0, sees the given states as they are. (A non-finite X_0
    is rejected before the first step, by the initial-law check.)
    """
    model = replace(
        multitask_model(0.0, nu=point_mass(0.0)),
        drift_b=lambda t, x, m, e, a: np.array(states, dtype=float),
        vol_sigma=lambda t, x: 0.0,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde_engine, "BLOWUP_THRESHOLD", 2.0)
        paths = simulate_particles(model, _zero, _zero, len(states), SimGrid(1.0, 1), SeedSpec(0))
    return paths.states[:, -1]


@pytest.mark.parametrize(
    "x0, worst",
    [
        ([0.5, math.nan, -1.0], math.inf),  # one NaN among finite states
        ([0.5, -4.0, 1.0], 4.0),  # breach on the negative side only
        ([0.0, math.inf, 1.0], math.inf),  # an infinite state
    ],
    ids=["nan", "negative-side", "inf"],
)
def test_blowup_guard_edge_cases(x0, worst):
    with pytest.raises(SimulationBlowupError) as exc:
        _held_states(x0)
    assert exc.value.step == 1
    assert exc.value.worst == worst


def test_blowup_guard_admits_states_at_threshold():
    # |X| equal to the threshold on either side passes
    assert np.array_equal(_held_states([2.0, -2.0, 0.0]), [2.0, -2.0, 0.0])


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_paths_csv(tmp_path):
    model = multitask_model(0.0, nu=normal_law())
    grid = SimGrid(1.0, 3)
    paths = simulate_particles(model, _zero, _zero, 4, grid, SeedSpec(2))
    out = tmp_path / "paths.csv"
    save_paths_csv(paths, str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,particle,state"
    assert len(lines) == 1 + 4 * 4  # header + (steps+1) * n rows
    t, i, x = lines[1].split(",")
    assert float(t) == 0.0 and int(i) == 0
    assert float(x) == paths.states[0, 0]  # repr roundtrip
