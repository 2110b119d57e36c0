"""Euler-Maruyama simulation of the interacting particle system.

The n agents follow

    dX^i_t = b(t, X^i_t, mu^n_t, e^i_t, a^i_t) dt + sigma(t, X^i_t) dW^i_t,

where mu^n_t is the empirical measure of the current ensemble, e^i_t is a
payment-rate field evaluated along the path, and a^i_t is the
Hamiltonian-optimal response to a slope field gamma (only the deviation
scan in contracts overrides it, through the stepper's play hook). The
scheme is explicit Euler with the measure updated simultaneously with the
states: the coefficients at step k see the measure of the step-k states.

Every step loop in the package runs on one private stepper, _euler_steps.
It steps an (n,) ensemble or a (batch, n) stack of ensembles, hands the
coefficients one EmpiricalMeasure of that state (whose statistics are
floats for an ensemble and (batch, 1) columns for a stack), and evaluates
each node once through _node: the fields, sigma (which must be finite and
>= 0, else NumericDomainError) and one maximizer call (model._recommended).
The stored-path replays in contracts call the same _node. The one guard
on the states is that each stays finite with |X| <= BLOWUP_THRESHOLD
(SimulationBlowupError). The stepper yields the per-step values to its
callers, each with its own accumulators: the two path simulators below,
the limit objective, and the one contract pass (contracts._contract_pass),
which serves the n-player estimator, contract_report and the deviation
scan. The reduced Hamiltonian H is computed only when a caller reads it
(the contract pass does; the limit objective and terminal-law simulation
do not), and a float sigma of 1.0 skips the sigma * dW product; neither
changes a result bit.

The stepper reads Brownian increments, sqrt(dt) * Z, not standard normals,
from an iterator that yields one step's increments at a time, so the order
of the steps is the order of iteration. Every stream is read in one
function, _replication_chunks. Given a list of spawn keys, it builds one
generator per key, checks and stacks the initial states, and reads the step
increments a block of kb steps at a time: each generator fills its (kb, n)
rows of one reused (batch, kb, n) buffer in a single call, and the block is
scaled by sqrt(dt) once, so a step loop allocates no draw arrays and makes
one generator call per row per block, not per step. A yielded increment is
a view that stays valid only until the next one is taken: a caller that
keeps them copies them (the optimizer copies its increments row by row into
its cache once per search). The contract pass hands it one key per
replication. A single ensemble (_stream) is row 0 of a one-row chunk on the
empty key, seed.generator(). The (min, max) that the guard computes for
X_{k+1} is handed to the next step's EmpiricalMeasure (its private _range
slot), so a clamped mean skips the clip when no state lies outside the
clamp. Neither changes a result bit.

Randomness is organized around SeedSpec: one counter-based generator per
(master_seed, spawn key) pair, so any worker can reproduce any stream
without coordinating with the others. Within a stream the consumption order
is fixed — n initial draws, then one length-n increment vector per step —
which makes every simulation bit-reproducible regardless of how the
surrounding experiment is parallelized. A generator fills an (m, n) array
in C order with the same normals that m successive (n,) fills return, so
reading kb steps per call changes no draw. Particle i always reads lane i of
the step draws. Independent replications are stepped together as one
(batch, n) ensemble (_replication_chunks), each row still reading its own
replication's stream in that order, so batching changes no result; the
deviation scan gives each replication one row per cell, every such row
reading that replication's stream.

All Ito sums in this package use the left endpoint of each interval.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np
# Loaded with the module, not on the first draw: a process pool forked after
# import then shares it instead of importing it in every worker.
from numpy.random import Generator, Philox, SeedSequence

from .measures import EmpiricalMeasure
from .model import ModelSpec, NumericDomainError, _recommended, slope_over_sigma

BLOWUP_THRESHOLD = 1e8
# Replications stepped together are capped at this many state elements, so
# each (batch, n) array of a chunk stays within 128 KiB (a replication whose
# n alone exceeds the cap runs as a chunk of one).
_BATCH_ELEMENTS = 1 << 14
# Each chunk reads its step increments kb steps at a time, with kb as large
# as keeps the (batch, kb, n) block within this many elements (256 KiB); a
# chunk whose batch * n alone exceeds it reads one step per call.
_DRAW_BLOCK_ELEMENTS = 1 << 15


class SimulationBlowupError(RuntimeError):
    """A state exceeded the blow-up threshold (or went non-finite).

    Attributes step and t locate the first offending Euler step.
    """

    def __init__(self, step: int, t: float, worst: float):
        self.step = step
        self.t = t
        self.worst = worst
        super().__init__(
            f"simulation blew up at step {step} (t={t:.6g}): max |X| = {worst:.3e}"
        )


@dataclass(frozen=True)
class SimGrid:
    """Uniform time grid on [0, horizon_T] with `steps` Euler steps."""

    horizon_T: float
    steps: int

    def __post_init__(self):
        if not (0 < self.horizon_T < math.inf):
            raise ValueError(f"horizon_T must be positive and finite, got {self.horizon_T}")
        try:
            operator.index(self.steps)
        except TypeError:
            raise ValueError(f"steps must be an integer, got {self.steps!r}") from None
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon_T / self.steps

    @property
    def nodes(self) -> np.ndarray:
        """The steps+1 grid times, with both endpoints exact."""
        return np.linspace(0.0, self.horizon_T, self.steps + 1)


@dataclass(frozen=True)
class SeedSpec:
    """Hierarchical seed: a master seed plus a tuple spawn-key prefix.

    generator(*key) builds a Philox generator keyed by prefix + key, so
    streams are independent across distinct keys and reproducible from the
    (master_seed, key) pair alone. child(*key) extends the prefix, letting a
    component hand scoped sub-seeds to its own replications.
    """

    master_seed: int
    prefix: tuple = ()

    def child(self, *key: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.prefix + tuple(int(k) for k in key))

    def generator(self, *key: int) -> Generator:
        ss = SeedSequence(self.master_seed, spawn_key=self.prefix + tuple(int(k) for k in key))
        return Generator(Philox(ss))


@dataclass
class ParticlePaths:
    """Materialized ensemble paths on the grid they were simulated on.

    states has shape (n, steps+1) with states[:, 0] the initial draws.
    """

    grid: SimGrid
    states: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1


def _initial_states(model: ModelSpec, n: int, rng: Generator) -> np.ndarray:
    """The n initial draws of one ensemble, checked to be a finite length-n vector."""
    if n < 1:
        raise ValueError(f"need at least one particle, got n={n}")
    x = np.asarray(model.initial_law_nu(n, rng), dtype=float)
    if x.shape != (n,):
        raise ValueError(f"initial law returned shape {x.shape}, expected ({n},)")
    if not np.isfinite(x).all():
        raise NumericDomainError("initial law returned a non-finite state")
    return x


def _replication_chunks(
    model: ModelSpec, n: int, grid: SimGrid, seed: SeedSpec, keys, copies: int = 1
) -> Iterator[tuple[range, np.ndarray, Iterator[np.ndarray]]]:
    """Independent ensembles grouped into (batch, n) chunks for _euler_steps.

    The one reader of a stream: ensemble i comes from seed.generator(*keys[i]).
    Yields (reps, x0, dWs) per chunk: reps is the range of indices into keys,
    x0 stacks their checked initial states, and dWs yields the (batch, n)
    Brownian increments of steps 0, 1, ..., steps - 1 of the grid. Every kb
    steps, with kb = max(1, min(steps, _DRAW_BLOCK_ELEMENTS // (batch * n))),
    each generator fills its rows of one reused (batch, kb, n) block in one
    call and the block is scaled by sqrt(dt) in place; dWs yields its step
    slices in turn, each valid until the next is taken, so a caller that
    keeps them copies them. Each stream is consumed exactly as a lone
    simulation consumes it (n initial draws, then one length-n vector per
    step), so row i matches simulate_particles on seed.child(*keys[i]) bit
    for bit.

    copies > 1 gives each ensemble that many consecutive rows, all starting
    from its initial state and reading its increments (the deviation scan
    runs one row per cell this way); chunks are then sized so that
    batch * copies * n stays within _BATCH_ELEMENTS. A seed that is not a
    SeedSpec raises TypeError.
    """
    if not isinstance(seed, SeedSpec):
        raise TypeError(f"seed must be a SeedSpec, got {type(seed)!r}")
    steps = grid.steps
    sqdt = math.sqrt(grid.dt)

    def increments(gens):
        kb = max(1, min(steps, _DRAW_BLOCK_ELEMENTS // (len(gens) * n)))
        block = np.empty((len(gens), kb, n))
        for k in range(0, steps, kb):
            m = min(kb, steps - k)
            for g, r in zip(gens, block):
                g.standard_normal(out=r[:m])
            block[:, :m] *= sqdt
            for j in range(m):
                dW = block[:, j]
                yield dW if copies == 1 else np.repeat(dW, copies, axis=0)

    size = max(1, _BATCH_ELEMENTS // (n * copies))
    for start in range(0, len(keys), size):
        reps = range(start, min(start + size, len(keys)))
        gens = [seed.generator(*keys[i]) for i in reps]
        x0 = np.stack([_initial_states(model, n, g) for g in gens])
        yield reps, (x0 if copies == 1 else np.repeat(x0, copies, axis=0)), increments(gens)


def _stream(
    model: ModelSpec, n: int, grid: SimGrid, seed: SeedSpec
) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """(x0, dWs) of the one ensemble on seed.generator(): row 0 of a one-row chunk.

    dWs yields the (n,) increments of each step in turn, each valid until
    the next is taken, as _replication_chunks' do.
    """
    ((_, x0, dWs),) = _replication_chunks(model, n, grid, seed, [()])
    return x0[0], (dW[0] for dW in dWs)


class _Step(NamedTuple):
    """What one Euler step from (t_k, X_k) saw and produced.

    X_k itself is not kept: callers that need dX hold their own copy, so a
    long-lived ensemble never has three state vectors alive at once. The
    reduced Hamiltonian H is not stored either: the property computes
    b_hat * zsig + L_hat on each read, so only the callers that read it pay
    for it.
    """

    t: float
    e: Any  # payment rate aleph(t_k, X_k)
    zsig: Any  # slope over volatility gamma(t_k, X_k) / sigma(t_k, X_k)
    L: Any  # running cost at the played action
    b_hat: Any  # drift at the recommended action
    L_hat: Any  # running cost at the recommended action
    x_next: np.ndarray  # X_{k+1}

    @property
    def H(self):
        """Reduced Hamiltonian at the recommended action."""
        return self.b_hat * self.zsig + self.L_hat


def _node(model: ModelSpec, gamma: Callable, aleph: Callable, t: float, x, m: EmpiricalMeasure):
    """(e, sigma, z/sigma, a*, b_hat, L_hat) at one grid node (t, x) under measure m.

    The one node evaluation, shared by the stepper and the stored-path
    replays in contracts: the rate e = aleph(t, x), the checked volatility,
    the slope over volatility, and one maximizer call (model._recommended)
    for the recommended action with the drift and running cost at it.
    sigma must be finite and >= 0, else NumericDomainError: the theory
    requires sigma > 0, and sigma == 0 is allowed so that ODE-limit
    diagnostics run. A float sigma is checked without numpy; NaN fails.
    """
    e = aleph(t, x)
    z = gamma(t, x)
    sig = model.vol_sigma(t, x)
    if isinstance(sig, float):
        sig_ok = 0.0 <= sig < math.inf
    else:
        sig_ok = np.all((sig >= 0.0) & (sig < math.inf))
    if not sig_ok:
        raise NumericDomainError(f"volatility must be finite and >= 0 (t={t}): {sig!r}")
    zsig = slope_over_sigma(z, sig)
    return (e, sig, zsig) + _recommended(model, t, x, m, e, zsig)


def _euler_steps(
    model: ModelSpec,
    gamma: Callable,
    aleph: Callable,
    x: np.ndarray,
    grid: SimGrid,
    dWs: Iterable[np.ndarray],
    play: Optional[Callable] = None,
) -> Iterator[_Step]:
    """Step the ensemble x (shape (n,) or (batch, n)) across the grid.

    dWs yields the Brownian increments sqrt(dt) * Z of each step in turn,
    already scaled: shape (n,), shared by every row of a batch, or the
    shape of x. It must yield exactly grid.steps of them, else ValueError.
    Each step evaluates the fields and sigma at (t_k, X_k), makes one
    maximizer call for the recommended action, moves the state by the played
    action (the recommendation, or play(t, x, a_star) when given), guards
    the result, and yields a _Step. The guard tests the largest and the
    smallest state against BLOWUP_THRESHOLD, read at call time, each on its
    own so that a NaN fails either test; max |X| is computed only for the
    error. The (min, max) it computes becomes the _range of the next step's
    EmpiricalMeasure (the measure of x0 has none), so callers must not
    modify a yielded x_next in place.
    """
    times = grid.nodes
    dt = grid.dt
    span = None  # (min, max) of x, once the guard has computed them
    for k, dW in zip(range(grid.steps), dWs, strict=True):
        t = float(times[k])
        m = EmpiricalMeasure(x)
        m._range = span
        e, sig, zsig, a, b_hat, L_hat = _node(model, gamma, aleph, t, x, m)
        b, L = b_hat, L_hat
        if play is not None:
            a = play(t, x, a)
            b = model.drift_b(t, x, m, e, a)
            L = model.running_cost_L(t, x, m, e, a)
        x_next = x + b * dt
        if isinstance(sig, float) and sig == 1.0:
            x_next += dW  # 1.0 * dW is dW exactly
        else:
            x_next += sig * dW
        # Each comparison fails on a NaN maximum or minimum, so NaN is caught.
        hi, lo = x_next.max(), x_next.min()
        if not (hi <= BLOWUP_THRESHOLD and lo >= -BLOWUP_THRESHOLD):
            worst = np.abs(x_next).max()
            raise SimulationBlowupError(
                k + 1, float(times[k + 1]), float(worst) if math.isfinite(worst) else math.inf
            )
        span = (lo, hi)
        yield _Step(t, e, zsig, L, b_hat, L_hat, x_next)
        x = x_next


def simulate_particles(
    model: ModelSpec,
    gamma: Callable,
    aleph: Callable,
    n: int,
    grid: SimGrid,
    seed: SeedSpec,
) -> ParticlePaths:
    """Simulate the n-agent system under feedback fields gamma and aleph.

    gamma(t, x) is the payment slope and aleph(t, x) the payment-rate field;
    both must broadcast over the length-n state vector. Each agent plays the
    Hamiltonian-optimal response to slope gamma/sigma.

    Returns the materialized paths. Raises SimulationBlowupError if a state
    leaves [-BLOWUP_THRESHOLD, BLOWUP_THRESHOLD] or goes non-finite.
    """
    x, dWs = _stream(model, n, grid, seed)
    states = np.empty((n, grid.steps + 1))
    states[:, 0] = x
    for k, step in enumerate(_euler_steps(model, gamma, aleph, x, grid, dWs)):
        states[:, k + 1] = step.x_next
    return ParticlePaths(grid=grid, states=states)


def simulate_terminal_measure(
    model: ModelSpec,
    gamma: Callable,
    aleph: Callable,
    n: int,
    grid: SimGrid,
    seed: SeedSpec,
) -> EmpiricalMeasure:
    """Terminal empirical measure only, with O(n) memory.

    Runs exactly the simulate_particles scheme (same stream, same state
    recursion) but stores no intermediate states; use for large ensembles
    where only the terminal law matters (e.g. chaos sweeps).
    """
    x, dWs = _stream(model, n, grid, seed)
    for step in _euler_steps(model, gamma, aleph, x, grid, dWs):
        x = step.x_next
    return EmpiricalMeasure(x)


def save_paths_csv(paths: ParticlePaths, path: str) -> None:
    """Dump paths as text CSV with columns (t, particle, state).

    One row per (grid node, particle); intended for small diagnostic runs —
    large ensembles should stay in memory.
    """
    with open(path, "w") as fh:
        fh.write("t,particle,state\n")
        for k, t in enumerate(paths.times):
            col = paths.states[:, k]
            for i in range(paths.n_particles):
                fh.write(f"{float(t)!r},{i},{float(col[i])!r}\n")
