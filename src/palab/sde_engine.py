"""Euler-Maruyama simulation of the interacting particle system.

The n agents follow

    dX^i_t = b(t, X^i_t, mu^n_t, e^i_t, a^i_t) dt + sigma(t, X^i_t) dW^i_t,

where mu^n_t is the empirical measure of the ensemble, e^i_t = aleph(t, X^i_t)
the payment rate, and a^i_t the Hamiltonian-optimal response to the slope
gamma(t, X^i_t) (only the deviation scan in contracts overrides it, through
the stepper's play hook). The scheme is explicit Euler: the coefficients at
step k see the measure of the step-k states. Ito sums use the left endpoint
of each interval.

Randomness: SeedSpec keys one Philox generator per (master_seed, spawn key),
so any worker reproduces any stream alone. A stream is read in one fixed
order, n initial draws and then one length-n vector of standard normals per
step, with particle i on lane i. A result therefore depends on the seed and
the key only, never on how replications are batched or spread over workers.

Every step loop runs on _euler_steps, every grid node is evaluated by
model._node, and every stream is read by _replication_chunks.
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
from .model import ModelSpec, NumericDomainError, _node

BLOWUP_THRESHOLD = 1e8
# A chunk of replications holds at most this many states, so each (batch, n)
# array stays within 128 KiB; a replication with a larger n runs alone.
_BATCH_ELEMENTS = 1 << 14
# A chunk draws kb steps per generator call, kb as large as keeps the
# (batch, kb, n) block within this many elements (256 KiB).
_DRAW_BLOCK_ELEMENTS = 1 << 15


class SimulationBlowupError(RuntimeError):
    """A state went non-finite or beyond the blow-up threshold at Euler step `step`, time t."""

    def __init__(self, step: int, t: float, worst: float):
        self.step = step
        self.t = t
        self.worst = worst
        super().__init__(
            f"simulation blew up at step {step} (t={t:.6g}): max |X| = {worst:.3e}"
        )

    def __reduce__(self):  # rebuilt from its fields, e.g. when a pool worker raises it
        return type(self), (self.step, self.t, self.worst)


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
    """Hierarchical seed: a master seed plus a spawn-key prefix.

    generator() is the Philox generator keyed by the prefix, and child(*key)
    is the seed whose prefix is extended by key, the one way to key a stream:
    streams of distinct keys are independent, and each is reproducible from
    the (master_seed, prefix) pair alone. generator() is the one place that
    names the bit generator; the self-check's reference stream takes its
    class from it, so it follows any change here.
    """

    master_seed: int
    prefix: tuple = ()

    def child(self, *key: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.prefix + tuple(int(k) for k in key))

    def generator(self) -> Generator:
        return Generator(Philox(SeedSequence(self.master_seed, spawn_key=self.prefix)))


@dataclass
class ParticlePaths:
    """Ensemble paths on their grid: states[:, k] is the ensemble at node k, shape (n, steps+1)."""

    grid: SimGrid
    states: np.ndarray


def _initial_states(model: ModelSpec, n: int, rng: Generator) -> np.ndarray:
    """The n initial draws of one ensemble, checked to be a finite length-n vector."""
    x = np.asarray(model.initial_law_nu(n, rng), dtype=float)
    if x.shape != (n,):
        raise ValueError(f"initial law returned shape {x.shape}, expected ({n},)")
    if not np.isfinite(x).all():
        raise NumericDomainError("initial law returned a non-finite state")
    return x


def _replication_chunks(
    model: ModelSpec, n: int, grid: SimGrid, seeds, copies: int = 1
) -> Iterator[tuple[range, np.ndarray, Iterator[np.ndarray]]]:
    """Ensemble i on seeds[i].generator(), stepped in (batch, n) chunks.

    The one reader of a stream. Yields (reps, x0, dWs) per chunk: reps is the
    range of indices into seeds, x0 stacks their checked initial states, and
    dWs yields the (batch, n) increments sqrt(dt) * Z of each grid step in
    turn. A yielded increment is a view valid only until the next one is
    taken; a caller that keeps it copies it. Row i matches simulate_particles
    on seeds[i] bit for bit. With copies > 1 each ensemble takes that many
    consecutive rows, all on its initial state and increments. An n below 1
    raises ValueError and an entry that is not a SeedSpec TypeError, before
    any stream is read.
    """
    if n < 1:
        raise ValueError(f"need at least one particle, got n={n}")
    for seed in seeds:
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
    for start in range(0, len(seeds), size):
        reps = range(start, min(start + size, len(seeds)))
        gens = [seeds[i].generator() for i in reps]
        x0 = np.stack([_initial_states(model, n, g) for g in gens])
        yield reps, (x0 if copies == 1 else np.repeat(x0, copies, axis=0)), increments(gens)


def _stream(
    model: ModelSpec, n: int, grid: SimGrid, seed: SeedSpec
) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """(x0, dWs) of the ensemble on seed.generator(); an increment is valid until the next one."""
    ((_, x0, dWs),) = _replication_chunks(model, n, grid, [seed])
    return x0[0], (dW[0] for dW in dWs)


class _Step(NamedTuple):
    """What one Euler step from (t_k, X_k) saw and produced; a caller that needs dX keeps X_k."""

    t: float
    e: Any  # payment rate aleph(t_k, X_k)
    zsig: Any  # slope over volatility gamma(t_k, X_k) / sigma(t_k, X_k)
    L: Any  # running cost at the played action
    b_hat: Any  # drift at the recommended action
    L_hat: Any  # running cost at the recommended action
    x_next: np.ndarray  # X_{k+1}

    @property
    def H(self):
        """Reduced Hamiltonian at the recommended action, computed on each read."""
        return self.b_hat * self.zsig + self.L_hat


def _euler_steps(
    model: ModelSpec,
    gamma: Callable,
    aleph: Callable,
    x: np.ndarray,
    grid: SimGrid,
    dWs: Iterable[np.ndarray],
    play: Optional[Callable] = None,
) -> Iterator[_Step]:
    """Step the ensemble x, shape (n,) or (batch, n), across the grid, yielding a _Step each.

    dWs yields the scaled increments sqrt(dt) * Z of each step, of shape (n,)
    (shared by every row) or the shape of x, exactly grid.steps of them, else
    ValueError. Agents play the recommended action, or play(t, x, a_star).
    A state that goes non-finite or beyond BLOWUP_THRESHOLD, read at call
    time, raises SimulationBlowupError. The (min, max) of a yielded x_next
    becomes the next measure's _range, so callers must not modify it in place.
    """
    times = grid.nodes
    dt = grid.dt
    span = None  # (min, max) of x, once the guard has computed them
    for k, dW in zip(range(grid.steps), dWs, strict=True):
        t = float(times[k])
        m = EmpiricalMeasure(x)
        m._range = span
        e = aleph(t, x)
        sig, zsig, a, b_hat, L_hat = _node(model, t, x, m, e, gamma(t, x))
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


def _recorded(steps: Iterable[_Step], x: np.ndarray, row, states: np.ndarray) -> Iterator[_Step]:
    """The stepper's steps, passed through while row `row` of x and each x_next is copied into states.

    The one path recorder: row is an index into a (batch, n) stack, or ... for
    a single (n,) ensemble. simulate_particles records its ensemble through
    it, and the contract pass its dump row, so the two agree bit for bit.
    """
    states[:, 0] = x[row]
    for k, step in enumerate(steps, 1):
        states[:, k] = step.x_next[row]
        yield step


def simulate_particles(
    model: ModelSpec,
    gamma: Callable,
    aleph: Callable,
    n: int,
    grid: SimGrid,
    seed: SeedSpec,
) -> ParticlePaths:
    """Paths of the n-agent system under the slope field gamma and the rate field aleph.

    gamma(t, x) and aleph(t, x) must broadcast over the length-n state vector.
    Each agent plays the Hamiltonian-optimal response to the slope gamma/sigma.
    A state that goes non-finite or leaves [-BLOWUP_THRESHOLD,
    BLOWUP_THRESHOLD] raises SimulationBlowupError; numpy's overflow warnings
    are silenced in favour of that guard.
    """
    x, dWs = _stream(model, n, grid, seed)
    states = np.empty((n, grid.steps + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in _recorded(_euler_steps(model, gamma, aleph, x, grid, dWs), x, ..., states):
            pass
    return ParticlePaths(grid=grid, states=states)


def simulate_terminal_measure(
    model: ModelSpec,
    gamma: Callable,
    aleph: Callable,
    n: int,
    grid: SimGrid,
    seed: SeedSpec,
) -> EmpiricalMeasure:
    """The terminal measure of simulate_particles on the same arguments, in O(n) memory."""
    x, dWs = _stream(model, n, grid, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in _euler_steps(model, gamma, aleph, x, grid, dWs):
            x = step.x_next
    return EmpiricalMeasure(x)


def save_paths_csv(paths: ParticlePaths, path: str) -> None:
    """Write paths as CSV with columns (t, particle, state), one row per node and particle."""
    # One write per node, so that only one node's rows are held as text.
    with open(path, "w") as fh:
        fh.write("t,particle,state\n")
        for t, col in zip(paths.grid.nodes.tolist(), paths.states.T):
            t = repr(t)
            fh.write("".join([f"{t},{i},{x!r}\n" for i, x in enumerate(col.tolist())]))
