"""Metropolis-Hastings single-spin-flip dynamics.

Continuous-time rates ``r(sigma, sigma^{x,a}) = exp(-beta * max(dH, 0))``
(moves to lower or equal energy happen at rate 1), the discrete-time kernel
with jump probability ``(q |Lambda|)^{-1} exp(-beta * [dH]_+)``, Gibbs
weights, event-driven trajectory simulation with exact exponential clocks,
an ensemble sampler over enumerated spaces, and the ground-state trace
transform.

RNG: numpy's ``default_rng`` (PCG64); ensembles use ``SeedSequence.spawn``
for independent streams.  All sampling is reproducible given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .energy import energy, flip_delta
from .lattice import SpinConfig, is_ground

__all__ = [
    "rate",
    "rate_from_delta",
    "discrete_kernel",
    "gibbs",
    "partition_function",
    "TrajectorySample",
    "simulate_hit",
    "TraceSample",
    "trace_transform",
    "sample_hitting_times",
]


# ---------------------------------------------------------------------------
# Rates and weights
# ---------------------------------------------------------------------------

def rate_from_delta(delta: float, beta: float) -> float:
    """``exp(-beta * max(delta, 0))``."""
    return math.exp(-beta * max(delta, 0.0))


def rate(sigma: SpinConfig, zeta: SpinConfig, beta: float) -> float:
    """Continuous-time jump rate from ``sigma`` to ``zeta``.

    Nonzero only when the two configurations differ at exactly one site.
    """
    if sigma.spec != zeta.spec:
        raise ValueError("configurations live on different lattices")
    diff = np.flatnonzero(sigma.spins != zeta.spins)
    if len(diff) != 1:
        return 0.0
    i = int(diff[0])
    return rate_from_delta(flip_delta(sigma, i, int(zeta.spins[i])), beta)


def discrete_kernel(sigma: SpinConfig, beta: float) -> dict:
    """One-step jump probabilities of the discrete-time chain.

    Keys are ``(site_index, new_spin)`` for every single-site update that
    changes the configuration, each with probability
    ``(q n)^{-1} exp(-beta [dH]_+)``; key ``None`` holds the remaining
    (holding) probability.  The values sum to 1.
    """
    spec = sigma.spec
    n, q = spec.n_sites, spec.q
    probs: dict = {}
    total = 0.0
    for i in range(n):
        old = int(sigma.spins[i])
        for a in range(1, q + 1):
            if a == old:
                continue
            p = rate_from_delta(flip_delta(sigma, i, a), beta) / (q * n)
            probs[(i, a)] = p
            total += p
    probs[None] = 1.0 - total
    return probs


def gibbs(sigma: SpinConfig, beta: float) -> float:
    """Unnormalized Gibbs weight ``exp(-beta H(sigma))``."""
    return math.exp(-beta * energy(sigma))


def partition_function(space, beta: float) -> float:
    """``Z = sum exp(-beta H)`` over an enumerated space.

    ``space`` is anything exposing an integer ``energies`` array.  Computed
    in the log domain when the energy range would underflow doubles.
    """
    E = np.asarray(space.energies, dtype=np.float64)
    if beta * E.max() > 600.0:
        return float(math.exp(logsumexp(-beta * E)))
    return float(np.exp(-beta * E).sum())


# ---------------------------------------------------------------------------
# Event-driven trajectory simulation
# ---------------------------------------------------------------------------

@dataclass
class TrajectorySample:
    """A simulated trajectory, reproducible from its seed.

    ``events`` lists ``(time, site_index, new_spin)`` with strictly
    increasing times; ``hit`` is False when the step budget ran out, in
    which case ``hitting_time`` is the (censored) time reached.
    """

    seed: int
    events: list = field(default_factory=list)
    hitting_time: float = 0.0
    steps: int = 0
    hit: bool = True


class _RateTable:
    """Incrementally maintained flip-rate catalog for one trajectory.

    ``D[x, a-1]`` is the number of neighbours of ``x`` whose spin differs
    from ``a``; the energy change of updating ``x`` to ``a`` is
    ``D[x, a-1] - D[x, s(x)-1]``.  A flip only touches the rows of the
    flipped site's neighbours, so updates are O(degree * q).
    """

    def __init__(self, sigma: SpinConfig, beta: float):
        spec = sigma.spec
        self.spec = spec
        self.beta = beta
        self.spins = sigma.spins.astype(np.int64).copy()
        n, q = spec.n_sites, spec.q
        self.D = np.zeros((n, q), dtype=np.int64)
        for x in range(n):
            nb = self.spins[spec.neighbor_lists[x]]
            for a in range(1, q + 1):
                self.D[x, a - 1] = np.count_nonzero(nb != a)
        self.rates = np.zeros((n, q), dtype=np.float64)
        for x in range(n):
            self._refresh_row(x)

    def _refresh_row(self, x: int) -> None:
        base = self.D[x, self.spins[x] - 1]
        delta = self.D[x] - base
        self.rates[x] = np.exp(-self.beta * np.maximum(delta, 0))
        self.rates[x, self.spins[x] - 1] = 0.0

    def apply_flip(self, x: int, a: int) -> None:
        old = int(self.spins[x])
        self.spins[x] = a
        for y in self.spec.neighbor_lists[x]:
            self.D[y, old - 1] += 1
            self.D[y, a - 1] -= 1
            self._refresh_row(int(y))
        self._refresh_row(x)

    def total_rate(self) -> float:
        return float(self.rates.sum())

    def draw_move(self, rng: np.random.Generator) -> tuple[int, int]:
        flat = self.rates.ravel()
        c = np.cumsum(flat)
        u = rng.random() * c[-1]
        j = int(np.searchsorted(c, u, side="right"))
        j = min(j, len(flat) - 1)
        return divmod(j, self.spec.q)  # (site, spin-1)


def simulate_hit(
    sigma0: SpinConfig,
    target,
    beta: float,
    seed: int,
    step_budget: int = 10_000_000,
    record_events: bool = True,
) -> TrajectorySample:
    """Simulate the continuous-time dynamics until ``target`` first holds.

    ``target`` is a predicate on :class:`SpinConfig`.  Exact event-driven
    sampling: the waiting time in each state is exponential with the total
    exit rate, and the next state is drawn proportionally to the rates.
    Two runs with equal seeds produce identical event sequences.
    """
    sample = TrajectorySample(seed=seed)
    if target(sigma0):
        return sample
    rng = np.random.default_rng(seed)
    table = _RateTable(sigma0, beta)
    current = sigma0
    t = 0.0
    for step in range(step_budget):
        R = table.total_rate()
        t += rng.exponential(1.0 / R)
        x, a0 = table.draw_move(rng)
        a = a0 + 1
        table.apply_flip(x, a)
        current = current.flip_index(x, a)
        sample.steps = step + 1
        if record_events:
            sample.events.append((t, x, a))
        if target(current):
            sample.hitting_time = t
            return sample
    sample.hit = False
    sample.hitting_time = t
    return sample


# ---------------------------------------------------------------------------
# Trace transform
# ---------------------------------------------------------------------------

@dataclass
class TraceSample:
    """Ground-state sojourns of a trajectory on the accelerated clock.

    ``sojourns`` lists ``(ground_spin, accelerated duration)`` in visit
    order; the trace clock advances only while the trajectory sits on a
    monochromatic configuration and runs ``exp(gamma * beta)`` times faster
    than physical time.
    """

    sojourns: list
    total_trace_time: float
    off_ground_fraction: float


def trace_transform(
    sample: TrajectorySample, sigma0: SpinConfig, gamma: int, beta: float
) -> TraceSample:
    """Apply the acceleration/clock-suppression transform to a trajectory."""
    accel = math.exp(gamma * beta)
    sojourns: list = []
    on_time = 0.0
    total = sample.hitting_time
    current = sigma0
    prev_t = 0.0
    g = is_ground(current)
    for (t, x, a) in sample.events:
        dt = t - prev_t
        if g is not None:
            on_time += dt
            if sojourns and sojourns[-1][0] == g:
                sojourns[-1] = (g, sojourns[-1][1] + accel * dt)
            else:
                sojourns.append((g, accel * dt))
        current = current.flip_index(x, a)
        g = is_ground(current)
        prev_t = t
    off_fraction = 0.0 if total <= 0 else max(0.0, 1.0 - on_time / total)
    return TraceSample(
        sojourns=sojourns,
        total_trace_time=accel * on_time,
        off_ground_fraction=off_fraction,
    )


# ---------------------------------------------------------------------------
# Ensemble sampler over an enumerated space
# ---------------------------------------------------------------------------

def sample_hitting_times(
    space,
    start_state: int,
    target_mask: np.ndarray,
    beta: float,
    n_samples: int,
    seed: int,
    max_steps: int = 50_000_000,
    return_steps: bool = False,
):
    """Hitting times of ``n_samples`` independent trajectories, vectorized.

    ``space`` is an enumerated state space (see ``landscape.enumerate_space``),
    ``start_state`` a state index and ``target_mask`` a boolean array over
    states.  The walkers follow exactly the continuous-time law (embedded
    jump chain plus exponential clocks from precomputed per-state jump
    tables) and run in lockstep; each walker owns a spawned RNG stream's
    contribution through a single generator, so results depend only on
    ``seed`` and ``n_samples``.
    """
    jump_targets, jump_cumprob, total_rates = _jump_tables(space, beta)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cur = np.full(n_samples, start_state, dtype=np.int64)
    times = np.zeros(n_samples, dtype=np.float64)
    step_counts = np.zeros(n_samples, dtype=np.int64)
    result = np.full(n_samples, np.nan, dtype=np.float64)
    alive = np.arange(n_samples)
    done0 = target_mask[cur[alive]]
    result[alive[done0]] = 0.0
    alive = alive[~done0]
    cur = cur[~done0]
    steps = 0
    while len(alive):
        steps += len(alive)
        if steps > max_steps:
            raise RuntimeError(
                f"ensemble step budget {max_steps} exceeded with "
                f"{len(alive)} walkers unfinished"
            )
        times[alive] += rng.exponential(1.0, size=len(alive)) / total_rates[cur]
        step_counts[alive] += 1
        u = rng.random(len(alive))
        local = (jump_cumprob[cur] < u[:, None]).sum(axis=1)
        cur = jump_targets[cur, local]
        hit = target_mask[cur]
        if hit.any():
            result[alive[hit]] = times[alive[hit]]
            alive = alive[~hit]
            cur = cur[~hit]
    if return_steps:
        return result, step_counts
    return result


def _jump_tables(space, beta: float):
    """Per-state jump targets, cumulative jump probabilities, total rates."""
    # (n_states, n_moves) target state per move; intp indexes faster than int32
    moves = space.move_table().astype(np.intp)
    deltas = space.move_deltas()  # (n_states, n_moves) energy change
    rates = np.exp(-beta * np.maximum(deltas, 0.0))
    total = rates.sum(axis=1)
    cum = np.cumsum(rates, axis=1) / total[:, None]
    cum[:, -1] = 1.0  # guard against round-off at the top
    return moves, cum[:, :-1], total
