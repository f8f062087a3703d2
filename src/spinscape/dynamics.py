"""Metropolis-Hastings single-spin-flip dynamics.

Continuous-time rates ``r(sigma, sigma^{x,a}) = exp(-beta * max(dH, 0))``
(moves to lower or equal energy happen at rate 1), the discrete-time kernel
with jump probability ``(q |Lambda|)^{-1} exp(-beta * [dH]_+)``, Gibbs
weights, event-driven trajectory simulation with exact exponential clocks,
an ensemble sampler over enumerated spaces, and the ground-state trace
transform.  The ensemble sampler compresses the returning excursions
``s -> n -> s`` at each strict local minimum ``s`` into one exact draw (a
geometric count, the exact escape law, and deferred Gamma holding times),
in the spirit of absorbing-Markov-chain Monte Carlo (Novotny 1995).

RNG: numpy's ``default_rng`` (PCG64); the ensemble sampler drives all its
walkers from one ``SeedSequence``-seeded generator.  All sampling is
reproducible given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

    ``space`` is anything exposing an integer ``energies`` array.  The sum
    is shifted by the least energy ``E0``,
    ``Z = exp(-beta E0) * sum exp(-beta (H - E0))``: every term is at most 1,
    so none overflows, the ground states contribute exactly 1 each, and for
    ``E0 = 0`` this is the plain sum term for term.
    """
    E = np.asarray(space.energies, dtype=np.float64)
    E0 = E.min()
    return float(math.exp(-beta * E0) * np.exp(-beta * (E - E0)).sum())


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
    flipped site and its neighbours, so updates are O(degree * q).
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
        # the rows a flip of each site changes: the site, then its neighbours
        self.touched = [np.append(x, nb) for x, nb in enumerate(spec.neighbor_lists)]
        self.rates = np.zeros((n, q), dtype=np.float64)
        self._refresh_rows(np.arange(n))

    def _refresh_rows(self, rows: np.ndarray) -> None:
        own = self.spins[rows] - 1
        delta = self.D[rows] - self.D[rows, own][:, None]
        rates = np.exp(-self.beta * np.maximum(delta, 0))
        rates[np.arange(len(rows)), own] = 0.0
        self.rates[rows] = rates

    def apply_flip(self, x: int, a: int) -> None:
        old = int(self.spins[x])
        self.spins[x] = a
        rows = self.touched[x]
        self.D[rows[1:], old - 1] += 1  # neighbour lists hold no repeats
        self.D[rows[1:], a - 1] -= 1
        self._refresh_rows(rows)

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
    tables) and run in lockstep through a single generator, so results
    depend only on ``seed`` and ``n_samples``.

    Loops at local minima are compressed exactly.  A walker at a *centre*,
    a non-target state every move of which raises the energy, draws in one
    step the geometric number of excursions ``s -> n -> s`` that return,
    the neighbour it escapes through, and that neighbour's next state.
    The holding times at the centre and on the returning excursions do not
    change the path, so only their counts are kept, and their Gamma-sum
    times are drawn once every walker has hit.

    ``max_steps`` bounds the embedded jumps of the whole ensemble,
    compressed ones included; ``return_steps`` also returns each walker's
    number of embedded jumps.  A ``RuntimeError`` reports an exceeded
    budget, naming the centre when a single loop would pass it.
    """
    tab = _jump_tables(space, beta, target_mask)
    n_moves = tab.moves.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    result = np.zeros(n_samples, dtype=np.float64)
    step_counts = np.zeros(n_samples, dtype=np.int64)
    # returning excursions of each walker from each centre
    returns = np.zeros((n_samples, len(tab.centres)), dtype=np.int64)
    # per-live-walker state, compacted whenever walkers hit
    alive = np.arange(n_samples) if not target_mask[start_state] else np.arange(0)
    cur = np.full(len(alive), start_state, dtype=np.intp)
    clock = np.zeros(len(alive), dtype=np.float64)
    extra = np.zeros(len(alive), dtype=np.int64)  # jumps beyond one per iteration
    iters = used = 0
    while len(alive):
        # one jump of every walker; a walker at a centre holds there for this
        # draw's time, then replaces the jump by its loop
        u = rng.random(len(alive))
        clock += rng.standard_exponential(len(alive)) * tab.inv_total[cur]
        nxt = tab.moves[cur, _draw(tab.cum, cur, u)]
        row = tab.centre_of[cur]
        at = np.flatnonzero(row >= 0)
        if len(at):
            r, s = row[at], cur[at]
            # K returning excursions: P(K >= k) = p_return**k
            K = np.floor(rng.standard_exponential(len(at)) * tab.inv_log_return[r])
            j = _draw(tab.escape_cum, r, u[at])
            n_star = tab.moves[s, j]
            go_on = ~target_mask[n_star]
            loop_extra = 2.0 * K + go_on
            added = loop_extra.sum()
        else:
            loop_extra, added = np.zeros(0), 0
        if not used + len(alive) + added <= max_steps:
            raise RuntimeError(_budget_message(
                tab, max_steps, len(alive), max_steps - used - len(alive) + 1,
                loop_extra + 1, cur[at], row[at]))
        used += len(alive) + int(added)
        iters += 1
        if len(at):
            K = K.astype(np.int64)
            returns[alive[at], r] += K
            extra[at] += loop_extra.astype(np.int64)
            # a non-target escape neighbour holds, then moves anywhere but back
            on = np.flatnonzero(go_on)
            n = n_star[on]
            clock[at[on]] += rng.standard_exponential(len(on)) * tab.inv_total[n]
            w = rng.random(len(on))
            n_star[on] = tab.moves[n, _draw(tab.exit_cum, r[on] * n_moves + j[on], w)]
            nxt[at] = n_star
        cur = nxt
        hit = target_mask[cur]
        if hit.any():
            done = alive[hit]
            result[done] = clock[hit]
            step_counts[done] = iters + extra[hit]
            keep = ~hit
            alive, cur, clock, extra = alive[keep], cur[keep], clock[keep], extra[keep]
    result += _deferred_loop_times(tab, returns, rng)
    if return_steps:
        return result, step_counts
    return result


def _deferred_loop_times(tab, returns, rng) -> np.ndarray:
    """Per-walker time of the returning excursions ``s -> n -> s``: each
    adds one hold at the centre, ``Gamma(K)/R_s``, and one at a neighbour,
    ``Gamma(count)/R_n`` after a multinomial split of the ``K`` returns."""
    t = np.zeros(len(returns))
    for c in np.flatnonzero(returns.any(axis=0)):
        K = returns[:, c]
        s = tab.centres[c]
        t += np.where(K > 0, rng.gamma(K) * tab.inv_total[s], 0.0)
        counts = rng.multinomial(K, tab.return_law[c])
        t += (rng.gamma(counts) * tab.inv_total[tab.moves[s]]).sum(axis=1)
    return t


def _budget_message(tab, max_steps, n_alive, room, loop_jumps, states, rows) -> str:
    msg = f"ensemble step budget {max_steps} exceeded with {n_alive} walkers unfinished"
    if len(loop_jumps):
        k = int(np.argmax(np.where(loop_jumps <= room, loop_jumps, np.inf)))
        if not loop_jumps[k] <= room:
            msg += (f": the loop at state {int(states[k])} escapes with probability "
                    f"{tab.p_escape[rows[k]]:.3g} per excursion")
    return msg


def _draw(cum: np.ndarray, cols: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome of each column ``cols`` of the cumulative laws ``cum`` for
    the uniform draws ``u``."""
    return (cum.take(cols, axis=1) < u).sum(axis=0)


@dataclass(frozen=True)
class _JumpTables:
    """Per-state jump tables, plus the loop tables of each centre ``s``.

    Row ``c`` of the loop tables belongs to state ``centres[c]``, and
    move ``j`` to its neighbour ``n_j = moves[s, j]``; column
    ``c * n_moves + j`` of ``exit_cum`` is the law of ``n_j``'s next move
    given that it does not go back to ``s``.  A cumulative law over ``m``
    outcomes is a column of its first ``m - 1`` partial sums (columns
    gather faster than rows); outcome ``(cum < u).sum()`` for ``u``
    uniform on ``[0, 1)``.
    """

    moves: np.ndarray  # (n_states, n_moves) target state of every move
    cum: np.ndarray  # (n_moves - 1, n_states) cumulative jump law
    inv_total: np.ndarray  # (n_states,) mean holding time, inf if the rates underflow
    centre_of: np.ndarray  # (n_states,) loop-table row of a centre, else -1
    centres: np.ndarray  # (n_centres,) state of each centre
    p_return: np.ndarray  # (n_centres,) P(the next two jumps are s -> n -> s)
    p_escape: np.ndarray  # (n_centres,) the complement, from non-return rates
    inv_log_return: np.ndarray  # (n_centres,) 1 / -log(p_return)
    escape_cum: np.ndarray  # (n_moves - 1, n_centres) law of the escape neighbour
    return_law: np.ndarray  # (n_centres, n_moves) law of a returning neighbour
    exit_cum: np.ndarray  # (n_moves - 1, n_centres * n_moves) exit law of each n_j


def _cumulative(w: np.ndarray) -> np.ndarray:
    """Cumulative laws, as columns, of the nonnegative weights ``w``
    (last axis holds the outcomes).

    Sums at or past the last positive weight are exactly 1, so a zero
    weight is never drawn; all-zero weights give all ones."""
    w = w.reshape(-1, w.shape[-1])
    raw = np.cumsum(w, axis=1)
    tot = raw[:, -1:]
    cum = np.divide(raw, tot, out=np.ones_like(raw), where=raw < tot)
    return np.ascontiguousarray(cum[:, :-1].T)


def _jump_tables(space, beta: float, target_mask: np.ndarray) -> _JumpTables:
    """Jump tables of every state, and loop tables of the centres: the
    non-target states every move of which raises the energy."""
    # intp indexes faster than the int32 move table
    moves = space.move_table().astype(np.intp)
    deltas = space.move_deltas()  # (n_states, n_moves) energy change
    rates = np.exp(-beta * np.maximum(deltas, 0.0))
    total = rates.sum(axis=1)
    centres = np.flatnonzero((deltas > 0).all(axis=1) & ~target_mask)
    centre_of = np.full(space.n_states, -1, dtype=np.intp)
    centre_of[centres] = np.arange(len(centres))

    nbr = moves[centres]  # (C, m); the move n -> s goes downhill at rate 1
    d = deltas[centres]
    w = np.exp(-beta * (d - d.min(axis=1, keepdims=True)))  # finite at any beta
    p = w / w.sum(axis=1, keepdims=True)  # p(s -> n)
    back = moves[nbr] == centres[:, None, None]  # (C, m, m) the move of n to s
    away = np.where(back, 0.0, rates[nbr])  # non-return rates of each neighbour
    R_n = total[nbr]
    stop = target_mask[nbr]
    esc = p * np.where(stop, 1.0, away.sum(axis=2) / R_n)
    ret = p * np.where(stop, 0.0, (rates[nbr] * back).sum(axis=2) / R_n)
    p_escape = esc.sum(axis=1)
    p_return = ret.sum(axis=1)
    with np.errstate(divide="ignore"):
        inv_total = 1.0 / total
        # -log(p_return), from whichever of the two sums is accurate
        log_return = np.where(p_return < 0.5, -np.log(p_return), -np.log1p(-p_escape))
        inv_log_return = 1.0 / log_return
    return _JumpTables(
        moves=moves,
        cum=_cumulative(rates),
        inv_total=inv_total,
        centre_of=centre_of,
        centres=centres,
        p_return=p_return,
        p_escape=p_escape,
        inv_log_return=inv_log_return,
        escape_cum=_cumulative(esc),
        return_law=np.divide(ret, p_return[:, None], out=np.zeros_like(ret),
                             where=p_return[:, None] > 0),
        exit_cum=_cumulative(away),
    )
