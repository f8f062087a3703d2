"""Metropolis-Hastings single-spin-flip dynamics.

The continuous-time chain jumps at rate
``r(sigma, sigma^{x,a}) = exp(-beta * max(dH, 0))`` (moves to lower or
equal energy happen at rate 1).  This module holds its event-driven
trajectory simulation with exact exponential clocks, an ensemble sampler
over enumerated spaces, and the ground-state trace transform.

``simulate_hit`` keeps its moves in the bins of the n-fold way (Bortz,
Kalos and Lebowitz 1975), one per energy raise, so drawing and updating
a move costs O(degree * q) whatever the lattice size.  The ensemble
sampler cuts each hitting time at its returns to the start
state (regenerative simulation, Crane and Iglehart 1975): one lane per
walker runs excursions from the start, each indexed when it begins, and
walkers are assembled from them in index order, so no lane idles while
the slowest walkers finish.  Every jump is one alias draw (Vose 1991)
from per-state tables.  The returning excursions ``s -> n -> s`` at each
strict local minimum ``s`` are compressed into one exact draw (a
geometric count, the exact escape law, and deferred Gamma holding
times), in the spirit of absorbing-Markov-chain Monte Carlo (Novotny
1995); the escape neighbour and its next move come from one alias draw
over their joint law.

RNG: numpy's ``default_rng`` (PCG64); the ensemble sampler drives all its
lanes from one ``SeedSequence``-seeded generator.  All sampling is
reproducible given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import SpinConfig, is_ground

__all__ = [
    "TrajectorySample",
    "simulate_hit",
    "TraceSample",
    "trace_transform",
    "sample_hitting_times",
]


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
    """n-fold-way catalogue of the flip moves of one trajectory (Bortz,
    Kalos and Lebowitz, J. Comput. Phys. 17, 10, 1975).

    Move ``m = x * q + a - 1`` updates site ``x`` to spin ``a``.  With
    ``count[x][b]`` neighbours of ``x`` at spin ``b`` and ``s`` the spin of
    ``x``, it changes the energy by ``dH = count[x][s] - count[x][a]`` and
    sits in bin ``k = max(dH, 0)`` of ``0..degree``, all of whose moves have
    the rate ``exp(-beta * k)``.  Bins are lists that keep each move's
    position, removed by swapping in the last entry, so a flip relocates
    only the moves of the flipped site and its neighbours, and a draw costs
    one pass over the bins.
    """

    def __init__(self, sigma: SpinConfig, beta: float):
        q = sigma.spec.q
        self.q = q
        self.nbrs = [[int(y) for y in nb] for nb in sigma.spec.neighbor_lists]
        # the sites whose moves a flip of each site changes: itself, then its neighbours
        self.touched = [[x, *nb] for x, nb in enumerate(self.nbrs)]
        self._spins = [int(s) for s in sigma.spins]
        self.count = [[0] * (q + 1) for _ in self.nbrs]
        for c, nb in zip(self.count, self.nbrs):
            for y in nb:
                c[self._spins[y]] += 1
        n_bins = max(map(len, self.nbrs), default=0) + 1
        self.weights = [math.exp(-beta * k) for k in range(n_bins)]
        self.bins = [[] for _ in range(n_bins)]
        self.key = [-1] * (len(self.nbrs) * q)  # bin of each move, -1 for no move
        self.pos = [0] * len(self.key)  # index of each move in its bin
        self._rebin(range(len(self.nbrs)))

    def _rebin(self, sites) -> None:
        """Put every move of ``sites`` in the bin of its current raise."""
        count, spins, q = self.count, self._spins, self.q
        key, pos, bins = self.key, self.pos, self.bins
        for x in sites:
            c, s = count[x], spins[x]
            own = c[s]
            m = x * q - 1
            for a in range(1, q + 1):
                m += 1
                if a == s:
                    new = -1
                else:
                    new = own - c[a]
                    if new < 0:
                        new = 0
                old = key[m]
                if new == old:
                    continue
                if old >= 0:
                    src = bins[old]
                    last = src.pop()
                    if last != m:
                        src[pos[m]] = last
                        pos[last] = pos[m]
                if new >= 0:
                    dst = bins[new]
                    pos[m] = len(dst)
                    dst.append(m)
                key[m] = new

    def apply_flip(self, x: int, a: int) -> None:
        s = self._spins[x]
        self._spins[x] = a
        for y in self.nbrs[x]:
            c = self.count[y]
            c[s] -= 1
            c[a] += 1
        self._rebin(self.touched[x])

    def total_rate(self) -> float:
        R = 0.0
        for b, w in zip(self.bins, self.weights):
            R += len(b) * w
        return R

    def pick(self, u: float) -> int:
        """The move at ``u`` in ``[0, total_rate())``: the bin from the
        cumulative bin weights, then the member from the remainder."""
        for b, w in zip(self.bins, self.weights):
            c = len(b) * w
            if u < c:
                return b[min(int(u / w), len(b) - 1)]
            u -= c
        # rounding ran past the end: the last move with a positive rate
        return next(b[-1] for b, w in zip(self.bins[::-1], self.weights[::-1]) if b and w > 0)

    @property
    def spins(self) -> np.ndarray:
        return np.array(self._spins, dtype=np.int64)

    @property
    def D(self) -> np.ndarray:
        """``D[x, a-1]``: the neighbours of ``x`` whose spin differs from ``a``."""
        c = np.array(self.count, dtype=np.int64)[:, 1:]
        return np.array([len(nb) for nb in self.nbrs])[:, None] - c

    @property
    def rates(self) -> np.ndarray:
        """``rates[x, a-1]``: the rate of move ``(x, a)``, 0 for ``a = s(x)``."""
        w = np.array(self.weights + [0.0])  # key -1 reads the appended 0
        return w[np.array(self.key)].reshape(len(self.nbrs), self.q)


_BLOCK = 1024  # exponentials and uniforms drawn per generator call


def simulate_hit(
    sigma0: SpinConfig,
    target,
    beta: float,
    seed: int,
    step_budget: int = 10_000_000,
) -> TrajectorySample:
    """Simulate the continuous-time dynamics until ``target`` first holds.

    ``target`` is a predicate on :class:`SpinConfig`.  Exact event-driven
    sampling: the waiting time in each state is exponential with the total
    exit rate, and the next state is drawn proportionally to the rates.
    Two runs with equal seeds produce identical event sequences.  A
    ``RuntimeError`` refuses a state whose every exit rate underflows to 0.
    """
    sample = TrajectorySample(seed=seed)
    if target(sigma0):
        return sample
    rng = np.random.default_rng(seed)
    table = _RateTable(sigma0, beta)
    spec, q = sigma0.spec, sigma0.spec.q
    spins = sigma0.spins.copy()
    t = 0.0
    for step in range(step_budget):
        i = step % _BLOCK
        if i == 0:
            waits = rng.standard_exponential(_BLOCK).tolist()
            picks = rng.random(_BLOCK).tolist()
        R = table.total_rate()
        if not R > 0:
            raise RuntimeError(
                f"every exit rate underflows to 0 at beta={beta} after {step} events: "
                f"the smallest energy raise is {next(k for k, b in enumerate(table.bins) if b)}")
        t += waits[i] / R
        x, a0 = divmod(table.pick(picks[i] * R), q)
        a = a0 + 1
        table.apply_flip(x, a)
        spins[x] = a
        sample.events.append((t, x, a))
        current = spins.copy()
        current.flags.writeable = False
        if target(SpinConfig._trusted(spec, current)):
            sample.steps = step + 1
            sample.hitting_time = t
            return sample
    sample.steps = step_budget
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
    q = sigma0.spec.q
    spins = sigma0.spins.tolist()
    # count[a] sites hold spin a; a flip to a lands on ground iff all do
    count = [0] * (q + 1)
    for s in spins:
        count[s] += 1
    prev_t = 0.0
    g = is_ground(sigma0)
    for (t, x, a) in sample.events:
        dt = t - prev_t
        if g is not None:
            on_time += dt
            if sojourns and sojourns[-1][0] == g:
                sojourns[-1] = (g, sojourns[-1][1] + accel * dt)
            else:
                sojourns.append((g, accel * dt))
        if not 1 <= a <= q:
            raise ValueError(f"spin {a} out of range [1, {q}]")
        count[spins[x]] -= 1
        count[a] += 1
        spins[x] = a
        g = a if count[a] == len(spins) else None
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

_WINDOW = 16  # finished, unfolded excursions the buffer holds, per lane
_SLOTS = 2  # centres whose return counts a buffered excursion keeps
_UNINDEXED = np.iinfo(np.int64).max  # index of a lane that no walker takes
_ALIAS_ROWS = 1024  # laws turned into alias tables at a time


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
    jump chain from per-state alias tables plus exponential clocks), driven
    by a single generator, so results depend only on ``seed`` and
    ``n_samples``.

    Each hitting time is cut at its returns to ``start_state``, which are
    renewals (regenerative simulation, Crane and Iglehart 1975).
    ``n_samples`` lanes run *excursions* from ``start_state`` in lockstep:
    an excursion ends at its next arrival at ``start_state`` (a failure)
    or at a target (a success), and its lane starts the next one at once.
    Each excursion takes the next global index when it starts, and walkers
    are assembled in index order: walker ``i`` is the excursions after the
    ``(i-1)``-th success up to and including the ``i``-th, its time, jumps
    and loop returns their sums.  Finished excursions wait in a buffer of
    fixed capacity, ``16 * n_samples`` records, until every lower index
    has finished; a lane that would index past the buffer runs an
    excursion that is discarded.  An excursion's randomness is drawn after
    its index is fixed, so the indexed excursions are independent and
    identically distributed, and each walker has exactly the law of the
    hitting time.

    Loops at local minima are compressed exactly.  A lane at a *centre*,
    a non-target state every move of which raises the energy, draws in one
    step the geometric number of excursions ``s -> n -> s`` that return,
    the neighbour it escapes through, and that neighbour's next state;
    unless that ends its excursion or is another centre, it then makes its
    ordinary jump in the same lockstep iteration.  The holding times at
    the centre and on the returning excursions do not change the path, so
    only their counts are kept, and their Gamma-sum times are drawn once
    every walker is assembled.  An excursion keeps the counts of the first
    two centres it returns to; the holding times of its returns at any
    further centre are drawn at once, which leaves the law unchanged and
    every buffered excursion the same size.

    ``max_steps`` bounds every embedded jump the ensemble simulates:
    compressed ones, and those of excursions that are discarded or run
    past the last walker's success, count too.  ``return_steps`` also
    returns each walker's number of embedded jumps, the sum over its
    excursions.  A ``RuntimeError`` reports an exceeded budget with the
    number of walkers still unassembled, naming the centre when a single
    loop would pass it.  A ``ValueError`` refuses a start outside
    ``[0, n_states)`` and a mask that is not a boolean array of shape
    ``(n_states,)``.
    """
    if not 0 <= start_state < space.n_states:
        raise ValueError(f"start index {start_state} outside [0, {space.n_states})")
    target_mask = np.asarray(target_mask)
    if target_mask.dtype != bool or target_mask.shape != (space.n_states,):
        raise ValueError(f"target_mask must be a boolean array of shape ({space.n_states},), "
                         f"got {target_mask.dtype} of shape {target_mask.shape}")
    tab = _jump_tables(space, beta, target_mask)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    walkers = _Walkers(n_samples, len(tab.centres))
    if n_samples and not target_mask[start_state]:
        _run_lanes(tab, start_state, target_mask, walkers, max_steps, rng)
    result = walkers.time + _deferred_loop_times(tab, walkers.returns, rng)
    if return_steps:
        return result, walkers.steps
    return result


class _Walkers:
    """Walkers assembled from finished excursions in index order: walker
    ``i`` sums the excursions after the ``(i-1)``-th success up to and
    including the ``i``-th."""

    def __init__(self, n: int, n_centres: int):
        self.time = np.zeros(n)
        self.steps = np.zeros(n, dtype=np.int64)
        self.returns = np.zeros((n, n_centres), dtype=np.int64)  # per centre
        self.done = 0  # walkers assembled

    def fold(self, time, steps, centre, returns, success) -> None:
        """Add the next finished excursions, in index order: their times,
        jumps, return counts ``returns`` at loop-table rows ``centre`` (one
        row per slot, -1 for an empty one) and success flags.  Excursions
        after the last walker's success are dropped."""
        need = len(self.time) - self.done
        ends = np.flatnonzero(success)
        if len(ends) >= need:
            cut = ends[need - 1] + 1
            time, steps, success = time[:cut], steps[:cut], success[:cut]
            centre, returns = centre[:, :cut], returns[:, :cut]
        walker = self.done + np.cumsum(success) - success
        np.add.at(self.time, walker, time)
        np.add.at(self.steps, walker, steps)
        flat = self.returns.reshape(-1)
        for c, k in zip(centre, returns):
            looped = c >= 0
            np.add.at(flat, walker[looped] * self.returns.shape[1] + c[looped], k[looped])
        self.done += min(len(ends), need)


def _run_lanes(tab, start: int, target_mask, walkers: _Walkers, max_steps: int, rng) -> None:
    """Run one lane of excursions from ``start`` per walker, folding them
    into ``walkers`` until every walker is assembled."""
    n = len(walkers.time)
    cap = _WINDOW * n
    # the running excursion of each lane: its time, jumps, the loop-table
    # rows of the first _SLOTS centres it returns to (-1 for none), its
    # returns at each, and its index
    cur = np.full(n, start, dtype=tab.moves.dtype)
    clock = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    centre = np.full((_SLOTS, n), -1, dtype=np.int32)
    returns = np.zeros((_SLOTS, n), dtype=np.int64)
    index = np.arange(n, dtype=np.int64)
    # the same of finished excursions, at their index mod cap, and whether
    # they hit a target
    buf_time = np.zeros(cap)
    buf_steps = np.zeros(cap, dtype=np.int64)
    buf_centre = np.zeros((_SLOTS, cap), dtype=np.int32)
    buf_returns = np.zeros((_SLOTS, cap), dtype=np.int64)
    buf_success = np.zeros(cap, dtype=bool)
    issued = n  # excursion indices handed out
    folded = 0  # excursion indices folded into walkers
    used = 0
    while walkers.done < n:
        # a lane at a centre first loops: it holds there, returns K times,
        # escapes through a neighbour n_j and holds there (unless n_j is a
        # target) before n_j's next move
        row = tab.centre_of.take(cur)
        at = np.flatnonzero(row >= 0)
        r = row[at]
        hold_s, draw, hold_n = rng.standard_exponential((3, len(at)))
        # K returning excursions: P(K >= k) = p_return**k
        K = np.floor(draw * tab.inv_log_return[r])
        # the escape neighbour and its next state, in one alias draw
        o = _alias_draw(tab.loop_prob, tab.loop_alias, r, rng.random(len(at)))
        loop_jumps = 2.0 * K + tab.loop_go_on[o] + 1.0
        after = tab.loop_next[o]
        # then every lane not at a target, a centre or back at the start
        # holds and makes one jump
        move = np.ones(n, dtype=bool)
        move[at] = ~(target_mask[after] | (after == start) | (tab.centre_of[after] >= 0))
        added = loop_jumps.sum() + np.count_nonzero(move)
        if not used + added <= max_steps:
            raise RuntimeError(_budget_message(
                tab, max_steps, n - walkers.done, max_steps - used, loop_jumps, cur[at], r))
        used += int(added)
        if len(at):
            _keep_returns(tab, at, r, K.astype(np.int64), centre, returns, clock, rng)
            steps[at] += loop_jumps.astype(np.int64)
            clock[at] += hold_s * tab.inv_total.take(cur[at]) + hold_n * tab.loop_hold[o]
            cur[at] = after
        u = rng.random(n)
        nxt = tab.moves.take(_alias_draw(tab.jump_prob, tab.jump_alias, cur, u))
        clock += np.where(move, rng.standard_exponential(n) * tab.inv_total.take(cur), 0.0)
        steps += move
        cur = np.where(move, nxt, cur)
        hit = target_mask[cur]
        end = np.flatnonzero(hit | (cur == start))
        if not len(end):
            continue
        kept = end[index[end] != _UNINDEXED]
        slot = index[kept] % cap
        buf_time[slot] = clock[kept]
        buf_steps[slot] = steps[kept]
        for j in range(_SLOTS):
            buf_centre[j][slot] = centre[j][kept]
            buf_returns[j][slot] = returns[j][kept]
        buf_success[slot] = hit[kept]
        index[end] = _UNINDEXED
        # fold the excursions below the oldest index still running, once
        # there are n of them, in slices of the buffer of at most n
        oldest = min(int(index.min()), issued)
        if oldest - folded >= n:
            while folded < oldest and walkers.done < n:
                lo = folded % cap
                hi = min(lo + oldest - folded, cap, lo + n)
                walkers.fold(buf_time[lo:hi], buf_steps[lo:hi], buf_centre[:, lo:hi],
                             buf_returns[:, lo:hi], buf_success[lo:hi])
                folded += hi - lo
        # the lanes that ended start over, indexed while the buffer has room
        cur[end] = start
        clock[end] = 0.0
        steps[end] = 0
        for j in range(_SLOTS):
            centre[j][end] = -1
            returns[j][end] = 0
        fresh = end[:folded + cap - issued]
        index[fresh] = np.arange(issued, issued + len(fresh))
        issued += len(fresh)


def _keep_returns(tab, lanes, rows, K, centre, returns, clock, rng) -> None:
    """Credit ``K`` returns at loop-table rows ``rows`` to the running
    excursions of ``lanes``.  An excursion keeps the counts of the first
    ``_SLOTS`` centres it returns to, so a buffered excursion has a fixed
    size; returns at any further centre add their holding times to the
    excursion's clock at once."""
    looped = K > 0
    lanes, rows, K = lanes[looped], rows[looped], K[looped]
    for c, k in zip(centre, returns):
        held = c[lanes]
        mine = (held < 0) | (held == rows)
        if mine.all():
            c[lanes] = rows
            k[lanes] += K
            return
        c[lanes[mine]] = rows[mine]
        k[lanes[mine]] += K[mine]
        lanes, rows, K = lanes[~mine], rows[~mine], K[~mine]
    clock[lanes] += _loop_times(tab, rows, K, rng)


def _deferred_loop_times(tab, returns, rng) -> np.ndarray:
    """Per-walker time of the returning excursions ``s -> n -> s`` counted
    in ``returns`` (walkers, centres), drawn one centre at a time."""
    t = np.zeros(len(returns))
    for c in np.flatnonzero(returns.any(axis=0)):
        t += _loop_times(tab, c, returns[:, c], rng)
    return t


def _loop_times(tab, rows, K, rng) -> np.ndarray:
    """Time of ``K`` returning excursions ``s -> n -> s`` at loop-table
    rows ``rows`` (one row, or one per count): each adds one hold at the
    centre, ``Gamma(K)/R_s``, and one at a neighbour, ``Gamma(count)/R_n``
    after a multinomial split of the ``K`` returns."""
    s = tab.centres[rows]
    t = np.where(K > 0, rng.gamma(K) * tab.inv_total[s], 0.0)
    counts = rng.multinomial(K, tab.return_law[rows])
    return t + (rng.gamma(counts) * tab.inv_total[tab.moves[s]]).sum(axis=-1)


def _budget_message(tab, max_steps, n_unassembled, room, loop_jumps, states, rows) -> str:
    msg = (f"ensemble step budget {max_steps} exceeded with {n_unassembled} "
           f"walkers still unassembled")
    if len(loop_jumps):
        k = int(np.argmax(np.where(loop_jumps <= room, loop_jumps, np.inf)))
        if not loop_jumps[k] <= room:
            msg += (f": the loop at state {int(states[k])} escapes with probability "
                    f"{tab.p_escape[rows[k]]:.3g} per excursion")
    return msg


def _alias_draw(prob: np.ndarray, alias: np.ndarray, rows: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """Flat outcome index drawn from row ``rows`` of the alias tables
    ``(prob, alias)`` (see :func:`_alias_tables`) for the uniform draws ``u``:
    column ``i = floor(u * width)`` is kept if the remainder of ``u * width``
    falls below its ``prob``, else it gives way to its alias."""
    width = prob.shape[1]
    v = u * width
    i = np.minimum(v.astype(np.intp), width - 1)  # u * width may round up to width
    o = rows * width + i
    return np.where(v - i < prob.take(o), o, alias.take(o))


def _alias_tables(law: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alias tables (Vose, IEEE Trans. Softw. Eng. 17, 972, 1991) of every
    row of the laws ``law`` (rows, width), built ``_ALIAS_ROWS`` rows at a
    time so that the work arrays stay small.

    Returns ``prob`` (rows, width) and ``alias`` (rows, width), the latter
    as int32 flat indices into the whole table.  Each step pairs, in every
    row with both, a column of scaled weight below 1 with one of weight at
    least 1: the small one is finished, and the large one gives it the
    rest of its unit and becomes small if that leaves it below 1.
    """
    rows, width = law.shape
    if rows * width > np.iinfo(np.int32).max:
        raise ValueError(f"{rows} x {width} outcomes overflow int32 alias indices")
    prob = np.ones((rows, width))
    alias = np.empty((rows, width), dtype=np.int32)
    for lo in range(0, rows, _ALIAS_ROWS):
        P = law[lo:lo + _ALIAS_ROWS] * width
        n = len(P)
        p = prob[lo:lo + n]
        a = np.tile(np.arange(width), (n, 1))
        # each row's small columns are a stack in order[:, :n_small], its
        # large ones a stack in order[:, top:], with n_small <= top throughout
        order = np.argsort(P >= 1.0, axis=1, kind="stable")
        n_small = np.count_nonzero(P < 1.0, axis=1)
        top = n_small.copy()
        live = np.flatnonzero((n_small > 0) & (top < width))
        while len(live):
            h = n_small[live] - 1
            small, large = order[live, h], order[live, top[live]]
            p[live, small] = P[live, small]
            a[live, small] = large
            P[live, large] += P[live, small] - 1.0
            fell = P[live, large] < 1.0
            # a large column that falls below 1 takes the small one's place
            order[live[fell], h[fell]] = large[fell]
            top[live[fell]] += 1
            n_small[live[~fell]] -= 1
            live = live[(n_small[live] > 0) & (top[live] < width)]
        alias[lo:lo + n] = a + width * np.arange(lo, lo + n)[:, None]
    return prob, alias


@dataclass(frozen=True)
class _JumpTables:
    """Per-state jump tables, plus the loop tables of each centre ``s``.

    Row ``x`` of ``jump_prob`` and ``jump_alias`` is the alias table of the
    jump law of state ``x``, whose outcome ``x * n_moves + j`` is move
    ``j``.  Row ``c`` of the loop tables belongs to state ``centres[c]``,
    and move ``j`` to its neighbour ``n_j = moves[s, j]``; column
    ``c * n_moves + j`` of ``exit_cum`` is the law of ``n_j``'s next move
    given that it does not go back to ``s``.  A cumulative law over ``m``
    outcomes is a column of its first ``m - 1`` partial sums; outcome
    ``(cum < u).sum()`` for ``u`` uniform on ``[0, 1)``.
    """

    moves: np.ndarray  # (n_states, n_moves) int32 target state of every move
    jump_prob: np.ndarray  # (n_states, n_moves) alias tables of the jump law
    jump_alias: np.ndarray  # (n_states, n_moves) int32 flat outcome index
    inv_total: np.ndarray  # (n_states,) mean holding time, inf if the rates underflow
    centre_of: np.ndarray  # (n_states,) loop-table row of a centre, else -1
    centres: np.ndarray  # (n_centres,) state of each centre
    p_return: np.ndarray  # (n_centres,) P(the next two jumps are s -> n -> s)
    p_escape: np.ndarray  # (n_centres,) the complement, from non-return rates
    inv_log_return: np.ndarray  # (n_centres,) 1 / -log(p_return)
    escape_cum: np.ndarray  # (n_moves - 1, n_centres) law of the escape neighbour
    return_law: np.ndarray  # (n_centres, n_moves) law of a returning neighbour
    exit_cum: np.ndarray  # (n_moves - 1, n_centres * n_moves) exit law of each n_j
    # alias tables of the joint law of (escape move j, exit move k) of each
    # centre, and per outcome j * n_moves + k: the walker's next state, the
    # mean hold at n_j (0 if n_j is a target) and whether it moves on from n_j
    loop_prob: np.ndarray  # (n_centres, n_moves**2)
    loop_alias: np.ndarray  # (n_centres, n_moves**2) int32 flat outcome index
    loop_next: np.ndarray  # (n_centres * n_moves**2,)
    loop_hold: np.ndarray  # (n_centres * n_moves**2,)
    loop_go_on: np.ndarray  # (n_centres * n_moves**2,)


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


def _law(cum: np.ndarray) -> np.ndarray:
    """The outcome probabilities, as rows, of the cumulative laws ``cum``
    written by :func:`_cumulative`."""
    edge = np.ones((1, cum.shape[1]))
    return np.diff(np.concatenate((0.0 * edge, cum, edge)), axis=0).T


def _jump_tables(space, beta: float, target_mask: np.ndarray) -> _JumpTables:
    """Jump tables of every state, and loop tables of the centres: the
    non-target states every move of which raises the energy."""
    moves = space.move_table()
    deltas = space.energies[moves] - space.energies[:, None]  # (n_states, n_moves) energy change
    # each state's jump law from its rate exponents max(dH, 0) shifted by
    # their least, finite at any beta, built in place in one array
    law = deltas.astype(np.float64)
    np.maximum(law, 0.0, out=law)
    least = law.min(axis=1)
    law -= least[:, None]
    law *= -beta
    np.exp(law, out=law)
    weight = law.sum(axis=1)
    law /= weight[:, None]
    jump_prob, jump_alias = _alias_tables(law)
    del law
    total = np.exp(-beta * least) * weight
    centres = np.flatnonzero((deltas > 0).all(axis=1) & ~target_mask)
    centre_of = np.full(space.n_states, -1, dtype=np.intp)
    centre_of[centres] = np.arange(len(centres))

    nbr = moves[centres]  # (C, m); the move n -> s goes downhill at rate 1
    d = deltas[centres]
    w = np.exp(-beta * (d - d.min(axis=1, keepdims=True)))  # finite at any beta
    p = w / w.sum(axis=1, keepdims=True)  # p(s -> n)
    back = moves[nbr] == centres[:, None, None]  # (C, m, m) the move of n to s
    rates = np.exp(-beta * np.maximum(deltas[nbr], 0.0))  # (C, m, m) of each n
    away = np.where(back, 0.0, rates)  # non-return rates of each neighbour
    R_n = total[nbr]
    stop = target_mask[nbr]
    esc = p * np.where(stop, 1.0, away.sum(axis=2) / R_n)
    ret = p * np.where(stop, 0.0, (rates * back).sum(axis=2) / R_n)
    p_escape = esc.sum(axis=1)
    p_return = ret.sum(axis=1)
    with np.errstate(divide="ignore"):
        inv_total = 1.0 / total
        # -log(p_return), from whichever of the two sums is accurate
        log_return = np.where(p_return < 0.5, -np.log(p_return), -np.log1p(-p_escape))
        inv_log_return = 1.0 / log_return
    escape_cum, exit_cum = _cumulative(esc), _cumulative(away)
    m = moves.shape[1]
    joint = _law(escape_cum)[:, :, None] * _law(exit_cum).reshape(-1, m, m)
    loop_prob, loop_alias = _alias_tables(joint.reshape(-1, m * m))
    shape = (len(centres), m, m)
    go_on = np.broadcast_to(~stop[:, :, None], shape)
    return _JumpTables(
        moves=moves,
        jump_prob=jump_prob,
        jump_alias=jump_alias,
        inv_total=inv_total,
        centre_of=centre_of,
        centres=centres,
        p_return=p_return,
        p_escape=p_escape,
        inv_log_return=inv_log_return,
        escape_cum=escape_cum,
        return_law=np.divide(ret, p_return[:, None], out=np.zeros_like(ret),
                             where=p_return[:, None] > 0),
        exit_cum=exit_cum,
        loop_prob=loop_prob,
        loop_alias=loop_alias,
        loop_next=np.where(go_on, moves[nbr], nbr[:, :, None]).ravel(),
        loop_hold=np.where(go_on, inv_total[nbr][:, :, None], 0.0).ravel(),
        loop_go_on=go_on.ravel(),
    )
