"""Dynamics: rates, the stationary law, detailed balance, simulation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinscape import dynamics as dy
from spinscape import potential as pt
from spinscape.energy import energy, flip_delta
from spinscape.lattice import LatticeSpec, SpinConfig, is_ground, monochrome


def random_config(spec, seed):
    rng = np.random.default_rng(seed)
    return SpinConfig(spec, rng.integers(1, spec.q + 1, spec.n_sites).astype(np.int16))


SPEC = LatticeSpec(2, 2, 3, 2, "open")


def _rates_and_deltas(c, beta):
    """The n-fold-way table's rates and the flip deltas, both ``(n, q)``
    with column ``a - 1`` for the move to spin ``a``."""
    q = c.spec.q
    D = np.array([[flip_delta(c, i, a) if a != c.spins[i] else 0 for a in range(1, q + 1)]
                  for i in range(c.spec.n_sites)])
    return dy._RateTable(c, beta).rates, D


class TestRates:
    """The continuous-time Metropolis rates as the event engine holds them."""

    def test_downhill_rate_one(self):
        c = random_config(SPEC, 1)
        rates, D = _rates_and_deltas(c, 2.0)
        moves = np.arange(SPEC.q) + 1 != c.spins[:, None]
        assert np.any(moves & (D <= 0))
        assert np.all(rates[moves & (D <= 0)] == 1.0)

    def test_uphill_rate(self):
        c = random_config(SPEC, 2)
        rates, D = _rates_and_deltas(c, 1.5)
        up = D > 0
        assert np.any(up)
        assert np.allclose(rates[up], np.exp(-1.5 * D[up]), rtol=1e-15, atol=0)

    def test_rate_zero_unless_single_flip(self):
        # the table holds the single flips only; the entry of a site's own
        # spin is the non-move, at rate 0
        c = random_config(SPEC, 3)
        rates, _ = _rates_and_deltas(c, 1.0)
        assert rates.shape == (SPEC.n_sites, SPEC.q)
        assert np.all(rates[np.arange(SPEC.n_sites), c.spins - 1] == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), beta=st.floats(0.1, 5.0))
    def test_detailed_balance(self, seed, beta):
        c = random_config(SPEC, seed)
        rng = np.random.default_rng(seed + 1)
        i = int(rng.integers(SPEC.n_sites))
        a = int(rng.integers(1, SPEC.q + 1))
        if a == int(c.spins[i]):
            return
        z = c.flip_index(i, a)
        gc, gz = math.exp(-beta * energy(c)), math.exp(-beta * energy(z))
        lhs = gc * dy._RateTable(c, beta).rates[i, a - 1]
        rhs = gz * dy._RateTable(z, beta).rates[i, int(c.spins[i]) - 1]
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert lhs == pytest.approx(min(gc, gz), rel=1e-12)


class TestKernel:
    """The stationary law of ``chain_from_space``, the chain the solvers
    build: ``mu = exp(-beta H) / Z``."""

    def test_partition_function_small_beta(self, space_223_open):
        mu = pt.chain_from_space(space_223_open, 0.0).mu
        assert np.all(mu == 1.0 / space_223_open.n_states)

    @staticmethod
    def _ground_states_hold_the_mass(space, beta):
        # q = 2 ground states at energy 0 take 1/2 each as beta grows
        mu = pt.chain_from_space(space, beta).mu
        assert np.all(np.isfinite(mu)) and mu.sum() == pytest.approx(1.0, abs=1e-12)
        for g in space.ground_states().values():
            assert mu[g] == pytest.approx(0.5, abs=1e-10)

    def test_partition_function_large_beta(self, space_223_open):
        self._ground_states_hold_the_mass(space_223_open, 50.0)

    def test_partition_function_log_domain(self, space_223_open):
        # exp(-1000 H) underflows for every H > 0
        self._ground_states_hold_the_mass(space_223_open, 1000.0)


class TestSimulation:
    def test_determinism(self):
        c = monochrome(SPEC, 1)
        target = lambda s: is_ground(s) == 2  # noqa: E731
        a = dy.simulate_hit(c, target, beta=1.0, seed=7)
        b = dy.simulate_hit(c, target, beta=1.0, seed=7)
        assert a.events == b.events and a.hitting_time == b.hitting_time
        other = dy.simulate_hit(c, target, beta=1.0, seed=8)
        assert other.events != a.events

    def test_budget_censoring(self):
        c = monochrome(SPEC, 1)
        target = lambda s: is_ground(s) == 2  # noqa: E731
        sample = dy.simulate_hit(c, target, beta=5.0, seed=1, step_budget=10)
        assert not sample.hit and sample.steps == 10

    def test_event_energies_consistent(self):
        c = monochrome(SPEC, 1)
        target = lambda s: is_ground(s) == 2  # noqa: E731
        sample = dy.simulate_hit(c, target, beta=1.0, seed=3)
        cur = c
        t_prev = 0.0
        for (t, x, a) in sample.events:
            assert t > t_prev
            t_prev = t
            cur = cur.flip_index(x, a)
        assert is_ground(cur) == 2

    def test_trace_transform(self):
        c = monochrome(SPEC, 1)
        target = lambda s: is_ground(s) == 2  # noqa: E731
        sample = dy.simulate_hit(c, target, beta=2.0, seed=5)
        trace = dy.trace_transform(sample, c, gamma=6, beta=2.0)
        assert trace.sojourns[0][0] == 1
        assert 0.0 <= trace.off_ground_fraction <= 1.0
        assert trace.total_trace_time > 0

    def test_trace_transform_matches_replay(self):
        """Against a reference that rebuilds the configuration at each event."""
        spec = LatticeSpec(2, 2, 2, 3, "open")
        c = monochrome(spec, 1)
        gamma, beta = 4, 1.0
        sample = dy.simulate_hit(c, lambda s: False, beta=beta, seed=4, step_budget=3000)
        accel = math.exp(gamma * beta)
        sojourns, on_time, prev_t, cur = [], 0.0, 0.0, c
        for (t, x, a) in sample.events:
            g = is_ground(cur)
            if g is not None:
                on_time += t - prev_t
                if sojourns and sojourns[-1][0] == g:
                    sojourns[-1] = (g, sojourns[-1][1] + accel * (t - prev_t))
                else:
                    sojourns.append((g, accel * (t - prev_t)))
            cur = cur.flip_index(x, a)
            prev_t = t
        trace = dy.trace_transform(sample, c, gamma=gamma, beta=beta)
        assert len(sojourns) >= 3
        assert trace.sojourns == sojourns
        assert trace.total_trace_time == accel * on_time
        assert trace.off_ground_fraction == max(0.0, 1.0 - on_time / sample.hitting_time)
        bad = dy.TrajectorySample(seed=0, events=[(1.0, 0, 4)], hitting_time=2.0)
        with pytest.raises(ValueError, match="spin 4 out of range"):
            dy.trace_transform(bad, c, gamma=gamma, beta=beta)


class TestEnsemble:
    def test_matches_exact_mean(self, space_223_open):
        space = space_223_open
        g = space.ground_states()
        mask = np.zeros(space.n_states, bool)
        mask[g[2]] = True
        beta = 2.0
        times = dy.sample_hitting_times(space, g[1], mask, beta, 400, seed=9)
        exact = pt.mean_hitting_exact(pt.chain_from_space(space, beta), g[1], [g[2]])
        se = times.std(ddof=1) / math.sqrt(len(times))
        assert abs(times.mean() - exact) <= 4 * se

    def test_deterministic_per_seed(self, space_223_open):
        space = space_223_open
        g = space.ground_states()
        mask = np.zeros(space.n_states, bool)
        mask[g[2]] = True
        t1 = dy.sample_hitting_times(space, g[1], mask, 2.0, 50, seed=11)
        t2 = dy.sample_hitting_times(space, g[1], mask, 2.0, 50, seed=11)
        assert np.array_equal(t1, t2)

    def test_immediate_hit(self, space_223_open):
        space = space_223_open
        g = space.ground_states()
        mask = np.zeros(space.n_states, bool)
        mask[g[1]] = True
        t = dy.sample_hitting_times(space, g[1], mask, 2.0, 10, seed=0)
        assert np.all(t == 0.0)


def _survival(space, beta, start, target_mask):
    """``t -> P(tau > t)`` for the hitting time of ``target_mask`` from
    ``start``, from a dense eigendecomposition of the generator restricted
    to the non-target states, symmetrized by the Gibbs weights."""
    E = space.energies.astype(np.float64)
    free = np.flatnonzero(~target_mask)
    pos = np.full(space.n_states, -1)
    pos[free] = np.arange(len(free))
    nbr = space.move_table()[free].astype(np.int64)
    rates = np.exp(-beta * np.maximum(E[nbr] - E[free, None], 0.0))
    Q = np.zeros((len(free), len(free)))
    Q[np.arange(len(free)), np.arange(len(free))] = -rates.sum(axis=1)
    rows, cols = np.nonzero(~target_mask[nbr])
    Q[rows, pos[nbr[rows, cols]]] += rates[rows, cols]
    d = np.exp(-beta * (E[free] - E.min()) / 2)  # sqrt of the Gibbs weights
    lam, V = np.linalg.eigh(d[:, None] * Q / d[None, :])
    i = pos[start]
    a = V[i] / d[i] * (V.T @ d)
    return lambda t: np.exp(np.outer(t, lam)) @ a


class TestRenewalLanes:
    """The walkers assembled from excursions have the exact hitting law."""

    @pytest.fixture(scope="class")
    def space_222(self):
        from spinscape.landscape import enumerate_space

        return enumerate_space(LatticeSpec(2, 2, 2, 2, "open"))

    @pytest.mark.parametrize("variant", ["as-built", "window-1", "one-slot"])
    @pytest.mark.parametrize("start", ["ground", "off-centre"])
    def test_cdf_within_dkw_band_of_exact_law(self, space_222, start, variant, monkeypatch):
        # a buffer of one excursion per lane sends most lanes to discarded
        # excursions, and one slot per excursion draws most loops at a
        # second centre at once: neither may change the law
        if variant == "window-1":
            monkeypatch.setattr(dy, "_WINDOW", 1)
        if variant == "one-slot":
            monkeypatch.setattr(dy, "_SLOTS", 1)
        space, beta, n = space_222, 2.0, 2000
        g = space.ground_states()
        mask = np.zeros(space.n_states, bool)
        mask[g[2]] = True
        s = g[1] if start == "ground" else int(space.move_table()[g[1], 0])
        times = np.sort(dy.sample_hitting_times(space, s, mask, beta, n, seed=23))
        cdf = 1.0 - _survival(space, beta, s, mask)(times)
        ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert ks <= math.sqrt(math.log(2 / 0.001) / (2 * n))  # 99.9 % DKW band

    def test_mean_from_a_state_off_the_centres(self, space_223_open):
        # a start every excursion leaves by a plain jump, not a loop
        space = space_223_open
        g = space.ground_states()
        mask = np.zeros(space.n_states, bool)
        mask[g[2]] = True
        start = int(space.move_table()[g[1], 4])
        assert not (space.move_deltas()[start] > 0).all()
        beta = 2.0
        times = dy.sample_hitting_times(space, start, mask, beta, 400, seed=29)
        exact = pt.mean_hitting_exact(pt.chain_from_space(space, beta), start, [g[2]])
        se = times.std(ddof=1) / math.sqrt(len(times))
        assert abs(times.mean() - exact) <= 4 * se

    def test_returns_past_the_slots_add_their_loop_times(self, space_223_open):
        space = space_223_open
        mask = np.zeros(space.n_states, bool)
        mask[space.ground_states()[2]] = True
        tab = dy._jump_tables(space, 3.0, mask)
        S = dy._SLOTS
        assert len(tab.centres) > S
        centre = np.full((S, 3), -1, dtype=np.int32)
        returns = np.zeros((S, 3), dtype=np.int64)
        centre[:, 0], returns[:, 0] = np.arange(S), 5  # lane 0's slots are full
        clock = np.zeros(3)
        dy._keep_returns(tab, np.arange(3), np.array([S, S, 0]), np.array([7, 3, 0]),
                         centre, returns, clock, np.random.default_rng(4))
        # lane 0's loop at a further centre is timed at once, from the same draws
        want = dy._loop_times(tab, np.array([S]), np.array([7]), np.random.default_rng(4))
        assert clock[0] == want[0] > 0 and np.all(clock[1:] == 0.0)
        assert np.array_equal(centre[:, 0], np.arange(S)) and np.all(returns[:, 0] == 5)
        # lane 1 keeps its count in its first slot; lane 2 returned no time
        assert centre[0, 1] == S and returns[0, 1] == 3
        assert np.all(centre[:, 2] == -1) and np.all(returns[:, 2] == 0)

    def test_traced_peak_is_bounded(self, space_223_open):
        # about 160 B per state of jump tables and 0.8 KB per lane, 16
        # buffered excursions of 41 B among them: 1.6 MB here, where a
        # buffer holding all ~150,000 excursions would add 6 MB
        space = space_223_open
        g = space.ground_states()
        mask = np.zeros(space.n_states, bool)
        mask[g[2]] = True
        space.move_table(), space.move_deltas()
        dy.sample_hitting_times(space, g[1], mask, 2.0, 10, seed=1)
        tracemalloc.start()
        try:
            dy.sample_hitting_times(space, g[1], mask, 2.0, 1000, seed=31)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_500_000


def _embedded_kernel(space, beta, x):
    """Targets and probabilities of the embedded jump chain out of ``x``,
    recomputed from the energies."""
    E = space.energies.astype(np.float64)
    nbr = space.move_table()[x].astype(np.int64)
    rates = np.exp(-beta * np.maximum(E[nbr] - E[x], 0.0))
    return nbr, rates / rates.sum()


def _loop_law(space, beta, target_mask, s):
    """Solve the uncompressed chain on ``{s}`` and its neighbours, absorbed
    at a target neighbour or at any jump of a neighbour that does not go
    back to ``s``.  Returns the expected visits to ``s``, the expected
    visits to each neighbour, and the absorption law as a dict keyed by
    the neighbour and then its next state (or None for a target)."""
    nbr, p_s = _embedded_kernel(space, beta, s)
    free = [n for n in nbr if not target_mask[n]]
    pos = {s: 0, **{n: i + 1 for i, n in enumerate(free)}}
    Q = np.zeros((len(pos), len(pos)))
    exits = []  # (row, probability, neighbour, next state)
    for n, p in zip(nbr, p_s):
        if target_mask[n]:
            exits.append((0, p, n, None))
        else:
            Q[0, pos[n]] = p
    for n in free:
        for m, p in zip(*_embedded_kernel(space, beta, n)):
            if m == s:
                Q[pos[n], 0] = p
            else:
                exits.append((pos[n], p, n, m))
    Rm = np.zeros((len(pos), len(exits)))
    for k, (i, p, _, _) in enumerate(exits):
        Rm[i, k] = p
    G = np.linalg.solve(np.eye(len(pos)) - Q, np.eye(len(pos)))
    X = G @ Rm
    law: dict = {}
    for k, (_, _, n, m) in enumerate(exits):
        law.setdefault(int(n), {})[None if m is None else int(m)] = X[0, k]
    return G[0, 0], {n: G[0, pos[n]] for n in free}, law


def _probs(cum_column):
    """Outcome probabilities of one column of a cumulative law."""
    return np.diff(np.concatenate(([0.0], cum_column, [1.0])))


class TestLoopCompression:
    """The compressed macro-step has the law of the uncompressed chain."""

    @pytest.mark.parametrize("case", ["223-q2", "223-q2-neighbour", "222-q3"])
    def test_loop_tables_match_linear_solve(self, case, space_223_open):
        from spinscape.landscape import enumerate_space

        space = (space_223_open if case.startswith("223")
                 else enumerate_space(LatticeSpec(2, 2, 2, 3, "open")))
        beta = 3.0 if case.startswith("223") else 2.0
        g = space.ground_states()
        mask = np.zeros(space.n_states, bool)
        mask[[s for a, s in g.items() if a != 1]] = True
        mt = space.move_table()
        if case.endswith("neighbour"):
            mask[mt[g[1], 3]] = True
        tab = dy._jump_tables(space, beta, mask)
        raises = (space.move_deltas() > 0).all(axis=1)
        assert np.array_equal(tab.centres, np.flatnonzero(raises & ~mask))
        m = mt.shape[1]
        for c, s in enumerate(tab.centres):
            visits_s, visits_n, law = _loop_law(space, beta, mask, s)
            # visits to s are geometric: 1 / p_escape on average
            assert tab.p_escape[c] == pytest.approx(1.0 / visits_s, rel=1e-12, abs=0)
            assert abs(tab.p_return[c] - (1.0 - 1.0 / visits_s)) <= 1e-12
            escape = _probs(tab.escape_cum[:, c])
            for j, n in enumerate(mt[s]):
                assert abs(escape[j] - sum(law[n].values())) <= 1e-12
                if mask[n]:
                    assert tab.return_law[c, j] == 0.0
                    continue
                nb, p_n = _embedded_kernel(space, beta, n)
                back = p_n[nb == s][0]
                want = visits_n[n] * back / (visits_s - 1.0)
                assert abs(tab.return_law[c, j] - want) <= 1e-12
                exit_row = _probs(tab.exit_cum[:, c * m + j])
                for k, x in enumerate(nb):
                    want = 0.0 if x == s else law[n][x] / sum(law[n].values())
                    assert abs(exit_row[k] - want) <= 1e-12

    def test_deferred_loop_times_mean(self, space_223_open):
        # 10^6 returns per centre: the Gamma sums have a relative SD of at
        # most 0.1 %, while the neighbour holds alone are 30 % of the mean
        space = space_223_open
        mask = np.zeros(space.n_states, bool)
        mask[space.ground_states()[2]] = True
        tab = dy._jump_tables(space, 1.0, mask)
        K = 10**6
        returns = np.zeros((2, len(tab.centres)), dtype=np.int64)
        returns[0] = K
        t = dy._deferred_loop_times(tab, returns, np.random.default_rng(0))
        mt = space.move_table()
        want = K * sum(tab.inv_total[s] + tab.return_law[c] @ tab.inv_total[mt[s]]
                       for c, s in enumerate(tab.centres))
        assert t[1] == 0.0
        assert t[0] == pytest.approx(want, rel=5e-3)

    def test_budget_refused_at_large_beta(self, space_223_open):
        # a loop that almost never escapes: the budget error, not an overflow
        space = space_223_open
        g = space.ground_states()
        mask = np.zeros(space.n_states, bool)
        mask[g[2]] = True
        with pytest.raises(RuntimeError, match="step budget 100000 exceeded") as err:
            dy.sample_hitting_times(space, g[1], mask, 400.0, 10, seed=1,
                                    max_steps=100_000)
        assert "with 10 walkers still unassembled" in str(err.value)
        assert f"the loop at state {g[1]} escapes" in str(err.value)

    def test_neighbour_target_mean(self, space_223_open):
        space = space_223_open
        g = space.ground_states()
        mask = np.zeros(space.n_states, bool)
        targets = [g[2], int(space.move_table()[g[1], 5])]
        mask[targets] = True
        beta = 3.0
        times = dy.sample_hitting_times(space, g[1], mask, beta, 400, seed=13)
        exact = pt.mean_hitting_exact(pt.chain_from_space(space, beta), g[1], targets)
        se = times.std(ddof=1) / math.sqrt(len(times))
        assert abs(times.mean() - exact) <= 4 * se

    def test_step_counts_match_green_function(self, space_223_open):
        space = space_223_open
        g = space.ground_states()
        mask = np.zeros(space.n_states, bool)
        mask[g[2]] = True
        beta = 2.0
        # expected embedded jumps = sum of the Green's-function visits = the
        # mean hitting time of the chain slowed to total rate 1 everywhere,
        # whose invariant measure is mu(x) R(x)
        chain = pt.chain_from_space(space, beta)
        n = space.n_states
        flow = (np.bincount(chain.src, chain.cond, n)
                + np.bincount(chain.dst, chain.cond, n))
        jump_chain = pt.WeightedChain(n, chain.src, chain.dst,
                                      chain.cond / flow.sum(), flow / flow.sum())
        exact = pt.mean_hitting_exact(jump_chain, g[1], [g[2]])
        _, steps = dy.sample_hitting_times(space, g[1], mask, beta, 400, seed=17,
                                           return_steps=True)
        se = steps.std(ddof=1) / math.sqrt(len(steps))
        assert abs(steps.mean() - exact) <= 4 * se
        # each jump flips one of the 12 spins, and all 12 end flipped
        assert np.all(steps % 2 == 0)


class TestRateTable:
    def test_incremental_rows_match_rebuild(self):
        # open boundary (ragged neighbour lists) and q=3
        spec = LatticeSpec(2, 3, 3, 3, "open")
        beta = 1.3
        table = dy._RateTable(random_config(spec, 4), beta)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = int(rng.integers(spec.n_sites))
            a = int(rng.choice([b for b in range(1, 4) if b != table.spins[x]]))
            table.apply_flip(x, a)
        fresh = dy._RateTable(SpinConfig(spec, table.spins.astype(np.int16)), beta)
        assert np.array_equal(table.D, fresh.D)
        assert np.array_equal(table.rates, fresh.rates)


class TestNFoldWay:
    @pytest.mark.parametrize("spec", [LatticeSpec(2, 3, 3, 3, "open"),
                                      LatticeSpec(3, 3, 3, 3, "periodic")],
                             ids=["233-open", "333-periodic"])
    def test_bins_match_flip_deltas_after_random_flips(self, spec):
        beta = 0.8
        table = dy._RateTable(random_config(spec, 6), beta)
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = int(rng.integers(spec.n_sites))
            a = int(rng.choice([b for b in range(1, 4) if b != table.spins[x]]))
            table.apply_flip(x, a)
        config = SpinConfig(spec, table.spins.astype(np.int16))
        q = spec.q
        for x in range(spec.n_sites):
            for a in range(1, q + 1):
                m = x * q + a - 1
                if a == config.spins[x]:
                    assert table.key[m] == -1
                    continue
                k = max(flip_delta(config, x, a), 0)
                assert table.key[m] == k
                assert table.bins[k][table.pos[m]] == m
        fresh = dy._RateTable(config, beta)
        assert [len(b) for b in table.bins] == [len(b) for b in fresh.bins]
        assert sum(map(len, table.bins)) == spec.n_sites * (q - 1)
        assert table.total_rate() == fresh.total_rate()

    def test_pick_gives_each_move_its_share(self):
        # a grid of N points over [0, R) puts N r / R +- 1 of them in the
        # interval of a move of rate r, which a wrongly scaled member index
        # or bin walk misses
        spec = LatticeSpec(2, 3, 3, 3, "open")
        table = dy._RateTable(random_config(spec, 10), 0.8)
        rates = table.rates.ravel()
        R, N = table.total_rate(), 100_000
        picks = [table.pick((i + 0.5) / N * R) for i in range(N)]
        counts = np.bincount(picks, minlength=len(rates))
        assert np.all(np.abs(counts - N * rates / R) <= 1.0)

    def test_trajectory_follows_metropolis_law(self):
        """Rates recomputed from the neighbour counts, not the sampler's bins.

        By time rescaling, the sum of R(sigma_{i-1}) * (t_i - t_{i-1}) over
        N events is Gamma(N, 1), within 5 sqrt(N) of N; the number of
        energy-raising flips has mean sum_i p_up(sigma_{i-1}) and variance
        sum_i p_up (1 - p_up)."""
        spec = LatticeSpec(3, 3, 3, 3, "open")
        beta, n = 0.7, 4000
        sigma0 = random_config(spec, 8)
        sample = dy.simulate_hit(sigma0, lambda s: False, beta, seed=9, step_budget=n)
        nbrs = [[int(y) for y in nb] for nb in spec.neighbor_lists]
        spins = [int(v) for v in sigma0.spins]

        def deltas(x):
            count = [0] * (spec.q + 1)
            for y in nbrs[x]:
                count[spins[y]] += 1
            return {a: count[spins[x]] - count[a] for a in range(1, spec.q + 1)
                    if a != spins[x]}

        moves = {}  # dE -> number of moves with that energy change
        for x in range(spec.n_sites):
            for d in deltas(x).values():
                moves[d] = moves.get(d, 0) + 1
        t_prev, clock, ups, up_mean, up_var = 0.0, 0.0, 0, 0.0, 0.0
        for t, x, a in sample.events:
            rates = {d: c * math.exp(-beta * max(d, 0)) for d, c in moves.items()}
            total = sum(rates.values())
            p_up = sum(r for d, r in rates.items() if d > 0) / total
            clock += total * (t - t_prev)
            up_mean += p_up
            up_var += p_up * (1.0 - p_up)
            ups += deltas(x)[a] > 0
            touched = [x, *nbrs[x]]
            for y in touched:
                for d in deltas(y).values():
                    moves[d] -= 1
            spins[x] = a
            for y in touched:
                for d in deltas(y).values():
                    moves[d] = moves.get(d, 0) + 1
            t_prev = t
        assert len(sample.events) == n
        assert abs(clock - n) <= 5 * math.sqrt(n)
        assert abs(ups - up_mean) <= 5 * math.sqrt(up_var)

    def test_all_rates_underflow_refused(self):
        # from a ground state every move raises the energy by at least 3,
        # and exp(-300 * 3) is 0.0
        c = monochrome(SPEC, 1)
        with pytest.raises(RuntimeError, match=r"beta=300\.0 .*smallest energy raise is 3"):
            dy.simulate_hit(c, lambda s: is_ground(s) == 2, beta=300.0, seed=1)


class TestEnsembleInputs:
    @pytest.fixture(scope="class")
    def space_222(self):
        from spinscape.landscape import enumerate_space

        return enumerate_space(LatticeSpec(2, 2, 2, 2, "open"))

    def _target(self, space):
        mask = np.zeros(space.n_states, bool)
        mask[space.ground_states()[2]] = True
        return mask

    @pytest.mark.parametrize("start", [-1, 256], ids=["minus1", "n_states"])
    def test_start_out_of_range_refused(self, space_222, start):
        with pytest.raises(ValueError, match=f"start index {start} outside"):
            dy.sample_hitting_times(space_222, start, self._target(space_222), 2.0, 5, seed=1)

    def test_integer_mask_refused(self, space_222):
        mask = self._target(space_222).astype(np.int64)
        # unchecked, the 0/1 array is read as state indices; the budget
        # bounds that run instead of letting it go on for minutes
        with pytest.raises(ValueError, match="boolean array of shape"):
            dy.sample_hitting_times(space_222, 0, mask, 2.0, 5, seed=1, max_steps=10_000)

    def test_short_mask_refused(self, space_222):
        mask = self._target(space_222)[:-1]
        with pytest.raises(ValueError, match="boolean array of shape"):
            dy.sample_hitting_times(space_222, 0, mask, 2.0, 5, seed=1)


class TestJumpAliasTables:
    """Every state's jump law is one alias table, built in row blocks."""

    @pytest.mark.parametrize("case, beta", [("223-q2", 3.0), ("222-q3", 2.0), ("223-q2", 400.0)])
    def test_alias_tables_give_the_jump_law(self, case, beta, space_223_open):
        from spinscape.landscape import enumerate_space

        space = (space_223_open if case.startswith("223")
                 else enumerate_space(LatticeSpec(2, 2, 2, 3, "open")))
        mask = np.zeros(space.n_states, bool)
        mask[space.ground_states()[2]] = True
        tab = dy._jump_tables(space, beta, mask)
        n, m = space.move_table().shape
        assert n > dy._ALIAS_ROWS  # more than one block
        prob, alias = tab.jump_prob, tab.jump_alias
        assert alias.dtype == np.int32
        # every alias stays in its own state's row
        assert np.array_equal(alias // m, np.broadcast_to(np.arange(n)[:, None], (n, m)))
        got = prob / m
        np.add.at(got.reshape(-1), alias.reshape(-1), ((1.0 - prob) / m).reshape(-1))
        # the Metropolis law, recomputed with each row's least raise taken out
        raise_ = np.maximum(space.move_deltas(), 0)
        want = np.exp(-beta * (raise_ - raise_.min(axis=1, keepdims=True)))
        want /= want.sum(axis=1, keepdims=True)
        assert np.max(np.abs(got - want)) <= 1e-12
        total = np.exp(-beta * raise_).sum(axis=1)
        with np.errstate(divide="ignore"):
            assert np.allclose(tab.inv_total, 1.0 / total, rtol=1e-12, atol=0)

    def test_flat_indices_beyond_int32_refused(self):
        # a zero-stride view: the refusal comes before any table is allocated
        law = np.broadcast_to(np.ones(1), (2 ** 16, 2 ** 15 + 1))
        with pytest.raises(ValueError, match="overflow int32 alias indices"):
            dy._alias_tables(law)


class TestLoopAliasTables:
    @pytest.mark.parametrize("case", ["223-q2", "223-q2-neighbour", "222-q3"])
    def test_alias_tables_give_escape_times_exit_law(self, case, space_223_open):
        from spinscape.landscape import enumerate_space

        space = (space_223_open if case.startswith("223")
                 else enumerate_space(LatticeSpec(2, 2, 2, 3, "open")))
        beta = 3.0 if case.startswith("223") else 2.0
        g = space.ground_states()
        mask = np.zeros(space.n_states, bool)
        mask[[s for a, s in g.items() if a != 1]] = True
        mt = space.move_table()
        if case.endswith("neighbour"):
            mask[mt[g[1], 3]] = True
        tab = dy._jump_tables(space, beta, mask)
        m = mt.shape[1]
        width = m * m
        assert len(tab.centres) > 0
        # only the neighbour case puts a target next to a centre
        assert mask[mt[tab.centres]].any() == case.endswith("neighbour")
        for c, s in enumerate(tab.centres):
            prob, alias = tab.loop_prob[c], tab.loop_alias[c] - c * width
            assert np.all((0.0 <= prob) & (prob <= 1.0))
            got = prob / width
            np.add.at(got, alias, (1.0 - prob) / width)
            escape = _probs(tab.escape_cum[:, c])
            for j, n in enumerate(mt[s]):
                exit_row = _probs(tab.exit_cum[:, c * m + j])
                for k in range(m):
                    o = j * m + k
                    assert abs(got[o] - escape[j] * exit_row[k]) <= 1e-12
                    flat = c * width + o
                    assert tab.loop_go_on[flat] == (not mask[n])
                    if mask[n]:
                        assert tab.loop_next[flat] == n and tab.loop_hold[flat] == 0.0
                    else:
                        assert tab.loop_next[flat] == mt[n, k]
                        assert tab.loop_hold[flat] == tab.inv_total[n]
