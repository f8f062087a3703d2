"""Dynamics: rates, kernel normalization, detailed balance, simulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinscape import dynamics as dy
from spinscape.energy import energy, flip_delta
from spinscape.lattice import LatticeSpec, SpinConfig, is_ground, monochrome


def random_config(spec, seed):
    rng = np.random.default_rng(seed)
    return SpinConfig(spec, rng.integers(1, spec.q + 1, spec.n_sites).astype(np.int16))


SPEC = LatticeSpec(2, 2, 3, 2, "open")


class TestRates:
    def test_downhill_rate_one(self):
        assert dy.rate_from_delta(-3, 2.0) == 1.0
        assert dy.rate_from_delta(0, 2.0) == 1.0

    def test_uphill_rate(self):
        assert dy.rate_from_delta(2, 1.5) == pytest.approx(math.exp(-3.0))

    def test_rate_zero_unless_single_flip(self):
        c = monochrome(SPEC, 1)
        two = c.flip_index(0, 2).flip_index(1, 2)
        assert dy.rate(c, two, 1.0) == 0.0
        assert dy.rate(c, c, 1.0) == 0.0

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
        lhs = dy.gibbs(c, beta) * dy.rate(c, z, beta)
        rhs = dy.gibbs(z, beta) * dy.rate(z, c, beta)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert lhs == pytest.approx(
            min(dy.gibbs(c, beta), dy.gibbs(z, beta)), rel=1e-12
        )


class TestKernel:
    def test_normalization_and_values(self):
        c = random_config(SPEC, 3)
        beta = 1.7
        kern = dy.discrete_kernel(c, beta)
        total = sum(kern.values())
        assert total == pytest.approx(1.0, abs=1e-12)
        n, q = SPEC.n_sites, SPEC.q
        for key, p in kern.items():
            if key is None:
                continue
            i, a = key
            d = flip_delta(c, i, a)
            assert p == pytest.approx(
                math.exp(-beta * max(d, 0)) / (q * n), rel=1e-12
            )

    def test_partition_function_small_beta(self, space_223_open):
        z = dy.partition_function(space_223_open, 0.0)
        assert z == space_223_open.n_states

    def test_partition_function_large_beta(self, space_223_open):
        # q ground states dominate: Z -> q
        z = dy.partition_function(space_223_open, 50.0)
        assert z == pytest.approx(2.0, rel=1e-10)

    def test_partition_function_log_domain(self, space_223_open):
        z = dy.partition_function(space_223_open, 1000.0)
        assert z == pytest.approx(2.0, rel=1e-10)

    def test_partition_function_positive_ground_energy(self):
        # least energy 5, not 0: Z = 2e^-500 + e^-700 only if the shift is
        # undone.  Z is ~1e-217, below pytest.approx's default absolute
        # tolerance, so the relative bound is written out.
        class Space:
            energies = np.array([5, 5, 7])

        z = dy.partition_function(Space(), 100.0)
        want = math.fsum(math.exp(-100.0 * e) for e in (5, 5, 7))
        assert want > 0
        assert abs(z - want) <= 1e-12 * want


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
        from spinscape import potential as pt

        space = space_223_open
        g = space.ground_states()
        mask = np.zeros(space.n_states, bool)
        mask[g[2]] = True
        beta = 2.0
        times = dy.sample_hitting_times(space, g[1], mask, beta, 400, seed=9)
        exact = pt.mean_hitting_exact(space, g[1], [g[2]], beta)
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
        with pytest.raises(RuntimeError, match="step budget 100000 exceeded"):
            dy.sample_hitting_times(space, g[1], mask, 400.0, 10, seed=1,
                                    max_steps=100_000)

    def test_neighbour_target_mean(self, space_223_open):
        from spinscape import potential as pt

        space = space_223_open
        g = space.ground_states()
        mask = np.zeros(space.n_states, bool)
        targets = [g[2], int(space.move_table()[g[1], 5])]
        mask[targets] = True
        beta = 3.0
        times = dy.sample_hitting_times(space, g[1], mask, beta, 400, seed=13)
        exact = pt.mean_hitting_exact(space, g[1], targets, beta)
        se = times.std(ddof=1) / math.sqrt(len(times))
        assert abs(times.mean() - exact) <= 4 * se

    def test_step_counts_match_green_function(self, space_223_open):
        from spinscape import potential as pt

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
