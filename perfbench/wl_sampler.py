"""sampler: the two samplers of the dynamics layer.

The lockstep ensemble runs 2,000 vectorized walkers on 2x2x3 open at beta=3
(about 88M jumps); ``simulate_hit`` runs one Python event loop on the 1,000
sites of 10x10x10 periodic for a fixed budget of 20,000 events, so every run
is censored at exactly the budget.  A shared event engine must not speed one
and slow the other unseen.

The ensemble's work depends on the seed, since the slowest walker sets the
lockstep iteration count: with 500 walkers its time moved by up to 40 %
between seeds, with 2,000 the per-jump work outweighs the per-iteration
overhead and it moves by a few per cent.  Every sampler figure is still
printed with its seed, and the lockstep efficiency is reported.
"""

from __future__ import annotations

import math

import numpy as np

from harness import REFERENCES, Check, eq, move_table_bytes, ratio, rel

NAME = "sampler"
WORK_UNIT = "hitting-time samples"
WALKERS = 2000
MAX_JUMPS = 200_000_000  # over twice the expected 88M; the default 50M is too small
BETA = 3.0
EVENTS = 20_000
SIM_BETA = 1.0
ENSEMBLE = "dynamics.sample_hitting_times"


def setup(tr, seed: int) -> dict:
    from spinscape import dynamics as D
    from spinscape import landscape as L
    from spinscape.lattice import LatticeSpec, is_ground, monochrome

    space = tr.call("landscape.enumerate_space", L.enumerate_space,
                    LatticeSpec(K=2, L=2, M=3, q=2, boundary="open"))
    tr.count("space_states", space.n_states)
    mt = tr.call("landscape.move_table", space.move_table)
    tr.count("space_states", space.n_states)
    g = space.ground_states()
    target = np.zeros(space.n_states, dtype=bool)
    target[g[2]] = True
    spec10 = LatticeSpec(K=10, L=10, M=10, q=2, boundary="periodic")
    sigma0 = monochrome(spec10, 1)
    gamma10 = tr.call("landscape.gamma_formula", L.gamma_formula, spec10)

    def hit_ground2(c):
        return is_ground(c) == 2

    # warm-up: a short ensemble, trajectory and trace before timing
    tr.call(ENSEMBLE, D.sample_hitting_times, space, g[1], target, 2.0, 50, seed=seed)
    warm = tr.call("dynamics.simulate_hit", D.simulate_hit, sigma0, hit_ground2,
                   SIM_BETA, seed=seed, step_budget=500)
    tr.call("dynamics.trace_transform", D.trace_transform, warm, sigma0, gamma10, SIM_BETA)
    return {"D": D, "space": space, "g": g, "target": target, "sigma0": sigma0,
            "hit": hit_ground2, "gamma10": gamma10, "seed": seed, "sample": None,
            "record": {"2x2x3-open-q2": move_table_bytes(*mt.shape),
                       # simulate_hit's rate table: an int64 and a float64 (sites, q) array
                       "10x10x10-periodic-q2": {"sites": spec10.n_sites,
                                                "rate_table_bytes_computed": spec10.n_sites * 2 * 16}},
            "inputs": {"ensemble_seed": seed, "trajectory_seed": seed}}


def run_pass(h, ctx: dict) -> None:
    D, tr, seed = ctx["D"], h.tracer, ctx["seed"]
    ref = REFERENCES["sampler"]
    ctx["sample"] = None

    def ensemble():
        times, steps = tr.call(ENSEMBLE, D.sample_hitting_times,
                               ctx["space"], ctx["g"][1], ctx["target"], BETA, WALKERS,
                               seed=seed, max_steps=MAX_JUMPS, return_steps=True)
        tr.count("samples", WALKERS)
        tr.count("jumps", int(steps.sum()))
        tr.count("lockstep_iters", int(steps.max()))
        return times, steps

    def ensemble_check(r):
        times, steps = r
        exact = ref["exact_mean_hitting"]
        se = float(times.std(ddof=1) / math.sqrt(len(times)))
        return [
            Check("all_finite_positive", bool(np.all(np.isfinite(times)) and np.all(times > 0))),
            Check("mean_within_4se", abs(times.mean() - exact) <= 4 * se,
                  {"seed": seed, "mean": float(times.mean()), "exact": exact, "se": se}),
        ]

    h.job("ensemble", ensemble, ensemble_check)

    def trajectory():
        s = tr.call("dynamics.simulate_hit", D.simulate_hit, ctx["sigma0"], ctx["hit"],
                    SIM_BETA, seed=seed, step_budget=EVENTS)
        tr.count("events", s.steps)
        ctx["sample"] = s
        return s

    h.job("simulate_hit", trajectory, lambda s: [
        eq("censored", s.hit, False),
        eq("steps", s.steps, EVENTS),
        *_replay_checks(ctx["sigma0"], s.events),
        *_law_checks(ctx["sigma0"], s.events, SIM_BETA),
    ])

    def trace():
        out = tr.call("dynamics.trace_transform", D.trace_transform, ctx["sample"],
                      ctx["sigma0"], ctx["gamma10"], SIM_BETA)
        tr.count("events", len(ctx["sample"].events))
        return out

    h.job("trace_transform", trace, lambda t: _trace_checks(
        t, ctx["sample"], ctx["sigma0"], ctx["gamma10"], SIM_BETA))


def _replay_checks(sigma0, events) -> list:
    """Event times increase strictly and every event changes one spin."""
    spins = sigma0.spins.astype(np.int64).copy()
    t_prev, bad = 0.0, 0
    for t, x, a in events:
        if not (t > t_prev and 0 <= x < len(spins) and spins[x] != a and 1 <= a <= sigma0.spec.q):
            bad += 1
        spins[x] = a
        t_prev = t
    return [eq("events", len(events), EVENTS), eq("invalid_events", bad, 0)]


def _law_checks(sigma0, events, beta: float, z: float = 5.0) -> list:
    """Check that the trajectory follows the Metropolis law, with rates
    recomputed here from the neighbour counts, not taken from the sampler.

    A move of site x to spin a changes the energy by n_s(x) - n_a(x), the
    numbers of neighbours with its current spin s and with a, and has rate
    exp(-beta * max(dE, 0)).  By time rescaling, sum_i R(sigma_{i-1}) *
    (t_i - t_{i-1}) over the N events is Gamma(N, 1), so it lies within
    z * sqrt(N) of N; the number of energy-raising flips has mean
    sum_i p_up(sigma_{i-1}) and variance sum_i p_up * (1 - p_up).
    """
    q = sigma0.spec.q
    nbrs = [[int(y) for y in nb] for nb in sigma0.spec.neighbor_lists]
    spins = [int(v) for v in sigma0.spins]

    def counts(x):
        count = [0] * (q + 1)
        for y in nbrs[x]:
            count[spins[y]] += 1
        return count

    def deltas(x):
        count, s = counts(x), spins[x]
        return [count[s] - count[a] for a in range(1, q + 1) if a != s]

    moves = {}  # dE -> number of moves with that energy change
    for x in range(len(spins)):
        for d in deltas(x):
            moves[d] = moves.get(d, 0) + 1
    t_prev, clock, ups, up_mean, up_var = 0.0, 0.0, 0, 0.0, 0.0
    for t, x, a in events:
        rates = {d: n * math.exp(-beta * max(d, 0)) for d, n in moves.items()}
        total = sum(rates.values())
        p_up = sum(r for d, r in rates.items() if d > 0) / total
        clock += total * (t - t_prev)
        up_mean += p_up
        up_var += p_up * (1.0 - p_up)
        touched = [x, *nbrs[x]]
        for y in touched:
            for d in deltas(y):
                moves[d] -= 1
        count = counts(x)
        ups += count[spins[x]] > count[a]
        spins[x] = a
        for y in touched:
            for d in deltas(y):
                moves[d] = moves.get(d, 0) + 1
        t_prev = t
    n = len(events)
    return [
        Check("time_rescaled_clock", abs(clock - n) <= z * math.sqrt(n),
              {"clock": clock, "events": n}),
        Check("energy_raising_flips", abs(ups - up_mean) <= z * math.sqrt(up_var),
              {"ups": ups, "expected": up_mean, "sd": math.sqrt(up_var)}),
    ]


def _trace_checks(result, sample, sigma0, gamma: int, beta: float, rtol: float = 1e-12) -> list:
    """Recompute the ground-state sojourns by counting spins per value."""
    accel = math.exp(gamma * beta)
    spins = sigma0.spins.astype(np.int64).copy()
    count = np.bincount(spins, minlength=sigma0.spec.q + 1)
    g, prev, on, sojourns = _ground(count, len(spins)), 0.0, 0.0, []
    for t, x, a in sample.events:
        if g is not None:
            on += t - prev
            if sojourns and sojourns[-1][0] == g:
                sojourns[-1][1] += accel * (t - prev)
            else:
                sojourns.append([g, accel * (t - prev)])
        count[spins[x]] -= 1
        count[a] += 1
        spins[x] = a
        g, prev = _ground(count, len(spins)), t
    return [
        eq("sojourn_spins", [s[0] for s in result.sojourns], [s[0] for s in sojourns]),
        *(rel(f"sojourn{i}", got[1], want[1], rtol)
          for i, (got, want) in enumerate(zip(result.sojourns, sojourns))),
        rel("total_trace_time", result.total_trace_time, accel * on, rtol),
    ]


def _ground(count: np.ndarray, n: int):
    hits = np.flatnonzero(count == n)
    return int(hits[0]) if len(hits) else None


def work_rate(tr) -> float:
    return ratio(tr.work[(ENSEMBLE, "samples")], tr.totals[ENSEMBLE])


def layer_metrics(ctx, setup_tr, tr) -> dict:
    t, w = tr.totals, tr.work
    jumps, iters = w[(ENSEMBLE, "jumps")], w[(ENSEMBLE, "lockstep_iters")]
    events = w[("dynamics.simulate_hit", "events")]
    return {
        "dynamics.sample_hitting_times_s": t[ENSEMBLE],
        "dynamics.ensemble_jumps": jumps,
        "dynamics.ensemble_ns_per_jump": ratio(t[ENSEMBLE], jumps) * 1e9,
        "dynamics.ensemble_lockstep_iters": iters,
        "dynamics.ensemble_lockstep_efficiency": ratio(jumps, iters * w[(ENSEMBLE, "samples")]),
        "dynamics.ensemble_samples_per_s": work_rate(tr),
        "dynamics.simulate_hit_us_per_event": ratio(t["dynamics.simulate_hit"], events) * 1e6,
        "dynamics.trace_transform_us_per_event":
            ratio(t["dynamics.trace_transform"], w[("dynamics.trace_transform", "events")]) * 1e6,
        "dynamics.trajectory_events_per_s": ratio(events, t["dynamics.simulate_hit"]),
    }
