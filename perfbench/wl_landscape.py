"""landscape-sweep: every bottleneck sweep on 2x2x4 open, q=2 (2^16 states).

The 65,536 x 16 move table (8 MB as int64) is larger than L2, so the sweeps'
memory access shows.  ``potential`` and ``dynamics`` do no work here: this is
the workload a change to the bottleneck primitive must speed up and the one
where solver or sampler changes must show nothing.  2^16 rather than 2^18
states keeps one repeat near 4 s, so a 28 s run holds about seven repeats
and its medians stay steadier on a noisy machine.
"""

from __future__ import annotations

import numpy as np

from harness import REFERENCES, Check, digest, eq, move_table_bytes, ratio

NAME = "landscape-sweep"
WORK_UNIT = "states swept"
SWEEPS = ("landscape.comm_height", "landscape.valley_depths", "landscape.neighborhood")
LATTICE = (2, 2, 4)
QUERY_LEVEL = 12  # seeded comm_height endpoints share one energy, so cost does not depend on the seed
ROOT_LEVEL = 3  # seeded flood-fill roots lie below both ceilings
AVOID_LEVELS = (4, 5)  # the seeded avoid set lies below the ceilings too, so it cuts paths
AVOID_SIZE = 12


def setup(tr, seed: int) -> dict:
    from spinscape import landscape as L
    from spinscape.lattice import LatticeSpec

    spec = LatticeSpec(*LATTICE, q=2, boundary="open")
    space = tr.call("landscape.enumerate_space", L.enumerate_space, spec)
    tr.count("space_states", space.n_states)
    mt = tr.call("landscape.move_table", space.move_table)
    tr.count("space_states", space.n_states)
    g = space.ground_states()
    E = space.energies
    gamma = REFERENCES["landscape"]["barrier"]

    rng = np.random.default_rng(seed)
    level = np.flatnonzero(E == QUERY_LEVEL)
    pairs = [tuple(int(x) for x in rng.choice(level, 2, replace=False)) for _ in range(3)]
    root = int(rng.choice(np.flatnonzero(E == ROOT_LEVEL)))
    avoid_pool = np.flatnonzero(np.isin(E, AVOID_LEVELS))
    avoid = np.zeros(space.n_states, dtype=bool)
    avoid[rng.choice(avoid_pool, AVOID_SIZE, replace=False)] = True

    # warm-up: one flood fill and one short sweep before timing
    tr.call("landscape.neighborhood", L.neighborhood, space, [g[1]], gamma - 1)
    tr.call("landscape.comm_height", L.comm_height, space, g[1], g[2])
    return {
        "L": L, "space": space, "g": g, "gamma": gamma, "pairs": pairs,
        "root": root, "avoid": avoid,
        "cum_states": np.cumsum(np.bincount(E)),
        "record": {"x".join(map(str, LATTICE)) + "-open-q2": move_table_bytes(*mt.shape)},
        "inputs": {"comm_height_pairs": pairs, "neighborhood_root": root,
                   "avoid_states": np.flatnonzero(avoid).tolist()},
    }


def run_pass(h, ctx: dict) -> None:
    L, space, g, gamma = ctx["L"], ctx["space"], ctx["g"], ctx["gamma"]
    tr = h.tracer
    ref = REFERENCES["landscape"]

    def comm_height(s, d):
        val = tr.call("landscape.comm_height", L.comm_height, space, s, d)
        tr.count("states", int(ctx["cum_states"][val]))
        return val

    h.job("comm_height.ground", lambda: comm_height(g[1], g[2]),
          lambda v: [eq("barrier", v, ref["barrier"])])
    for i, (s, d) in enumerate(ctx["pairs"]):
        h.job(f"comm_height.seeded{i}", lambda s=s, d=d: comm_height(s, d),
              lambda v, s=s, d=d: _comm_height_oracle(L, space, s, d, v))

    def valley():
        vd = tr.call("landscape.valley_depths", L.valley_depths, space)
        tr.count("states", space.n_states)
        return vd

    h.job("valley_depths", valley, lambda vd: [
        eq("digest", digest(np.asarray(vd, dtype=np.int64).tobytes()), ref["valley_depths_sha256"]),
        eq("histogram", np.bincount(vd).tolist(), ref["valley_depths_histogram"]),
    ])

    for kind, root in (("ground", g[1]), ("seeded", ctx["root"])):
        cases = [(c, a) for c in (gamma, gamma - 1) for a in (None, ctx["avoid"])]

        def flood(root=root, cases=cases):
            out = []
            for c, a in cases:
                cs = tr.call("landscape.neighborhood", L.neighborhood, space, [root], c, avoid=a)
                tr.count("states", len(cs))
                out.append(cs.states)
            return out

        def check(sets, root=root, cases=cases, kind=kind):
            checks = []
            for (c, a), states in zip(cases, sets):
                tag = f"ceiling{c}{'-avoid' if a is not None else ''}"
                want = _component(space, root, c, a)
                checks.append(Check(f"{tag}.component", np.array_equal(states, want),
                                    {"got": len(states), "want": len(want)}))
                if kind == "ground" and a is None:
                    checks.append(eq(f"{tag}.size", len(states), ref["neighborhood_ground"][str(c)]))
            return checks

        h.job(f"neighborhood.{kind}", flood, check)

    for name, A, B in (("AB", (1,), (2,)), ("BA", (2,), (1,))):
        def typical(A=A, B=B):
            ts = tr.call("landscape.typical_sets", L.typical_sets, space, A, B)
            tr.count("space_states", space.n_states)
            return ts

        h.job(f"typical_sets.{name}", typical,
              lambda ts, name=name: [eq("summary", typical_summary(ts), ref["typical_sets"][name])])


def _comm_height_oracle(L, space, s, d, h) -> list:
    """``h`` is the communication height iff d is reachable from s under
    ceiling h and not under h - 1."""
    return [
        Check("reachable_at_h", d in L.neighborhood(space, [s], h), h),
        Check("unreachable_below_h", d not in L.neighborhood(space, [s], h - 1), h),
    ]


def _component(space, root: int, ceiling: int, avoid) -> np.ndarray:
    """Connected component of ``root`` in the sub-ceiling graph, by scipy's
    connected_components: an oracle independent of the flood fill."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    allowed = space.energies <= ceiling
    if avoid is not None:
        allowed &= ~avoid
    idx = np.flatnonzero(allowed)
    pos = np.full(space.n_states, -1, dtype=np.int64)
    pos[idx] = np.arange(len(idx))
    mt = space.move_table()[idx]
    src = np.repeat(np.arange(len(idx)), mt.shape[1])
    dst = pos[mt.ravel()]
    keep = dst >= 0
    graph = csr_matrix((np.ones(keep.sum()), (src[keep], dst[keep])), shape=(len(idx), len(idx)))
    _, labels = connected_components(graph, directed=False)
    return idx[labels == labels[pos[root]]]


def typical_summary(ts) -> dict:
    """Integer content of a TypicalSets result, JSON-comparable."""
    return {
        "gamma": int(ts.gamma),
        "m_K": int(ts.m_K),
        "sizes": {k: int(getattr(ts, k).sum()) for k in
                  ("bulk", "edge_A", "edge_B", "O_A", "I_A", "H_AB", "hat_S", "G_mask")},
        "R_hat": {str(i): int(len(v)) for i, v in sorted(ts.R_hat.items())},
        "Ibar_A": int(len(ts.Ibar_A)),
        "checks": {k: bool(v) for k, v in ts.checks.items()},
        "warnings": list(ts.warnings),
    }


def work_rate(tr) -> float:
    return ratio(sum(tr.work[(k, "states")] for k in SWEEPS), sum(tr.totals[k] for k in SWEEPS))


def layer_metrics(ctx, setup_tr, tr) -> dict:
    return {
        "landscape.valley_depths_s": tr.totals["landscape.valley_depths"],
        "landscape.valley_depths_ns_per_state":
            ratio(tr.totals["landscape.valley_depths"], tr.work[("landscape.valley_depths", "states")]) * 1e9,
        "landscape.comm_height_s": tr.totals["landscape.comm_height"],
        "landscape.comm_height_calls": tr.calls["landscape.comm_height"],
        "landscape.neighborhood_s": tr.totals["landscape.neighborhood"],
        "landscape.neighborhood_calls": tr.calls["landscape.neighborhood"],
        "landscape.typical_sets_s": tr.totals["landscape.typical_sets"],
        "landscape.sweep_states_per_s": work_rate(tr),
    }
