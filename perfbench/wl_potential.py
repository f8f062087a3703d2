"""potential-solve: Dirichlet solves on both sides of the dense/CG switch.

2x2x3 open has 4,094 unknowns per capacity solve, which the seed code
factors densely; 2x2x4 open has 65,534, which it solves by conjugate
gradients.  Today the smaller dense solve is the slower one.  The job list
also holds the CLI's largest solve (the q=3 constants, 531,441 states) and
the large-beta capacities, so branch choice, bytes per unknown and
large-beta numerics all show.  Landscape work is under 1 % of the time.
"""

from __future__ import annotations

import math

import numpy as np

from harness import REFERENCES, Check, eq, move_table_bytes, ratio, rel

NAME = "potential-solve"
WORK_UNIT = "Dirichlet unknowns solved"
RTOL = 1e-7  # frozen capacities, hitting times and constants
ROUTE_RTOL = 1e-8  # the two mean-hitting routes against each other
PREFACTOR_RTOL = 1e-6  # exp(beta * Gamma) * Cap at large beta
# raises "Factor is exactly singular" today (see the README); may not return a wrong value
KNOWN_FAILURES = frozenset({"capacity.2x2x2.beta70"})
BETAS = (2.0, 3.0, 4.0)
SOURCE_LEVEL = 10  # seeded hitting-time sources share one energy
# branch the seed code takes on each instance (dense Cholesky up to 12,000
# unknowns); assumed from the size, since the program does not report it
INSTANCES = {"2x2x3": "dense", "2x2x4": "cg"}
ROUTES = {"capacity": "capacity_route", "direct": "direct"}  # method -> metric name
SOLVES = ("potential.capacity", "potential.mean_hitting_exact", "potential.spectral_gap",
          "potential.h1_diagnostics", "potential.constants")


def setup(tr, seed: int) -> dict:
    from spinscape import landscape as L
    from spinscape import potential as P
    from spinscape.lattice import LatticeSpec

    spaces, record = {}, {}
    for name in ("2x2x3", "2x2x4", "2x2x2"):
        K, L_, M = (int(x) for x in name.split("x"))
        space = tr.call("landscape.enumerate_space", L.enumerate_space,
                        LatticeSpec(K=K, L=L_, M=M, q=2, boundary="open"))
        tr.count("space_states", space.n_states)
        mt = tr.call("landscape.move_table", space.move_table)
        tr.count("space_states", space.n_states)
        spaces[name] = space
        record[f"{name}-open-q2"] = move_table_bytes(*mt.shape)
    # constants(3x4x8, q=3) enumerates only the 3x4 periodic floor
    record["3x4-periodic-q3-floor"] = move_table_bytes(3 ** 12, 24)
    rng = np.random.default_rng(seed)
    sources = {name: int(rng.choice(np.flatnonzero(spaces[name].energies == SOURCE_LEVEL)))
               for name in INSTANCES}

    # warm-up: the first dense and the first CG solve in a process pay one-off costs
    for name in INSTANCES:
        g = spaces[name].ground_states()
        chain = tr.call("potential.chain_from_space", P.chain_from_space, spaces[name], 2.0)
        tr.call("potential.capacity", P.capacity, chain, [g[1]], [g[2]], tag=INSTANCES[name])
    return {"P": P, "spaces": spaces, "sources": sources, "chains": {},
            "record": record, "inputs": {"hitting_sources": sources}}


def run_pass(h, ctx: dict) -> None:
    from spinscape.lattice import LatticeSpec

    P, spaces, tr = ctx["P"], ctx["spaces"], h.tracer
    ref = REFERENCES["potential"]

    for name, branch in INSTANCES.items():
        space = spaces[name]
        g = space.ground_states()
        n_free = space.n_states - 2
        for beta in BETAS:
            def solve(space=space, g=g, beta=beta, branch=branch, name=name, n_free=n_free):
                chain = tr.call("potential.chain_from_space", P.chain_from_space, space, beta)
                if beta == 3.0:  # only the seeded job reuses a chain
                    ctx["chains"][name] = chain
                out = {"capacity": tr.call("potential.capacity", P.capacity, chain,
                                           [g[1]], [g[2]], tag=branch)}
                tr.count("unknowns", n_free)
                for method, route in ROUTES.items():
                    out[route] = tr.call("potential.mean_hitting_exact", P.mean_hitting_exact,
                                         chain, g[1], [g[2]], method=method, tag=f"{route}.{branch}")
                    tr.count("unknowns", n_free)
                return out

            want = ref["solves"][name][str(beta)]
            h.job(f"solve.{name}.beta{beta:g}", solve, lambda r, want=want: [
                rel("capacity", r["capacity"], want["capacity"], RTOL),
                rel("mean_hitting.capacity_route", r["capacity_route"], want["mean_hitting"], RTOL),
                rel("mean_hitting.direct", r["direct"], want["mean_hitting"], RTOL),
                rel("routes_agree", r["capacity_route"], r["direct"], ROUTE_RTOL),
            ])

        def seeded(name=name, g=g, branch=branch, n_free=n_free):
            chain = ctx["chains"][name]
            out = {}
            for method, route in ROUTES.items():
                out[route] = tr.call("potential.mean_hitting_exact", P.mean_hitting_exact,
                                     chain, ctx["sources"][name], [g[2]], method=method,
                                     tag=f"{route}.{branch}")
                tr.count("unknowns", n_free)
            return out

        h.job(f"mean_hitting.seeded.{name}", seeded, lambda r: [
            rel("routes_agree", r["capacity_route"], r["direct"], ROUTE_RTOL)])

        def gap(space=space, n_free=n_free):
            val = tr.call("potential.spectral_gap", P.spectral_gap, space, 4.0, method="variational")
            tr.count("unknowns", n_free)
            return val

        h.job(f"spectral_gap.{name}", gap,
              lambda v, name=name: [rel("gap", v, ref["spectral_gap"][name], RTOL)])

    def test_fn():
        from spinscape import landscape as L

        space = spaces["2x2x4"]
        g = space.ground_states()
        ts = tr.call("landscape.typical_sets", L.typical_sets, space, (1,), (2,))
        ts_ba = tr.call("landscape.typical_sets", L.typical_sets, space, (2,), (1,), gamma=ts.gamma)
        bundle = tr.call("potential.constants", P.constants, space.spec, tag="2x2x4")
        h_tilde, info = tr.call("potential.test_function", P.test_function,
                                space, ts, ts_ba, bundle, 3.0)
        diag = tr.call("potential.h1_diagnostics", P.h1_diagnostics,
                       space, h_tilde, 3.0, [g[1]], [g[2]])
        tr.count("unknowns", space.n_states - 2)
        return diag, info["warnings"]

    want = ref["test_function"]
    h.job("test_function.2x2x4", test_fn, lambda r: [
        rel("capacity", r[0]["capacity"], ref["solves"]["2x2x4"]["3.0"]["capacity"], RTOL),
        rel("dirichlet_h_tilde", r[0]["dirichlet_h_tilde"], want["dirichlet_h_tilde"], RTOL),
        eq("dirichlet_principle_holds", bool(r[0]["dirichlet_principle_holds"]), True),
        Check("defect_identity", r[0]["defect_rel_err"] <= 1e-6, r[0]["defect_rel_err"]),
        eq("warnings", list(r[1]), want["warnings"]),
    ])

    def constants():
        spec = LatticeSpec(K=3, L=4, M=8, q=3, boundary="periodic")
        bundle = tr.call("potential.constants", P.constants, spec)
        tr.count("unknowns", 3 ** 12 - 2)
        return bundle

    want = ref["constants_3x4x8_q3"]
    h.job("constants.3x4x8.q3", constants, lambda b: [
        rel("kappa", b.kappa, want["kappa"], RTOL),
        rel("kappa2d", b.kappa2d, want["kappa2d"], RTOL),
        *(rel(f"{k}({n})", getattr(b, k)[int(n)], v, RTOL)
          for k in ("b", "e", "c") for n, v in want[k].items()),
    ])

    for name, beta, tag in (("2x2x3", 20.0, "beta20"), ("2x2x2", 70.0, "large_beta")):
        gamma = ref["large_beta"][name]["gamma"]

        def prefactor(name=name, beta=beta, tag=tag, gamma=gamma):
            space = spaces[name]
            g = space.ground_states()
            chain = tr.call("potential.chain_from_space", P.chain_from_space, space, beta)
            cap = tr.call("potential.capacity", P.capacity, chain, [g[1]], [g[2]], tag=tag)
            tr.count("unknowns", space.n_states - 2)
            return math.exp(beta * gamma) * cap

        h.job(f"capacity.{name}.beta{beta:g}", prefactor, lambda v, name=name: [
            rel("exp(beta*Gamma)*Cap", v, ref["large_beta"][name]["prefactor"], PREFACTOR_RTOL)])


def work_rate(tr) -> float:
    keys = [k for k in tr.totals if k.startswith(SOLVES)]
    return ratio(sum(tr.work[(k, "unknowns")] for k in keys), sum(tr.totals[k] for k in keys))


def layer_metrics(ctx, setup_tr, tr) -> dict:
    t = tr.totals
    out = {
        "potential.chain_from_space_s": t["potential.chain_from_space"],
        "potential.spectral_gap_s": t["potential.spectral_gap"],
        "potential.test_function_s": t["potential.test_function"],
        "potential.h1_diagnostics_s": t["potential.h1_diagnostics"],
        "potential.constants_s": t["potential.constants"],
        "potential.large_beta_s": t["potential.capacity.large_beta"],
        "potential.capacity.beta20_s": t["potential.capacity.beta20"],
        "potential.alloc_peak_bytes_per_unknown": tr.max_alloc_per("potential.", "unknowns"),
        "potential.solve_unknowns_per_s": work_rate(tr),
    }
    for branch in INSTANCES.values():
        out[f"potential.capacity.{branch}_s"] = t[f"potential.capacity.{branch}"]
        for route in ROUTES.values():
            out[f"potential.mean_hitting.{route}.{branch}_s"] = (
                t[f"potential.mean_hitting_exact.{route}.{branch}"])
    return out
