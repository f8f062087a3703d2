"""Prefactor constants, auxiliary chains, harmonic currents, and the test function.

Run:  python3 demos/constants_pipeline.py
"""

import numpy as np

from spinscape import potential as pt
from spinscape.canon import canonical_path
from spinscape.landscape import enumerate_space, typical_sets
from spinscape.lattice import LatticeSpec


def main() -> None:
    print("== the constants bundle on a non-enumerable instance ==")
    spec = LatticeSpec(3, 4, 8, 2, "periodic")
    bundle = pt.constants(spec)
    print(f"  kappa = {bundle.kappa:.6e}")
    for n in sorted(bundle.c):
        print(
            f"  n={n}: b = {bundle.b[n]:.6e}, e = {bundle.e[n]:.6e},"
            f" c = {bundle.c[n]:.6e}  [{bundle.provenance[f'e({n})']}]"
        )
    print("  non-reproducible claims carried in the report:")
    for claim in bundle.non_reproducible:
        print(f"    - {claim}")

    print("\n== auxiliary chain on the largest enumerable instance ==")
    space = enumerate_space(LatticeSpec(2, 2, 4, 2, "open"))
    ts = typical_sets(space, A=(1,), B=(2,))
    aux = pt.build_aux_chain(ts)
    print(f"  {aux.n} vertices, {len(aux.src)} edges")
    for w in ts.warnings:
        print(f"  warning: {w}")
    s_v, t_v = pt.aux_ground_and_window_vertices(ts, aux)
    try:
        pt.aux_capacity(aux, s_v, t_v)
    except ValueError as exc:
        print(f"  aux capacity refused: {exc}")

    print("\n== harmonic unit current from g1 to g2 at beta = 3 ==")
    beta = 3.0
    g = space.ground_states()
    chain = pt.chain_from_space(space, beta)
    h = pt.equilibrium_potential(chain, [g[1]], [g[2]])
    cap = pt.dirichlet(chain, h)
    J = pt.unit_current(chain, h)
    net = chain._onto_ends(J, -J)
    interior = np.ones(space.n_states, dtype=bool)
    interior[[g[1], g[2]]] = False
    print(f"  net outflow from g1 - 1: {net[g[1]] - 1:.2e}")
    print(f"  largest |divergence| off g1, g2: {np.abs(net[interior]).max():.2e}")
    # the canonical path is a unit flow of energy sum 1/c_e, and a
    # Metropolis conductance is the smaller of the two Gibbs masses
    path = [space.index_of(c) for c in canonical_path(space.spec, 1, 2).configs()]
    c_path = np.minimum(chain.mu[path[:-1]], chain.mu[path[1:]])
    r_path = float(np.sum(1.0 / c_path))
    print(f"  Thomson: 1/R_path = {1 / r_path:.6e} <= cap = {cap:.6e}: {1 / r_path <= cap}")

    print("\n== explicit test function and its defect diagnostics ==")
    ts_BA = typical_sets(space, A=(2,), B=(1,), gamma=ts.gamma)
    bundle224 = pt.constants(space.spec)
    h, info = pt.test_function(space, ts, ts_BA, bundle224, beta=beta)
    diag = pt.h1_diagnostics(space, h, beta, [g[1]], [g[2]])
    print(f"  D(h~) = {diag['dirichlet_h_tilde']:.6e} >= cap = {diag['capacity']:.6e}:"
          f" {diag['dirichlet_principle_holds']}")
    print(f"  defect identity relative error: {diag['defect_rel_err']:.2e}")
    print(f"  current outflow from g1: {diag['current_outflow']:.12f}")


if __name__ == "__main__":
    main()
