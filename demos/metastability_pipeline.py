"""Capacities, exact hitting times, spectral gaps, and the exponential law.

Run:  python3 demos/metastability_pipeline.py
"""

import math

import numpy as np

from spinscape import dynamics as dy
from spinscape import potential as pt
from spinscape.landscape import comm_height, enumerate_space
from spinscape.lattice import LatticeSpec


def main() -> None:
    spec = LatticeSpec(2, 2, 3, 2, "open")
    space = enumerate_space(spec)
    g = space.ground_states()
    brute = comm_height(space, g[1], g[2])
    print(f"lattice {spec.dims} open, {space.n_states} states, barrier {brute}")

    print("\n== capacity and mean hitting time, two independent routes ==")
    for beta in (2.0, 3.0, 4.0):
        ch = pt.chain_from_space(space, beta)
        cap = pt.capacity(ch, [g[1]], [g[2]])
        m_cap = pt.mean_hitting_exact(ch, g[1], [g[2]], "capacity")
        m_dir = pt.mean_hitting_exact(ch, g[1], [g[2]], "direct")
        print(
            f"  beta={beta}: cap = {cap:.6e},"
            f" E[tau] = {m_cap:.6e} (capacity) vs {m_dir:.6e} (direct),"
            f" rel gap {abs(m_cap - m_dir) / m_cap:.1e}"
        )

    print("\n== the barrier read off the dynamics ==")
    betas = np.array([3.0, 4.0, 5.0, 6.0])
    log_means = [
        math.log(pt.mean_hitting_exact(pt.chain_from_space(space, b), g[1], [g[2]])) for b in betas
    ]
    neg_log_gap = [
        -math.log(pt.spectral_gap(space, b, method="variational")) for b in betas
    ]
    s_tau = np.polyfit(betas, log_means, 1)[0]
    s_gap = np.polyfit(betas, neg_log_gap, 1)[0]
    print(f"  slope of log E[tau] vs beta:  {s_tau:.3f}  (barrier = {brute})")
    print(f"  slope of -log(gap)  vs beta:  {s_gap:.3f}")

    print("\n== rescaled hitting times approach the unit exponential ==")
    mask = np.zeros(space.n_states, bool)
    mask[g[2]] = True
    beta = 3.0
    times = dy.sample_hitting_times(
        space, g[1], mask, beta, 500, seed=1, max_steps=1_000_000_000
    )
    x = np.sort(times / times.mean())
    n = len(x)
    ks = max(
        np.max(np.abs(np.arange(1, n + 1) / n - (1 - np.exp(-x)))),
        np.max(np.abs(np.arange(0, n) / n - (1 - np.exp(-x)))),
    )
    print(f"  beta={beta}: 500 trajectories, KS(tau/mean, Exp(1)) = {ks:.4f}")


if __name__ == "__main__":
    main()
