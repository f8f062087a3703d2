"""End-to-end acceptance battery.

Each test pins one externally checkable guarantee of the toolkit: exact
integer identities of the Hamiltonian algebra, explicit path energies,
gateway energy dichotomy, brute-force barrier values, potential-theory
identities of the reversible chain, asymptotic laws of the dynamics, and
the structural checks on the auxiliary chains, harmonic currents and test
functions.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from spinscape import dynamics as dy
from spinscape import potential as pt
from spinscape.canon import (
    canonical_path,
    classify_gateway,
    escape_path,
    generate_gateways,
)
from spinscape.energy import decompose, energy
from spinscape.landscape import (
    NON_REPRODUCIBLE_CLAIMS,
    barrier_report,
    comm_height,
    enumerate_space,
    gamma_formula,
    typical_sets,
)
from spinscape.lattice import Lattice2D, LatticeSpec, SpinConfig


# ---------------------------------------------------------------------------
# 1. Energy decomposition: floor + pillar energies sum to the total, exactly
# ---------------------------------------------------------------------------

DECOMP_LATTICES = [
    (3, 3, 3, "periodic"),
    (3, 4, 5, "periodic"),
    (2, 2, 3, "open"),
    (2, 3, 4, "open"),
]


@pytest.mark.parametrize("K,L,M,boundary", DECOMP_LATTICES)
@pytest.mark.parametrize("q", [2, 3])
def test_decomposition_exact_on_random_configs(K, L, M, boundary, q):
    spec = LatticeSpec(K, L, M, q, boundary)
    rng = np.random.default_rng(12345 + K * 100 + L * 10 + M + q)
    spins = rng.integers(1, q + 1, size=(1000, spec.n_sites)).astype(np.int16)
    for row in spins:
        sigma = SpinConfig(spec, row)
        floors, pillars = decompose(sigma)
        assert sum(floors) + sum(pillars) == energy(sigma)


# ---------------------------------------------------------------------------
# 2. Canonical-path peaks match the closed-form barrier value
# ---------------------------------------------------------------------------

def _grid(lo, hi):
    return [
        (K, L, M)
        for K, L, M in itertools.product(range(lo, hi + 1), repeat=3)
        if K <= L <= M
    ]


PEAK_CASES = [
    pytest.param(K, L, M, "periodic", id=f"{K}x{L}x{M}-periodic")
    for K, L, M in _grid(3, 5)
] + [
    pytest.param(
        K,
        L,
        M,
        "open",
        id=f"{K}x{L}x{M}-open",
        marks=pytest.mark.xfail(
            strict=True,
            reason=(
                "open-boundary lattices with a 2x2 cross-section peak "
                "strictly below the general formula (the active floor "
                "has no interior row)"
            ),
        )
        if (K, L) == (2, 2)
        else (),
    )
    for K, L, M in _grid(2, 4)
]


@pytest.mark.parametrize("K,L,M,boundary", PEAK_CASES)
def test_canonical_path_peak_formula(K, L, M, boundary):
    spec = LatticeSpec(K, L, M, 2, boundary)
    p = canonical_path(spec, 1, 2)
    p.validate()
    assert len(p) == spec.n_sites
    expected = 2 * K * L + 2 * K + 2 if boundary == "periodic" else K * L + K + 1
    assert p.max_energy == expected


# ---------------------------------------------------------------------------
# 3. Gateway dichotomy: energy is gamma - 2 exactly for type-1 gateways
# ---------------------------------------------------------------------------

def test_gateway_energy_dichotomy_exhaustive():
    spec = LatticeSpec(3, 4, 8, 2, "periodic")
    gamma = gamma_formula(spec)
    gws = generate_gateways(spec, 1, 2)
    total = 0
    for codes in gws.values():
        for c in codes:
            sigma = SpinConfig.from_code(spec, c)
            gc = classify_gateway(sigma)
            assert gc is not None
            H = energy(sigma)
            if gc.type == 1:
                assert H == gamma - 2
            else:
                assert H == gamma
            total += 1
    assert total == 25728  # frozen exhaustive count for this instance


# ---------------------------------------------------------------------------
# 4. 2D barrier oracle: brute-force communication height equals 2K + 2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K,L", [(3, 3), (3, 4), (4, 4), (3, 5)])
def test_2d_barrier_brute_force(K, L):
    space = enumerate_space(Lattice2D(K, L, 2, "periodic"))
    g = space.ground_states()
    assert comm_height(space, g[1], g[2]) == 2 * K + 2


# ---------------------------------------------------------------------------
# 5. 3D open-boundary barrier: brute value never exceeds the formula
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K,L,M,brute_frozen", [(2, 2, 3, 6), (2, 2, 4, 6)])
def test_open_3d_barrier_brute_vs_formula(K, L, M, brute_frozen):
    spec = LatticeSpec(K, L, M, 2, "open")
    space = enumerate_space(spec)
    g = space.ground_states()
    brute = comm_height(space, g[1], g[2])
    formula = gamma_formula(spec)
    assert brute <= formula  # the explicit path always gives an upper bound
    assert brute == brute_frozen  # frozen oracle; equality with the formula
    # fails on these sub-threshold instances and is reported, not asserted
    rep = barrier_report(spec, brute=brute)
    assert rep["match"] is (brute == formula)
    assert rep["note"] == "outside theorem hypothesis"


# ---------------------------------------------------------------------------
# 6. Escape-path ledger: peak value and per-stage delta matrices
# ---------------------------------------------------------------------------

def _escape_expected_delta(stage, k, l, m, K, n):
    """Frozen per-flip energy changes of the three-stage slab erasure."""
    lo = m < n  # position inside the slab, below the top layer
    if stage == 1:
        if k == 1:
            return (4 if lo else 2) if l == 1 else (2 if lo else 0)
        if k < K:
            return (2 if lo else 0) if l == 1 else (0 if lo else -2)
        return (0 if lo else -2) if l == 1 else (-2 if lo else -4)
    if stage == 2:
        if k == 1:
            return 2 if lo else 0
        if k < K:
            return 0 if lo else -2
        return -2 if lo else -4
    if k == 1:
        return 0 if lo else -2
    if k < K:
        return -2 if lo else -4
    return -4 if lo else -6


def test_escape_path_peak_and_stage_deltas():
    K = L = M = 9
    n = 2
    spec = LatticeSpec(K, L, M, 2, "periodic")
    p = escape_path(spec, 1, 2, n)
    assert p.max_energy == 2 * K * L + 2 * n * n + 2 * n - 2 == 172
    deltas = np.diff(p.energies)
    s1 = p.stages["stage1"]
    s2 = p.stages["stage2"]
    s3 = p.stages["stage3"]
    i = s1[0]
    for k in range(1, K + 1):
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                assert deltas[i] == _escape_expected_delta(1, k, l, m, K, n)
                i += 1
    assert i == s1[1] == s2[0]
    for l in range(n + 1, L):
        for k in range(1, K + 1):
            for m in range(1, n + 1):
                assert deltas[i] == _escape_expected_delta(2, k, l, m, K, n)
                i += 1
    assert i == s2[1] == s3[0]
    for k in range(1, K + 1):
        for m in range(1, n + 1):
            assert deltas[i] == _escape_expected_delta(3, k, l, m, K, n)
            i += 1
    assert i == s3[1] == len(deltas)


# ---------------------------------------------------------------------------
# 7. Potential-theory identities on the smallest enumerable 3D instance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta", [2.0, 3.0, 4.0])
def test_potential_identities(space_223_open, beta):
    space = space_223_open
    g = space.ground_states()
    ch = pt.chain_from_space(space, beta)
    rng = np.random.default_rng(int(beta * 10))

    # (a) edge-sum and generator-pairing Dirichlet forms agree
    for _ in range(5):
        f = rng.random(ch.n)
        d1 = pt.dirichlet(ch, f)
        d2 = pt.dirichlet_generator(ch, f)
        assert abs(d1 - d2) / d1 <= 1e-10

    # (b) mean hitting time via the capacity formula vs a direct solve
    m1 = pt.mean_hitting_exact(space, g[1], [g[2]], beta, "capacity")
    m2 = pt.mean_hitting_exact(space, g[1], [g[2]], beta, "direct")
    assert abs(m1 - m2) / m1 <= 1e-8

    # (c) variational lower bound: every admissible g has D(g) >= Cap
    cap = pt.capacity(ch, [g[1]], [g[2]])
    for _ in range(20):
        f = rng.random(ch.n)
        f[g[1]] = 1.0
        f[g[2]] = 0.0
        assert pt.dirichlet(ch, f) >= cap


# ---------------------------------------------------------------------------
# 8. Barrier read off the dynamics: slope of log E[tau] and -log(gap) in beta
# ---------------------------------------------------------------------------

def test_barrier_from_dynamics_slopes(space_223_open):
    space = space_223_open
    g = space.ground_states()
    brute = comm_height(space, g[1], g[2])  # = 6
    betas = np.array([3.0, 4.0, 5.0, 6.0])
    log_means = np.array(
        [
            math.log(pt.mean_hitting_exact(space, g[1], [g[2]], b))
            for b in betas
        ]
    )
    slope_tau = np.polyfit(betas, log_means, 1)[0]
    assert abs(slope_tau - brute) / brute <= 0.05

    neg_log_gap = np.array(
        [-math.log(pt.spectral_gap(space, b, method="variational")) for b in betas]
    )
    slope_gap = np.polyfit(betas, neg_log_gap, 1)[0]
    assert abs(slope_gap - brute) / brute <= 0.10


# ---------------------------------------------------------------------------
# 9. Exponential law of the rescaled hitting time
# ---------------------------------------------------------------------------

def _population_ks_vs_exp1(ch, start, targets):
    """Exact KS distance of tau/E[tau] from the unit exponential, and
    E[tau], for the chain ``ch`` started at ``start``.

    The survival function of the killed chain is a finite mixture of
    exponentials obtained from a dense symmetric eigendecomposition, so
    the KS distance is computed to solver precision, with no sampling
    noise.  A start fixed and a target set left invariant by a group of
    lattice symmetries give the same law on the chain of the quotient by
    that group (strong lumpability; Kemeny and Snell 1960).
    """
    n = ch.n
    rates = np.zeros((n, n))
    r_fwd = ch.cond / ch.mu[ch.src]
    r_bwd = ch.cond / ch.mu[ch.dst]
    rates[ch.src, ch.dst] = r_fwd
    rates[ch.dst, ch.src] = r_bwd
    np.fill_diagonal(rates, -rates.sum(axis=1))
    keep = np.ones(n, bool)
    keep[list(targets)] = False
    idx = np.flatnonzero(keep)
    A = rates[np.ix_(idx, idx)]
    sq = np.sqrt(ch.mu[idx])
    S = (A * sq[:, None]) / sq[None, :]
    S = 0.5 * (S + S.T)
    evals, V = np.linalg.eigh(S)
    lam = -evals  # decay rates, all positive for the killed chain
    pos = int(np.searchsorted(idx, start))
    coef = (V[pos] / sq[pos]) * (V.T @ sq)
    mean = float(np.sum(coef / lam))
    t = np.linspace(0.0, 25.0, 200_001)[1:]
    worst = 0.0
    for chunk in np.array_split(t, 100):  # bound the memory footprint
        surv = np.exp(-np.outer(chunk * mean, lam)) @ coef
        worst = max(worst, float(np.max(np.abs(surv - np.exp(-chunk)))))
    return worst, mean


def test_exponential_law_trend(space_223_open):
    space = space_223_open
    g = space.ground_states()
    mask = np.zeros(space.n_states, bool)
    mask[g[2]] = True

    # the exact law on the 378 symmetry classes instead of the 4,096 states
    labels, quotient = space.symmetry_quotient()
    ks_exact = {}
    means = {}
    for beta in (3.0, 4.0):
        ks_exact[beta], means[beta] = _population_ks_vs_exp1(
            pt.chain_from_space(quotient, beta), labels[g[1]], [labels[g[2]]]
        )
    # the law really does tighten with beta, measured without sampling noise
    assert ks_exact[4.0] < ks_exact[3.0]
    assert ks_exact[4.0] < 1e-6

    # seeded trajectories: the empirical CDF sits within the sampling band
    n_samples = 2000
    dkw = math.sqrt(math.log(2 / 0.05) / (2 * n_samples))  # 95% band
    for beta in (3.0, 4.0):
        times = dy.sample_hitting_times(
            space, g[1], mask, beta, n_samples, seed=20260824,
            max_steps=4_000_000_000,
        )
        x = np.sort(times / times.mean())
        ecdf_hi = np.arange(1, n_samples + 1) / n_samples
        ecdf_lo = np.arange(0, n_samples) / n_samples
        target = 1.0 - np.exp(-x)
        ks = max(np.max(np.abs(ecdf_hi - target)), np.max(np.abs(ecdf_lo - target)))
        assert ks < 0.1
        assert ks < dkw + ks_exact[beta]
        # the sample mean agrees with the exact mean at this sample size
        se = times.std(ddof=1) / math.sqrt(n_samples)
        assert abs(times.mean() - means[beta]) <= 4 * se


@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_exponential_law_on_the_quotient(beta):
    # the oracle for the quotient route above: the state chain's law and
    # the symmetry-quotient chain's law agree on 2x2x2 open
    space = enumerate_space(LatticeSpec(2, 2, 2, 2, "open"))
    g = space.ground_states()
    labels, quotient = space.symmetry_quotient()
    ks, mean = _population_ks_vs_exp1(pt.chain_from_space(space, beta), g[1], [g[2]])
    ks_q, mean_q = _population_ks_vs_exp1(
        pt.chain_from_space(quotient, beta), labels[g[1]], [labels[g[2]]])
    assert abs(ks_q - ks) <= 1e-6 * ks
    assert abs(mean_q - mean) <= 1e-10 * mean


# ---------------------------------------------------------------------------
# 10. Auxiliary chain and flows
# ---------------------------------------------------------------------------

def test_aux_chain_and_flows(space_224_open):
    # the largest enumerable instance has a degenerate window: the literal
    # construction is exercised with its warning, and the unit-flow checks
    # run on the harmonic current of the Metropolis chain itself -- both
    # facts recorded explicitly here.
    report = {"instance": "2x2x4-open", "window": "degenerate"}

    ts = typical_sets(space_224_open, A=(1,), B=(2,))
    assert any("degenerate" in w for w in ts.warnings)
    aux = pt.build_aux_chain(ts)
    # uniform invariant measure: one edge per vertex pair, with a positive
    # integer rate read in both directions
    pairs = np.sort(np.c_[aux.src, aux.dst], axis=1)
    assert len(np.unique(pairs, axis=0)) == len(pairs) and np.all(aux.rates >= 1)
    chain = aux.as_chain()
    assert np.all(chain.mu == chain.mu[0])
    s_v, t_v = pt.aux_ground_and_window_vertices(ts, aux)
    with pytest.raises(ValueError, match="degenerate"):
        pt.aux_capacity(aux, s_v, t_v)
    report["aux_capacity"] = "refused: degenerate window"

    # the harmonic unit current from g1 to g2 at beta=3
    g = space_224_open.ground_states()
    chain = pt.chain_from_space(space_224_open, 3.0)
    h = pt.equilibrium_potential(chain, [g[1]], [g[2]])
    J = pt.unit_current(chain, h)
    net = chain._onto_ends(J, -J)
    assert net[g[1]] == pytest.approx(1.0, abs=1e-9)
    assert net[g[2]] == pytest.approx(-1.0, abs=1e-9)
    interior = np.ones(chain.n, dtype=bool)
    interior[[g[1], g[2]]] = False
    assert np.max(np.abs(net[interior])) <= 1e-9
    # Thomson: the canonical path is a unit flow from g1 to g2 of energy
    # sum 1/c_e over its steps, each an edge of the chain
    path = [space_224_open.index_of(c)
            for c in canonical_path(space_224_open.spec, 1, 2).configs()]
    C = sp.csr_matrix((chain.cond, (chain.src, chain.dst)), shape=(chain.n, chain.n))
    c_path = np.asarray((C + C.T)[path[:-1], path[1:]]).ravel()
    assert (c_path > 0).all()
    assert 1.0 / np.sum(1.0 / c_path) <= pt.dirichlet(chain, h)
    report["flow_checks_on"] = "2x2x4-open-harmonic-current-beta3"
    assert report == {
        "instance": "2x2x4-open",
        "window": "degenerate",
        "aux_capacity": "refused: degenerate window",
        "flow_checks_on": "2x2x4-open-harmonic-current-beta3",
    }


# ---------------------------------------------------------------------------
# 11. Test-function diagnostics
# ---------------------------------------------------------------------------

def test_test_function_diagnostics(space_224_open):
    beta = 3.0
    space = space_224_open
    ts = typical_sets(space, A=(1,), B=(2,))
    ts_BA = typical_sets(space, A=(2,), B=(1,), gamma=ts.gamma)
    bundle = pt.constants(space.spec)
    h, info = pt.test_function(space, ts, ts_BA, bundle, beta=beta)
    g = space.ground_states()

    assert (h >= 0).all() and (h <= 1).all()
    assert h[g[1]] == 1.0 and h[g[2]] == 0.0

    # seam constancy: constant on each slab-count window, off the pinned
    # ground neighborhoods
    pinned = info["ground_A_mask"] | info["ground_B_mask"]
    for i in range(ts.m_K, space.spec.M - ts.m_K + 1):
        codes = ts.R_hat[i]
        free = codes[~pinned[codes]]
        if len(free):
            assert len(np.unique(np.round(h[free], 12))) == 1

    diag = pt.h1_diagnostics(space, h, beta, [g[1]], [g[2]])
    assert diag["dirichlet_h_tilde"] >= diag["capacity"]
    assert diag["dirichlet_principle_holds"]
    # Pythagorean defect identity: D(h - ht) = D(ht) - sum h (-L ht) mu
    assert diag["defect_rel_err"] <= 1e-8


# ---------------------------------------------------------------------------
# 12. Non-reproducible claims ledger
# ---------------------------------------------------------------------------

def test_non_reproducible_claims_ledger():
    assert len(NON_REPRODUCIBLE_CLAIMS) == 3
    joined = " ".join(NON_REPRODUCIBLE_CLAIMS)
    assert "2829" in joined
    for frac in ("1/8", "1/16", "1/48"):
        assert frac in joined
    assert "K^(-1/3)" in joined or "K**(-1/3)" in joined or "K^{-1/3}" in joined

    # every barrier report carries the ledger and the hypothesis flag
    rep = barrier_report(LatticeSpec(3, 4, 5, 2, "periodic"))
    assert rep["non_reproducible"] == NON_REPRODUCIBLE_CLAIMS
    assert rep["theorem_hypothesis_met"] is False
    assert rep["note"] == "outside theorem hypothesis"

    # and the user-facing docs declare the same three claims
    import pathlib

    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    assert "2829" in text
    for frac in ("1/8", "1/16", "1/48"):
        assert frac in text
    assert "not desk-reproducible" in text
