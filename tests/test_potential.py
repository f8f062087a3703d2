"""Potential theory: Dirichlet forms, capacities, gaps, aux chains, flows."""

import math

import numpy as np
import pytest

from spinscape import potential as pt
from spinscape.landscape import comm_height, enumerate_space, typical_sets
from spinscape.lattice import Lattice2D, LatticeSpec


class TestChain:
    def test_mu_normalized_and_reversible(self, space_223_open):
        ch = pt.chain_from_space(space_223_open, 2.0)
        assert ch.mu.sum() == pytest.approx(1.0, abs=1e-12)
        # conductance = min of the two Gibbs masses on every edge
        E = space_223_open.energies
        w = np.exp(-2.0 * E.astype(float))
        Z = w.sum()
        expected = np.minimum(w[ch.src], w[ch.dst]) / Z
        assert np.allclose(ch.cond, expected, rtol=1e-12)

    def test_generator_kills_constants(self, space_223_open):
        ch = pt.chain_from_space(space_223_open, 1.5)
        out = ch.generator_apply(np.ones(ch.n))
        assert np.max(np.abs(out)) < 1e-14


class TestDirichlet:
    def test_two_formulas_agree(self, space_223_open):
        rng = np.random.default_rng(0)
        for beta in (1.0, 2.5):
            ch = pt.chain_from_space(space_223_open, beta)
            f = rng.random(ch.n)
            d1 = pt.dirichlet(ch, f)
            d2 = pt.dirichlet_generator(ch, f)
            assert abs(d1 - d2) / d1 < 1e-10

    def test_zero_on_constants(self, space_223_open):
        ch = pt.chain_from_space(space_223_open, 1.0)
        assert pt.dirichlet(ch, np.full(ch.n, 3.7)) == 0.0


class TestEquilibriumPotential:
    def test_boundary_values_and_range(self, space_223_open):
        g = space_223_open.ground_states()
        h = pt.equilibrium_potential(space_223_open, [g[1]], [g[2]], beta=2.0)
        assert h[g[1]] == 1.0 and h[g[2]] == 0.0
        assert (h >= 0).all() and (h <= 1).all()

    def test_harmonic_off_boundary(self, space_223_open):
        g = space_223_open.ground_states()
        ch = pt.chain_from_space(space_223_open, 2.0)
        h = pt.equilibrium_potential(ch, [g[1]], [g[2]])
        resid = ch.generator_apply(h)
        resid[[g[1], g[2]]] = 0.0
        # generator residual scaled by the local exit rate
        assert np.max(np.abs(resid)) < 1e-9

    def test_symmetry(self, space_223_open):
        g = space_223_open.ground_states()
        ch = pt.chain_from_space(space_223_open, 2.0)
        h = pt.equilibrium_potential(ch, [g[1]], [g[2]])
        hr = pt.equilibrium_potential(ch, [g[2]], [g[1]])
        assert np.max(np.abs(h + hr - 1.0)) < 1e-9


class TestCapacityAndHitting:
    def test_capacity_symmetric(self, space_223_open):
        ch = pt.chain_from_space(space_223_open, 2.0)
        g = space_223_open.ground_states()
        c1 = pt.capacity(ch, [g[1]], [g[2]])
        c2 = pt.capacity(ch, [g[2]], [g[1]])
        assert c1 == pytest.approx(c2, rel=1e-10)

    def test_hitting_routes_agree(self, space_223_open):
        g = space_223_open.ground_states()
        for beta in (2.0, 3.0):
            m1 = pt.mean_hitting_exact(space_223_open, g[1], [g[2]], beta, "capacity")
            m2 = pt.mean_hitting_exact(space_223_open, g[1], [g[2]], beta, "direct")
            assert abs(m1 - m2) / m1 < 1e-8

    def test_exponential_scaling(self, space_223_open):
        # log E[tau] grows like beta * Gamma with Gamma = 6 (brute barrier)
        g = space_223_open.ground_states()
        m3 = pt.mean_hitting_exact(space_223_open, g[1], [g[2]], 3.0)
        m4 = pt.mean_hitting_exact(space_223_open, g[1], [g[2]], 4.0)
        slope = math.log(m4) - math.log(m3)
        assert abs(slope - 6.0) < 0.5


class TestSolverRefusals:
    """A failed solve raises; it never switches solver or returns garbage."""

    @pytest.fixture(scope="class")
    def space_222_open(self):
        return enumerate_space(LatticeSpec(2, 2, 2, 2, "open"))

    def test_direct_route_failed_factorization(self, space_222_open):
        # the direct system is numerically indefinite at beta=40
        g = space_222_open.ground_states()
        with pytest.raises(RuntimeError, match="dense Cholesky failed on 255 unknowns"):
            pt.mean_hitting_exact(space_222_open, g[1], [g[2]], 40.0, "direct")

    def test_underflowed_conductances(self, space_222_open):
        # beta * E_max = 840 > 745: the top states' conductances are all 0.0
        g = space_222_open.ground_states()
        with pytest.raises(RuntimeError, match="2 of 254 free states have zero total"):
            pt.capacity(space_222_open, [g[1]], [g[2]], 70.0)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 3: the direct route's dense factorization succeeds at "
        "beta=20 but returns 1.207e43 against the capacity route's 3.360e42"))
    def test_direct_route_agrees_at_beta20(self, space_222_open):
        g = space_222_open.ground_states()
        m_cap = pt.mean_hitting_exact(space_222_open, g[1], [g[2]], 20.0, "capacity")
        m_dir = pt.mean_hitting_exact(space_222_open, g[1], [g[2]], 20.0, "direct")
        assert abs(m_dir - m_cap) / m_cap < 1e-6


class TestSpectralGap:
    def test_dense_vs_variational(self, space_223_open):
        gd = pt.spectral_gap(space_223_open, 3.0, method="dense")
        gv = pt.spectral_gap(space_223_open, 3.0, method="variational")
        assert abs(gd - gv) / gd < 1e-6

    def test_gap_times_mean_hitting_order_one(self, space_223_open):
        # lambda * E[tau] is bounded (metastable one-well picture)
        g = space_223_open.ground_states()
        for beta in (3.0, 4.0):
            lam = pt.spectral_gap(space_223_open, beta, method="variational")
            m = pt.mean_hitting_exact(space_223_open, g[1], [g[2]], beta)
            assert 0.1 < lam * m < 10.0

    def test_state_limit(self):
        space = enumerate_space(LatticeSpec(2, 2, 3, 2, "open"))
        space.energies = np.zeros(2**17, dtype=np.int32)  # fake oversize
        with pytest.raises(ValueError):
            pt.spectral_gap(space, 1.0)


class TestAuxChain:
    def test_uniform_reversibility(self, space_224_open):
        ts = typical_sets(space_224_open, A=(1,), B=(2,))
        aux = pt.build_aux_chain(ts)
        assert aux.flux_balance_exact()
        assert aux.n == int(ts.O_A.sum()) + len(ts.Ibar_A)
        assert (aux.rates >= 1).all()

    def test_rate_counts(self, space_224_open):
        # O-to-class rates equal adjacency counts into the class
        ts = typical_sets(space_224_open, A=(1,), B=(2,))
        aux = pt.build_aux_chain(ts)
        mt = space_224_open.move_table()
        for e in range(min(30, len(aux.src))):
            i, j = int(aux.src[e]), int(aux.dst[e])
            ki, kj = aux.kind[i], aux.kind[j]
            if {ki, kj} == {"O", "I"}:
                o, r = (i, j) if ki == "O" else (j, i)
                o_state = aux.vertex_state[o]
                rep = aux.vertex_state[r]
                members = [s for s, rr in ts.class_rep_A.items() if rr == rep]
                count = sum(int(t) in members for t in mt[o_state])
                assert count == int(aux.rates[e])

    def test_degenerate_window_raises(self, space_224_open):
        ts = typical_sets(space_224_open, A=(1,), B=(2,))
        aux = pt.build_aux_chain(ts)
        s_v, t_v = pt.aux_ground_and_window_vertices(ts, aux)
        with pytest.raises(ValueError, match="degenerate"):
            pt.aux_capacity(aux, s_v, t_v)


class TestFlows:
    def test_synthetic_chain_full_battery(self):
        rep = pt.flow_check_battery(5, 6, 7)
        assert rep["flux_balance_exact"]
        assert rep["unit_flow"]
        assert rep["norm_bound_holds"]
        assert rep["thomson_bound_holds"]
        assert rep["flow_norm_sq"] == pytest.approx(
            rep["flow_norm_closed_form"], rel=1e-9
        )

    def test_flow_norm_closed_form(self):
        aux, flow, sources, targets = pt.synthetic_flow_chain(5, 6, 7)
        K, L, M = 5, 6, 7
        n_windows = (2 - 1) * 2 * M
        expected = aux.n * n_windows * (K * K * L * (L - 2)) / (2 * K * L * M) ** 2
        assert pt.flow_norm(aux, flow) == pytest.approx(expected, rel=1e-9)

    def test_divergence_support(self):
        aux, flow, sources, targets = pt.synthetic_flow_chain(5, 6, 7)
        div = pt.divergence(aux, flow)
        interior = np.ones(aux.n, bool)
        interior[sources] = False
        interior[targets] = False
        assert np.max(np.abs(div[interior])) < 1e-12
        assert div[sources].sum() == pytest.approx(1.0, abs=1e-12)

    def test_flow_off_edges_rejected(self):
        aux, flow, *_ = pt.synthetic_flow_chain(5, 6, 7)
        bad = pt.Flow({(0, aux.n - 1): 1.0})
        with pytest.raises(ValueError):
            pt.flow_norm(aux, bad)


class TestTranslationLumping:
    """Floor chains lumped by lattice translations solve exactly."""

    @pytest.mark.parametrize("K, L, q, count", [
        (3, 3, 2, 64), (3, 4, 2, 352), (3, 3, 3, 2211),
    ])
    def test_orbit_count_is_burnside(self, K, L, q, count):
        space = enumerate_space(Lattice2D(K, L, q, "periodic"))
        labels, m = pt._translation_orbits(space)
        assert m == count
        assert np.array_equal(np.unique(labels), np.arange(m))

    def test_open_floor_identity(self):
        space = enumerate_space(Lattice2D(2, 3, 2, "open"))
        labels, m = pt._translation_orbits(space)
        assert m == space.n_states
        assert np.array_equal(labels, np.arange(space.n_states))

    def test_energy_constant_on_orbits(self, space_2d_34):
        labels, m = pt._translation_orbits(space_2d_34)
        per_class = np.empty(m, dtype=space_2d_34.energies.dtype)
        per_class[labels] = space_2d_34.energies
        assert np.array_equal(per_class[labels], space_2d_34.energies)

    @pytest.mark.parametrize("beta", [2.0, 3.0])
    def test_lumped_solves_exact(self, space_2d_34, beta):
        labels, m = pt._translation_orbits(space_2d_34)
        g = space_2d_34.ground_states()
        chain = pt.chain_from_space(space_2d_34, beta)
        h = pt.equilibrium_potential(chain, [g[1]], [g[2]])
        per_class = np.empty(m)
        per_class[labels] = h
        assert np.max(np.abs(per_class[labels] - h)) < 1e-12
        # capacity and the capacity-route hitting time of the full chain
        cap = pt.dirichlet(chain, h)
        hit = float(np.sum(chain.mu * h) / cap)
        lumped = chain.lumped(labels, m)
        assert lumped.mu.sum() == pytest.approx(1.0, abs=1e-12)
        s, t = labels[g[1]], labels[g[2]]
        assert pt.capacity(lumped, [s], [t]) == pytest.approx(cap, rel=1e-10)
        assert pt.mean_hitting_exact(lumped, s, [t]) == pytest.approx(hit, rel=1e-10)


class TestConstants:
    def test_kappa2d_stand_in(self):
        spec2d = Lattice2D(3, 3, 2, "periodic")
        k2d, gamma2d = pt.kappa2d_stand_in(spec2d, beta_star=3.0)
        assert gamma2d == 8
        assert k2d > 0

    def test_bundle_structure(self):
        spec = LatticeSpec(3, 4, 8, 3, "periodic")
        bundle = pt.constants(spec)
        assert set(bundle.b) == {1, 2}
        # c(n) = b(n) + e(n) + e(q - n)
        for n in (1, 2):
            assert bundle.c[n] == pytest.approx(
                bundle.b[n] + bundle.e[n] + bundle.e[3 - n]
            )
        assert bundle.kappa == pytest.approx(2 * bundle.c[1])
        assert "bound-fallback" in bundle.provenance["e(1)"]
        assert bundle.provenance["kappa2d"].startswith("numerical-stand-in (translation-lumped")
        assert len(bundle.non_reproducible) == 3

    def test_bulk_denominator_cases(self):
        # window divisor: 2M (K<L<M and K=L<M), 4M (K<L=M), 6M (K=L=M)
        assert pt._bulk_denominator(3, 4, 5) == 10
        assert pt._bulk_denominator(3, 3, 5) == 10
        assert pt._bulk_denominator(3, 5, 5) == 20
        assert pt._bulk_denominator(5, 5, 5) == 30

    def test_e_fallback_value(self):
        spec = LatticeSpec(3, 4, 8, 2, "periodic")
        bundle = pt.constants(spec)
        assert bundle.e[1] == pytest.approx(3 ** (-1.0 / 3.0))


@pytest.fixture(scope="module")
def built(space_224_open):
    ts = typical_sets(space_224_open, A=(1,), B=(2,))
    ts_BA = typical_sets(space_224_open, A=(2,), B=(1,), gamma=ts.gamma)
    bundle = pt.constants(space_224_open.spec)
    h, info = pt.test_function(space_224_open, ts, ts_BA, bundle, beta=3.0)
    return ts, bundle, h, info


class TestTestFunction:
    def test_range_and_boundary(self, built, space_224_open):
        ts, bundle, h, info = built
        g = space_224_open.ground_states()
        assert (h >= 0).all() and (h <= 1).all()
        assert h[g[1]] == 1.0 and h[g[2]] == 0.0

    def test_dirichlet_principle(self, built, space_224_open):
        ts, bundle, h, info = built
        g = space_224_open.ground_states()
        diag = pt.h1_diagnostics(space_224_open, h, 3.0, [g[1]], [g[2]])
        assert diag["dirichlet_principle_holds"]
        assert diag["defect_rel_err"] < 1e-8

    def test_seam_constancy_modulo_pins(self, built, space_224_open):
        ts, bundle, h, info = built
        pinned = info["ground_A_mask"] | info["ground_B_mask"]
        spec = space_224_open.spec
        for i in range(ts.m_K, spec.M - ts.m_K + 1):
            codes = ts.R_hat[i]
            free = codes[~pinned[codes]]
            if len(free):
                vals = np.unique(np.round(h[free], 12))
                assert len(vals) == 1, f"window {i} not constant: {vals}"
