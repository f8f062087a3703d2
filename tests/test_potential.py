"""Potential theory: Dirichlet forms, capacities, gaps, aux chains, harmonic currents."""

import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from spinscape import potential as pt
from spinscape.canon import canonical_path
from spinscape.landscape import (comm_height, enumerate_space, neighborhood, typical_sets,
                                 valley_depths)
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

    @pytest.mark.parametrize("spec", [
        LatticeSpec(2, 2, 4, 2, "open"), LatticeSpec(2, 2, 2, 3, "open"),
        Lattice2D(3, 4, 2, "periodic"), Lattice2D(3, 3, 3, "periodic"),
    ], ids=["2x2x4-q2", "2x2x2-q3", "3x4-q2-periodic", "3x3-q3-periodic"])
    def test_edge_list_reference(self, spec):
        # every move to a higher index, once, in move-table order, with
        # conductance exp(-beta max(E)) / Z: byte for byte
        space, beta = enumerate_space(spec), 3.0
        E = space.energies.astype(np.float64)
        w = np.exp(-beta * E)
        Z = w.sum()
        mt = space.move_table()
        src = np.repeat(np.arange(space.n_states, dtype=np.int32), mt.shape[1])
        up = mt.ravel() > src
        src, dst = src[up], mt.ravel()[up]
        want = (src, dst, np.exp(-beta * np.maximum(E[src], E[dst])) / Z, w / Z)
        ch = pt.chain_from_space(space, beta)
        for got, ref in zip((ch.src, ch.dst, ch.cond, ch.mu), want):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


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
        h = pt.equilibrium_potential(pt.chain_from_space(space_223_open, 2.0), [g[1]], [g[2]])
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
            m1 = pt.mean_hitting_exact(pt.chain_from_space(space_223_open, beta),
                                       g[1], [g[2]], "capacity")
            m2 = pt.mean_hitting_exact(pt.chain_from_space(space_223_open, beta),
                                       g[1], [g[2]], "direct")
            assert abs(m1 - m2) / m1 < 1e-8

    def test_exponential_scaling(self, space_223_open):
        # log E[tau] grows like beta * Gamma with Gamma = 6 (brute barrier)
        g = space_223_open.ground_states()
        m3 = pt.mean_hitting_exact(pt.chain_from_space(space_223_open, 3.0), g[1], [g[2]])
        m4 = pt.mean_hitting_exact(pt.chain_from_space(space_223_open, 4.0), g[1], [g[2]])
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
            pt.mean_hitting_exact(pt.chain_from_space(space_222_open, 40.0), g[1], [g[2]], "direct")

    def test_underflowed_conductances(self, space_222_open):
        # beta * E_max = 840 > 745: the top states' conductances are all 0.0
        g = space_222_open.ground_states()
        with pytest.raises(RuntimeError, match="2 of 254 free states have zero total"):
            pt.capacity(pt.chain_from_space(space_222_open, 70.0), [g[1]], [g[2]])

    def test_direct_route_cg_nonconvergence(self, space_223_open):
        # the 4,095-unknown direct system at beta=12 does not converge within
        # the cap of one CG iteration per unknown
        g = space_223_open.ground_states()
        with pytest.raises(RuntimeError,
                           match="conjugate gradients did not converge on 4095 unknowns"):
            pt.mean_hitting_exact(pt.chain_from_space(space_223_open, 12.0), g[1], [g[2]], "direct")

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 7: the direct route's dense factorization succeeds at "
        "beta=20 but returns 1.207e43 against the capacity route's 3.360e42"))
    def test_direct_route_agrees_at_beta20(self, space_222_open):
        g = space_222_open.ground_states()
        m_cap = pt.mean_hitting_exact(pt.chain_from_space(space_222_open, 20.0),
                                      g[1], [g[2]], "capacity")
        m_dir = pt.mean_hitting_exact(pt.chain_from_space(space_222_open, 20.0),
                                      g[1], [g[2]], "direct")
        assert abs(m_dir - m_cap) / m_cap < 1e-6


#: Every entry point of the potential layer that takes state indices, with
#: ``bad`` given as one of its index arguments and a ground state as the other
_INDEX_ENTRIES = {
    "equilibrium_potential-P": lambda sp_, ch, g, bad: pt.equilibrium_potential(ch, bad, [g[2]]),
    "equilibrium_potential-Q": lambda sp_, ch, g, bad: pt.equilibrium_potential(ch, [g[1]], bad),
    "capacity-P": lambda sp_, ch, g, bad: pt.capacity(ch, bad, [g[2]]),
    "capacity-Q": lambda sp_, ch, g, bad: pt.capacity(ch, [g[1]], bad),
    "potential_classes-P": lambda sp_, ch, g, bad: pt.potential_classes(ch, bad, [g[2]]),
    "potential_classes-Q": lambda sp_, ch, g, bad: pt.potential_classes(ch, [g[1]], bad),
    "mean_hitting_exact-s": lambda sp_, ch, g, bad: pt.mean_hitting_exact(ch, bad[0], [g[2]]),
    "mean_hitting_exact-s-direct":
        lambda sp_, ch, g, bad: pt.mean_hitting_exact(ch, bad[0], [g[2]], "direct"),
    "mean_hitting_exact-target": lambda sp_, ch, g, bad: pt.mean_hitting_exact(ch, g[1], bad),
    "mean_hitting_exact-target-direct":
        lambda sp_, ch, g, bad: pt.mean_hitting_exact(ch, g[1], bad, "direct"),
    "h1_diagnostics-P":
        lambda sp_, ch, g, bad: pt.h1_diagnostics(sp_, np.zeros(ch.n), 3.0, bad, [g[2]]),
    "h1_diagnostics-Q":
        lambda sp_, ch, g, bad: pt.h1_diagnostics(sp_, np.zeros(ch.n), 3.0, [g[1]], bad),
}


class TestIndexRefusals:
    """Source, target and boundary indices are refused with ``ValueError``
    unless they are integer indices of the chain's nodes, as the landscape
    layer refuses them, instead of being wrapped, cast or truncated."""

    @pytest.fixture(scope="class")
    def space_chain_222(self):
        space = enumerate_space(LatticeSpec(2, 2, 2, 2, "open"))
        return space, pt.chain_from_space(space, 3.0)

    def _refused(self, space_chain_222, entry, bad, match):
        space, chain = space_chain_222
        with pytest.raises(ValueError, match=match):
            _INDEX_ENTRIES[entry](space, chain, space.ground_states(), bad)

    @pytest.mark.parametrize("entry", _INDEX_ENTRIES)
    def test_negative_index(self, space_chain_222, entry):
        # at -1 numpy would wrap to the last state: capacity(chain, [-1], [0])
        # would be capacity(chain, [255], [0])
        self._refused(space_chain_222, entry, [-1], r"index -1 outside \[0, 256\)")

    @pytest.mark.parametrize("entry", _INDEX_ENTRIES)
    def test_boolean_index(self, space_chain_222, entry):
        # True would be read as state 1
        self._refused(space_chain_222, entry, [True], "must be integers, got dtype bool")

    @pytest.mark.parametrize("bad", [[0.9], [3.2]])
    @pytest.mark.parametrize("entry", _INDEX_ENTRIES)
    def test_float_index_on_the_state_path(self, space_chain_222, entry, bad):
        # 0.9 and 3.2 would truncate to the states 0 and 3; {3} is no union
        # of orbits, so capacity(chain, [0.9], [3.2]) would solve on the states
        self._refused(space_chain_222, entry, bad, "must be integers, got dtype float64")

    @pytest.mark.parametrize("entry", _INDEX_ENTRIES)
    def test_index_past_the_end(self, space_chain_222, entry):
        # a raw IndexError before
        self._refused(space_chain_222, entry, [256], r"index 256 outside \[0, 256\)")


def _reduced_system(chain, ones, zeros, rhs_extra=None):
    """The Dirichlet problem's reduced Laplacian (sparse) and right-hand side,
    assembled from the edge list, with the free states' indices.  Each sum
    runs over the edges in the solver's order, so both build the same
    system to the last bit and a backward error measures the solve alone."""
    free = np.ones(chain.n, dtype=bool)
    free[np.r_[ones, zeros].astype(np.int64)] = False
    f = np.zeros(chain.n)
    f[np.asarray(ones, dtype=np.int64)] = 1.0
    idx = np.flatnonzero(free)
    m = len(idx)
    pos = np.full(chain.n, -1)
    pos[idx] = np.arange(m)
    s, d, c = chain.src, chain.dst, chain.cond
    ends = np.r_[s, d]
    deg = np.bincount(ends, np.r_[c, c], chain.n)
    both = free[s] & free[d]
    rows = np.r_[pos[s[both]], pos[d[both]], np.arange(m)]
    cols = np.r_[pos[d[both]], pos[s[both]], np.arange(m)]
    A = sp.csr_matrix((np.r_[-c[both], -c[both], deg[idx]], (rows, cols)), shape=(m, m))
    b = np.bincount(ends, np.r_[c * f[d], c * f[s]], chain.n)[idx]
    if rhs_extra is not None:
        b = b + rhs_extra[idx]
    return A, b, idx


def _dense_oracle(A, b):
    """Dense Cholesky solve plus one round of refinement on an
    extended-precision residual; unrefined, the beta=4 direct solution is
    off by 8e-11 relative."""
    factor = sla.cho_factor(A.toarray())
    x = sla.cho_solve(factor, b)
    r = b - A.astype(np.longdouble) @ x.astype(np.longdouble)
    return x + sla.cho_solve(factor, np.asarray(r, dtype=np.float64))


class TestReducedSystem:
    """The solver builds only the reduced system, in CSR with int32 indices."""

    def test_laplacian_matches_the_edge_list(self, space_223_open):
        chain = pt.chain_from_space(space_223_open, 3.0)
        g = space_223_open.ground_states()
        free = np.ones(chain.n, dtype=bool)
        free[[g[1], g[2]]] = False
        A = chain._laplacian_on(free)
        want, _, _ = _reduced_system(chain, [g[1]], [g[2]])
        assert A.format == "csr" and A.indices.dtype == np.int32
        assert A.has_canonical_format
        want.sum_duplicates()
        assert np.array_equal(A.indptr, want.indptr)
        assert np.array_equal(A.indices, want.indices)
        assert A.data.tobytes() == want.data.tobytes()

    def test_laplacian_independent_of_edge_order(self, space_2d_33):
        # edges reversed and shuffled: the flipped ends and the regrouping
        # by lower end give the same matrix as the edges in space order
        chain = pt.chain_from_space(space_2d_33, 2.0)
        order = np.random.default_rng(3).permutation(len(chain.src))
        shuffled = pt.WeightedChain(chain.n, chain.dst[order], chain.src[order],
                                    chain.cond[order], chain.mu)
        keep = np.ones(chain.n, dtype=bool)
        keep[::7] = False
        A, B = chain._laplacian_on(keep), shuffled._laplacian_on(keep)
        assert np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
        assert np.allclose(A.data, B.data, rtol=1e-15, atol=0)

    def test_capacity_solve_traced_peak_per_unknown(self, space_224_open):
        # the matrix, its Jacobi-scaled copy and one block of the
        # extended-precision residual: about 455 B per unknown, against 985 B
        # with a COO assembly, a full right-hand-side transient and a
        # longdouble copy of the matrix
        chain = pt.chain_from_space(space_224_open, 3.0)
        g = space_224_open.ground_states()
        tracemalloc.start()
        try:
            pt.capacity(chain, [g[1]], [g[2]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 600 * (chain.n - 2)

    def test_direct_solve_traced_peak_per_unknown(self, space_224_open):
        # a direct-route solve on a two-coloured chain: the coupling between
        # the classes is the only matrix, so the traced peak is about 255 B
        # per unknown (while assembling it), against 456 B with the
        # Laplacian and its Jacobi-scaled copy
        chain = pt.chain_from_space(space_224_open, 3.0)
        g = space_224_open.ground_states()
        tracemalloc.start()
        try:
            pt.mean_hitting_exact(chain, g[1], [g[2]], "direct")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 320 * (chain.n - 1)


class TestConjugateGradientBranch:
    """Systems above 255 unknowns are solved by conjugate gradients."""

    @pytest.mark.parametrize("beta", [2.0, 3.0, 4.0])
    def test_dense_oracle_223(self, space_223_open, beta):
        chain = pt.chain_from_space(space_223_open, beta)
        g = space_223_open.ground_states()
        A, b, idx = _reduced_system(chain, [g[1]], [g[2]])
        h_or = np.zeros(chain.n)
        h_or[g[1]] = 1.0
        h_or[idx] = _dense_oracle(A, b)
        h = pt.equilibrium_potential(chain, [g[1]], [g[2]])
        assert np.max(np.abs(h - h_or)) <= 1e-12
        cap_or = np.sum(chain.cond * (h_or[chain.dst] - h_or[chain.src]) ** 2)
        assert pt.capacity(chain, [g[1]], [g[2]]) == pytest.approx(cap_or, rel=1e-10, abs=0)

        A, b, idx = _reduced_system(chain, [], [g[2]], rhs_extra=chain.mu)
        u_or = np.zeros(chain.n)
        u_or[idx] = _dense_oracle(A, b)
        m_dir = pt.mean_hitting_exact(chain, g[1], [g[2]], method="direct")
        assert m_dir == pytest.approx(u_or[g[1]], rel=1e-10, abs=0)

    def test_q3_symmetric_ground_state(self):
        # by the 1<->2 spin symmetry the third ground state has h = 1/2 exactly
        space = enumerate_space(LatticeSpec(2, 2, 2, 3, "open"))
        g = space.ground_states()
        h = pt.equilibrium_potential(pt.chain_from_space(space, 4.0), [g[1]], [g[2]])
        assert abs(h[g[3]] - 0.5) <= 1e-9

    @pytest.mark.parametrize("beta", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("name", ["space_223_open", "space_224_open"])
    def test_componentwise_backward_error(self, request, name, beta):
        space = request.getfixturevalue(name)
        chain = pt.chain_from_space(space, beta)
        g = space.ground_states()
        for ones, zeros, extra in (([g[1]], [g[2]], None), ([], [g[2]], chain.mu)):
            x = pt._solve_dirichlet_problem(chain, ones, zeros, extra)
            A, b, idx = _reduced_system(chain, ones, zeros, extra)
            A_ld, x_ld, b_ld = (v.astype(np.longdouble) for v in (A, x[idx], b))
            err = np.abs(b_ld - A_ld @ x_ld) / (abs(A_ld) @ np.abs(x_ld) + np.abs(b_ld))
            assert np.max(err) <= 2e-16


def _backward_error(chain, ones, zeros, extra=None):
    """The largest componentwise backward error of the solver's answer to
    the Dirichlet problem, against the system of ``_reduced_system``."""
    return _backward_error_of(pt._solve_dirichlet_problem(chain, ones, zeros, extra),
                              chain, ones, zeros, extra)


def _backward_error_of(x, chain, ones, zeros, extra=None):
    """:func:`_backward_error` of the answer ``x``, given on every state."""
    A, b, idx = _reduced_system(chain, ones, zeros, extra)
    A_ld, x_ld, b_ld = (v.astype(np.longdouble) for v in (A, x[idx], b))
    return np.max(np.abs(b_ld - A_ld @ x_ld) / (abs(A_ld) @ np.abs(x_ld) + np.abs(b_ld)))


class TestColouring:
    """A chain's two-colouring, which lets the solver eliminate one class,
    is recorded from its space: the parity of the spin-2 count at q=2, on
    states and on symmetry quotients, and none at q >= 3, where none
    exists.  A solve refuses a colouring that an edge violates."""

    @pytest.mark.parametrize("spec, group, count", [
        (LatticeSpec(2, 2, 3, 2, "open"), "states", 4096),
        (LatticeSpec(2, 2, 3, 2, "open"), "symmetry", 378),
        (LatticeSpec(2, 2, 4, 2, "open"), "states", 65536),
        (LatticeSpec(2, 2, 4, 2, "open"), "symmetry", 4756),
        (Lattice2D(3, 4, 2, "periodic"), "translation", 352),
    ], ids=["223-states", "223-symmetry", "224-states", "224-symmetry", "3x4-translation"])
    def test_q2_spin_parity(self, spec, group, count):
        space = enumerate_space(spec)
        if group == "states":
            labels, nodes = np.arange(space.n_states), space
        elif group == "symmetry":
            labels, nodes = space.symmetry_quotient()
        else:
            labels, m = space.orbits(space.spec.unit_translations())
            nodes = space.quotient(labels, m)
        chain = pt.chain_from_space(nodes, 3.0)
        assert chain.n == count
        parity = space.spins_matrix.sum(axis=1) % 2 == 1
        per_node = np.empty(chain.n, dtype=bool)
        per_node[labels] = parity
        assert np.array_equal(per_node[labels], parity)  # a class keeps its parity
        colour = chain.colouring
        assert colour is not None and colour.dtype == bool
        assert np.array_equal(colour, per_node) or np.array_equal(colour, ~per_node)
        assert not np.any(colour[chain.src] == colour[chain.dst])  # every edge joins two colours

    @pytest.mark.parametrize("which", ["222q3-states", "222q3-symmetry", "3x4q3-translation",
                                       "224-aux"])
    def test_none_with_odd_cycles(self, which, space_224_open):
        if which == "224-aux":
            _, chain = pt.build_aux_chain(typical_sets(space_224_open, A=(1,), B=(2,)))
        elif which == "3x4q3-translation":
            space = enumerate_space(Lattice2D(3, 4, 3, "periodic"))
            chain = pt.chain_from_space(space.quotient(*space.orbits(space.spec.unit_translations())),
                                        4.0)
            assert chain.n == 44368
        else:
            chain = pt.chain_from_space(enumerate_space(LatticeSpec(2, 2, 2, 3, "open")), 3.0)
            if which == "222q3-symmetry":
                chain = chain.symmetry_lumping[1]
                assert chain.n == 267
        assert chain.colouring is None

    @pytest.mark.parametrize("which", ["222q3-states", "222q3-symmetry", "3x3q3-translation"])
    def test_q3_builder_records_none(self, which):
        # the recolourings of site 0 (the least digit) of the ground state
        # to its three values lie in three nodes that are pairwise adjacent,
        # a triangle, so no 2-colouring exists and none is recorded
        if which == "3x3q3-translation":
            space = enumerate_space(Lattice2D(3, 3, 3, "periodic"))
            labels, m = space.orbits(space.spec.unit_translations())
            nodes = space.quotient(labels, m)
        elif which == "222q3-symmetry":
            space = enumerate_space(LatticeSpec(2, 2, 2, 3, "open"))
            labels, nodes = space.symmetry_quotient()
        else:
            space = enumerate_space(LatticeSpec(2, 2, 2, 3, "open"))
            labels, nodes = np.arange(space.n_states), space
        chain = pt.chain_from_space(nodes, 3.0)
        triangle = labels[[0, 1, 2]]
        assert len(np.unique(triangle)) == 3
        edges = set(zip(chain.src.tolist(), chain.dst.tolist()))
        for a, b in itertools.combinations(triangle.tolist(), 2):
            assert (min(a, b), max(a, b)) in edges
        assert nodes.colouring() is None and chain.colouring is None

    def test_same_colour_edge_solves_the_whole_system(self, space_223_open):
        # a chain re-wrapped with one added edge between two states of one
        # spin-2 parity is given no colouring, so the 4,094 unknowns are
        # solved by the whole-system conjugate gradients, which must still
        # match the dense oracle
        chain = pt.chain_from_space(space_223_open, 3.0)
        g = space_223_open.ground_states()
        a, b = 1, 2  # one spin 2 each
        raw = pt.WeightedChain(chain.n, np.r_[chain.src, a], np.r_[chain.dst, b],
                               np.r_[chain.cond, chain.cond[0]], chain.mu)
        assert chain.colouring is not None and raw.colouring is None
        A, rhs, idx = _reduced_system(raw, [g[1]], [g[2]])
        h_or = np.zeros(raw.n)
        h_or[g[1]] = 1.0
        h_or[idx] = _dense_oracle(A, rhs)
        h = pt.equilibrium_potential(raw, [g[1]], [g[2]])
        assert np.max(np.abs(h - h_or)) <= 1e-12
        cap_or = np.sum(raw.cond * (h_or[raw.dst] - h_or[raw.src]) ** 2)
        assert pt.capacity(raw, [g[1]], [g[2]]) == pytest.approx(cap_or, rel=1e-12, abs=0)

    def test_violated_colouring_is_refused_before_any_solve(self, space_223_open, monkeypatch):
        # one state's colour flipped: both solves on the states raise before
        # conjugate gradients run, where they would return a wrong answer;
        # the ground-state capacity solves on the quotient's own colouring
        g = space_223_open.ground_states()
        s = int(np.flatnonzero(space_223_open.energies == 10)[0])
        want = pt.capacity(pt.chain_from_space(space_223_open, 3.0), [g[1]], [g[2]])
        chain = pt.chain_from_space(space_223_open, 3.0)
        chain.colouring = chain.colouring.copy()
        chain.colouring[1] = not chain.colouring[1]  # state 1 is free in every problem here
        calls, cg = [], pt.spla.cg
        monkeypatch.setattr(pt.spla, "cg", lambda *a, **kw: calls.append(a) or cg(*a, **kw))
        with pytest.raises(ValueError, match="colouring"):
            pt.mean_hitting_exact(chain, g[1], [g[2]], "direct")
        assert pt.potential_classes(chain, [s], [g[2]]) == chain.n
        with pytest.raises(ValueError, match="colouring"):
            pt.equilibrium_potential(chain, [s], [g[2]])
        assert not calls
        assert pt.capacity(chain, [g[1]], [g[2]]) == want
        assert calls  # by conjugate gradients on the 378 classes


class TestRefinementStop:
    """Refinement stops once the residual meets the componentwise bound
    2^-53 (|A||x| + |b|), or after three rounds; the backward error ends
    below 2e-16 on both solver branches and on a quotient's chain."""

    @pytest.mark.parametrize("beta", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("spec", [
        LatticeSpec(2, 2, 2, 3, "open"), LatticeSpec(2, 2, 2, 2, "open"),
        Lattice2D(3, 3, 3, "periodic"),
    ], ids=["2x2x2-q3-cg", "2x2x2-q2-dense", "3x3-q3-orbits"])
    def test_componentwise_backward_error(self, spec, beta):
        space = enumerate_space(spec)
        g = space.ground_states()
        if isinstance(spec, Lattice2D):
            labels, m = space.orbits(space.spec.unit_translations())
            chain = pt.chain_from_space(space.quotient(labels, m), beta)
            s, t = labels[g[1]], labels[g[2]]
        else:
            chain, s, t = pt.chain_from_space(space, beta), g[1], g[2]
        for ones, zeros, extra in (([s], [t], None), ([], [t], chain.mu)):
            x = pt._solve_dirichlet_problem(chain, ones, zeros, extra)
            A, b, idx = _reduced_system(chain, ones, zeros, extra)
            A_ld, x_ld, b_ld = (v.astype(np.longdouble) for v in (A, x[idx], b))
            err = np.abs(b_ld - A_ld @ x_ld) / (abs(A_ld) @ np.abs(x_ld) + np.abs(b_ld))
            assert np.max(err) <= 2e-16


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
            m = pt.mean_hitting_exact(pt.chain_from_space(space_223_open, beta), g[1], [g[2]])
            assert 0.1 < lam * m < 10.0

    def test_state_limit(self):
        space = enumerate_space(LatticeSpec(2, 2, 3, 2, "open"))
        space.energies = np.zeros(2**17, dtype=np.int32)  # fake oversize
        with pytest.raises(ValueError):
            pt.spectral_gap(space, 1.0)

    def test_variational_gap_on_262144_states(self, space_233_open):
        # no state limit: the variational gap solves on the symmetry
        # quotient, and lambda * E_g1[tau_g2] -> 2 for two ground states
        g = space_233_open.ground_states()
        lam = pt.spectral_gap(space_233_open, 4.0, method="variational")
        m = pt.mean_hitting_exact(pt.chain_from_space(space_233_open, 4.0), g[1], [g[2]])
        assert abs(lam * m - 2.0) < 1e-6

    def test_dense_traced_peak_is_one_square_array(self):
        # the Laplacian is scaled in place: the traced peak is 1.17 n x n
        # float64 arrays (the eigensolver's working copy is LAPACK's, not
        # traced), where scaling into new arrays reached 3.17
        space = enumerate_space(LatticeSpec(2, 2, 2, 2, "open"))
        n = space.n_states
        tracemalloc.start()
        try:
            gap = pt.spectral_gap(space, 1.0, method="dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap > 0
        assert peak < 2 * 8 * n ** 2

    @pytest.mark.parametrize("beta, method", [(0.5, "auto"), (3.0, "dense")])
    def test_dense_refused_over_one_gib(self, space_224_open, beta, method):
        # three 65,536^2 float64 arrays would take 34 GB each; the refusal
        # comes before the chain is built (auto picks dense at beta = 0.5)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="bytes"):
                pt.spectral_gap(space_224_open, beta, method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestAuxChain:
    @pytest.fixture(scope="class", params=["224", "233", "222q3"])
    def aux_ts(self, request, space_224_open, space_233_open):
        """The typical sets of 2x2x4 open, 2x3x3 open (1,354 vertices) and
        2x2x2 open q=3 (237 vertices)."""
        if request.param == "224":
            return typical_sets(space_224_open, A=(1,), B=(2,))
        if request.param == "233":
            return typical_sets(space_233_open, A=(1,), B=(2,))
        return typical_sets(enumerate_space(LatticeSpec(2, 2, 2, 3, "open")), A=(1,), B=(2, 3))

    def test_uniform_reversibility(self, space_224_open):
        ts = typical_sets(space_224_open, A=(1,), B=(2,))
        labels, chain = pt.build_aux_chain(ts)
        assert chain.n == int(ts.O_A.sum()) + len(ts.Ibar_A)
        assert (np.rint(chain.cond * chain.n) >= 1).all()
        assert np.all(chain.mu == 1.0 / chain.n)

    def test_rate_counts(self, aux_ts):
        # every rate recomputed from the move table: 1 between adjacent
        # at-ceiling ("O") states, and between an O state and a class the
        # number of the class's members adjacent to it; each vertex pair is
        # one edge, and each O state's rates add up to its moves into the chain
        ts = aux_ts
        space = ts.space
        labels, chain = pt.build_aux_chain(ts)
        n_O = int(ts.O_A.sum())
        vertex_state = np.r_[np.flatnonzero(ts.O_A), ts.Ibar_A]
        rates = np.rint(chain.cond * chain.n).astype(np.int64)
        mt = space.move_table()
        vertex = np.full(space.n_states, -1)
        vertex[vertex_state] = np.arange(chain.n)
        for s, rep in ts.class_rep_A.items():
            vertex[s] = vertex[rep]
        assert np.array_equal(labels, vertex)
        pairs = np.sort(np.c_[chain.src, chain.dst], axis=1)
        assert len(np.unique(pairs, axis=0)) == len(pairs)
        total = np.zeros(chain.n, dtype=np.int64)
        for i, j, r in zip(chain.src, chain.dst, rates):
            if i >= n_O:
                i, j = j, i
            assert i < n_O
            near = vertex[mt[vertex_state[i]]]
            assert r == (1 if j < n_O else np.count_nonzero(near == j))
            assert j in near
            total[[i, j]] += r
        for v in range(chain.n):
            if v < n_O:
                assert total[v] == np.count_nonzero(vertex[mt[vertex_state[v]]] >= 0)

    def test_degenerate_window_raises(self, space_224_open):
        ts = typical_sets(space_224_open, A=(1,), B=(2,))
        with pytest.raises(ValueError, match="degenerate"):
            pt.e_constant(ts)

    @pytest.mark.parametrize("A, B", [((1,), (2, 3)), ((2, 3), (1,))])
    def test_e_constant_on_a_window(self, A, B):
        # 2x2x2 open q=3 has a window apart from the ground classes, both ways
        ts = typical_sets(enumerate_space(LatticeSpec(2, 2, 2, 3, "open")), A=A, B=B)
        assert pt.e_constant(ts) == pytest.approx(1 / 32, rel=1e-12)


def _harmonic_current(space, beta):
    """The harmonic unit current from g1 to the other ground states: its
    net outflow at every state, the capacity, and the conductances of the
    canonical path from g1 to g2 (0 on a step that is no edge of the
    chain)."""
    g = space.ground_states()
    P, Q = [g[1]], [g[a] for a in g if a != 1]
    chain = pt.chain_from_space(space, beta)
    h = pt.equilibrium_potential(chain, P, Q)
    J = pt.unit_current(chain, h)
    interior = np.ones(chain.n, dtype=bool)
    interior[P] = interior[Q] = False
    path = [space.index_of(c) for c in canonical_path(space.spec, 1, 2).configs()]
    C = sp.csr_matrix((chain.cond, (chain.src, chain.dst)), shape=(chain.n, chain.n))
    return {
        "P": P, "Q": Q, "interior": interior,
        "net": chain._onto_ends(J, -J),
        "cap": pt.dirichlet(chain, h),
        "c_path": np.asarray((C + C.T)[path[:-1], path[1:]]).ravel(),
    }


@pytest.fixture(scope="module", params=[
    ((2, 2, 4, 2), 3.0), ((2, 2, 3, 2), 2.0), ((2, 2, 3, 2), 3.0),
    ((2, 2, 2, 3), 3.0), ((2, 2, 2, 3), 4.0),
], ids=["224-beta3", "223-beta2", "223-beta3", "222q3-beta3", "222q3-beta4"])
def current(request):
    dims, beta = request.param
    return _harmonic_current(enumerate_space(LatticeSpec(*dims, "open")), beta)


class TestFlows:
    """Unit-flow checks on the harmonic current of real Metropolis chains."""

    def test_unit_current_conserved(self, current):
        net = current["net"]
        assert abs(net[current["P"]].sum() - 1.0) <= 1e-9
        assert abs(net[current["Q"]].sum() + 1.0) <= 1e-9
        assert np.max(np.abs(net[current["interior"]])) <= 1e-9

    def test_thomson_path_bound(self, current):
        # the canonical path carries a unit flow from g1 to g2 whose energy
        # is its resistance sum 1/c_e, so Thomson's principle gives
        # 1/R_path <= Cap
        c_path = current["c_path"]
        assert (c_path > 0).all()
        assert 1.0 / np.sum(1.0 / c_path) <= current["cap"]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 2: near P the componentwise stopping test accepts "
        "residuals that are large at the capacity scale; the net outflow "
        "from g1 is 1 + 3.7e-3 at beta=10"))
    def test_unit_current_conserved_at_beta10(self, space_224_open):
        run = _harmonic_current(space_224_open, 10.0)
        assert abs(run["net"][run["P"]].sum() - 1.0) <= 1e-6


class TestTranslationLumping:
    """Floor chains lumped by lattice translations solve exactly."""

    @pytest.mark.parametrize("K, L, q, count", [
        (3, 3, 2, 64), (3, 4, 2, 352), (3, 3, 3, 2211),
    ])
    def test_orbit_count_is_burnside(self, K, L, q, count):
        space = enumerate_space(Lattice2D(K, L, q, "periodic"))
        labels, m = space.orbits(space.spec.unit_translations())
        assert m == count
        assert np.array_equal(np.unique(labels), np.arange(m))

    def test_open_floor_identity(self):
        space = enumerate_space(Lattice2D(2, 3, 2, "open"))
        labels, m = space.orbits(space.spec.unit_translations())
        assert m == space.n_states
        assert np.array_equal(labels, np.arange(space.n_states))

    def test_energy_constant_on_orbits(self, space_2d_34):
        labels, m = space_2d_34.orbits(space_2d_34.spec.unit_translations())
        per_class = np.empty(m, dtype=space_2d_34.energies.dtype)
        per_class[labels] = space_2d_34.energies
        assert np.array_equal(per_class[labels], space_2d_34.energies)

    @pytest.mark.parametrize("beta", [2.0, 3.0])
    def test_lumped_solves_exact(self, space_2d_34, beta):
        labels, m = space_2d_34.orbits(space_2d_34.spec.unit_translations())
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

    def test_labels_constant_along_every_translation(self, space_2d_34):
        labels, _ = space_2d_34.orbits(space_2d_34.spec.unit_translations())
        K, L, q = 3, 4, 2
        site = np.arange(K * L)
        k, l = site % K, site // K
        for dk, dl in np.ndindex(K, L):
            perm = (k + dk) % K + K * ((l + dl) % L)
            shifted = space_2d_34.spins_matrix @ q ** perm.astype(np.int64)
            assert np.array_equal(labels[shifted], labels)

    @pytest.mark.parametrize("beta", [2.0, 4.0])
    @pytest.mark.parametrize("K, L, q", [(3, 3, 3), (3, 4, 2)])
    def test_orbit_chain_is_the_lumped_chain(self, K, L, q, beta):
        space = enumerate_space(Lattice2D(K, L, q, "periodic"))
        labels, m = space.orbits(space.spec.unit_translations())
        got = pt.chain_from_space(space.quotient(labels, m), beta)
        want = pt.chain_from_space(space, beta).lumped(labels, m)
        G, W = (sp.csr_matrix((c.cond, (c.src, c.dst)), shape=(m, m)) for c in (got, want))
        G.sum_duplicates()
        W.sum_duplicates()
        assert np.array_equal(G.indptr, W.indptr) and np.array_equal(G.indices, W.indices)
        assert np.all(np.abs(G.data - W.data) <= 1e-14 * W.data)
        assert np.all(np.abs(got.mu - want.mu) <= 1e-14 * want.mu)

    def test_orbit_chain_on_open_floor_is_the_full_chain(self):
        space = enumerate_space(Lattice2D(3, 3, 2, "open"))
        labels, m = space.orbits(space.spec.unit_translations())
        got = pt.chain_from_space(space.quotient(labels, m), 3.0)
        want = pt.chain_from_space(space, 3.0)
        order = np.lexsort((want.dst, want.src))
        assert got.n == want.n
        assert np.array_equal(got.src, want.src[order])
        assert np.array_equal(got.dst, want.dst[order])
        assert np.all(np.abs(got.cond - want.cond[order]) <= 1e-14 * want.cond[order])
        assert np.all(np.abs(got.mu - want.mu) <= 1e-14 * want.mu)


class TestQuotient:
    def test_identity_quotient_is_the_space(self, space_223_open):
        space = space_223_open
        n = space.n_states
        quo = space.quotient(np.arange(n, dtype=np.int32), n)
        g = space.ground_states()
        assert quo.ground_states() == g
        assert comm_height(quo, g[1], g[2]) == comm_height(space, g[1], g[2])
        for ceiling in (3, 5):
            assert np.array_equal(neighborhood(quo, [g[1]], ceiling).mask,
                                  neighborhood(space, [g[1]], ceiling).mask)
        assert np.array_equal(valley_depths(quo), valley_depths(space))
        got, want = pt.chain_from_space(quo, 2.0), pt.chain_from_space(space, 2.0)
        for a, b in ((got.src, want.src), (got.dst, want.dst), (got.cond, want.cond),
                     (got.mu, want.mu)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_quotient_outlives_its_space(self):
        # the floor space is freed once only its quotient is kept, which the
        # kappa2d memory bounds rest on
        space = enumerate_space(Lattice2D(3, 3, 2, "periodic"))
        floor = space.quotient(*space.orbits(space.spec.unit_translations()))
        alive = weakref.ref(space)
        del space
        assert alive() is None
        g = floor.ground_states()
        assert comm_height(floor, g[1], g[2]) == 8
        assert pt.chain_from_space(floor, 2.0).mu.sum() == pytest.approx(1.0, abs=1e-12)


def _burnside(shape, q):
    """Orbits of q-colourings of a box's sites (``shape`` slowest axis
    first) under its axis permutations between equal extents and its
    reflections: the mean over the group of ``q ** cycles``."""
    idx = np.arange(math.prod(shape)).reshape(shape)
    total, order = 0, 0
    for axes in itertools.permutations(range(len(shape))):
        if any(shape[a] != e for a, e in zip(axes, shape)):
            continue
        for flips in itertools.product((False, True), repeat=len(shape)):
            perm = idx.transpose(axes)
            perm = np.flip(perm, [a for a, f in enumerate(flips) if f]).ravel()
            seen, cycles = np.zeros(len(perm), dtype=bool), 0
            for start in range(len(perm)):
                cycles += not seen[start]
                while not seen[start]:
                    seen[start], start = True, perm[start]
            total, order = total + q ** cycles, order + 1
    return total // order


def _one_state_solve(chain, s, t):
    """Capacity and capacity-route hitting time from one state solve on a
    re-wrapped copy of ``chain``, which has no symmetry lumping."""
    raw = pt.WeightedChain(chain.n, chain.src, chain.dst, chain.cond, chain.mu)
    assert raw.symmetry_lumping is None
    h = pt.equilibrium_potential(raw, [s], [t])
    cap = pt.dirichlet(raw, h)
    return cap, float(np.sum(raw.mu * h) / cap)


@pytest.fixture(scope="module")
def space_233_open():
    return enumerate_space(LatticeSpec(2, 3, 3, 2, "open"))


class TestSymmetryLumping:
    """Potentials between unions of lattice-symmetry orbits are solved on
    the orbits of axis permutations, reflections and translations."""

    @pytest.mark.parametrize("dims, q, count", [
        ((2, 2, 2), 2, 22), ((2, 2, 3), 2, 378), ((2, 2, 4), 2, 4756),
        ((2, 3, 3), 2, 17676), ((2, 2, 2), 3, 267),
    ])
    def test_orbit_count_is_burnside(self, dims, q, count):
        assert _burnside(dims[::-1], q) == count
        space = enumerate_space(LatticeSpec(*dims, q, "open"))
        labels, quotient = space.symmetry_quotient()
        assert quotient.n_states == count and labels.dtype == np.int32
        assert np.array_equal(np.unique(labels), np.arange(count))
        assert space.symmetry_quotient()[1] is quotient  # cached

    @pytest.mark.parametrize("spec, n_gens", [
        (LatticeSpec(2, 2, 4, 2, "open"), 4), (LatticeSpec(2, 2, 2, 3, "open"), 8),
        (Lattice2D(3, 3, 3, "periodic"), 5), (Lattice2D(3, 4, 2, "periodic"), 4),
    ], ids=["2x2x4-open", "2x2x2-q3-open", "3x3-q3-periodic", "3x4-periodic"])
    def test_labels_invariant_under_every_generator(self, spec, n_gens):
        # axis permutations between equal extents, one reflection per axis,
        # one unit translation per axis of a torus
        space = enumerate_space(spec)
        labels, _ = space.symmetry_quotient()
        gens = spec.symmetry_generators()
        assert len(gens) == n_gens
        for perm in gens:
            assert np.array_equal(labels[space.site_image(perm)], labels)

    @pytest.mark.parametrize("beta", [2.0, 3.0, 4.0])
    def test_lumped_agrees_with_states_224(self, space_224_open, beta):
        g = space_224_open.ground_states()
        chain = pt.chain_from_space(space_224_open, beta)
        assert pt.potential_classes(chain, [g[1]], [g[2]]) == 4756
        cap, hit = _one_state_solve(chain, g[1], g[2])
        assert pt.capacity(chain, [g[1]], [g[2]]) == pytest.approx(cap, rel=1e-12, abs=0)
        assert pt.mean_hitting_exact(chain, g[1], [g[2]]) == pytest.approx(hit, rel=1e-12, abs=0)

    def test_lumped_agrees_with_states_233(self, space_233_open):
        g = space_233_open.ground_states()
        chain = pt.chain_from_space(space_233_open, 3.0)
        assert pt.potential_classes(chain, [g[1]], [g[2]]) == 17676
        cap, hit = _one_state_solve(chain, g[1], g[2])
        assert pt.capacity(chain, [g[1]], [g[2]]) == pytest.approx(cap, rel=1e-12, abs=0)
        assert pt.mean_hitting_exact(chain, g[1], [g[2]]) == pytest.approx(hit, rel=1e-12, abs=0)

    def test_seeded_source_solved_on_states(self, space_223_open):
        # a single non-ground state is no union of orbits: the potential is
        # the state solve's, bit for bit, and the two routes still agree
        g = space_223_open.ground_states()
        s = int(np.flatnonzero(space_223_open.energies == 10)[0])
        chain = pt.chain_from_space(space_223_open, 3.0)
        assert pt.potential_classes(chain, [s], [g[2]]) == chain.n
        raw = pt.WeightedChain(chain.n, chain.src, chain.dst, chain.cond, chain.mu,
                               colouring=chain.colouring)
        h = pt.equilibrium_potential(chain, [s], [g[2]])
        assert h.tobytes() == pt.equilibrium_potential(raw, [s], [g[2]]).tobytes()
        m_cap = pt.mean_hitting_exact(chain, s, [g[2]], method="capacity")
        m_dir = pt.mean_hitting_exact(chain, s, [g[2]], method="direct")
        assert abs(m_cap - m_dir) / m_cap < 1e-8

    def test_seeded_source_solved_on_states_224(self, space_224_open):
        # the kind of source the benchmark seeds: one state at energy 10, no
        # union of orbits, so both routes solve 65,534-65,535 unknowns on the
        # two-coloured states
        g = space_224_open.ground_states()
        s = int(np.flatnonzero(space_224_open.energies == 10)[0])
        chain = pt.chain_from_space(space_224_open, 3.0)
        assert pt.potential_classes(chain, [s], [g[2]]) == chain.n
        assert chain.colouring is not None
        assert _backward_error(chain, [s], [g[2]]) <= 2e-16
        assert _backward_error(chain, [], [g[2]], chain.mu) <= 2e-16
        m_cap = pt.mean_hitting_exact(chain, s, [g[2]], method="capacity")
        m_dir = pt.mean_hitting_exact(chain, s, [g[2]], method="direct")
        assert abs(m_cap - m_dir) / m_cap < 1e-8

    @pytest.mark.parametrize("beta", [2.0, 3.0, 4.0])
    def test_componentwise_backward_error_on_the_quotient(self, space_224_open, beta):
        # the lumped chain's own reduced system, solved by conjugate
        # gradients, meets the bound of TestRefinementStop
        g = space_224_open.ground_states()
        labels, chain = pt.chain_from_space(space_224_open, beta).symmetry_lumping
        assert chain.n == 4756
        s, t = labels[g[1]], labels[g[2]]
        for ones, zeros, extra in (([s], [t], None), ([], [t], chain.mu)):
            x = pt._solve_dirichlet_problem(chain, ones, zeros, extra)
            A, b, idx = _reduced_system(chain, ones, zeros, extra)
            A_ld, x_ld, b_ld = (v.astype(np.longdouble) for v in (A, x[idx], b))
            err = np.abs(b_ld - A_ld @ x_ld) / (abs(A_ld) @ np.abs(x_ld) + np.abs(b_ld))
            assert np.max(err) <= 2e-16


def _state_ritz_gap(space, beta):
    """The variational gap's Ritz problem assembled on the states' chain:
    the same basis potentials, lifted to the states."""
    chain = pt.chain_from_space(space, beta)
    gs = sorted(space.ground_states().values())
    basis = [pt.equilibrium_potential(chain, [g], [x for x in gs if x != g]) for g in gs[1:]]
    means = [np.sum(chain.mu * f) for f in basis]
    A = np.array([[pt.dirichlet_bilinear(chain, f, k) for k in basis] for f in basis])
    B = np.array([[np.sum(chain.mu * f * k) - mf * mk for k, mk in zip(basis, means)]
                  for f, mf in zip(basis, means)])
    return sla.eigh(A, B, eigvals_only=True)[0]


class TestQuotientFirst:
    """Lumped problems are evaluated on the classes, and the direct route
    is solved and certified on the states from a lumped start."""

    @pytest.mark.parametrize("beta", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("name", ["space_223_open", "space_224_open"])
    def test_lumped_evaluation_equals_the_states(self, request, name, beta):
        space = request.getfixturevalue(name)
        g = space.ground_states()
        chain = pt.chain_from_space(space, beta)
        h = pt.equilibrium_potential(chain, [g[1]], [g[2]])
        cap = pt.dirichlet(chain, h)
        assert pt.capacity(chain, [g[1]], [g[2]]) == pytest.approx(cap, rel=1e-13, abs=0)
        assert pt.mean_hitting_exact(chain, g[1], [g[2]]) == pytest.approx(
            np.sum(chain.mu * h) / cap, rel=1e-13, abs=0)
        assert pt.spectral_gap(space, beta, method="variational") == pytest.approx(
            _state_ritz_gap(space, beta), rel=1e-13, abs=0)

    @pytest.mark.parametrize("dims, beta", [
        ((2, 2, 4, 2), 2.0), ((2, 2, 4, 2), 3.0), ((2, 2, 4, 2), 4.0), ((2, 2, 2, 3), 2.0),
    ], ids=["224-beta2", "224-beta3", "224-beta4", "222q3-beta2"])
    def test_direct_route_certified_on_the_states(self, request, dims, beta):
        # the warm-started vector meets the refinement's bound on every
        # state, on one colour class (q=2) and on the whole system (q=3)
        space = (request.getfixturevalue("space_224_open") if dims == (2, 2, 4, 2)
                 else enumerate_space(LatticeSpec(*dims, "open")))
        chain = pt.chain_from_space(space, beta)
        assert (chain.colouring is None) == (dims[3] == 3)
        target = [space.ground_states()[2]]
        assert pt.potential_classes(chain, [], target) < chain.n  # the start is lumped
        u = pt._mean_hitting_times(chain, np.array(target))
        assert _backward_error_of(u, chain, [], target, chain.mu) <= 2e-16

    @pytest.mark.parametrize("eps", [1e-3, 1e-1])
    @pytest.mark.parametrize("beta", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("name", ["space_223_open", "space_224_open"])
    def test_wrong_lumped_start_is_refined_away(self, request, name, beta, eps):
        # lumped conductances perturbed by up to eps move the start, never
        # the answer: the state refinement removes the error
        space = request.getfixturevalue(name)
        g = space.ground_states()
        want = pt.mean_hitting_exact(pt.chain_from_space(space, beta), g[1], [g[2]], "direct")
        chain = pt.chain_from_space(space, beta)
        labels, lumped = chain.symmetry_lumping
        noise = 1 + eps * np.random.default_rng(11).uniform(-1, 1, len(lumped.cond))
        wrong = pt.WeightedChain(lumped.n, lumped.src, lumped.dst, lumped.cond * noise,
                                 lumped.mu, lumped.size)
        start = pt.mean_hitting_exact(wrong, labels[g[1]], [labels[g[2]]], "direct")
        assert abs(start - want) > 1e-6 * want
        chain.symmetry_lumping = labels, wrong
        got = pt.mean_hitting_exact(chain, g[1], [g[2]], "direct")
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_state_cg_iterations_of_a_warm_start(self, space_224_open, monkeypatch):
        # the lumped start replaces the 39-iteration cold solve: only the
        # refinement's corrections iterate on the states (63 cold)
        chain = pt.chain_from_space(space_224_open, 3.0)
        g = space_224_open.ground_states()
        calls, cg = [], pt.spla.cg

        def counting_cg(A, b, **kw):
            count = [A.shape[0], 0]
            calls.append(count)
            return cg(A, b, callback=lambda xk: count.__setitem__(1, count[1] + 1), **kw)

        monkeypatch.setattr(pt.spla, "cg", counting_cg)
        pt.mean_hitting_exact(chain, g[1], [g[2]], "direct")
        n_classes = chain.symmetry_lumping[1].n
        on_states = sum(its for n, its in calls if n > n_classes)
        assert any(n <= n_classes for n, _ in calls)  # the lumped start ran CG
        assert 0 < on_states <= 30


class TestConstants:
    def test_kappa2d_stand_in(self):
        spec2d = Lattice2D(3, 3, 2, "periodic")
        k2d, gamma2d = pt.kappa2d_stand_in(spec2d)
        assert gamma2d == 8
        assert k2d > 0

    @pytest.mark.parametrize("K, L, q", [(3, 3, 2), (3, 3, 3), (3, 4, 2)])
    def test_orbit_barrier_is_the_floor_barrier(self, K, L, q):
        space = enumerate_space(Lattice2D(K, L, q, "periodic"))
        g = space.ground_states()
        labels, m = space.orbits(space.spec.unit_translations())
        got = comm_height(space.quotient(labels, m), labels[g[1]], labels[g[2]])
        assert got == comm_height(space, g[1], g[2])

    @pytest.fixture(scope="class")
    def traced_kappa2d(self):
        """``kappa2d_stand_in`` on the 3x4 q=3 floor, run once under
        ``tracemalloc``: its value and its traced peak in bytes."""
        tracemalloc.start()
        try:
            got = pt.kappa2d_stand_in(Lattice2D(3, 4, 3, "periodic"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return got, peak

    def test_kappa2d_traced_peak_per_floor_state(self, traced_kappa2d):
        # with the chain and the 2D barrier both taken from the floor's
        # quotient, and the quotient dropped before the solve, the whole
        # call reads about 70 B per floor state; lumping the full floor
        # chain took 624 B
        assert traced_kappa2d[1] <= 400 * 3 ** 12

    def test_kappa2d_move_table_and_orbit_chain_apart(self, traced_kappa2d):
        # the 2D barrier is swept on the quotient, so the floor's move table
        # (96 B per state) is never built: about 70 B per floor state,
        # against 260 B when that table and the lumped chain coexisted
        assert traced_kappa2d[1] <= 200 * 3 ** 12

    def test_kappa2d_value_and_peak_without_floor_move_table(self, traced_kappa2d):
        # enumeration, orbit labels, the quotient and the 44,366-unknown
        # solve, with the quotient's moves freed before it: about 70 B per
        # floor state (78 B with them kept), against 156 B when the barrier
        # sweep built the floor's move table
        got, peak = traced_kappa2d
        assert got == (0.13495954945691074, 8)
        assert peak <= 120 * 3 ** 12

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

    def test_solver_errors_propagate(self, built, space_224_open, monkeypatch):
        # only a degenerate window (ValueError) falls back to constant 1
        ts, bundle, _, _ = built

        def failing_solve(tsx):
            raise RuntimeError("CG did not converge")

        monkeypatch.setattr(pt, "build_aux_chain", failing_solve)
        with pytest.raises(RuntimeError, match="CG did not converge"):
            pt.test_function(space_224_open, ts, ts, bundle, beta=3.0)

    def test_h1_diagnostics_report_the_current(self, space_223_open):
        # the conservation checks read the exact potential's current,
        # whatever the test function
        g = space_223_open.ground_states()
        h_tilde = np.zeros(space_223_open.n_states)
        h_tilde[g[1]] = 1.0
        diag = pt.h1_diagnostics(space_223_open, h_tilde, 2.0, [g[1]], [g[2]])
        assert diag["dirichlet_principle_holds"]
        assert abs(diag["current_outflow"] - 1.0) <= 1e-9
        assert 0.0 <= diag["current_max_divergence"] <= 1e-9

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
