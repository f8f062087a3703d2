"""Enumeration, communication heights, neighborhoods, typical sets."""

import tracemalloc

import numpy as np
import pytest

from spinscape.canon import canonical_path
from spinscape.energy import energy
from spinscape.landscape import (
    NON_REPRODUCIBLE_CLAIMS,
    barrier_report,
    comm_height,
    enumerate_space,
    gamma_formula,
    neighborhood,
    typical_sets,
    valley_depths,
)
from spinscape.lattice import Lattice2D, LatticeSpec, axis_images, monochrome


class TestEnumeration:
    def test_refusal_over_limit(self):
        spec = LatticeSpec(3, 3, 3, 2, "periodic")  # 2^27 states
        with pytest.raises(ValueError, match="limit"):
            enumerate_space(spec, limit=2**26)

    def test_refusal_over_int32_indices(self):
        spec = LatticeSpec(2, 2, 8, 2, "open")  # 2^32 states
        with pytest.raises(ValueError, match="int32"):
            enumerate_space(spec, limit=2**40)

    def test_traced_peak_per_state(self):
        # the digits are peeled from one int32 code array: 12 B of spins,
        # 4 B of codes and 4 B of remainders per state on the 3^12 floor,
        # against 36 B with an int64 code array and its copy
        tracemalloc.start()
        try:
            space = enumerate_space(Lattice2D(3, 4, 3, "periodic"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * space.n_states

    def test_energies_match_direct(self, space_223_open):
        space = space_223_open
        rng = np.random.default_rng(0)
        for s in rng.integers(0, space.n_states, 50):
            assert space.energies[s] == energy(space.config(int(s)))

    def test_code_is_index(self, space_223_open):
        space = space_223_open
        for s in (0, 17, 4095):
            assert space.index_of(space.config(s)) == s

    def test_move_table_consistency(self, space_223_open):
        space = space_223_open
        mt = space.move_table()
        md = space.move_deltas()
        s = 123
        c = space.config(s)
        for j in range(mt.shape[1]):
            t = int(mt[s, j])
            assert md[s, j] == space.energies[t] - space.energies[s]
            # target differs from source in exactly one site
            diff = space.config(t).spins != c.spins
            assert diff.sum() == 1

    @pytest.mark.parametrize("spec", [LatticeSpec(2, 2, 2, 2, "open"),
                                      Lattice2D(3, 3, 2, "periodic")])
    def test_site_image_matches_transpose(self, spec):
        # one gather convention: the image state's spins are spins[perm]
        space = enumerate_space(spec)
        images = axis_images(spec.dims[::-1])
        assert len(images) == (6 if len(spec.dims) == 3 else 2)
        for label, perm in images.items():
            got = space.site_image(perm)
            want = [space.index_of(space.config(s).transpose(label))
                    for s in range(space.n_states)]
            assert np.array_equal(got, want)


class TestCommHeight:
    def test_2d_oracle_values(self, space_2d_33, space_2d_34):
        for space, expected in ((space_2d_33, 8), (space_2d_34, 8)):
            g = space.ground_states()
            assert comm_height(space, g[1], g[2]) == expected

    def test_self_height_is_energy(self, space_223_open):
        space = space_223_open
        s = 777
        assert comm_height(space, s, s) == space.energies[s]

    def test_avoid_raises_on_endpoint(self, space_223_open):
        space = space_223_open
        g = space.ground_states()
        with pytest.raises(ValueError):
            comm_height(space, g[1], g[2], avoid=[g[1]])

    @pytest.mark.parametrize("past_end", [False, True], ids=["minus1", "n_states"])
    def test_out_of_range_index_refused(self, space_223_open, past_end):
        space = space_223_open
        g = space.ground_states()
        bad = space.n_states if past_end else -1
        with pytest.raises(ValueError, match=f"source index {bad} "):
            comm_height(space, bad, g[1])
        with pytest.raises(ValueError, match=f"target index {bad} "):
            comm_height(space, g[1], [g[2], bad])

    def test_avoid_increases_height(self, space_2d_33):
        space = space_2d_33
        g = space.ground_states()
        base = comm_height(space, g[1], g[2])
        # blocking the whole level set at the barrier forces a higher pass
        level = np.flatnonzero(space.energies == base)
        blocked = comm_height(space, g[1], g[2], avoid=level)
        assert blocked is None or blocked > base

    def test_canonical_path_bounds_comm_height(self, space_223_open):
        space = space_223_open
        spec = space.spec
        p = canonical_path(spec, 1, 2)
        g = space.ground_states()
        assert comm_height(space, g[1], g[2]) <= p.max_energy


class TestNeighborhood:
    def test_monotone_in_ceiling(self, space_223_open):
        space = space_223_open
        g = space.ground_states()
        small = neighborhood(space, [g[1]], 3)
        large = neighborhood(space, [g[1]], 6)
        assert small.mask.sum() <= large.mask.sum()
        assert (large.mask | small.mask).sum() == large.mask.sum()

    def test_root_above_ceiling_empty(self, space_223_open):
        space = space_223_open
        high = int(np.argmax(space.energies))
        assert len(neighborhood(space, [high], 1)) == 0

    @pytest.mark.parametrize("past_end", [False, True], ids=["minus1", "n_states"])
    def test_out_of_range_root_refused(self, space_223_open, past_end):
        space = space_223_open
        bad = space.n_states if past_end else -1
        with pytest.raises(ValueError, match=f"root index {bad} "):
            neighborhood(space, [space.ground_states()[1], bad], 6)

    def test_no_escape_above_ceiling(self, space_223_open):
        space = space_223_open
        g = space.ground_states()
        cs = neighborhood(space, [g[1]], 5)
        assert (space.energies[cs.states] <= 5).all()
        # the other ground is not reachable below the barrier (6)
        assert g[2] not in cs


def _oracle_components(space, ceiling, avoid):
    """Component labels of the graph restricted to E <= ceiling and outside
    ``avoid``, by scipy's connected_components (-1 off the graph)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    allowed = (space.energies <= ceiling) & ~avoid
    n, mt = space.n_states, space.move_table()
    src, dst = np.repeat(np.arange(n), mt.shape[1]), mt.ravel()  # every move
    keep = allowed[src] & allowed[dst]
    graph = csr_matrix((np.ones(keep.sum()), (src[keep], dst[keep])), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    return np.where(allowed, labels, -1)


class TestBottleneckOracle:
    """Checks the shared minimax engine against scipy's connected components."""

    @pytest.fixture(
        scope="class",
        params=[
            LatticeSpec(2, 2, 3, 2, "open"),
            LatticeSpec(2, 2, 2, 3, "open"),
            Lattice2D(3, 3, 3, "periodic"),  # wrap-around moves, as kappa2d floods
        ],
        ids=["223-q2", "222-q3", "2d33p-q3"],
    )
    def space(self, request):
        return enumerate_space(request.param)

    def _cases(self, space, seed):
        rng = np.random.default_rng(seed)
        n = space.n_states
        low = np.flatnonzero(space.energies <= 4)  # roots in separate valleys
        for _ in range(6):
            roots = np.unique([*rng.choice(low, 2), rng.integers(n)])
            targets = np.unique([rng.choice(low), rng.integers(n)])
            avoid = rng.random(n) < rng.choice([0.0, 0.05, 0.2])
            avoid[roots] = avoid[targets] = False
            yield roots, targets, avoid

    def test_neighborhood_is_union_of_root_components(self, space):
        E = space.energies
        for roots, _, avoid in self._cases(space, 11):
            for ceiling in range(int(E.max()) + 1):
                labels = _oracle_components(space, ceiling, avoid)
                root_labels = labels[roots][labels[roots] >= 0]
                want = np.isin(labels, root_labels) & (labels >= 0)
                got = neighborhood(space, roots, ceiling, avoid=avoid if avoid.any() else None).mask
                assert np.array_equal(got, want), ceiling

    def test_comm_height_is_least_joining_ceiling(self, space):
        E = space.energies
        for roots, targets, avoid in self._cases(space, 12):
            want = None
            for ceiling in range(int(E.max()) + 1):
                labels = _oracle_components(space, ceiling, avoid)
                root_labels = labels[roots][labels[roots] >= 0]
                if np.isin(labels[targets], root_labels).any():
                    want = ceiling
                    break
            got = comm_height(space, roots, targets, avoid=avoid if avoid.any() else None)
            assert got == want

    def test_valley_depths_from_components(self, space):
        E = space.energies
        grounds = list(space.ground_states().values())
        none = np.zeros(space.n_states, dtype=bool)
        phi = np.full(space.n_states, -1)
        for ceiling in range(int(E.max()) + 1):
            labels = _oracle_components(space, ceiling, none)
            joined = np.isin(labels, labels[grounds]) & (labels >= 0)
            phi[joined & (phi < 0)] = ceiling
        assert np.array_equal(valley_depths(space), phi - E)


class TestValleyDepths:
    def test_grounds_have_zero_depth(self, space_223_open):
        space = space_223_open
        vd = valley_depths(space)
        for s in space.ground_states().values():
            assert vd[s] == 0

    def test_depth_definition_spot_check(self, space_223_open):
        space = space_223_open
        vd = valley_depths(space)
        grounds = list(space.ground_states().values())
        rng = np.random.default_rng(2)
        for s in rng.integers(0, space.n_states, 20):
            s = int(s)
            phi = comm_height(space, s, grounds)
            assert vd[s] == phi - space.energies[s]

    def test_max_depth_below_barrier(self, space_223_open):
        # no trap deeper than the ground-to-ground barrier
        space = space_223_open
        vd = valley_depths(space)
        g = space.ground_states()
        gamma = comm_height(space, g[1], g[2])
        assert vd.max() <= gamma


class TestBarrierReport:
    def test_formula_values(self):
        assert gamma_formula(LatticeSpec(3, 4, 5, 2, "periodic")) == 32
        assert gamma_formula(LatticeSpec(2, 2, 3, 2, "open")) == 7
        assert gamma_formula(Lattice2D(3, 4, 2, "periodic")) == 8
        assert gamma_formula(Lattice2D(2, 3, 2, "open")) == 3

    def test_report_flags(self):
        spec = LatticeSpec(3, 4, 5, 2, "periodic")
        rep = barrier_report(spec, brute=30)
        assert rep["theorem_hypothesis_met"] is False
        assert rep["match"] is False
        assert rep["note"] == "outside theorem hypothesis"
        assert rep["non_reproducible"] == NON_REPRODUCIBLE_CLAIMS

    def test_report_match(self):
        spec = Lattice2D(3, 4, 2, "periodic")
        rep = barrier_report(spec, brute=8)
        assert rep["match"] is True


class TestTypicalSets:
    def test_build_224(self, space_224_open):
        ts = typical_sets(space_224_open, A=(1,), B=(2,))
        assert ts.gamma == 6
        assert ts.m_K == 1
        assert ts.checks["S_A_in_edge_A"]
        assert ts.checks["union_eq_hat_S"]
        assert ts.checks["edge_A_cap_bulk_eq_Rhat_mK"]
        # degenerate open instance: overlap warning recorded, gateways empty
        assert any("open boundary" in w for w in ts.warnings)
        assert not ts.G_mask.any()

    def test_slab_family_counts(self, space_224_open):
        ts = typical_sets(space_224_open, A=(1,), B=(2,))
        # open boundary: slabs anchored at either end
        assert len(ts.R[0]) == 1 and len(ts.R[4]) == 1
        assert len(ts.R[1]) == 2 and len(ts.R[3]) == 2
        for i, codes in ts.R.items():
            for s in codes:
                assert space_224_open.energies[s] == (
                    0 if i in (0, 4) else 2 * 2  # K*L cut area
                )

    def test_class_reps_partition(self, space_224_open):
        ts = typical_sets(space_224_open, A=(1,), B=(2,))
        covered = set(ts.class_rep_A)
        assert covered == set(int(x) for x in np.flatnonzero(ts.I_A))
        for rep in ts.Ibar_A:
            assert ts.class_rep_A[int(rep)] == int(rep)

    def test_O_I_split(self, space_224_open):
        ts = typical_sets(space_224_open, A=(1,), B=(2,))
        E = space_224_open.energies
        assert (E[np.flatnonzero(ts.O_A)] == ts.gamma).all()
        assert (E[np.flatnonzero(ts.I_A)] < ts.gamma).all()
        assert not (ts.O_A & ts.I_A).any()
