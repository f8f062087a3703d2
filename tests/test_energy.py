"""Energy algebra: Hamiltonians, decomposition, flip deltas, 2D classes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinscape.energy import (
    bridge_stats,
    classify_2d_lowenergy,
    decompose,
    energy,
    flip_delta,
    pillar_lower_bound,
    pillar_stats,
)
from spinscape.lattice import Lattice2D, LatticeSpec, SpinConfig, monochrome
from spinscape.canon import xi_plain, xi_side

SPECS = [
    LatticeSpec(3, 3, 3, 2, "periodic"),
    LatticeSpec(3, 4, 5, 3, "periodic"),
    LatticeSpec(2, 2, 3, 2, "open"),
    LatticeSpec(2, 3, 4, 3, "open"),
]


def random_config(spec, rng):
    return SpinConfig(spec, rng.integers(1, spec.q + 1, spec.n_sites).astype(np.int16))


class TestHamiltonian:
    def test_ground_energy_zero(self):
        for spec in SPECS:
            for a in range(1, spec.q + 1):
                assert energy(monochrome(spec, a)) == 0

    def test_single_defect_energy_is_degree(self):
        spec = LatticeSpec(3, 3, 3, 2, "periodic")
        c = monochrome(spec, 1).flip_index(13, 2)
        assert energy(c) == 6

    def test_minimum_excitation_periodic(self):
        # off the ground states the energy is at least 3 (open corner degree
        # 3 / periodic single defect 6); check on a small full enumeration
        spec = LatticeSpec(2, 2, 2, 2, "open")
        from spinscape.landscape import enumerate_space

        space = enumerate_space(spec)
        nonzero = space.energies[space.energies > 0]
        assert nonzero.min() >= 3


class TestDecomposition:
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_exact_identity(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(25):
            c = random_config(spec, rng)
            floors, pillars = decompose(c)
            assert len(floors) == spec.M
            assert len(pillars) == spec.K * spec.L
            assert sum(floors) + sum(pillars) == energy(c)


class TestFlipDelta:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6), site=st.integers(0, 26), spin=st.integers(1, 3))
    def test_matches_energy_difference(self, seed, site, spin):
        spec = LatticeSpec(3, 3, 3, 3, "periodic")
        c = random_config(spec, np.random.default_rng(seed))
        d = flip_delta(c, site, spin)
        assert d == energy(c.flip_index(site, spin)) - energy(c)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), site=st.integers(0, 23), spin=st.integers(1, 2))
    def test_antisymmetry(self, seed, site, spin):
        spec = LatticeSpec(2, 3, 4, 2, "open")
        c = random_config(spec, np.random.default_rng(seed))
        old = int(c.spins[site])
        d = flip_delta(c, site, spin)
        back = flip_delta(c.flip_index(site, spin), site, old)
        assert d == -back


class TestPillars:
    def test_counts(self):
        spec = LatticeSpec(3, 3, 3, 2, "periodic")
        c = monochrome(spec, 1)
        ps = pillar_stats(c)
        assert ps.d == 9 and ps.d_a[1] == 9 and ps.d_a[2] == 0

    def test_lower_bound_holds_and_tight(self):
        spec = LatticeSpec(3, 3, 3, 2, "periodic")
        rng = np.random.default_rng(5)
        tight_seen = False
        for _ in range(200):
            c = random_config(spec, rng)
            lb = pillar_lower_bound(c)
            assert lb <= energy(c)
        # tight on a slab: every non-monochromatic pillar has 1D energy 2
        arr = np.full((3, 3, 3), 1, dtype=np.int16)
        arr[0] = 2
        slab = SpinConfig(spec, arr.ravel())
        assert pillar_lower_bound(slab) == energy(slab)


class TestBridgesAndClasses:
    def test_bridge_stats(self):
        spec2d = Lattice2D(3, 4, 2, "periodic")
        eta = xi_plain(spec2d, 1, 2, 1, 2)
        bs = bridge_stats(eta)
        assert bs.B_a[2] == 2 and bs.B_a[1] == 2  # two full rows each
        assert not bs.cross[1] and not bs.cross[2]

    def test_monochrome_is_cross(self):
        spec2d = Lattice2D(3, 4, 2, "periodic")
        res = classify_2d_lowenergy(monochrome(spec2d, 1))
        assert res.kind == "L3" and res.a == 1

    def test_wide_band_is_L1(self):
        spec2d = Lattice2D(3, 5, 2, "periodic")
        res = classify_2d_lowenergy(xi_plain(spec2d, 1, 2, 2, 2))
        # a width-2 band of spin 2 is equally a width-3 band of spin 1
        assert res.kind == "L1"
        assert (res.v, res.a, res.b) in {(2, 1, 2), (3, 2, 1)}

    def test_thin_band_is_L2(self):
        spec2d = Lattice2D(3, 4, 2, "periodic")
        res = classify_2d_lowenergy(xi_plain(spec2d, 1, 2, 1, 1))
        assert res.kind == "L2" and res.v == 1

    def test_at_saddle_is_none(self):
        spec2d = Lattice2D(3, 4, 2, "periodic")
        eta = xi_side(spec2d, 1, 2, 1, 1, 1, 1, "plus")
        assert energy(eta) == 2 * spec2d.K + 2
        assert classify_2d_lowenergy(eta).kind == "none"

    def test_trichotomy_exhaustive(self, space_2d_34):
        # below the saddle every state falls in exactly one class, and the
        # L3 minority mass bound holds
        space = space_2d_34
        spec2d = space.spec
        sub = np.flatnonzero(space.energies < 2 * spec2d.K + 2)
        kinds = {"L1": 0, "L2": 0, "L3": 0}
        for s in sub:
            eta = space.config(int(s))
            res = classify_2d_lowenergy(eta)
            assert res.kind in kinds, f"unclassified sub-saddle state {s}"
            kinds[res.kind] += 1
            if res.kind == "L3":
                H = energy(eta)
                minority = np.count_nonzero(eta.spins != res.a)
                assert minority <= H * H / 16
        assert all(v > 0 for v in kinds.values())

    def test_q2_energies_even(self, space_2d_34):
        assert not (space_2d_34.energies % 2).any()
