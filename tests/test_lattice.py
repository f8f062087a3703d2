"""Lattice geometry, configurations, symmetries, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinscape.lattice import (
    Lattice1D,
    Lattice2D,
    LatticeSpec,
    Site,
    SpinConfig,
    axis_images,
    axis_permutations,
    is_ground,
    monochrome,
)


def random_config(spec, seed=0):
    rng = np.random.default_rng(seed)
    return SpinConfig(spec, rng.integers(1, spec.q + 1, spec.n_sites).astype(np.int16))


class TestSpecValidation:
    def test_periodic_needs_k_ge_3(self):
        with pytest.raises(ValueError):
            LatticeSpec(2, 3, 3, 2, "periodic")

    def test_open_allows_k_2(self):
        LatticeSpec(2, 2, 2, 2, "open")

    def test_sorted_extents_required(self):
        with pytest.raises(ValueError):
            LatticeSpec(4, 3, 5, 2, "periodic")

    def test_q_ge_2(self):
        with pytest.raises(ValueError):
            LatticeSpec(3, 3, 3, 1, "periodic")

    @pytest.mark.parametrize("cls, args, ok", [
        (LatticeSpec, (3, 3, 3, 2, "periodic"), True),
        (LatticeSpec, (2, 2, 2, 2, "open"), True),
        (LatticeSpec, (1, 2, 2, 2, "open"), False),
        (LatticeSpec, (3, 4, 4, 2, "twisted"), False),
        (LatticeSpec, (3, 5, 4, 2, "periodic"), False),
        (Lattice2D, (3, 4, 2, "periodic"), True),
        (Lattice2D, (2, 2, 3, "open"), True),
        (Lattice2D, (2, 4, 2, "periodic"), False),
        (Lattice2D, (1, 4, 2, "open"), False),
        (Lattice2D, (4, 3, 2, "open"), False),
        (Lattice2D, (3, 3, 1, "periodic"), False),
        (Lattice2D, (3, 3, 2, "twisted"), False),
        (Lattice1D, (3, 2, "periodic"), True),
        (Lattice1D, (1, 2, "open"), True),
        (Lattice1D, (2, 2, "periodic"), False),
        (Lattice1D, (0, 2, "open"), False),
        (Lattice1D, (4, 1, "open"), False),
        (Lattice1D, (4, 2, "twisted"), False),
    ])
    def test_validation_table(self, cls, args, ok):
        # one rule for all three specs: known boundary, nondecreasing
        # extents, q >= 2, smallest extent >= 3 periodic / >= 2 open
        # (>= 1 for an open pillar)
        if ok:
            cls(*args)
        else:
            with pytest.raises(ValueError):
                cls(*args)

    def test_n_sites(self):
        assert LatticeSpec(3, 4, 5, 2, "periodic").n_sites == 60
        assert Lattice2D(3, 4, 2, "periodic").n_sites == 12
        assert Lattice1D(5, 2, "open").n_sites == 5


class TestNeighbors:
    @pytest.mark.parametrize(
        "spec,degree",
        [
            (LatticeSpec(3, 3, 3, 2, "periodic"), 6),
            (Lattice2D(3, 3, 2, "periodic"), 4),
        ],
    )
    def test_periodic_degree_constant(self, spec, degree):
        for i in range(spec.n_sites):
            nb = spec.neighbor_lists[i]
            assert len(nb) == degree
            assert len(set(nb)) == degree

    def test_neighbor_symmetry(self):
        for spec in (LatticeSpec(3, 3, 4, 2, "periodic"), LatticeSpec(2, 3, 4, 2, "open")):
            for i in range(spec.n_sites):
                for j in spec.neighbor_lists[i]:
                    assert i in spec.neighbor_lists[j]

    def test_open_corner_degree(self):
        spec = LatticeSpec(2, 2, 2, 2, "open")
        assert all(len(nb) == 3 for nb in spec.neighbor_lists)

    def test_site_index_k_fastest(self):
        spec = LatticeSpec(3, 4, 5, 2, "periodic")
        assert spec.site_index(Site(1, 1, 1)) == 0
        assert spec.site_index(Site(2, 1, 1)) == 1
        assert spec.site_index(Site(1, 2, 1)) == 3
        assert spec.site_index(Site(1, 1, 2)) == 12
        idx = np.arange(spec.n_sites).reshape(spec.M, spec.L, spec.K)
        for (m, l, k), i in np.ndenumerate(idx):
            assert spec.site_index(Site(k + 1, l + 1, m + 1)) == i

    def test_periodic_wrap_only_for_extent_ge_3(self):
        # extent-2 axes must not get doubled bonds under periodic wrap
        spec = LatticeSpec(3, 3, 3, 2, "periodic")
        bonds = {tuple(sorted(b)) for b in map(tuple, spec.bonds)}
        assert len(bonds) == len(spec.bonds)  # no duplicates


class TestConfig:
    def test_immutability(self):
        spec = LatticeSpec(3, 3, 3, 2, "periodic")
        c = monochrome(spec, 1)
        with pytest.raises(ValueError):
            c.spins[0] = 2

    def test_flip_site_and_index_agree(self):
        spec = LatticeSpec(3, 3, 4, 3, "periodic")
        c = random_config(spec, 1)
        site = Site(2, 3, 4)
        i = spec.site_index(site)
        assert c.flip(site, 3) == c.flip_index(i, 3)

    @pytest.mark.parametrize("index", [-1, 36])
    def test_flip_index_out_of_range_refused(self, index):
        c = monochrome(LatticeSpec(3, 3, 4, 3, "periodic"), 1)
        with pytest.raises(ValueError, match=f"linear index {index} out of range"):
            c.flip_index(index, 2)

    def test_floor_pillar_roundtrip(self):
        spec = LatticeSpec(3, 3, 4, 2, "periodic")
        c = random_config(spec, 2)
        arr = c.array3d.reshape(spec.M, spec.L * spec.K)
        assert np.array_equal([f.spins for f in c.floors()], arr)
        # pillars in linear (k, l) order: column l*K + k of each floor
        assert np.array_equal(np.stack([p.spins for p in c.pillars()], axis=1), arr)

    def test_is_ground(self):
        spec = LatticeSpec(3, 3, 3, 3, "periodic")
        for a in (1, 2, 3):
            assert is_ground(monochrome(spec, a)) == a
        assert is_ground(monochrome(spec, 1).flip_index(0, 2)) is None


class TestSymmetries:
    def test_permute_requires_equal_extents(self):
        spec = LatticeSpec(3, 4, 5, 2, "periodic")
        c = random_config(spec, 3)
        with pytest.raises(ValueError, match="not allowed"):
            c.transpose("021")

    def test_axis_permutations(self):
        assert axis_permutations((5, 4, 3)) == ("012",)
        assert axis_permutations((5, 3, 3)) == ("012", "021")
        assert axis_permutations((5, 5, 3)) == ("012", "102")
        assert axis_permutations((3, 3, 3)) == ("012", "021", "102", "120", "201", "210")

    def test_transpose_labels(self):
        spec = LatticeSpec(3, 3, 5, 2, "periodic")
        c = random_config(spec, 8)
        assert np.array_equal(c.transpose("021").array3d, c.array3d.transpose(0, 2, 1))
        with pytest.raises(ValueError, match="not allowed"):
            c.transpose("102")
        with pytest.raises(ValueError, match="bad orientation"):
            c.transpose("12")

    @pytest.mark.parametrize("K, L, size", [(3, 3, 2), (4, 4, 2), (3, 4, 1)])
    def test_floor_transpose_and_orbit(self, K, L, size):
        spec = Lattice2D(K, L, 3, "periodic")
        c = random_config(spec, 9)
        arr = c.spins.reshape(L, K)
        orbit = c.upsilon_orbit()
        assert len(orbit) == size and c in orbit
        if K == L:
            assert np.array_equal(c.transpose("10").spins.reshape(L, K), arr.T)
            assert orbit == {c, c.transpose("10")}
        else:
            with pytest.raises(ValueError, match="not allowed"):
                c.transpose("10")

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3), (3, 3, 3), (2, 3, 4)])
    def test_axis_images_gather(self, shape):
        spins = np.arange(int(np.prod(shape)))
        images = axis_images(shape)
        assert tuple(images) == axis_permutations(shape)
        for label, perm in images.items():
            want = spins.reshape(shape).transpose([int(c) for c in label]).ravel()
            assert np.array_equal(spins[perm], want)

    def test_permute_involution(self):
        spec = LatticeSpec(3, 3, 5, 2, "periodic")
        c = random_config(spec, 4)
        assert c.transpose("021").transpose("021") == c

    @pytest.mark.parametrize(
        "dims,expected_max",
        [((3, 4, 5), 1), ((3, 3, 5), 2), ((3, 5, 5), 2), ((3, 3, 3), 6)],
    )
    def test_orbit_size(self, dims, expected_max):
        spec = LatticeSpec(*dims, 2, "periodic")
        c = random_config(spec, 5)
        orbit = c.upsilon_orbit()
        assert 1 <= len(orbit) <= expected_max
        assert c in orbit

    def test_orbit_closure(self):
        spec = LatticeSpec(3, 3, 3, 2, "periodic")
        c = random_config(spec, 6)
        orbit = set(x.code for x in c.upsilon_orbit())
        for x in c.upsilon_orbit():
            assert set(y.code for y in x.upsilon_orbit()) == orbit


class TestSerialization:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), q=st.integers(2, 4))
    def test_code_roundtrip(self, seed, q):
        spec = LatticeSpec(3, 3, 3, q, "periodic")
        c = random_config(spec, seed)
        assert SpinConfig.from_code(spec, c.code) == c

    def test_code_order(self):
        # site 0 is the least significant digit, digit value spin-1
        spec = LatticeSpec(2, 2, 2, 3, "open")
        c = monochrome(spec, 1).flip_index(0, 2)
        assert c.code == 1
        c = monochrome(spec, 1).flip_index(1, 3)
        assert c.code == 2 * 3

    def test_json_roundtrip(self):
        spec = LatticeSpec(2, 3, 4, 3, "open")
        c = random_config(spec, 7)
        for compact in (False, True):
            assert SpinConfig.from_json(c.to_json(compact=compact)) == c
