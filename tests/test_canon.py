"""Configuration families, gateways, paths, recognizers."""

import numpy as np
import pytest

from spinscape.canon import (
    CanonicalDescriptor,
    FloorShape,
    PathSeq,
    TorusArc,
    arcs_of_length,
    build_canonical,
    build_regular,
    canonical_path,
    classify_gateway,
    escape_path,
    gateway_2d_types,
    generate_gateways,
    is_canonical,
    mk_mK,
    protuberance_2d_codes,
    regular_2d_codes,
    xi_plain,
    xi_side,
    zeta_2d_codes,
)
from spinscape.energy import energy
from spinscape.lattice import (Lattice2D, LatticeSpec, SpinConfig, axis_permutations,
                               monochrome)


class TestThresholds:
    @pytest.mark.parametrize(
        "K,expected",
        [(1, 1), (2, 1), (3, 2), (5, 2), (7, 3), (8, 4), (27, 9), (2829, 200)],
    )
    def test_mk(self, K, expected):
        assert mk_mK(K) == expected

    def test_mk_is_exact_integer_cube_root(self):
        for K in range(1, 2000):
            t = mk_mK(K)
            assert t**3 <= K * K < (t + 1) ** 3


class TestArcs:
    def test_members_wrap(self):
        arc = TorusArc(5, 4, 3)
        assert arc.members() == [4, 5, 1]

    def test_precedes(self):
        assert TorusArc(5, 2, 2).precedes(TorusArc(5, 1, 3))
        assert not TorusArc(5, 2, 2).precedes(TorusArc(5, 3, 3))

    def test_extensions_periodic(self):
        exts = TorusArc(5, 2, 2).extensions("periodic")
        assert {(a.start, a.length) for a in exts} == {(1, 3), (2, 3)}

    def test_extensions_open(self):
        exts = TorusArc(4, 1, 2).extensions("open")
        assert {(a.start, a.length) for a in exts} == {(1, 3)}

    def test_arcs_of_length_open_anchored(self):
        arcs = arcs_of_length(6, 2, "open")
        assert {(a.start, a.length) for a in arcs} == {(1, 2), (5, 2)}


class TestFloorFamilies:
    spec2d = Lattice2D(3, 4, 2, "periodic")

    def test_band_energy(self):
        for v in range(1, self.spec2d.L):
            assert energy(xi_plain(self.spec2d, 1, 2, 1, v)) == 2 * self.spec2d.K

    def test_protuberance_energy(self):
        for v in range(1, self.spec2d.L - 1):
            eta = xi_side(self.spec2d, 1, 2, 1, v, 2, 1, "plus")
            assert energy(eta) == 2 * self.spec2d.K + 2

    def test_xi_side_refuses_unknown_side(self):
        with pytest.raises(ValueError, match="side"):
            xi_side(self.spec2d, 1, 2, 1, 1, 1, 1, "foo")

    def test_band_counts(self):
        assert len(regular_2d_codes(self.spec2d, 1, 2, 2)) == self.spec2d.L

    def test_theta_closure_square(self):
        sq = Lattice2D(3, 3, 2, "periodic")
        codes = regular_2d_codes(sq, 1, 2, 1)
        # 3 horizontal + 3 vertical bands
        assert len(codes) == 6

    def test_zeta_nonempty_and_at_saddle(self):
        zc = zeta_2d_codes(self.spec2d, 1, 2)
        assert len(zc) > 0
        for c in list(zc)[:50]:
            assert energy(SpinConfig.from_code(self.spec2d, c)) == 8

    def test_gateway_types_partition(self):
        types = gateway_2d_types(self.spec2d, 1, 2)
        assert set(types.values()) <= {1, 2, 3}
        # wide bands are type 1
        for v in range(2, self.spec2d.L - 1):
            for c in regular_2d_codes(self.spec2d, 1, 2, v):
                assert types[c] == 1


class TestBuilders:
    spec = LatticeSpec(3, 4, 5, 2, "periodic")

    def test_regular_energy(self):
        P = TorusArc(5, 1, 2)
        sigma = build_regular(self.spec, 1, 2, P)
        # two cut planes of area K*L
        assert energy(sigma) == 2 * self.spec.K * self.spec.L

    def test_canonical_roundtrip(self):
        P = TorusArc(5, 1, 2)
        Q = TorusArc(5, 1, 3)
        shape = FloorShape(kind="plus", a=1, b=2, l=1, v=2, k=1, h=1)
        sigma = build_canonical(self.spec, 1, 2, P, Q, shape)
        desc = is_canonical(sigma)
        assert desc is not None
        assert (desc.a, desc.b) == (1, 2)
        assert desc.P.length == 2 and desc.m0 == 3

    def test_canonical_refuses_arcs_of_another_size(self):
        # arcs of 5 floors on an 8-floor lattice, as build_regular refuses
        spec = LatticeSpec(3, 4, 8, 2, "periodic")
        shape = FloorShape(kind="plain", a=1, b=2, l=1, v=2)
        with pytest.raises(ValueError, match="arc size does not match M"):
            build_canonical(spec, 1, 2, TorusArc(5, 5, 2), TorusArc(5, 4, 3), shape)

    def test_canonical_rejects_bad_floor(self):
        P = TorusArc(5, 1, 2)
        Q = TorusArc(5, 1, 3)
        # two isolated minority sites: not a band or band-with-protuberance
        spins = np.ones(12, dtype=np.int16)
        spins[0] = 2
        spins[7] = 2
        bad = SpinConfig(self.spec.floor_spec(), spins)
        with pytest.raises(ValueError):
            build_canonical(self.spec, 1, 2, P, Q, bad)

    def test_is_canonical_rejects_random(self):
        rng = np.random.default_rng(1)
        sigma = SpinConfig(
            self.spec, rng.integers(1, 3, self.spec.n_sites).astype(np.int16)
        )
        assert is_canonical(sigma) is None

    def test_orientation_images(self):
        cube = LatticeSpec(3, 3, 3, 2, "periodic")
        P = TorusArc(3, 1, 1)
        s_id = build_regular(cube, 1, 2, P, orientation="012")
        s_rot = build_regular(cube, 1, 2, P, orientation="210")
        assert s_id != s_rot
        assert is_canonical(s_rot) is not None


class TestGatewayClassifier:
    def test_round_trip_type1(self):
        spec = LatticeSpec(3, 4, 8, 2, "periodic")
        P = TorusArc(8, 1, 2)
        Q = TorusArc(8, 1, 3)
        shape = FloorShape(kind="plain", a=1, b=2, l=1, v=2)
        sigma = build_canonical(spec, 1, 2, P, Q, shape)
        gc = classify_gateway(sigma)
        assert gc is not None and gc.type == 1
        assert energy(sigma) == 2 * 12 + 2 * 3 + 2 - 2

    def test_round_trip_type2_where_window_permits(self):
        # bulk saddle protuberances need v in [2, L-3]: smallest L is 5
        spec = LatticeSpec(3, 5, 8, 2, "periodic")
        P = TorusArc(8, 1, 2)
        Q = TorusArc(8, 1, 3)
        shape = FloorShape(kind="plus", a=1, b=2, l=1, v=2, k=1, h=1)
        sigma = build_canonical(spec, 1, 2, P, Q, shape)
        gc = classify_gateway(sigma)
        assert gc is not None and gc.type == 2
        assert energy(sigma) == 2 * 15 + 2 * 3 + 2

    def test_slab_count_window(self):
        spec = LatticeSpec(3, 4, 8, 2, "periodic")
        m_K = mk_mK(3)
        # slab count outside [m_K - 1, M - m_K] is rejected
        P = TorusArc(8, 1, 7)
        Q = TorusArc(8, 1, 8)
        shape = FloorShape(kind="plain", a=1, b=2, l=1, v=2)
        sigma = build_canonical(spec, 1, 2, P, Q, shape)
        assert P.length > spec.M - m_K
        assert classify_gateway(sigma) is None

    def test_ground_not_gateway(self):
        spec = LatticeSpec(3, 4, 8, 2, "periodic")
        assert classify_gateway(monochrome(spec, 1)) is None


class TestPaths:
    def test_canonical_path_shape(self):
        spec = LatticeSpec(3, 3, 4, 2, "periodic")
        p = canonical_path(spec, 1, 2)
        p.validate()
        assert len(p) == spec.n_sites
        assert p.energies[0] == 0 and p.energies[-1] == 0
        assert p.end == monochrome(spec, 2)

    def test_custom_orders_must_be_connected(self):
        spec = LatticeSpec(3, 3, 4, 2, "periodic")
        with pytest.raises(ValueError):
            canonical_path(spec, 1, 2, floors_order=[1, 3, 2, 4])

    def test_json_roundtrip_bit_exact(self):
        spec = LatticeSpec(3, 3, 3, 2, "periodic")
        p = canonical_path(spec, 1, 2)
        text = p.to_json()
        q = PathSeq.from_json(text)
        assert q.to_json() == text

    def test_from_json_rejects_corrupt_ledger(self):
        import json

        spec = LatticeSpec(3, 3, 3, 2, "periodic")
        p = canonical_path(spec, 1, 2)
        obj = json.loads(p.to_json())
        obj["steps"][5][3] += 1  # corrupt an energy entry
        with pytest.raises(AssertionError):
            PathSeq.from_json(json.dumps(obj))

    def test_escape_path_requires_thin_slab(self):
        spec = LatticeSpec(9, 9, 9, 2, "periodic")
        with pytest.raises(ValueError):
            escape_path(spec, 1, 2, 3)  # isqrt(9)-1 = 2

    def test_escape_path_below_barrier(self):
        spec = LatticeSpec(9, 9, 9, 2, "periodic")
        p = escape_path(spec, 1, 2, 2)
        gamma = 2 * 81 + 2 * 9 + 2
        assert p.max_energy < gamma
        assert p.end == monochrome(spec, 1)


class TestRecognizerReadings:
    """is_canonical / classify_gateway read the slab and the active floor
    in the orientation their descriptor names."""

    @staticmethod
    def rebuild(spec, d):
        """The (M, L, K) array a canonical descriptor describes."""
        arr = np.full((spec.M, spec.L, spec.K), d.a, dtype=np.int16)
        arr[[m - 1 for m in d.P.members()]] = d.b
        assert d.m0 not in d.P.members()
        floor = SpinConfig.from_code(spec.floor_spec(), d.floor_code)
        arr[d.m0 - 1] = floor.spins.reshape(spec.L, spec.K)
        return arr

    @pytest.mark.parametrize(
        "dims,q,boundary",
        [((3, 3, 3), 2, "periodic"), ((3, 4, 4), 3, "periodic"), ((2, 3, 5), 3, "open")],
    )
    def test_descriptors_rebuild_the_image(self, dims, q, boundary):
        spec = LatticeSpec(*dims, q, boundary)
        spec2d = spec.floor_spec()
        M = spec.M
        orientations = axis_permutations((M, spec.L, spec.K))
        if dims == (3, 3, 3):
            assert len(orientations) == 6
        for a, b in [(1, 2), (2, 1)] + ([(3, 1)] if q == 3 else []):
            floors = [xi_plain(spec2d, a, b, 1, 1), xi_side(spec2d, a, b, 1, 1, 1, 1, "plus")]
            for length in range(M + 1):
                for P in arcs_of_length(M, length, boundary):
                    for o in orientations:
                        sigmas = [build_regular(spec, a, b, P, o)]
                        for Q in P.extensions(boundary):
                            sigmas += [build_canonical(spec, a, b, P, Q, f, o) for f in floors]
                        for sigma in sigmas:
                            d = is_canonical(sigma)
                            assert d is not None
                            want = sigma.transpose(d.orientation).array3d
                            assert np.array_equal(self.rebuild(spec, d), want)

    def test_open_arcs_do_not_wrap(self):
        # floors {1, 4} of spin 2 wrap around on the open interval 1..4, so
        # the slab is read as the spin-1 floors {2, 3} in a spin-2 background
        spec = LatticeSpec(2, 2, 4, 2, "open")
        arr = np.ones((4, 2, 2), dtype=np.int16)
        arr[[0, 3]] = 2
        d = is_canonical(SpinConfig(spec, arr.ravel()))
        assert (d.a, d.b, d.P, d.m0) == (2, 1, TorusArc(4, 2, 2), 1)

    @pytest.mark.parametrize("dims", [(3, 3, 3), (3, 4, 4)])
    def test_gateway_active_floor_in_its_orientation(self, dims):
        spec = LatticeSpec(*dims, 2, "periodic")
        types = gateway_2d_types(spec.floor_spec(), 1, 2)
        for codes in generate_gateways(spec, 1, 2).values():
            for c in codes:
                sigma = SpinConfig.from_code(spec, c)
                gc = classify_gateway(sigma)
                floor = sigma.transpose(gc.orientation).floor(gc.m0)
                assert types[floor.code] == gc.type
