"""Explicit configuration families and optimal paths.

Covers the 2D floor-shape catalogue (slab bands and their protuberance
variants), the 3D slab ("regular") and one-active-floor ("canonical")
families, the gateway classifier with its three floor types, canonical
growth paths realizing the energy barrier, and the explicit sub-barrier
escape path from thin slabs.

Both recognizers, :func:`is_canonical` and :func:`classify_gateway`,
filter one reading of a configuration as a slab plus at most one active
floor (:func:`_readings`), and all builders write the slab through one
helper (:func:`_slab`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

import numpy as np

from .energy import energy, flip_delta
from .lattice import (Lattice2D, LatticeSpec, OPEN, PERIODIC, Site, SpinConfig,
                      axis_permutations, monochrome)

__all__ = [
    "mk_mK",
    "TorusArc",
    "arcs_of_length",
    "FloorShape",
    "xi_plain",
    "xi_side",
    "regular_2d_codes",
    "protuberance_2d_codes",
    "bulk_gamma_2d_codes",
    "zeta_2d_codes",
    "gateway_2d_types",
    "build_regular",
    "build_canonical",
    "CanonicalDescriptor",
    "is_canonical",
    "GatewayClass",
    "classify_gateway",
    "generate_gateways",
    "PathSeq",
    "canonical_path",
    "escape_path",
]


# ---------------------------------------------------------------------------
# Integer thresholds
# ---------------------------------------------------------------------------

def mk_mK(K: int) -> int:
    """Exact ``floor(K**(2/3))``: the largest ``t`` with ``t**3 <= K**2``.

    Pure integer arithmetic -- no floating point.
    """
    if K < 1:
        raise ValueError("K must be positive")
    target = K * K
    t = int(round(target ** (1.0 / 3.0)))
    while t ** 3 > target:
        t -= 1
    while (t + 1) ** 3 <= target:
        t += 1
    return t


# ---------------------------------------------------------------------------
# Arcs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class TorusArc:
    """A connected subset of the cycle (or interval) of size ``n``.

    ``start`` is 1-based; ``length`` in ``[0, n]``.  Length 0 is the empty
    set and length ``n`` the full set (``start`` normalized to 1 in both
    cases).
    """

    n: int
    start: int
    length: int

    def __post_init__(self) -> None:
        if not (0 <= self.length <= self.n):
            raise ValueError("arc length out of range")
        if self.length in (0, self.n):
            object.__setattr__(self, "start", 1)
        elif not 1 <= self.start <= self.n:
            raise ValueError("arc start out of range")

    def members(self) -> list[int]:
        return [(self.start - 1 + j) % self.n + 1 for j in range(self.length)]

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members())

    def precedes(self, other: "TorusArc") -> bool:
        """True when ``other`` extends this arc by exactly one element."""
        return (
            other.length == self.length + 1
            and self.member_set() < other.member_set()
        )

    def extensions(self, boundary: str = PERIODIC) -> list["TorusArc"]:
        """The arcs obtained by adding one adjacent element."""
        if self.length >= self.n:
            return []
        if self.length == 0:
            if boundary == PERIODIC:
                return [TorusArc(self.n, s, 1) for s in range(1, self.n + 1)]
            return [TorusArc(self.n, 1, 1), TorusArc(self.n, self.n, 1)]
        out = []
        left = TorusArc(self.n, (self.start - 2) % self.n + 1, self.length + 1)
        right = TorusArc(self.n, self.start, self.length + 1)
        if boundary == PERIODIC:
            out = [left, right]
        else:
            for cand in (left, right):
                mem = cand.members()
                if mem == sorted(mem):  # stays an interval (no wrap)
                    out.append(cand)
        # dedupe (length n-1 -> n collapses)
        uniq = {(c.start, c.length): c for c in out}
        return list(uniq.values())


def arcs_of_length(n: int, length: int, boundary: str = PERIODIC) -> list[TorusArc]:
    """All arcs of the given length; open boundary keeps only the two
    boundary-anchored intervals."""
    if length in (0, n):
        return [TorusArc(n, 1, length)]
    if boundary == PERIODIC:
        return [TorusArc(n, s, length) for s in range(1, n + 1)]
    return [TorusArc(n, 1, length), TorusArc(n, n - length + 1, length)]


# ---------------------------------------------------------------------------
# 2D floor shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FloorShape:
    """Parameters of a 2D floor configuration.

    ``kind`` is ``"plain"`` (a width-``v`` band of spin ``b`` on rows
    ``l..l+v-1``), ``"plus"`` (the band plus a partial row of width ``h``
    starting at column ``k`` on row ``l+v``) or ``"minus"`` (partial row on
    row ``l-1``).
    """

    kind: str
    a: int
    b: int
    l: int = 1
    v: int = 0
    k: int = 1
    h: int = 0


def _slab(spec, a: int, b: int, P: TorusArc) -> np.ndarray:
    """The spin array shaped ``spec.dims[::-1]`` whose layers along the
    slowest axis (floors of a lattice, rows of a floor) spin ``b`` in ``P``
    and ``a`` elsewhere."""
    arr = np.full(spec.dims[::-1], a, dtype=np.int16)
    arr[[m - 1 for m in P.members()]] = b
    return arr


def xi_plain(spec2d: Lattice2D, a: int, b: int, l: int, v: int) -> SpinConfig:
    """The band configuration: spin ``b`` on rows ``l..l+v-1`` (mod L)."""
    L = spec2d.L
    if not 0 <= v <= L:
        raise ValueError("band width v out of range [0, L]")
    return SpinConfig(spec2d, _slab(spec2d, a, b, TorusArc(L, (l - 1) % L + 1, v)).ravel())


def xi_side(
    spec2d: Lattice2D, a: int, b: int, l: int, v: int, k: int, h: int, side: str
) -> SpinConfig:
    """Band plus a width-``h`` partial row on the adjacent row.

    ``side`` is ``"plus"`` (the partial row sits on row ``l+v``) or
    ``"minus"`` (row ``l-1``).
    """
    K, L = spec2d.K, spec2d.L
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    if not 0 <= v <= L - 1:
        raise ValueError("band width v out of range [0, L-1]")
    if not 0 <= h <= K:
        raise ValueError("protuberance width h out of range [0, K]")
    arr = xi_plain(spec2d, a, b, l, v).spins.reshape(L, K).copy()
    row = (l - 1 + v) % L if side == "plus" else (l - 2) % L
    for j in range(h):
        arr[row, (k - 1 + j) % K] = b
    return SpinConfig(spec2d, arr.ravel())


def build_floor(spec2d: Lattice2D, shape: FloorShape) -> SpinConfig:
    if shape.kind == "plain":
        return xi_plain(spec2d, shape.a, shape.b, shape.l, shape.v)
    if shape.kind in ("plus", "minus"):
        return xi_side(
            spec2d, shape.a, shape.b, shape.l, shape.v, shape.k, shape.h, shape.kind
        )
    raise ValueError(f"unknown floor kind {shape.kind!r}")


def _orbit_codes(configs) -> frozenset[int]:
    """Codes of the configs, closed under the floor's axis swaps (the
    transpose when K = L)."""
    return frozenset(img.code for c in configs for img in c.upsilon_orbit())


@lru_cache(maxsize=None)
def regular_2d_codes(spec2d: Lattice2D, a: int, b: int, v: int) -> frozenset[int]:
    """Codes of all width-``v`` b-band configurations (plus transposes when
    K = L)."""
    return _orbit_codes(xi_plain(spec2d, a, b, l, v) for l in range(1, spec2d.L + 1))


@lru_cache(maxsize=None)
def protuberance_2d_codes(spec2d: Lattice2D, a: int, b: int, v: int) -> frozenset[int]:
    """Codes of band+partial-row configurations with ``1 <= h <= K-1``."""
    configs = []
    for l in range(1, spec2d.L + 1):
        for k in range(1, spec2d.K + 1):
            for h in range(1, spec2d.K):
                configs.append(xi_side(spec2d, a, b, l, v, k, h, "plus"))
                configs.append(xi_side(spec2d, a, b, l, v, k, h, "minus"))
    return _orbit_codes(configs)


@lru_cache(maxsize=None)
def canonical_2d_codes(spec2d: Lattice2D, a: int, b: int) -> frozenset[int]:
    """Codes of all 2D canonical configurations between the two grounds."""
    out: set[int] = set()
    for v in range(0, spec2d.L + 1):
        out |= regular_2d_codes(spec2d, a, b, v)
    for v in range(0, spec2d.L):
        out |= protuberance_2d_codes(spec2d, a, b, v)
    return frozenset(out)


@lru_cache(maxsize=None)
def bulk_gamma_2d_codes(spec2d: Lattice2D, a: int, b: int) -> frozenset[int]:
    """The saddle-level part of the 2D bulk set (protuberances with
    ``2 <= v <= L-3``)."""
    out: set[int] = set()
    for v in range(2, spec2d.L - 2):
        out |= protuberance_2d_codes(spec2d, a, b, v)
    return frozenset(out)


#: Most states the 2D saddle-extension search visits before it refuses.
_ZETA_STATE_BUDGET = 500_000


@lru_cache(maxsize=None)
def zeta_2d_codes(spec2d: Lattice2D, a: int, b: int) -> frozenset[int]:
    """The 2D saddle extensions reachable from width-2 bands.

    All configurations reachable from a width-2 b-band by a path whose
    every later step sits exactly at the 2D saddle energy ``2K + 2`` while
    avoiding the saddle-level bulk set.  Found by breadth-first search on
    that level set (no full enumeration needed); cached per arguments.
    """
    if spec2d.boundary != PERIODIC:
        raise ValueError("2D saddle extensions are defined on periodic tori")
    gamma2d = 2 * spec2d.K + 2
    avoid = bulk_gamma_2d_codes(spec2d, a, b)
    starts = [
        SpinConfig.from_code(spec2d, c) for c in regular_2d_codes(spec2d, a, b, 2)
    ]
    visited: set[int] = set()
    frontier: list[tuple[SpinConfig, int]] = [(s, energy(s)) for s in starts]
    q = spec2d.q
    n = spec2d.n_sites
    while frontier:
        nxt: list[tuple[SpinConfig, int]] = []
        for eta, H in frontier:
            for i in range(n):
                old = int(eta.spins[i])
                for s in range(1, q + 1):
                    if s == old:
                        continue
                    H2 = H + flip_delta(eta, i, s)
                    if H2 != gamma2d:
                        continue
                    zeta = eta.flip_index(i, s)
                    c = zeta.code
                    if c in visited or c in avoid:
                        continue
                    visited.add(c)
                    if len(visited) > _ZETA_STATE_BUDGET:
                        raise RuntimeError(
                            "2D saddle-extension search exceeded the state budget"
                        )
                    nxt.append((zeta, H2))
        frontier = nxt
    return frozenset(visited)


@lru_cache(maxsize=None)
def gateway_2d_types(spec2d: Lattice2D, a: int, b: int) -> dict:
    """Map 2D gateway floor code -> type (1, 2 or 3).

    Type 1: wide bands (below-saddle bulk); type 2: saddle-level bulk
    protuberances; type 3: saddle extensions in either spin order.
    """
    out: dict[int, int] = {}
    for c in zeta_2d_codes(spec2d, a, b) | zeta_2d_codes(spec2d, b, a):
        out[c] = 3
    for c in bulk_gamma_2d_codes(spec2d, a, b):
        out[c] = 2
    for v in range(2, spec2d.L - 1):
        for c in regular_2d_codes(spec2d, a, b, v):
            out[c] = 1
    return out


# ---------------------------------------------------------------------------
# 3D builders
# ---------------------------------------------------------------------------

def build_regular(
    spec: LatticeSpec, a: int, b: int, P: TorusArc, orientation: str | None = None
) -> SpinConfig:
    """The slab configuration: floors in ``P`` all spin ``b``, rest ``a``."""
    if P.n != spec.M:
        raise ValueError("arc size does not match M")
    sigma = SpinConfig(spec, _slab(spec, a, b, P).ravel())
    return sigma if orientation is None else sigma.transpose(orientation)


def build_canonical(
    spec: LatticeSpec,
    a: int,
    b: int,
    P: TorusArc,
    Q: TorusArc,
    floor,
    orientation: str | None = None,
) -> SpinConfig:
    """One-active-floor configuration: floors in ``P`` are constant ``b``,
    floors outside ``Q`` constant ``a``, and the single floor of ``Q - P``
    carries the given 2D canonical shape (a :class:`FloorShape` or a 2D
    :class:`SpinConfig`)."""
    if P.n != spec.M or Q.n != spec.M:
        raise ValueError("arc size does not match M")
    if not P.precedes(Q):
        raise ValueError("require P < Q with |Q| = |P| + 1")
    spec2d = spec.floor_spec()
    if isinstance(floor, FloorShape):
        eta = build_floor(spec2d, floor)
    elif isinstance(floor, SpinConfig):
        if floor.spec != spec2d:
            raise ValueError("floor configuration lives on the wrong 2D lattice")
        eta = floor
    else:
        raise TypeError("floor must be a FloorShape or 2D SpinConfig")
    if spec.boundary == PERIODIC and eta.code not in canonical_2d_codes(spec2d, a, b):
        raise ValueError("active floor is not a 2D canonical configuration")
    (m0,) = Q.member_set() - P.member_set()
    arr = _slab(spec, a, b, P)
    arr[m0 - 1] = eta.spins.reshape(spec.L, spec.K)
    sigma = SpinConfig(spec, arr.ravel())
    return sigma if orientation is None else sigma.transpose(orientation)


# ---------------------------------------------------------------------------
# Recognizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalDescriptor:
    a: int
    b: int
    P: TorusArc
    m0: int
    floor_code: int
    orientation: str


def _arc_from_set(n: int, s: set, boundary: str) -> TorusArc | None:
    """The arc with member set ``s``, or None; open arcs may not wrap."""
    if len(s) in (0, n):
        return TorusArc(n, 1, len(s))
    starts = [m for m in s if (m - 2) % n + 1 not in s]
    if len(starts) != 1 or (boundary == OPEN and starts[0] != min(s)):
        return None
    return TorusArc(n, starts[0], len(s))


def _readings(sigma: SpinConfig):
    """Every slab-plus-active-floor reading of sigma, up to allowed axis swaps.

    In each orientation image all floors but at most one (the active
    floor) must be monochrome.  Each ordered spin pair ``(a, b)`` covering
    the monochrome spins gives the arc ``P`` of the b floors, and each floor
    ``m0`` outside ``P`` -- the active floor when there is one -- for which
    ``P + {m0}`` is an arc gives the reading
    ``(a, b, P, m0, floor_code, orientation, active)``, where
    ``floor_code`` is the code of floor ``m0``.
    """
    arr3d, spec = sigma.array3d, sigma.spec
    M, boundary, spec2d = spec.M, spec.boundary, spec.floor_spec()
    for label in axis_permutations(arr3d.shape):
        arr = arr3d.transpose([int(c) for c in label])
        flat = (arr == arr[:, :1, :1]).all(axis=(1, 2)).tolist()
        mono = [v if ok else None for v, ok in zip(arr[:, 0, 0].tolist(), flat)]
        actives = [m for m, v in enumerate(mono, start=1) if v is None]
        if len(actives) > 1:
            continue
        for a, b in permutations(range(1, spec.q + 1), 2):
            if any(v not in (None, a, b) for v in mono):
                continue
            bset = {m for m, v in enumerate(mono, start=1) if v == b}
            P = _arc_from_set(M, bset, boundary)
            if P is None:
                continue
            for m0 in actives or [m for m in range(1, M + 1) if m not in bset]:
                if _arc_from_set(M, bset | {m0}, boundary) is not None:
                    code = SpinConfig(spec2d, arr[m0 - 1].ravel()).code
                    yield a, b, P, m0, code, label, bool(actives)


def _least(descriptors):
    """The least descriptor by orientation label, then spins, then arc, or
    None."""
    return min(
        descriptors,
        key=lambda d: (d.orientation, d.a, d.b, d.P.length, d.P.start, d.m0),
        default=None,
    )


def is_canonical(sigma: SpinConfig) -> CanonicalDescriptor | None:
    """Invert the one-active-floor construction, up to allowed axis swaps.

    Returns the lexicographically smallest descriptor (by orientation
    label, then spins, then arc) or None.  On periodic lattices the active
    floor must be a 2D canonical configuration.
    """
    spec = sigma.spec
    return _least(
        CanonicalDescriptor(a, b, P, m0, code, label)
        for a, b, P, m0, code, label, active in _readings(sigma)
        if not (active and spec.boundary == PERIODIC)
        or code in canonical_2d_codes(spec.floor_spec(), a, b)
    )


@dataclass(frozen=True)
class GatewayClass:
    a: int
    b: int
    P: TorusArc
    m0: int
    type: int
    orientation: str


def classify_gateway(sigma: SpinConfig) -> GatewayClass | None:
    """Classify a gateway configuration, or return None.

    A gateway has slab floors except for one active floor belonging to the
    2D gateway family, with the slab count inside the height window
    ``[m_K - 1, M - m_K]``.  The type (1, 2, 3) is inherited from the
    active floor's 2D class; the energy is ``Gamma - 2`` exactly for
    type 1 and ``Gamma`` otherwise.
    """
    spec = sigma.spec
    if not isinstance(spec, LatticeSpec) or spec.boundary != PERIODIC:
        return None
    m_K = mk_mK(spec.K)
    spec2d = spec.floor_spec()
    return _least(
        GatewayClass(a, b, P, m0, gateway_2d_types(spec2d, a, b)[code], label)
        for a, b, P, m0, code, label, active in _readings(sigma)
        if active
        and m_K - 1 <= P.length <= spec.M - m_K
        and code in gateway_2d_types(spec2d, a, b)
    )


def generate_gateways(spec: LatticeSpec, a: int, b: int) -> dict:
    """All gateway state codes for the ordered spin pair, keyed by slice.

    ``result[i]`` lists (sorted, deduplicated) base-q codes of gateways
    whose slab count is ``i``, including all allowed axis-swap images.
    """
    if spec.boundary != PERIODIC:
        raise ValueError("gateway families are defined on periodic lattices")
    m_K = mk_mK(spec.K)
    spec2d = spec.floor_spec()
    types = gateway_2d_types(spec2d, a, b)
    floor_cfgs = [SpinConfig.from_code(spec2d, c) for c in sorted(types)]
    out: dict[int, set[int]] = {}
    for i in range(m_K - 1, spec.M - m_K + 1):
        codes: set[int] = set()
        for P in arcs_of_length(spec.M, i, spec.boundary):
            for Q in P.extensions(spec.boundary):
                (m0,) = Q.member_set() - P.member_set()
                arr = _slab(spec, a, b, P)
                for eta in floor_cfgs:
                    arr[m0 - 1] = eta.spins.reshape(spec.L, spec.K)
                    for img in SpinConfig(spec, arr.ravel()).upsilon_orbit():
                        codes.add(img.code)
        out[i] = sorted(codes)
    return out


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

@dataclass
class PathSeq:
    """A single-flip path with its per-step integer energy ledger.

    ``flips`` lists ``(site_index, new_spin)``; ``energies[t]`` is the
    energy after ``t`` flips (``energies[0]`` is the start energy);
    ``deltas[t]`` the change of step ``t+1``.  ``stages`` optionally maps a
    stage name to a ``(start, end)`` slice of the flip sequence.
    """

    start: SpinConfig
    flips: list
    deltas: list
    energies: list
    stages: dict = field(default_factory=dict)

    @property
    def max_energy(self) -> int:
        return max(self.energies)

    def __len__(self) -> int:
        return len(self.flips)

    def configs(self):
        """Yield the path configurations in order (length ``len + 1``)."""
        cur = self.start
        yield cur
        for (i, s) in self.flips:
            cur = cur.flip_index(i, s)
            yield cur

    @property
    def end(self) -> SpinConfig:
        cur = self.start
        for (i, s) in self.flips:
            cur = cur.flip_index(i, s)
        return cur

    def validate(self) -> None:
        """Recompute the ledger from scratch; raises on any mismatch."""
        cur = self.start
        H = energy(cur)
        if H != self.energies[0]:
            raise AssertionError("start energy mismatch")
        for t, (i, s) in enumerate(self.flips):
            d = flip_delta(cur, i, s)
            cur = cur.flip_index(i, s)
            H += d
            if d != self.deltas[t] or H != self.energies[t + 1]:
                raise AssertionError(f"ledger mismatch at step {t}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "start": json.loads(self.start.to_json(compact=True)),
                "steps": [
                    [int(i), int(s), int(d), int(e)]
                    for (i, s), d, e in zip(self.flips, self.deltas, self.energies[1:])
                ],
                "stages": {k: list(v) for k, v in self.stages.items()},
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "PathSeq":
        obj = json.loads(text)
        start = SpinConfig.from_json(json.dumps(obj["start"]))
        flips = [(i, s) for i, s, _, _ in obj["steps"]]
        deltas = [d for _, _, d, _ in obj["steps"]]
        energies = [energy(start)] + [e for _, _, _, e in obj["steps"]]
        stages = {k: tuple(v) for k, v in obj.get("stages", {}).items()}
        path = cls(start, flips, deltas, energies, stages)
        path.validate()
        return path


def _path_from_flips(start: SpinConfig, flips, stages=None) -> PathSeq:
    deltas = []
    energies = [energy(start)]
    cur = start
    for (i, s) in flips:
        d = flip_delta(cur, i, s)
        cur = cur.flip_index(i, s)
        deltas.append(int(d))
        energies.append(energies[-1] + int(d))
    return PathSeq(start, list(flips), deltas, energies, stages or {})


def _check_growth_order(order, n: int, boundary: str, what: str) -> None:
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"{what} order must be a permutation of 1..{n}")
    for t in range(1, n + 1):
        prefix = set(order[:t])
        if _arc_from_set(n, prefix, boundary) is None:
            raise ValueError(f"{what} order prefix {sorted(prefix)} is not connected")


def canonical_path(
    spec: LatticeSpec,
    a: int,
    b: int,
    floors_order=None,
    rows_order=None,
    cols_order=None,
) -> PathSeq:
    """A canonical growth path from the constant-``a`` to the constant-``b``
    configuration.

    Floors are converted one at a time (default bottom-up), each via a 2D
    growth: rows in order (default increasing), each row filled column by
    column (default increasing).  Every growth order must have connected
    prefixes; on open boundaries the defaults anchor growth at a corner,
    which is what realizes the open-box barrier value.  The path has
    ``K*L*M`` single-flip steps.
    """
    if a == b:
        raise ValueError("need two distinct spins")
    K, L, M = spec.dims
    floors_order = list(floors_order or range(1, M + 1))
    rows_order = list(rows_order or range(1, L + 1))
    cols_order = list(cols_order or range(1, K + 1))
    _check_growth_order(floors_order, M, spec.boundary, "floor")
    _check_growth_order(rows_order, L, spec.boundary, "row")
    _check_growth_order(cols_order, K, spec.boundary, "column")
    start = monochrome(spec, a)
    flips = []
    for m in floors_order:
        for l in rows_order:
            for k in cols_order:
                flips.append((spec.site_index(Site(k, l, m)), b))
    return _path_from_flips(start, flips)


def escape_path(spec: LatticeSpec, a: int, b: int, n: int) -> PathSeq:
    """The explicit sub-barrier path dissolving a width-``n`` b-slab.

    Starts from the slab configuration with floors ``1..n`` of spin ``b``
    and erases it in three stages (pinned flip orders):

    * stage 1 -- the block ``k=1..K`` (slowest), ``l=1..n``, ``m=1..n``;
    * stage 2 -- rows ``l=n+1..L-1``, each as ``k=1..K`` over ``m=1..n``;
    * stage 3 -- the final row ``l=L`` in the same inner order.

    For ``1 <= n <= isqrt(K) - 1`` the peak energy is
    ``2KL + 2n^2 + 2n - 2``, strictly below the barrier.
    """
    if spec.boundary != PERIODIC:
        raise ValueError("the escape path is defined on periodic lattices")
    K, L, M = spec.dims
    if not 1 <= n <= math.isqrt(K) - 1:
        raise ValueError(f"require 1 <= n <= isqrt(K)-1 = {math.isqrt(K) - 1}")
    start = SpinConfig(spec, _slab(spec, a, b, TorusArc(M, 1, n)).ravel())

    flips = []
    stages = {}
    s0 = len(flips)
    for k in range(1, K + 1):
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                flips.append((spec.site_index(Site(k, l, m)), a))
    stages["stage1"] = (s0, len(flips))
    s0 = len(flips)
    for l in range(n + 1, L):
        for k in range(1, K + 1):
            for m in range(1, n + 1):
                flips.append((spec.site_index(Site(k, l, m)), a))
    stages["stage2"] = (s0, len(flips))
    s0 = len(flips)
    for k in range(1, K + 1):
        for m in range(1, n + 1):
            flips.append((spec.site_index(Site(k, L, m)), a))
    stages["stage3"] = (s0, len(flips))
    return _path_from_flips(start, flips, stages)

