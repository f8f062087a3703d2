"""Lattice geometry, site indexing, configuration storage, and symmetry maps.

Sites of the ``K x L x M`` lattice are addressed either by 1-based
coordinates ``(k, l, m)`` or by the fixed linear index

    ``index = (k-1) + K*(l-1) + K*L*(m-1)``

(``k`` fastest, then ``l``, then ``m``).  Spins are integers ``1..q``.
Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from types import MappingProxyType

import numpy as np

PERIODIC = "periodic"
OPEN = "open"

__all__ = [
    "PERIODIC",
    "OPEN",
    "LatticeSpec",
    "Lattice2D",
    "Lattice1D",
    "Site",
    "SpinConfig",
    "axis_permutations",
    "axis_images",
    "monochrome",
    "is_ground",
]


# ---------------------------------------------------------------------------
# Grid helpers (shared by the 3D lattice and its 2D/1D views)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _grid_bonds(dims: tuple[int, ...], boundary: str) -> np.ndarray:
    """All nearest-neighbour bonds of the grid as an (n_bonds, 2) array.

    ``dims`` lists extents with the fastest-varying axis first.  Each bond
    appears exactly once.  Periodic wrap bonds are included only when the
    axis extent is >= 3 (extent-2 periodic axes would create doubled bonds
    and are rejected at spec construction time).
    """
    idx = np.arange(math.prod(dims)).reshape(dims[::-1])  # axes: slowest first
    ndim = len(dims)
    pairs = []
    for axis_from_fast, extent in enumerate(dims):
        axis = ndim - 1 - axis_from_fast  # numpy axis for this direction
        if extent < 2:
            continue
        lo = np.take(idx, range(extent - 1), axis=axis).ravel()
        hi = np.take(idx, range(1, extent), axis=axis).ravel()
        pairs.append(np.stack([lo, hi], axis=1))
        if boundary == PERIODIC and extent >= 3:
            last = np.take(idx, [extent - 1], axis=axis).ravel()
            first = np.take(idx, [0], axis=axis).ravel()
            pairs.append(np.stack([last, first], axis=1))
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    bonds = np.concatenate(pairs, axis=0).astype(np.int64)
    bonds.setflags(write=False)
    return bonds


@lru_cache(maxsize=None)
def _grid_neighbors(dims: tuple[int, ...], boundary: str) -> tuple:
    """Per-site neighbour index lists (tuple of frozen int arrays)."""
    lists: list[list[int]] = [[] for _ in range(math.prod(dims))]
    for i, j in _grid_bonds(dims, boundary):
        lists[i].append(int(j))
        lists[j].append(int(i))
    out = []
    for lst in lists:
        arr = np.array(sorted(lst), dtype=np.int64)
        arr.setflags(write=False)
        out.append(arr)
    return tuple(out)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

class _Grid:
    """Validation and geometry shared by the lattice, floor and pillar specs.

    A spec lists its extents in ``dims``, fastest-varying axis first, and
    carries ``q`` and ``boundary``.  Extents must be nondecreasing, and the
    smallest at least 3 on a torus (so that no site pair is doubly
    adjacent) and at least ``_open_min`` on a box.
    """

    _open_min = 2

    def __post_init__(self) -> None:
        if self.boundary not in (PERIODIC, OPEN):
            raise ValueError(
                f"boundary must be {PERIODIC!r} or {OPEN!r}, got {self.boundary!r}"
            )
        dims = self.dims
        if list(dims) != sorted(dims):
            raise ValueError(f"require nondecreasing extents, got {dims}")
        least = 3 if self.boundary == PERIODIC else self._open_min
        if dims[0] < least:
            raise ValueError(
                f"{self.boundary} boundary requires every extent >= {least}, got {dims}"
            )
        if self.q < 2:
            raise ValueError(f"require q >= 2, got q={self.q}")

    @cached_property
    def n_sites(self) -> int:
        return math.prod(self.dims)

    @property
    def bonds(self) -> np.ndarray:
        """(n_bonds, 2) array of linear site indices; each bond once."""
        return _grid_bonds(self.dims, self.boundary)

    @property
    def neighbor_lists(self) -> tuple:
        return _grid_neighbors(self.dims, self.boundary)

    def unit_translations(self) -> list[np.ndarray]:
        """One unit shift per axis on a torus, none on a box: site
        permutations in the :func:`axis_images` convention that generate
        the translation group."""
        if self.boundary != PERIODIC:
            return []
        idx = np.arange(self.n_sites).reshape(self.dims[::-1])
        return [np.roll(idx, 1, axis).ravel() for axis in range(idx.ndim)]

    def symmetry_generators(self) -> list[np.ndarray]:
        """Site permutations in the :func:`axis_images` convention that
        generate the grid's symmetry group: every axis permutation between
        equal extents, one reflection per axis and the unit translations.
        Each maps bonds to bonds and fixes every monochrome configuration;
        spin permutations are not included."""
        shape = self.dims[::-1]
        idx = np.arange(self.n_sites).reshape(shape)
        perms = [*axis_images(shape).values(), *(np.flip(idx, a).ravel() for a in range(idx.ndim)),
                 *self.unit_translations()]
        return [p for p in perms if not np.array_equal(p, idx.ravel())]


@dataclass(frozen=True)
class LatticeSpec(_Grid):
    """A ``K x L x M`` lattice (``K <= L <= M``) with ``q`` spin values.

    ``boundary`` is ``"periodic"`` (torus; requires ``K >= 3`` so that no
    site pair is doubly adjacent) or ``"open"`` (box; requires ``K >= 2``).
    """

    K: int
    L: int
    M: int
    q: int
    boundary: str = PERIODIC

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.K, self.L, self.M)

    def site_index(self, site: "Site") -> int:
        self._check_site(site)
        return (site.k - 1) + self.K * (site.l - 1) + self.K * self.L * (site.m - 1)

    def _check_site(self, site: "Site") -> None:
        if not (1 <= site.k <= self.K and 1 <= site.l <= self.L and 1 <= site.m <= self.M):
            raise ValueError(f"site {site} out of range for {self.dims}")

    # -- derived lower-dimensional specs -----------------------------------

    def floor_spec(self) -> "Lattice2D":
        """The ``K x L`` lattice carrying one floor, same boundary."""
        return Lattice2D(self.K, self.L, self.q, self.boundary)

    def pillar_spec(self) -> "Lattice1D":
        """The length-``M`` lattice carrying one pillar, same boundary."""
        return Lattice1D(self.M, self.q, self.boundary)


@dataclass(frozen=True)
class Lattice2D(_Grid):
    """A ``K x L`` single-floor lattice; linear index ``(k-1) + K*(l-1)``."""

    K: int
    L: int
    q: int
    boundary: str = PERIODIC

    @property
    def dims(self) -> tuple[int, int]:
        return (self.K, self.L)


@dataclass(frozen=True)
class Lattice1D(_Grid):
    """A length-``N`` lattice carrying one pillar (``N >= 1`` when open)."""

    N: int
    q: int
    boundary: str = PERIODIC

    _open_min = 1

    @property
    def dims(self) -> tuple[int]:
        return (self.N,)


@dataclass(frozen=True, order=True)
class Site:
    """1-based site coordinates ``(k, l, m)``."""

    k: int
    l: int
    m: int


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def axis_permutations(extents: tuple[int, ...]) -> tuple[str, ...]:
    """Labels of the array-axis permutations that preserve ``extents``.

    A label lists the source axis of each result axis (``"012..."`` is the
    identity); labels come in lexicographic order, identity first.
    """
    return tuple(
        "".join(map(str, perm))
        for perm in permutations(range(len(extents)))
        if all(extents[p] == e for p, e in zip(perm, extents))
    )


@lru_cache(maxsize=None)
def axis_images(shape: tuple[int, ...]) -> MappingProxyType:
    """For each label of :func:`axis_permutations` of ``shape``, the site
    permutation ``perm`` with ``spins[perm]`` the image of ``spins`` under
    that axis permutation of the array shaped ``shape``.

    ``shape`` lists extents slowest axis first (``spec.dims[::-1]``).  One
    convention for every spec: site ``i`` of the image carries the spin of
    site ``perm[i]``.
    """
    idx = np.arange(math.prod(shape)).reshape(shape)
    images = {}
    for label in axis_permutations(shape):
        perm = idx.transpose([int(c) for c in label]).ravel()
        perm.setflags(write=False)
        images[label] = perm
    return MappingProxyType(images)


class SpinConfig:
    """An immutable full spin assignment on a lattice spec.

    Works uniformly over :class:`LatticeSpec`, :class:`Lattice2D` and
    :class:`Lattice1D` (anything exposing ``n_sites``, ``q``, ``bonds``).
    Spins are stored as a read-only int16 array in linear index order.
    """

    __slots__ = ("spec", "spins", "_hash")

    def __init__(self, spec, spins) -> None:
        arr = np.asarray(spins, dtype=np.int16).copy()
        if arr.shape != (spec.n_sites,):
            raise ValueError(
                f"expected {spec.n_sites} spins, got shape {arr.shape}"
            )
        if arr.size and (arr.min() < 1 or arr.max() > spec.q):
            raise ValueError(f"spins must lie in [1, {spec.q}]")
        arr.setflags(write=False)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "spins", arr)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, spec, spins: np.ndarray) -> "SpinConfig":
        """Wrap ``spins``, a valid read-only int16 array that nothing writes
        again, without copying or validating it."""
        self = object.__new__(cls)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "spins", spins)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("SpinConfig is immutable")

    # -- basics ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpinConfig)
            and self.spec == other.spec
            and np.array_equal(self.spins, other.spins)
        )

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.spec, self.spins.tobytes()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"SpinConfig({self.spec!r}, {self.spins.tolist()!r})"

    # -- updates -----------------------------------------------------------

    def flip_index(self, index: int, a: int) -> "SpinConfig":
        """The configuration updated to spin ``a`` at linear site ``index``."""
        if not 0 <= index < self.spec.n_sites:
            raise ValueError(f"linear index {index} out of range")
        if not 1 <= a <= self.spec.q:
            raise ValueError(f"spin {a} out of range [1, {self.spec.q}]")
        new = self.spins.copy()
        new[index] = a
        return SpinConfig(self.spec, new)

    # -- 3D views ----------------------------------------------------------

    @property
    def array3d(self) -> np.ndarray:
        """Read-only view shaped ``(M, L, K)``: entry ``[m-1, l-1, k-1]``."""
        spec = self.spec
        if not isinstance(spec, LatticeSpec):
            raise TypeError("array3d requires a 3D LatticeSpec")
        return self.spins.reshape(spec.M, spec.L, spec.K)

    def floor(self, m: int) -> "SpinConfig":
        """The m-th floor (1-based) as a 2D configuration."""
        spec = self.spec
        if not 1 <= m <= spec.M:
            raise ValueError(f"floor {m} out of range")
        return SpinConfig(spec.floor_spec(), self.array3d[m - 1].ravel())

    def floors(self) -> list["SpinConfig"]:
        return [self.floor(m) for m in range(1, self.spec.M + 1)]

    def pillar(self, k: int, l: int) -> "SpinConfig":
        """The ``(k, l)``-th pillar as a 1D configuration of length M."""
        spec = self.spec
        if not (1 <= k <= spec.K and 1 <= l <= spec.L):
            raise ValueError(f"pillar ({k},{l}) out of range")
        return SpinConfig(spec.pillar_spec(), self.array3d[:, l - 1, k - 1])

    def pillars(self) -> list["SpinConfig"]:
        spec = self.spec
        return [
            self.pillar(k, l)
            for l in range(1, spec.L + 1)
            for k in range(1, spec.K + 1)
        ]

    # -- symmetry ----------------------------------------------------------

    def transpose(self, label: str) -> "SpinConfig":
        """Image under the axis permutation ``label`` of the spin array
        shaped ``spec.dims[::-1]`` (:attr:`array3d` on a 3D lattice).

        ``label`` names the source axis of each result axis (``"021"``
        swaps the l and k axes of a lattice, ``"10"`` transposes a floor)
        and must be one of :func:`axis_permutations` of the extents.
        """
        shape = self.spec.dims[::-1]
        if label not in axis_permutations(shape):
            if sorted(str(label)) != [str(i) for i in range(len(shape))]:
                raise ValueError(f"bad orientation label {label!r}")
            raise ValueError(f"orientation {label!r} not allowed on this lattice")
        spins = self.spins[axis_images(shape)[label]]
        spins.setflags(write=False)
        return SpinConfig._trusted(self.spec, spins)

    def upsilon_orbit(self) -> set["SpinConfig"]:
        """Closure of ``{self}`` under all allowed axis swaps.

        On a lattice: ``{self}`` when K < L < M; the two-element closure
        when exactly one pair of extents coincides; the full 6-permutation
        closure when K = L = M.  On a square floor: ``self`` and its
        transpose.
        """
        return {self.transpose(p) for p in axis_permutations(self.spec.dims[::-1])}

    # -- serialization -----------------------------------------------------

    @property
    def code(self) -> int:
        """Base-q big-integer encoding, little-endian in site order.

        Site 0 is the least significant digit; digit value is ``spin - 1``.
        """
        q = self.spec.q
        c = 0
        for s in reversed(self.spins):
            c = c * q + (int(s) - 1)
        return c

    @classmethod
    def from_code(cls, spec, code: int) -> "SpinConfig":
        if code < 0:
            raise ValueError("code must be nonnegative")
        q = spec.q
        digits = np.empty(spec.n_sites, dtype=np.int16)
        c = code
        for i in range(spec.n_sites):
            c, d = divmod(c, q)
            digits[i] = d + 1
        if c != 0:
            raise ValueError("code out of range for this lattice")
        return cls(spec, digits)

    def to_json(self, compact: bool = False) -> str:
        spec = self.spec
        if isinstance(spec, LatticeSpec):
            head = {"K": spec.K, "L": spec.L, "M": spec.M}
        elif isinstance(spec, Lattice2D):
            head = {"K": spec.K, "L": spec.L, "M": 1}
        else:
            raise TypeError("JSON serialization supports 3D and 2D specs")
        head.update({"q": spec.q, "boundary": spec.boundary})
        if compact:
            head["code"] = str(self.code)
        else:
            head["spins"] = [int(s) for s in self.spins]
        return json.dumps(head, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SpinConfig":
        obj = json.loads(text)
        K, L, M = obj["K"], obj["L"], obj["M"]
        if M == 1:
            spec = Lattice2D(K, L, obj["q"], obj["boundary"])
        else:
            spec = LatticeSpec(K, L, M, obj["q"], obj["boundary"])
        if "spins" in obj:
            return cls(spec, obj["spins"])
        return cls.from_code(spec, int(obj["code"]))


# ---------------------------------------------------------------------------
# Ground states
# ---------------------------------------------------------------------------

def monochrome(spec, a: int) -> SpinConfig:
    """The constant configuration with every spin equal to ``a``."""
    if not 1 <= a <= spec.q:
        raise ValueError(f"spin {a} out of range [1, {spec.q}]")
    return SpinConfig(spec, np.full(spec.n_sites, a, dtype=np.int16))


def is_ground(sigma: SpinConfig) -> int | None:
    """``a`` if ``sigma`` is the constant-``a`` configuration, else None."""
    first = int(sigma.spins[0])
    if np.count_nonzero(sigma.spins != first) == 0:
        return first
    return None
