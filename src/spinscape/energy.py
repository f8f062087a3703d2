"""Exact integer energy algebra.

The Hamiltonian counts disagreeing nearest-neighbour bonds,

    ``H(sigma) = sum over bonds 1{sigma(x) != sigma(y)}``

with no external field, so every energy is a nonnegative integer and the
minimum value 0 is attained exactly on the monochromatic configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice2D, LatticeSpec, PERIODIC, SpinConfig, axis_images

__all__ = [
    "energy",
    "decompose",
    "flip_delta",
    "PillarStats",
    "pillar_stats",
    "pillar_lower_bound",
    "BridgeStats",
    "bridge_stats",
    "Low2DClass",
    "classify_2d_lowenergy",
]


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def energy(sigma: SpinConfig) -> int:
    """Bond-disagreement energy of a configuration on any supported spec."""
    bonds = sigma.spec.bonds
    s = sigma.spins
    return int(np.count_nonzero(s[bonds[:, 0]] != s[bonds[:, 1]])) if len(bonds) else 0


# ---------------------------------------------------------------------------
# Floor/pillar decomposition
# ---------------------------------------------------------------------------

def decompose(sigma: SpinConfig) -> tuple[list[int], list[int]]:
    """Per-floor 2D energies and per-pillar 1D energies.

    The in-plane bonds of the lattice are exactly the bonds of its M floors
    and the vertical bonds are exactly the bonds of its K*L pillars, so

        ``sum(floor energies) + sum(pillar energies) == energy(sigma)``

    holds with zero integer error, for both boundary conditions.
    Pillars are listed in linear ``(k, l)`` order (k fastest).
    """
    if not isinstance(sigma.spec, LatticeSpec):
        raise TypeError("decompose expects a 3D configuration")
    floor_energies = [energy(f) for f in sigma.floors()]
    pillar_energies = [energy(p) for p in sigma.pillars()]
    return floor_energies, pillar_energies


# ---------------------------------------------------------------------------
# Flip deltas
# ---------------------------------------------------------------------------

def flip_delta(sigma: SpinConfig, i: int, a: int) -> int:
    """``energy(sigma.flip_index(i, a)) - energy(sigma)`` scanning only the
    bonds of linear site ``i``."""
    spec = sigma.spec
    i = int(i)
    if not 0 <= i < spec.n_sites:
        raise ValueError(f"site index {i} out of range")
    if not 1 <= a <= spec.q:
        raise ValueError(f"spin {a} out of range [1, {spec.q}]")
    old = int(sigma.spins[i])
    if a == old:
        return 0
    nb = sigma.spins[spec.neighbor_lists[i]]
    return int(np.count_nonzero(nb != a)) - int(np.count_nonzero(nb != old))


# ---------------------------------------------------------------------------
# Pillar statistics and the pillar lower bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PillarStats:
    """Counts of monochromatic pillars per spin; ``d`` is their total."""

    d_a: dict
    d: int


def pillar_stats(sigma: SpinConfig) -> PillarStats:
    if not isinstance(sigma.spec, LatticeSpec):
        raise TypeError("pillar_stats expects a 3D configuration")
    spec = sigma.spec
    arr = sigma.array3d  # (M, L, K)
    mono = np.all(arr == arr[0:1], axis=0)  # (L, K) bool
    counts: dict[int, int] = {a: 0 for a in range(1, spec.q + 1)}
    vals = arr[0][mono]
    for v in vals:
        counts[int(v)] += 1
    return PillarStats(d_a=counts, d=int(mono.sum()))


def pillar_lower_bound(sigma: SpinConfig) -> int:
    """``2KL - 2 d(sigma) + sum of floor energies`` (periodic lattices).

    A lower bound for ``energy(sigma)``, tight exactly when every
    non-monochromatic pillar has 1D energy 2.
    """
    spec = sigma.spec
    if not isinstance(spec, LatticeSpec) or spec.boundary != PERIODIC:
        raise ValueError("pillar_lower_bound applies to periodic 3D lattices")
    floors, _ = decompose(sigma)
    return 2 * spec.K * spec.L - 2 * pillar_stats(sigma).d + sum(floors)


# ---------------------------------------------------------------------------
# 2D bridges, crosses, and the low-energy trichotomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BridgeStats:
    """Monochromatic full rows/columns of a 2D configuration, per spin.

    ``B_a[a]`` counts rows plus columns entirely of spin ``a``; ``cross[a]``
    is true when there is at least one such row *and* one such column.
    """

    B_a: dict
    cross: dict


def bridge_stats(eta: SpinConfig) -> BridgeStats:
    if not isinstance(eta.spec, Lattice2D):
        raise TypeError("bridge_stats expects a 2D configuration")
    spec = eta.spec
    arr = eta.spins.reshape(spec.L, spec.K)  # rows indexed by l, columns by k
    B: dict[int, int] = {a: 0 for a in range(1, spec.q + 1)}
    rows: dict[int, int] = {a: 0 for a in range(1, spec.q + 1)}
    cols: dict[int, int] = {a: 0 for a in range(1, spec.q + 1)}
    for l in range(spec.L):
        row = arr[l]
        if np.all(row == row[0]):
            rows[int(row[0])] += 1
    for k in range(spec.K):
        col = arr[:, k]
        if np.all(col == col[0]):
            cols[int(col[0])] += 1
    for a in B:
        B[a] = rows[a] + cols[a]
    cross = {a: (rows[a] > 0 and cols[a] > 0) for a in B}
    return BridgeStats(B_a=B, cross=cross)


@dataclass(frozen=True)
class Low2DClass:
    """Result of the sub-saddle 2D classification.

    ``kind`` is one of:

    * ``"L1"`` -- a two-spin slab with both bands at least 2 wide
      (parameters ``v`` = minority-band width, ``a`` majority, ``b``
      minority, ``axis`` the slab direction);
    * ``"L2"`` -- a two-spin slab whose minority band has width 1;
    * ``"L3"`` -- the configuration has a full row and a full column of
      spin ``a`` (in particular every monochromatic configuration);
    * ``"none"`` -- energy at or above the 2D saddle ``2K + 2``.
    """

    kind: str
    v: int | None = None
    a: int | None = None
    b: int | None = None
    axis: str | None = None


def classify_2d_lowenergy(eta: SpinConfig) -> Low2DClass:
    """Classify a periodic 2D configuration with energy below ``2K + 2``.

    Below the 2D saddle value, exactly one of the following holds: the
    configuration is a two-spin slab with wide bands (L1), a slab with a
    width-1 minority band (L2), or it carries a monochromatic row and
    column of a common spin (L3) -- in which case the total count of
    minority spins is at most ``energy**2 / 16``.  Configurations at or
    above the saddle return ``"none"``.
    """
    spec = eta.spec
    if not isinstance(spec, Lattice2D) or spec.boundary != PERIODIC:
        raise ValueError("classify_2d_lowenergy applies to periodic 2D tori")
    H = energy(eta)
    if H >= 2 * spec.K + 2:
        return Low2DClass(kind="none")
    # A slab has constant rows taking two values, the smaller one (b) on a
    # single circular band of rows (so the other value is on one too).  Rows
    # first, then columns on a square floor, the only floor where such
    # column slabs stay below the saddle.
    for label, perm in axis_images((spec.L, spec.K)).items():
        arr = eta.spins[perm].reshape(spec.L, spec.K)
        vals = np.unique(arr[:, 0])
        band = arr[:, 0] == vals[0]
        if not ((arr == arr[:, :1]).all() and len(vals) == 2
                and np.count_nonzero(band != np.roll(band, 1)) == 2):
            continue
        v, a, b = int(band.sum()), int(vals[1]), int(vals[0])
        axis = "lk"[int(label[0])]  # the floor axis indexing the image's rows
        if 2 <= v <= spec.L - 2:
            return Low2DClass(kind="L1", v=v, a=a, b=b, axis=axis)
        if v == 1:
            return Low2DClass(kind="L2", v=1, a=a, b=b, axis=axis)
        # v == L-1: same slab seen as a width-1 band of the other spin
        return Low2DClass(kind="L2", v=1, a=b, b=a, axis=axis)

    bs = bridge_stats(eta)
    for a in range(1, spec.q + 1):
        if bs.cross[a]:
            return Low2DClass(kind="L3", a=a)
    return Low2DClass(kind="none")
