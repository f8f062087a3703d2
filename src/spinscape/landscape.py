"""Brute-force ground truth on enumerable state spaces.

State codes are base-q integers in the fixed linear site order (site 0 the
least significant digit, digit value ``spin - 1``).  The module provides
exhaustive enumeration with exact energies, symmetry quotients of the
enumerated spaces, bottleneck (min-max) communication heights,
energy-ceiling neighborhoods, valley depths, the barrier formula
evaluator with "outside theorem hypothesis" flagging, and the
typical-configuration machinery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import canon
from .canon import mk_mK  # noqa: F401  (re-exported convenience)
from .lattice import Lattice2D, LatticeSpec, PERIODIC, SpinConfig, monochrome

__all__ = [
    "StateSpace",
    "Quotient",
    "enumerate_space",
    "state_indices",
    "CeilingSet",
    "comm_height",
    "neighborhood",
    "valley_depths",
    "gamma_formula",
    "barrier_report",
    "NON_REPRODUCIBLE_CLAIMS",
    "TypicalSets",
    "typical_sets",
    "export_set",
]

DEFAULT_STATE_LIMIT = 2 ** 26

#: Results quoted at full scale (minimum linear size 2829) that are not
#: reproducible on desk-scale instances.  Every barrier/constants report
#: embeds this ledger; small-K disagreements with the closed formulas are
#: flagged "outside theorem hypothesis", not failures.
NON_REPRODUCIBLE_CLAIMS = [
    "energy barrier formula 2KL+2K+2 is proved only for K >= 2829",
    "prefactor limits K*L*M*kappa -> 1/8, 1/16, 1/48 require K -> infinity",
    "edge-constant bound e(n) <= K^(-1/3) is proved only for K >= 2829",
]


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

@dataclass
class StateSpace:
    """An exhaustively enumerated configuration space with exact energies."""

    spec: object  # LatticeSpec or Lattice2D
    energies: np.ndarray  # (n_states,) int32
    spins_matrix: np.ndarray  # (n_states, n_sites) uint8, values 0..q-1

    @property
    def n_states(self) -> int:
        return len(self.energies)

    @property
    def n_sites(self) -> int:
        return self.spec.n_sites

    @property
    def q(self) -> int:
        return self.spec.q

    # -- codes and configs -------------------------------------------------

    def config(self, state: int) -> SpinConfig:
        return SpinConfig(self.spec, self.spins_matrix[state].astype(np.int16) + 1)

    def index_of(self, sigma: SpinConfig) -> int:
        if sigma.spec != self.spec:
            raise ValueError("configuration spec does not match the space")
        return int(sigma.code)

    def ground_states(self) -> dict[int, int]:
        """Map ``spin a -> state index of the constant-a configuration``."""
        return {
            a: self.index_of(monochrome(self.spec, a))
            for a in range(1, self.q + 1)
        }

    # -- move tables -------------------------------------------------------

    def moves_from(self, states=None) -> np.ndarray:
        """(len(states), n_sites*(q-1)) int32 target state of every
        single-site move out of each of ``states`` (all states when None)."""
        if states is None:
            codes, digits = np.arange(self.n_states, dtype=np.int32), self.spins_matrix
        else:
            codes = np.asarray(states, dtype=np.int32)
            digits = self.spins_matrix[codes]
        n, q = self.n_sites, self.q
        mt = np.empty((len(codes), n * (q - 1)), dtype=np.int32)
        pow_q = 1
        for i in range(n):
            old = digits[:, i].astype(np.int32)
            for r in range(q - 1):
                new = r + (r >= old)
                mt[:, i * (q - 1) + r] = codes + (new - old) * pow_q
            pow_q *= q
        return mt

    def move_table(self) -> np.ndarray:
        """(n_states, n_sites*(q-1)) int32 target state of every single-site move."""
        if not hasattr(self, "_move_table"):
            self._move_table = self.moves_from()
        return self._move_table

    def site_image(self, perm: np.ndarray) -> np.ndarray:
        """(n_states,) int32 state whose spins are each state's ``spins[perm]``
        (site ``i`` takes the spin of site ``perm[i]``), for a permutation
        ``perm`` of the sites, as in :func:`~spinscape.lattice.axis_images`."""
        image = np.zeros(self.n_states, dtype=np.int32)
        for i, p in enumerate(perm):
            image += self.spins_matrix[:, int(p)] * np.int32(self.q ** i)
        return image

    def energy_levels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`_energy_levels` of the energies, cached."""
        if not hasattr(self, "_levels"):
            self._levels = _energy_levels(self.energies)
        return self._levels

    def colouring(self) -> np.ndarray | None:
        """A proper 2-colouring of the single-flip graph: at q=2 the parity
        of each state's spin-2 count, which every flip changes by one;
        ``None`` at q >= 3, where three recolourings of a site are pairwise
        adjacent."""
        return np.bitwise_xor.reduce(self.spins_matrix, axis=1).view(bool) if self.q == 2 else None

    def orbits(self, perms) -> tuple[np.ndarray, int]:
        """Label every state by its orbit under the group generated by the
        site permutations ``perms`` (each as in :meth:`site_image`).
        Returns ``(labels, m)`` with int32 labels in ``0..m-1`` numbered in
        the order of each orbit's least state (int32 like the move tables,
        to halve the lumping's index arrays).

        Each state's least orbit member is found by min-propagation over
        the generators' images: ``least = min(least, least[image])`` until
        nothing changes."""
        images = [self.site_image(perm) for perm in perms]
        least, before = np.arange(self.n_states, dtype=np.int32), None
        while before is None or not np.array_equal(least, before):
            before = least
            for image in images:
                least = np.minimum(least, least[image])
        is_rep = least == np.arange(self.n_states)
        labels = (np.cumsum(is_rep, dtype=np.int32) - 1)[least]
        return labels, int(np.count_nonzero(is_rep))

    def symmetry_quotient(self) -> tuple[np.ndarray, Quotient]:
        """The :meth:`orbits` of the lattice's symmetry group
        (``spec.symmetry_generators()``) and the :meth:`quotient` by them,
        computed at the first call and cached, like the move table."""
        if not hasattr(self, "_symmetry_quotient"):
            labels, m = self.orbits(self.spec.symmetry_generators())
            self._symmetry_quotient = labels, self.quotient(labels, m)
        return self._symmetry_quotient

    def quotient(self, labels: np.ndarray, m: int) -> Quotient:
        """The :class:`Quotient` of the single-flip graph by the ``m``
        classes of the int32 ``labels`` (``0..m-1``, one per state)."""
        rep = np.empty(m, dtype=np.int32)
        rep[labels] = np.arange(self.n_states, dtype=np.int32)  # any member will do
        colouring = self.colouring()
        return Quotient(
            energies=self.energies[rep], size=np.bincount(labels, minlength=m),
            moves=labels[self.moves_from(rep)],
            grounds={a: int(labels[s]) for a, s in self.ground_states().items()}, q=self.q,
            colours=None if colouring is None else colouring[rep])


@dataclass
class Quotient:
    """A state space's single-flip graph divided by classes of states
    (:meth:`StateSpace.quotient`), taken by :func:`comm_height`,
    :func:`neighborhood`, :func:`valley_depths` and
    :func:`~spinscape.potential.chain_from_space` as they take the space.
    It holds only its own arrays, not the space's.

    The classes must be orbits of a group of lattice symmetries.  Then
    every member of a class has the same energy and the same moves into
    each class, so one representative's moves stand for all of them.  If
    classes ``I`` and ``J`` are adjacent, every member of ``I`` has a
    neighbour in ``J`` (symmetries preserve adjacency), so every path of
    classes lifts to a path of states with the same energies.  Between
    states the group fixes, such as the monochrome states, heights are
    thus the space's, and equilibrium potentials are constant on classes,
    so the lumped chain keeps their capacity and ``sum mu h`` (Kemeny and
    Snell, *Finite Markov Chains*, 1960).  Symmetries keep spin counts, so
    a representative's parity is its class's :meth:`colouring`."""

    energies: np.ndarray  # (m,) int32 energy of each class
    size: np.ndarray  # (m,) number of states in each class
    moves: np.ndarray  # (m, n_moves) int32 class reached by each move of a representative
    grounds: dict  # spin a -> class of the constant-a configuration
    q: int  # spin values per site of the space
    colours: np.ndarray | None  # (m,) bool spin-2 count parity of each class at q=2, else None

    @property
    def n_states(self) -> int:
        return len(self.energies)

    def move_table(self) -> np.ndarray:
        return self.moves

    def colouring(self) -> np.ndarray | None:
        return self.colours

    def energy_levels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`_energy_levels` of the energies, cached."""
        if not hasattr(self, "_levels"):
            self._levels = _energy_levels(self.energies)
        return self._levels

    def ground_states(self) -> dict[int, int]:
        """Map ``spin a -> class of the constant-a configuration``."""
        return dict(self.grounds)


def _energy_levels(energies: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes sorted by energy, the distinct energies, and the slice
    ``bounds[j]:bounds[j+1]`` of the sorted nodes at ``levels[j]``."""
    order = np.argsort(energies, kind="stable").astype(np.int32)
    levels, starts = np.unique(energies[order], return_index=True)
    return order, levels, np.append(starts, len(order))


def enumerate_space(spec, limit: int = DEFAULT_STATE_LIMIT) -> StateSpace:
    """Enumerate all ``q**n_sites`` configurations with exact energies.

    Refuses (reporting the required budget) when the space exceeds
    ``limit`` states.
    """
    n = spec.n_sites
    q = spec.q
    n_states = q ** n
    if n_states >= 2 ** 31:
        raise ValueError(
            f"state space has {n_states} states; move tables store state "
            "indices as int32, so at most 2**31 - 1 states are supported"
        )
    if n_states > limit:
        raise ValueError(
            f"state space has {n_states} states, over the limit {limit}; "
            f"pass limit>={n_states} to force"
        )
    digits = np.empty((n_states, n), dtype=np.uint8)
    c = np.arange(n_states, dtype=np.int32)  # the codes, peeled digit by digit
    for i in range(n):
        digits[:, i] = c % q
        c //= q
    del c
    energies = np.zeros(n_states, dtype=np.int32)
    for i, j in spec.bonds:
        energies += digits[:, i] != digits[:, j]
    return StateSpace(spec=spec, energies=energies, spins_matrix=digits)


# ---------------------------------------------------------------------------
# Bottleneck communication heights
# ---------------------------------------------------------------------------

def _minimax_heights(energies: np.ndarray, moves: np.ndarray, by_energy, roots,
                     ceiling=None, avoid=None, stop=None) -> np.ndarray:
    """Per-node min over paths from ``roots`` of the max energy (inclusive
    of endpoints); -1 where no path stays at or below ``ceiling`` and
    outside the ``avoid`` mask.

    The graph is given by its node ``energies``, the ``moves`` table whose
    row ``x`` lists the neighbours of node ``x``, and ``by_energy``, the
    energies' :func:`_energy_levels`: a state space's single-flip graph, or
    a :class:`Quotient` of it whose nodes are classes of states.  Every
    move must be reversible: ``y`` is in row ``x`` exactly when ``x`` is in
    row ``y``.  Single-flip graphs are, and so are quotients by orbits of
    lattice symmetries.

    Nodes are released level by level in order of energy.  At level h the
    released nodes touching an already reached node, plus the roots at h,
    seed a flood fill over the released nodes, which marks everything it
    reaches with h.  With a ``stop`` index array the sweep ends after the
    first level that reaches one of its nodes.

    Each node's row is gathered once, when the flood reaches it.  The
    targets of that gather are marked ``touched``, which by reversibility
    is "has a reached neighbour", so a level's seeds are its touched nodes.
    A wave drops repeated targets by writing a distinct negative stamp per
    position into ``height`` and keeping the copies whose stamp survived;
    the next wave overwrites the stamps with the level.
    """
    order, levels, bounds = by_energy
    n = len(energies)
    height = np.full(n, -1, dtype=np.int64)
    # 0 released and not reached, 1 reached, 2 above the level or avoided
    status = np.full(n, 2, dtype=np.uint8)
    touched = np.zeros(n, dtype=bool)
    touched[roots] = True
    for j, level in enumerate(levels):
        if ceiling is not None and level > ceiling:
            break
        new = order[bounds[j]:bounds[j + 1]]
        if avoid is not None:
            new = new[~avoid[new]]
        status[new] = 0
        frontier = new[touched[new]]
        while len(frontier):
            height[frontier] = level
            status[frontier] = 1
            nxt = moves[frontier].ravel()
            touched[nxt] = True
            nxt = nxt[status[nxt] == 0]
            stamp = np.arange(-1, -1 - len(nxt), -1)
            height[nxt] = stamp
            frontier = nxt[height[nxt] == stamp]
        if stop is not None and (status[stop] == 1).any():
            break
    return height


def comm_height(space: StateSpace | Quotient, source, target, avoid=None):
    """Exact min over paths of the max energy (inclusive of endpoints).

    ``source`` and ``target`` are state indices or iterables of indices
    (multi-source/multi-target); indices of any dtype but an integer one
    raise ``ValueError``.  ``avoid`` is an optional forbidden set of
    state indices (an iterable, or a boolean mask of shape ``(n_states,)``;
    a mask of any other shape raises ``ValueError``); returns ``None``
    when the endpoints are disconnected under the restriction.
    """
    src = state_indices(source, space.n_states, "source")
    dst = state_indices(target, space.n_states, "target")
    blocked = _as_mask(space, avoid)
    if blocked is not None and (blocked[src].any() or blocked[dst].any()):
        raise ValueError("an endpoint lies in the avoid set")
    height = _minimax_heights(space.energies, space.move_table(), space.energy_levels(), src,
                              avoid=blocked, stop=dst)[dst]
    reached = height[height >= 0]
    return int(reached.min()) if len(reached) else None


def state_indices(states, n: int, role: str) -> np.ndarray:
    """``states`` as int64 indices into ``n`` nodes; ``ValueError``, naming
    the ``role``, on a non-integer dtype or an index outside ``[0, n)``."""
    idx = np.atleast_1d(np.asarray(states))
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        # a boolean mask would read as the indices 0 and 1, floats would truncate
        raise ValueError(f"{role} indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    bad = idx[(idx < 0) | (idx >= n)]
    if len(bad):
        raise ValueError(f"{role} index {int(bad[0])} outside [0, {n})")
    return idx


def _as_mask(space: StateSpace | Quotient, avoid) -> np.ndarray | None:
    if avoid is None:
        return None
    arr, n = np.asarray(avoid), space.n_states
    if arr.dtype == bool:
        if arr.shape != (n,):
            raise ValueError(f"a boolean avoid mask must have shape ({n},), got shape {arr.shape}")
        return arr
    mask = np.zeros(n, dtype=bool)
    mask[state_indices(arr, n, "avoid")] = True
    return mask


# ---------------------------------------------------------------------------
# Ceiling neighborhoods
# ---------------------------------------------------------------------------

@dataclass
class CeilingSet:
    """States reachable from the roots by paths never exceeding ``ceiling``
    (optionally avoiding a forbidden set)."""

    ceiling: int
    mask: np.ndarray  # boolean over states

    @property
    def states(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __contains__(self, state: int) -> bool:
        return bool(self.mask[state])

    def __len__(self) -> int:
        return int(self.mask.sum())


def neighborhood(space: StateSpace | Quotient, roots, ceiling: int, avoid=None) -> CeilingSet:
    """Flood fill under an energy ceiling.

    Roots with energy above the ceiling contribute nothing (a root above
    the ceiling alone yields the empty set).  Roots are integer indices, as
    in :func:`comm_height`.  States in ``avoid`` (given as to
    :func:`comm_height`) are never entered; roots inside ``avoid`` are
    rejected.
    """
    roots = state_indices(roots, space.n_states, "root")
    blocked = _as_mask(space, avoid)
    if blocked is not None and blocked[roots].any():
        raise ValueError("a root lies in the avoid set")
    mask = _minimax_heights(space.energies, space.move_table(), space.energy_levels(), roots,
                            ceiling=ceiling, avoid=blocked) >= 0
    return CeilingSet(ceiling=ceiling, mask=mask)


# ---------------------------------------------------------------------------
# Valley depths
# ---------------------------------------------------------------------------

def valley_depths(space: StateSpace | Quotient) -> np.ndarray:
    """Per-state ``Phi(sigma, ground states) - H(sigma)``.

    The minimax heights from the ground states, less the energies.
    """
    phi = _minimax_heights(space.energies, space.move_table(), space.energy_levels(),
                           list(space.ground_states().values()))
    if (phi < 0).any():  # pragma: no cover - irreducible spaces always settle
        raise RuntimeError("disconnected state space")
    return phi - space.energies


# ---------------------------------------------------------------------------
# Barrier formulas and reporting
# ---------------------------------------------------------------------------

THEOREM_MIN_K = 2829


def gamma_formula(spec) -> int:
    """The closed-form energy barrier of the instance's lattice."""
    if isinstance(spec, Lattice2D):
        return 2 * spec.K + 2 if spec.boundary == PERIODIC else spec.K + 1
    if spec.boundary == PERIODIC:
        return 2 * spec.K * spec.L + 2 * spec.K + 2
    return spec.K * spec.L + spec.K + 1


def barrier_report(spec, brute: int | None = None) -> dict:
    """Formula vs brute-force barrier with hypothesis flagging."""
    formula = gamma_formula(spec)
    met = spec.K >= THEOREM_MIN_K
    report = {
        "lattice": _spec_descriptor(spec),
        "formula": formula,
        "brute": brute,
        "theorem_hypothesis_met": met,
        "non_reproducible": NON_REPRODUCIBLE_CLAIMS,
    }
    if not met:
        report["note"] = "outside theorem hypothesis"
    if brute is not None:
        report["match"] = brute == formula
        if brute != formula and met:
            report["note"] = "MISMATCH inside hypothesis range"
    return report


def _spec_descriptor(spec) -> dict:
    if isinstance(spec, LatticeSpec):
        dims = {"K": spec.K, "L": spec.L, "M": spec.M}
    else:
        dims = {"K": spec.K, "L": spec.L}
    dims.update({"q": spec.q, "boundary": spec.boundary})
    return dims


# ---------------------------------------------------------------------------
# Typical configuration sets
# ---------------------------------------------------------------------------

@dataclass
class TypicalSets:
    """All the level-set families describing the saddle plateau.

    State sets are boolean masks over the space.  ``R[i]`` are the slab
    (regular) configurations with ``i`` minority floors, ``R_hat[i]`` their
    gateway-avoiding ceiling closures, ``G_slices[i]`` the gateway states
    at slice ``i``, ``bulk``/``edge_A``/``edge_B`` the saddle-plateau
    split, ``O_A``/``I_A`` the at-ceiling/below-ceiling split of the A-edge
    set, ``class_rep_A`` maps each below-ceiling state to the smallest
    state of its sub-ceiling connected class, and ``H_AB`` is the
    transition-path corridor.
    """

    space: StateSpace
    A: tuple
    B: tuple
    gamma: int
    m_K: int
    R: dict
    R_hat: dict
    G_slices: dict
    G_mask: np.ndarray
    bulk: np.ndarray
    edge_A: np.ndarray
    edge_B: np.ndarray
    O_A: np.ndarray
    I_A: np.ndarray
    Ibar_A: np.ndarray
    class_rep_A: dict
    H_AB: np.ndarray
    hat_S: np.ndarray
    checks: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)


def typical_sets(space: StateSpace, A, B, gamma: int | None = None) -> TypicalSets:
    """Build the saddle-plateau set families on an enumerable instance.

    ``A``/``B`` partition the spin values.  ``gamma`` defaults to the
    brute-force barrier between the two ground families (the honest
    ceiling of the instance).  Instances whose height window collapses
    (``M < 2*m_K + 1``) are built literally with a recorded warning.
    """
    spec = space.spec
    if not isinstance(spec, LatticeSpec):
        raise TypeError("typical_sets expects a 3D state space")
    A = tuple(sorted(A))
    B = tuple(sorted(B))
    if set(A) & set(B) or set(A) | set(B) != set(range(1, spec.q + 1)):
        raise ValueError("A and B must partition the spin values")
    warnings_list: list[str] = []
    grounds = space.ground_states()
    S_A = [grounds[a] for a in A]
    S_B = [grounds[b] for b in B]
    if gamma is None:
        gamma = comm_height(space, S_A, S_B)
    m_K = mk_mK(spec.K)
    M = spec.M
    if M < 2 * m_K + 1:
        warnings_list.append(
            f"degenerate height window: M={M} < 2*m_K+1={2 * m_K + 1}; "
            "sets built literally from the definitions"
        )

    n = space.n_states

    # Regular (slab) families and gateway slices
    R: dict[int, np.ndarray] = {}
    for i in range(0, M + 1):
        codes = {
            space.index_of(img)
            for a in A
            for b in B
            for P in canon.arcs_of_length(M, i, spec.boundary)
            for img in canon.build_regular(spec, a, b, P).upsilon_orbit()
        }
        R[i] = np.array(sorted(codes), dtype=np.int64)

    G_slices: dict[int, np.ndarray] = {}
    G_mask = np.zeros(n, dtype=bool)
    if spec.boundary == PERIODIC:
        for a in A:
            for b in B:
                for i, code_list in canon.generate_gateways(spec, a, b).items():
                    cur = set(G_slices[i].tolist()) if i in G_slices else set()
                    cur.update(code_list)
                    G_slices[i] = np.array(sorted(cur), dtype=np.int64)
        for codes in G_slices.values():
            G_mask[codes] = True
    else:
        warnings_list.append(
            "open boundary: no gateway family is defined; gateway slices empty"
        )

    # Ceiling closures of the slab families, avoiding the gateway set
    R_hat: dict[int, np.ndarray] = {}
    for i, codes in R.items():
        if len(codes) == 0:
            R_hat[i] = codes
            continue
        cs = neighborhood(space, codes, gamma, avoid=G_mask)
        R_hat[i] = cs.states

    def mask_of(codes_list) -> np.ndarray:
        m = np.zeros(n, dtype=bool)
        for codes in codes_list:
            m[codes] = True
        return m

    def g_range(lo: int, hi: int) -> np.ndarray:
        m = np.zeros(n, dtype=bool)
        for i, codes in G_slices.items():
            if lo <= i <= hi:
                m[codes] = True
        return m

    bulk = g_range(m_K, M - m_K - 1) | mask_of(
        [R_hat[i] for i in range(m_K, M - m_K + 1) if i in R_hat]
    )
    edge_A = g_range(m_K - 1, m_K - 1) | mask_of(
        [R_hat[i] for i in range(0, m_K + 1)]
    )
    edge_B = g_range(M - m_K, M - m_K) | mask_of(
        [R_hat[i] for i in range(M - m_K, M + 1)]
    )
    H_AB = G_mask | mask_of([R_hat[i] for i in range(m_K, M - m_K + 1) if i in R_hat])

    E = space.energies
    O_A = edge_A & (E == gamma)
    I_A = edge_A & (E < gamma)

    # Sub-ceiling classes of the A-edge set, with smallest-state representatives
    class_rep_A: dict[int, int] = {}
    Ibar: set[int] = set()
    seen = np.zeros(n, dtype=bool)
    for s in np.flatnonzero(I_A):
        s = int(s)
        if seen[s]:
            continue
        comp = neighborhood(space, [s], gamma - 1).states
        seen[comp] = True
        if not I_A[comp].all():
            warnings_list.append(
                f"sub-ceiling class of state {s} is not contained in the "
                "A-edge set (degenerate instance); clipped to it"
            )
            comp = comp[I_A[comp]]
        rep = int(comp.min())
        Ibar.add(rep)
        for t in comp:
            class_rep_A[int(t)] = rep
    Ibar_A = np.array(sorted(Ibar), dtype=np.int64)

    hat_S = neighborhood(space, list(grounds.values()), gamma).states
    hat_S_mask = np.zeros(n, dtype=bool)
    hat_S_mask[hat_S] = True

    checks = {
        "edge_A_disjoint_edge_B": not (edge_A & edge_B).any(),
        "edge_A_cap_bulk_eq_Rhat_mK": bool(
            np.array_equal(
                np.flatnonzero(edge_A & bulk),
                np.asarray(R_hat.get(m_K, np.empty(0, dtype=np.int64))),
            )
        ),
        "union_eq_hat_S": bool(
            np.array_equal(
                np.flatnonzero(edge_A | edge_B | bulk),
                np.flatnonzero(hat_S_mask),
            )
        ),
        "S_A_in_edge_A": bool(edge_A[S_A].all()),
    }
    if not checks["edge_A_disjoint_edge_B"]:
        warnings_list.append(
            "edge sets overlap: the instance is too small for the plateau "
            "split to separate the two sides (degenerate instance)"
        )

    return TypicalSets(
        space=space,
        A=A,
        B=B,
        gamma=int(gamma),
        m_K=m_K,
        R=R,
        R_hat=R_hat,
        G_slices=G_slices,
        G_mask=G_mask,
        bulk=bulk,
        edge_A=edge_A,
        edge_B=edge_B,
        O_A=O_A,
        I_A=I_A,
        Ibar_A=Ibar_A,
        class_rep_A=class_rep_A,
        H_AB=H_AB,
        hat_S=hat_S_mask,
        checks=checks,
        warnings=warnings_list,
    )


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def export_set(path, codes, name: str, params: dict) -> None:
    """Write a state set: a JSON header line, then sorted codes one per line."""
    codes = np.sort(np.asarray(codes, dtype=np.int64))
    header = {"set": name, "params": params, "count": int(len(codes))}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for c in codes:
            fh.write(f"{int(c)}\n")
