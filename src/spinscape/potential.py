"""Exact potential theory on enumerated spaces.

Dirichlet forms, equilibrium potentials (sparse symmetric solves),
capacities, mean hitting times (two independent routes), spectral gaps,
harmonic unit currents, the auxiliary uniform-measure chain on
edge-typical classes with its capacity, the prefactor constants pipeline,
and the test function with its H1 diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh

from .canon import classify_gateway, mk_mK
from .landscape import (NON_REPRODUCIBLE_CLAIMS, Quotient, StateSpace, TypicalSets,
                        comm_height, enumerate_space, neighborhood)

__all__ = [
    "WeightedChain",
    "chain_from_space",
    "dirichlet",
    "dirichlet_generator",
    "equilibrium_potential",
    "potential_classes",
    "capacity",
    "unit_current",
    "mean_hitting_exact",
    "spectral_gap",
    "AuxChain",
    "build_aux_chain",
    "aux_capacity",
    "e_constant",
    "ConstantsBundle",
    "kappa2d_stand_in",
    "constants",
    "test_function",
    "h1_diagnostics",
]


# ---------------------------------------------------------------------------
# Weighted chains
# ---------------------------------------------------------------------------

@dataclass
class WeightedChain:
    """A reversible chain given by its edge conductances.

    ``mu`` is the invariant probability; conductance
    ``c_e = mu(x) r(x, y) = mu(y) r(y, x)`` is symmetric.  ``size`` counts
    the states of each node when the nodes are classes of states (the
    chain of a :class:`~spinscape.landscape.Quotient`).
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    cond: np.ndarray
    mu: np.ndarray
    size: np.ndarray | None = None
    #: ``(space, beta)`` of a chain that :func:`chain_from_space` built
    #: from an enumerated space, for :attr:`symmetry_lumping`
    origin: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def symmetry_lumping(self) -> tuple[np.ndarray, "WeightedChain"] | None:
        """``(labels, chain)``: the lattice-symmetry orbits of the space
        this chain was built from and the chain lumped by them, built from
        orbit representatives at the first use; ``None`` for a chain with
        no ``origin``."""
        if self.origin is None:
            return None
        space, beta = self.origin
        labels, quotient = space.symmetry_quotient()
        return labels, chain_from_space(quotient, beta)

    def laplacian(self) -> sp.csr_matrix:
        """The symmetric conductance Laplacian ``L`` with
        ``(L f)(x) = sum_y c_xy (f(x) - f(y))``."""
        return self._laplacian_on(np.ones(self.n, dtype=bool))

    def _laplacian_on(self, keep: np.ndarray) -> sp.csr_matrix:
        """``L`` restricted to the boolean mask ``keep``: off-diagonals from
        the edges with both ends kept, the full degree on the diagonal.

        CSR with int32 indices, each row written as its lower part, its
        diagonal and its upper part, in increasing column order.  The kept
        edges, grouped by their lower end (every chain built here lists
        them so; others are regrouped by a stable sort), are the rows of
        the upper part and are written first.  scipy's counting sort then
        transposes the positions they were written to, and the lower part
        is copied from there.  Each temporary is released once spent, so
        the peak is the matrix plus about 20 bytes per edge."""
        deg = self._onto_ends(self.cond, self.cond)[keep]
        m = len(deg)
        pos = np.cumsum(keep, dtype=np.int32) - 1
        both = keep[self.src] & keep[self.dst]
        lo, hi, neg = pos[self.src[both]], pos[self.dst[both]], -self.cond[both]
        flip = lo > hi
        if flip.any():
            lo[flip], hi[flip] = hi[flip], lo[flip]
        del pos, both, flip
        if np.any(lo[1:] < lo[:-1]):
            order = np.argsort(lo, kind="stable")
            lo, hi, neg = lo[order], hi[order], neg[order]
            del order
        upper_ptr = np.searchsorted(lo, np.arange(m + 1, dtype=np.int32))
        del lo
        n_lower = np.bincount(hi, minlength=m)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(n_lower + np.diff(upper_ptr) + 1, out=indptr[1:])
        if indptr[-1] >= 2 ** 31:
            raise ValueError(f"the Laplacian has {indptr[-1]} entries; its int32 "
                             "indices address at most 2**31 - 1")
        indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
        at_diag = indptr[:-1] + n_lower
        indices[at_diag], data[at_diag] = np.arange(m), deg
        at = _row_positions(at_diag + 1, upper_ptr)
        indices[at], data[at] = hi, neg
        del neg
        # the lower part, row by row: the column and the position written above
        lower = sp.csr_matrix((at, hi, upper_ptr), shape=(m, m)).T.tocsr()
        del at, hi
        at = _row_positions(indptr[:-1], lower.indptr)
        indices[at], data[at] = lower.indices, data[lower.data]
        del at, lower
        A = sp.csr_matrix((data, indices, indptr), shape=(m, m))
        A.sum_duplicates()  # sorts rows whose upper part came unsorted, merges repeated edges
        return A

    def _onto_ends(self, at_src: np.ndarray, at_dst: np.ndarray) -> np.ndarray:
        """Sum ``at_src`` onto each edge's source, then ``at_dst`` onto its
        destination, each in edge order."""
        out = np.zeros(self.n)
        np.add.at(out, self.src, at_src)
        np.add.at(out, self.dst, at_dst)
        return out

    def generator_apply(self, f: np.ndarray) -> np.ndarray:
        """``(L_gen f)(x) = sum_y r(x,y) (f(y) - f(x))``."""
        flux = self.cond * (f[self.dst] - f[self.src])
        return self._onto_ends(flux, -flux) / self.mu

    def lumped(self, labels: np.ndarray, m: int) -> "WeightedChain":
        """The chain on the ``m`` classes of ``labels``: the conductances
        between two classes summed, intra-class edges dropped, the masses
        summed.  Dirichlet problems whose solution is constant on every
        class (classes that are orbits of a symmetry group fixing the
        boundary) keep their capacity and ``sum mu h`` exactly."""
        c = sp.csr_matrix((self.cond, (labels[self.src], labels[self.dst])), shape=(m, m))
        c = sp.triu(c + c.T, k=1).tocoo()  # each class pair once, the diagonal dropped
        return WeightedChain(n=m, src=c.row, dst=c.col, cond=c.data,
                             mu=np.bincount(labels, self.mu, minlength=m))


def _row_positions(first: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """int32 position ``first[r] + j`` for the ``j``-th entry of each row
    ``r`` of a CSR matrix with row pointers ``indptr``."""
    at = np.repeat((first - indptr[:-1]).astype(np.int32), np.diff(indptr))
    at += np.arange(indptr[-1], dtype=np.int32)
    return at


def chain_from_space(space: StateSpace | Quotient, beta: float) -> WeightedChain:
    """The Metropolis chain at inverse temperature ``beta`` on an enumerated
    space or a :class:`~spinscape.landscape.Quotient` of one, whose chain
    is ``chain_from_space(space, beta).lumped(labels, m)``.

    ``mu_I = |I| w_I / Z`` with ``Z = sum_I |I| w_I``, and the conductance
    between classes ``I < J`` is ``|I| sum_{y ~ rep_I, y in J}
    exp(-beta max(E_I, E_J)) / Z``, summed per pair by scipy on a quotient
    (on an enumerated space no pair repeats).  Every edge is listed once
    from its lower end, in increasing order of both ends.
    A chain of an enumerated space records it as its ``origin``, from
    which :attr:`WeightedChain.symmetry_lumping` is built."""
    moves = space.move_table()
    m = len(moves)
    size = space.size if isinstance(space, Quotient) else None
    E = space.energies.astype(np.float64)
    w = np.exp(-beta * E)  # ground energy is 0, so no overflow
    # each class pair once, from its lower class
    up = moves > np.arange(m, dtype=np.int32)[:, None]
    frm = np.repeat(np.arange(m, dtype=np.int32), np.count_nonzero(up, axis=1))
    to = moves[up]
    del up
    cond = np.exp(-beta * np.maximum(E[frm], E[to]))
    if size is not None:
        w *= size
        cond *= size[frm]
    Z = w.sum()
    cond /= Z
    if size is None:
        # one state per class: the targets of a row are distinct and increase along it
        chain = WeightedChain(n=m, src=frm, dst=to, cond=cond, mu=w / Z)
        chain.origin = (space, beta)
        return chain
    c = sp.csr_matrix((cond, (frm, to)), shape=(m, m)).tocoo()  # summed per pair
    return WeightedChain(n=m, src=c.row, dst=c.col, cond=c.data, mu=w / Z, size=size)


# ---------------------------------------------------------------------------
# Dirichlet forms
# ---------------------------------------------------------------------------

def dirichlet(space_or_chain, f: np.ndarray, beta: float | None = None) -> float:
    """``(1/2) sum mu r (f(x) - f(y))^2`` over ordered state pairs.

    Accepts an enumerated space plus ``beta``, or a prebuilt chain.
    """
    return dirichlet_bilinear(_as_chain(space_or_chain, beta), f, f)


def dirichlet_bilinear(chain: WeightedChain, f: np.ndarray, g: np.ndarray) -> float:
    df = f[chain.dst] - f[chain.src]
    dg = g[chain.dst] - g[chain.src]
    return float(np.sum(chain.cond * df * dg))


def dirichlet_generator(space_or_chain, f: np.ndarray, beta: float | None = None) -> float:
    """The alternative expression ``<f, -L_gen f>_mu`` (same value as
    :func:`dirichlet` up to round-off; evaluated literally)."""
    chain = _as_chain(space_or_chain, beta)
    return float(np.sum(chain.mu * f * (-chain.generator_apply(f))))


def _as_chain(space_or_chain, beta) -> WeightedChain:
    if isinstance(space_or_chain, WeightedChain):
        return space_or_chain
    if beta is None:
        raise ValueError("beta required when passing a state space")
    return chain_from_space(space_or_chain, beta)


# ---------------------------------------------------------------------------
# Equilibrium potentials and capacities
# ---------------------------------------------------------------------------

#: Rows per block of the Jacobi scaling and of the extended-precision
#: residual, so that neither holds a temporary the size of the matrix.
_BLOCK_ROWS = 1024


def _row_blocks(A: sp.csr_matrix):
    """The rows, the entries and the block-local row pointers of each
    ``_BLOCK_ROWS``-row block of a CSR matrix."""
    for lo in range(0, A.shape[0], _BLOCK_ROWS):
        ptr = A.indptr[lo:lo + _BLOCK_ROWS + 1]
        yield slice(lo, lo + len(ptr) - 1), slice(ptr[0], ptr[-1]), ptr - ptr[0]


def _solve_dirichlet_problem(
    chain: WeightedChain, ones_set, zeros_set, rhs_extra: np.ndarray | None = None
) -> np.ndarray:
    """Solve ``L f = rhs`` off the boundary with ``f = 1`` on ``ones_set``
    and ``f = 0`` on ``zeros_set`` (conductance-Laplacian formulation).

    Only the reduced system is built: the Laplacian on the free states in
    CSR with int32 indices (``WeightedChain._laplacian_on``), and a
    right-hand side summed over the edges into ``ones_set`` alone (every
    other edge adds +0.0).  One solver branch runs, chosen by the number
    ``m`` of free states: a dense Cholesky factorization up to 1,000
    unknowns, Jacobi-scaled conjugate gradients above, capped at ``m``
    iterations (the bound at which CG terminates in exact arithmetic).
    Either is followed by at most three rounds of iterative refinement on
    extended-precision residuals, computed ``_BLOCK_ROWS`` rows at a
    time, which stop once the componentwise backward error is below
    2^-53; CG solves each correction to a relative residual of 1e-8.

    Raises ``RuntimeError`` when a free state has zero total conductance
    (its conductances underflowed), when the dense Cholesky factorization
    fails or when conjugate gradients do not converge; no other solver runs.
    """
    ones_set = np.atleast_1d(np.asarray(ones_set, dtype=np.int64))
    zeros_set = np.atleast_1d(np.asarray(zeros_set, dtype=np.int64))
    if len(np.intersect1d(ones_set, zeros_set)):
        raise ValueError("boundary sets must be disjoint")
    free = np.ones(chain.n, dtype=bool)
    free[np.concatenate([ones_set, zeros_set])] = False
    f = np.zeros(chain.n)
    f[ones_set] = 1.0
    if not free.any():
        return f
    A = chain._laplacian_on(free)
    m, diag = A.shape[0], A.diagonal()
    isolated = diag == 0.0
    if isolated.any():  # counted in states, also on a lumped chain
        size = np.ones(m, dtype=np.int64) if chain.size is None else chain.size[free]
        raise RuntimeError(f"{size[isolated].sum()} of {size.sum()} free states have zero total "
                           "conductance (underflowed); the Dirichlet problem is singular")
    # the f = 1 boundary enters through the conductances into ones_set, in
    # the edge order of WeightedChain._onto_ends
    b = np.zeros(chain.n)
    into = f[chain.dst] == 1.0
    np.add.at(b, chain.src[into], chain.cond[into])
    into = f[chain.src] == 1.0
    np.add.at(b, chain.dst[into], chain.cond[into])
    b = b[free]
    if rhs_extra is not None:
        b = b + rhs_extra[free]

    # CG already beats the dense factorization at 510 unknowns and by 40x
    # at 4,094 (README, Performance notes).  Sparse LU is no option:
    # state-space graphs are expander-like and fill in almost fully.
    if m <= 1_000:
        # factored in place in its F-ordered array
        try:
            factor = cho_factor(A.toarray(order="F"), lower=True, overwrite_a=True)
        except LinAlgError as err:
            raise RuntimeError(f"dense Cholesky failed on {m} unknowns: {err}") from err
        solve = lambda rhs, rtol: cho_solve(factor, rhs, check_finite=False)  # noqa: E731
    else:
        # the Jacobi-scaled system has the clustered Metropolis spectrum, so
        # conjugate gradients converge fast and accurately; D^-1/2 A D^-1/2
        # shares the structure of A
        dh = 1.0 / np.sqrt(diag)
        scaled = np.empty_like(A.data)
        for rows, entries, ptr in _row_blocks(A):
            block = A.data[entries] * dh[A.indices[entries]]
            block *= np.repeat(dh[rows], np.diff(ptr))
            scaled[entries] = block
        As = sp.csr_matrix((scaled, A.indices, A.indptr), shape=A.shape)

        def solve(rhs, rtol):
            y, info = spla.cg(As, rhs * dh, rtol=rtol, atol=0.0, maxiter=m)
            if info != 0:  # the iteration count reached
                raise RuntimeError(f"conjugate gradients did not converge on {m} "
                                   f"unknowns in {info} iterations")
            return y * dh

    x = solve(b, 1e-15)
    # iterative refinement with extended-precision residuals; a correction
    # needs only modest relative accuracy: 1e-8 keeps the componentwise
    # backward error below 2e-16, where 1e-6 and 1e-4 do not
    for _ in range(3):
        r, converged = _extended_residual(A, x, b, diag)
        if converged:
            break
        x = x + solve(r, 1e-8)
    f[free] = x
    return f


def _extended_residual(A: sp.csr_matrix, x: np.ndarray, b: np.ndarray,
                       diag: np.ndarray) -> tuple[np.ndarray, bool]:
    """``b - A x`` evaluated in ``np.longdouble`` and rounded to float64,
    and whether it meets the componentwise (Oettli-Prager) bound
    ``|r| <= 2^-53 (|A||x| + |b|)``; off the diagonal A is nonpositive, so
    ``|A||x| = 2 diag |x| - A|x|``.  One block of rows at a time is copied
    to extended precision; each row sums its entries in column order, as
    a product with the whole matrix would."""
    m = len(x)
    x_ld = x.astype(np.longdouble)
    abs_x = np.abs(x_ld)
    r = np.empty(m)
    converged = True
    for rows, entries, ptr in _row_blocks(A):
        block = sp.csr_matrix((A.data[entries].astype(np.longdouble), A.indices[entries], ptr),
                              shape=(len(ptr) - 1, m))
        b_ld = b[rows].astype(np.longdouble)
        r_ld = b_ld - block @ x_ld
        r[rows] = r_ld
        if converged:
            bound = 2 * diag[rows].astype(np.longdouble) * abs_x[rows] - block @ abs_x
            converged = bool(np.all(np.abs(r_ld) <= 2.0 ** -53 * (bound + np.abs(b_ld))))
    return r, converged


def _symmetry_lumping_for(chain: WeightedChain, P, Q):
    """The chain's :attr:`~WeightedChain.symmetry_lumping` when ``P`` and
    ``Q`` are unions of its orbits (each class they meet holds as many of
    their states as the class has), else ``None``."""
    lumping = chain.symmetry_lumping
    if lumping is None:
        return None
    labels, lumped = lumping
    for states in (P, Q):
        cls = labels[np.unique(np.asarray(states, dtype=np.int64))]
        if np.any(np.bincount(cls, minlength=lumped.n)[cls] != lumped.size[cls]):
            return None
    return lumping


def equilibrium_potential(space_or_chain, P, Q, beta: float | None = None) -> np.ndarray:
    """``h(x) = P_x[hit P before Q]``: harmonic off ``P | Q`` with boundary
    values 1 on ``P`` and 0 on ``Q``.

    On a chain built from an enumerated space, when ``P`` and ``Q`` are
    unions of lattice-symmetry orbits, every symmetry maps ``h`` to the
    potential of the same problem, so ``h`` is constant on orbits: it is
    solved on the lumped chain (:attr:`WeightedChain.symmetry_lumping`)
    and spread back to the states.  Any other problem is solved on the
    chain's states."""
    chain = _as_chain(space_or_chain, beta)
    lumping = _symmetry_lumping_for(chain, P, Q)
    if lumping is None:
        h = _solve_dirichlet_problem(chain, P, Q)
    else:
        labels, lumped = lumping
        h = _solve_dirichlet_problem(lumped, labels[P], labels[Q])[labels]
    return np.clip(h, 0.0, 1.0)


def potential_classes(chain: WeightedChain, P, Q) -> int:
    """The number of nodes :func:`equilibrium_potential` solves ``(P, Q)``
    on: the lattice-symmetry classes when it lumps, else the chain's
    states."""
    lumping = _symmetry_lumping_for(chain, P, Q)
    return chain.n if lumping is None else lumping[1].n


def capacity(space_or_chain, P, Q, beta: float | None = None) -> float:
    """Dirichlet form of the equilibrium potential between ``P`` and ``Q``."""
    chain = _as_chain(space_or_chain, beta)
    h = equilibrium_potential(chain, P, Q)
    return dirichlet(chain, h)


def unit_current(chain: WeightedChain, h: np.ndarray) -> np.ndarray:
    """``J_e = c_e (h(src) - h(dst)) / D(h)`` on the chain's edges, positive
    from ``src`` to ``dst``.  For the equilibrium potential of ``(P, Q)``
    this is the harmonic unit current: a unit flow from ``P`` to ``Q``,
    conserved off ``P | Q``, of least energy among such flows (Thomson).
    Its net outflow at each state is ``chain._onto_ends(J, -J)``."""
    return chain.cond * (h[chain.src] - h[chain.dst]) / dirichlet(chain, h)


def mean_hitting_exact(
    space_or_chain, s: int, target, beta: float | None = None, method: str = "capacity"
) -> float:
    """Expected hitting time of ``target`` from state ``s``.

    ``method="capacity"``: ``(1/Cap) * sum_x mu(x) h(x)`` with ``h`` the
    equilibrium potential of ``({s}, target)``.  ``method="direct"``:
    solve the mean-hitting linear system.  The two agree to high relative
    accuracy on well-conditioned instances.  Either route raises
    ``RuntimeError`` when its solve fails (see ``_solve_dirichlet_problem``),
    as the direct route does at large ``beta``: its dense factorization
    fails up to 1,000 unknowns, and above that conjugate gradients do not
    converge.
    """
    chain = _as_chain(space_or_chain, beta)
    target = np.atleast_1d(np.asarray(target, dtype=np.int64))
    if method == "capacity":
        h = equilibrium_potential(chain, [s], target)
        cap = dirichlet(chain, h)
        return float(np.sum(chain.mu * h) / cap)
    if method == "direct":
        # (L u)|free = mu  (conductance-symmetrized), u = 0 on the target
        u = _solve_dirichlet_problem(
            chain,
            ones_set=np.empty(0, dtype=np.int64),
            zeros_set=target,
            rhs_extra=chain.mu,
        )
        return float(u[s])
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Spectral gap
# ---------------------------------------------------------------------------

def spectral_gap(space: StateSpace, beta: float, method: str = "auto") -> float:
    """Smallest nonzero eigenvalue of the negative generator.

    ``"dense"`` symmetrizes the generator and calls a full eigensolver
    (accurate while ``beta * Gamma`` is moderate); ``"variational"``
    performs a Ritz projection onto the span of the ground-valley
    equilibrium potentials, whose Rayleigh quotients are computed from
    nonnegative sums and stay relatively accurate long after dense
    eigenvalues drown in round-off.  ``"auto"`` picks dense only when the
    eigenvalue is safely above the dense round-off floor.  Dense is refused
    when its three float64 ``n x n`` arrays would exceed 1 GiB."""
    n = space.n_states
    if method == "auto":
        method = "dense" if beta * int(space.energies.max()) <= 25 else "variational"
    if method == "dense" and 24 * n ** 2 > 2 ** 30:  # L, a division temporary and S
        raise ValueError(f"the dense spectral gap on {n} states needs {24 * n ** 2} bytes, "
                         f"over {2 ** 30}; use method='variational'")
    chain = chain_from_space(space, beta)
    if method == "dense":
        W = chain.mu
        L = chain.laplacian().toarray()
        S = L / np.sqrt(W)[:, None] / np.sqrt(W)[None, :]
        vals = np.linalg.eigvalsh(S)
        return float(vals[1])
    if method == "variational":
        grounds = space.ground_states()
        gs = sorted(grounds.values())
        if len(gs) < 2:
            raise ValueError("variational gap needs at least two ground states")
        basis = []
        for g in gs[1:]:
            others = [x for x in gs if x != g]
            basis.append(equilibrium_potential(chain, [g], others))
        A = np.empty((len(basis), len(basis)))
        B = np.empty_like(A)
        mu = chain.mu
        means = [float(np.sum(mu * f)) for f in basis]
        for i, fi in enumerate(basis):
            for j, fj in enumerate(basis):
                A[i, j] = dirichlet_bilinear(chain, fi, fj)
                B[i, j] = float(np.sum(mu * fi * fj)) - means[i] * means[j]
        vals = eigh(A, B, eigvals_only=True)
        return float(vals[0])
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Auxiliary chain on edge-typical classes
# ---------------------------------------------------------------------------

@dataclass
class AuxChain:
    """Finite reversible chain with uniform invariant measure.

    Vertices are at-ceiling states plus one representative per sub-ceiling
    class; integer rates follow the adjacency-count table.  ``vertex_state``
    maps chain vertex -> underlying state index; ``kind`` is "O" (at
    ceiling) or "I" (class rep).
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    rates: np.ndarray
    vertex_state: list
    kind: list

    def as_chain(self) -> WeightedChain:
        mu = np.full(self.n, 1.0 / self.n)
        cond = self.rates.astype(np.float64) / self.n
        return WeightedChain(n=self.n, src=self.src, dst=self.dst, cond=cond, mu=mu)


def build_aux_chain(ts: TypicalSets) -> AuxChain:
    """Materialize the edge-typical auxiliary chain from the typical sets.

    Vertices: the at-ceiling part of the A-edge set plus one representative
    per sub-ceiling class.  Rates: 1 between adjacent at-ceiling states;
    between an at-ceiling state and a class, the number of class members
    adjacent to it (symmetric in both directions, so the uniform measure is
    exactly invariant).
    """
    space = ts.space
    O_states = sorted(int(x) for x in np.flatnonzero(ts.O_A))
    reps = [int(x) for x in ts.Ibar_A]
    vertex_state = O_states + reps
    kind = ["O"] * len(O_states) + ["I"] * len(reps)
    vpos = {s: i for i, s in enumerate(O_states)}
    rpos = {r: len(O_states) + i for i, r in enumerate(reps)}

    mt = space.move_table()
    edges: dict[tuple[int, int], int] = {}
    O_mask = ts.O_A
    for s in O_states:
        for t in mt[s]:
            t = int(t)
            if O_mask[t] and t > s:
                edges[(vpos[s], vpos[t])] = 1
            elif t in ts.class_rep_A:
                rep = ts.class_rep_A[t]
                key = (vpos[s], rpos[rep])
                edges[key] = edges.get(key, 0) + 1
    src = np.array([k[0] for k in edges], dtype=np.int64)
    dst = np.array([k[1] for k in edges], dtype=np.int64)
    rates = np.array(list(edges.values()), dtype=np.int64)
    return AuxChain(n=len(vertex_state), src=src, dst=dst, rates=rates,
                    vertex_state=vertex_state, kind=kind)


def aux_ground_and_window_vertices(ts: TypicalSets, aux: AuxChain):
    """Chain-vertex indices of the A-ground classes and of the classes
    meeting the slab family at height ``m_K``."""
    space = ts.space
    grounds = space.ground_states()
    S_A = [grounds[a] for a in ts.A]
    src_vertices = set()
    for s in S_A:
        rep = ts.class_rep_A.get(int(s))
        if rep is not None:
            src_vertices.add(aux.vertex_state.index(rep))
    window_states = ts.R.get(ts.m_K, np.empty(0, dtype=np.int64))
    tgt_vertices = set()
    for s in window_states:
        rep = ts.class_rep_A.get(int(s))
        if rep is not None:
            tgt_vertices.add(aux.vertex_state.index(rep))
    return sorted(src_vertices), sorted(tgt_vertices)


def aux_capacity(aux: AuxChain, sources, targets) -> float:
    sources = list(sources)
    targets = list(targets)
    if not sources or not targets:
        raise ValueError("empty boundary set on the auxiliary chain")
    if set(sources) & set(targets):
        raise ValueError(
            "degenerate window: source and target classes coincide on the "
            "auxiliary chain; capacity undefined"
        )
    return capacity(aux.as_chain(), sources, targets)


def e_constant(aux: AuxChain, sources, targets) -> float:
    """``1 / (|V| * cap)`` for the auxiliary chain."""
    return 1.0 / (aux.n * aux_capacity(aux, sources, targets))


# ---------------------------------------------------------------------------
# Constants pipeline
# ---------------------------------------------------------------------------

@dataclass
class ConstantsBundle:
    """The prefactor constants with per-field provenance.

    ``b``, ``e``, ``c`` map the partition size ``n`` to the bulk, edge and
    total constants; ``kappa`` is the mean-transition prefactor.  The 2D
    input constant is a numerical stand-in (see provenance), and the
    large-lattice limits of the product ``K*L*M*kappa`` are out of
    desk-scale reach (recorded in ``non_reproducible``).
    """

    q: int
    b: dict
    e: dict
    c: dict
    kappa: float
    kappa2d: float
    provenance: dict
    non_reproducible: list


def _translation_orbits(space: StateSpace) -> tuple[np.ndarray, int]:
    """:meth:`~spinscape.landscape.StateSpace.orbits` of the lattice
    translations alone (``spec.unit_translations()``; an open lattice has
    only the identity)."""
    return space.orbits(space.spec.unit_translations())


#: The large stable beta at which :func:`constants` solves the 2D stand-in.
_BETA_STAR = 4.0


def kappa2d_stand_in(spec2d, beta_star: float = _BETA_STAR) -> tuple[float, int]:
    """Numerical 2D prefactor: ``exp(-Gamma2D * beta) * E[hitting time]``
    between the first two 2D ground states, at a large stable beta.

    Returns ``(kappa2d, gamma2d_brute)``.  This is a stand-in for a
    companion-theory constant that has no closed form here; provenance is
    recorded by the caller.

    Both numbers come from the floor's quotient by its translation orbits
    (44,368 for the 3^12 states of a 3x4 periodic floor at q=3), so
    neither the floor chain nor the floor's move table is ever built.
    Both are exact (see :class:`~spinscape.landscape.Quotient`):
    translations fix both monochrome end states.
    """
    space2d = enumerate_space(spec2d)
    floor = space2d.quotient(*_translation_orbits(space2d))
    del space2d  # the barrier and the chain need only the quotient
    g = floor.ground_states()
    gamma2d = comm_height(floor, g[1], g[2])
    chain = chain_from_space(floor, beta_star)
    del floor  # the solve needs only the chain
    E = mean_hitting_exact(chain, g[1], [g[2]])
    return float(math.exp(-gamma2d * beta_star) * E), gamma2d


def _bulk_denominator(K: int, L: int, M: int) -> int:
    if K < L < M or K == L < M:
        return 2 * M
    if K < L == M:
        return 4 * M
    return 6 * M  # K == L == M


def constants(spec, e_values: dict | None = None) -> ConstantsBundle:
    """Assemble the prefactor constants for a lattice instance.

    ``e_values`` maps partition size ``n`` to the edge constant; missing
    entries fall back to the proven bound ``K**(-1/3)`` with provenance
    ``"bound-fallback"`` (they are bounds, not exact values).
    """
    K, L, M, q = spec.K, spec.L, spec.M, spec.q
    m_K = mk_mK(K)
    kappa2d, gamma2d = kappa2d_stand_in(spec.floor_spec())
    D = _bulk_denominator(K, L, M)
    prov: dict = {
        "kappa2d": f"numerical-stand-in (translation-lumped 2D exact solve at beta={_BETA_STAR}, "
        f"brute 2D barrier {gamma2d})",
        "b": "closed form from the window count and the 2D stand-in",
    }
    b: dict[int, float] = {}
    e: dict[int, float] = {}
    c: dict[int, float] = {}
    for n in range(1, q):
        b[n] = ((M - 2 * m_K) / D) * kappa2d / (n * (q - n))
        if e_values is not None and n in e_values:
            e[n] = float(e_values[n])
            prov[f"e({n})"] = "auxiliary-chain capacity"
        else:
            e[n] = K ** (-1.0 / 3.0)
            prov[f"e({n})"] = "bound-fallback K^(-1/3) (degenerate window)"
    for n in range(1, q):
        c[n] = b[n] + e[n] + e[q - n]
    kappa = (q - 1) * c[1]
    return ConstantsBundle(
        q=q,
        b=b,
        e=e,
        c=c,
        kappa=kappa,
        kappa2d=kappa2d,
        provenance=prov,
        non_reproducible=list(NON_REPRODUCIBLE_CLAIMS),
    )


# ---------------------------------------------------------------------------
# Test function
# ---------------------------------------------------------------------------

def test_function(
    space: StateSpace,
    ts: TypicalSets,
    ts_BA: TypicalSets,
    bundle: ConstantsBundle,
    beta: float,
) -> tuple[np.ndarray, dict]:
    """The explicit near-harmonic function interpolating 1 on the A-grounds
    and 0 on the B-grounds.

    Assignment priority (later rules override earlier ones): default 1;
    the A-edge formula ``1 - (e_A/c)(1 - hA)``; the B-edge formula
    ``(e_B/c)(1 - hB)``; gateway slices (active-floor interpolation using
    the exact 2D equilibrium potential as the floor profile); slab windows
    (linear profile in the slab height); finally the sub-ceiling classes
    of the grounds are pinned to exactly 1 / 0.

    ``ts_BA`` is the typical-set family with the roles of A and B swapped
    (it supplies the B-side edge split).  Returns ``(h_tilde, info)``.
    """
    n = space.n_states
    spec = space.spec
    nA = len(ts.A)
    bconst = bundle.b[nA]
    eA = bundle.e[nA]
    eB = bundle.e[spec.q - nA]
    c = bconst + eA + eB
    m_K = ts.m_K
    M = spec.M
    gamma = ts.gamma
    info: dict = {"warnings": list(ts.warnings), "c": c, "b": bconst, "e_A": eA, "e_B": eB}

    h = np.ones(n)

    # auxiliary-chain potentials; a degenerate window (ValueError) falls
    # back to constant 1 with a warning, and solver errors propagate
    def aux_potential(tsx: TypicalSets) -> dict:
        out: dict[int, float] = {}
        try:
            aux = build_aux_chain(tsx)
            s_v, t_v = aux_ground_and_window_vertices(tsx, aux)
            if set(s_v) & set(t_v) or not s_v or not t_v:
                raise ValueError("degenerate window on the auxiliary chain")
            hv = equilibrium_potential(aux.as_chain(), s_v, t_v)
            for vi, st in enumerate(aux.vertex_state):
                out[int(st)] = float(hv[vi])
        except ValueError as err:
            info.setdefault("warnings", []).append(
                f"auxiliary potential unavailable ({err}); using constant 1"
            )
        return out

    hA_by_state = aux_potential(ts)
    hB_by_state = aux_potential(ts_BA)

    def lookup(table: dict, state: int, rep_map: dict) -> float:
        if state in table:
            return table[state]
        rep = rep_map.get(state)
        if rep is not None and rep in table:
            return table[rep]
        return 1.0

    # A-edge formula
    for s in np.flatnonzero(ts.edge_A):
        s = int(s)
        hv = lookup(hA_by_state, s, ts.class_rep_A)
        h[s] = 1.0 - (eA / c) * (1.0 - hv)
    # B-edge formula
    for s in np.flatnonzero(ts.edge_B):
        s = int(s)
        hv = lookup(hB_by_state, s, ts_BA.class_rep_A)
        h[s] = (eB / c) * (1.0 - hv)

    # 2D floor profile: exact equilibrium potential on the floor lattice
    space2d = enumerate_space(spec.floor_spec())
    g2d = space2d.ground_states()
    h2d_cache: dict[tuple[int, int], np.ndarray] = {}

    def h2d(a: int, b: int, floor_code: int) -> float:
        key = (a, b)
        if key not in h2d_cache:
            h2d_cache[key] = equilibrium_potential(space2d, [g2d[a]], [g2d[b]], beta)
        return float(h2d_cache[key][floor_code])

    # gateway slices
    denom = M - 2 * m_K
    if denom > 0:
        for codes in ts.G_slices.values():
            for s in codes:
                s = int(s)
                sigma = space.config(s)
                gc = classify_gateway(sigma)
                if gc is None:
                    continue
                a = gc.a if gc.a in ts.A else None
                b = gc.b if gc.b in ts.B else None
                if a is None or b is None:
                    continue
                # gc.m0 counts the floors of the image rotated by gc.orientation
                floor_code = int(sigma.transpose(gc.orientation).floor(gc.m0).code)
                prof = h2d(a, b, floor_code)
                h[s] = (1.0 / c) * (
                    ((M - m_K - gc.P.length - (1.0 - prof)) / denom) * bconst + eB
                )
        # slab windows
        for i in range(m_K, M - m_K + 1):
            for s in ts.R_hat.get(i, []):
                h[int(s)] = (1.0 / c) * (((M - m_K - i) / denom) * bconst + eB)
    else:
        info["warnings"].append("window denominator M - 2 m_K <= 0; slices skipped")

    # pin the ground classes
    grounds = space.ground_states()
    S_A = [grounds[a] for a in ts.A]
    S_B = [grounds[b] for b in ts.B]
    ground_A = neighborhood(space, S_A, gamma - 1).mask
    ground_B = neighborhood(space, S_B, gamma - 1).mask
    if (ground_A & ground_B).any():
        info["warnings"].append(
            "ground valleys merge below the ceiling (degenerate instance); "
            "pinning only the ground states themselves"
        )
        ground_A = np.zeros(n, dtype=bool)
        ground_A[S_A] = True
        ground_B = np.zeros(n, dtype=bool)
        ground_B[S_B] = True
    h[ground_A] = 1.0
    h[ground_B] = 0.0
    info["ground_A_mask"] = ground_A
    info["ground_B_mask"] = ground_B
    return np.clip(h, 0.0, 1.0), info


def h1_diagnostics(
    space: StateSpace, h_tilde: np.ndarray, beta: float, P, Q
) -> dict:
    """Compare the test function against the exact equilibrium potential.

    Reports both Dirichlet forms, the capacity, the variational inequality
    ``D(h_tilde) >= Cap``, the defect identity
    ``D(h - h_tilde) = D(h_tilde) - sum h (-L h_tilde) mu`` evaluated both
    ways, and two conservation checks on the harmonic unit current of the
    exact potential: its net outflow from ``P`` (1 in exact arithmetic)
    and the largest ``|net outflow|`` at a state off ``P | Q`` (0).
    """
    chain = chain_from_space(space, beta)
    h = equilibrium_potential(chain, P, Q)
    cap = dirichlet(chain, h)
    J = unit_current(chain, h)
    net = chain._onto_ends(J, -J)
    off = np.ones(chain.n, dtype=bool)
    off[P] = off[Q] = False
    d_ht = dirichlet(chain, h_tilde)
    d_diff_direct = dirichlet(chain, h - h_tilde)
    neg_L_ht = -chain.generator_apply(h_tilde)
    d_diff_identity = d_ht - float(np.sum(h * neg_L_ht * chain.mu))
    return {
        "beta": beta,
        "capacity": cap,
        "dirichlet_h_tilde": d_ht,
        "dirichlet_principle_holds": d_ht >= cap,
        "defect_direct": d_diff_direct,
        "defect_identity": d_diff_identity,
        "defect_rel_err": abs(d_diff_direct - d_diff_identity)
        / max(abs(d_diff_direct), 1e-300),
        "current_outflow": float(net[P].sum()),
        "current_max_divergence": float(np.max(np.abs(net[off]), initial=0.0)),
    }
