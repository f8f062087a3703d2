"""Exact potential theory on enumerated spaces.

One chain record, :class:`WeightedChain`, is the input of every solve:
Dirichlet forms, equilibrium potentials (sparse symmetric solves),
capacities, mean hitting times (two independent routes) and harmonic unit
currents.  :func:`chain_from_space` builds the Metropolis chain of an
enumerated space or a quotient, and :func:`build_aux_chain` the uniform
auxiliary chain on the edge-typical classes, whose capacity gives the edge
constant.  Also here: spectral gaps, the prefactor constants pipeline, and
the test function with its H1 diagnostics.
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
                        comm_height, enumerate_space, neighborhood, state_indices)

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
    "build_aux_chain",
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
    chain of a :class:`~spinscape.landscape.Quotient`).  ``colouring``,
    a boolean per node such that every edge joins a ``True`` and a
    ``False`` node, lets the Dirichlet solves eliminate one colour class;
    :func:`chain_from_space` copies the space's, and a solve that uses it
    refuses one that an edge between two free nodes violates.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    cond: np.ndarray
    mu: np.ndarray
    size: np.ndarray | None = None
    colouring: np.ndarray | None = None
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
    which :attr:`WeightedChain.symmetry_lumping` is built.  The chain's
    ``colouring`` is the space's ``colouring()``: the spin-2 count parity
    at q=2, ``None`` at q >= 3."""
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
    else:
        c = sp.csr_matrix((cond, (frm, to)), shape=(m, m)).tocoo()  # summed per pair
        chain = WeightedChain(n=m, src=c.row, dst=c.col, cond=c.data, mu=w / Z, size=size)
    chain.colouring = space.colouring()
    return chain


# ---------------------------------------------------------------------------
# Dirichlet forms
# ---------------------------------------------------------------------------

def dirichlet(chain: WeightedChain, f: np.ndarray) -> float:
    """``(1/2) sum mu r (f(x) - f(y))^2`` over ordered state pairs."""
    df = f[chain.dst] - f[chain.src]
    return float(np.sum(chain.cond * df * df))


def dirichlet_bilinear(chain: WeightedChain, f: np.ndarray, g: np.ndarray) -> float:
    df = f[chain.dst] - f[chain.src]
    dg = g[chain.dst] - g[chain.src]
    return float(np.sum(chain.cond * df * dg))


def dirichlet_generator(chain: WeightedChain, f: np.ndarray) -> float:
    """The alternative expression ``<f, -L_gen f>_mu`` (same value as
    :func:`dirichlet` up to round-off; evaluated literally)."""
    return float(np.sum(chain.mu * f * (-chain.generator_apply(f))))


# ---------------------------------------------------------------------------
# Equilibrium potentials and capacities
# ---------------------------------------------------------------------------

#: Rows per block of the Jacobi scaling and of the extended-precision
#: residual, so that neither holds a temporary the size of the matrix.
_BLOCK_ROWS = 1024
#: Rows per block of the two-colour residual, each of whose blocks also
#: adds its transposed products into a vector over the whole other class
_TWO_COLOUR_BLOCK_ROWS = 4096


def _row_blocks(A: sp.csr_matrix, n_rows: int = _BLOCK_ROWS):
    """The rows, the entries and the block-local row pointers of each
    ``n_rows``-row block of a CSR matrix."""
    for lo in range(0, A.shape[0], n_rows):
        ptr = A.indptr[lo:lo + n_rows + 1]
        yield slice(lo, lo + len(ptr) - 1), slice(ptr[0], ptr[-1]), ptr - ptr[0]


def _solve_dirichlet_problem(
    chain: WeightedChain, ones_set, zeros_set, rhs_extra: np.ndarray | None = None,
    lumping: tuple[np.ndarray, WeightedChain] | None = None,
) -> np.ndarray:
    """Solve ``L f = rhs`` off the boundary with ``f = 1`` on ``ones_set``
    and ``f = 0`` on ``zeros_set`` (conductance-Laplacian formulation).

    Only the reduced system is built, with a right-hand side summed over
    the edges into ``ones_set`` alone (every other edge adds +0.0).  One
    solver branch runs, chosen by the number ``m`` of free states and the
    chain's structure:

    - up to 255 unknowns, a dense Cholesky factorization of the Laplacian
      on the free states (``WeightedChain._laplacian_on``, CSR with int32
      indices);
    - above, on a chain with a ``colouring``, conjugate gradients on one
      colour class (the smaller): the other class is eliminated exactly,
      and only the coupling ``C`` between the classes is assembled, each
      free-free edge once, in int32 CSR (``_two_colour_system``), which
      raises ``ValueError`` before any solve if a free-free edge joins two
      states of one colour;
    - above, on any other chain, Jacobi-scaled conjugate gradients on the
      whole free system.

    CG is capped at as many iterations as its system has unknowns (the
    bound at which it terminates in exact arithmetic).  Every branch is
    followed by at most three rounds of iterative refinement on
    extended-precision residuals of the whole free system, computed one
    block of rows at a time, which stop once the componentwise backward
    error is below 2^-53; CG solves each correction to a relative
    residual of 1e-8.

    ``lumping``, a ``(labels, chain)`` pair as
    :attr:`WeightedChain.symmetry_lumping` gives, whose classes the
    boundary sets and ``rhs_extra`` are invariant on, starts the CG
    branches' refinement from the lumped problem's solution (its data
    summed per class), lifted to the states, instead of from a solve on
    the states.  The dense branch ignores it.

    Raises ``RuntimeError`` when a free state has zero total conductance
    (its conductances underflowed; checked before any solver runs), when
    the dense Cholesky factorization fails, when conjugate gradients do
    not converge or when the lumped solve of a warm start fails; no other
    solver runs.
    """
    ones_set = np.atleast_1d(np.asarray(ones_set, dtype=np.int64))
    zeros_set = np.atleast_1d(np.asarray(zeros_set, dtype=np.int64))
    if len(np.intersect1d(ones_set, zeros_set)):
        raise ValueError("boundary sets must be disjoint")
    free = np.ones(chain.n, dtype=bool)
    free[np.concatenate([ones_set, zeros_set])] = False
    f = np.zeros(chain.n)
    f[ones_set] = 1.0
    m = np.count_nonzero(free)
    if not m:
        return f
    # CG already beats the dense factorization at 510 unknowns and by 40x
    # at 4,094 (README, Performance notes), and the threaded factorization
    # stalled on the lumped 2x2x3 systems (376 unknowns).  Sparse LU is no
    # option: state-space graphs are expander-like and fill in almost fully.
    two_coloured = m > 255 and chain.colouring is not None
    if two_coloured:
        diag = chain._onto_ends(chain.cond, chain.cond)[free]
    else:
        A = chain._laplacian_on(free)
        diag = A.diagonal()
        residual = lambda x, rhs: _extended_residual(A, x, rhs, diag)  # noqa: E731
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
    del into
    b = b[free]
    if rhs_extra is not None:
        b = b + rhs_extra[free]

    if two_coloured:
        solve, residual = _two_colour_system(chain, free, diag)
    elif m <= 255:
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

        solve = lambda rhs, rtol: _cg(As, rhs * dh, rtol, m, m) * dh  # noqa: E731

    if lumping is None or m <= 255:
        x = solve(b, 1e-15)
    else:
        x = _warm_start(lumping, ones_set, zeros_set, rhs_extra, m)[free]
    # iterative refinement with extended-precision residuals; a correction
    # needs only modest relative accuracy: 1e-8 keeps the componentwise
    # backward error below 2e-16, where 1e-6 and 1e-4 do not
    for _ in range(3):
        r, converged = residual(x, b)
        if converged:
            break
        x = x + solve(r, 1e-8)
    f[free] = x
    return f


def _warm_start(lumping, ones_set: np.ndarray, zeros_set: np.ndarray,
                rhs_extra: np.ndarray | None, m: int) -> np.ndarray:
    """The solution of the Dirichlet problem lumped by ``lumping``,
    lifted to the states.  Its failure is the failure of the state solve
    on ``m`` unknowns: the ``RuntimeError`` names them, then the free
    classes."""
    labels, lumped = lumping
    ones_l, zeros_l = labels[ones_set], labels[zeros_set]
    extra = None if rhs_extra is None else np.bincount(labels, rhs_extra, minlength=lumped.n)
    try:
        return _solve_dirichlet_problem(lumped, ones_l, zeros_l, extra)[labels]
    except RuntimeError as err:
        m_l = lumped.n - len(np.unique(np.r_[ones_l, zeros_l]))
        raise RuntimeError(f"conjugate gradients did not converge on {m} unknowns: the warm "
                           f"start on {m_l} classes failed: {err}") from err


def _cg(A, rhs: np.ndarray, rtol: float, m: int, maxiter: int) -> np.ndarray:
    """CG on ``A x = rhs``; ``RuntimeError``, naming the ``m`` unknowns, if
    ``maxiter`` iterations do not reach the relative residual ``rtol``."""
    x, info = spla.cg(A, rhs, rtol=rtol, atol=0.0, maxiter=maxiter)
    if info != 0:  # the iteration count reached
        raise RuntimeError(f"conjugate gradients did not converge on {m} "
                           f"unknowns in {info} iterations")
    return x


def _two_colour_system(chain: WeightedChain, free: np.ndarray, diag: np.ndarray):
    """``(solve, residual)`` for the Laplacian on the ``free`` states of a
    chain with a ``colouring``, whose diagonal is ``diag``.  Raises
    ``ValueError`` if a free-free edge joins two states of one colour.

    With the free states split into the classes ``R`` and ``B`` of the
    colouring (``B`` the smaller), the system is
    ``[[D_r, -C], [-C^T, D_b]]``: no edge joins two states of one class.
    Only ``C`` is assembled, one entry per free-free edge (repeated edges
    summed), in CSR with int32 indices.  ``solve(rhs, rtol)`` runs
    conjugate gradients on the Jacobi-scaled Schur complement of ``R``,
    ``I - K^T K`` with ``K = D_r^-1/2 C D_b^-1/2``, whose eigenvalues pair
    up with those of the scaled whole system (Property A), so CG needs
    about half the iterations at the same cost per iteration, capped at
    ``|B|``; then ``x_r = D_r^-1 (rhs_r + C x_b)``.  ``residual(x, rhs)``
    is :func:`_extended_residual_two_colour`, on the whole system."""
    colour = chain.colouring
    idx = np.flatnonzero(free)
    m = len(idx)
    black_colour = 2 * np.count_nonzero(colour[idx]) <= m
    black = colour[idx] == black_colour
    red = ~black
    m_b = np.count_nonzero(black)
    m_r = m - m_b
    pos = np.zeros(chain.n, dtype=np.int32)  # each free state's position in its class
    pos[idx[red]] = np.arange(m_r, dtype=np.int32)
    pos[idx[black]] = np.arange(m_b, dtype=np.int32)
    del idx
    both = free[chain.src] & free[chain.dst]
    ends = chain.src[both]
    row, src_colour = pos[ends], colour[ends]
    ends = chain.dst[both]
    col = pos[ends]
    if np.any(colour[ends] == src_colour):
        raise ValueError("the chain's colouring is not proper: an edge between two free "
                         "states joins two states of one colour")
    flip = src_colour == black_colour  # a black source: swapped to (red, black)
    del ends, pos, src_colour
    cond = chain.cond[both]
    del both
    row[flip], col[flip] = col[flip], row[flip]
    del flip
    # scipy's counting sort groups the entries by row; chains that list
    # their edges by increasing ends come out with sorted rows
    C = sp.csr_matrix((cond, (row, col)), shape=(m_r, m_b))
    del row, col, cond
    Ct = C.T  # CSC, sharing C's arrays
    inv_dr = 1.0 / diag[red]
    sb = 1.0 / np.sqrt(diag[black])
    S = spla.LinearOperator((m_b, m_b), dtype=np.float64,
                            matvec=lambda y: y - sb * (Ct @ (inv_dr * (C @ (sb * y)))))

    def solve(rhs, rtol):
        rhs_r = rhs[red]
        y = _cg(S, sb * (rhs[black] + Ct @ (inv_dr * rhs_r)), rtol, m, m_b)
        x = np.empty(m)
        x[black] = y = y * sb
        x[red] = inv_dr * (rhs_r + C @ y)
        return x

    return solve, lambda x, rhs: _extended_residual_two_colour(C, red, x, rhs, diag)


def _extended_residual(A: sp.csr_matrix, x: np.ndarray, b: np.ndarray,
                       diag: np.ndarray) -> tuple[np.ndarray, bool]:
    """``b - A x`` evaluated in ``np.longdouble`` and rounded to float64,
    and whether it meets the componentwise (Oettli-Prager) bound
    ``|r| <= 2^-53 (|A||x| + |b|)``.  Only the residual needs extended
    precision: one block of rows at a time is copied to it, and each row
    sums its entries in column order, as a product with the whole matrix
    would.  The bound is a float64 product with the whole matrix; off
    the diagonal A is nonpositive, so ``|A||x| = 2 diag |x| - A|x|``."""
    m = len(x)
    abs_x = np.abs(x)
    tol = 2.0 ** -53 * (2 * diag * abs_x - A @ abs_x + np.abs(b))
    del abs_x
    x_ld = x.astype(np.longdouble)
    r = np.empty(m)
    converged = True
    for rows, entries, ptr in _row_blocks(A):
        block = sp.csr_matrix((A.data[entries].astype(np.longdouble), A.indices[entries], ptr),
                              shape=(len(ptr) - 1, m))
        r_ld = b[rows].astype(np.longdouble) - block @ x_ld
        r[rows] = r_ld
        converged = converged and bool(np.all(np.abs(r_ld) <= tol[rows]))
    return r, converged


def _extended_residual_two_colour(C: sp.csr_matrix, red: np.ndarray, x: np.ndarray,
                                  b: np.ndarray, diag: np.ndarray) -> tuple[np.ndarray, bool]:
    """:func:`_extended_residual` of the system ``[[D_r, -C], [-C^T, D_b]]``
    of :func:`_two_colour_system`, with ``red`` marking the free states
    that are the rows of ``C``.  One block of rows of ``C`` at a time is
    copied to extended precision; it gives those red rows their residual
    and adds its transposed products to the black rows' sums, which are
    finished last.  The bound ``|A||x| + |b|`` takes float64 products
    with the whole of ``C`` and ``C^T``, whose entries are positive."""
    black = ~red
    x_r, b_r, d_r = x[red], b[red], diag[red]
    abs_r, abs_b = np.abs(x_r), np.abs(x[black])
    tol_r = 2.0 ** -53 * (d_r * abs_r + C @ abs_b + np.abs(b_r))
    tol_b = 2.0 ** -53 * (diag[black] * abs_b + C.T @ abs_r + np.abs(b[black]))
    del abs_r, abs_b
    x_b = x[black].astype(np.longdouble)
    # b - A x on the black rows, less b: C^T's products are added below
    r_b = -diag[black].astype(np.longdouble) * x_b
    r_r = np.empty(len(x_r))
    converged = True
    for rows, entries, ptr in _row_blocks(C, _TWO_COLOUR_BLOCK_ROWS):
        block = sp.csr_matrix((C.data[entries].astype(np.longdouble), C.indices[entries], ptr),
                              shape=(len(ptr) - 1, C.shape[1]))
        x_ld, d_ld, b_ld = (v[rows].astype(np.longdouble) for v in (x_r, d_r, b_r))
        r_ld = b_ld - d_ld * x_ld + block @ x_b
        r_r[rows] = r_ld
        converged = converged and bool(np.all(np.abs(r_ld) <= tol_r[rows]))
        r_b += block.T @ x_ld
    r_b += b[black].astype(np.longdouble)
    r = np.empty(len(x))
    r[red], r[black] = r_r, r_b
    return r, converged and bool(np.all(np.abs(r_b) <= tol_b))


def _symmetry_lumping_for(chain: WeightedChain, P, Q):
    """``(P, Q, lumping)``: ``P`` and ``Q`` checked by ``state_indices``,
    and the chain's :attr:`~WeightedChain.symmetry_lumping` when both are
    unions of its orbits (each class they meet holds as many of their
    states as the class has), else ``None``."""
    P, Q = state_indices(P, chain.n, "P"), state_indices(Q, chain.n, "Q")
    lumping = chain.symmetry_lumping
    if lumping is None:
        return P, Q, None
    labels, lumped = lumping
    for states in (P, Q):
        cls = labels[np.unique(states)]
        if np.any(np.bincount(cls, minlength=lumped.n)[cls] != lumped.size[cls]):
            return P, Q, None
    return P, Q, lumping


def _potential(chain: WeightedChain, P, Q) -> np.ndarray:
    """The equilibrium potential of ``(P, Q)`` on the chain's own nodes,
    clipped to ``[0, 1]``."""
    return np.clip(_solve_dirichlet_problem(chain, P, Q), 0.0, 1.0)


def _potential_nodes(chain: WeightedChain, P, Q):
    """``(nodes, h, labels)``: the chain ``h`` is solved on, ``h`` on its
    nodes, and the class of each state (``None`` when the nodes are the
    chain's states), as :func:`equilibrium_potential` describes."""
    P, Q, lumping = _symmetry_lumping_for(chain, P, Q)
    if lumping is None:
        return chain, _potential(chain, P, Q), None
    labels, lumped = lumping
    return lumped, _potential(lumped, labels[P], labels[Q]), labels


def equilibrium_potential(chain: WeightedChain, P, Q) -> np.ndarray:
    """``h(x) = P_x[hit P before Q]``: harmonic off ``P | Q`` with boundary
    values 1 on ``P`` and 0 on ``Q``.

    On a chain built from an enumerated space, when ``P`` and ``Q`` are
    unions of lattice-symmetry orbits, every symmetry maps ``h`` to the
    potential of the same problem, so ``h`` is constant on orbits: it is
    solved on the lumped chain (:attr:`WeightedChain.symmetry_lumping`)
    and spread back to the states.  Any other problem is solved on the
    chain's states."""
    _, h, labels = _potential_nodes(chain, P, Q)
    return h if labels is None else h[labels]


def potential_classes(chain: WeightedChain, P, Q) -> int:
    """The number of nodes :func:`equilibrium_potential` solves ``(P, Q)``
    on: the lattice-symmetry classes when it lumps, else the chain's
    states."""
    lumping = _symmetry_lumping_for(chain, P, Q)[2]
    return chain.n if lumping is None else lumping[1].n


def capacity(chain: WeightedChain, P, Q) -> float:
    """Dirichlet form of the equilibrium potential between ``P`` and ``Q``.

    When :func:`equilibrium_potential` solves on the lumped chain, the
    form is evaluated there too, on the classes' potential, never spread
    to the states: ``h`` is constant on classes, so the edges inside a
    class add nothing and those between two classes add their summed
    conductance times one squared difference."""
    nodes, h, _ = _potential_nodes(chain, P, Q)
    return dirichlet(nodes, h)


def unit_current(chain: WeightedChain, h: np.ndarray) -> np.ndarray:
    """``J_e = c_e (h(src) - h(dst)) / D(h)`` on the chain's edges, positive
    from ``src`` to ``dst``.  For the equilibrium potential of ``(P, Q)``
    this is the harmonic unit current: a unit flow from ``P`` to ``Q``,
    conserved off ``P | Q``, of least energy among such flows (Thomson).
    Its net outflow at each state is ``chain._onto_ends(J, -J)``."""
    return chain.cond * (h[chain.src] - h[chain.dst]) / dirichlet(chain, h)


def mean_hitting_exact(chain: WeightedChain, s: int, target, method: str = "capacity") -> float:
    """Expected hitting time of ``target`` from state ``s``.

    ``method="capacity"``: ``(1/Cap) * sum_x mu(x) h(x)`` with ``h`` the
    equilibrium potential of ``({s}, target)``, both sums taken on the
    lumped chain when ``h`` is solved there (see :func:`capacity`).
    ``method="direct"``: solve the mean-hitting linear system on the
    chain's states, and certify it there by the refinement's
    componentwise backward error.  When ``target`` is a union of
    lattice-symmetry orbits and the system takes a conjugate-gradient
    branch, the solve starts from the lumped system's solution, which is
    exact in exact arithmetic (strong lumpability), instead of from a
    solve on the states; the refinement still runs on the states.  The
    two routes agree to high relative accuracy on well-conditioned
    instances.  Above 255 unknowns on a chain with a ``colouring`` (every
    q=2 chain :func:`chain_from_space` builds, recorded from its space),
    both routes solve by conjugate gradients on one colour class, with
    the other eliminated (see ``_solve_dirichlet_problem``).  Either route
    raises ``RuntimeError`` when its solve fails, as the direct route does
    at large ``beta``: its dense factorization fails up to 255 unknowns,
    and above that conjugate gradients do not converge, on the states or
    in the lumped start, which is never replaced by a cold start.
    ``ValueError`` refuses indices that are not the chain's nodes, and a
    colouring that an edge between two free states violates.
    """
    (s,) = state_indices(s, chain.n, "s")
    target = state_indices(target, chain.n, "target")
    if method == "capacity":
        nodes, h, _ = _potential_nodes(chain, [s], target)
        return float(np.sum(nodes.mu * h) / dirichlet(nodes, h))
    if method == "direct":
        return float(_mean_hitting_times(chain, target)[s])
    raise ValueError(f"unknown method {method!r}")


def _mean_hitting_times(chain: WeightedChain, target: np.ndarray) -> np.ndarray:
    """The direct route's ``u(x) = E_x[tau_target]`` at every state:
    ``(L u)|free = mu`` (conductance-symmetrized), ``u = 0`` on the
    target, warm-started from the lumped system when the target is a
    union of orbits."""
    target, _, lumping = _symmetry_lumping_for(chain, target, [])
    return _solve_dirichlet_problem(chain, np.empty(0, dtype=np.int64), target, chain.mu,
                                    lumping=lumping)


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
    when its two float64 ``n x n`` arrays, the Laplacian scaled in place
    and the eigensolver's working copy, would exceed 1 GiB.

    The variational method builds only the chain of the space's
    lattice-symmetry quotient, never the states' chain: each basis
    problem, one ground state against the others, has unions of orbits
    as its sets, so its potential is constant on orbits (see
    :func:`equilibrium_potential`), and the Ritz matrices' forms and
    sums are taken on the classes."""
    n = space.n_states
    if method == "auto":
        method = "dense" if beta * int(space.energies.max()) <= 25 else "variational"
    if method == "dense" and 16 * n ** 2 > 2 ** 30:
        raise ValueError(f"the dense spectral gap on {n} states needs {16 * n ** 2} bytes, "
                         f"over {2 ** 30}; use method='variational'")
    if method == "dense":
        chain = chain_from_space(space, beta)
        # S = W^-1/2 L W^-1/2, overwriting L
        S = chain.laplacian().toarray()
        s = np.sqrt(chain.mu)
        S /= s[:, None]
        S /= s[None, :]
        vals = np.linalg.eigvalsh(S)
        return float(vals[1])
    if method == "variational":
        quotient = space.symmetry_quotient()[1]
        gs = sorted(quotient.ground_states().values())
        if len(gs) < 2:
            raise ValueError("variational gap needs at least two ground states")
        chain = chain_from_space(quotient, beta)
        basis = [_potential(chain, [g], [x for x in gs if x != g]) for g in gs[1:]]
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

def build_aux_chain(ts: TypicalSets) -> tuple[np.ndarray, WeightedChain]:
    """The edge-typical auxiliary chain as ``(labels, chain)``, the pair
    :attr:`WeightedChain.symmetry_lumping` returns.

    The vertices are the at-ceiling states of the A-edge set in increasing
    order, then its sub-ceiling classes in ``ts.Ibar_A`` order; ``labels``
    gives each state's vertex, -1 off the A-edge set.  ``chain`` is the unit
    graph of the A-edge set lumped by ``labels``, with the uniform measure
    and conductance ``rate / n`` on ``n`` vertices: the rate is 1 between
    adjacent at-ceiling states and, between an at-ceiling state and a class,
    the number of the class's members adjacent to it.  Adjacent sub-ceiling
    states share their class, so every edge has an at-ceiling end and is
    counted from the at-ceiling rows of the move table, an at-ceiling pair
    from its lower end.
    """
    O_states = np.flatnonzero(ts.O_A)
    n_O = len(O_states)
    n = n_O + len(ts.Ibar_A)
    labels = np.full(ts.space.n_states, -1, dtype=np.int64)
    labels[O_states] = np.arange(n_O)
    members = np.fromiter(ts.class_rep_A, dtype=np.int64, count=len(ts.class_rep_A))
    reps = np.fromiter(ts.class_rep_A.values(), dtype=np.int64, count=len(members))
    labels[members] = n_O + np.searchsorted(ts.Ibar_A, reps)
    to = labels[ts.space.move_table()[O_states]]
    up = to > np.arange(n_O)[:, None]  # a class, or an at-ceiling state above
    frm = np.repeat(np.arange(n_O), np.count_nonzero(up, axis=1))
    c = sp.csr_matrix((np.ones(len(frm)), (frm, to[up])), shape=(n, n)).tocoo()  # counted per pair
    return labels, WeightedChain(n=n, src=c.row, dst=c.col, cond=c.data / n,
                                 mu=np.full(n, 1.0 / n))


def aux_ground_and_window_vertices(ts: TypicalSets, labels: np.ndarray):
    """Vertices of the auxiliary chain (``labels`` of
    :func:`build_aux_chain`) of the A-ground classes and of the classes
    meeting the slab family at height ``m_K``, each sorted.

    Raises ``ValueError`` on a degenerate window: either set empty, or the
    two sharing a class."""
    grounds = ts.space.ground_states()
    S_A = np.array([grounds[a] for a in ts.A], dtype=np.int64)
    window = ts.R.get(ts.m_K, np.empty(0, dtype=np.int64))
    src, tgt = (np.unique(labels[s[ts.I_A[s]]]) for s in (S_A, window))
    if not len(src) or not len(tgt) or len(np.intersect1d(src, tgt)):
        raise ValueError("degenerate window on the auxiliary chain")
    return src, tgt


def e_constant(ts: TypicalSets) -> float:
    """The edge constant ``1 / (|V| * cap)`` of the auxiliary chain on
    ``|V|`` vertices, between its A-ground and window classes."""
    labels, chain = build_aux_chain(ts)
    return 1.0 / (chain.n * capacity(chain, *aux_ground_and_window_vertices(ts, labels)))


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


#: The large stable beta at which :func:`kappa2d_stand_in` solves.
_BETA_STAR = 4.0


def kappa2d_stand_in(spec2d) -> tuple[float, int]:
    """Numerical 2D prefactor: ``exp(-Gamma2D * beta) * E[hitting time]``
    between the first two 2D ground states, at the large stable beta
    ``_BETA_STAR``.

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
    floor = space2d.quotient(*space2d.orbits(space2d.spec.unit_translations()))
    del space2d  # the barrier and the chain need only the quotient
    g = floor.ground_states()
    gamma2d = comm_height(floor, g[1], g[2])
    chain = chain_from_space(floor, _BETA_STAR)
    del floor  # the solve needs only the chain
    E = mean_hitting_exact(chain, g[1], [g[2]])
    return float(math.exp(-gamma2d * _BETA_STAR) * E), gamma2d


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

    # auxiliary-chain potentials on the states, 1 off the chain's vertices;
    # a degenerate window (ValueError) falls back to constant 1 with a
    # warning, and solver errors propagate
    def aux_potential(tsx: TypicalSets) -> np.ndarray:
        try:
            labels, chain = build_aux_chain(tsx)
            hv = equilibrium_potential(chain, *aux_ground_and_window_vertices(tsx, labels))
        except ValueError as err:
            info["warnings"].append(f"auxiliary potential unavailable ({err}); using constant 1")
            return np.ones(n)
        return np.where(labels >= 0, hv[labels], 1.0)

    # the A-edge formula, then the B-edge formula
    h[ts.edge_A] = 1.0 - (eA / c) * (1.0 - aux_potential(ts)[ts.edge_A])
    h[ts.edge_B] = (eB / c) * (1.0 - aux_potential(ts_BA)[ts.edge_B])

    # 2D floor profile: exact equilibrium potential on the floor lattice
    space2d = enumerate_space(spec.floor_spec())
    g2d = space2d.ground_states()
    chain2d = chain_from_space(space2d, beta)
    h2d_cache: dict[tuple[int, int], np.ndarray] = {}

    def h2d(a: int, b: int, floor_code: int) -> float:
        key = (a, b)
        if key not in h2d_cache:
            h2d_cache[key] = equilibrium_potential(chain2d, [g2d[a]], [g2d[b]])
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
