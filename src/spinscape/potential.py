"""Exact potential theory on enumerated spaces.

Dirichlet forms, equilibrium potentials (sparse symmetric solves),
capacities, mean hitting times (two independent routes), spectral gaps,
the auxiliary uniform-measure chain on edge-typical classes with its
capacity and unit flows, the prefactor constants pipeline, and the test
function with its H1 diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .canon import classify_gateway, mk_mK
from .landscape import StateSpace, TypicalSets, comm_height, enumerate_space, neighborhood
from .lattice import PERIODIC

__all__ = [
    "WeightedChain",
    "chain_from_space",
    "dirichlet",
    "dirichlet_generator",
    "equilibrium_potential",
    "capacity",
    "mean_hitting_exact",
    "spectral_gap",
    "AuxChain",
    "build_aux_chain",
    "aux_equilibrium_potential",
    "aux_capacity",
    "e_constant",
    "Flow",
    "flow_norm",
    "divergence",
    "unit_flow_check",
    "synthetic_flow_chain",
    "flow_check_battery",
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
    ``c_e = mu(x) r(x, y) = mu(y) r(y, x)`` is symmetric.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    cond: np.ndarray
    mu: np.ndarray

    def laplacian(self) -> sp.csr_matrix:
        """The symmetric conductance Laplacian ``L`` with
        ``(L f)(x) = sum_y c_xy (f(x) - f(y))``."""
        return self._laplacian_on(np.ones(self.n, dtype=bool)).tocsr()

    def _laplacian_on(self, keep: np.ndarray) -> sp.csc_matrix:
        """``L`` restricted to the boolean mask ``keep``: off-diagonals from
        the edges with both ends kept, the full degree on the diagonal."""
        pos = np.cumsum(keep) - 1
        both = keep[self.src] & keep[self.dst]
        i, j, c = pos[self.src[both]], pos[self.dst[both]], self.cond[both]
        d, deg = pos[keep], self._onto_ends(self.cond, self.cond)[keep]
        rows, cols = np.concatenate([i, j, d]), np.concatenate([j, i, d])
        return sp.csc_matrix((np.concatenate([-c, -c, deg]), (rows, cols)), shape=(len(d),) * 2)

    def _onto_ends(self, at_src: np.ndarray, at_dst: np.ndarray) -> np.ndarray:
        """Sum ``at_src`` onto each edge's source and ``at_dst`` onto its destination."""
        ends = np.concatenate([self.src, self.dst])
        return np.bincount(ends, np.concatenate([at_src, at_dst]), minlength=self.n)

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


def chain_from_space(space: StateSpace, beta: float) -> WeightedChain:
    """The Metropolis chain on an enumerated space at inverse temperature
    ``beta`` (Gibbs measure, single-flip conductances)."""
    E = space.energies.astype(np.float64)
    w = np.exp(-beta * E)  # ground energy is 0, so no overflow
    Z = w.sum()
    mu = w / Z
    src, dst = space.edges()
    cond = np.exp(-beta * np.maximum(E[src], E[dst])) / Z
    return WeightedChain(n=space.n_states, src=src, dst=dst, cond=cond, mu=mu)


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

def _solve_dirichlet_problem(
    chain: WeightedChain, ones_set, zeros_set, rhs_extra: np.ndarray | None = None
) -> np.ndarray:
    """Solve ``L f = rhs`` off the boundary with ``f = 1`` on ``ones_set``
    and ``f = 0`` on ``zeros_set`` (conductance-Laplacian formulation, one
    solver branch chosen by size, extended-precision iterative refinement).

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
    n_isolated = int(np.count_nonzero(diag == 0.0))
    if n_isolated:
        raise RuntimeError(f"{n_isolated} of {m} free states have zero total conductance "
                           "(underflowed); the Dirichlet problem is singular")
    # the f = 1 boundary enters through the conductances into ones_set
    b = chain._onto_ends(chain.cond * f[chain.dst], chain.cond * f[chain.src])[free]
    if rhs_extra is not None:
        b = b + rhs_extra[free]

    # State-space graphs are expander-like, so sparse LU suffers near-total
    # fill-in; a dense Cholesky factorization is faster up to ~10^4 states,
    # factored in place in its F-ordered array.
    if m <= 12_000:
        try:
            factor = cho_factor(A.toarray(order="F"), lower=True, overwrite_a=True)
        except LinAlgError as err:
            raise RuntimeError(f"dense Cholesky failed on {m} unknowns: {err}") from err
        solve = lambda rhs: cho_solve(factor, rhs, check_finite=False)  # noqa: E731
    else:
        # the Jacobi-scaled system has the clustered Metropolis spectrum, so
        # conjugate gradients converge fast and accurately
        dh = 1.0 / np.sqrt(diag)
        As = (sp.diags(dh) @ A @ sp.diags(dh)).tocsr()

        def solve(rhs):
            y, info = spla.cg(As, rhs * dh, rtol=1e-15, atol=0.0, maxiter=200_000)
            if info != 0:  # the iteration count reached
                raise RuntimeError(f"conjugate gradients did not converge on {m} "
                                   f"unknowns in {info} iterations")
            return y * dh

    x = solve(b)
    # iterative refinement with extended-precision residuals
    A_ld = A.astype(np.longdouble)
    b_ld = b.astype(np.longdouble)
    for _ in range(3):
        r = b_ld - A_ld @ x.astype(np.longdouble)
        corr = solve(np.asarray(r, dtype=np.float64))
        x = x + corr
        if np.max(np.abs(corr)) <= 1e-300 + 1e-16 * np.max(np.abs(x)):
            break
    f[free] = x
    return f


def equilibrium_potential(space_or_chain, P, Q, beta: float | None = None) -> np.ndarray:
    """``h(x) = P_x[hit P before Q]``: harmonic off ``P | Q`` with boundary
    values 1 on ``P`` and 0 on ``Q``."""
    chain = _as_chain(space_or_chain, beta)
    h = _solve_dirichlet_problem(chain, P, Q)
    return np.clip(h, 0.0, 1.0)


def capacity(space_or_chain, P, Q, beta: float | None = None) -> float:
    """Dirichlet form of the equilibrium potential between ``P`` and ``Q``."""
    chain = _as_chain(space_or_chain, beta)
    h = equilibrium_potential(chain, P, Q)
    return dirichlet(chain, h)


def mean_hitting_exact(
    space_or_chain, s: int, target, beta: float | None = None, method: str = "capacity"
) -> float:
    """Expected hitting time of ``target`` from state ``s``.

    ``method="capacity"``: ``(1/Cap) * sum_x mu(x) h(x)`` with ``h`` the
    equilibrium potential of ``({s}, target)``.  ``method="direct"``:
    solve the mean-hitting linear system.  The two agree to high relative
    accuracy on well-conditioned instances.  Either route raises
    ``RuntimeError`` when its solve fails (see ``_solve_dirichlet_problem``),
    as the direct route's dense factorization does at large ``beta``.
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

SPECTRAL_GAP_STATE_LIMIT = 2 ** 16


def spectral_gap(space: StateSpace, beta: float, method: str = "auto") -> float:
    """Smallest nonzero eigenvalue of the negative generator.

    ``"dense"`` symmetrizes the generator and calls a full eigensolver
    (accurate while ``beta * Gamma`` is moderate); ``"variational"``
    performs a Ritz projection onto the span of the ground-valley
    equilibrium potentials, whose Rayleigh quotients are computed from
    nonnegative sums and stay relatively accurate long after dense
    eigenvalues drown in round-off.  ``"auto"`` picks dense only when the
    eigenvalue is safely above the dense round-off floor.
    """
    if space.n_states > SPECTRAL_GAP_STATE_LIMIT:
        raise ValueError(
            f"spectral gap supported up to {SPECTRAL_GAP_STATE_LIMIT} states"
        )
    chain = chain_from_space(space, beta)
    if method == "auto":
        method = "dense" if beta * int(space.energies.max()) <= 25 else "variational"
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
        from scipy.linalg import eigh

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
    maps chain vertex -> underlying state index (or an opaque label for
    synthetic chains); ``kind`` is "O" (at ceiling) or "I" (class rep).
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    rates: np.ndarray
    vertex_state: list
    kind: list
    meta: dict = field(default_factory=dict)

    def as_chain(self) -> WeightedChain:
        mu = np.full(self.n, 1.0 / self.n)
        cond = self.rates.astype(np.float64) / self.n
        return WeightedChain(n=self.n, src=self.src, dst=self.dst, cond=cond, mu=mu)

    def flux_balance_exact(self) -> bool:
        """Uniform-measure reversibility: the integer rate of every edge is
        the same in both directions by construction; verify symmetry of the
        stored edge list."""
        seen = {}
        for s, d, r in zip(self.src, self.dst, self.rates):
            key = (min(int(s), int(d)), max(int(s), int(d)))
            if key in seen and seen[key] != int(r):
                return False
            seen[key] = int(r)
        return True


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
    meta = {
        "n_O": len(O_states),
        "n_I": len(reps),
        "warnings": list(ts.warnings),
    }
    return AuxChain(
        n=len(vertex_state),
        src=src,
        dst=dst,
        rates=rates,
        vertex_state=vertex_state,
        kind=kind,
        meta=meta,
    )


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


def aux_equilibrium_potential(aux: AuxChain, sources, targets) -> np.ndarray:
    return equilibrium_potential(aux.as_chain(), sources, targets)


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
# Flows
# ---------------------------------------------------------------------------

@dataclass
class Flow:
    """An antisymmetric edge function, stored on oriented edges."""

    values: dict  # (x, y) -> value, with (x, y) ordered as stored

    def get(self, x: int, y: int) -> float:
        if (x, y) in self.values:
            return self.values[(x, y)]
        if (y, x) in self.values:
            return -self.values[(y, x)]
        return 0.0


def flow_norm(aux: AuxChain, flow: Flow) -> float:
    """``sum over edges of phi(e)^2 / (pi(x) r(x, y))`` with ``pi`` uniform."""
    edge_rates = {}
    for s, d, r in zip(aux.src, aux.dst, aux.rates):
        edge_rates[(int(s), int(d))] = float(r)
        edge_rates[(int(d), int(s))] = float(r)
    total = 0.0
    for (x, y), v in flow.values.items():
        if (x, y) not in edge_rates:
            raise ValueError(f"flow supported off the edge set at {(x, y)}")
        total += v * v * aux.n / edge_rates[(x, y)]
    return total


def divergence(aux: AuxChain, flow: Flow) -> np.ndarray:
    div = np.zeros(aux.n)
    for (x, y), v in flow.values.items():
        div[x] += v
        div[y] -= v
    return div


def unit_flow_check(aux: AuxChain, flow: Flow, sources, targets, tol: float = 1e-12) -> bool:
    """Divergence +1 in total on the sources, -1 on the targets, 0 elsewhere."""
    div = divergence(aux, flow)
    sources = set(int(s) for s in sources)
    targets = set(int(t) for t in targets)
    ok = abs(div[list(sources)].sum() - 1.0) <= tol
    ok &= abs(div[list(targets)].sum() + 1.0) <= tol
    rest = [i for i in range(aux.n) if i not in sources | targets]
    ok &= bool(np.max(np.abs(div[rest]), initial=0.0) <= tol)
    return bool(ok)


def synthetic_flow_chain(K: int, L: int, M: int, i_low: int = 1):
    """The abstract ladder graph underlying the window-flow construction.

    Vertices: collapsed slab classes ``SP[P]`` for arcs with
    ``i_low <= |P| <= m_K``, plus per-window ladder nodes (wide-band
    plains, which are their own sub-ceiling classes, and at-ceiling
    protuberance states).  All rates are 1 (synthetic stand-in).  The flow
    puts ``1/(2KLM)`` on every ladder edge oriented toward the larger arc.
    Returns ``(aux, flow, sources, targets)``.
    """
    from .canon import TorusArc, arcs_of_length

    m_K = mk_mK(K)
    if m_K <= i_low:
        raise ValueError("window too small for a nondegenerate synthetic chain")
    nodes: dict = {}

    def node(key) -> int:
        if key not in nodes:
            nodes[key] = len(nodes)
        return nodes[key]

    edges: dict[tuple[int, int], float] = {}
    flow_vals: dict[tuple[int, int], float] = {}
    phi = 1.0 / (2 * K * L * M)

    def add_edge(x: int, y: int, f: float) -> None:
        edges[(min(x, y), max(x, y))] = 1.0
        flow_vals[(x, y)] = flow_vals.get((x, y), 0.0) + f

    for r in range(i_low, m_K):
        for P in arcs_of_length(M, r):
            for Q in P.extensions():
                pk = ("SP", P.start, P.length)
                qk = ("SP", Q.start, Q.length)
                wid = ("W", P.start, P.length, Q.start, Q.length)
                for l in range(1, L + 1):
                    for v in range(1, L - 1):
                        lo = node(pk) if v == 1 else node((wid, "plain", l, v))
                        hi = node(qk) if v + 1 == L - 1 else node((wid, "plain", l, v + 1))
                        for k in range(1, K + 1):
                            prev = lo
                            for h in range(1, K):
                                cur = node((wid, "prot", l, v, k, h))
                                add_edge(prev, cur, phi)
                                prev = cur
                            add_edge(prev, hi, phi)
    n = len(nodes)
    src = np.array([k[0] for k in edges], dtype=np.int64)
    dst = np.array([k[1] for k in edges], dtype=np.int64)
    rates = np.ones(len(edges), dtype=np.int64)
    vertex_state = [None] * n
    kind = [""] * n
    for key, i in nodes.items():
        vertex_state[i] = key
        kind[i] = "I" if (key[0] == "SP" or key[1] == "plain") else "O"
    aux = AuxChain(
        n=n,
        src=src,
        dst=dst,
        rates=rates,
        vertex_state=vertex_state,
        kind=kind,
        meta={"synthetic": True, "K": K, "L": L, "M": M, "i_low": i_low, "m_K": m_K},
    )
    sources = [nodes[k] for k in nodes if k[0] == "SP" and k[2] == i_low]
    targets = [nodes[k] for k in nodes if k[0] == "SP" and k[2] == m_K]
    return aux, Flow(flow_vals), sources, targets


def flow_check_battery(K: int, L: int, M: int, i_low: int = 1) -> dict:
    """Run the full unit-flow verification battery on the synthetic chain.

    Checks: uniform-measure flux balance, unit-flow divergence, the closed
    form of the squared flow norm, the window bound
    ``|psi|^2 < m_K |V| / (2M)``, and the variational (Thomson) lower
    bound ``1/|psi|^2 <= cap``.
    """
    aux, flow, sources, targets = synthetic_flow_chain(K, L, M, i_low)
    m_K = aux.meta["m_K"]
    norm2 = flow_norm(aux, flow)
    cap = aux_capacity(aux, sources, targets)
    n_windows = (m_K - i_low) * 2 * M
    closed_form = aux.n * n_windows * (K * K * L * (L - 2)) / (2 * K * L * M) ** 2
    report = {
        "chain": "synthetic",
        "K": K,
        "L": L,
        "M": M,
        "i_low": i_low,
        "m_K": m_K,
        "n_vertices": aux.n,
        "flux_balance_exact": aux.flux_balance_exact(),
        "unit_flow": unit_flow_check(aux, flow, sources, targets),
        "flow_norm_sq": norm2,
        "flow_norm_closed_form": closed_form,
        "norm_bound": m_K * aux.n / (2 * M),
        "norm_bound_holds": norm2 < m_K * aux.n / (2 * M),
        "capacity": cap,
        "thomson_bound_holds": 1.0 / norm2 <= cap * (1 + 1e-12),
        "edge_flow_value": 1.0 / (2 * K * L * M),
    }
    return report


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
    """Label every state of a floor space by its orbit under the lattice
    translations ``(k, l) -> (k+dk mod K, l+dl mod L)``; an open floor has
    only the identity.  Returns ``(labels, m)`` with int32 labels in
    ``0..m-1`` (int32 like the move tables, to halve the lumping's index
    arrays)."""
    spec = space.spec
    K, L, q = spec.K, spec.L, spec.q
    site = np.arange(spec.n_sites)
    k, l = site % K, site // K
    shifts = np.ndindex(K, L) if spec.boundary == PERIODIC else [(0, 0)]
    least = None
    for dk, dl in shifts:
        # the shifted configuration carries spin sigma_i at site perm[i]
        perm = (k + dk) % K + K * ((l + dl) % L)
        code = space.spins_matrix @ q ** perm.astype(np.int64)
        least = code if least is None else np.minimum(least, code, out=least)
    reps, labels = np.unique(least, return_inverse=True)
    return labels.astype(np.int32), len(reps)


def kappa2d_stand_in(spec2d, beta_star: float = 4.0) -> tuple[float, int]:
    """Numerical 2D prefactor: ``exp(-Gamma2D * beta) * E[hitting time]``
    between the first two 2D ground states, at a large stable beta.

    Returns ``(kappa2d, gamma2d_brute)``.  This is a stand-in for a
    companion-theory constant that has no closed form here; provenance is
    recorded by the caller.

    The hitting time is solved on translation orbits (44,368 classes for
    the 3^12 states of a 3x4 periodic floor at q=3).  This is exact: the
    Metropolis chain is translation-invariant and both monochrome end
    states are fixed by every translation, so the equilibrium potential
    is constant on orbits, and the lumped chain (summed conductances and
    masses) has the same capacity and ``sum mu h``.
    """
    space2d = enumerate_space(spec2d)
    g = space2d.ground_states()
    gamma2d = comm_height(space2d, g[1], g[2])
    labels, m = _translation_orbits(space2d)
    chain = chain_from_space(space2d, beta_star).lumped(labels, m)
    E = mean_hitting_exact(chain, labels[g[1]], [labels[g[2]]])
    return float(math.exp(-gamma2d * beta_star) * E), int(gamma2d)


def _bulk_denominator(K: int, L: int, M: int) -> int:
    if K < L < M or K == L < M:
        return 2 * M
    if K < L == M:
        return 4 * M
    return 6 * M  # K == L == M


def constants(
    spec,
    e_values: dict | None = None,
    beta_star: float = 4.0,
) -> ConstantsBundle:
    """Assemble the prefactor constants for a lattice instance.

    ``e_values`` maps partition size ``n`` to the edge constant; missing
    entries fall back to the proven bound ``K**(-1/3)`` with provenance
    ``"bound-fallback"`` (they are bounds, not exact values).
    """
    K, L, M, q = spec.K, spec.L, spec.M, spec.q
    m_K = mk_mK(K)
    kappa2d, gamma2d = kappa2d_stand_in(spec.floor_spec(), beta_star)
    D = _bulk_denominator(K, L, M)
    prov: dict = {
        "kappa2d": f"numerical-stand-in (translation-lumped 2D exact solve at beta={beta_star}, "
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
    from .landscape import NON_REPRODUCIBLE_CLAIMS

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

    # auxiliary-chain potentials (fallback: constant 1 with a warning)
    def aux_potential(tsx: TypicalSets) -> dict:
        out: dict[int, float] = {}
        try:
            aux = build_aux_chain(tsx)
            s_v, t_v = aux_ground_and_window_vertices(tsx, aux)
            if set(s_v) & set(t_v) or not s_v or not t_v:
                raise ValueError("degenerate window on the auxiliary chain")
            hv = aux_equilibrium_potential(aux, s_v, t_v)
            for vi, st in enumerate(aux.vertex_state):
                out[int(st)] = float(hv[vi])
        except Exception as err:  # degenerate instances
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
    spec2d = spec.floor_spec()
    h2d_cache: dict[tuple[int, int], np.ndarray] = {}

    def h2d(a: int, b: int, floor_code: int) -> float:
        key = (a, b)
        if key not in h2d_cache:
            sp2 = enumerate_space(spec2d)
            g = sp2.ground_states()
            h2d_cache[key] = equilibrium_potential(sp2, [g[a]], [g[b]], beta)
        return float(h2d_cache[key][floor_code])

    # gateway slices
    denom = M - 2 * m_K
    if denom > 0:
        for codes in ts.G_slices.values():
            for s in codes:
                s = int(s)
                gc = classify_gateway(space.config(s))
                if gc is None:
                    continue
                a = gc.a if gc.a in ts.A else None
                b = gc.b if gc.b in ts.B else None
                if a is None or b is None:
                    continue
                floor_code = int(space.config(s).floor(gc.m0).code)
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
    ``D(h_tilde) >= Cap``, and the defect identity
    ``D(h - h_tilde) = D(h_tilde) - sum h (-L h_tilde) mu`` evaluated both
    ways.
    """
    chain = chain_from_space(space, beta)
    h = equilibrium_potential(chain, P, Q)
    cap = dirichlet(chain, h)
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
    }
