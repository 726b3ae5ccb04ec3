"""Transport Riemannian structure on faithful states.

A tangent vector at rho (traceless Hermitian rho-dot) is identified with
the unique traceless self-adjoint potential U solving the continuity
equation

    rho-dot = -div( [rho]_omega grad U ) ,

and the squared metric is

    g_rho(rho-dot, rho-dot) = sum_j <d_j U, [rho]_{omega_j} d_j U>
                            = Tr[U rho-dot]                (unnormalized).

On the real space of traceless Hermitian matrices the operator
A |-> -div([rho] grad A) is a symmetric positive-definite matrix M,
solved by LU (as the path problem inverts it), the metric value is a
quadratic form in M^{-1}, and the coordinate metric tensor is M^{-1}
itself in an orthonormal coordinate basis.  Geodesic distances come from
minimizing the K-segment midpoint-rule action of a piecewise-linear
path.  The action is convex in the interior states, because
(rho, A) |-> <A, [rho]_omega^{-1} A> is jointly convex, so damped Newton
on its exact gradient and block-tridiagonal Hessian (first- and
second-order Daleckii-Krein formulas in each midpoint's eigenbasis)
converges in a few steps and stops on the Newton decrement.  One class,
``_MetricWorkspace``, forms M, its Jacobian G and its second-order term
S for a stack of states.  Each evaluated path makes one eigensolve and
one inverse of M per midpoint; each accepted one adds one stacked pass
over its midpoints for G and S, and its gradient is read off the
Hessian's first-order term.  The minimized action bounds the
discrete problem from above, but midpoint quadrature of the (jointly
convex) integrand underestimates, so as K grows it approaches the
continuum value from below.  The tests pin it to the commutative
reduction: between diagonal states of the Fermi hypercube, or of a
reversible chain written as a spec, the path stays diagonal and the
distance is the restricted chain's discrete-transport distance, which a
chain solver in the tests computes on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .linalg import _binary_scale, check_finite, dag, traceless_hermitian_basis
from .states import DensityState
from .generators import GeneratorSpec, apply_dual, ergodicity
from .calculus import (
    divergence,
    grad,
    kernel_divided_differences,
    kernel_second_divided_differences,
    kernel_tilts,
    log_mean,
    rho_mult,
)

__all__ = [
    "TangentDecomposition",
    "continuity_solve",
    "metric_tensor",
    "riemannian_gradient_flow_check",
    "GeodesicResult",
    "geodesic_distance",
    "metric_monotonicity_check",
]

POSITIVITY_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# batched metric assembly
# ---------------------------------------------------------------------------


class _MetricWorkspace:
    """Precomputed jump data for batched metric-matrix assembly."""

    def __init__(self, spec: GeneratorSpec):
        self.spec = spec
        self.n = n = spec.dim
        # the traceless Hermitian basis B_a as (nb, n, n), and flattened as
        # rows (nb, n^2)
        self.basis = np.array(traceless_hermitian_basis(n))
        self.flat_basis = self.basis.reshape(-1, n * n)
        self.nb = len(self.flat_basis)
        # derivatives d_j B_a as (J, nb, n, n), their rows stacked
        vs = np.array([v for v, _ in spec.jumps], dtype=complex).reshape(-1, 1, n, n)
        bs = self.basis[None]
        self.stacked_derivs = (vs @ bs - bs @ vs).reshape(-1, n)
        self.omegas = spec.omegas()
        # kernel tilts e^{+omega_j/2}, e^{-omega_j/2}, stacked as (2, J)
        self.tilts = kernel_tilts(self.omegas)

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates Tr[B_a X] of traceless Hermitian X (the last two axes)."""
        x = np.asarray(x, dtype=complex)
        return (x.reshape(*x.shape[:-2], -1) @ np.conj(self.flat_basis).T).real

    def spectral_data(self, rhos: np.ndarray):
        """Eigen-data of a batch of states for assembly and its derivative.

        Returns the eigenvalues (B, n) and eigenvectors (B, n, n), the
        kernels LM(e^{omega_j/2} lam_i, e^{-omega_j/2} lam_k) as (B, J, n, n)
        and the derivatives in each eigenbasis, U^* (d_j B_a) U, laid out
        as (B, nb, J n^2).
        """
        rhos = np.asarray(rhos, dtype=complex)
        lam, u = np.linalg.eigh(rhos)
        lam = np.maximum(lam, 1e-14)
        up, down = self.tilts[:, None, :, None] * lam[:, None, :]
        ker = log_mean(up[..., None], down[..., None, :])
        b, n, nj = len(rhos), self.n, len(self.omegas)
        t = self.rotated(self.stacked_derivs, u).reshape(b, n, nj, self.nb, n)
        return lam, u, ker, t.transpose(0, 3, 2, 1, 4).reshape(b, self.nb, nj * n * n)

    @staticmethod
    def rotated(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """U^* A_m U in each eigenbasis U of ``u`` (B, n, n), for a stack of
        matrices A_m given by their rows (m n, n), laid out as (B, n, m, n):
        two stacked products, A_m U and then U^* from the left."""
        b, n = len(u), u.shape[-1]
        right = (rows @ u).reshape(b, -1, n, n).transpose(0, 2, 1, 3).reshape(b, n, -1)
        return (np.conj(np.swapaxes(u, -1, -2)) @ right).reshape(b, n, -1, n)

    @staticmethod
    def assemble(ker: np.ndarray, t: np.ndarray) -> np.ndarray:
        """M[b]_{a,c} = sum_j sum_{ik} conj(t_{b,a,jik}) ker_{b,jik} t_{b,c,jik}."""
        weighted = np.conj(t) * ker.reshape(len(ker), 1, -1)
        m = (weighted @ np.swapaxes(t, -1, -2)).real
        return 0.5 * (m + m.transpose(0, 2, 1))

    def metric_matrices(self, rhos: np.ndarray) -> np.ndarray:
        """M[b] for a batch of states, shape (B, nb, nb), real symmetric.

        M[b]_{a,c} = sum_j <d_j B_a, [rho_b]_{omega_j} d_j B_c>.
        """
        _, _, ker, t = self.spectral_data(rhos)
        return self.assemble(ker, t)

    def derivatives(self, spectral, x: np.ndarray):
        """G_{c,a} = (d_a M x)_c and S_ab = x^T (d_a d_b M) x, each (B, nb, nb),
        for the :meth:`spectral_data` of B states and x (B, nb).

        With Y_j = d_j X and H_a = U^* B_a U in each eigenbasis, G pairs d_j B_c
        with sum_l left_ilk (H_a)_il Y_lk + right_ilk Y_il (H_a)_lk, the first
        Daleckii-Krein derivative of [rho]_{omega_j} in direction B_a.  S_ab =
        sum_j <Y_j, D^2[rho]_{omega_j}(B_a, B_b) Y_j> has three parts, both
        derivatives on the left eigenvalues, one on each side and both on the
        right, each a contraction of Y, Y^* and second divided differences.
        """
        lam, u, ker, t = spectral
        kk, nj, n, nb = len(ker), len(self.omegas), self.n, self.nb
        yt = (x[:, None, :] @ t).reshape(kk, nj, n, n)
        left, right = kernel_divided_differences(lam, self.tilts, ker)
        hb = self.rotated(self.basis.reshape(-1, n), u).transpose(0, 2, 1, 3)
        dy = (left * yt[:, :, None]).transpose(0, 2, 3, 1, 4).reshape(kk, n, n, nj * n)
        dy = (hb.transpose(0, 2, 1, 3) @ dy).reshape(kk, n, nb, nj, n).transpose(0, 2, 3, 1, 4)
        dr = (right * yt[..., None]).transpose(0, 4, 1, 2, 3).reshape(kk, n, nj * n, n)
        dy = dy + (dr @ hb.transpose(0, 3, 2, 1)).reshape(kk, n, nj, n, nb).transpose(0, 4, 2, 3, 1)
        g = (np.conj(t) @ np.swapaxes(dy.reshape(kk, nb, -1), -1, -2)).real
        yc = np.conj(yt)
        in_s, mixed, in_r = kernel_second_divided_differences(lam, self.tilts, left, right)
        # the parts in s and in r both pair as sum_xyz (H_a)_xy W_xyz (H_b)_yz,
        # with W_xyz = sum_jd A_jxd D_jxyzd conj(A_jzd): A = Y^* and D the
        # differences in s at (x, y, z; d), then A = Y^T and D those in r at
        # (d; x, y, z)
        yt_t = np.swapaxes(yt, -1, -2)
        w = np.einsum("bjxd,bjxyzd,bjzd->bxyz", yc, in_s, yt)
        w += np.einsum("bjxd,bjxyzd,bjzd->bxyz", yt_t, in_r.transpose(0, 1, 3, 4, 5, 2), np.conj(yt_t))
        w_mixed = np.einsum("bjik,bjilpk,bjlp->bilpk", yc, mixed, yt)
        # both as V_{a,yz}, to be paired with (H_b)_yz
        flat = hb.reshape(kk, nb, n * n)
        v = (hb.transpose(0, 3, 1, 2) @ w.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
        v = v.reshape(kk, nb, n * n)
        v += flat @ w_mixed.reshape(kk, n * n, n * n)
        r = (v @ np.swapaxes(flat, -1, -2)).real
        return g, r + np.swapaxes(r, -1, -2)


def _require_segments(segments: int):
    if segments < 1:
        raise ValueError(f"segments must be at least 1, got {segments}")


def _require_metric(spec: GeneratorSpec):
    """ValueError unless the spec has a transport metric: traceless
    Hermitian matrices exist (dim >= 2) and L is ergodic."""
    if spec.dim < 2:
        raise ValueError(f"the transport metric needs dim >= 2, not dim {spec.dim}")
    if ergodicity(spec) != 1:
        raise ValueError("specification is not ergodic; the metric is degenerate")


def _require_tangent(x, shape: tuple, what: str) -> np.ndarray:
    """``x`` as a complex array, after ValueError unless it has ``shape`` and
    each n x n matrix in it is Hermitian and traceless to 1e-9 of its norm,
    in entries scaled by :func:`~qmsflow.linalg._binary_scale` (any units)."""
    x = check_finite(x, what)
    if x.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {x.shape}")
    s = _binary_scale(np.abs(x).max(axis=(-2, -1), initial=0.0))[..., None, None] * x
    size = 1e-9 * np.linalg.norm(s, axis=(-2, -1))
    if np.any(np.linalg.norm(s - np.conj(np.swapaxes(s, -1, -2)), axis=(-2, -1)) > size):
        raise ValueError(f"{what} must be Hermitian")
    if np.any(np.abs(np.trace(s, axis1=-2, axis2=-1)) > size):
        raise ValueError(f"{what} must be traceless")
    return x


@dataclass
class TangentDecomposition:
    """Continuity-equation solution at a state: the potential U and the
    squared metric norm Tr[U rho-dot]."""

    potential: np.ndarray
    metric_value: float


def continuity_solve(
    spec: GeneratorSpec, rho: DensityState, rho_dot: np.ndarray
) -> TangentDecomposition:
    """Solve rho-dot = -div([rho]_omega grad U) for traceless Hermitian U.

    Returns U and the squared metric norm Tr[U rho-dot]; the field
    [rho]_omega grad U, if wanted, is ``rho_mult`` of ``grad(spec, U)``
    jump by jump.  A spec without a transport metric (dim 1, or not
    ergodic) raises ValueError."""
    rho_dot = _require_tangent(rho_dot, (spec.dim, spec.dim), "rho_dot")
    _require_metric(spec)
    ws = _MetricWorkspace(spec)
    m = ws.metric_matrices(rho.rho[None])[0]
    b = ws.coords(rho_dot)
    x = np.linalg.solve(m, b)
    return TangentDecomposition((x @ ws.flat_basis).reshape(ws.n, ws.n), float(x @ b))


def metric_tensor(spec: GeneratorSpec, rho: DensityState, coord_basis) -> np.ndarray:
    """Coordinate metric tensor [g]_{k,l} for directions A_k.

    Entry (k, l) is the metric pairing of the tangent vectors A_k, A_l,
    i.e. a_k^T M^{-1} a_l in an orthonormal traceless-Hermitian basis.
    Each A_k must be a tangent vector, as ``continuity_solve``'s rho-dot.
    """
    _require_metric(spec)
    dirs = _require_tangent(coord_basis, (len(coord_basis), spec.dim, spec.dim), "directions")
    ws = _MetricWorkspace(spec)
    m = ws.metric_matrices(rho.rho[None])[0]
    a = ws.coords(dirs).T
    g = a.T @ np.linalg.solve(m, a)
    return 0.5 * (g + g.T)


def riemannian_gradient_flow_check(spec: GeneratorSpec, rho: DensityState) -> dict:
    """Residuals of the gradient-flow identities at one state.

    Returns the relative residual of

        L^+(rho) = div( [rho]_omega grad(log rho - log sigma) )

    and the mismatch of the energy identity
    Tr[(log rho - log sigma) L^+ rho] = -g(L^+ rho, L^+ rho).
    The metric g is that of ``continuity_solve``, so a spec that is not
    ergodic raises ``ValueError``.
    """
    # L^+(rho) is traceless Hermitian; only round-off is removed here, which
    # at a fixed point is all of rho_dot
    rho_dot = apply_dual(spec, rho.rho)
    rho_dot = 0.5 * (rho_dot + dag(rho_dot))
    rho_dot -= np.trace(rho_dot).real / spec.dim * np.eye(spec.dim)
    entropy_grad = rho.log() - spec.sigma.log()
    fld = [rho_mult(rho, w, d) for (_, w), d in zip(spec.jumps, grad(spec, entropy_grad))]
    div_fld = divergence(spec, fld)
    denom = max(float(np.linalg.norm(rho_dot)), 1e-300)
    residual = float(np.linalg.norm(rho_dot - div_fld) / denom)

    dec = continuity_solve(spec, rho, rho_dot)
    lhs = float(np.trace(entropy_grad @ rho_dot).real)
    energy_mismatch = abs(lhs + dec.metric_value)
    return {
        "gradient_flow_residual": residual,
        "energy_identity_mismatch": energy_mismatch,
        "metric_value": dec.metric_value,
    }


# ---------------------------------------------------------------------------
# geodesic action minimization
# ---------------------------------------------------------------------------


@dataclass
class GeodesicResult:
    """A minimized K-segment action and its path.

    ``decrement`` is lambda^2/2 at the returned path, lambda the Newton
    decrement: an estimate of how far the action is above the discrete
    problem's minimum (exact for a quadratic action), not a bound.
    """

    distance: float
    action: float
    segment_actions: np.ndarray
    iterations: int
    converged: bool
    decrement: float
    path: list = field(repr=False)

    def as_dict(self) -> dict:
        return {
            "distance": self.distance,
            "action": self.action,
            "segment_actions": [float(x) for x in self.segment_actions],
            "iterations": self.iterations,
            "converged": self.converged,
            "decrement": self.decrement,
        }


@dataclass
class _PathEvaluation:
    """Per segment of one path: the increment delta, M^{-1} at the midpoint,
    x = M^{-1} delta, and the midpoint's ``_MetricWorkspace.spectral_data``."""

    deltas: np.ndarray
    metric_inv: np.ndarray
    sol: np.ndarray
    spectral: tuple


class _PathProblem:
    """Discretized action of a piecewise-linear path with fixed endpoints.

    Interior states are coordinates in the traceless Hermitian basis
    around the maximally mixed matrix; the action of segment k is
    K * delta_k^T M((rho_k + rho_{k+1})/2)^{-1} delta_k.

    Every quantity is computed for all K midpoints at once, and once per
    evaluated path.  The workspace forms M, G and S, and this class does
    not read their layout: :meth:`evaluate` inverts each M, which gives
    x = M^{-1} delta and the action; :meth:`derivatives` adds G and S from
    :meth:`_MetricWorkspace.derivatives`, from which
    :func:`_node_derivatives` reads the gradient and the Hessian.
    """

    def __init__(self, ws: _MetricWorkspace, rho0: np.ndarray, rho1: np.ndarray, k: int):
        self.ws = ws
        self.k = k
        self.n = ws.n
        self.y0 = ws.coords(rho0 - np.eye(self.n) / self.n)
        self.y1 = ws.coords(rho1 - np.eye(self.n) / self.n)

    def initial(self) -> np.ndarray:
        ts = np.linspace(0.0, 1.0, self.k + 1)[1:-1]
        return self.y0[None, :] + ts[:, None] * (self.y1 - self.y0)[None, :]

    def full_coords(self, y: np.ndarray) -> np.ndarray:
        return np.vstack([self.y0[None, :], y, self.y1[None, :]])

    def states(self, coords: np.ndarray) -> np.ndarray:
        base = np.eye(self.n, dtype=complex) / self.n
        return base[None] + (coords @ self.ws.flat_basis).reshape(-1, self.n, self.n)

    def min_eigenvalue(self, y: np.ndarray) -> float:
        if y.size == 0:
            return np.inf
        return float(np.min(np.linalg.eigvalsh(self.states(y))))

    def evaluate(self, y: np.ndarray) -> _PathEvaluation:
        """Segment data of the path with interior coordinates ``y``, from
        which the action and its derivatives are read."""
        coords = self.full_coords(y)
        states = self.states(coords)
        mids = 0.5 * (states[:-1] + states[1:])
        deltas = coords[1:] - coords[:-1]
        spectral = self.ws.spectral_data(mids)
        # each M is inverted once: x here, M^{-1} and M^{-1} G in the Hessian
        m_inv = np.linalg.inv(self.ws.assemble(*spectral[2:]))
        sol = (m_inv @ deltas[..., None])[..., 0]
        return _PathEvaluation(deltas, m_inv, sol, spectral)

    def segment_actions(self, evaluation: _PathEvaluation) -> np.ndarray:
        return self.k * np.einsum("ka,ka->k", evaluation.deltas, evaluation.sol)

    def derivatives(self, evaluation: _PathEvaluation):
        """Exact gradient and block-tridiagonal Hessian of the action in the
        interior coordinates, times 2^-e, and e (see :func:`_node_derivatives`),
        from the path's :meth:`evaluate` and G and S at x = M^{-1} delta."""
        ev = evaluation
        g, s = self.ws.derivatives(ev.spectral, ev.sol)
        return _node_derivatives(self.k, ev.sol, ev.metric_inv, ev.metric_inv @ g, g, s)


def _node_derivatives(k, sol, p_inv, p_inv_g, g, s):
    """Gradient and block-tridiagonal Hessian of a K-segment action
    sum_k K delta_k^T P(m_k)^{-1} delta_k in the interior nodes, from each
    segment's x = P^{-1} delta (K, b), P^{-1}, P^{-1} G, G and S (K, b, b),
    all times 2^-e, and e.  Both are linear in x, P^{-1}, P^{-1} G and S at
    fixed G, so those are scaled by 2^-e first, with e such that 2K P^{-1}
    has entries at most 1.  The unscaled Hessian, whose blocks are 2K-fold
    multiples of P^{-1}, need not fit in double precision; the scaling by
    a power of 2 is exact, and so is the Newton step of the scaled system.

    In (delta, m) segment k has the gradient 2K x in delta and -K x^T G in
    m, with G_{c,a} = (d_a P x)_c, and the Hessian
    2K [I, -G]^T P^{-1} [I, -G] - K S, with S_ab = x^T (d_a d_b P) x.  P is
    concave in m (for M, because rho |-> [rho]_omega is operator concave),
    so S <= 0 and the Hessian is positive semidefinite.  Node k is the
    right end of segment k-1 (delta moves with it, m at half speed) and
    the left end of segment k (delta against it).  Returns the gradient (K-1, b), the diagonal blocks
    (K-1, b, b) and the subdiagonal ones (K-2, b, b), block (k+1, k) being
    the coupling through segment k.
    """
    e = int(np.frexp(np.abs(p_inv).max())[1]) + (2 * k).bit_length()
    sol, p_inv, p_inv_g, s = (np.ldexp(a, -e) for a in (sol, p_inv, p_inv_g, s))
    dmid = -k * (sol[:, None, :] @ g)[:, 0]
    ddelta = 2.0 * k * sol
    gradient = ddelta[:-1] - ddelta[1:] + 0.5 * (dmid[:-1] + dmid[1:])
    dd, dm = 2.0 * k * p_inv, -2.0 * k * p_inv_g
    mm = k * (2.0 * np.swapaxes(g, -1, -2) @ p_inv_g - s)
    sym = 0.5 * (dm + np.swapaxes(dm, -1, -2))
    skew = dm - sym
    diag = (dd + sym + 0.25 * mm)[:-1] + (dd - sym + 0.25 * mm)[1:]
    lower = (0.25 * mm - dd + skew)[1:-1]
    return gradient, 0.5 * (diag + np.swapaxes(diag, -1, -2)), lower, e


def _newton_step(diag, lower, g):
    """Newton step s = -H^{-1} g and squared decrement g^T H^{-1} g for the
    block-tridiagonal H, by block Gaussian elimination in O(K b^3) for K
    blocks of size b.  H is positive definite, so the pivots, Schur
    complements of the leading blocks, are too and need no pivoting.
    """
    pivots, rhs = [diag[0]], [-g[0]]
    for block, coupling, gk in zip(diag[1:], lower, g[1:]):
        carried = np.linalg.solve(pivots[-1], np.column_stack([coupling.T, rhs[-1]]))
        pivots.append(block - coupling @ carried[:, :-1])
        rhs.append(-gk - coupling @ carried[:, -1])
    step = np.empty_like(g)
    step[-1] = np.linalg.solve(pivots[-1], rhs[-1])
    for k in range(len(g) - 2, -1, -1):
        step[k] = np.linalg.solve(pivots[k], rhs[k] - lower[k].T @ step[k + 1])
    return step, float(-g.ravel() @ step.ravel())


# converged when lambda^2/2 <= DECREMENT_RTOL * action; a step s is taken
# when it keeps every state above the floor and the action drops by at least
# ARMIJO_SLOPE * (-g^T s)
DECREMENT_RTOL = 1e-12
ARMIJO_SLOPE = 0.25


def _minimize_path(problem, max_iter):
    """Damped Newton on the convex discrete action (Boyd-Vandenberghe,
    Convex Optimization, 9.5) from ``problem.initial()``, at most
    ``max_iter`` steps.

    At each point the exact gradient g and Hessian H give the step
    s = -H^{-1} g and the Newton decrement lambda^2 = g^T H^{-1} g.  The
    solve has converged when lambda^2/2 is at most DECREMENT_RTOL times the
    action, a test that does not depend on units.  A Newton step that
    leaves the positivity floor POSITIVITY_FLOOR or fails the Armijo test
    is damped, as in Levenberg-Marquardt, to -(H + nu h I)^{-1} g with h
    the mean diagonal entry of H and nu raised 4-fold from 1e-4 until the
    step is taken; nu falls 8-fold after each step, to 0 below 1e-6.
    Between nearly pure endpoints the Newton step can point out of the
    floor's region while the minimum lies inside it, and halving it stalls
    at the floor; the damped step turns towards the gradient instead.  Each
    point is evaluated once, and each accepted one differentiated once.  A
    spent budget, or a step that no damping makes acceptable, is not
    converged.

    Returns the interior points and the result, whose path the caller sets.
    """
    y = problem.initial()
    evaluation = problem.evaluate(y)
    action = float(np.sum(problem.segment_actions(evaluation)))
    steps, squared, converged, damping = 0, 0.0, True, 0.0
    while y.size:
        # the system is the action's times 2^-e, which leaves the step exact
        g, diag, lower, e = problem.derivatives(evaluation)
        direction, squared = _newton_step(diag, lower, g)
        squared = math.ldexp(squared, e)
        converged = 0.5 * squared <= DECREMENT_RTOL * action
        if converged or steps >= max_iter:
            break
        for _ in range(60):
            if damping:
                h = np.trace(diag, axis1=1, axis2=2).mean() / diag.shape[1]
                direction = _newton_step(diag + damping * h * np.eye(diag.shape[1]), lower, g)[0]
            cand = y + direction
            if problem.min_eigenvalue(cand) >= POSITIVITY_FLOOR:
                cand_evaluation = problem.evaluate(cand)
                cand_action = float(np.sum(problem.segment_actions(cand_evaluation)))
                if cand_action <= action + ARMIJO_SLOPE * math.ldexp(float(g.ravel() @ direction.ravel()), e):
                    break
            damping = max(4.0 * damping, 1e-4)
        else:
            break
        y, evaluation, action = cand, cand_evaluation, cand_action
        damping = damping / 8.0 if damping > 1e-6 else 0.0
        steps += 1
    result = GeodesicResult(
        distance=float(np.sqrt(max(action, 0.0))),
        action=action,
        segment_actions=problem.segment_actions(evaluation),
        iterations=steps,
        converged=bool(converged),
        decrement=0.5 * squared,
        path=[],
    )
    return y, result


def geodesic_distance(
    spec: GeneratorSpec,
    rho0: DensityState,
    rho1: DensityState,
    segments: int = 16,
    max_iter: int = 400,
) -> GeodesicResult:
    """Transport distance between two faithful states, K = ``segments``.

    Returns sqrt of the minimized K-segment midpoint-rule action over
    piecewise-linear paths.  The action is convex in the interior states,
    and damped Newton on its exact gradient and block-tridiagonal Hessian,
    with a positivity safeguard (every state's eigenvalues at least
    POSITIVITY_FLOOR), minimizes it in a few steps (``max_iter`` of them at
    most).  ``converged`` means the Newton decrement test
    passed, and ``decrement`` estimates, without bounding, how far the
    action still is above the discrete minimum.  The action bounds the
    discrete problem's minimum from above; it is not an upper bound on the
    continuum distance, which it approaches from below as K grows.
    """
    _require_segments(segments)
    _require_metric(spec)
    for r in (rho0, rho1):
        if r.dim != spec.dim:
            raise ValueError(f"endpoint is dim {r.dim}, the spec is dim {spec.dim}")
        if float(r.eigenvalues[0]) < POSITIVITY_FLOOR:
            raise ValueError("endpoint is not strictly positive at the working floor")
    problem = _PathProblem(_MetricWorkspace(spec), rho0.rho, rho1.rho, segments)
    y, result = _minimize_path(problem, max_iter)
    result.path = [np.asarray(s) for s in problem.states(problem.full_coords(y))]
    return result


def metric_monotonicity_check(
    spec: GeneratorSpec,
    rho: DensityState,
    a: np.ndarray,
    omega: float,
    t: float,
) -> tuple[bool, float, float]:
    """Contraction of <A, [rho]_omega^{-1} A> under the dual semigroup.

    Passes when the evolved value exceeds the initial one by at most
    1e-10 times the initial value, so the verdict does not depend on the
    scale of A.  Returns (passed, evolved value, initial value).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    from .calculus import rho_div
    from .generators import dual_orbit
    from .linalg import hs_inner

    (rho_t,) = dual_orbit(spec, rho.rho, [t])
    rho_t = 0.5 * (rho_t + dag(rho_t))
    rho_t = DensityState.from_matrix(rho_t / np.trace(rho_t).real)
    (a_t,) = dual_orbit(spec, a, [t])
    lhs = hs_inner(a_t, rho_div(rho_t, omega, a_t)).real
    rhs = hs_inner(a, rho_div(rho, omega, np.asarray(a, dtype=complex))).real
    return bool(lhs <= rhs + 1e-10 * abs(rhs)), float(lhs), float(rhs)
