"""Transport Riemannian structure on faithful states.

A tangent vector at rho (traceless Hermitian rho-dot) is identified with
the unique traceless self-adjoint potential U solving the continuity
equation

    rho-dot = -div( [rho]_omega grad U ) ,

and the squared metric is

    g_rho(rho-dot, rho-dot) = sum_j <d_j U, [rho]_{omega_j} d_j U>
                            = Tr[U rho-dot]                (unnormalized).

On the real space of traceless Hermitian matrices the operator
A |-> -div([rho] grad A) is a symmetric positive-definite matrix M, so
the solve is a Cholesky factorization, the metric value is a quadratic
form in M^{-1}, and the coordinate metric tensor is M^{-1} itself in an
orthonormal coordinate basis.  Geodesic distances come from minimizing
the K-segment midpoint-rule action of a piecewise-linear path with its
exact gradient.  The minimized action bounds the discrete problem from
above, but midpoint quadrature of the (jointly convex) integrand
underestimates, so as K grows it approaches the continuum value from
below.  The same discretization applied to a reversible Markov chain with
logarithmic-mean edge weights serves as the commutative reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import dag, traceless_hermitian_basis
from .states import DensityState
from .generators import GeneratorSpec, RateMatrix, apply_dual, ergodicity
from .calculus import grad, log_mean, log_mean_dx, rho_mult, divergence

__all__ = [
    "TangentDecomposition",
    "continuity_solve",
    "metric_tensor",
    "weighted_laplacian_super",
    "riemannian_gradient_flow_check",
    "GeodesicResult",
    "geodesic_distance",
    "metric_monotonicity_check",
    "classical_transport_distance",
]

POSITIVITY_FLOOR = 1e-8
CONVERGENCE_DROP = 1e-9
CONVERGENCE_SPAN = 5


# ---------------------------------------------------------------------------
# batched metric assembly
# ---------------------------------------------------------------------------


class _MetricWorkspace:
    """Precomputed jump data for batched metric-matrix assembly."""

    def __init__(self, spec: GeneratorSpec):
        self.spec = spec
        n = spec.dim
        self.n = n
        self.basis = traceless_hermitian_basis(n)
        self.nb = len(self.basis)
        # derivatives d_j B_a as (J, nb, n, n), their rows stacked
        vs = np.array([v for v, _ in spec.jumps], dtype=complex).reshape(-1, 1, n, n)
        bs = np.stack(self.basis)[None]
        self.stacked_derivs = (vs @ bs - bs @ vs).reshape(-1, n)
        self.omegas = spec.omegas()
        # kernel tilts e^{+omega_j/2}, e^{-omega_j/2}, shaped to broadcast
        # against eigenvalues (B, 1, n)
        self.tilt_up = np.exp(self.omegas / 2.0)[None, :, None]
        self.tilt_down = np.exp(-self.omegas / 2.0)[None, :, None]
        self.flat_basis = bs.reshape(self.nb, n * n)

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of a (traceless Hermitian) matrix in the basis."""
        return np.array([np.trace(b @ x).real for b in self.basis])

    def matrix(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=complex)
        for c, b in zip(y, self.basis):
            out += c * b
        return out

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
        ker = log_mean(
            (self.tilt_up * lam[:, None, :])[..., None],
            (self.tilt_down * lam[:, None, :])[..., None, :],
        )
        b, n, nj = len(rhos), self.n, len(self.omegas)
        # two stacked products: (d_j B_a) U, then U^* from the left
        right = (self.stacked_derivs @ u).reshape(b, nj * self.nb, n, n)
        right = right.transpose(0, 2, 1, 3).reshape(b, n, nj * self.nb * n)
        t = (np.conj(np.swapaxes(u, -1, -2)) @ right).reshape(b, n, nj, self.nb, n)
        return lam, u, ker, t.transpose(0, 3, 2, 1, 4).reshape(b, self.nb, nj * n * n)

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


def _require_segments(segments: int):
    if segments < 1:
        raise ValueError(f"segments must be at least 1, got {segments}")


def _require_ergodic(spec: GeneratorSpec):
    if ergodicity(spec) != 1:
        raise ValueError("specification is not ergodic; the metric is degenerate")


def weighted_laplacian_super(spec: GeneratorSpec, rho: DensityState) -> np.ndarray:
    """Superoperator of A |-> div([rho]_omega grad A).

    Negative semidefinite and Hermitian in the Hilbert-Schmidt inner
    product; its null space is the commutant of the jump set.
    """
    from .linalg import commutator_super
    from .calculus import rho_mult_super

    big = spec.dim ** 2
    out = np.zeros((big, big), dtype=complex)
    for v, w in spec.jumps:
        cj = commutator_super(v)
        cjd = commutator_super(dag(v))
        out -= cjd @ rho_mult_super(rho, w) @ cj
    return out


@dataclass
class TangentDecomposition:
    """Continuity-equation solution at a state."""

    rho_dot: np.ndarray
    potential: np.ndarray
    field: list
    metric_value: float


def _solve_metric_system(m: np.ndarray, b: np.ndarray, jitter: float = 1e-12) -> np.ndarray:
    """Cholesky solve of the (PD on traceless Hermitians) metric system."""
    import scipy.linalg

    scale = max(float(np.max(np.abs(m))), 1e-300)
    try:
        cho = scipy.linalg.cho_factor(m, lower=True)
        return scipy.linalg.cho_solve(cho, b)
    except np.linalg.LinAlgError:
        pass
    except scipy.linalg.LinAlgError:
        pass
    cho = scipy.linalg.cho_factor(m + jitter * scale * np.eye(m.shape[0]), lower=True)
    return scipy.linalg.cho_solve(cho, b)


def continuity_solve(
    spec: GeneratorSpec, rho: DensityState, rho_dot: np.ndarray
) -> TangentDecomposition:
    """Solve rho-dot = -div([rho]_omega grad U) for traceless Hermitian U."""
    rho_dot = np.asarray(rho_dot, dtype=complex)
    size = np.linalg.norm(rho_dot)
    if np.linalg.norm(rho_dot - dag(rho_dot)) > 1e-9 * size:
        raise ValueError("rho_dot must be Hermitian")
    if abs(np.trace(rho_dot)) > 1e-9 * size:
        raise ValueError("rho_dot must be traceless")
    _require_ergodic(spec)
    ws = _MetricWorkspace(spec)
    m = ws.metric_matrices(rho.rho[None])[0]
    b = ws.coords(rho_dot)
    x = _solve_metric_system(m, b)
    u = ws.matrix(x)
    fld = [rho_mult(rho, w, d) for (_, w), d in zip(spec.jumps, grad(spec, u))]
    return TangentDecomposition(
        rho_dot=rho_dot,
        potential=u,
        field=fld,
        metric_value=float(x @ b),
    )


def metric_tensor(spec: GeneratorSpec, rho: DensityState, coord_basis) -> np.ndarray:
    """Coordinate metric tensor [g]_{k,l} for directions A_k.

    Entry (k, l) is the metric pairing of the tangent vectors A_k, A_l,
    i.e. a_k^T M^{-1} a_l in an orthonormal traceless-Hermitian basis.
    """
    _require_ergodic(spec)
    ws = _MetricWorkspace(spec)
    m = ws.metric_matrices(rho.rho[None])[0]
    a = np.array([ws.coords(np.asarray(x, dtype=complex)) for x in coord_basis]).T
    sol = _solve_metric_system(m, a)
    g = a.T @ sol
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
    distance: float
    action: float
    segment_actions: np.ndarray
    iterations: int
    converged: bool
    path: list = field(repr=False)

    def as_dict(self) -> dict:
        return {
            "distance": self.distance,
            "action": self.action,
            "segment_actions": [float(x) for x in self.segment_actions],
            "iterations": self.iterations,
            "converged": self.converged,
        }


class _PathProblem:
    """Discretized action of a piecewise-linear path with fixed endpoints.

    Interior states are coordinates in the traceless Hermitian basis
    around the maximally mixed matrix; the action of segment k is
    K * delta_k^T M((rho_k + rho_{k+1})/2)^{-1} delta_k.
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
        states = self.states(y)
        return float(np.min(np.linalg.eigvalsh(states)))

    def evaluate(self, y: np.ndarray):
        """Segment data of the path with interior coordinates ``y``: the
        increments, the solutions x = M^{-1} delta and the midpoints'
        spectral data, from which the action and its gradient are read."""
        coords = self.full_coords(y)
        states = self.states(coords)
        mids = 0.5 * (states[:-1] + states[1:])
        deltas = coords[1:] - coords[:-1]
        lam, u, ker, t = self.ws.spectral_data(mids)
        m = self.ws.assemble(ker, t)
        sol = np.linalg.solve(m, deltas[..., None])[..., 0]
        return deltas, sol, lam, u, ker, t

    def segment_actions(self, evaluation) -> np.ndarray:
        deltas, sol = evaluation[:2]
        return self.k * np.einsum("ka,ka->k", deltas, sol)

    def action(self, evaluation) -> float:
        return float(np.sum(self.segment_actions(evaluation)))

    def gradient(self, evaluation) -> np.ndarray:
        """Exact gradient of the action in the interior coordinates, read
        from the path's :meth:`evaluate`.

        Segment k contributes K delta^T M(m)^{-1} delta with x = M^{-1} delta:
        2K x in delta and -K x^T (dM) x in its midpoint m. The latter is
        the derivative of sum_j <Y_j, [m]_{omega_j} Y_j>, Y_j = d_j X with
        X = sum_c x_c B_c, a first divided difference of the kernel in the
        eigenbasis of m (Daleckii-Krein).
        """
        _, x, lam, u, ker, t = evaluation
        kk, nj = ker.shape[:2]
        n = self.n
        # Y_j in the eigenbasis of each midpoint, (K, J, n, n)
        yt = (x[:, None, :] @ t).reshape(kk, nj, n, n)
        up = self.ws.tilt_up * lam[:, None, :]
        down = self.ws.tilt_down * lam[:, None, :]
        # divided differences over (K, J, i, l, k): first argument of the
        # kernel moving between lam_i and lam_l, then the second argument
        # moving between lam_l and lam_k
        first = self.ws.tilt_up[..., None, None] * _log_mean_divided_difference(
            up[:, :, :, None, None], up[:, :, None, :, None], down[:, :, None, None, :],
            ker[:, :, :, None, :], ker[:, :, None, :, :],
        )
        second = _log_mean_divided_difference(
            down[:, :, None, :, None], down[:, :, None, None, :], up[:, :, :, None, None],
            ker[:, :, :, :, None], ker[:, :, :, None, :],
        ) * self.ws.tilt_down[..., None, None]
        yc = np.conj(yt)
        g = np.einsum("bjilk,bjik,bjlk->bil", first, yc, yt)
        g += np.einsum("bjilk,bjik,bjil->blk", second, yc, yt)
        # d/dH of the quadratic form is sum_pq g_pq (U^* H U)_pq; pair it
        # with each basis element
        z = (np.conj(u) @ g @ np.swapaxes(u, -1, -2)).reshape(kk, n * n)
        dmid = -self.k * (z @ self.ws.flat_basis.T).real
        ddelta = 2.0 * self.k * x
        return ddelta[:-1] - ddelta[1:] + 0.5 * (dmid[:-1] + dmid[1:])


def _log_mean_divided_difference(x1, x2, y, lm1, lm2):
    """(LM(x1, y) - LM(x2, y))/(x1 - x2) from lm1 = LM(x1, y), lm2 = LM(x2, y).

    Within a relative gap of 1e-5 the difference quotient cancels, and the
    derivative at the midpoint (error ~gap^2) replaces it.
    """
    close = np.abs(x1 - x2) <= 1e-5 * np.maximum(x1, x2)
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = (lm1 - lm2) / (x1 - x2)
    return np.where(close, log_mean_dx(0.5 * (x1 + x2), y), quotient)


def _minimize_path(problem, y, max_iter, floor):
    """Projected descent with Barzilai-Borwein steps and backtracking.

    Each point is evaluated once: the accepted candidate's evaluation gives
    its gradient and, at the end, is returned with it.
    """
    evaluation = problem.evaluate(y)
    action = problem.action(evaluation)
    g = problem.gradient(evaluation)
    step = 1.0 / max(np.linalg.norm(g), 1.0)
    history = []
    prev_y = None
    prev_g = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if prev_y is not None:
            sy = (y - prev_y).ravel()
            sg = (g - prev_g).ravel()
            denom = float(sy @ sg)
            if denom > 1e-300:
                step = float(sy @ sy) / denom
            step = float(np.clip(step, 1e-12, 1e6))
        t = step
        accepted = False
        for _ in range(60):
            cand = y - t * g
            if problem.min_eigenvalue(cand) >= floor:
                cand_evaluation = problem.evaluate(cand)
                cand_action = problem.action(cand_evaluation)
                if cand_action < action:
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            # no decrease along the gradient at any feasible step
            return y, evaluation, action, iterations, True
        prev_y, prev_g = y, g
        drop = action - cand_action
        y, evaluation, action = cand, cand_evaluation, cand_action
        g = problem.gradient(evaluation)
        history.append(drop)
        if len(history) >= CONVERGENCE_SPAN and sum(history[-CONVERGENCE_SPAN:]) < CONVERGENCE_DROP:
            return y, evaluation, action, iterations, True
    return y, evaluation, action, iterations, False


def geodesic_distance(
    spec: GeneratorSpec,
    rho0: DensityState,
    rho1: DensityState,
    segments: int = 16,
    max_iter: int = 400,
    positivity_floor: float = POSITIVITY_FLOOR,
) -> GeodesicResult:
    """Transport distance between two faithful states, K = ``segments``.

    Returns sqrt of the minimized K-segment midpoint-rule action over
    piecewise-linear paths (Barzilai-Borwein descent on the exact
    gradient, with a positivity safeguard). The action is nonincreasing
    across iterations and bounds the discrete problem's minimum from
    above; it is not an upper bound on the continuum distance, which it
    approaches from below as K grows.
    """
    _require_segments(segments)
    _require_ergodic(spec)
    for r in (rho0, rho1):
        if float(r.eigenvalues[0]) < positivity_floor:
            raise ValueError("endpoint is not strictly positive at the working floor")
    ws = _MetricWorkspace(spec)
    problem = _PathProblem(ws, rho0.rho, rho1.rho, segments)
    y = problem.initial()
    if y.size == 0:
        seg = problem.segment_actions(problem.evaluate(y))
        return GeodesicResult(float(np.sqrt(seg.sum())), float(seg.sum()), seg, 0, True, [rho0.rho, rho1.rho])
    y, evaluation, action, iterations, converged = _minimize_path(
        problem, y, max_iter, positivity_floor
    )
    seg = problem.segment_actions(evaluation)
    path = [np.asarray(s) for s in problem.states(problem.full_coords(y))]
    return GeodesicResult(
        distance=float(np.sqrt(max(action, 0.0))),
        action=float(action),
        segment_actions=seg,
        iterations=iterations,
        converged=converged,
        path=path,
    )


def metric_monotonicity_check(
    spec: GeneratorSpec,
    rho: DensityState,
    a: np.ndarray,
    omega: float,
    t: float,
    slack: float = 1e-10,
) -> tuple[bool, float, float]:
    """Contraction of <A, [rho]_omega^{-1} A> under the dual semigroup.

    Passes when the evolved value exceeds the initial one by at most
    ``slack`` times the initial value, so the verdict does not depend on
    the scale of A.  Returns (passed, evolved value, initial value).
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
    return bool(lhs <= rhs + slack * abs(rhs)), float(lhs), float(rhs)


# ---------------------------------------------------------------------------
# classical chain oracle
# ---------------------------------------------------------------------------


class _ChainProblem:
    """Discrete-transport action for a reversible chain.

    Edge weights are logarithmic means w_xy(p) = LM(p_x Q_xy, p_y Q_yx);
    the quadratic form on increments solves the weighted graph Laplacian.
    This is the commutative reduction of the quantum metric.
    """

    def __init__(self, rates: np.ndarray, p0: np.ndarray, p1: np.ndarray, k: int):
        self.q = np.asarray(rates, dtype=float)
        self.m = self.q.shape[0]
        self.k = k
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        edges = [
            (x, y)
            for x in range(self.m)
            for y in range(x + 1, self.m)
            if self.q[x, y] > 1e-14 or self.q[y, x] > 1e-14
        ]
        self.tail = np.array([x for x, _ in edges], dtype=int)
        self.head = np.array([y for _, y in edges], dtype=int)
        self.q_out = self.q[self.tail, self.head]
        self.q_in = self.q[self.head, self.tail]
        # signed edge-vertex incidence, so that L(p) = D^T diag(w) D
        self.incidence = np.zeros((len(edges), self.m))
        self.incidence[np.arange(len(edges)), self.tail] = 1.0
        self.incidence[np.arange(len(edges)), self.head] = -1.0

    def initial(self) -> np.ndarray:
        ts = np.linspace(0.0, 1.0, self.k + 1)[1:-1]
        return self.p0[None, :] + ts[:, None] * (self.p1 - self.p0)[None, :]

    def full(self, y: np.ndarray) -> np.ndarray:
        return np.vstack([self.p0[None, :], y, self.p1[None, :]])

    def min_eigenvalue(self, y: np.ndarray) -> float:
        # positivity of occupation probabilities plays the role of the
        # minimum eigenvalue in the matrix case
        if y.size == 0:
            return np.inf
        return float(np.min(y))

    def evaluate(self, y: np.ndarray):
        """Per segment of the path with interior points ``y``: increments dp,
        midpoint edge masses and u = L(mid)^+ dp."""
        full = self.full(y)
        mids = 0.5 * (full[:-1] + full[1:])
        dps = full[1:] - full[:-1]
        out_mass = mids[:, self.tail] * self.q_out
        in_mass = mids[:, self.head] * self.q_in
        w = log_mean(out_mass, in_mass)
        lap = np.einsum("ex,ke,ey->kxy", self.incidence, w, self.incidence)
        # solve on the mean-zero complement
        lap += 1.0 / self.m
        u = np.linalg.solve(lap, dps[..., None])[..., 0]
        return dps, out_mass, in_mass, u

    def segment_actions(self, evaluation) -> np.ndarray:
        dps, _, _, u = evaluation
        return self.k * np.einsum("kx,kx->k", dps, u)

    def action(self, evaluation) -> float:
        return float(np.sum(self.segment_actions(evaluation)))

    def gradient(self, evaluation) -> np.ndarray:
        """Exact gradient from :meth:`evaluate`, projected onto mean-zero
        directions.

        Segment k contributes K dp^T L(mid)^+ dp: 2K u in dp and
        -K sum_xy (u_x - u_y)^2 dw_xy in its midpoint, where
        w_xy = LM(p_x Q_xy, p_y Q_yx).
        """
        _, out_mass, in_mass, u = evaluation
        flux = (u @ self.incidence.T) ** 2
        d_out = flux * self.q_out * log_mean_dx(out_mass, in_mass)
        d_in = flux * self.q_in * log_mean_dx(in_mass, out_mass)
        dmid = np.zeros_like(u)
        np.add.at(dmid, (slice(None), self.tail), d_out)
        np.add.at(dmid, (slice(None), self.head), d_in)
        dmid *= -self.k
        ddp = 2.0 * self.k * u
        g = ddp[:-1] - ddp[1:] + 0.5 * (dmid[:-1] + dmid[1:])
        return g - g.mean(axis=1, keepdims=True)


def classical_transport_distance(
    rates: RateMatrix, p0, p1, segments: int = 16, max_iter: int = 400
) -> GeodesicResult:
    """Discrete transport distance of the restricted chain.

    The minimized K-segment midpoint action, as in
    :func:`geodesic_distance`, but independent of the quantum solver's
    metric assembly: works directly on probability vectors with
    logarithmic-mean edge weights.
    """
    _require_segments(segments)
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    for p in (p0, p1):
        if abs(p.sum() - 1.0) > 1e-12 or np.any(p <= 0):
            raise ValueError("endpoints must be strictly positive probability vectors")
    problem = _ChainProblem(rates.rates, p0, p1, segments)
    y = problem.initial()
    if y.size == 0:
        seg = problem.segment_actions(problem.evaluate(y))
        return GeodesicResult(float(np.sqrt(seg.sum())), float(seg.sum()), seg, 0, True, [p0, p1])
    y, evaluation, action, iterations, converged = _minimize_path(
        problem, y, max_iter, POSITIVITY_FLOOR
    )
    seg = problem.segment_actions(evaluation)
    full = problem.full(y)
    return GeodesicResult(
        distance=float(np.sqrt(max(action, 0.0))),
        action=float(action),
        segment_actions=seg,
        iterations=iterations,
        converged=converged,
        path=[row for row in full],
    )
