"""Detailed-balance Lindblad generators: construction and application from
jump data, semigroups, certification, and restriction to commutative
subalgebras.

A generator specification consists of an invariant state sigma and jumps
{(V_j, omega_j)} that are eigenvectors of the modular operator,

    Delta_sigma V_j = e^{-omega_j} V_j ,

with the set closed under adjoints (V_j^* appears with frequency
-omega_j).  The generator acting on observables is

    L(A) = sum_j e^{-omega_j/2} ( V_j^* [A, V_j] + [V_j^*, A] V_j )
         = 2 sum_j c_j V_j^* A V_j - K A - A K ,

with c_j = e^{-omega_j/2} and K = sum_j c_j V_j^* V_j, and its
Hilbert-Schmidt adjoint, generating the evolution of states, is

    L^+(rho) = 2 sum_j c_j V_j rho V_j^* - K rho - rho K .

:func:`apply_generator` and :func:`apply_dual` evaluate these from the
jumps.  :meth:`GeneratorSpec.create` builds L block by block over Bohr
frequencies from the jumps, once, which checks the spec, and
:func:`ergodicity` and :func:`dual_orbit` eigensolve those blocks once;
the dense n^2 x n^2 matrix of :func:`build_generator` is for the checks
that take an arbitrary superoperator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .linalg import (
    check_finite,
    dag,
    sharp,
    star_swap_residual,
    vec,
)
from .states import (
    DensityState,
    _weight_kernel_f,
    bkm_weight,
    bohr_groups,
    build_modular_basis,
    modular_superoperator,
    weight_superoperator_f,
    weight_superoperator_s,
)

__all__ = [
    "GeneratorSpec",
    "RateMatrix",
    "CertificationReport",
    "build_generator",
    "apply_generator",
    "apply_dual",
    "certify_detailed_balance",
    "check_complete_positivity",
    "ergodicity",
    "semigroup",
    "dual_orbit",
    "restrict_to_commutative",
    "modular_subalgebra",
]

JUMP_EIGEN_TOL = 1e-10
KMS_SYMMETRY_TOL = 1e-8
GNS_FLAG_TOL = 1e-9


@dataclass(frozen=True)
class GeneratorSpec:
    """Invariant state plus modular-eigenvector jump data, checked by
    :meth:`create` or, after the plain constructor, at the first read of
    :attr:`bohr_blocks`."""

    sigma: DensityState
    jumps: tuple  # tuple of (V_j: ndarray, omega_j: float)

    @classmethod
    def create(cls, sigma: DensityState, jumps) -> "GeneratorSpec":
        """The spec, checked once (ValueError): jump shapes, finite omegas, :attr:`bohr_blocks`."""
        packed = tuple((check_finite(v, "jump operator"), float(w)) for v, w in jumps)
        for k, (v, w) in enumerate(packed):
            if v.shape != sigma.rho.shape:
                raise ValueError(f"jump {k} has shape {v.shape}, expected {sigma.rho.shape}")
            if not np.isfinite(w):
                raise ValueError(f"jump {k} has non-finite omega {w}")
        spec = cls(sigma, packed)
        spec.bohr_blocks  # building the blocks is the check
        return spec

    @property
    def dim(self) -> int:
        return self.sigma.dim

    @property
    def njumps(self) -> int:
        return len(self.jumps)

    def jump_ops(self) -> list:
        return [v for v, _ in self.jumps]

    def omegas(self) -> np.ndarray:
        return np.array([w for _, w in self.jumps])

    @cached_property
    def jump_stack(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Weights c_j = e^{-omega_j/2}, jumps stacked as (J, n, n), and K.

        K = sum_j c_j V_j^* V_j.  Built on first use and kept with the
        spec, read-only, so every application of L or L^+ shares one build.
        """
        n = self.dim
        c = np.exp(-self.omegas() / 2.0)
        vs = np.array(self.jump_ops(), dtype=complex).reshape(-1, n, n)
        k = (c[:, None, None] * np.conj(vs).transpose(0, 2, 1) @ vs).sum(axis=0)
        for arr in (c, vs, k):
            arr.flags.writeable = False
        return c, vs, k

    @cached_property
    def bohr_blocks(self) -> tuple[np.ndarray, list]:
        """L block by block over Bohr frequencies, built from the jumps.

        With U^* sigma U = diag(lam), tilde X = U^* X U and E_cd = |c><d|,

            L(E_cd)_ab = 2 sum_j c_j conj(tilde V_j[c, a]) tilde V_j[d, b]
                         - tilde K_ac delta_bd - delta_ac tilde K_db ,

        which vanishes unless E_ab and E_cd share the Bohr frequency
        log lam_a - log lam_b, because every tilde V_j lives on the units
        of frequency -omega_j.  The blocks are those of
        :func:`qmsflow.states.bohr_groups`, the grouping the modular basis
        uses.  A jump with more than ``JUMP_EIGEN_TOL`` of its Frobenius
        mass off that block raises ValueError, so no coupling is dropped.
        Scaling E_ab by (lam_a lam_b)^{1/4} makes each block Hermitian
        (KMS symmetry); blocks further than ``KMS_SYMMETRY_TOL`` from
        Hermitian, in Frobenius norm relative to L's, raise ValueError.
        This is the one structural check of a spec, made by :meth:`create`.
        Returns U and, per block size, the stacked blocks' unit indices
        a n + b, weights and Hermitian weighted blocks, all read-only.
        """
        n, lam, u = self.dim, self.sigma.eigenvalues, self.sigma.eigenvectors
        c, vs, k = self.jump_stack
        omegas, nn = self.omegas(), n * n
        # each jump's frequency -omega_j is grouped with the units, so it lands
        # in the block of units sharing it, or alone when no unit does
        groups = bohr_groups(self.sigma, -omegas)
        label = np.empty(nn + omegas.size, dtype=int)
        by_size: dict[int, list] = {}  # the units of each block, by block size
        for g, members in enumerate(groups):
            label[members] = g
            units = [i for i in members if i < nn]
            if units:
                by_size.setdefault(len(units), []).append(units)
        flat = (dag(u) @ vs @ u).reshape(len(vs), nn)  # rows: tilde V_j, row-major
        off_block = label[None, :nn] != label[nn:, None]
        off = np.linalg.norm(np.where(off_block, flat, 0), axis=1)
        off /= np.maximum(np.linalg.norm(flat, axis=1), 1e-300)
        if np.any(off > JUMP_EIGEN_TOL):
            j = int(np.argmax(off))
            raise ValueError(
                f"jump {j} is not a modular eigenvector: {off[j]:.3e} of its mass "
                f"lies off the Bohr block of frequency {-omegas[j]:.6g}"
            )
        kt, weighted_conj = dag(u) @ k @ u, c[:, None] * np.conj(flat)
        blocks, asym, scale = [], 0.0, 0.0
        for units in map(np.array, by_size.values()):
            a, b = np.divmod(units, n)
            ap, bp, cq, dq = a[:, :, None], b[:, :, None], a[:, None, :], b[:, None, :]
            ca, db = cq * n + ap, dq * n + bp  # flat positions of [c, a] and [d, b]
            sandwich = np.zeros(ca.shape, dtype=complex)
            for cv, v in zip(weighted_conj, flat):
                sandwich += cv[ca] * v[db]
            block = 2.0 * sandwich - kt[ap, cq] * (bp == dq) - (ap == cq) * kt[dq, bp]
            weights = (lam[a] * lam[b]) ** 0.25
            h = weights[:, :, None] * block / weights[:, None, :]
            h_adj = np.conj(h).transpose(0, 2, 1)
            asym, scale = asym + np.linalg.norm(h - h_adj) ** 2, scale + np.linalg.norm(h) ** 2
            h = 0.5 * (h + h_adj)
            for arr in (units, weights, h):
                arr.flags.writeable = False
            blocks.append((units, weights, h))
        if asym > KMS_SYMMETRY_TOL**2 * scale:
            rel = np.sqrt(asym / scale)
            raise ValueError(
                f"L is not KMS-symmetric (the jumps are not closed under adjoints): "
                f"weighted Bohr blocks {rel:.3e} off Hermitian"
            )
        return u, blocks

    @cached_property
    def bohr_factor(self) -> tuple[np.ndarray, list]:
        """U and, per block size, unit indices, weights and eigenpairs of the
        :attr:`bohr_blocks`, eigensolved on first use and kept read-only."""
        u, blocks = self.bohr_blocks
        factor = [(units, w, *np.linalg.eigh(h)) for units, w, h in blocks]
        for _, _, vals, vecs in factor:
            vals.flags.writeable = vecs.flags.writeable = False
        return u, factor


def build_generator(spec: GeneratorSpec) -> np.ndarray:
    """Superoperator of L(A) = sum_j e^{-omega_j/2}(V^*[A,V] + [V^*,A]V).

    Expanded per jump this is 2 V^* A V - {V^* V, A} times e^{-omega/2}.
    Entry ((p, q), (r, s)) of sum_j c_j sharp(V_j^*, V_j) is
    sum_j c_j V_j[r, p] conj(V_j[s, q]), an index realignment of one
    (n^2 x J)(J x n^2) product, and the anticommutators collapse to
    {K, A} with K = sum_j e^{-omega_j/2} V_j^* V_j.
    """
    n = spec.dim
    big = n * n
    c, vs, k = spec.jump_stack
    flat = vs.reshape(-1, big)
    sandwich = flat.T @ (c[:, None] * np.conj(flat))
    sandwich = sandwich.reshape(n, n, n, n).transpose(1, 3, 0, 2).reshape(big, big)
    eye = np.eye(n)
    return 2.0 * sandwich - sharp(k, eye) - sharp(eye, k)


def apply_generator(spec: GeneratorSpec, a: np.ndarray) -> np.ndarray:
    """L(A) = 2 sum_j c_j V_j^* A V_j - K A - A K, from the jumps."""
    c, vs, k = spec.jump_stack
    a = np.asarray(a, dtype=complex)
    sandwich = np.tensordot(c, np.conj(vs).transpose(0, 2, 1) @ a @ vs, axes=1)
    return 2.0 * sandwich - k @ a - a @ k


def apply_dual(spec: GeneratorSpec, rho: np.ndarray) -> np.ndarray:
    """L^+(rho) = 2 sum_j c_j V_j rho V_j^* - K rho - rho K, from the jumps.

    The Hilbert-Schmidt adjoint of :func:`apply_generator`: c_j is real
    and K Hermitian, so Tr[A^* L^+(rho)] = Tr[L(A)^* rho] for any jumps.
    """
    c, vs, k = spec.jump_stack
    rho = np.asarray(rho, dtype=complex)
    sandwich = np.tensordot(c, vs @ rho @ np.conj(vs).transpose(0, 2, 1), axes=1)
    return 2.0 * sandwich - k @ rho - rho @ k


def _hermitian_opnorm(h: np.ndarray) -> float:
    """2-norm of a Hermitian matrix: its spectral radius, by an eigensolve."""
    evals = np.linalg.eigvalsh(h)
    return float(max(-evals[0], evals[-1])) if evals.size else 0.0


@dataclass
class CertificationReport:
    """Residuals of the detailed-balance battery for one superoperator."""

    dim: int
    s_residuals: dict
    bkm_residual: float
    modular_commutation: float
    star_preservation: float
    unital_residual: float
    gns_dbc: bool
    kms_only: bool
    l_norm: float  # 2-norm of the certified superoperator, the residuals' scale
    tolerance: float = GNS_FLAG_TOL

    def as_dict(self) -> dict:
        """The fields in declaration order, without ``l_norm``."""
        out = {k: v for k, v in vars(self).items() if k != "l_norm"}
        out["s_residuals"] = {str(k): v for k, v in self.s_residuals.items()}
        return out


def _self_adjointness_residual(
    l: np.ndarray,
    omega_w: np.ndarray,
    l_norm: float | None = None,
    omega_norm: float | None = None,
) -> float:
    """Relative size of Omega L - L^+ Omega, zero iff L is Omega-symmetric.

    The weight Omega is Hermitian, so with X = Omega L the residual is the
    anti-Hermitian X - X^*, whose 2-norm is the spectral radius of the
    Hermitian i(X - X^*).  ``l_norm`` and ``omega_norm`` are the operator
    2-norms of L and Omega when the caller already has them.
    """
    if l_norm is None:
        l_norm = np.linalg.norm(l, 2)
    if omega_norm is None:
        omega_norm = _hermitian_opnorm(omega_w)
    x = omega_w @ l
    scale = omega_norm * max(l_norm, 1e-300)
    return _hermitian_opnorm(1j * (x - dag(x))) / max(scale, 1e-300)


def certify_detailed_balance(
    l: np.ndarray,
    sigma: DensityState,
    s_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
    tol: float = GNS_FLAG_TOL,
) -> CertificationReport:
    """Measure self-adjointness of a superoperator in the weighted forms.

    Reports residuals of s-self-adjointness on the given grid, of
    BKM-self-adjointness, of commutation with the modular operator, and of
    star preservation.  The GNS flag is set when the s = 1 residual is
    below ``tol``; ``kms_only`` flags maps that are KMS-symmetric without
    commuting with the modular operator.

    The weights' 2-norms follow from sigma's spectrum: lam_max for every
    Omega_s, the largest kernel entry f(lam_i/lam_k) lam_k for Omega_f and
    lam_max/lam_min for Delta_sigma.  Only ||L|| and the modular
    commutator, which is not normal, take an SVD.
    """
    l = check_finite(l, "superoperator")
    n = sigma.dim
    l_norm = np.linalg.norm(l, 2)
    lam = sigma.eigenvalues
    lam_max = float(lam[-1])

    def s_residual(s: float) -> float:
        return _self_adjointness_residual(l, weight_superoperator_s(sigma, s), l_norm, lam_max)

    s_res = {float(s): s_residual(s) for s in s_grid}
    bkm = _self_adjointness_residual(
        l,
        weight_superoperator_f(sigma, bkm_weight),
        l_norm,
        float(np.max(_weight_kernel_f(sigma, bkm_weight))),
    )
    delta = modular_superoperator(sigma)
    mod_scale = max(l_norm * lam_max / float(lam[0]), 1e-300)
    mod_comm = float(np.linalg.norm(l @ delta - delta @ l, 2) / mod_scale)
    star = star_swap_residual(l)
    unital = float(np.linalg.norm(l @ vec(np.eye(n))) / max(l_norm, 1e-300))
    gns = s_res[1.0] if 1.0 in s_res else s_residual(1.0)
    kms = s_res[0.5] if 0.5 in s_res else s_residual(0.5)
    return CertificationReport(
        dim=n,
        s_residuals=s_res,
        bkm_residual=bkm,
        modular_commutation=mod_comm,
        star_preservation=star,
        unital_residual=unital,
        gns_dbc=bool(gns < tol),
        kms_only=bool(kms < tol and mod_comm > 100 * tol),
        l_norm=float(l_norm),
        tolerance=tol,
    )


def check_complete_positivity(
    l: np.ndarray, psd_tol: float = 1e-10, l_norm: float | None = None
) -> tuple[bool, float]:
    """Complete positivity of exp(tL) for every t >= 0, for a unital, star-preserving L.

    The semigroup is completely positive exactly when the reduced
    coefficient block of L (identity row and column removed) is positive
    semidefinite (Gorini-Kossakowski-Sudarshan, Lindblad), so that block
    is the verdict and no propagator exp(tL) is formed.  Every orthonormal
    basis with the identity first gives the block the same spectrum; the
    modular basis of the maximally mixed state is used.  The block passes
    when its smallest eigenvalue is at least ``-psd_tol`` times its largest
    |eigenvalue|, so the verdict does not depend on the units of L.  L must
    annihilate the identity and preserve adjoints (ValueError otherwise).
    ``l_norm`` is the operator 2-norm of L when the caller already has it.
    Returns (verdict, minimum eigenvalue of the reduced block).
    """
    from .canonical import gks_matrix

    l = check_finite(l, "superoperator")
    n = int(round(np.sqrt(l.shape[0])))
    scale = max(np.linalg.norm(l, 2) if l_norm is None else l_norm, 1e-300)
    if np.linalg.norm(l @ vec(np.eye(n))) > 1e-8 * scale:
        raise ValueError("superoperator does not annihilate the identity")
    if star_swap_residual(l) > 1e-8:
        raise ValueError("superoperator is not star-preserving")
    basis = build_modular_basis(DensityState.from_matrix(np.eye(n) / n)).basis
    red = gks_matrix(l, basis, check_orthonormal=False).reduced()
    evals = np.linalg.eigvalsh(0.5 * (red + dag(red)))
    if evals.size == 0:
        return True, 0.0
    return bool(evals[0] >= -psd_tol * max(-evals[0], evals[-1])), float(evals[0])


def ergodicity(spec: GeneratorSpec, tol: float = 1e-9) -> int:
    """Dimension of the null space of L, the commutant of the jumps; 1 means ergodic.

    Counts the eigenvalues mu of the weighted Bohr blocks of L with
    |mu| <= ``tol`` times the largest |mu|: the tolerance measures
    eigenvalues of L, so the count does not change when L is rescaled.
    """
    _, blocks = spec.bohr_factor
    mu = np.abs(np.concatenate([vals.ravel() for _, _, vals, _ in blocks]))
    return int(np.sum(mu <= tol * mu.max()))


def semigroup(l: np.ndarray, t: float) -> np.ndarray:
    """exp(tL) for t >= 0 by scaling-and-squaring Pade, for any superoperator L."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return scipy.linalg.expm(t * check_finite(l, "superoperator"))


def dual_orbit(spec: GeneratorSpec, x: np.ndarray, times) -> list:
    """exp(t L^+)(x) at each of ``times``, for any n x n matrix x.

    One eigensolve per Bohr block serves the whole grid: on a block with
    weights w and eigenpairs (mu, Q), exp(t L^+) maps the coefficients of
    tilde x to w Q e^{t mu} Q^* (tilde x / w).
    """
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("t must be nonnegative")
    u, blocks = spec.bohr_factor
    xt = (dag(u) @ check_finite(x, "matrix") @ u).ravel()
    coeffs = [np.einsum("kqp,kq->kp", np.conj(q), xt[units] / w) for units, w, _, q in blocks]
    out = []
    for t in times:
        flat = np.zeros_like(xt)
        for (units, w, mu, q), y in zip(blocks, coeffs):
            flat[units] = w * np.einsum("kpq,kq->kp", q, np.exp(t * mu) * y)
        out.append(u @ flat.reshape(u.shape) @ dag(u))
    return out


@dataclass(frozen=True)
class RateMatrix:
    """Transition-rate matrix of a restricted classical chain."""

    rates: np.ndarray  # off-diagonal >= 0, rows sum to zero
    stationary: np.ndarray

    @property
    def size(self) -> int:
        return self.rates.shape[0]

    def detailed_balance_residual(self) -> float:
        q = self.rates
        p = self.stationary
        flux = p[:, None] * q
        return float(np.max(np.abs(flux - flux.T)))

    def row_sum_residual(self) -> float:
        return float(np.max(np.abs(self.rates.sum(axis=1))))


def restrict_to_commutative(
    spec: GeneratorSpec,
    projections,
    invariance_tol: float = 1e-10,
) -> RateMatrix:
    """Jump rates Q_kl = Tr[E_k L(E_l)] / Tr[E_k] of the restricted chain.

    ``projections`` must be nonzero, mutually orthogonal projections
    summing to the identity whose span is invariant under L^+: each
    residual of L^+(E_k) off the span must be at most ``invariance_tol``
    times ||K||_F, K = sum_j e^{-omega_j/2} V_j^* V_j.  That scale bounds
    the round-off of the terms of L^+(E_k) that cancel and goes with the
    units of L, so neither decides the verdict.  The stationary vector is
    sigma_k = Tr[sigma E_k] and classical detailed balance
    sigma_k Q_kl = sigma_l Q_lk is inherited from the quantum detailed
    balance condition.
    """
    n = spec.dim
    projections = [check_finite(e, "projection") for e in projections]
    for k, e in enumerate(projections):
        if e.shape != (n, n):
            raise ValueError(f"projection {k} has shape {e.shape}, expected {(n, n)}")
    total = sum(projections)
    if np.linalg.norm(total - np.eye(n)) > 1e-10:
        raise ValueError("projections do not sum to the identity")
    for k, e in enumerate(projections):
        if np.linalg.norm(e @ e - e) > 1e-10 or np.linalg.norm(e - dag(e)) > 1e-10:
            raise ValueError(f"input {k} is not an orthogonal projection")
        if np.trace(e).real < 0.5:  # the rank; the rates divide by it
            raise ValueError(f"projection {k} is zero")
        for m in range(k):
            if np.linalg.norm(projections[m] @ e) > 1e-10:
                raise ValueError(f"projections {m} and {k} are not orthogonal")

    traces = np.array([float(np.trace(e).real) for e in projections])

    # invariance of the span under the dual generator
    images = [apply_dual(spec, e) for e in projections]
    scale = np.linalg.norm(spec.jump_stack[2])
    for k, image in enumerate(images):
        inside = sum(
            (np.trace(projections[m] @ image) / traces[m]) * projections[m]
            for m in range(len(projections))
        )
        resid = np.linalg.norm(image - inside)
        if resid > invariance_tol * scale:
            raise ValueError(
                f"span of projections is not invariant under the dual generator "
                f"(projection {k}, residual {resid:.3e})"
            )

    # Tr[E_k L(E_l)] = Tr[L^+(E_k) E_l]: E_k and L^+(E_k) are Hermitian
    q = np.array(
        [[np.trace(image @ e).real for e in projections] for image in images]
    ) / traces[:, None]
    stationary = np.array(
        [float(np.trace(spec.sigma.rho @ e).real) for e in projections]
    )
    return RateMatrix(q, stationary)


def modular_subalgebra(sigma: DensityState) -> list:
    """Minimal projections generating the fixed algebra of Delta_sigma.

    Only supports nondegenerate sigma, where the fixed algebra is the span
    of the rank-one spectral projections.  Degenerate input, two
    eigenvalues whose Bohr frequency shares the block of 0 in
    :func:`qmsflow.states.bohr_groups`, is rejected.
    """
    zero = next(g for g in bohr_groups(sigma) if 0 in g)  # position 0: frequency 0
    if len(zero) > sigma.dim:  # more than the diagonal units
        raise ValueError("sigma has (numerically) degenerate eigenvalues")
    u = sigma.eigenvectors
    return [np.outer(u[:, i], np.conj(u[:, i])) for i in range(sigma.dim)]
