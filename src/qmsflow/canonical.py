"""Coefficient (GKS) matrices of superoperators and recovery of the
canonical jump form from a detailed-balance generator.

Any superoperator K on n x n matrices expands over an orthonormal basis
{F_a} of the normalized Hilbert-Schmidt space as

    K(A) = sum_{a,b} c_{a,b} F_a^* A F_b ,
    c_{a,b} = <sharp(F_a^* (x) F_b), K>  with  <S, T> = Tr[S^+ T]/n^2 .

The coefficient matrix is Hermitian iff K preserves self-adjointness, and
for unital star-preserving generators the positivity of the reduced block
(identity row and column removed) decides complete positivity of the
generated semigroup (:func:`qmsflow.generators.check_complete_positivity`).
When the basis is a modular basis for sigma and the generator is
GNS-self-adjoint, the coefficient matrix is block diagonal over the Bohr
blocks the modular basis records:

    e^{omega_a} c_{a,b} = c_{a,b} e^{omega_b}      (block structure)
    c_{a,b} = e^{-omega_a} c_{b',a'}               (adjoint pairing)

Diagonalizing each block and splitting the eigenvalues over conjugate
blocks yields jumps (V_j, omega_j) with the modular-eigenvector property,
trace zero, and normalized-trace orthonormality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import choi, dag
from .states import DensityState, ModularData, build_modular_basis
from .generators import (
    CertificationReport,
    GeneratorSpec,
    build_generator,
    certify_detailed_balance,
    check_complete_positivity,
)

__all__ = [
    "GKSMatrix",
    "gks_matrix",
    "ExtractionReport",
    "extract_canonical",
]

DROP_RTOL = 1e-10
PSD_TOL = 1e-10


@dataclass(frozen=True)
class GKSMatrix:
    """Coefficient matrix of a superoperator over an identity-anchored basis."""

    basis: list
    matrix: np.ndarray
    omegas: np.ndarray | None = None  # Bohr frequencies when basis is modular

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def reduced(self) -> np.ndarray:
        return self.matrix[1:, 1:]

    def hermiticity_residual(self) -> float:
        c = self.matrix
        return float(
            np.linalg.norm(c - dag(c)) / max(np.linalg.norm(c), 1e-300)
        )


def _basis_rowvecs(basis) -> np.ndarray:
    """Row-major flattenings of F_a^*, stacked as columns."""
    cols = [dag(f).reshape(-1) for f in basis]
    return np.array(cols).T


def gks_matrix(
    k: np.ndarray, basis, check_orthonormal: bool = True, omegas=None
) -> GKSMatrix:
    """Coefficient matrix of the superoperator ``k`` over ``basis``.

    The basis must be orthonormal in the normalized Hilbert-Schmidt inner
    product with the identity as its first element.  Computed through the
    Choi matrix:  c = X^+ C(K) X / n^2 with X the column matrix of
    row-major flattenings of F_a^*.  For a modular basis, pass its Bohr
    frequencies through ``omegas`` so they travel with the coefficients.
    """
    big = np.asarray(k).shape[0]
    n = int(round(np.sqrt(big)))
    if len(basis) != big:
        raise ValueError(f"basis has {len(basis)} elements, expected {big}")
    if check_orthonormal:
        if np.linalg.norm(basis[0] - np.eye(n)) > 1e-9:
            raise ValueError("first basis element must be the identity")
        shapes = {np.shape(f) for f in basis}
        if shapes != {(n, n)}:
            raise ValueError(f"basis elements must be {n} x {n}, got shapes {sorted(shapes)}")
        flat = np.array(basis, dtype=complex).reshape(big, big)
        gram = np.conj(flat) @ flat.T / n  # gram[a, b] = <F_a, F_b>, normalized
        bad = np.argwhere(np.triu(np.abs(gram - np.eye(big)) > 1e-9))
        if bad.size:
            a, b = (int(i) for i in bad[0])
            raise ValueError(f"basis not orthonormal at pair ({a}, {b})")
    x = _basis_rowvecs(basis)
    c = dag(x) @ choi(k) @ x / (n * n)
    return GKSMatrix(list(basis), c, None if omegas is None else np.asarray(omegas))


@dataclass
class ExtractionReport:
    """Residual diagnostics of a canonical-form extraction."""

    block_residual: float
    pairing_residual: float
    offblock_residual: float
    hermiticity_residual: float
    hamiltonian_norm: float
    hamiltonian_hat_norm: float
    dropped_eigenvalues: list
    block_sizes: dict
    roundtrip_error: float | None = None

    def as_dict(self) -> dict:
        return {
            "block_residual": self.block_residual,
            "pairing_residual": self.pairing_residual,
            "offblock_residual": self.offblock_residual,
            "hermiticity_residual": self.hermiticity_residual,
            "hamiltonian_norm": self.hamiltonian_norm,
            "hamiltonian_hat_norm": self.hamiltonian_hat_norm,
            "dropped_eigenvalues": list(map(float, self.dropped_eigenvalues)),
            "block_sizes": {str(k): v for k, v in self.block_sizes.items()},
            "roundtrip_error": self.roundtrip_error,
        }


def _gks_residuals(
    c: np.ndarray, omegas: np.ndarray, pairing: np.ndarray, offblock_mask: np.ndarray
) -> tuple:
    scale = max(float(np.max(np.abs(c))), 1e-300)
    eo = np.exp(omegas)
    block = np.max(np.abs(eo[:, None] * c - c * eo[None, :])) / (
        scale * float(np.max(eo))
    )
    paired = np.exp(-omegas)[:, None] * c[np.ix_(pairing, pairing)].T
    pairing_res = float(np.max(np.abs(c - paired)) / scale)
    offblock = 0.0
    if np.any(offblock_mask):
        offblock = float(np.max(np.abs(c[offblock_mask])) / scale)
    return float(block), pairing_res, offblock


def _hamiltonian_parts(c: np.ndarray, basis) -> tuple[np.ndarray, np.ndarray]:
    """The two Hamiltonian candidates built from the identity row/column.

    Both vanish for GNS-self-adjoint generators; their norms are reported
    as extraction diagnostics.
    """
    m = len(basis)
    h = np.zeros_like(basis[0])
    h_hat = np.zeros_like(basis[0])
    for b in range(1, m):
        h = h + (c[0, b] * basis[b] - c[b, 0] * dag(basis[b])) / 2j
        h_hat = h_hat + (c[0, b] * dag(basis[b]) - c[b, 0] * basis[b]) / 2j
    return h, h_hat


def extract_canonical(
    l: np.ndarray,
    sigma: DensityState,
    modular: ModularData | None = None,
    drop_rtol: float = DROP_RTOL,
    require_dbc: bool = True,
    certification: CertificationReport | None = None,
    psd_tol: float = PSD_TOL,
    complete_positivity: tuple[bool, float] | None = None,
) -> tuple[GeneratorSpec, ExtractionReport]:
    """Recover canonical jump data {(V_j, omega_j)} from a DBC generator.

    The blocks are the modular basis's own (``ModularData.block_labels``,
    from :func:`qmsflow.states.bohr_groups`), so no frequency is compared
    here.  The reduced coefficient matrix over the modular basis is
    Hermitized, entries outside the Bohr blocks are zeroed (they are below
    tolerance for valid input), the adjoint-pairing symmetry is enforced,
    and each block is eigensolved once per conjugate pair, on its
    omega >= 0 member (the partner found through ``conj_pairing``).
    Eigenvalues d of the block at frequency omega give jumps
    sqrt(d e^{omega/2} / 2) V with V the corresponding unit combination of
    basis elements; the -omega partner is written as the exact adjoint,
    and the omega = 0 block, real symmetric in its self-adjoint elements,
    gives self-adjoint jumps.  An eigenvalue d is dropped together with
    its vector when d e^{omega/2}, the jump's squared norm, is at most
    ``drop_rtol`` times the largest |e^{omega_a/2} c_ab| of the reduced
    matrix, a scale a block and its conjugate partner share; the report
    lists those above the round-off of the blocks, the superoperator
    dimension n^2 times machine epsilon times the largest |c_ab|.

    With ``require_dbc`` the input must pass GNS certification (the
    caller's ``certification`` of ``l`` and ``sigma`` when given, so its
    tolerance holds; else one at the default tolerance), the reduced
    coefficient positivity check at ``psd_tol`` (the caller's
    ``complete_positivity`` verdict and minimum eigenvalue from
    :func:`qmsflow.generators.check_complete_positivity` when given), and
    the block-structure guard.  The round-trip error is relative to
    ||L||, taken from the certification when there is one.
    """
    l = np.asarray(l, dtype=complex)
    cert = certification
    if require_dbc and cert is None:
        cert = certify_detailed_balance(l, sigma)
    l_norm = np.linalg.norm(l, 2) if cert is None else cert.l_norm
    if require_dbc:
        if not cert.gns_dbc:
            raise ValueError(
                "generator is not GNS-self-adjoint for sigma "
                f"(residual {cert.s_residuals[1.0]:.3e}); no canonical form"
            )
        if complete_positivity is None:
            complete_positivity = check_complete_positivity(l, psd_tol=psd_tol, l_norm=l_norm)
        cp_ok, min_eig = complete_positivity
        if not cp_ok:
            raise ValueError(
                f"generator is not conditionally completely positive "
                f"(reduced coefficient matrix has eigenvalue {min_eig:.3e})"
            )

    mod = modular if modular is not None else build_modular_basis(sigma)
    omegas, labels = mod.bohr_frequencies, mod.block_labels
    gks = gks_matrix(l, mod.basis, check_orthonormal=False, omegas=omegas)
    c = gks.matrix
    offblock = labels[:, None] != labels[None, :]
    herm_res = gks.hermiticity_residual()
    block_res, pair_res, offblock_res = _gks_residuals(c, omegas, mod.conj_pairing, offblock)
    h, h_hat = _hamiltonian_parts(c, mod.basis)

    if require_dbc and max(block_res, pair_res, offblock_res) > 1e-6:
        raise ValueError(
            "coefficient matrix violates the modular block structure: "
            f"block {block_res:.3e}, pairing {pair_res:.3e}, off-block {offblock_res:.3e}"
        )

    # reduced matrix, symmetrized: Hermitian part, block support, pairing
    c_red = c.copy()
    c_red[0, :] = 0.0
    c_red[:, 0] = 0.0
    c_red = 0.5 * (c_red + dag(c_red))
    c_red[offblock] = 0.0
    paired = np.exp(-omegas)[:, None] * c_red[np.ix_(mod.conj_pairing, mod.conj_pairing)].T
    c_red = 0.5 * (c_red + paired)
    c_red = 0.5 * (c_red + dag(c_red))

    overall = max(float(np.max(np.abs(c_red.real))), 1e-300)
    listed_floor = l.shape[0] * np.finfo(float).eps * overall
    # d e^{omega/2} is a jump's squared norm, alike for a block and its partner
    weighted = max(float(np.max(np.abs(np.exp(omegas / 2.0)[:, None] * c_red))), 1e-300)
    jumps: list[tuple[np.ndarray, float]] = []
    dropped: list[float] = []
    block_sizes: dict[float, int] = {}
    reduced = np.arange(mod.size) > 0  # the identity is not a jump direction
    zero = labels[0]
    # labels ascend with frequency, so the labels up to the zero block's
    # meet each conjugate pair of blocks once; a pair is solved on its
    # omega >= 0 member
    for g in range(zero + 1):
        members = np.flatnonzero(reduced & (labels == g))
        if members.size == 0:
            continue
        idx = np.flatnonzero(reduced & (labels == labels[mod.conj_pairing[members[0]]]))
        omega, sub = float(np.mean(omegas[idx])), c_red[np.ix_(idx, idx)]
        if g == zero:
            # real symmetric in a self-adjoint basis, so real eigenvectors
            # give self-adjoint jumps directly
            sub = sub.real
        d, vv = np.linalg.eigh(0.5 * (sub + dag(sub)))
        count = 0
        for k in range(len(d) - 1, -1, -1):
            if d[k] * np.exp(omega / 2.0) <= drop_rtol * weighted:
                if abs(d[k]) > listed_floor:
                    dropped.append(float(d[k]))
                continue
            vmat = sum(np.conj(vv[b, k]) * mod.basis[idx[b]] for b in range(len(idx)))
            scale = np.sqrt(d[k] * np.exp(omega / 2.0) / 2.0)
            jumps.append((scale * vmat, omega))
            if g != zero:
                jumps.append((scale * dag(vmat), -omega))
            count += 1
        block_sizes[omega] = count
        if g != zero:
            block_sizes[-omega] = count

    spec = GeneratorSpec.create(sigma, jumps)
    rebuilt = build_generator(spec)
    rt = float(np.linalg.norm(rebuilt - l, 2) / max(l_norm, 1e-300))
    report = ExtractionReport(
        block_residual=block_res,
        pairing_residual=pair_res,
        offblock_residual=offblock_res,
        hermiticity_residual=herm_res,
        hamiltonian_norm=float(np.linalg.norm(h)),
        hamiltonian_hat_norm=float(np.linalg.norm(h_hat)),
        dropped_eigenvalues=dropped,
        block_sizes=block_sizes,
        roundtrip_error=rt,
    )
    return spec, report
