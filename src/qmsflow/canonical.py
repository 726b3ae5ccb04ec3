"""Coefficient (GKS) matrices of superoperators and recovery of the
canonical jump form from a detailed-balance generator.

Any superoperator K on n x n matrices expands over an orthonormal basis
{F_a} of the normalized Hilbert-Schmidt space as

    K(A) = sum_{a,b} c_{a,b} F_a^* A F_b ,
    c_{a,b} = <sharp(F_a^* (x) F_b), K>  with  <S, T> = Tr[S^+ T]/n^2 .

The coefficient matrix is Hermitian iff K preserves self-adjointness, and
for unital star-preserving generators the positivity of the reduced block
(identity row and column removed) decides complete positivity of the
generated semigroup.  When the basis is a modular basis for sigma and the
generator is GNS-self-adjoint, the coefficient matrix is block diagonal
over Bohr frequencies:

    e^{omega_a} c_{a,b} = c_{a,b} e^{omega_b}      (block structure)
    c_{a,b} = e^{-omega_a} c_{b',a'}               (adjoint pairing)

Diagonalizing each block and splitting the eigenvalues over conjugate
blocks yields jumps (V_j, omega_j) with the modular-eigenvector property,
trace zero, and normalized-trace orthonormality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import choi, dag, star_swap_residual, vec
from .states import DensityState, ModularData, _group_indices, build_modular_basis
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
    "reduced_gks_psd",
    "ExtractionReport",
    "extract_canonical",
]

BLOCK_RTOL = 1e-10
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


def reduced_gks_psd(
    l: np.ndarray, basis, psd_tol: float = 1e-10, l_norm: float | None = None
) -> tuple[bool, np.ndarray]:
    """PSD verdict and spectrum of the reduced coefficient block of L.

    L must annihilate the identity and preserve adjoints (ValueError
    otherwise).  The block passes when its smallest eigenvalue is at least
    ``-psd_tol`` times its largest |eigenvalue|, so the verdict does not
    depend on the units of L.  ``l_norm`` is the operator 2-norm of L when
    the caller already has it.
    """
    l = np.asarray(l)
    n = int(round(np.sqrt(l.shape[0])))
    scale = max(np.linalg.norm(l, 2) if l_norm is None else l_norm, 1e-300)
    if np.linalg.norm(l @ vec(np.eye(n))) > 1e-8 * scale:
        raise ValueError("superoperator does not annihilate the identity")
    if star_swap_residual(l) > 1e-8:
        raise ValueError("superoperator is not star-preserving")
    red = gks_matrix(l, basis).reduced()
    evals = np.linalg.eigvalsh(0.5 * (red + dag(red)))
    if evals.size == 0:
        return True, evals
    return bool(evals[0] >= -psd_tol * max(-evals[0], evals[-1])), evals


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


def _gks_residuals(c: np.ndarray, omegas: np.ndarray, pairing: np.ndarray) -> tuple:
    scale = max(float(np.max(np.abs(c))), 1e-300)
    eo = np.exp(omegas)
    block = np.max(np.abs(eo[:, None] * c - c * eo[None, :])) / (
        scale * max(float(np.max(eo)), 1.0)
    )
    paired = np.exp(-omegas)[:, None] * c[np.ix_(pairing, pairing)].T
    pairing_res = float(np.max(np.abs(c - paired)) / scale)
    offblock = 0.0
    om_scale = max(float(np.max(np.abs(omegas))), 1.0)
    mask = np.abs(omegas[:, None] - omegas[None, :]) > 1e-8 * om_scale
    if np.any(mask):
        offblock = float(np.max(np.abs(c[mask])) / scale)
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

    The reduced coefficient matrix over a modular basis is Hermitized,
    entries outside the Bohr-frequency blocks are zeroed (they are below
    tolerance for valid input), the adjoint-pairing symmetry is enforced,
    and each block is eigensolved.  Eigenvalues d of the block at
    frequency omega give jumps sqrt(d e^{omega/2} / 2) V with V the
    corresponding unit combination of basis elements; the -omega partner
    is written as the exact adjoint.  Eigenvalues at or below
    ``drop_rtol`` times the largest are dropped together with their
    vectors; the report lists those above the round-off of assembling
    and eigensolving the blocks, the superoperator dimension n^2 times
    machine epsilon times the largest.

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
            complete_positivity = check_complete_positivity(
                l, psd_tol=psd_tol, cross_check_times=(), l_norm=l_norm
            )
        cp_ok, min_eig = complete_positivity
        if not cp_ok:
            raise ValueError(
                f"generator is not conditionally completely positive "
                f"(reduced coefficient matrix has eigenvalue {min_eig:.3e})"
            )

    mod = modular if modular is not None else build_modular_basis(sigma)
    gks = gks_matrix(l, mod.basis, check_orthonormal=False, omegas=mod.bohr_frequencies)
    c = gks.matrix
    omegas = mod.bohr_frequencies
    herm_res = gks.hermiticity_residual()
    block_res, pair_res, offblock_res = _gks_residuals(c, omegas, mod.conj_pairing)
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
    om_scale = max(float(np.max(np.abs(omegas))), 1.0)
    mask = np.abs(omegas[:, None] - omegas[None, :]) > 1e-8 * om_scale
    c_red[mask] = 0.0
    paired = np.exp(-omegas)[:, None] * c_red[np.ix_(mod.conj_pairing, mod.conj_pairing)].T
    c_red = 0.5 * (c_red + paired)
    c_red = 0.5 * (c_red + dag(c_red))

    blocks = _group_indices(omegas[1:], BLOCK_RTOL)
    # positions within the reduced index set (offset by the identity slot)
    block_map: dict[float, list[int]] = {}
    block_vals: list[float] = []
    for idx_list in blocks:
        val = float(np.mean(omegas[1:][idx_list]))
        block_vals.append(val)
        block_map[val] = [i + 1 for i in idx_list]

    overall = max(float(np.max(np.abs(c_red.real))), 1e-300)
    listed_floor = l.shape[0] * np.finfo(float).eps * overall
    jumps: list[tuple[np.ndarray, float]] = []
    dropped: list[float] = []
    block_sizes: dict[float, int] = {}
    # the modular frequencies come in +-omega pairs, so the sorted blocks
    # mirror each other: the first half (to the zero block) covers them all
    for pos, val in enumerate(block_vals[: (len(block_vals) + 1) // 2]):
        if abs(val) <= 1e-12 * max(1.0, om_scale):
            # zero-frequency block: real symmetric in a self-adjoint basis,
            # so real eigenvectors give self-adjoint jumps directly
            idx = block_map[val]
            sub_r = c_red[np.ix_(idx, idx)].real
            d, vv = np.linalg.eigh(0.5 * (sub_r + sub_r.T))
            count = 0
            for k in range(len(d) - 1, -1, -1):
                if d[k] <= drop_rtol * overall:
                    if abs(d[k]) > listed_floor:
                        dropped.append(float(d[k]))
                    continue
                vmat = sum(vv[b, k] * mod.basis[idx[b]] for b in range(len(idx)))
                scale = np.sqrt(d[k] / 2.0)
                jumps.append((scale * vmat, 0.0))
                count += 1
            block_sizes[0.0] = block_sizes.get(0.0, 0) + count
        else:
            partner = block_vals[len(block_vals) - 1 - pos]
            if abs(val + partner) > 1e-8 * max(1.0, abs(val)):
                raise ValueError(f"no conjugate block for frequency {val}")
            pos_val = partner  # val < 0 in the first half
            pidx = block_map[pos_val]
            sub_p = c_red[np.ix_(pidx, pidx)]
            d, vv = np.linalg.eigh(0.5 * (sub_p + dag(sub_p)))
            count = 0
            for k in range(len(d) - 1, -1, -1):
                if d[k] <= drop_rtol * overall:
                    if abs(d[k]) > listed_floor:
                        dropped.append(float(d[k]))
                    continue
                vmat = sum(
                    np.conj(vv[b, k]) * mod.basis[pidx[b]] for b in range(len(pidx))
                )
                scale = np.sqrt(d[k] * np.exp(pos_val / 2.0) / 2.0)
                jumps.append((scale * vmat, pos_val))
                jumps.append((scale * dag(vmat), -pos_val))
                count += 1
            block_sizes[pos_val] = count
            block_sizes[-pos_val] = count

    spec = GeneratorSpec.create(sigma, jumps, validate=False)
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
