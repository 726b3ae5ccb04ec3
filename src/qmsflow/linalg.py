"""Dense complex-matrix substrate: Hilbert-Schmidt geometry, superoperators,
Choi matrices and Hermitian spectral calculus.

Conventions used throughout the package:

  * Vectorization is COLUMN stacking:  vec(X)[i + k*n] = X[i, k].
    Under this convention the map  X |-> A X B  has the n^2 x n^2 matrix
    kron(B.T, A), and a superoperator S acts by  unvec(S @ vec(X)).
  * The normalized Hilbert-Schmidt inner product is
        <A, B> = Tr[A^* B] / n ,
    so that the identity has norm one.  The unnormalized trace pairing is
    used where an explicit flag or function name says so.
  * Hermitian matrices are symmetrized ((A + A^*)/2) before any eigensolve
    to absorb round-off, and eigenvector phases are fixed so the
    largest-magnitude entry of each column is real positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "vec",
    "unvec",
    "dag",
    "hs_inner",
    "sharp",
    "apply_super",
    "choi",
    "HermitianSpectrum",
    "hermitian_eig",
    "spectral_calculus",
    "check_finite",
    "traceless_hermitian_basis",
]

def check_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _binary_scale(peak):
    """The power of 2 that takes ``peak``, a largest |entry| (or an array of
    them), into [1/2, 1), and 1 at 0: an exact scaling, so the squares that
    a norm of the scaled entries sums do not overflow.  A subnormal peak is
    taken by 2^1023 only, the largest finite power, into [2^-52, 1)."""
    return np.ldexp(1.0, np.minimum(-np.frexp(peak)[1], 1023))


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(a).T


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector: vec(X)[i + k*n] = X[i, k]."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v: np.ndarray, n: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    v = np.asarray(v).reshape(-1)
    if n is None:
        n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise ValueError(f"vector of length {v.size} is not a square matrix")
    return v.reshape((n, n), order="F")


def hs_inner(a: np.ndarray, b: np.ndarray, normalized: bool = False):
    """Hilbert-Schmidt inner product Tr[A^* B], conjugate-linear in A.

    The last two axes are contracted and must agree (ValueError otherwise);
    the leading axes broadcast by numpy's rules, so stacks give the Gram
    matrix hs_inner(a[:, None], b[None]).  Two matrices give a Python
    complex, anything else an array of the broadcast leading shape.  With
    ``normalized`` the trace is divided by the dimension, making the
    identity a unit vector.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    val = np.sum(np.conj(a) * b, axis=(-2, -1))
    if normalized:
        val = val / a.shape[-2]
    return complex(val) if val.ndim == 0 else val


def sharp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of the two-sided multiplication X |-> A X B (A, B square).

    Column stacking gives the Kronecker factorization kron(B.T, A), one
    broadcast product; the adjoint in the Hilbert-Schmidt sense is
    sharp(A^*, B^*), and kron(P, Q) = sharp(Q, P.T).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    size = a.shape[0] * b.shape[0]
    return (b.T[:, None, :, None] * a[None, :, None, :]).reshape(size, size)


def apply_super(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply a superoperator matrix to a matrix argument."""
    x = np.asarray(x)
    return unvec(np.asarray(s) @ vec(x), x.shape[0])


def choi(s: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij K(E_ij) (x) E_ij of the superoperator K.

    The result is an n^2 x n^2 matrix; K is completely positive iff the
    Choi matrix is positive semidefinite.  Entry (a n + i, b n + j) is
    K(E_ij)[a, b] = S[a + b n, i + j n], so the matrix is an index
    reshuffle of S.
    """
    s = np.asarray(s, dtype=complex)
    big = s.shape[0]
    n = int(round(np.sqrt(big)))
    return s.reshape(n, n, n, n).transpose(1, 3, 0, 2).reshape(big, big)


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # unitary, columns are eigenvectors

    def apply(self, f) -> np.ndarray:
        """Matrix function f applied through the eigendecomposition.

        The values of f are used as real numbers only when all their
        imaginary parts are exactly zero, so a small imaginary f is kept.
        """
        u = self.eigenvectors
        with np.errstate(all="ignore"):
            fvals = np.asarray([f(x) for x in self.eigenvalues], dtype=complex)
        if not np.all(np.isfinite(fvals)):
            raise ValueError("function is not finite on the spectrum")
        if not np.any(fvals.imag):
            fvals = fvals.real
        return (u * fvals) @ dag(u)


def _fix_phases(u: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    u = np.array(u, copy=True)
    idx = np.argmax(np.abs(u), axis=0)
    for k, i in enumerate(idx):
        z = u[i, k]
        if abs(z) > 0:
            u[:, k] *= np.conj(z) / abs(z)
    return u


def hermitian_eig(a: np.ndarray) -> HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix with deterministic phases.

    The input is symmetrized before the solve; inputs farther than 1e-10
    from Hermitian, relative to their own Frobenius norm, are rejected at
    any units: both norms are of entries scaled by :func:`_binary_scale`.
    """
    a = check_finite(a)
    scaled = _binary_scale(np.abs(a).max(initial=0.0)) * a
    if np.linalg.norm(scaled - dag(scaled)) > 1e-10 * np.linalg.norm(scaled):
        raise ValueError("matrix is not Hermitian")
    sym = 0.5 * (a + dag(a))
    vals, vecs = np.linalg.eigh(sym)
    return HermitianSpectrum(vals, _fix_phases(vecs))


def spectral_calculus(a: np.ndarray, f) -> np.ndarray:
    """f(A) = U f(Lambda) U^* for Hermitian A.

    ``f`` must be defined on the spectrum; for example log and negative
    powers require a positive definite argument.
    """
    return hermitian_eig(a).apply(f)


def traceless_hermitian_basis(n: int) -> list:
    """Real-orthonormal basis of traceless Hermitian n x n matrices.

    Orthonormal for the unnormalized trace pairing Tr[B_a B_b] = delta_ab;
    there are n^2 - 1 elements.
    """
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = -1j / np.sqrt(2.0)
            m[j, i] = +1j / np.sqrt(2.0)
            basis.append(m)
    for k in range(1, n):
        d = np.zeros(n)
        d[:k] = 1.0
        d[k] = -k
        d /= np.linalg.norm(d)
        basis.append(np.diag(d).astype(complex))
    return basis
