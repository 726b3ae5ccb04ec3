"""Faithful states, the modular operator and its eigenbasis, and the
sigma-weighted family of inner products.

For an invertible density matrix sigma the modular operator is
Delta_sigma(A) = sigma A sigma^{-1}.  Its eigenvalues are ratios of
eigenvalues of sigma and are written e^{-omega}; the exponents omega are
the Bohr frequencies.  The weighted inner products are

    <A, B>_s = Tr[sigma^s A^* sigma^{1-s} B]          (s in [0, 1])
    <A, B>_f = Tr[A^* f(Delta_sigma)(B) sigma]        (f > 0 on the spectrum)

with s = 1 the GNS form, s = 1/2 the KMS form and f(t) = (t-1)/log t the
BKM form.  All of them assign <1, A> = Tr[sigma A].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    HermitianSpectrum,
    _fix_phases,
    check_finite,
    dag,
    hs_inner,
)

__all__ = [
    "DensityState",
    "ModularData",
    "bohr_labels",
    "build_modular_basis",
    "inner_s",
    "inner_f",
    "bkm_weight",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
BOHR_RTOL = 1e-10


@dataclass(frozen=True)
class DensityState:
    """Strictly positive Hermitian matrix of unit trace with cached spectrum.

    Matrix functions of the state (``power``, ``log``, ``modular_kernel``)
    are computed once, on first use, and cached on the state; the arrays
    returned are the cached ones and are read-only.
    """

    rho: np.ndarray
    spectrum: HermitianSpectrum
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def from_matrix(cls, rho: np.ndarray) -> "DensityState":
        """The state of ``rho``, after the checks of :func:`_checked_spectra`
        (ValueError), with eigenvector phases fixed as in
        :func:`qmsflow.linalg.hermitian_eig`."""
        sym, vals, vecs = _checked_spectra(np.asarray(rho)[None])
        return cls(sym[0], HermitianSpectrum(vals[0], _fix_phases(vecs[0])))

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.spectrum.eigenvectors

    def _cached(self, key, compute) -> np.ndarray:
        value = self._cache.get(key)
        if value is None:
            value = compute()
            value.setflags(write=False)
            self._cache[key] = value
        return value

    def power(self, p: float) -> np.ndarray:
        return self._cached(("power", p), lambda: self.spectrum.apply(lambda x: x**p))

    def log(self) -> np.ndarray:
        return self._cached(("log",), lambda: self.spectrum.apply(np.log))

    def modular_kernel(self, f) -> np.ndarray:
        """Entries f(lam_i/lam_k): f of the modular operator in the eigenbasis."""
        lam = self.eigenvalues
        return self._cached(("kernel", f), lambda: np.vectorize(f)(lam[:, None] / lam[None, :]))


def _checked_spectra(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The density-matrix checks on a stack (T, n, n), each item on its own:
    finite, square, Hermitian within ``HERMITICITY_TOL`` (Frobenius, relative
    to the item's norm), trace within ``TRACE_TOL`` of one and, from one
    batched ``eigh`` of the Hermitian parts, strictly positive.

    A failure raises the ValueError :meth:`DensityState.from_matrix` raises
    on the first failing item, checks taken in that order.  Returns the
    Hermitian parts (rho + rho^*)/2 and their eigenvalues (ascending) and
    eigenvectors.
    """
    rho = check_finite(rho, "density matrix")
    if rho.ndim != 3 or rho.shape[1] != rho.shape[2]:
        raise ValueError("density matrix must be square")
    adj = np.conj(rho).transpose(0, 2, 1)
    herm_err = np.linalg.norm(rho - adj, axis=(1, 2))
    bad = np.flatnonzero(herm_err > HERMITICITY_TOL * np.linalg.norm(rho, axis=(1, 2)))
    if bad.size:
        raise ValueError(f"not Hermitian: |rho - rho^*| = {herm_err[bad[0]]:.3e}")
    trace_err = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)
    bad = np.flatnonzero(trace_err > TRACE_TOL)
    if bad.size:
        raise ValueError(f"trace differs from one by {trace_err[bad[0]]:.3e}")
    sym = 0.5 * (rho + adj)
    vals, vecs = np.linalg.eigh(sym)
    bad = np.flatnonzero(vals[:, 0] <= 0.0)
    if bad.size:
        raise ValueError(f"not strictly positive: min eigenvalue = {vals[bad[0], 0]:.3e}")
    return sym, vals, vecs


@dataclass(frozen=True)
class ModularData:
    """Orthonormal eigenbasis of the modular operator.

    The basis is orthonormal for the normalized Hilbert-Schmidt inner
    product, starts with the identity, is closed under adjoints via the
    index involution ``conj_pairing`` (F_{a'} = F_a^*, omega_{a'} =
    -omega_a), and satisfies Delta_sigma F_a = e^{-omega_a} F_a.
    ``block_labels`` gives each element its Bohr block from
    :func:`bohr_labels`: labels ascend with frequency, and the identity's
    label is the omega = 0 block.  ``eigen`` = (owner, units, coefs) is the
    only stored form of the elements: U^* F_a U = sum of coefs[k]
    |eta_i><eta_j| over the k with owner[k] = a and units[k] = i n + j,
    sorted by owner (one unit, a Helmert row of diagonal units or a
    symmetrized pair); :meth:`combine` forms matrices from it.  Ordering:
    the identity first, then ascending Bohr frequency with the originating
    eigenvector pair (i, j) as tie-breaker.
    """

    sigma: DensityState
    bohr_frequencies: np.ndarray
    conj_pairing: np.ndarray
    block_labels: np.ndarray
    eigen: tuple = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.bohr_frequencies)

    def combine(self, y) -> np.ndarray:
        """sum_a y[..., a] F_a as n x n matrices (y's last axis runs over the
        elements; ``combine(np.eye(size))`` stacks them), from ``eigen``: the
        elements with some y_a nonzero are scattered onto their units, and
        only the rows and columns they touch are rotated back by U."""
        owner, units, coefs = self.eigen
        y = np.asarray(y)
        take = np.flatnonzero(np.any(y.reshape(-1, self.size) != 0, axis=0)[owner])
        u = self.sigma.eigenvectors
        rows, cols = np.divmod(units[take], u.shape[0])
        i, at_row = np.unique(rows, return_inverse=True)
        j, at_col = np.unique(cols, return_inverse=True)
        values = y[..., owner[take]] * coefs[take]
        tilde = np.zeros((len(i), len(j)) + values.shape[:-1], dtype=complex)
        np.add.at(tilde, (at_row, at_col), np.moveaxis(values, -1, 0))
        return u[:, i] @ np.moveaxis(tilde, (0, 1), (-2, -1)) @ dag(u[:, j])

    def reordered(self, perm) -> "ModularData":
        """The same basis with element ``perm[k]`` at position k (the
        identity must stay first)."""
        perm = np.asarray(perm)
        inv = np.argsort(perm)
        owner, units, coefs = self.eigen
        order = np.argsort(inv[owner], kind="stable")
        return ModularData(
            self.sigma,
            self.bohr_frequencies[perm],
            inv[self.conj_pairing[perm]],
            self.block_labels[perm],
            (inv[owner][order], units[order], coefs[order]),
        )


def bohr_labels(sigma: DensityState, extra=()) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of sigma's Bohr frequencies: the one grouping of frequencies.

    Position a n + b stands for log lam_a - log lam_b, which is -omega for
    the unit |eta_a><eta_b| on sigma's eigenvectors; positions from n^2 on
    stand for the values of ``extra``.  Sorted values whose gaps are at
    most ``BOHR_RTOL`` times the largest |value| (at least 1) share a
    block.  Returns each position's block label, labels ascending with
    frequency from 0, and the positions in ascending value (one
    ``argsort``), which lists each block's members in the order the
    blocks are built on.  Two eigenvalues of sigma count as degenerate
    when their frequency shares the block of 0.
    """
    loglam = np.log(sigma.eigenvalues)
    values = np.concatenate([np.subtract.outer(loglam, loglam).ravel(), np.asarray(extra, dtype=float)])
    order = np.argsort(values)
    scale = max(float(np.max(np.abs(values))), 1.0)
    label = np.empty(values.size, dtype=int)
    label[order] = np.concatenate([[0], np.cumsum(np.diff(values[order]) > BOHR_RTOL * scale)])
    return label, order


def _helmert_rows(m: int) -> np.ndarray:
    """Real orthogonal m x m matrix whose first row is (1, ..., 1)/sqrt(m)."""
    h = np.zeros((m, m))
    h[0] = 1.0 / np.sqrt(m)
    for k in range(1, m):
        h[k, :k] = 1.0
        h[k, k] = -k
        h[k] /= np.sqrt(k * (k + 1))
    return h


def build_modular_basis(sigma: DensityState) -> ModularData:
    """Construct a modular basis for ``sigma``.

    Starting from the rank-one units sqrt(n) |eta_i><eta_j| on the
    eigenvectors of sigma (eigenvalues ascending), the grouping of
    :func:`bohr_labels` decides everything that depends on a tolerance:
    neighbouring eigenvalues whose Bohr frequency shares the block of 0 are
    merged, on log lam at ``BOHR_RTOL``, and each element is labelled with
    its frequency's block.  Within the omega = 0 block every element is made
    self-adjoint: the diagonal units are rotated by a Helmert-style real
    orthogonal matrix whose first output is the identity, and off-diagonal
    units inside merged eigenspaces are replaced by their real and
    imaginary symmetrizations.  For omega != 0 the units are kept as
    adjoint-conjugate pairs, at the difference of their eigenspaces' mean
    log-eigenvalues.  Each element is recorded by its units and
    coefficients alone (``ModularData.eigen``); no n x n matrix is formed.
    """
    n = sigma.dim
    loglam = np.log(sigma.eigenvalues)
    label = bohr_labels(sigma)[0].reshape(n, n)  # label[i, j]: block of log lam_i - log lam_j
    zero = label[0, 0]
    group_of = np.concatenate([[0], np.cumsum(label[np.arange(n - 1), np.arange(1, n)] != zero)])
    # representative log-eigenvalue per merged eigenspace
    members = group_of == np.arange(group_of[-1] + 1)[:, None]
    group_log = np.mean(np.broadcast_to(loglam, members.shape), axis=1, where=members)

    # One element per slot i n + j, sorted on the key (omega, (i, j)): slot
    # i n + i is Helmert row i of the diagonal units, key (-1, i); slot
    # i n + j, i != j, is the unit i n + j with its adjoint in slot j n + i,
    # or, inside a merged eigenspace, the unit's real (i < j) or imaginary
    # (i > j) symmetrization, self-adjoint at omega = 0.
    slots = np.arange(n * n)
    i, j = np.divmod(slots, n)
    merged = group_of[i] == group_of[j]
    omegas = group_log[group_of[j]] - group_log[group_of[i]]
    key_i = np.where(i == j, -1, i)
    # identity first, then ascending omega with lexicographic tie-break
    perm = np.lexsort((j, key_i, omegas, slots != 0))
    position = np.empty(n * n, dtype=int)
    position[perm] = slots
    pairing = position[np.where(merged, slots, j * n + i)][perm]
    labels = np.where(merged, zero, label.T.ravel())[perm]

    # each slot's units and coefficients, then stably sorted by position
    root_n, root_half_n = np.sqrt(n), np.sqrt(n / 2.0)
    h = _helmert_rows(n)
    rows, diag = np.nonzero(h)
    pair = merged & (i != j)
    low, high = np.minimum(i, j)[pair], np.maximum(i, j)[pair]
    sym = np.where((i < j)[pair, None], (root_half_n, root_half_n), (1j * root_half_n, -1j * root_half_n))
    single = np.flatnonzero(~merged)
    slot = np.concatenate([rows * (n + 1), np.repeat(np.flatnonzero(pair), 2), single])
    units = np.concatenate([diag * (n + 1), np.stack([low * n + high, high * n + low], axis=1).ravel(), single])
    coefs = np.concatenate([root_n * h[rows, diag], sym.ravel(), np.full(single.size, root_n)])
    owner = position[slot]
    order = np.argsort(owner, kind="stable")
    return ModularData(sigma, omegas[perm], pairing, labels, (owner[order], units[order], coefs[order]))


def _operands(sigma: DensityState, a, b) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as complex arrays whose last two axes are sigma's
    (n, n) (ValueError otherwise)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[-2:] != sigma.rho.shape or b.shape[-2:] != sigma.rho.shape:
        raise ValueError(
            f"dimension mismatch: operands {a.shape} and {b.shape} for sigma of shape {sigma.rho.shape}"
        )
    return a, b


def inner_s(sigma: DensityState, s: float, a: np.ndarray, b: np.ndarray):
    """Weighted inner product Tr[sigma^s A^* sigma^{1-s} B] for s in [0, 1],
    computed as <A sigma^s, sigma^{1-s} B>_HS.

    Stacks broadcast as in :func:`qmsflow.linalg.hs_inner`: the last two
    axes of ``a`` and ``b`` are sigma's, the leading axes broadcast, so
    ``inner_s(sigma, s, mats[:, None], mats[None])`` is a Gram matrix.  Two
    matrices give a Python complex.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s = {s} outside [0, 1]")
    a, b = _operands(sigma, a, b)
    return hs_inner(a @ sigma.power(s), sigma.power(1.0 - s) @ b)


def bkm_weight(t: float) -> float:
    """f_0(t) = (t - 1)/log t with the limit value 1 at t = 1."""
    if abs(t - 1.0) < 1e-9:
        d = t - 1.0
        return 1.0 + d / 2.0 - d * d / 12.0
    return (t - 1.0) / np.log(t)


def inner_f(sigma: DensityState, f, a: np.ndarray, b: np.ndarray):
    """Weighted inner product Tr[A^* f(Delta_sigma)(B) sigma].

    ``f`` must be positive on the spectrum of Delta_sigma, which consists
    of the ratios of eigenvalues of sigma.  On sigma's eigenvectors, with
    tilde X = U^* X U, the form is sum_ik conj(tilde A_ik) f(lam_i/lam_k)
    lam_k tilde B_ik.  Stacks broadcast as in :func:`inner_s`.
    """
    a, b = _operands(sigma, a, b)
    u = sigma.eigenvectors
    if np.any(sigma.modular_kernel(f) <= 0.0):
        raise ValueError("f is not positive on the spectrum of the modular operator")
    return hs_inner(dag(u) @ a @ u, _weight_kernel_f(sigma, f) * (dag(u) @ b @ u))


def _weight_kernel_f(sigma: DensityState, f) -> np.ndarray:
    """Entries f(lam_i/lam_k) lam_k of Omega_f in sigma's eigenbasis.

    Omega_f is diagonal there, so these are its eigenvalues.
    """
    lam = sigma.eigenvalues
    return sigma.modular_kernel(f) * lam[None, :]  # right multiplication contributes lam_k
