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
jumps.  A :class:`GeneratorSpec` admits its jumps when constructed: one
rotation into sigma's eigenbasis snaps them onto their Bohr blocks, and
L is built block by block from the rotated jumps, once, which checks it.
:func:`ergodicity` and :func:`dual_orbit` eigensolve those blocks once;
:func:`dual_orbit` evaluates exp(t L^+)(x) on a whole time grid in one
stacked pass over the eigensolved blocks and returns it as a (T, n, n)
array.  A :class:`Superoperator` is admitted once too, rotated into
sigma's eigenbasis as one block of all n^2 units.  Either kind keeps its
residual battery, GKS coefficients and reduced spectrum, formed on first
use, for :func:`certify_detailed_balance` and
:func:`check_complete_positivity`.  The dense matrix of
:func:`build_generator` is for test oracles and for ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .linalg import (
    _binary_scale,
    check_finite,
    dag,
    sharp,
)
from .states import (
    DensityState,
    ModularData,
    _weight_kernel_f,
    bkm_weight,
    bohr_labels,
    build_modular_basis,
)

__all__ = [
    "GeneratorSpec",
    "Superoperator",
    "RateMatrix",
    "CertificationReport",
    "JumpGKS",
    "build_generator",
    "apply_generator",
    "apply_dual",
    "certify_detailed_balance",
    "check_complete_positivity",
    "ergodicity",
    "dual_orbit",
    "restrict_to_commutative",
    "modular_subalgebra",
]

JUMP_EIGEN_TOL = 1e-10
KMS_SYMMETRY_TOL = 1e-8
GNS_FLAG_TOL = 1e-9
PSD_TOL = 1e-10
# the weights Omega_s, s on this grid, of certify_detailed_balance; s = 1
# decides the GNS flag and s = 1/2 the KMS one
S_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
# an eigenvalue of L at most this times its largest |eigenvalue| counts as 0
NULL_RTOL = 1e-9
# Largest Bohr block, in units E_ab, that :attr:`GeneratorSpec.bohr_blocks`
# builds.  Building a block of |B| units takes about 93 |B|^2 bytes
# (measured peak RSS of building a spec on the maximally mixed state, one
# block of n^2 units: +97 MB at |B| = 1024, +381 MB at |B| = 2025), so this
# limit keeps a spec's load under about 0.4 GB; the maximally mixed state
# passes up to dim 45.
MAX_BOHR_BLOCK = 2048
# A mode of the flow that has decayed by e^{-600} (about 1e-261) is set to
# 0.  It is far below the round-off of any state, and its products would
# fall into the subnormal range, where BLAS is many times slower: 13-fold
# for the rotation back by U at dim 64, t in [2.7, 3] (OpenBLAS, 2 threads).
FLOW_UNDERFLOW = 600.0


class _Admitted:
    """The reads an admitted L, spec or superoperator, takes of its ``bohr_blocks`` alike."""

    @cached_property
    def certification(self) -> "CertificationReport":
        """||L||_2 and the battery (:func:`_certify_blocks`), verdicts at the default tolerance."""
        return _certify_blocks(self.sigma, self.bohr_blocks[1])


@dataclass(frozen=True)
class GeneratorSpec(_Admitted):
    """Invariant state plus modular-eigenvector jump data, admitted once, at
    construction (ValueError): jump shapes, finite omegas, :func:`_admit`,
    a finite K, :func:`_bohr_blocks`.  V_j is stored once, as V_j - U off(tilde V_j) U^*
    (an exact modular eigenvector is stored as given): ``jumps`` holds
    read-only views of ``jump_stack``'s.  The rows tilde V_j and tilde K
    that admission computed are kept as well, in sigma's eigenbasis, and
    so are L's own Bohr blocks, with their KMS weights beside them."""

    sigma: DensityState
    jumps: tuple  # tuple of (V_j: ndarray, omega_j: float)
    # weights c_j = e^{-omega_j/2}, the jumps stacked (J, n, n), K = sum_j c_j V_j^* V_j
    jump_stack: tuple = field(init=False, repr=False, compare=False)
    # U and L's own Bohr blocks, with units and weights (:func:`_bohr_blocks`)
    bohr_blocks: tuple = field(init=False, repr=False, compare=False)
    # rows tilde V_j = U^* V_j U, then tilde K = U^* K U, row-major (J + 1, n^2)
    _eigen_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, u = self.sigma.dim, self.sigma.eigenvectors
        vs, omegas = np.empty((len(self.jumps), n, n), dtype=complex), np.empty(len(self.jumps))
        for k, (v, w) in enumerate(self.jumps):
            v, omegas[k] = np.asarray(v), float(w)
            if v.shape != (n, n):
                raise ValueError(f"jump {k} has shape {v.shape}, expected {(n, n)}")
            if not np.isfinite(omegas[k]):
                raise ValueError(f"jump {k} has non-finite omega {omegas[k]}")
            vs[k] = v
        # an overflow is refused by name, with a ValueError, not reported by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            units, flat = _admit(self.sigma, check_finite(vs, "jump operator"), omegas)
            c = np.exp(-omegas / 2.0)
            k = (c[:, None, None] * np.conj(vs).transpose(0, 2, 1) @ vs).sum(axis=0)
            if not np.all(np.isfinite(k)):
                raise ValueError("K = sum_j c_j V_j^* V_j is not finite: the jumps overflow double precision")
            rows = np.concatenate([flat, (dag(u) @ k @ u).reshape(1, n * n)])
            bohr_blocks = _bohr_blocks(self.sigma, units, rows, c)
        for arr in (c, vs, k, rows):
            arr.flags.writeable = False
        object.__setattr__(self, "jumps", tuple(zip(vs, omegas.tolist())))
        object.__setattr__(self, "jump_stack", (c, vs, k))
        object.__setattr__(self, "_eigen_rows", rows)
        object.__setattr__(self, "bohr_blocks", bohr_blocks)

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
    def bohr_factor(self) -> tuple[np.ndarray, list]:
        """U and, per block size, unit indices, weights w and eigenpairs of
        the Hermitian parts of the weighted blocks w_a L_ab / w_b of L's
        :attr:`bohr_blocks` (:func:`_kms_weighted`), eigensolved on first
        use and kept read-only.  The null eigenvalues, |mu| at most
        ``NULL_RTOL`` times the largest |mu|, are set to exactly 0: their
        round-off grows with the units of L, and e^{t mu} would carry it
        into the null modes of every orbit."""
        u, blocks = self.bohr_blocks
        factor = []
        for units, w, x in blocks:
            h = _kms_weighted(w, x)
            h += np.conj(h).transpose(0, 2, 1)
            h *= 0.5
            factor.append((units, w, *np.linalg.eigh(h)))
        mags = [np.abs(vals) for _, _, vals, _ in factor]
        floor = NULL_RTOL * max(float(m.max()) for m in mags)
        for (_, _, vals, vecs), m in zip(factor, mags):
            vals[m <= floor] = 0.0
            vals.flags.writeable = vecs.flags.writeable = False
        return u, factor

    def gks_over(self, modular: ModularData) -> "JumpGKS":
        """L's GKS coefficients over ``modular``, from the jumps (:func:`_jump_gks`)."""
        return _jump_gks(self, modular)

    @cached_property
    def gks_blocks(self) -> "JumpGKS":
        """L's GKS coefficients over sigma's modular basis, kept with the spec."""
        return self.gks_over(build_modular_basis(self.sigma))

    @cached_property
    def reduced_spectrum(self) -> np.ndarray:
        """The reduced block's spectrum, from :attr:`gks_blocks`, block by block."""
        return _reduced_spectrum([b for _, b in self.gks_blocks.blocks])


def _admit(sigma: DensityState, vs: np.ndarray, omegas: np.ndarray) -> tuple:
    """Snaps the jumps ``vs`` (J, n, n) of frequencies ``omegas`` onto
    sigma's Bohr blocks, in place.  With U^* sigma U = diag(lam), a modular
    eigenvector's tilde V_j = U^* V_j U lives on the units E_ab of
    frequency log lam_a - log lam_b = -omega_j.  The blocks are sigma's
    alone, those of :func:`qmsflow.states.bohr_labels` (the modular basis's
    grouping), and -omega_j is looked up among them: a jump with no block
    near its frequency has all its mass off the blocks.  A jump with more
    than ``JUMP_EIGEN_TOL`` of its Frobenius mass off its block raises
    ValueError, and so does a block of more than ``MAX_BOHR_BLOCK`` units,
    before any block is allocated; below that, U off(tilde V_j) U^* is
    taken from V_j, and a jump with no entry off its block is left as it
    is.  Returns the units a n + b of each block, stacked per block size
    (:func:`_label_stacks`), and the rows tilde V_j (row-major) with their
    entries off the block set to 0."""
    n, u, nn = sigma.dim, sigma.eigenvectors, sigma.dim**2
    label, units = bohr_labels(sigma, -omegas)  # each block's units in ascending frequency
    stacks = _label_stacks(label[units])
    if max(stacks) > MAX_BOHR_BLOCK:
        raise ValueError(
            f"sigma's largest Bohr block has {max(stacks)} units; at most "
            f"{MAX_BOHR_BLOCK} are built (MAX_BOHR_BLOCK)"
        )
    flat = (dag(u) @ vs @ u).reshape(len(vs), nn)  # rows: tilde V_j, row-major
    off_block = label[None, :nn] != label[nn:, None]
    # the norms square the entries, so each row is scaled exactly
    scaled = flat * _binary_scale(np.abs(flat).max(axis=1, initial=0.0))[:, None]
    off_mass = np.linalg.norm(np.where(off_block, scaled, 0), axis=1)
    frac = off_mass / np.maximum(np.linalg.norm(scaled, axis=1), 1e-300)
    if np.any(frac > JUMP_EIGEN_TOL):
        j = int(np.argmax(frac))
        raise ValueError(
            f"jump {j} is not a modular eigenvector: {frac[j]:.3e} of its mass "
            f"lies off the Bohr block of frequency {-omegas[j]:.6g}"
        )
    moved = np.flatnonzero(off_mass)
    off = flat[moved]
    off[~off_block[moved]] = 0
    flat[off_block] = 0
    vs[moved] -= u @ off.reshape(-1, n, n) @ dag(u)  # the parts taken away
    return [units[m] for m in stacks.values()], flat


def _bohr_blocks(sigma: DensityState, units_by_size: list, rows: np.ndarray, c: np.ndarray) -> tuple:
    """L on its Bohr blocks, sigma's (:func:`_admit`'s units), from the rows
    of the jumps on their blocks and then tilde K = U^* K U (``rows``), and
    the weights ``c``.  With E_cd = |c><d|,

        L(E_cd)_ab = 2 sum_j c_j conj(tilde V_j[c, a]) tilde V_j[d, b]
                     - tilde K_ac delta_bd - delta_ac tilde K_db

    vanishes unless E_ab and E_cd share a block.  Scaling E_ab by
    (lam_a lam_b)^{1/4} makes each block Hermitian (KMS symmetry,
    :func:`_kms_weighted`); weighted blocks further than
    ``KMS_SYMMETRY_TOL`` from Hermitian, in Frobenius norm relative to
    theirs, raise ValueError.  Returns U and, per block size, the stacked
    blocks' unit indices a n + b, weights and L's own blocks as built (not
    symmetrised, so a GNS defect of the jumps stays visible), all
    read-only.  A block that is not finite raises ValueError, and so does
    the KMS check, whose norms are taken of each weighted block scaled by
    a power of 2 into [1/2, 1), so their squares do not overflow, and so
    does :func:`_refuse_units` (L's entries are at most 4 max_a tilde K_aa).
    """
    n, lam, flat = sigma.dim, sigma.eigenvalues, rows[:-1]
    kt, weighted_conj, blocks, norms = rows[-1].reshape(n, n), c[:, None] * np.conj(flat), [], []
    top_entry = 0.0
    for units in units_by_size:
        a, b = np.divmod(units, n)
        ap, bp, cq, dq = a[:, :, None], b[:, :, None], a[:, None, :], b[:, None, :]
        ca, db = cq * n + ap, dq * n + bp  # flat positions of [c, a] and [d, b]
        sandwich = np.zeros(ca.shape, dtype=complex)
        for cv, v in zip(weighted_conj, flat):
            sandwich += cv[ca] * v[db]
        block = 2.0 * sandwich - kt[ap, cq] * (bp == dq) - (ap == cq) * kt[dq, bp]
        weights = (lam[a] * lam[b]) ** 0.25
        h = _kms_weighted(weights, block)
        peak = float(np.abs(h).max())
        if not math.isfinite(peak):
            raise ValueError("L's Bohr blocks are not finite: the jumps overflow double precision")
        # an exact scaling by 2^-e, which 2^1023 bounds for a subnormal peak
        e = max(math.frexp(peak)[1], -1023)
        h *= math.ldexp(1.0, -e)
        norms.append((e, np.linalg.norm(h - np.conj(h).transpose(0, 2, 1)), np.linalg.norm(h)))
        top_entry = max(top_entry, peak)
        for arr in (units, weights, block):
            arr.flags.writeable = False
        blocks.append((units, weights, block))
    # L = 0 with K = 0 is an underflow, with K != 0 a cancellation (jumps that are multiples of 1)
    vanished, k_max = top_entry == 0.0 and flat.any() and not kt.any(), float(np.max(kt.diagonal().real))
    _refuse_units(sigma, top_entry, vanished, k_max, "the jumps overflow double precision: max_a tilde K_aa")
    # each block's norms on the scale of the largest block, exactly
    top = max(e for e, _, _ in norms)
    asym = sum(math.ldexp(off, e - top) ** 2 for e, off, _ in norms)
    scale = sum(math.ldexp(whole, e - top) ** 2 for e, _, whole in norms)
    if asym > KMS_SYMMETRY_TOL**2 * scale:
        rel = np.sqrt(asym / scale)
        raise ValueError(
            f"L is not KMS-symmetric (the jumps are not closed under adjoints): "
            f"weighted Bohr blocks {rel:.3e} off Hermitian"
        )
    return sigma.eigenvectors, blocks


def _refuse_units(sigma: DensityState, top_entry: float, vanished: bool, peak: float, peak_name: str) -> None:
    """Admission's units rule, for a spec and a superoperator alike
    (ValueError).  The commands scale L's entries by up to 2 n^2
    lam_max/lam_min (a Hermitian part, a modular ratio, sums of n^2
    entries); with 4 ``peak`` a bound on L's entries, h = 8 n^2
    lam_max/lam_min is the headroom.  L overflows when ``peak`` times h is
    not finite.  L underflows when it ``vanished`` (is 0, its input not) or
    its largest KMS-weighted block entry ``top_entry`` is subnormal, or
    when h^2 over it is not finite: the transport metric is about h over
    L, and the geodesic's Newton system scales it by about h again."""
    n, lam = sigma.dim, sigma.eigenvalues
    h = 8.0 * n * n * lam[-1] / lam[0]
    floor = max(np.finfo(float).smallest_normal, h * h / np.finfo(float).max)
    if vanished or 0.0 < top_entry < floor:
        raise ValueError(f"L underflows double precision: its largest weighted Bohr block entry is {top_entry:.3e}, "
                         f"below {floor:.3e}, the smallest normal float or (8 n^2 lam_max/lam_min)^2 over the "
                         f"largest, the headroom the transport metric needs, while its input is not 0")
    if not math.isfinite(peak * h):
        raise ValueError(f"{peak_name} = {peak:.3e} times 8 n^2 lam_max/lam_min = {h:.3e}, "
                         f"the headroom the commands need, is not finite")


def _kms_weighted(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Bohr blocks ``x`` of L scaled to w_a x_ab / w_b by their weights
    ``w`` = (lam_a lam_b)^{1/4}, Hermitian for a KMS-symmetric L, formed in
    one new array."""
    h = w[:, :, None] * x
    h /= w[:, None, :]
    return h


def _label_stacks(labels: np.ndarray) -> dict:
    """Indices sharing a label, as one (blocks, size) array per block size,
    blocks in ascending label order."""
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    sizes = np.diff(np.append(starts, labels.size))
    # sizes sorted in Python: np.unique would import numpy.ma (about 1 MB)
    return {m: order[starts[sizes == m][:, None] + np.arange(m)] for m in sorted(set(sizes.tolist()))}


@dataclass(frozen=True)
class JumpGKS:
    """L's GKS coefficients c_ab over a modular basis, from the jumps
    (:func:`_jump_gks`) or from a superoperator
    (:meth:`Superoperator.gks_over`); ``offblock`` is exact for both kinds."""

    modular: ModularData
    row: np.ndarray  # c_0b
    col: np.ndarray  # c_a0
    blocks: list  # per block size: element indices (blocks, size) and reduced blocks
    offblock: float  # the largest |c_ab| off the blocks
    hamiltonian_norms: tuple  # Frobenius norms of the two Hamiltonian candidates


def _hamiltonian_norms(modular: ModularData, row: np.ndarray, col: np.ndarray) -> tuple:
    """Frobenius norms of the Hamiltonian candidates sum_b (c_0b F_b - c_b0 F_b^*)/2i
    and sum_b (c_0b F_b^* - c_b0 F_b)/2i over b > 0, from the identity row and
    column: with F_b^* = F_b' and Tr[F_a^* F_b] = n delta_ab, sqrt(n)/2 times
    the norms of the coefficients c_0b - c_b'0 and c_0b' - c_b0, taken of
    entries scaled by the power of 2 that takes the largest |c_0b|, |c_b0|
    into [1/2, 1), so their squares do not overflow."""
    pairing, root_n = modular.conj_pairing, np.sqrt(modular.sigma.dim)
    bits = _binary_scale(max(np.abs(row).max(), np.abs(col).max()))
    h, h_hat = bits * (row - col[pairing])[1:], bits * (row[pairing] - col)[1:]
    return tuple(root_n * (float(np.linalg.norm(x)) / bits) / 2.0 for x in (h, h_hat))


def _jump_gks(spec: GeneratorSpec, modular: ModularData) -> JumpGKS:
    """GKS coefficients c_ab of L over ``modular``, from the jumps alone.

    With x_ja = <F_a, V_j> = Tr[F_a^* V_j]/n and K = sum_b kappa_b F_b,
    expanding L(A) = 2 sum_j c_j V_j^* A V_j - K A - A K over F_a^* A F_b
    gives

        c_ab = 2 sum_j c_j conj(x_ja) x_jb - kappa_b delta_a0 - kappa_a' delta_b0

    (F_a' = F_a^*).  The reduced block (a, b > 0) is the Gram matrix of
    the jumps' traceless coefficients, positive semidefinite and, since
    each V_j lives on one of sigma's Bohr blocks, which are the modular
    basis's (``block_labels``), exactly block diagonal over them; it is
    kept per label, blocks of equal size stacked in label order.  The
    coefficients are read on sigma's eigenvectors, where each element is a
    few units (``ModularData.eigen``), from the rows tilde V_j and tilde K
    that the spec's admission kept: x_ja = sum_k conj(coefs_k)
    tilde V_j[units_k] / n over the element's k, so ``modular`` must be a
    basis of the spec's own sigma (ValueError otherwise).  The identity row
    and column are exact, and so are the Hamiltonian candidates built from
    them.  The reduced block has no entry off the blocks, so ``offblock`` is
    the largest identity-row or -column entry off the block of 0, exact as
    a superoperator's is.
    """
    if modular.sigma is not spec.sigma:
        raise ValueError("a spec's coefficients are read over a modular basis of its own sigma")
    n, c, targets = spec.dim, spec.jump_stack[0], spec._eigen_rows  # jumps, then K
    labels, pairing = modular.block_labels, modular.conj_pairing
    owner, units, coefs = modular.eigen
    first = np.flatnonzero(np.diff(owner, prepend=-1))  # each element's first entry
    x = np.add.reduceat(targets[:, units] * np.conj(coefs), first, axis=1) / n
    xj, kappa, t = x[:-1], x[-1], x[:-1, 0]  # t_j = Tr V_j / n
    # einsums, not BLAS calls, as in apply_dual
    row = 2.0 * np.einsum("j,ja->a", c * np.conj(t), xj) - kappa
    col = 2.0 * np.einsum("j,ja->a", c * t, np.conj(xj)) - kappa[pairing]
    row[0] = col[0] = 2.0 * np.sum(c * np.abs(t) ** 2) - kappa[0] - kappa[pairing[0]]
    blocks = []
    for members in _label_stacks(labels[1:]).values():  # the reduced elements
        xg = xj[:, members + 1].transpose(1, 0, 2)  # (blocks, jumps, size)
        blocks.append((members + 1, 2.0 * np.conj(xg).transpose(0, 2, 1) @ (c[:, None] * xg)))
    off_zero = labels != labels[0]  # the identity's label is the block of 0
    edge = max(np.max(np.abs(row[off_zero]), initial=0.0), np.max(np.abs(col[off_zero]), initial=0.0))
    return JumpGKS(modular, row, col, blocks, float(edge), _hamiltonian_norms(modular, row, col))


def _rotated(l, sigma: DensityState) -> np.ndarray:
    """A superoperator L on the units E_ab = |eta_a><eta_b| of sigma's
    eigenvectors: entry (a n + b, c n + d) is (U^* L(U E_cd U^*) U)_ab, that
    is W^* L W with W = conj(U) (x) U re-indexed from column stacking,
    formed without a Kronecker product.  ValueError unless L is finite and
    n^2 x n^2 for sigma's n."""
    l = check_finite(l, "superoperator")
    n, u = sigma.dim, sigma.eigenvectors
    if l.shape != (n * n, n * n):
        raise ValueError(
            f"superoperator has shape {l.shape}, expected {(n * n, n * n)} for sigma of dim {n}"
        )
    t = dag(u) @ l.reshape(n, n, n, n) @ u  # L[i + k n, j + l n] at [k, i, l, j] -> [k, i, d, c]
    t = u.T @ t.transpose(2, 3, 0, 1) @ np.conj(u)  # -> [d, c, b, a]
    return t.transpose(3, 2, 1, 0).reshape(n * n, n * n)


def _superoperator_coefficients(lt: np.ndarray, modular: ModularData) -> np.ndarray:
    """GKS coefficients c_ab over ``modular`` of ``lt``, a superoperator as
    :func:`_rotated` gives it on ``modular.sigma``: c = X^* C X / n^2 with C
    the Choi matrix of ``lt`` and column a of X the few units of
    U^* F_a^* U (``ModularData.eigen``).  The one route to a
    superoperator's coefficients; the dense Choi matrix over dense basis
    elements (``gks_matrix`` in ``tests/conftest.py``) is its reference."""
    n = modular.sigma.dim
    nn = n * n
    owner, units, coefs = modular.eigen
    first = np.flatnonzero(np.diff(owner, prepend=-1))  # each element's first entry
    adjoint = (units % n) * n + units // n  # U^* F_a^* U holds conj(coefs) there
    choi_t = lt.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(nn, nn)
    half = np.add.reduceat(choi_t[:, adjoint] * np.conj(coefs), first, axis=1)
    return np.add.reduceat(coefs[:, None] * half[adjoint], first, axis=0) / nn


@dataclass(frozen=True)
class Superoperator(_Admitted):
    """A superoperator L (n^2 x n^2, column stacking) and the state sigma it
    is read against, admitted once, at construction, as a spec is
    (ValueError): :func:`_rotated`, then :func:`_refuse_units` with
    max |tilde L_ab| for max_a tilde K_aa.  The rotated L is kept as one
    block of all n^2 units, in the layout of :attr:`GeneratorSpec.bohr_blocks`."""

    sigma: DensityState
    matrix: np.ndarray
    bohr_blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lt, lam = _rotated(self.matrix, self.sigma)[None], self.sigma.eigenvalues
        units, weights = np.arange(lt.shape[1])[None], np.outer(lam, lam).reshape(1, -1) ** 0.25
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by name
            top_entry, peak = float(np.abs(_kms_weighted(weights, lt)).max()), float(np.abs(lt).max())
            _refuse_units(self.sigma, top_entry, False, peak, "L overflows double precision: max_ab |tilde L_ab|")
        units.flags.writeable = weights.flags.writeable = lt.flags.writeable = False
        object.__setattr__(self, "bohr_blocks", (self.sigma.eigenvectors, [(units, weights, lt)]))

    @cached_property
    def _coefficients(self) -> tuple:
        """sigma's modular basis and L's GKS coefficients over it, formed once."""
        modular = build_modular_basis(self.sigma)
        return modular, _superoperator_coefficients(self.bohr_blocks[1][0][2][0], modular)

    def gks_over(self, modular: ModularData) -> JumpGKS:
        """L's GKS coefficients over ``modular``, a modular basis of sigma, in
        the layout of :func:`_jump_gks`, cut by its labels; ``offblock`` is
        the largest |c_ab| off them, exact."""
        own, c = self._coefficients
        if modular is not own:
            c = _superoperator_coefficients(self.bohr_blocks[1][0][2][0], modular)
        labels = modular.block_labels
        blocks = [(m + 1, c[m[:, :, None] + 1, m[:, None, :] + 1]) for m in _label_stacks(labels[1:]).values()]
        offblock = float(np.max(np.abs(c[labels[:, None] != labels[None, :]]), initial=0.0))
        return JumpGKS(modular, c[0], c[:, 0], blocks, offblock, _hamiltonian_norms(modular, c[0], c[:, 0]))

    @cached_property
    def gks_blocks(self) -> JumpGKS:
        """L's GKS coefficients over sigma's modular basis, formed once."""
        return self.gks_over(self._coefficients[0])

    @cached_property
    def reduced_spectrum(self) -> np.ndarray:
        """The reduced block's spectrum, the block taken whole."""
        return _reduced_spectrum([self._coefficients[1][None, 1:, 1:]])


def _admitted(l, sigma: DensityState | None):
    """``l`` if admitted, ``sigma`` (unless None) its own state (ValueError otherwise), else
    the :class:`Superoperator` of the matrix ``l`` on ``sigma`` or, for None, the maximally mixed state."""
    if isinstance(l, (GeneratorSpec, Superoperator)):
        if sigma is not None and sigma is not l.sigma:
            raise ValueError("an admitted L is checked against its own sigma")
        return l
    if sigma is None:
        n = max(1, round(np.size(l) ** 0.25))  # an n^2 x n^2 matrix has n^4 entries
        sigma = DensityState.from_matrix(np.eye(n) / n)
    return Superoperator(sigma, l)


def _reduced_spectrum(blocks: list) -> np.ndarray:
    """The eigenvalues of the Hermitian parts of reduced GKS blocks, ascending."""
    parts = [np.linalg.eigvalsh(0.5 * (b + np.conj(b).transpose(0, 2, 1))).ravel() for b in blocks]
    return np.sort(np.concatenate(parts)) if parts else np.zeros(0)


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
    # an einsum, not a BLAS call: at these sizes a second BLAS thread gains
    # nothing, and waking OpenBLAS's worker leaves it spinning for ~0.1 s
    sandwich = np.einsum("j,jab->ab", c, vs @ rho @ np.conj(vs).transpose(0, 2, 1))
    return 2.0 * sandwich - k @ rho - rho @ k


def _unit_positions(blocks: list, nn: int) -> np.ndarray:
    """Rows: size group, block and position in the block of each unit a n + b."""
    index = np.empty((3, nn), dtype=int)
    for g, (units, *_) in enumerate(blocks):
        index[0, units] = g
        index[1, units] = np.arange(units.shape[0])[:, None]
        index[2, units] = np.arange(units.shape[1])
    return index


def _largest_singular_value(stacks) -> float:
    return max((float(np.linalg.svd(x, compute_uv=False).max()) for x in stacks), default=0.0)


def _block_distance(blocks: list, other: GeneratorSpec) -> float:
    """||L - L_other||_2 from the blocks of L (an admitted L's ``bohr_blocks``) and
    ``other``'s Bohr blocks: the largest singular value of any block of
    L - L_other on L's blocks.  ``other``'s blocks are sigma's, so each lies
    in one of L's (L's blocks are sigma's too, or one block of all units)
    and is added to it by a direct scatter through :func:`_unit_positions`.
    """
    index, diffs = _unit_positions(blocks, other.dim**2), [-x for *_, x in blocks]
    for units, _, x in other.bohr_blocks[1]:
        g, blk, pos = index[:, units]
        diffs[g[0, 0]][blk[:, :1, None], pos[:, :, None], pos[:, None, :]] += x
    return _largest_singular_value(diffs)


@dataclass
class CertificationReport:
    """Residuals of the detailed-balance battery for one superoperator."""

    dim: int
    s_residuals: dict
    bkm_residual: float
    modular_commutation: float
    star_preservation: float
    unital_residual: float
    gns_dbc: bool = field(init=False)  # the verdicts, at ``tolerance``
    kms_only: bool = field(init=False)
    l_norm: float  # 2-norm of the certified blocks of L, the residuals' scale
    tolerance: float = GNS_FLAG_TOL

    def __post_init__(self):
        self.gns_dbc = bool(self.s_residuals[1.0] < self.tolerance)
        self.kms_only = bool(self.s_residuals[0.5] < self.tolerance and self.modular_commutation > 100 * self.tolerance)

    def as_dict(self) -> dict:
        """The fields in declaration order, without ``l_norm``."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "l_norm"}
        out["s_residuals"] = {str(k): v for k, v in self.s_residuals.items()}
        return out


def _weighted_residual(ls: list, kernel: np.ndarray, norm: float, scale: float) -> float:
    """Relative size of Omega L - L^+ Omega for a weight Omega with entries
    ``kernel`` (n, n) on the units E_ab, from L's blocks ``ls`` (an
    admitted L's ``bohr_blocks``): the largest spectral radius of
    i(D_B L_B - L_B^* D_B) over the blocks, by an eigensolve, over ``norm``
    (Omega's 2-norm) times ``scale`` (||L||_2).  Zero iff L is
    Omega-symmetric."""
    worst = 0.0
    for units, _, x in ls:
        dx = kernel.ravel()[units][:, :, None] * x
        evals = np.linalg.eigvalsh(1j * (dx - np.conj(dx).transpose(0, 2, 1)))
        worst = max(worst, float(np.abs(evals).max()))
    return worst / (norm * scale)


def certify_detailed_balance(l, sigma: DensityState, tol: float = GNS_FLAG_TOL) -> CertificationReport:
    """Measure self-adjointness of a superoperator in the weighted forms.

    Reports residuals of s-self-adjointness for each s of ``S_GRID``, of
    BKM-self-adjointness, of commutation with the modular operator, and of
    star preservation.  The GNS flag is set when the s = 1 residual is
    below ``tol``; ``kms_only`` flags maps that are KMS-symmetric without
    commuting with the modular operator.

    The battery is the ``certification`` of ``l`` admitted on ``sigma``
    (:func:`_admitted`); ``tol`` sets only the verdicts.
    """
    return replace(_admitted(l, sigma).certification, tolerance=tol)


def _certify_blocks(sigma: DensityState, ls: list) -> CertificationReport:
    """The certification of L from its blocks L_B over the units of sigma's
    eigenvectors, which hold all of L (``ls``, as in ``bohr_blocks``).

    In sigma's eigenbasis every weight is diagonal on the units E_ab
    (Omega_s: lam_a^{1-s} lam_b^s; Omega_BKM: f(lam_a/lam_b) lam_b;
    Delta_sigma: lam_a/lam_b), so no weight superoperator is formed.  Each
    weighted residual is :func:`_weighted_residual`, scaled by the
    weight's 2-norm (lam_max for every Omega_s, the largest kernel entry
    for Omega_BKM); the modular commutator is the largest singular
    value of L_B Delta_B - Delta_B L_B (frequencies in a block differ by up
    to ``BOHR_RTOL``), scaled by lam_max/lam_min; the star residual pairs
    each block with the block of its transposed units, its mirror, which
    is a block of the same size (sigma's blocks are mirror-symmetric, and
    a superoperator's one block is its own mirror), read by a direct
    gather through :func:`_unit_positions` (norms of entries scaled by a
    power of 2, whose squares do not overflow); the unital residual is
    L(1) on the block of 0.  The scale is ||L||_2, the largest singular
    value of any block.  Only ||L|| and the modular commutator, which is
    not normal, take an SVD.
    """
    n = sigma.dim
    lam = sigma.eigenvalues
    lam_max = float(lam[-1])
    l_norm = _largest_singular_value(x for *_, x in ls)
    scale = max(l_norm, 1e-300)
    s_res = {s: _weighted_residual(ls, np.outer(lam ** (1.0 - s), lam**s), lam_max, scale) for s in S_GRID}
    kernel = _weight_kernel_f(sigma, bkm_weight)
    bkm = _weighted_residual(ls, kernel, float(np.max(kernel)), scale)
    ratio = np.outer(lam, 1.0 / lam).ravel()
    commutators = (x * ratio[u][:, None, :] - ratio[u][:, :, None] * x for u, _, x in ls)
    mod_comm = _largest_singular_value(commutators) / (scale * lam_max / float(lam[0]))
    index = _unit_positions(ls, n * n)
    diff2 = norm2 = 0.0
    bits = _binary_scale(scale)  # no entry exceeds ||L||_2
    for units, _, x in ls:
        # E_ab -> E_ba, the adjoint, maps each block onto one of the same size
        _, blk, pos = index[:, (units % n) * n + units // n]
        paired = x[blk[:, :1, None], pos[:, :, None], pos[:, None, :]]
        diff2 += np.linalg.norm(bits * (x - np.conj(paired))) ** 2
        norm2 += np.linalg.norm(bits * x) ** 2
    star = np.sqrt(diff2) / max(np.sqrt(norm2), 1e-300)
    g, b = index[:2, 0]  # E_00 lies in the block of 0, with every E_aa
    units, _, x = ls[g]
    unital = np.linalg.norm(bits * x[b][:, units[b] % (n + 1) == 0].sum(axis=1)) / (bits * scale)
    return CertificationReport(
        dim=n,
        s_residuals=s_res,
        bkm_residual=bkm,
        modular_commutation=mod_comm,
        star_preservation=float(star),
        unital_residual=float(unital),
        l_norm=l_norm,
    )


def check_complete_positivity(l, psd_tol: float = PSD_TOL) -> tuple[bool, float]:
    """Complete positivity of exp(tL) for every t >= 0, for a unital, star-preserving L.

    The semigroup is completely positive exactly when the reduced
    coefficient block of L (identity row and column removed) is positive
    semidefinite (Gorini-Kossakowski-Sudarshan, Lindblad), so that block
    is the verdict and no propagator exp(tL) is formed.  Every orthonormal
    basis with the identity first gives the block the same spectrum: ``l``
    admitted (:func:`_admitted`, a matrix on the maximally mixed state)
    keeps it, a spec's from its jumps' Gram blocks, a superoperator's
    from the block taken whole.  Its battery's unital and star residuals
    must be at most 1e-8 (ValueError otherwise).  The block passes when
    its smallest eigenvalue is at least ``-psd_tol`` times its largest
    |eigenvalue|, so the verdict does not depend on the units of L.
    Returns (verdict, minimum eigenvalue of the reduced block).
    """
    l = _admitted(l, None)
    if l.certification.unital_residual > 1e-8:
        raise ValueError("superoperator does not annihilate the identity")
    if l.certification.star_preservation > 1e-8:
        raise ValueError("superoperator is not star-preserving")
    evals = l.reduced_spectrum if l.reduced_spectrum.size else np.zeros(1)  # no reduced block: 0
    return bool(evals[0] >= -psd_tol * max(-evals[0], evals[-1])), float(evals[0])


def ergodicity(spec: GeneratorSpec) -> int:
    """Dimension of the null space of L, the commutant of the jumps; 1 means ergodic.

    Counts the null eigenvalues of :attr:`GeneratorSpec.bohr_factor`, those
    with |mu| <= ``NULL_RTOL`` times the largest |mu|: the tolerance
    measures eigenvalues of L, so the count does not change when L is
    rescaled.
    """
    _, blocks = spec.bohr_factor
    return sum(int(np.count_nonzero(vals == 0.0)) for _, _, vals, _ in blocks)


def dual_orbit(spec: GeneratorSpec, x: np.ndarray, times) -> np.ndarray:
    """exp(t L^+)(x) at each of ``times``, for any n x n matrix x, stacked
    as a (T, n, n) array in the order of ``times``.

    One eigensolve per Bohr block serves the whole grid: on a block with
    weights w and eigenpairs (mu, Q), exp(t L^+) maps the coefficients of
    tilde x to w Q e^{t mu} Q^* (tilde x / w).  Each block size takes one
    einsum over all times, and the rotation back by U is one stacked
    matmul (:func:`_flow`).
    """
    times = np.array([float(t) for t in times])
    if np.any(times < 0):
        raise ValueError("t must be nonnegative")
    return _flow(_flow_factor(spec, x), times)


def _flow_factor(spec: GeneratorSpec, x: np.ndarray) -> tuple:
    """U and, per block size of :attr:`GeneratorSpec.bohr_factor`, the unit
    indices, weights w, eigenpairs (mu, Q) and the coefficients
    Q^* (tilde x / w) of x on the blocks: everything :func:`_flow` needs."""
    u, blocks = spec.bohr_factor
    xt = (dag(u) @ check_finite(x, "matrix") @ u).ravel()
    return u, [(units, w, mu, q, np.einsum("kqp,kq->kp", np.conj(q), xt[units] / w)) for units, w, mu, q in blocks]


def _flow(factor: tuple, times: np.ndarray, rate: bool = False) -> np.ndarray:
    """exp(t L^+)(x) at each of ``times`` (an array), stacked (T, n, n),
    from x's :func:`_flow_factor`; with ``rate`` its time derivative
    L^+ exp(t L^+)(x) instead, w Q (mu e^{t mu}) Q^* (tilde x / w) on each
    block, the exact derivative of the computed orbit.  A mode with
    t mu < -``FLOW_UNDERFLOW`` is taken as 0."""
    u, parts = factor
    flat = np.zeros((len(times), u.size), dtype=complex)
    for units, w, mu, q, y in parts:
        decay = times[:, None, None] * mu
        e = np.where(decay < -FLOW_UNDERFLOW, 0.0, np.exp(decay))
        flat[:, units] = w * np.einsum("kpq,tkq->tkp", q, (mu * e if rate else e) * y)
    return u @ flat.reshape(-1, *u.shape) @ dag(u)


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
) -> RateMatrix:
    """Jump rates Q_kl = Tr[E_k L(E_l)] / Tr[E_k] of the restricted chain.

    ``projections`` must be nonzero, mutually orthogonal projections
    summing to the identity whose span is invariant under L^+: each
    residual of L^+(E_k) off the span must be at most 1e-10 times
    ||K||_F, K = sum_j e^{-omega_j/2} V_j^* V_j.  That scale bounds
    the round-off of the terms of L^+(E_k) that cancel and goes with the
    units of L, so neither decides the verdict; both are norms of entries
    scaled by a power of 2, whose squares do not overflow.  The stationary
    vector is sigma_k = Tr[sigma E_k] and classical detailed balance
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
    bits = _binary_scale(np.abs(spec.jump_stack[2]).max())
    scale = np.linalg.norm(bits * spec.jump_stack[2])
    for k, image in enumerate(images):
        inside = sum(
            (np.trace(projections[m] @ image) / traces[m]) * projections[m]
            for m in range(len(projections))
        )
        resid = np.linalg.norm(bits * (image - inside))
        if resid > 1e-10 * scale:
            raise ValueError(
                f"span of projections is not invariant under the dual generator "
                f"(projection {k}, residual {resid / bits:.3e})"
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
    :func:`qmsflow.states.bohr_labels`, is rejected.
    """
    label, _ = bohr_labels(sigma)
    if np.count_nonzero(label == label[0]) > sigma.dim:  # the block of 0 holds more than the diagonal units
        raise ValueError("sigma has (numerically) degenerate eigenvalues")
    u = sigma.eigenvectors
    return [np.outer(u[:, i], np.conj(u[:, i])) for i in range(sigma.dim)]
