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
:func:`dual_orbit` evaluates exp(t L^+)(x) on a whole time grid in one
stacked pass over the eigensolved blocks and returns it as a (T, n, n)
array.  :func:`certify_detailed_balance` and
:func:`check_complete_positivity` take a spec or a superoperator, and
both go through one set of block routines: a spec on its Bohr blocks
and its jumps' GKS blocks, with no n^2 x n^2 matrix, and a
superoperator rotated into sigma's eigenbasis (:func:`_rotated`) as one
block of all n^2 units.  The dense matrix of
:func:`build_generator` is for test oracles and for ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    check_finite,
    dag,
    sharp,
    star_swap_residual,
    vec,
)
from .states import (
    DensityState,
    ModularData,
    _weight_kernel_f,
    bkm_weight,
    bohr_groups,
    build_modular_basis,
)

__all__ = [
    "GeneratorSpec",
    "RateMatrix",
    "CertificationReport",
    "JumpGKS",
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
# Largest Bohr block, in units E_ab, that :attr:`GeneratorSpec.bohr_blocks`
# builds.  Building a block of |B| units takes about 93 |B|^2 bytes
# (measured peak RSS of ``create`` on the maximally mixed state, one block
# of n^2 units: +97 MB at |B| = 1024, +381 MB at |B| = 2025), so this
# limit keeps a spec's load under about 0.4 GB; the maximally mixed state
# passes up to dim 45.
MAX_BOHR_BLOCK = 2048
# A mode of the flow that has decayed by e^{-600} (about 1e-261) is set to
# 0.  It is far below the round-off of any state, and its products would
# fall into the subnormal range, where BLAS is many times slower: 13-fold
# for the rotation back by U at dim 64, t in [2.7, 3] (OpenBLAS, 2 threads).
FLOW_UNDERFLOW = 600.0


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
    def bohr_blocks(self) -> tuple[np.ndarray, list, float]:
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
        A block of more than ``MAX_BOHR_BLOCK`` units raises ValueError before
        any block is allocated.  This is the one structural check of a spec,
        made by :meth:`create`.

        Returns U; per block size, the stacked blocks' unit indices a n + b,
        weights and weighted blocks as built (not symmetrised, so a GNS
        defect of the jumps stays visible), all read-only; and a bound on
        the part of L off the blocks, in 2-norm and Frobenius norm,

            2 (1 + sqrt(n)) sum_j c_j e_j (2 ||V_j||_F + e_j) ,

        with e_j the Frobenius norm of tilde V_j off its block.  It holds
        whenever the jumps' parts on their blocks give a block-diagonal L,
        that is unless ``BOHR_RTOL`` chains frequencies into blocks wider
        than the gaps between them.
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
        if max(by_size) > MAX_BOHR_BLOCK:
            raise ValueError(
                f"sigma's largest Bohr block has {max(by_size)} units; at most "
                f"{MAX_BOHR_BLOCK} are built (MAX_BOHR_BLOCK)"
            )
        flat = (dag(u) @ vs @ u).reshape(len(vs), nn)  # rows: tilde V_j, row-major
        off_block = label[None, :nn] != label[nn:, None]
        off_mass = np.linalg.norm(np.where(off_block, flat, 0), axis=1)
        mass = np.linalg.norm(flat, axis=1)
        off = off_mass / np.maximum(mass, 1e-300)
        if np.any(off > JUMP_EIGEN_TOL):
            j = int(np.argmax(off))
            raise ValueError(
                f"jump {j} is not a modular eigenvector: {off[j]:.3e} of its mass "
                f"lies off the Bohr block of frequency {-omegas[j]:.6g}"
            )
        offblock = float(2.0 * (1.0 + np.sqrt(n)) * np.sum(c * off_mass * (2.0 * mass + off_mass)))
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
            asym += np.linalg.norm(h - np.conj(h).transpose(0, 2, 1)) ** 2
            scale += np.linalg.norm(h) ** 2
            for arr in (units, weights, h):
                arr.flags.writeable = False
            blocks.append((units, weights, h))
        if asym > KMS_SYMMETRY_TOL**2 * scale:
            rel = np.sqrt(asym / scale)
            raise ValueError(
                f"L is not KMS-symmetric (the jumps are not closed under adjoints): "
                f"weighted Bohr blocks {rel:.3e} off Hermitian"
            )
        return u, blocks, offblock

    @cached_property
    def bohr_factor(self) -> tuple[np.ndarray, list]:
        """U and, per block size, unit indices, weights and eigenpairs of the
        Hermitian parts of the :attr:`bohr_blocks`, eigensolved on first use
        and kept read-only."""
        u, blocks, _ = self.bohr_blocks
        factor = [
            (units, w, *np.linalg.eigh(0.5 * (h + np.conj(h).transpose(0, 2, 1))))
            for units, w, h in blocks
        ]
        for _, _, vals, vecs in factor:
            vals.flags.writeable = vecs.flags.writeable = False
        return u, factor

    @cached_property
    def gks_blocks(self) -> "JumpGKS":
        """L's GKS coefficients over sigma's modular basis, from the jumps:
        :func:`_jump_gks` on :func:`qmsflow.states.build_modular_basis`, built
        on first use and kept with the spec."""
        return _jump_gks(self, build_modular_basis(self.sigma))


def _label_stacks(labels: np.ndarray) -> dict:
    """Indices sharing a label, as one (blocks, size) array per block size,
    blocks in ascending label order."""
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    sizes = np.diff(np.append(starts, labels.size))
    return {int(m): order[starts[sizes == m][:, None] + np.arange(m)] for m in np.unique(sizes)}


@dataclass(frozen=True)
class JumpGKS:
    """L's GKS coefficients c_ab over a modular basis, from the jumps
    (:func:`_jump_gks`), where the entries off the blocks are bounded, not
    formed, or from a superoperator (:func:`_superoperator_gks`)."""

    modular: ModularData
    row: np.ndarray  # c_0b
    col: np.ndarray  # c_a0
    blocks: list  # per block size: element indices (blocks, size) and reduced blocks
    offblock: float  # bound on every |c_ab| off the blocks
    hamiltonian_norms: tuple  # Frobenius norms of the two Hamiltonian candidates


def _hamiltonian_norms(modular: ModularData, row: np.ndarray, col: np.ndarray) -> tuple:
    """Frobenius norms of the Hamiltonian candidates sum_b (c_0b F_b - c_b0 F_b^*)/2i
    and sum_b (c_0b F_b^* - c_b0 F_b)/2i over b > 0, from the identity row and
    column: with F_b^* = F_b' and Tr[F_a^* F_b] = n delta_ab, sqrt(n)/2 times
    the norms of the coefficients c_0b - c_b'0 and c_0b' - c_b0."""
    pairing, root_n = modular.conj_pairing, np.sqrt(modular.sigma.dim)
    h = (row - col[pairing])[1:]
    h_hat = (row[pairing] - col)[1:]
    return root_n * float(np.linalg.norm(h)) / 2.0, root_n * float(np.linalg.norm(h_hat)) / 2.0


def _jump_gks(spec: GeneratorSpec, modular: ModularData) -> JumpGKS:
    """GKS coefficients c_ab of L over ``modular``, from the jumps alone.

    With x_ja = <F_a, V_j> = Tr[F_a^* V_j]/n and K = sum_b kappa_b F_b,
    expanding L(A) = 2 sum_j c_j V_j^* A V_j - K A - A K over F_a^* A F_b
    gives

        c_ab = 2 sum_j c_j conj(x_ja) x_jb - kappa_b delta_a0 - kappa_a' delta_b0

    (F_a' = F_a^*).  The reduced block (a, b > 0) is the Gram matrix of
    the jumps' traceless coefficients, positive semidefinite and, since
    each V_j lives on one Bohr block, block diagonal over the modular
    basis's ``block_labels``; it is kept per label, blocks of equal size
    stacked in label order.  The coefficients are read on sigma's
    eigenvectors, where each element is a few units
    (``ModularData.eigen``): x_ja = sum_k conj(coefs_k) tilde V_j[units_k] / n
    over the element's k.  The identity row and column are exact, and so
    are the Hamiltonian candidates built from them.  The bound on the
    entries off the blocks is 2 sum_j c_j |x_j| |x_j off its heaviest
    block|, or the largest identity-row or -column entry off the block of
    0, whichever is larger.
    """
    n, (c, vs, k) = spec.dim, spec.jump_stack
    u = modular.sigma.eigenvectors
    targets = (dag(u) @ np.concatenate([vs, k[None]]) @ u).reshape(-1, n * n)  # jumps, then K
    labels, pairing = modular.block_labels, modular.conj_pairing
    owner, units, coefs = modular.eigen
    first = np.flatnonzero(np.diff(owner, prepend=-1))  # each element's first entry
    x = np.add.reduceat(targets[:, units] * np.conj(coefs), first, axis=1) / n
    xj, kappa, t = x[:-1], x[-1], x[:-1, 0]  # t_j = Tr V_j / n
    row = 2.0 * (c * np.conj(t)) @ xj - kappa
    col = 2.0 * (c * t) @ np.conj(xj) - kappa[pairing]
    row[0] = col[0] = 2.0 * np.sum(c * np.abs(t) ** 2) - kappa[0] - kappa[pairing[0]]
    blocks = []
    for members in _label_stacks(labels[1:]).values():  # the reduced elements
        xg = xj[:, members + 1].transpose(1, 0, 2)  # (blocks, jumps, size)
        blocks.append((members + 1, 2.0 * np.conj(xg).transpose(0, 2, 1) @ (c[:, None] * xg)))
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    mass = np.add.reduceat(np.abs(xj[:, order]) ** 2, starts, axis=1)
    norms = np.sqrt(mass.sum(axis=1))
    mass[np.arange(len(mass)), np.argmax(mass, axis=1)] = 0.0
    bound = 2.0 * float(np.sum(c * norms * np.sqrt(mass.sum(axis=1))))
    off_zero = labels != labels[0]  # the identity's label is the block of 0
    edge = max(np.max(np.abs(row[off_zero]), initial=0.0), np.max(np.abs(col[off_zero]), initial=0.0))
    return JumpGKS(modular, row, col, blocks, max(bound, float(edge)), _hamiltonian_norms(modular, row, col))


def _rotated(l, sigma: DensityState) -> np.ndarray:
    """A superoperator L on the units E_ab = |eta_a><eta_b| of sigma's
    eigenvectors: entry (a n + b, c n + d) is (U^* L(U E_cd U^*) U)_ab, that
    is W^* L W with W = conj(U) (x) U re-indexed from column stacking,
    formed without a Kronecker product.  ValueError unless L is n^2 x n^2
    for sigma's n."""
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
    :func:`_rotated` gives it on ``modular.sigma``: c = X^* C X / n^2
    (:func:`qmsflow.canonical.gks_matrix`) with C the Choi matrix of ``lt``
    and column a of X the few units of U^* F_a^* U (``ModularData.eigen``)."""
    n = modular.sigma.dim
    nn = n * n
    owner, units, coefs = modular.eigen
    first = np.flatnonzero(np.diff(owner, prepend=-1))  # each element's first entry
    adjoint = (units % n) * n + units // n  # U^* F_a^* U holds conj(coefs) there
    choi_t = lt.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(nn, nn)
    half = np.add.reduceat(choi_t[:, adjoint] * np.conj(coefs), first, axis=1)
    return np.add.reduceat(coefs[:, None] * half[adjoint], first, axis=0) / nn


def _superoperator_gks(lt: np.ndarray, modular: ModularData) -> JumpGKS:
    """:func:`_superoperator_coefficients` in the layout of :func:`_jump_gks`,
    cut by the labels; ``offblock`` is the largest |c_ab| off the labels,
    exact."""
    c = _superoperator_coefficients(lt, modular)
    labels = modular.block_labels
    blocks = [
        (m + 1, c[m[:, :, None] + 1, m[:, None, :] + 1]) for m in _label_stacks(labels[1:]).values()
    ]
    offblock = float(np.max(np.abs(c[labels[:, None] != labels[None, :]]), initial=0.0))
    return JumpGKS(modular, c[0], c[:, 0], blocks, offblock, _hamiltonian_norms(modular, c[0], c[:, 0]))


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
    """2-norm of a Hermitian matrix, or the largest of a stack: the spectral
    radius, by an eigensolve."""
    evals = np.linalg.eigvalsh(h)
    return float(np.abs(evals).max()) if evals.size else 0.0


def _unit_positions(blocks: list, nn: int) -> np.ndarray:
    """Rows: size group, block and position in the block of each unit a n + b."""
    index = np.empty((3, nn), dtype=int)
    for g, (units, *_) in enumerate(blocks):
        index[0, units] = g
        index[1, units] = np.arange(units.shape[0])[:, None]
        index[2, units] = np.arange(units.shape[1])
    return index


def _block_entries(values: list, index: np.ndarray, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """Entries at units (rows, cols) of the block-diagonal matrix stored per
    size group as ``values`` (blocks located by ``index``), zero off its
    blocks, and the mask of the entries on them."""
    grp, blk, pos = index
    rows, cols = np.broadcast_arrays(rows, cols)
    on = (grp[rows] == grp[cols]) & (blk[rows] == blk[cols])
    out = np.zeros(rows.shape, dtype=complex)
    for g, v in enumerate(values):
        sel = on & (grp[rows] == g)
        out[sel] = v[blk[rows[sel]], pos[rows[sel]], pos[cols[sel]]]
    return out, on


def _unweighted_blocks(spec: GeneratorSpec) -> list:
    """The Bohr blocks of L itself, per size group: (unit indices, blocks)."""
    _, blocks, _ = spec.bohr_blocks
    return [(units, h * w[:, None, :] / w[:, :, None]) for units, w, h in blocks]


def _input_blocks(l, sigma: DensityState) -> tuple:
    """L's blocks over the units of sigma's eigenvectors, the bound eta on
    the part of L off them, and the producer of its GKS coefficients over a
    modular basis of sigma (``None``: sigma's own).  A spec, whose own
    state must be ``sigma`` (ValueError otherwise), gives its Bohr blocks,
    its off-block bound and :func:`_jump_gks`; a superoperator gives one
    block of all n^2 units (:func:`_rotated`), eta = 0 and
    :func:`_superoperator_gks`."""
    if isinstance(l, GeneratorSpec):
        if sigma is not l.sigma:
            raise ValueError("a spec is checked against its own sigma")
        return (
            _unweighted_blocks(l),
            l.bohr_blocks[2],
            lambda modular: l.gks_blocks if modular is None else _jump_gks(l, modular),
        )
    lt, nn = _rotated(l, sigma), sigma.dim**2
    return (
        [(np.arange(nn).reshape(1, nn), lt[None])],
        0.0,
        lambda modular: _superoperator_gks(lt, build_modular_basis(sigma) if modular is None else modular),
    )


def _largest_singular_value(stacks) -> float:
    return max((float(np.linalg.svd(x, compute_uv=False).max()) for x in stacks), default=0.0)


def _block_distance(blocks: list, eta: float, other: GeneratorSpec) -> float:
    """Upper bound on ||L - L_other||_2 from the blocks of L
    (:func:`_input_blocks`), the bound ``eta`` on L off them, and
    ``other``'s Bohr blocks.

    The blocks of L - L_other on L's blocks, where ``other``'s entries are
    taken from its own blocks, give the largest singular value of any
    block; ``eta`` and ``other``'s off-block bound are added.  ``other``'s
    blocks must each lie inside one of L's (ValueError otherwise), so every
    entry of L_other left out is off its own blocks.
    """
    nn = other.dim**2
    theirs = _unweighted_blocks(other)
    index = _unit_positions(blocks, nn)
    for units, _ in theirs:
        where = index[:2, units]
        if np.any(where != where[:, :, :1]):
            raise ValueError("the Bohr blocks of the two generators do not nest")
    their_index, their_values = _unit_positions(theirs, nn), [x for _, x in theirs]
    diffs = [
        _block_entries(their_values, their_index, units[:, :, None], units[:, None, :])[0] - x
        for units, x in blocks
    ]
    return _largest_singular_value(diffs) + eta + other.bohr_blocks[2]


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
    l_norm: float  # 2-norm of the certified blocks of L, the residuals' scale
    tolerance: float = GNS_FLAG_TOL
    # the bound on ||L - L_0||_2 / ||L_0||_2, L_0 the blocks of L, that makes
    # every residual an upper bound; 0 for a superoperator, certified whole
    offblock_bound: float = 0.0

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
    l,
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

    ``l`` is a superoperator, or a :class:`GeneratorSpec` whose own state
    is ``sigma``; either way :func:`_certify_blocks` certifies the blocks
    of :func:`_input_blocks`.  For a spec those are its Bohr blocks and the
    residuals are upper bounds; a superoperator is one block and its
    residuals are those of L itself.
    """
    blocks, eta, _ = _input_blocks(l, sigma)
    return _certify_blocks(sigma, blocks, eta, s_grid, tol)


def _certify_blocks(sigma: DensityState, ls: list, eta: float, s_grid, tol: float) -> CertificationReport:
    """The certification of L from its blocks L_B over the units of sigma's
    eigenvectors (``ls``: unit indices and blocks, per block size) and the
    bound eta on ||L - L_0||_2, L_0 the block-diagonal part.

    In sigma's eigenbasis every weight is diagonal on the units E_ab
    (Omega_s: lam_a^{1-s} lam_b^s; Omega_BKM: f(lam_a/lam_b) lam_b;
    Delta_sigma: lam_a/lam_b), so no weight superoperator is formed.  For
    L_0 each weighted residual is the largest Hermitian spectral radius of
    i(D_B L_B - L_B^* D_B) over the blocks, batched by block size, scaled
    by the weight's 2-norm (lam_max for every Omega_s, the largest kernel
    entry for Omega_BKM); the modular commutator is the largest singular
    value of L_B Delta_B - Delta_B L_B (frequencies in a block differ by up
    to ``BOHR_RTOL``), scaled by lam_max/lam_min; the star residual pairs
    each block with the block of its transposed units (an entry whose
    partner lies off the blocks counts twice); the unital residual is
    L_0(1) on the block of 0.  The scale is ||L_0||_2, the largest singular
    value of any block, which is at most ||L||_2.  eta enters each residual
    as the most it can move it (2 eta for the weighted, modular and star
    residuals, sqrt(n) eta for the unital one), so every residual is an
    upper bound on that of L itself.  The report carries eta / ||L_0||_2 as
    ``offblock_bound``.  Only ||L_0|| and the modular commutator, which is
    not normal, take an SVD.
    """
    n = sigma.dim
    lam = sigma.eigenvalues
    lam_max = float(lam[-1])
    l_norm = _largest_singular_value(x for _, x in ls)
    scale = max(l_norm, 1e-300)

    def weighted(kernel: np.ndarray, norm: float) -> float:
        worst = 0.0
        for units, x in ls:
            dx = kernel.ravel()[units][:, :, None] * x
            worst = max(worst, _hermitian_opnorm(1j * (dx - np.conj(dx).transpose(0, 2, 1))))
        return worst / (norm * scale) + 2.0 * eta / scale

    def s_residual(s: float) -> float:
        return weighted(np.outer(lam ** (1.0 - s), lam**s), lam_max)

    s_res = {float(s): s_residual(s) for s in s_grid}
    kernel = _weight_kernel_f(sigma, bkm_weight)
    bkm = weighted(kernel, float(np.max(kernel)))
    ratio = np.outer(lam, 1.0 / lam).ravel()
    commutators = (x * ratio[u][:, None, :] - ratio[u][:, :, None] * x for u, x in ls)
    mod_comm = _largest_singular_value(commutators) / (scale * lam_max / float(lam[0]))
    mod_comm += 2.0 * eta / scale
    index, values = _unit_positions(ls, n * n), [x for _, x in ls]
    diff2 = norm2 = 0.0
    for units, x in ls:
        mirror = (units % n) * n + units // n  # E_ab -> E_ba, the adjoint
        paired, on = _block_entries(values, index, mirror[:, :, None], mirror[:, None, :])
        diff2 += np.linalg.norm(x - np.conj(paired)) ** 2 + np.linalg.norm(x[~on]) ** 2
        norm2 += np.linalg.norm(x) ** 2
    star = (np.sqrt(diff2) + 2.0 * eta) / max(np.sqrt(norm2), 1e-300)
    g, b = index[:2, 0]  # E_00 lies in the block of 0, with every E_aa
    units, x = ls[g]
    unital = np.linalg.norm(x[b][:, units[b] % (n + 1) == 0].sum(axis=1))
    unital = (unital + np.sqrt(n) * eta) / scale
    gns = s_res[1.0] if 1.0 in s_res else s_residual(1.0)
    kms = s_res[0.5] if 0.5 in s_res else s_residual(0.5)
    return CertificationReport(
        dim=n,
        s_residuals=s_res,
        bkm_residual=bkm,
        modular_commutation=mod_comm,
        star_preservation=float(star),
        unital_residual=float(unital),
        gns_dbc=bool(gns < tol),
        kms_only=bool(kms < tol and mod_comm > 100 * tol),
        l_norm=l_norm,
        tolerance=tol,
        offblock_bound=eta / scale,
    )


def check_complete_positivity(
    l, psd_tol: float = 1e-10, l_norm: float | None = None, modular: ModularData | None = None
) -> tuple[bool, float]:
    """Complete positivity of exp(tL) for every t >= 0, for a unital, star-preserving L.

    The semigroup is completely positive exactly when the reduced
    coefficient block of L (identity row and column removed) is positive
    semidefinite (Gorini-Kossakowski-Sudarshan, Lindblad), so that block
    is the verdict and no propagator exp(tL) is formed.  Every orthonormal
    basis with the identity first gives the block the same spectrum.  For
    a :class:`GeneratorSpec` the block is the Gram matrix of the jumps'
    coefficients over sigma's modular basis, block diagonal over Bohr
    frequencies (:attr:`GeneratorSpec.gks_blocks`), and is eigensolved
    block by block; such an L is unital and star-preserving by
    construction.  A superoperator's block is taken whole, all n^2 - 1
    elements of ``modular`` as one block (:func:`_superoperator_coefficients`),
    so the verdict is exact for any L; ``modular`` is the caller's modular
    basis of some state (a spec's own basis is used for a spec), and
    without it the maximally mixed state's is built.  The
    block passes when its smallest eigenvalue is at least ``-psd_tol``
    times its largest |eigenvalue|, so the verdict does not depend on the
    units of L.  A superoperator must be n^2 x n^2, annihilate the
    identity and preserve adjoints (ValueError otherwise); ``l_norm`` is
    its operator 2-norm when the caller already has it.  Returns (verdict,
    minimum eigenvalue of the reduced block).
    """
    if isinstance(l, GeneratorSpec):
        blocks = [b for _, b in l.gks_blocks.blocks]
    else:
        l = check_finite(l, "superoperator")
        if modular is None:
            n = max(1, round(l.size**0.25))  # an n^2 x n^2 matrix has n^4 entries
            modular = build_modular_basis(DensityState.from_matrix(np.eye(n) / n))
        lt = _rotated(l, modular.sigma)
        n = modular.sigma.dim
        scale = max(np.linalg.norm(l, 2) if l_norm is None else l_norm, 1e-300)
        if np.linalg.norm(l @ vec(np.eye(n))) > 1e-8 * scale:
            raise ValueError("superoperator does not annihilate the identity")
        if star_swap_residual(l) > 1e-8:
            raise ValueError("superoperator is not star-preserving")
        blocks = [_superoperator_coefficients(lt, modular)[None, 1:, 1:]]
    parts = [np.linalg.eigvalsh(0.5 * (b + np.conj(b).transpose(0, 2, 1))).ravel() for b in blocks]
    evals = np.sort(np.concatenate(parts)) if parts else np.zeros(0)
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
    import scipy.linalg  # deferred: the only scipy use in the package, and costly to import

    return scipy.linalg.expm(t * check_finite(l, "superoperator"))


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
