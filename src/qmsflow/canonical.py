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
trace zero, and normalized-trace orthonormality.  For a generator given by
its jumps the blocks are the jumps' Gram blocks
(:attr:`qmsflow.generators.GeneratorSpec.gks_blocks`), and no n^2 x n^2
matrix is formed; a superoperator's are cut from its coefficient matrix
read on sigma's eigenvectors (:func:`qmsflow.generators._superoperator_gks`).
:func:`gks_matrix` over dense basis elements is the reference both are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import choi, dag
from .states import DensityState, ModularData, build_modular_basis
from .generators import (
    CertificationReport,
    GeneratorSpec,
    JumpGKS,
    _block_distance,
    _input_blocks,
    _largest_singular_value,
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

    matrix: np.ndarray

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


def gks_matrix(k: np.ndarray, basis, check_orthonormal: bool = True) -> GKSMatrix:
    """Coefficient matrix of the superoperator ``k`` over ``basis``.

    The basis must be orthonormal in the normalized Hilbert-Schmidt inner
    product with the identity as its first element.  Computed through the
    Choi matrix:  c = X^+ C(K) X / n^2 with X the column matrix of
    row-major flattenings of F_a^*.  A modular basis's elements are
    ``modular.combine(np.eye(modular.size))``.
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
    return GKSMatrix(c)


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


def _paired_blocks(blocks: list, mod: ModularData) -> list:
    """Per block-size stack, the adjoint-pairing image e^{-omega_a} c_{b',a'}
    of the reduced coefficient blocks (a, b in a block, ' the conjugate
    element, whose block has the same size)."""
    out = []
    for members, values in blocks:
        which, place = np.empty(mod.size, dtype=int), np.empty(mod.size, dtype=int)
        which[members] = np.arange(len(members))[:, None]  # the block within the stack
        place[members] = np.arange(members.shape[1])
        partner = mod.conj_pairing[members]
        image = values[which[partner[:, :1, None]], place[partner][:, None, :], place[partner][:, :, None]]
        out.append(np.exp(-mod.bohr_frequencies[members])[:, :, None] * image)
    return out


def _canonical_jumps(blocks: list, mod: ModularData, drop_rtol: float) -> tuple:
    """Jumps from the Hermitian reduced coefficient blocks over ``mod``.

    ``blocks`` holds, per block size, the element indices of each label's
    reduced elements and their blocks.  The adjoint-pairing symmetry is
    enforced on each block, and each conjugate pair of blocks is solved
    once, on its omega >= 0 member: one batched ``eigh`` per block size,
    and a real one for the block of 0.  One ``ModularData.combine`` call
    forms every kept jump; the omega < 0 partners are their adjoints.  The
    loop over labels only orders the output.  Returns (jumps, dropped
    eigenvalues, block sizes).
    """
    omegas, labels = mod.bohr_frequencies, mod.block_labels
    sym = []
    for (_, values), image in zip(blocks, _paired_blocks(blocks, mod)):
        half = 0.5 * (values + image)
        sym.append(0.5 * (half + np.conj(half).transpose(0, 2, 1)))
    overall = max([float(np.max(np.abs(b.real))) for b in sym] + [1e-300])
    listed_floor = mod.size * np.finfo(float).eps * overall
    # d e^{omega/2} is a jump's squared norm, alike for a block and its partner
    weighted = max(
        [float(np.max(np.abs(np.exp(omegas[m] / 2.0)[:, :, None] * b))) for (m, _), b in zip(blocks, sym)]
        + [1e-300]
    )
    where = {int(labels[m[0]]): (s, r) for s, (members, _) in enumerate(blocks) for r, m in enumerate(members)}
    zero = labels[0]
    # labels ascend with frequency, so the labels up to the zero block's
    # meet each conjugate pair of blocks once: the output order.  A pair is
    # solved on its omega >= 0 member, the partner's block.
    order = [
        where[int(labels[mod.conj_pairing[blocks[s][0][r, 0]]])]
        for s, r in (where[g] for g in range(zero + 1) if g in where)
    ]
    zero_pos = len(order) - 1 if zero in where else -1  # the block of 0 comes last
    solved = []  # per eigensolve: output positions, element indices, eigenpairs
    for s, (members, _) in enumerate(blocks):
        at = [p for p, (t, _) in enumerate(order) if t == s and p != zero_pos]
        if at:
            rows = [order[p][1] for p in at]
            solved.append((np.array(at), members[rows], *np.linalg.eigh(sym[s][rows])))
    if zero_pos >= 0:
        s, r = where[zero]
        # real symmetric in a self-adjoint basis, so real eigenvectors give
        # self-adjoint jumps directly
        d, vv = np.linalg.eigh(sym[s][r].real)
        solved.append((np.array([zero_pos]), blocks[s][0][r][None], d[None], vv[None]))
    if not solved:
        return [], [], {}

    # every eigenpair in output order: by position, eigenvalues descending
    freq, counts = np.empty(len(order)), np.empty(len(order), dtype=int)
    pos, k, d, keep = [], [], [], []
    for at, idx, vals, _ in solved:
        freq[at] = np.mean(omegas[idx], axis=1)
        kept = ~(vals * np.exp(freq[at] / 2.0)[:, None] <= drop_rtol * weighted)
        counts[at] = kept.sum(axis=1)
        pos.append(np.repeat(at, vals.shape[1]))
        k.append(np.tile(np.arange(vals.shape[1]), len(at)))
        d.append(vals.ravel())
        keep.append(kept.ravel())
    first = np.cumsum([0] + [x.size for x in pos])  # each eigensolve's first pair
    pos, k, d, keep = map(np.concatenate, (pos, k, d, keep))
    ranked = np.lexsort((-k, pos))
    dropped = [float(x) for x in d[ranked[~keep[ranked]]] if abs(x) > listed_floor]
    chosen = ranked[keep[ranked]]  # the kept pairs, one jump each
    y = np.zeros((chosen.size, mod.size), dtype=complex)
    for (_, idx, _, vv), lo, hi in zip(solved, first, first[1:]):
        rows = np.flatnonzero((chosen >= lo) & (chosen < hi))
        b, kk = np.divmod(chosen[rows] - lo, vv.shape[1])
        y[rows[:, None], idx[b]] = np.conj(vv[b, :, kk])  # jump k is sum_b conj(vv[b, k]) F_idx[b]
    omega = freq[pos[chosen]]
    scales = np.sqrt(d[chosen] * np.exp(omega / 2.0) / 2.0)
    jumps: list[tuple[np.ndarray, float]] = []
    for scale, w, p, vmat in zip(scales, omega.tolist(), pos[chosen].tolist(), mod.combine(y)):
        jumps.append((scale * vmat, w))
        if p != zero_pos:
            jumps.append((scale * dag(vmat), -w))
    block_sizes: dict[float, int] = {}
    for p, (w, count) in enumerate(zip(freq.tolist(), counts.tolist())):
        block_sizes[w] = count
        if p != zero_pos:
            block_sizes[-w] = count
    return jumps, dropped, block_sizes


def _jump_gks_residuals(gks: JumpGKS) -> tuple:
    """Hermiticity, block, pairing and off-block residuals of GKS
    coefficients in the :class:`qmsflow.generators.JumpGKS` layout, over
    its identity row and column and reduced blocks; the off-block residual
    is its ``offblock``: an upper bound for a spec, exact for a
    superoperator."""
    mod, row, col, blocks = gks.modular, gks.row, gks.col, gks.blocks
    omegas, pairing = mod.bohr_frequencies, mod.conj_pairing
    values = [v for _, v in blocks]
    scale = max([float(np.max(np.abs(x))) for x in [row, col, *values]] + [1e-300])
    eo = np.exp(omegas)
    gaps = [np.abs(row - row * eo), np.abs(eo * col - col)]  # omega_0 = 0
    gaps += [np.abs(eo[m][:, :, None] * v - v * eo[m][:, None, :]) for m, v in blocks]
    block = max(float(np.max(g)) for g in gaps) / (scale * float(np.max(eo)))
    pair = [np.abs(row - col[pairing]), np.abs(col - np.exp(-omegas) * row[pairing])]
    pair += [np.abs(v - image) for v, image in zip(values, _paired_blocks(blocks, mod))]
    herm2 = 2.0 * np.linalg.norm(row[1:] - np.conj(col[1:])) ** 2 + abs(row[0] - np.conj(row[0])) ** 2
    herm2 += sum(np.linalg.norm(v - np.conj(v).transpose(0, 2, 1)) ** 2 for v in values)
    norm2 = np.linalg.norm(row) ** 2 + np.linalg.norm(col[1:]) ** 2
    norm2 += sum(np.linalg.norm(v) ** 2 for v in values)
    herm = float(np.sqrt(herm2 / max(norm2, 1e-300)))
    return herm, float(block), max(float(np.max(p)) for p in pair) / scale, gks.offblock / scale


def extract_canonical(
    l,
    sigma: DensityState,
    modular: ModularData | None = None,
    drop_rtol: float = DROP_RTOL,
    require_dbc: bool = True,
    certification: CertificationReport | None = None,
    psd_tol: float = PSD_TOL,
    complete_positivity: tuple[bool, float] | None = None,
) -> tuple[GeneratorSpec, ExtractionReport]:
    """Recover canonical jump data {(V_j, omega_j)} from a DBC generator.

    ``l`` is a superoperator, or a :class:`GeneratorSpec` whose own state
    is ``sigma``.  :func:`qmsflow.generators._input_blocks` gives L's
    blocks and the producer of its GKS coefficients over ``modular``
    (default: sigma's own modular basis): a spec's are its jumps' Gram
    blocks, with no n^2 x n^2 matrix formed; a superoperator's are cut from
    its coefficient matrix, and its entries outside the Bohr blocks are
    left out (they are below tolerance for valid input).  One loop turns
    the reduced blocks into jumps.

    The blocks are the modular basis's own (``ModularData.block_labels``,
    from :func:`qmsflow.states.bohr_groups`), so no frequency is compared
    here.  The adjoint-pairing symmetry is enforced, and each block is
    eigensolved once per conjugate pair, on its omega >= 0 member (the
    partner found through ``conj_pairing``).  Eigenvalues d of the block at
    frequency omega give jumps sqrt(d e^{omega/2} / 2) V with V the
    corresponding unit combination of basis elements; the -omega partner
    is written as the exact adjoint, and the omega = 0 block, real
    symmetric in its self-adjoint elements, gives self-adjoint jumps.  An
    eigenvalue d is dropped together with its vector when d e^{omega/2},
    the jump's squared norm, is at most ``drop_rtol`` times the largest
    |e^{omega_a/2} c_ab| of the reduced matrix, a scale a block and its
    conjugate partner share; the report lists those above the round-off of
    the blocks, the superoperator dimension n^2 times machine epsilon times
    the largest |c_ab|.

    With ``require_dbc`` the input must pass GNS certification (the
    caller's ``certification`` of ``l`` and ``sigma`` when given, so its
    tolerance holds; else one at the default tolerance), the reduced
    coefficient positivity check at ``psd_tol`` (the caller's
    ``complete_positivity`` verdict and minimum eigenvalue from
    :func:`qmsflow.generators.check_complete_positivity` when given), and
    the block-structure guard.  The round-trip error is relative to
    ||L||, taken from the certification when there is one, else the
    largest singular value of L's blocks.  It compares L's blocks with the
    extracted spec's Bohr blocks (:func:`qmsflow.generators._block_distance`)
    and is an upper bound, for a superoperator too.
    """
    blocks, eta, gks_over = _input_blocks(l, sigma)
    if modular is None and not isinstance(l, GeneratorSpec):
        modular = build_modular_basis(sigma)  # one basis for complete positivity and extraction
    cert = certification
    if require_dbc and cert is None:
        cert = certify_detailed_balance(l, sigma)
    l_norm = cert.l_norm if cert is not None else _largest_singular_value(x for _, x in blocks)
    if require_dbc:
        if not cert.gns_dbc:
            raise ValueError(
                "generator is not GNS-self-adjoint for sigma "
                f"(residual {cert.s_residuals[1.0]:.3e}); no canonical form"
            )
        if complete_positivity is None:
            complete_positivity = check_complete_positivity(
                l, psd_tol=psd_tol, l_norm=l_norm, modular=modular
            )
        cp_ok, min_eig = complete_positivity
        if not cp_ok:
            raise ValueError(
                f"generator is not conditionally completely positive "
                f"(reduced coefficient matrix has eigenvalue {min_eig:.3e})"
            )

    gks = gks_over(modular)
    herm_res, block_res, pair_res, offblock_res = _jump_gks_residuals(gks)
    if require_dbc and max(block_res, pair_res, offblock_res) > 1e-6:
        raise ValueError(
            "coefficient matrix violates the modular block structure: "
            f"block {block_res:.3e}, pairing {pair_res:.3e}, off-block {offblock_res:.3e}"
        )

    jumps, dropped, block_sizes = _canonical_jumps(gks.blocks, gks.modular, drop_rtol)
    spec = GeneratorSpec.create(sigma, jumps)
    h_norm, h_hat_norm = gks.hamiltonian_norms
    report = ExtractionReport(
        block_residual=block_res,
        pairing_residual=pair_res,
        offblock_residual=offblock_res,
        hermiticity_residual=herm_res,
        hamiltonian_norm=h_norm,
        hamiltonian_hat_norm=h_hat_norm,
        dropped_eigenvalues=dropped,
        block_sizes=block_sizes,
        roundtrip_error=_block_distance(blocks, eta, spec) / max(l_norm, 1e-300),
    )
    return spec, report
