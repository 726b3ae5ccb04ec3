"""Recovery of the canonical jump form from the coefficient (GKS) matrix
of a detailed-balance generator.

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
matrix is formed; a :class:`qmsflow.generators.Superoperator`'s are cut
from its coefficient matrix, read once on sigma's eigenvectors.
The tests hold the dense reference both are checked against: the
coefficient matrix through the Choi matrix, over dense basis elements
(``gks_matrix`` in ``tests/conftest.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _binary_scale, dag
from .states import DensityState, ModularData
from .generators import (
    GNS_FLAG_TOL,
    PSD_TOL,
    GeneratorSpec,
    JumpGKS,
    _admitted,
    _block_distance,
    _unit_positions,
    certify_detailed_balance,
    check_complete_positivity,
)

__all__ = [
    "ExtractionReport",
    "extract_canonical",
]

DROP_RTOL = 1e-10


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
        """The fields in declaration order, ``block_sizes`` keyed by strings."""
        out = dict(vars(self))
        out["block_sizes"] = {str(k): v for k, v in self.block_sizes.items()}
        return out


def _paired_blocks(blocks: list, mod: ModularData) -> list:
    """Per block-size stack, the adjoint-pairing image e^{-omega_a} c_{b',a'}
    of the reduced coefficient blocks (a, b in a block, ' the conjugate
    element, whose block has the same size and so is in the same stack),
    read through the blocks' index
    (:func:`qmsflow.generators._unit_positions`)."""
    index, out = _unit_positions(blocks, mod.size), []
    for members, values in blocks:
        _, blk, pos = index[:, mod.conj_pairing[members]]
        image = values[blk[:, :1, None], pos[:, None, :], pos[:, :, None]]
        out.append(np.exp(-mod.bohr_frequencies[members])[:, :, None] * image)
    return out


def _canonical_jumps(blocks: list, mod: ModularData, images: list, drop_rtol: float) -> tuple:
    """Jumps from the Hermitian reduced coefficient blocks over ``mod``.

    ``blocks`` holds, per block size, the element indices of each label's
    reduced elements and their blocks, and ``images`` their adjoint-pairing
    images (:func:`_paired_blocks`).  The adjoint-pairing symmetry is
    enforced on each block, and each conjugate pair of blocks is solved
    once, on its omega >= 0 member: one batched ``eigh`` per block size,
    and a real one for the block of 0.  One ``ModularData.combine`` call
    forms every kept jump; the omega < 0 partners are their adjoints.  The
    loop over labels only orders the output.  Returns (jumps, dropped
    eigenvalues, block sizes).
    """
    omegas, labels = mod.bohr_frequencies, mod.block_labels
    sym = []
    for (_, values), image in zip(blocks, images):
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


def _jump_gks_residuals(gks: JumpGKS, images: list) -> tuple:
    """Hermiticity, block, pairing and off-block residuals of GKS
    coefficients in the :class:`qmsflow.generators.JumpGKS` layout, over
    its identity row and column and reduced blocks, whose adjoint-pairing
    images are ``images`` (:func:`_paired_blocks`); the off-block residual
    is its ``offblock``: an upper bound for a spec, exact for a
    superoperator.  The Hermiticity residual's norms are of coefficients
    scaled by a power of 2, whose squares do not overflow."""
    mod, row, col, blocks = gks.modular, gks.row, gks.col, gks.blocks
    omegas, pairing = mod.bohr_frequencies, mod.conj_pairing
    values = [v for _, v in blocks]
    scale = max([float(np.max(np.abs(x))) for x in [row, col, *values]] + [1e-300])
    eo = np.exp(omegas)
    gaps = [np.abs(row - row * eo), np.abs(eo * col - col)]  # omega_0 = 0
    gaps += [np.abs(eo[m][:, :, None] * v - v * eo[m][:, None, :]) for m, v in blocks]
    block = max(float(np.max(g)) for g in gaps) / (scale * float(np.max(eo)))
    pair = [np.abs(row - col[pairing]), np.abs(col - np.exp(-omegas) * row[pairing])]
    pair += [np.abs(v - image) for v, image in zip(values, images)]
    bits = _binary_scale(scale)
    row, col, values = bits * row, bits * col, [bits * v for v in values]
    herm2 = 2.0 * np.linalg.norm(row[1:] - np.conj(col[1:])) ** 2 + abs(row[0] - np.conj(row[0])) ** 2
    herm2 += sum(np.linalg.norm(v - np.conj(v).transpose(0, 2, 1)) ** 2 for v in values)
    norm2 = np.linalg.norm(row) ** 2 + np.linalg.norm(col[1:]) ** 2
    norm2 += sum(np.linalg.norm(v) ** 2 for v in values)
    herm = float(np.sqrt(herm2 / max(norm2, 1e-300)))
    return herm, float(block), max(float(np.max(p)) for p in pair) / scale, gks.offblock / scale


def extract_canonical(
    l, sigma: DensityState, modular: ModularData | None = None, psd_tol: float = PSD_TOL, tol: float = GNS_FLAG_TOL
) -> tuple[GeneratorSpec, ExtractionReport]:
    """Recover canonical jump data {(V_j, omega_j)} from a DBC generator.

    ``l`` is admitted on ``sigma`` (:func:`qmsflow.generators._admitted`).
    L's GKS coefficients over ``modular`` (default: sigma's own modular
    basis, kept by the admitted L) are a spec's jumps' Gram blocks, or are
    cut from a superoperator's coefficient matrix, its entries off the
    blocks left out (below tolerance for valid input).  Their
    adjoint-pairing image is formed once, for the pairing residual and the
    symmetrisation; one loop turns the reduced blocks into jumps.

    The blocks are the modular basis's own (``ModularData.block_labels``,
    from :func:`qmsflow.states.bohr_labels`), so no frequency is compared
    here.  The adjoint-pairing symmetry is enforced, and each block is
    eigensolved once per conjugate pair, on its omega >= 0 member (the
    partner found through ``conj_pairing``).  Eigenvalues d of the block at
    frequency omega give jumps sqrt(d e^{omega/2} / 2) V with V the
    corresponding unit combination of basis elements; the -omega partner
    is written as the exact adjoint, and the omega = 0 block, real
    symmetric in its self-adjoint elements, gives self-adjoint jumps.  An
    eigenvalue d is dropped together with its vector when d e^{omega/2},
    the jump's squared norm, is at most DROP_RTOL times the largest
    |e^{omega_a/2} c_ab| of the reduced matrix, a scale a block and its
    conjugate partner share; the report lists those above the round-off of
    the blocks, the superoperator dimension n^2 times machine epsilon times
    the largest |c_ab|.

    The input must pass GNS certification at ``tol``, the positivity check
    at ``psd_tol`` (both read what the admitted L keeps) and the
    block-structure guard (ValueError otherwise).  The round-trip error is
    ||L - L_extracted||_2 from L's blocks and the extracted spec's
    (:func:`qmsflow.generators._block_distance`), over the certified ||L||.
    """
    l = _admitted(l, sigma)
    cert = certify_detailed_balance(l, sigma, tol)
    if not cert.gns_dbc:
        raise ValueError(
            "generator is not GNS-self-adjoint for sigma "
            f"(residual {cert.s_residuals[1.0]:.3e}); no canonical form"
        )
    cp_ok, min_eig = check_complete_positivity(l, psd_tol)
    if not cp_ok:
        raise ValueError(
            f"generator is not conditionally completely positive "
            f"(reduced coefficient matrix has eigenvalue {min_eig:.3e})"
        )

    gks = l.gks_blocks if modular is None else l.gks_over(modular)
    images = _paired_blocks(gks.blocks, gks.modular)
    herm_res, block_res, pair_res, offblock_res = _jump_gks_residuals(gks, images)
    if max(block_res, pair_res, offblock_res) > 1e-6:
        raise ValueError(
            "coefficient matrix violates the modular block structure: "
            f"block {block_res:.3e}, pairing {pair_res:.3e}, off-block {offblock_res:.3e}"
        )

    jumps, dropped, block_sizes = _canonical_jumps(gks.blocks, gks.modular, images, DROP_RTOL)
    spec = GeneratorSpec(sigma, jumps)
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
        roundtrip_error=_block_distance(l.bohr_blocks[1], spec) / max(cert.l_norm, 1e-300),
    )
    return spec, report
