"""Noncommutative differential calculus attached to a jump specification.

Partial derivatives are the commutators d_j(A) = [V_j, A]; the gradient
stacks them, the divergence is minus the sum of their Hilbert-Schmidt
adjoints, and div o grad is the tracial-detailed-balance Laplacian

    L0(A) = - sum_j [V_j^*, [V_j, A]] .

The tilted multiplication operator attached to a state rho and a
frequency omega acts in the eigenbasis of rho entrywise through the
logarithmic mean of tilted eigenvalues,

    ([rho]_omega A)~_{ik} = LM(e^{omega/2} lam_i, e^{-omega/2} lam_k) A~_{ik},

where LM(x, y) = (x - y)/(log x - log y) with LM(x, x) = x.  It satisfies
the chain-rule identity

    [rho]_omega( V log(e^{-omega/2} rho) - log(e^{omega/2} rho) V )
        = e^{-omega/2} V rho - e^{omega/2} rho V ,

which is what makes the Lindblad flow a gradient flow of relative
entropy.  All variational pairings in this and the dependent modules use
the unnormalized trace.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import dag
from .states import DensityState
from .generators import GeneratorSpec

__all__ = [
    "partial_deriv",
    "grad",
    "divergence",
    "log_mean",
    "log_mean_dx",
    "kernel_tilts",
    "kernel_divided_differences",
    "kernel_second_divided_differences",
    "tilted_kernel",
    "rho_mult",
    "rho_div",
]


def partial_deriv(spec: GeneratorSpec, j: int, a: np.ndarray) -> np.ndarray:
    """d_j(A) = [V_j, A]."""
    if not 0 <= j < spec.njumps:
        raise IndexError(f"jump index {j} out of range")
    v = spec.jumps[j][0]
    return v @ a - a @ v


def grad(spec: GeneratorSpec, a: np.ndarray) -> list:
    """Gradient (d_1 A, ..., d_J A) as a list of matrices."""
    return [partial_deriv(spec, j, a) for j in range(spec.njumps)]


def divergence(spec: GeneratorSpec, w) -> np.ndarray:
    """div W = - sum_j [V_j^*, W_j] = sum_j [W_j, V_j^*].

    Adjoint to the gradient in the unnormalized trace pairing:
    <A, div W>_HS = -<grad A, W>.
    """
    if len(w) != spec.njumps:
        raise ValueError(f"field has {len(w)} components, expected {spec.njumps}")
    out = np.zeros_like(spec.sigma.rho)
    for (v, _), wj in zip(spec.jumps, w):
        vd = dag(v)
        out = out + (wj @ vd - vd @ wj)
    return out


def log_mean(x, y):
    """Logarithmic mean LM(x, y) = (x - y)/(log x - log y), LM(x, x) = x.

    The denominator is log1p(g) with g = (hi - lo)/lo the relative gap,
    which keeps full precision where log hi - log lo would cancel (and is
    log hi - log lo only where g overflows).  When |x - y| <= 1e-9 max(x, y)
    the series LM = m (1 - d^2/12 + ...), m = (x+y)/2, d = (x-y)/m, equals
    m to double precision, so m is returned.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    diff = hi - lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratio = np.log1p(diff / lo)
        if np.isinf(log_ratio).any():
            log_ratio = np.where(np.isinf(log_ratio), np.log(hi) - np.log(lo), log_ratio)
        exact = diff / log_ratio
    return np.where(diff <= 1e-9 * hi, 0.5 * (x + y), exact)


def log_mean_dx(x, y):
    """Partial derivative of LM(x, y) in x: (L - t)/L^2, L = log(x/y), t = 1 - y/x.

    The closed form cancels near coincidence, so the series
    (1 - 2u/3 + u^2/3 - 16u^3/45 + 4u^4/15)/2 with u = (x-y)/(x+y) is used
    when |x - y| <= 1e-2 max(x, y); both branches are accurate to ~1e-12
    relative at the switch.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    close = np.abs(x - y) <= 1e-2 * np.maximum(x, y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lg = np.log(x / y)
        out = np.asarray((lg - (x - y) / x) / (lg * lg))
    if close.any():
        # the series only where it is used
        x, y = x[close], y[close]
        s = x + y
        u = np.where(s > 0, (x - y) / np.where(s > 0, s, 1.0), 0.0)
        out[close] = 0.5 + u * (-1.0 / 3.0 + u * (1.0 / 6.0 + u * (-8.0 / 45.0 + u * (2.0 / 15.0))))
    return out


def _log_mean_curvature(x, y):
    """(m/2) (artanh s - s)/artanh(s)^3 with m = (x+y)/2, s = (x-y)/(x+y).

    Both second partials of LM are this factor over a product of x and y.
    When |x - y| <= 0.1 max(x, y) the ratio is the series P(s^2)/Q(s^2)^3
    of artanh s - s = s^3 P and artanh s = s Q, truncated where the next
    term is below 1e-18 relative; otherwise it is the closed form with
    L = log(x/y) = 2 artanh s (log x - log y where x/y leaves float range),
    whose cancellation leaves ~5e-13 relative error just above the switch.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    close = np.abs(x - y) <= 0.1 * np.maximum(x, y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        lg = np.log(x / y)
        if not np.isfinite(lg[~close]).all():
            lg = np.where(np.isfinite(lg), lg, np.log(x) - np.log(y))
        out = np.asarray(((x + y) * lg - 2.0 * (x - y)) / (lg * lg * lg))
        if close.any():
            # the series only where it is used
            x, y = x[close], y[close]
            m = 0.5 * (x + y)
            r = ((x - y) / (x + y)) ** 2
            p = 1 / 3 + r * (1 / 5 + r * (1 / 7 + r * (1 / 9 + r * (1 / 11 + r * (1 / 13 + r / 15)))))
            q = 1 + r * (1 / 3 + r * (1 / 5 + r * (1 / 7 + r * (1 / 9 + r * (1 / 11 + r / 13)))))
            out[close] = 0.5 * m * p / q**3
    return out


def kernel_tilts(omegas) -> np.ndarray:
    """The tilts e^{omega_j/2} and e^{-omega_j/2} of the kernels
    LM(e^{omega_j/2} s, e^{-omega_j/2} r), stacked as (2, J)."""
    half = 0.5 * np.asarray(omegas, dtype=float)
    return np.exp(np.stack([half, -half]))


def kernel_divided_differences(lam, tilts, ker):
    """First divided differences of the kernels phi_j(s, r) =
    LM(e^{omega_j/2} s, e^{-omega_j/2} r) of [rho]_{omega_j} over the
    eigenvalues ``lam`` (B, n) of a batch of states, given the kernels
    ``ker`` (B, J, n, n) and the tilts of :func:`kernel_tilts`.  Returns
    two (B, J, i, l, k) arrays,

        left  = (phi(lam_i, lam_k) - phi(lam_l, lam_k))/(lam_i - lam_l),
        right = (phi(lam_i, lam_l) - phi(lam_i, lam_k))/(lam_l - lam_k),

    the first-order Daleckii-Krein data of rho |-> [rho]_omega.

    Both are one quotient over the stacked nodes (tilt lam): ``right`` is
    the quotient of the transposed kernel, read back as a view.  Within a
    relative gap of 1e-5 the quotient cancels, and the derivative at the
    nodes' midpoint (error ~gap^2) replaces it; ``log_mean_dx`` is taken
    only at those confluent entries.
    """
    nodes = tilts[:, None, :, None] * lam[None, :, None, :]
    kers = np.stack([ker, np.swapaxes(ker, -1, -2)])
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (kers[..., :, None, :] - kers[..., None, :, :]) / (
            nodes[..., :, None] - nodes[..., None, :]
        )[..., None]
    close = np.abs(nodes[..., :, None] - nodes[..., None, :]) <= 1e-5 * np.maximum(
        nodes[..., :, None], nodes[..., None, :]
    )
    w, b, j, a, c = np.nonzero(close)
    n = lam.shape[1]
    out[w, b, j, a, c] = log_mean_dx(
        np.repeat(0.5 * (nodes[w, b, j, a] + nodes[w, b, j, c]), n), nodes[1 - w, b, j].ravel()
    ).reshape(-1, n)
    out *= tilts[:, None, :, None, None, None]
    return out[0], out[1].transpose(0, 1, 4, 2, 3)


# relative eigenvalue gap below which a second divided difference is its
# confluent limit at the mean of its nodes (error ~gap^2) instead of a
# quotient of first ones (error ~1e-11/gap): either is within about 1e-7
# relative at the switch
CONFLUENT_GAP = 1e-3


@lru_cache(maxsize=None)
def _sorted_triples(n: int):
    """For every index triple (a, b, c) < n, the same indices sorted."""
    return np.sort(np.stack(np.meshgrid(*(np.arange(n),) * 3, indexing="ij")), axis=0)


def kernel_second_divided_differences(lam, tilts, left, right):
    """Second divided differences of the kernels of
    :func:`kernel_divided_differences`, from its output, as three
    (B, J, i, l, p, k) arrays:

        phi[lam_i, lam_l, lam_p; lam_k]    (both in s),
        phi[lam_i, lam_l; lam_p, lam_k]    (mixed),
        phi[lam_i; lam_l, lam_p, lam_k]    (both in r).

    The first and the last are one quotient of the stacked first
    differences in s and (transposed) in r.  Eigenvalues come sorted, so
    sorting a triple by index puts its widest gap at the ends, and the
    quotient divides by it; within CONFLUENT_GAP it is the confluent limit
    (tilt^2/2) LM_xx at the triple's mean.  The mixed one is a quotient
    across (i, l) where (p, k) is confluent and across (p, k) elsewhere,
    and LM_xy at the pairs' means when both are confluent.  Every
    confluent value comes from one :func:`_log_mean_curvature` call.
    """
    nb, n = lam.shape
    # the first differences over the pairs (mid, hi) and (lo, mid), taken
    # along one flattened pair axis
    first = np.stack([left, right.transpose(0, 1, 3, 4, 2)]).reshape(2, nb, -1, n * n, n)
    lo, mid, hi = _sorted_triples(n)
    spread = lam[:, hi] - lam[:, lo]
    gaps = lam[:, :, None] - lam[:, None, :]
    # formed in place: at most two arrays of the stack's size are alive
    both = first.take((mid * n + hi).ravel(), axis=3)
    both -= first.take((lo * n + mid).ravel(), axis=3)
    both = both.reshape(2, nb, -1, n, n, n, n)
    mixed = left[..., :, None] - left[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        both /= spread[:, None, ..., None]
        mixed /= gaps[:, None, None, None]
    close = spread <= CONFLUENT_GAP * lam[:, hi]
    near = np.abs(gaps) <= CONFLUENT_GAP * np.maximum(lam[:, :, None], lam[:, None, :])
    b, p, k = np.nonzero(near)
    with np.errstate(divide="ignore", invalid="ignore"):
        mixed[b, :, :, :, p, k] = (
            right[b, :, :, None, p, k] - right[b, :, None, :, p, k]
        ) / gaps[b][:, None]
    # confluent triples, the tilted mean against the tilted fourth node as
    # (c, 2, J, n), and confluent pairs of pairs as (q, J): their
    # curvatures in one call
    tb, ta, tm, tc = np.nonzero(close)
    mean = (lam[tb, lo[ta, tm, tc]] + lam[tb, mid[ta, tm, tc]] + lam[tb, hi[ta, tm, tc]]) / 3.0
    x = (tilts[None, :, :, None] * mean[:, None, None, None]).repeat(n, axis=-1)
    y = tilts[None, ::-1, :, None] * lam[tb][:, None, None, :]
    mb, i, l, mp, mk = np.nonzero(near[:, :, :, None, None] & near[:, None, None, :, :])
    # the tilts' product is 1, up to round-off
    xm = tilts[0] * 0.5 * (lam[mb, i] + lam[mb, l])[:, None]
    ym = tilts[1] * 0.5 * (lam[mb, mp] + lam[mb, mk])[:, None]
    curvature = _log_mean_curvature(np.concatenate([x.ravel(), xm.ravel()]),
                                    np.concatenate([y.ravel(), ym.ravel()]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        triples = -curvature[:y.size].reshape(y.shape) / (x * x)
        both[:, tb, :, ta, tm, tc] = 0.5 * tilts[None, :, :, None] ** 2 * triples
        mixed[mb, :, i, l, mp, mk] = curvature[y.size:].reshape(xm.shape) / (xm * ym)
    return both[0], mixed, both[1].transpose(0, 1, 5, 2, 3, 4)


def tilted_kernel(rho: DensityState, omega: float) -> np.ndarray:
    """Entrywise kernel of [rho]_omega in the eigenbasis of rho."""
    lam = rho.eigenvalues
    return log_mean(
        np.exp(omega / 2.0) * lam[:, None], np.exp(-omega / 2.0) * lam[None, :]
    )


def rho_mult(rho: DensityState, omega: float, a: np.ndarray) -> np.ndarray:
    """Tilted noncommutative multiplication [rho]_omega(A).

    ``a`` may be a stack (..., n, n): the map acts on the last two axes.
    """
    u = rho.eigenvectors
    a_tilde = dag(u) @ np.asarray(a, dtype=complex) @ u
    return u @ (tilted_kernel(rho, omega) * a_tilde) @ dag(u)


def rho_div(rho: DensityState, omega: float, a: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rho_mult`, entrywise 1/kernel in the eigenbasis;
    stacks as in :func:`rho_mult`."""
    u = rho.eigenvectors
    a_tilde = dag(u) @ np.asarray(a, dtype=complex) @ u
    return u @ (a_tilde / tilted_kernel(rho, omega)) @ dag(u)

