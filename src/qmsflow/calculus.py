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

import numpy as np

from .linalg import commutator_super, dag, sharp
from .states import DensityState, inner_s
from .generators import GeneratorSpec

__all__ = [
    "partial_deriv",
    "grad",
    "divergence",
    "laplacian",
    "dirichlet_form",
    "log_mean",
    "log_mean_dx",
    "tilted_kernel",
    "rho_mult",
    "rho_div",
    "rho_mult_super",
    "chain_rule_residual",
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


def laplacian(spec: GeneratorSpec) -> np.ndarray:
    """Superoperator of L0 = div o grad = - sum_j [V_j^*, [V_j, .]]."""
    big = spec.dim ** 2
    out = np.zeros((big, big), dtype=complex)
    for v, _ in spec.jumps:
        cj = commutator_super(v)
        cjd = commutator_super(dag(v))
        out -= cjd @ cj
    return out


def dirichlet_form(spec: GeneratorSpec, s: float, b: np.ndarray, a: np.ndarray) -> complex:
    """E_s(B, A) = sum_j e^{(1/2 - s) omega_j} <d_j B, d_j A>_s.

    Equals -<B, L A>_s for the generator built from the same jumps.
    """
    total = 0.0 + 0.0j
    for j, (_, w) in enumerate(spec.jumps):
        db = partial_deriv(spec, j, b)
        da = partial_deriv(spec, j, a)
        total += np.exp((0.5 - s) * w) * inner_s(spec.sigma, s, db, da)
    return complex(total)


def log_mean(x, y):
    """Logarithmic mean LM(x, y) = (x - y)/(log x - log y), LM(x, x) = x.

    Near coincidence the closed form cancels catastrophically, so the
    series LM = m (1 - d^2/12 + ...) with m = (x+y)/2, d = (x-y)/m is used
    when |x - y| <= 1e-9 max(x, y).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    close = np.abs(x - y) <= 1e-9 * np.maximum(x, y)
    m = 0.5 * (x + y)
    d = np.where(m > 0, (x - y) / np.where(m > 0, m, 1.0), 0.0)
    series = m * (1.0 - d * d / 12.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = (x - y) / (np.log(x) - np.log(y))
    return np.where(close, series, exact)


def log_mean_dx(x, y):
    """Partial derivative of LM(x, y) in x: (L - t)/L^2, L = log(x/y), t = 1 - y/x.

    The closed form cancels near coincidence, so the series
    (1 - 2u/3 + u^2/3 - 16u^3/45 + 4u^4/15)/2 with u = (x-y)/(x+y) is used
    when |x - y| <= 1e-2 max(x, y); both branches are accurate to ~1e-12
    relative at the switch.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    close = np.abs(x - y) <= 1e-2 * np.maximum(x, y)
    s = x + y
    u = np.where(s > 0, (x - y) / np.where(s > 0, s, 1.0), 0.0)
    series = 0.5 + u * (-1.0 / 3.0 + u * (1.0 / 6.0 + u * (-8.0 / 45.0 + u * (2.0 / 15.0))))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lg = np.log(x / y)
        exact = (lg - (x - y) / x) / (lg * lg)
    return np.where(close, series, exact)


def tilted_kernel(rho: DensityState, omega: float) -> np.ndarray:
    """Entrywise kernel of [rho]_omega in the eigenbasis of rho."""
    lam = rho.eigenvalues
    return log_mean(
        np.exp(omega / 2.0) * lam[:, None], np.exp(-omega / 2.0) * lam[None, :]
    )


def rho_mult(rho: DensityState, omega: float, a: np.ndarray) -> np.ndarray:
    """Tilted noncommutative multiplication [rho]_omega(A)."""
    u = rho.eigenvectors
    a_tilde = dag(u) @ np.asarray(a, dtype=complex) @ u
    return u @ (tilted_kernel(rho, omega) * a_tilde) @ dag(u)


def rho_div(rho: DensityState, omega: float, a: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rho_mult`, entrywise 1/kernel in the eigenbasis."""
    u = rho.eigenvectors
    a_tilde = dag(u) @ np.asarray(a, dtype=complex) @ u
    return u @ (a_tilde / tilted_kernel(rho, omega)) @ dag(u)


def rho_mult_super(rho: DensityState, omega: float, inverse: bool = False) -> np.ndarray:
    """Superoperator matrix of [rho]_omega (or its inverse)."""
    u = rho.eigenvectors
    kern = tilted_kernel(rho, omega)
    if inverse:
        kern = 1.0 / kern
    w = sharp(dag(u), u)  # X |-> U^* X U
    return dag(w) @ (kern.reshape(-1, order="F")[:, None] * w)


def chain_rule_residual(rho: DensityState, v: np.ndarray, omega: float) -> float:
    """Relative residual of the chain-rule identity for (rho, V, omega)."""
    logrho = rho.log()
    em = np.exp(-omega / 2.0)
    ep = np.exp(+omega / 2.0)
    arg = v @ (logrho - (omega / 2.0) * np.eye(rho.dim)) - (
        logrho + (omega / 2.0) * np.eye(rho.dim)
    ) @ v
    lhs = rho_mult(rho, omega, arg)
    rhs = em * (v @ rho.rho) - ep * (rho.rho @ v)
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300))
