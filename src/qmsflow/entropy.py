"""Relative entropy, entropy production, intertwining decay rates, and
the log-Sobolev / Talagrand verification battery.

Entropy production is measured with the unnormalized trace,

    production(rho) = -Tr[ L^+(rho) (log rho - log sigma) ] ,

with L^+(rho) applied from the jumps (no n^2 x n^2 matrix), so that it
equals minus the time derivative of D(rho_t || sigma) along
the dual semigroup, and also the squared transport-metric norm of the
entropy gradient.  Along a trajectory (:func:`entropy_trajectory`)
L^+(rho_t) is read instead from the Bohr-block factor that gives rho_t,
as the time derivative of the computed orbit.  When the commutators
satisfy

    [D_j, L] = -a_j D_j

for a family of derivations D_j(A) = W_j [V_j, A] (read by
:func:`intertwining_rates` from the jumps and the factors), the decay
constant lambda = min_j a_j gives exponential entropy decay
D(t) <= e^{-2 lambda t} D(0), the
generalized log-Sobolev inequality D <= production/(2 lambda), and the
Talagrand bound d(rho, sigma) <= sqrt(2 D / lambda).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_finite
from .states import DensityState, _checked_spectra
from .generators import GeneratorSpec, _flow, _flow_factor, apply_dual

__all__ = [
    "relative_entropy",
    "entropy_production",
    "DecayReport",
    "intertwining_rates",
    "lsi_check",
    "TrajectorySample",
    "entropy_trajectory",
    "talagrand_check",
]

INTERTWINE_TOL = 1e-9
# Times per pass of :func:`entropy_trajectory`: the stacks it holds grow
# with this, not with the length of the grid.
TRAJECTORY_CHUNK = 64


def _clipped(val: float) -> float:
    """A relative entropy, with round-off below zero (down to -1e-12) set to 0."""
    return float(max(val, 0.0)) if val > -1e-12 else float(val)


def relative_entropy(rho: DensityState, sigma: DensityState) -> float:
    """D(rho || sigma) = Tr[rho (log rho - log sigma)] >= 0."""
    return _clipped(np.trace(rho.rho @ (rho.log() - sigma.log())).real)


def entropy_production(spec: GeneratorSpec, rho: DensityState) -> float:
    """-Tr[L^+(rho)(log rho - log sigma)], nonnegative under detailed balance."""
    rho_dot = apply_dual(spec, rho.rho)
    val = -np.trace(rho_dot @ (rho.log() - spec.sigma.log())).real
    return float(val)


@dataclass
class DecayReport:
    """Per-derivation intertwining rates and the resulting decay constant."""

    rates: list
    intertwine_residuals: list
    lam: float | None
    derivation_kind: str


def intertwining_rates(
    spec: GeneratorSpec,
    derivations=None,
    kind: str | None = None,
) -> DecayReport:
    """Least-squares rates a_j with [D_j, L] = -a_j D_j, when they exist.

    Each derivation is a pair (W, V) of n x n matrices, D(A) = W[V, A];
    the default is the plain commutators (I, V_j) of the spec's jumps.  A
    residual ||[D, L] + a D||_F / (||D||_F ||K||_F) above ``INTERTWINE_TOL``
    voids the decay constant; K = sum_j c_j V_j^* V_j goes with the units
    of L, as in :func:`qmsflow.generators.restrict_to_commutative`, so the
    residual and the verdict do not change when L is rescaled.  Absence of
    intertwining is a legitimate report, not an error.

    With L_A R_B the map X -> A X B, P = W V, A_k = 2 c_k V_k^* and K as in
    :mod:`qmsflow.generators`, D = L_P - L_W R_V and

        [D, L] = sum_k (L_{[P,A_k]} R_{V_k} - L_{W A_k} R_{V_k V} + L_{A_k W} R_{V V_k})
                 - L_{[P,K]} + L_{[W,K]} R_V + L_W R_{[K,V]} .

    Realigned, sum_i L_{X_i} R_{Y_i} is X^T Y with rows vec X_i and vec Y_i,
    so inner products are Gram products of the factors, and its Frobenius
    norm is ||R Y||_F with X^T = QR: exact, with no difference of squares.
    """
    n, eye = spec.dim, np.eye(spec.dim)
    c, vs, k = spec.jump_stack
    if derivations is None:
        derivations, kind = [(eye, v) for v in vs], kind or "plain"
    a_k = 2.0 * c[:, None, None] * np.conj(vs).transpose(0, 2, 1)
    rates, residuals, unit = [], [], max(float(np.linalg.norm(k)), 1e-300)
    for i, d in enumerate(derivations):
        got = d.shape if isinstance(d, np.ndarray) else tuple(np.shape(x) for x in d)
        if got not in ((2, n, n), ((n, n), (n, n))):
            raise ValueError(f"derivation {i} has shape {got}; a derivation is a (W, V) pair "
                             f"of {n} x {n} matrices with D(A) = W[V, A]")
        w, v = (check_finite(x, f"derivation {i}") for x in d)
        p = w @ v
        # the factors of D, then of [D, L]
        left = np.concatenate([[p, -w], p @ a_k - a_k @ p, -(w @ a_k), a_k @ w, [k @ p - p @ k, w @ k - k @ w, w]])
        right = np.concatenate([[eye, v], vs, vs @ v, v @ vs, [eye, v, k @ v - v @ k]])
        left, right = left.reshape(len(left), -1), right.reshape(len(right), -1)
        gram = (np.conj(left[:2]) @ left.T) * (np.conj(right[:2]) @ right.T)
        norm2 = float(gram[:, :2].sum().real)
        if norm2 < 1e-300:
            rates.append(0.0)
            residuals.append(np.inf)
            continue
        a = -gram[:, 2:].sum().real / norm2
        left[:2] *= a  # [D, L] + a D
        r = np.linalg.qr(left.T, mode="r")
        rates.append(float(a))
        residuals.append(float(np.linalg.norm(r @ right) / (np.sqrt(norm2) * unit)))
    ok = all(r < INTERTWINE_TOL for r in residuals)
    lam = float(min(rates)) if (ok and rates) else None
    return DecayReport(rates, residuals, lam, kind or "custom")


def lsi_check(spec: GeneratorSpec, rho: DensityState, lam: float) -> tuple[bool, float]:
    """D(rho||sigma) <= production/(2 lambda) + 1e-9; returns (ok, margin),
    the margin being production/(2 lambda) - D."""
    if lam <= 0:
        raise ValueError("decay constant must be positive")
    d = relative_entropy(rho, spec.sigma)
    prod = entropy_production(spec, rho)
    margin = prod / (2.0 * lam) - d
    return bool(margin >= -1e-9), float(margin)


@dataclass
class TrajectorySample:
    t: float
    entropy: float
    production: float
    entropy_bound: float | None
    production_bound: float | None


def entropy_trajectory(
    spec: GeneratorSpec,
    rho0: DensityState,
    time_grid,
    lam: float | None = None,
) -> list:
    """Entropy and production along the dual flow, with decay bounds.

    Rows carry D(t), production(t) and, when a decay constant is given,
    the bounds e^{-2 lambda t} D(0) and e^{-2 lambda t} production(0), with
    D(0) and production(0) those of ``rho0`` itself.

    The grid is taken in chunks of ``TRAJECTORY_CHUNK`` times, each one
    stacked pass: the orbit rho_t and its time derivative L^+(rho_t) come
    from one Bohr-block factor of L (:func:`qmsflow.generators._flow`), the
    derivative as w Q (mu e^{t mu}) Q^* (tilde rho_0 / w) on each block, so
    the production is exactly -dD/dt of the trajectory the rows carry.
    Both are made Hermitian and divided by Tr rho_t; the states then pass
    the checks of :meth:`DensityState.from_matrix` (the same ValueError)
    with one batched ``eigh``, log rho_t is U log(Lambda) U^*, and D and the
    production are traces against log rho_t - log sigma.
    """
    grid = [float(t) for t in time_grid]
    if any(t < 0 for t in grid) or any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("time grid must be ascending and nonnegative")
    d0 = relative_entropy(rho0, spec.sigma)
    p0 = entropy_production(spec, rho0)
    factor = _flow_factor(spec, rho0.rho)
    log_sigma = spec.sigma.log()
    out = []
    for start in range(0, len(grid), TRAJECTORY_CHUNK):
        times = np.array(grid[start : start + TRAJECTORY_CHUNK])
        orbit, rate = _flow(factor, times), _flow(factor, times, rate=True)
        trace = np.trace(orbit, axis1=1, axis2=2).real[:, None, None]
        orbit = (orbit + np.conj(orbit).transpose(0, 2, 1)) / (2.0 * trace)
        rate = (rate + np.conj(rate).transpose(0, 2, 1)) / (2.0 * trace)
        rho, vals, vecs = _checked_spectra(orbit)
        gap = (vecs * np.log(vals)[:, None, :]) @ np.conj(vecs).transpose(0, 2, 1) - log_sigma
        entropies = np.einsum("tij,tji->t", rho, gap).real
        productions = -np.einsum("tij,tji->t", rate, gap).real
        for t, d, p in zip(times.tolist(), entropies.tolist(), productions.tolist()):
            out.append(
                TrajectorySample(
                    t=t,
                    entropy=_clipped(d),
                    production=p,
                    entropy_bound=None if lam is None else float(np.exp(-2 * lam * t) * d0),
                    production_bound=None if lam is None else float(np.exp(-2 * lam * t) * p0),
                )
            )
    return out


def talagrand_check(
    spec: GeneratorSpec,
    rho: DensityState,
    lam: float,
    segments: int = 32,
) -> dict:
    """Transport-distance bound d(rho, sigma) <= sqrt(2 D / lambda).

    The left side, reported as ``distance_estimate``, is the square root
    of the minimised K-segment midpoint action (see
    :func:`qmsflow.transport.geodesic_distance`): an estimate of the
    distance, not a bound on it.  It bounds only the discrete problem from
    above and approaches the continuum distance from below as ``segments``
    grows, so a pass is not a certificate; a 5% relative allowance absorbs
    the discretization error.  Returns the verdict and the measured
    quantities; solver non-convergence is reported, not asserted, and
    ``decrement`` is the solver's estimate of how far its action is above
    the discrete minimum.
    """
    from .transport import geodesic_distance

    if lam <= 0:
        raise ValueError("decay constant must be positive")
    d_entropy = relative_entropy(rho, spec.sigma)
    bound = float(np.sqrt(2.0 * d_entropy / lam))
    geo = geodesic_distance(spec, rho, spec.sigma, segments=segments)
    ok = geo.distance <= bound * 1.05 + 1e-12
    return {
        "passed": bool(ok),
        "distance_estimate": geo.distance,
        "entropy_bound": bound,
        "tightness": geo.distance / bound if bound > 0 else 0.0,
        "converged": geo.converged,
        "iterations": geo.iterations,
        "decrement": geo.decrement,
    }
