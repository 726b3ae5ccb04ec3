"""Relative entropy, entropy production, intertwining decay rates, and
the log-Sobolev / Talagrand verification battery.

Entropy production is measured with the unnormalized trace,

    production(rho) = -Tr[ L^+(rho) (log rho - log sigma) ] ,

with L^+(rho) applied from the jumps (no n^2 x n^2 matrix), so that it
equals minus the time derivative of D(rho_t || sigma) along
the dual semigroup, and also the squared transport-metric norm of the
entropy gradient.  When the superoperator commutators satisfy

    [D_j, L] = -a_j D_j

for a family of derivations D_j, the decay constant lambda = min_j a_j
gives exponential entropy decay D(t) <= e^{-2 lambda t} D(0), the
generalized log-Sobolev inequality D <= production/(2 lambda), and the
Talagrand bound d(rho, sigma) <= sqrt(2 D / lambda).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import commutator_super, dag
from .states import DensityState
from .generators import GeneratorSpec, apply_dual, build_generator, dual_orbit

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


def relative_entropy(rho: DensityState, sigma: DensityState) -> float:
    """D(rho || sigma) = Tr[rho (log rho - log sigma)] >= 0."""
    val = np.trace(rho.rho @ (rho.log() - sigma.log())).real
    return float(max(val, 0.0)) if val > -1e-12 else float(val)


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

    def as_dict(self) -> dict:
        return {
            "rates": [float(a) for a in self.rates],
            "intertwine_residuals": [float(r) for r in self.intertwine_residuals],
            "lambda": None if self.lam is None else float(self.lam),
            "derivation_kind": self.derivation_kind,
        }


def intertwining_rates(
    spec: GeneratorSpec,
    derivations=None,
    kind: str | None = None,
    tol: float = INTERTWINE_TOL,
) -> DecayReport:
    """Least-squares rates a_j with [D_j, L] = -a_j D_j, when they exist.

    Defaults to the plain commutator derivations of the spec's jumps.
    A derivation whose commutator with L is not proportional to itself
    (relative residual above ``tol``) voids the decay constant; absence
    of intertwining is a legitimate report, not an error.
    """
    l = build_generator(spec)
    if derivations is None:
        derivations = [commutator_super(v) for v in spec.jump_ops()]
        kind = kind or "plain"
    kind = kind or "custom"
    rates = []
    residuals = []
    for d in derivations:
        d = np.asarray(d, dtype=complex)
        comm = d @ l - l @ d
        norm2 = float(np.linalg.norm(d) ** 2)
        if norm2 < 1e-300:
            rates.append(0.0)
            residuals.append(np.inf)
            continue
        a = -np.vdot(d, comm).real / norm2
        resid = float(np.linalg.norm(comm + a * d) / np.sqrt(norm2))
        rates.append(float(a))
        residuals.append(resid)
    ok = all(r < tol for r in residuals)
    lam = float(min(rates)) if (ok and rates) else None
    return DecayReport(rates, residuals, lam, kind)


def lsi_check(
    spec: GeneratorSpec, rho: DensityState, lam: float, slack: float = 1e-9
) -> tuple[bool, float]:
    """D(rho||sigma) <= production/(2 lambda) + slack; returns (ok, slack)."""
    if lam <= 0:
        raise ValueError("decay constant must be positive")
    d = relative_entropy(rho, spec.sigma)
    prod = entropy_production(spec, rho)
    margin = prod / (2.0 * lam) - d
    return bool(margin >= -slack), float(margin)


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
    the bounds e^{-2 lambda t} D(0) and e^{-2 lambda t} production(0).
    """
    grid = [float(t) for t in time_grid]
    if any(t < 0 for t in grid) or any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("time grid must be ascending and nonnegative")
    d0 = relative_entropy(rho0, spec.sigma)
    p0 = entropy_production(spec, rho0)
    out = []
    for t, rho_t in zip(grid, dual_orbit(spec, rho0.rho, grid)):
        rho_t = 0.5 * (rho_t + dag(rho_t))
        rho_t = DensityState.from_matrix(rho_t / np.trace(rho_t).real)
        d = relative_entropy(rho_t, spec.sigma)
        p = entropy_production(spec, rho_t)
        row = TrajectorySample(
            t=t,
            entropy=d,
            production=p,
            entropy_bound=None if lam is None else float(np.exp(-2 * lam * t) * d0),
            production_bound=None if lam is None else float(np.exp(-2 * lam * t) * p0),
        )
        out.append(row)
    return out


def talagrand_check(
    spec: GeneratorSpec,
    rho: DensityState,
    lam: float,
    segments: int = 32,
    allowance: float = 0.05,
    max_iter: int = 400,
) -> dict:
    """Transport-distance bound d(rho, sigma) <= sqrt(2 D / lambda).

    The left side, reported as ``distance_upper``, is the square root of
    the minimised K-segment midpoint action (see
    :func:`qmsflow.transport.geodesic_distance`).  It bounds only the
    discrete problem from above and approaches the continuum distance from
    below as ``segments`` grows, so a pass is not a certificate; a
    relative allowance absorbs the discretization error.  Returns the
    verdict and the measured quantities; solver non-convergence is
    reported, not asserted, and ``decrement`` is the solver's estimate of
    how far its action is above the discrete minimum.
    """
    from .transport import geodesic_distance

    if lam <= 0:
        raise ValueError("decay constant must be positive")
    d_entropy = relative_entropy(rho, spec.sigma)
    bound = float(np.sqrt(2.0 * d_entropy / lam))
    geo = geodesic_distance(spec, rho, spec.sigma, segments=segments, max_iter=max_iter)
    ok = geo.distance <= bound * (1.0 + allowance) + 1e-12
    return {
        "passed": bool(ok),
        "distance_upper": geo.distance,
        "entropy_bound": bound,
        "tightness": geo.distance / bound if bound > 0 else 0.0,
        "converged": geo.converged,
        "iterations": geo.iterations,
        "decrement": geo.decrement,
    }
