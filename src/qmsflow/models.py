"""Concrete model constructions: Clifford algebras, Fermi
Ornstein-Uhlenbeck semigroups at zero and finite temperature, hypercube
restrictions, a depolarizing baseline, the KMS-only counterexample, and
random sampling helpers used by the verification suites.

The Clifford generators are represented Jordan-Wigner style on qubits,

    Q_{2j-1} = Z^{(j-1)} (x) X (x) 1...,   Q_{2j} = Z^{(j-1)} (x) Y (x) 1...,

so the anticommutation relations hold exactly with entries in {0,+-1,+-i}.
For an even number 2m of generators the principal automorphism G(A) = WAW
is inner with W = i^m Q_1 ... Q_{2m} self-adjoint unitary.

The finite-temperature model on m modes uses generators {Q_j, P_j},
annihilation-type operators Z_j = (Q_j + i P_j)/sqrt(2), number
projections N_j = Z_j^* Z_j / 2, Hamiltonian h = sum e_j N_j and Gibbs
state proportional to e^{-beta h}.  Its jumps are V_j = W Z_j (frequency
-beta e_j) and V_j^* (frequency +beta e_j), scaled by 1/2 so the
generator matches

    L_beta A = (1/4) sum_j [ e^{+beta e_j/2} ( V_j^* [A, V_j] + [V_j^*, A] V_j )
                           + e^{-beta e_j/2} ( V_j [A, V_j^*] + [V_j, A] V_j^* ) ] ,

whose eigenvectors are the Krawtchouk-type products K_a with eigenvalues
-(sum_j |a_j| cosh(beta e_j / 2)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import dag, sharp, traceless_hermitian_basis
from .states import DensityState
from .generators import GeneratorSpec, RateMatrix, restrict_to_commutative

__all__ = [
    "CliffordContext",
    "clifford",
    "fermi_ou_infinite",
    "skew_derivations_infinite",
    "FermiModel",
    "fermi_ou",
    "hypercube_projections",
    "hypercube_restriction",
    "printed_hypercube_rates",
    "depolarizing",
    "kms_counterexample",
    "random_density",
    "random_dbc_spec",
    "traceless_hermitian_basis",
]

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _pauli_string(ops: list) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for o in ops:
        out = sharp(o, out.T)  # kron(out, o)
    return out


@dataclass(frozen=True)
class CliffordContext:
    """Anticommuting self-adjoint unitary generators on qubits."""

    n: int
    generators: list = field(repr=False)
    principal_unitary: np.ndarray | None  # W, even n only: Gamma(A) = W A W

    @property
    def dim(self) -> int:
        return self.generators[0].shape[0]


def clifford(n: int) -> CliffordContext:
    """Jordan-Wigner representation of n anticommuting generators."""
    if not 1 <= n <= 10:
        raise ValueError("generator count must be between 1 and 10")
    nq = (n + 1) // 2
    gens = []
    for j in range(1, n + 1):
        k = (j + 1) // 2  # qubit carrying this generator, 1-based
        ops = [_PAULI_Z] * (k - 1)
        ops.append(_PAULI_X if j % 2 == 1 else _PAULI_Y)
        ops.extend([np.eye(2, dtype=complex)] * (nq - k))
        gens.append(_pauli_string(ops))

    w = None
    if n % 2 == 0:
        m = n // 2
        w = (1j) ** m * np.eye(2**nq, dtype=complex)
        for g in gens:
            w = w @ g
    return CliffordContext(n, gens, w)


def fermi_ou_infinite(n: int) -> GeneratorSpec:
    """Number-operator semigroup on an even Clifford algebra.

    Jumps are V_j = i W Q_j (self-adjoint unitaries) scaled by 1/2, all at
    frequency zero, so the generator is -(1/4) sum_j [V_j, [V_j, .]] and
    the monomials Q^alpha are eigenvectors with eigenvalue -|alpha|.
    """
    if n % 2 != 0:
        raise ValueError("odd generator counts must be embedded; use an even count")
    ctx = clifford(n)
    w = ctx.principal_unitary
    dim = ctx.dim
    sigma = DensityState.from_matrix(np.eye(dim) / dim)
    jumps = [(0.5j * w @ q, 0.0) for q in ctx.generators]
    return GeneratorSpec(sigma, jumps)


def skew_derivations_infinite(ctx: CliffordContext) -> list:
    """Degree-lowering skew derivations d_j A = (Q_j A - G(A) Q_j)/2.

    For an even generator count these equal W [V_j, A] / (2i) with
    V_j = i W Q_j, which ties the skew calculus to the plain commutator
    calculus of the jump operators; each is returned as the pair
    (W / (2i), V_j) of :func:`qmsflow.entropy.intertwining_rates`.
    """
    if ctx.principal_unitary is None:
        raise ValueError("skew derivations need the inner automorphism (even count)")
    w = ctx.principal_unitary
    return [(w / 2j, 1j * w @ q) for q in ctx.generators]


@dataclass(frozen=True)
class FermiModel:
    """Finite-temperature Fermi Ornstein-Uhlenbeck data."""

    m: int
    beta: float
    energies: np.ndarray
    context: CliffordContext
    spec: GeneratorSpec
    annihilators: list = field(repr=False)  # Z_j
    number_ops: list = field(repr=False)  # N_j
    number_perp: list = field(repr=False)  # N_j^perp

    @property
    def dim(self) -> int:
        return self.spec.dim

    def krawtchouk(self, alpha) -> np.ndarray:
        """K_alpha = prod_j K_{j, alpha_j} for alpha_j in {00, 10, 01, 11}."""
        out = np.eye(self.dim, dtype=complex)
        for j, a in enumerate(alpha):
            out = out @ self._k_factor(j, a)
        return out

    def _k_factor(self, j: int, a) -> np.ndarray:
        k, l = a
        be = self.beta * self.energies[j]
        if (k, l) == (0, 0):
            return np.eye(self.dim, dtype=complex)
        if (k, l) == (1, 0):
            return self.annihilators[j]
        if (k, l) == (0, 1):
            return dag(self.annihilators[j])
        if (k, l) == (1, 1):
            return np.exp(be / 2) * self.number_ops[j] - np.exp(-be / 2) * self.number_perp[j]
        raise ValueError(f"bad Krawtchouk index {a}")

    def krawtchouk_eigenvalue(self, alpha) -> float:
        return -sum(
            (a[0] + a[1]) * np.cosh(self.beta * self.energies[j] / 2.0)
            for j, a in enumerate(alpha)
        )

    def skew_derivations(self) -> list:
        """The degree-lowering skew derivations as (W, V) pairs, D(A) = W[V, A].

        For each mode both variants are returned, ordered to match the
        spec's jump list:  d_j A = W [V_j, A] / 2 at position 2j and
        D_j A = -W [V_j^*, A] / 2 at position 2j + 1, with V_j = W Z_j.
        """
        w = self.context.principal_unitary
        return [pair for z in self.annihilators for pair in ((0.5 * w, w @ z), (-0.5 * w, dag(w @ z)))]

    def decay_rate(self) -> float:
        """lambda_beta = min_j cosh(beta e_j / 2)."""
        return float(np.min(np.cosh(self.beta * self.energies / 2.0)))


def fermi_ou(m: int, beta: float, energies) -> FermiModel:
    """Finite-temperature Fermi Ornstein-Uhlenbeck model on m modes."""
    if not 1 <= m <= 4:
        raise ValueError("mode count must be between 1 and 4")
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError(f"inverse temperature must be finite and nonnegative, got {beta!r}")
    energies = np.asarray(energies, dtype=float)
    if energies.shape != (m,) or not np.all(np.isfinite(energies)):
        raise ValueError(f"expected {m} finite energies")

    ctx = clifford(2 * m)
    q_ops = [ctx.generators[2 * j] for j in range(m)]
    p_ops = [ctx.generators[2 * j + 1] for j in range(m)]
    z_ops = [(q + 1j * p) / np.sqrt(2.0) for q, p in zip(q_ops, p_ops)]
    n_ops = [0.5 * dag(z) @ z for z in z_ops]
    n_perp = [0.5 * z @ dag(z) for z in z_ops]

    # Each N_j is diagonal here, so h is too: its diagonal is its spectrum
    # and e^{-beta h} the exponential of that diagonal.
    h = sum(e * nj for e, nj in zip(energies, n_ops))
    gibbs = np.exp(-beta * np.diag(h))
    sigma = DensityState.from_matrix(np.diag(gibbs / np.sum(gibbs).real))

    w = ctx.principal_unitary
    jumps = []
    for j in range(m):
        v = w @ z_ops[j]
        jumps.append((0.5 * v, -float(beta * energies[j])))
        jumps.append((0.5 * dag(v), +float(beta * energies[j])))
    spec = GeneratorSpec(sigma, jumps)
    return FermiModel(m, float(beta), energies, ctx, spec, z_ops, n_ops, n_perp)


def hypercube_projections(model: FermiModel) -> list:
    """Minimal projections E_x = prod_j N_j^{x_j} (N_j^perp)^{1-x_j}."""
    dim = model.dim
    out = []
    for bits in range(2**model.m):
        e = np.eye(dim, dtype=complex)
        for j in range(model.m):
            e = e @ (model.number_ops[j] if (bits >> j) & 1 else model.number_perp[j])
        out.append(e)
    return out


def hypercube_restriction(model: FermiModel) -> RateMatrix:
    """Classical nearest-neighbor walk obtained by restricting the model."""
    return restrict_to_commutative(model.spec, hypercube_projections(model))


def printed_hypercube_rates(model: FermiModel) -> dict:
    """Single-flip rates: direct Tr[E_x L E_x'] evaluation next to the
    closed form sometimes quoted for this walk.

    The two disagree (the quoted form reads 2cosh(beta e_j)/(1+e^{-+beta
    e_j}) where direct evaluation gives e^{+-beta e_j/2}); the direct
    numbers are authoritative and both are reported.
    """
    rate = hypercube_restriction(model)
    out = {"direct": {}, "printed": {}}
    m = model.m
    for bits in range(2**m):
        for j in range(m):
            flipped = bits ^ (1 << j)
            be = model.beta * model.energies[j]
            xj = (bits >> j) & 1
            printed = 2.0 * np.cosh(be) / (1.0 + np.exp(-be if xj else +be))
            key = f"{bits}->{flipped}"
            out["direct"][key] = float(rate.rates[bits, flipped])
            out["printed"][key] = float(printed)
    return out


def depolarizing(n: int) -> GeneratorSpec:
    """Tracial-detailed-balance baseline with a full traceless jump set."""
    if not 2 <= n <= 6:
        raise ValueError("dimension must be between 2 and 6")
    sigma = DensityState.from_matrix(np.eye(n) / n)
    jumps = [(np.sqrt(n) * b, 0.0) for b in traceless_hermitian_basis(n)]
    return GeneratorSpec(sigma, jumps)


def kms_counterexample(u_basis, v1, v2):
    """KMS-symmetric generator that fails GNS detailed balance.

    Built from rank-one Kraus operators K_j = |v_j><u_j| and their
    sigma-weighted duals; the unital map composed with its KMS adjoint
    gives L = KK^ - I which is KMS-self-adjoint for the invariant state

        sigma = b/(a+b) |v1><v1| + a/(a+b) |v2><v2| ,
        a = |<v1, u2>|^2 ,  b = |<v2, u1>|^2 ,

    but does not commute with the modular operator.  Returns
    (L, sigma, report).
    """
    u1, u2 = (np.asarray(u, dtype=complex).reshape(-1) for u in u_basis)
    v1 = np.asarray(v1, dtype=complex).reshape(-1)
    v2 = np.asarray(v2, dtype=complex).reshape(-1)
    n = u1.size
    if abs(np.vdot(u1, u2)) > 1e-12 or abs(np.vdot(u1, u1) - 1) > 1e-12 or abs(np.vdot(u2, u2) - 1) > 1e-12:
        raise ValueError("u vectors must be orthonormal")
    for v in (v1, v2):
        if abs(np.vdot(v, v) - 1) > 1e-12:
            raise ValueError("v vectors must be unit")
    a = float(abs(np.vdot(v1, u2)) ** 2)
    b = float(abs(np.vdot(v2, u1)) ** 2)
    if a + b < 1e-12:
        raise ValueError("v pair is orthogonal to the u pair crosswise; a + b = 0 is degenerate")
    gram = abs(np.vdot(v1, v2))
    if gram < 1e-12:
        raise ValueError("v vectors must not be orthogonal")

    sigma_mat = (b * np.outer(v1, np.conj(v1)) + a * np.outer(v2, np.conj(v2))) / (a + b)
    sigma = DensityState.from_matrix(sigma_mat)

    kraus = [np.outer(v1, np.conj(u1)), np.outer(v2, np.conj(u2))]
    s_half = sigma.power(0.5)
    s_halfinv = sigma.power(-0.5)
    dual = [s_half @ dag(k) @ s_halfinv for k in kraus]

    kk = sum(sharp(dag(k), k) for k in kraus)
    kk_hat = sum(sharp(dag(k), k) for k in dual)
    l = kk_hat @ kk - np.eye(n * n)

    from .generators import Superoperator, certify_detailed_balance
    from .linalg import apply_super

    cert = certify_detailed_balance(Superoperator(sigma, l))
    report = {
        "a": a,
        "b": b,
        "unital": float(np.linalg.norm(apply_super(l, np.eye(n)))),
        "sigma_invariant": float(np.linalg.norm(apply_super(dag(l), sigma.rho))),
        "kms_residual": cert.s_residuals[0.5],
        "gns_residual": cert.s_residuals[1.0],
        "modular_commutation": cert.modular_commutation,
    }
    return l, sigma, report


def random_density(n: int, rng, min_eig: float = 5e-3) -> DensityState:
    """Haar-rotated random spectrum density matrix, bounded away from zero."""
    lam = np.exp(rng.standard_normal(n))
    lam = lam / lam.sum()
    lam = (1.0 - n * min_eig) * lam + min_eig
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(x)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return DensityState.from_matrix((q * lam) @ dag(q))


def random_dbc_spec(
    n: int,
    rng,
    n_offdiag: int | None = None,
    n_zero: int | None = None,
    ergodic: bool = False,
) -> GeneratorSpec:
    """Random generator data satisfying detailed balance by construction.

    Jumps are scaled rank-one units between eigenvectors of a random
    sigma (with their adjoints) plus self-adjoint zero-frequency diagonal
    jumps.  With ``ergodic`` the off-diagonal pairs are chosen to connect
    all eigenvectors so the commutant is trivial.
    """
    sigma = random_density(n, rng)
    lam = sigma.eigenvalues
    u = sigma.eigenvectors
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if ergodic:
        chain = [(i, i + 1) for i in range(n - 1)]
        extra = [p for p in pairs if p not in chain]
        order = list(rng.permutation(len(extra)))
        k = n_offdiag if n_offdiag is not None else 0
        chosen = chain + [extra[i] for i in order[:k]]
    else:
        k = n_offdiag if n_offdiag is not None else max(1, n - 1)
        order = list(rng.permutation(len(pairs)))
        chosen = [pairs[i] for i in order[:k]]
    jumps = []
    for i, j in chosen:
        c = (0.3 + rng.uniform(0.0, 1.2)) * np.exp(2j * np.pi * rng.uniform())
        v = np.sqrt(n) * c * np.outer(u[:, i], np.conj(u[:, j]))
        w = float(np.log(lam[j]) - np.log(lam[i]))
        jumps.append((v, w))
        jumps.append((dag(v), -w))
    nz = n_zero if n_zero is not None else 1
    for _ in range(nz):
        d = rng.standard_normal(n)
        d -= d.mean()
        d *= 0.3 + rng.uniform(0.0, 1.0)
        jumps.append(((u * d) @ dag(u), 0.0))
    return GeneratorSpec(sigma, jumps)
