import numpy as np
import pytest

from qmsflow.calculus import _log_mean_curvature, log_mean, log_mean_dx
from qmsflow.generators import RateMatrix
from qmsflow.linalg import _binary_scale, choi, dag, sharp
from qmsflow.models import fermi_ou, fermi_ou_infinite, depolarizing
from qmsflow.transport import GeodesicResult, _minimize_path, _node_derivatives, _require_segments


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def fermi_m1():
    return fermi_ou(1, 2.0, [1.0])


@pytest.fixture(scope="session")
def fermi_m1_unit():
    return fermi_ou(1, 1.0, [1.0])


@pytest.fixture(scope="session")
def fermi_m2():
    return fermi_ou(2, 1.0, [1.0, 2.0])


@pytest.fixture(scope="session")
def fermi_infinite_n2():
    return fermi_ou_infinite(2)


@pytest.fixture(scope="session")
def depolarizing_n2():
    return depolarizing(2)


def tracial(n):
    """The maximally mixed state of dimension n."""
    from qmsflow.states import DensityState

    return DensityState.from_matrix(np.eye(n) / n)


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def super_of_left(a):
    """Superoperator of left multiplication X |-> A X."""
    a = np.asarray(a, dtype=complex)
    return np.kron(np.eye(a.shape[0]), a)


def commutator_super(v):
    """Superoperator of X |-> [V, X]: left minus right multiplication."""
    v = np.asarray(v, dtype=complex)
    return super_of_left(v) - np.kron(v.T, np.eye(v.shape[0]))


def reconstruct(spectrum):
    """The matrix U diag(lam) U^* of a ``HermitianSpectrum``."""
    u = spectrum.eigenvectors
    return (u * spectrum.eigenvalues) @ dag(u)


def modular_apply(sigma, a):
    """Delta_sigma(A) = sigma A sigma^{-1}."""
    a = np.asarray(a, dtype=complex)
    if a.shape != sigma.rho.shape:
        raise ValueError("dimension mismatch")
    return sigma.rho @ a @ sigma.power(-1.0)


def modular_shift(sigma, t, a):
    """Imaginary-time modular flow A |-> sigma^t A sigma^{-t}."""
    return sigma.power(t) @ np.asarray(a, dtype=complex) @ sigma.power(-t)


def modular_superoperator(sigma):
    """Matrix of Delta_sigma on column-stacked matrices."""
    return sharp(sigma.rho, sigma.power(-1.0))


def weight_superoperator_s(sigma, s):
    """Superoperator Omega_s with <A, B>_s = <A, Omega_s B>_HS (unnormalized).

    Omega_s(B) = sigma^{1-s} B sigma^s.
    """
    return sharp(sigma.power(1.0 - s), sigma.power(s))


def weight_superoperator_f(sigma, f):
    """Superoperator Omega_f = R_sigma f(Delta_sigma) for <A, B>_f."""
    from qmsflow.linalg import vec
    from qmsflow.states import _weight_kernel_f

    u = sigma.eigenvectors
    w = sharp(dag(u), u)  # X |-> U^* X U
    return dag(w) @ (vec(_weight_kernel_f(sigma, f))[:, None] * w)


def self_adjointness_residual(l, omega_w):
    """Relative size of Omega L - L^+ Omega, zero iff L is Omega-symmetric.

    The weight Omega is Hermitian, so with X = Omega L the residual is the
    anti-Hermitian X - X^*, whose 2-norm is the spectral radius of the
    Hermitian i(X - X^*), scaled by the operator 2-norms of L and Omega.
    """
    def opnorm(h):  # the spectral radius of a Hermitian h
        return float(np.abs(np.linalg.eigvalsh(h)).max())

    x = omega_w @ l
    scale = opnorm(omega_w) * max(np.linalg.norm(l, 2), 1e-300)
    return opnorm(1j * (x - dag(x))) / max(scale, 1e-300)


def dirichlet_form(spec, s, b, a):
    """E_s(B, A) = sum_j e^{(1/2 - s) omega_j} <d_j B, d_j A>_s.

    Equals -<B, L A>_s for the generator built from the same jumps.
    """
    from qmsflow.calculus import partial_deriv
    from qmsflow.states import inner_s

    total = 0.0 + 0.0j
    for j, (_, w) in enumerate(spec.jumps):
        db = partial_deriv(spec, j, b)
        da = partial_deriv(spec, j, a)
        total += np.exp((0.5 - s) * w) * inner_s(spec.sigma, s, db, da)
    return complex(total)


def chain_rule_residual(rho, v, omega):
    """Relative residual of the chain-rule identity for (rho, V, omega)."""
    from qmsflow.calculus import rho_mult

    logrho = rho.log()
    em = np.exp(-omega / 2.0)
    ep = np.exp(+omega / 2.0)
    arg = v @ (logrho - (omega / 2.0) * np.eye(rho.dim)) - (
        logrho + (omega / 2.0) * np.eye(rho.dim)
    ) @ v
    lhs = rho_mult(rho, omega, arg)
    rhs = em * (v @ rho.rho) - ep * (rho.rho @ v)
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300))


def monomial(ctx, alpha):
    """Ordered product Q^alpha = Q_1^{a_1} ... Q_n^{a_n} of a ``CliffordContext``."""
    out = np.eye(ctx.dim, dtype=complex)
    for j, a in enumerate(alpha):
        if a:
            out = out @ ctx.generators[j]
    return out


def _basis_rowvecs(basis) -> np.ndarray:
    """Row-major flattenings of F_a^*, stacked as columns."""
    cols = [dag(f).reshape(-1) for f in basis]
    return np.array(cols).T


def gks_matrix(k: np.ndarray, basis) -> np.ndarray:
    """Coefficient matrix c_ab of the superoperator ``k`` over ``basis``: the
    dense reference for ``qmsflow.generators._superoperator_coefficients``
    and the block routes.

    The basis must be orthonormal in the normalized Hilbert-Schmidt inner
    product, to 1e-9, with the identity as its first element (ValueError
    otherwise).  Computed through the Choi matrix:  c = X^+ C(K) X / n^2
    with X the column matrix of row-major flattenings of F_a^*.  A modular
    basis's elements are ``modular_elements(modular)``.
    """
    big = np.asarray(k).shape[0]
    n = int(round(np.sqrt(big)))
    if len(basis) != big:
        raise ValueError(f"basis has {len(basis)} elements, expected {big}")
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
    return dag(x) @ choi(k) @ x / (n * n)


def gks_hermiticity_residual(c):
    """||c - c^*||_F / ||c||_F of a GKS coefficient matrix."""
    return float(np.linalg.norm(c - dag(c)) / max(np.linalg.norm(c), 1e-300))


def star_swap_residual(s: np.ndarray) -> float:
    """Relative deviation of a superoperator from K(X^*) = K(X)^*: the
    dense reference for the certification's ``star_preservation``.

    With column stacking, vec(X^dag) = P conj(vec X) where P swaps the
    (i, k) index pair, so star preservation is exactly P S P = conj(S).
    Both norms are of S scaled by ``qmsflow.linalg._binary_scale``.
    """
    s = np.asarray(s, dtype=complex)
    s = s * _binary_scale(np.abs(s).max(initial=0.0))
    big = s.shape[0]
    n = int(round(np.sqrt(big)))
    idx = np.arange(big).reshape(n, n, order="F").T.reshape(-1, order="F")
    resid = np.linalg.norm(s[np.ix_(idx, idx)] - np.conj(s))
    scale = max(np.linalg.norm(s), 1e-300)
    return float(resid / scale)


def nested_matrix_to_json(a) -> list:
    """``a`` in the nested wire form, n rows of n [re, im] pairs, which
    ``qmsflow.serialize.matrix_from_json`` reads besides the packed form;
    tests that build malformed or rescaled input edit its cells."""
    a = np.asarray(a, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def nested_density_to_json(state) -> dict:
    """``serialize.density_to_json`` with the nested matrix form."""
    return {"dim": state.dim, "rho": nested_matrix_to_json(state.rho)}


def nested_spec_to_json(spec) -> dict:
    """``serialize.spec_to_json`` with the nested matrix form."""
    return {
        "dim": spec.dim,
        "sigma": nested_matrix_to_json(spec.sigma.rho),
        "jumps": [{"V": nested_matrix_to_json(v), "omega": float(w)} for v, w in spec.jumps],
    }


def rate_matrix_from_json(obj):
    """The ``RateMatrix`` that ``qmsflow.serialize.rate_matrix_to_json`` wrote."""
    if "rates" not in obj or "stationary" not in obj:
        raise ValueError("rate matrix JSON must carry 'rates' and 'stationary'")
    rates = np.array(obj["rates"], dtype=float)
    stationary = np.array(obj["stationary"], dtype=float)
    if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
        raise ValueError(f"rates must be square, got shape {rates.shape}")
    if stationary.shape != (rates.shape[0],):
        raise ValueError("stationary vector length does not match the rate matrix")
    return RateMatrix(rates, stationary)


def trajectory_from_csv(text):
    """The ``TrajectorySample`` rows of an ``evolve`` CSV."""
    from qmsflow.entropy import TrajectorySample

    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != "t,entropy,production,exp_bound,production_bound":
        raise ValueError("unrecognized trajectory CSV header")
    out = []
    for ln in lines[1:]:
        t, d, p, eb, pb = ln.split(",")
        out.append(
            TrajectorySample(
                t=float(t),
                entropy=float(d),
                production=float(p),
                entropy_bound=float(eb) if eb else None,
                production_bound=float(pb) if pb else None,
            )
        )
    return out


def kron_sum_generator(spec):
    """Reference L: the per-jump sum of Kronecker products, over a spec's
    jumps or over a list of raw (V_j, omega_j), which no spec need admit
    (jumps off their Bohr blocks, or not closed under adjoints)."""
    jumps, n = (spec, spec[0][0].shape[0]) if isinstance(spec, list) else (spec.jumps, spec.dim)
    out = np.zeros((n * n, n * n), dtype=complex)
    eye = np.eye(n)
    for v, w in jumps:
        vv = dag(v) @ v
        out += np.exp(-w / 2.0) * (2.0 * sharp(dag(v), v) - sharp(vv, eye) - sharp(eye, vv))
    return out


def laplacian(spec):
    """Reference: superoperator of L0 = div o grad = - sum_j [V_j^*, [V_j, .]]."""
    big = spec.dim ** 2
    out = np.zeros((big, big), dtype=complex)
    for v, _ in spec.jumps:
        cj = commutator_super(v)
        cjd = commutator_super(dag(v))
        out -= cjd @ cj
    return out


def rho_mult_super(rho, omega, inverse=False):
    """Reference: superoperator matrix of [rho]_omega (or its inverse)."""
    from qmsflow.calculus import tilted_kernel

    u = rho.eigenvectors
    kern = tilted_kernel(rho, omega)
    if inverse:
        kern = 1.0 / kern
    w = sharp(dag(u), u)  # X |-> U^* X U
    return dag(w) @ (kern.reshape(-1, order="F")[:, None] * w)


def weighted_laplacian_super(spec, rho):
    """Reference: superoperator of A |-> div([rho]_omega grad A).

    Negative semidefinite and Hermitian in the Hilbert-Schmidt inner
    product; its null space is the commutant of the jump set.
    """
    big = spec.dim ** 2
    out = np.zeros((big, big), dtype=complex)
    for v, w in spec.jumps:
        cj = commutator_super(v)
        cjd = commutator_super(dag(v))
        out -= cjd @ rho_mult_super(rho, w) @ cj
    return out


def derivation_super(pair):
    """The superoperator of the derivation D(A) = W[V, A] of a pair (W, V)."""
    w, v = pair
    return super_of_left(w) @ commutator_super(v)


def dense_intertwining_rates(spec, derivations):
    """Reference for ``qmsflow.entropy.intertwining_rates``: each derivation
    as a dense superoperator, [D, L] formed against the dense L, residuals
    relative to ||D||_F ||K||_F.  Returns (rates, residuals)."""
    from qmsflow.generators import build_generator

    l = build_generator(spec)
    unit = np.linalg.norm(spec.jump_stack[2])
    rates = []
    residuals = []
    for d in map(derivation_super, derivations):
        comm = d @ l - l @ d
        norm2 = float(np.linalg.norm(d) ** 2)
        if norm2 < 1e-300:
            rates.append(0.0)
            residuals.append(np.inf)
            continue
        a = -np.vdot(d, comm).real / norm2
        resid = float(np.linalg.norm(comm + a * d) / (np.sqrt(norm2) * unit))
        rates.append(float(a))
        residuals.append(resid)
    return np.array(rates), np.array(residuals)


def near_degenerate_spec(gap):
    """sigma = diag(0.3, 0.3(1 + gap), 0.4 - 0.3 gap) with four independent jumps.

    The omega = 0 jump E_01 + i E_10 comes with its adjoint (the same
    dissipator), E_02 and E_20 sit at +-log(lam_2/lam_0), and diag(1, -1, 0)
    completes the set, so the canonical form has four jumps.
    """
    from qmsflow.generators import GeneratorSpec
    from qmsflow.states import DensityState

    lam = np.array([0.3, 0.3 * (1 + gap), 0.4 - 0.3 * gap])
    unit = np.eye(3, dtype=complex)

    def e(i, j):
        return np.outer(unit[i], unit[j])

    w = float(np.log(lam[2] / lam[0]))
    v = e(0, 1) + 1j * e(1, 0)
    jumps = [(v, 0.0), (dag(v), 0.0), (e(0, 2), w), (e(2, 0), -w), (np.diag([1.0, -1.0, 0.0]), 0.0)]
    return GeneratorSpec(DensityState.from_matrix(np.diag(lam).astype(complex)), jumps)


def modular_elements(md):
    """Every element of a modular basis as an n x n matrix, stacked in order."""
    return md.combine(np.eye(md.size))


def loop_bohr_groups(sigma, extra=()):
    """Reference for :func:`qmsflow.states.bohr_labels`: the chained-gap
    loop over sigma's sorted frequencies, on the scale of those alone, then
    a loop over them for each value of ``extra``: the nearest frequency
    within the tolerance, a tie going to the smaller |frequency|.  Returns
    the blocks in ascending frequency, each a list of positions in
    ascending value, and each extra value's block, -1 for none."""
    from qmsflow.states import BOHR_RTOL

    loglam = np.log(sigma.eigenvalues)
    values = np.subtract.outer(loglam, loglam).ravel()
    tol = BOHR_RTOL * max(float(np.max(np.abs(values))), 1.0)
    groups = []
    for pos in np.argsort(values):
        if groups and abs(values[pos] - values[groups[-1][-1]]) <= tol:
            groups[-1].append(int(pos))
        else:
            groups.append([int(pos)])
    block = {pos: g for g, members in enumerate(groups) for pos in members}
    found = []
    for v in extra:
        near = [(abs(x - v), abs(x), pos) for pos, x in enumerate(values) if abs(x - v) <= tol]
        found.append(block[min(near)[2]] if near else -1)
    return groups, found


def dense_modular_basis(sigma):
    """Reference: the modular basis of ``sigma`` formed densely, in the order
    of :func:`qmsflow.states.build_modular_basis`.

    Each element is a sum of outer products of sigma's eigenvectors: a
    Helmert row of the diagonal units sqrt(n) |eta_i><eta_i|, the real or
    imaginary symmetrization of a unit inside a merged eigenspace, or one
    unit sqrt(n) |eta_i><eta_j| at omega != 0.
    """
    from qmsflow.states import _helmert_rows

    n, u = sigma.dim, sigma.eigenvectors
    loglam = np.log(sigma.eigenvalues)
    label = np.empty(n * n, dtype=int)
    for g, members in enumerate(loop_bohr_groups(sigma)[0]):
        label[members] = g
    label = label.reshape(n, n)
    group_of = np.concatenate([[0], np.cumsum(label[np.arange(n - 1), np.arange(1, n)] != label[0, 0])])
    group_log = np.array([np.mean(loglam[group_of == g]) for g in range(group_of[-1] + 1)])

    def unit(i, j):
        return np.sqrt(n) * np.outer(u[:, i], np.conj(u[:, j]))

    h = _helmert_rows(n)
    entries = [(0.0, (-1, k), sum(h[k, i] * unit(i, i) for i in range(n))) for k in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if group_of[i] == group_of[j]:
                if i < j:
                    f = unit(i, j)
                    entries.append((0.0, (i, j), (f + dag(f)) / np.sqrt(2.0)))
                    entries.append((0.0, (j, i), 1j * (f - dag(f)) / np.sqrt(2.0)))
            else:
                entries.append((float(group_log[group_of[j]] - group_log[group_of[i]]), (i, j), unit(i, j)))
    entries.sort(key=lambda e: (e[0], e[1]))
    first = next(k for k, e in enumerate(entries) if e[1] == (-1, 0))
    entries.insert(0, entries.pop(first))
    return [e[2] for e in entries]


def per_point_trajectory(spec, rho0, grid, lam=None):
    """Reference: the trajectory one time at a time, each state through
    ``DensityState.from_matrix`` and its production through ``apply_dual``."""
    from qmsflow.entropy import TrajectorySample, entropy_production, relative_entropy
    from qmsflow.generators import dual_orbit
    from qmsflow.states import DensityState

    d0 = relative_entropy(rho0, spec.sigma)
    p0 = entropy_production(spec, rho0)
    rows = []
    for t in grid:
        (rho_t,) = dual_orbit(spec, rho0.rho, [t])
        rho_t = 0.5 * (rho_t + dag(rho_t))
        rho_t = DensityState.from_matrix(rho_t / np.trace(rho_t).real)
        rows.append(TrajectorySample(
            t=float(t),
            entropy=relative_entropy(rho_t, spec.sigma),
            production=entropy_production(spec, rho_t),
            entropy_bound=None if lam is None else float(np.exp(-2 * lam * t) * d0),
            production_bound=None if lam is None else float(np.exp(-2 * lam * t) * p0),
        ))
    return rows


def loop_canonical_jumps(blocks, mod, drop_rtol):
    """Reference for ``qmsflow.canonical._canonical_jumps``: one eigensolve
    and one ``combine`` call per conjugate pair of blocks, in label order."""
    from qmsflow.canonical import _paired_blocks

    omegas, labels = mod.bohr_frequencies, mod.block_labels
    sym = []
    for (_, values), image in zip(blocks, _paired_blocks(blocks, mod)):
        half = 0.5 * (values + image)
        sym.append(0.5 * (half + np.conj(half).transpose(0, 2, 1)))
    overall = max([float(np.max(np.abs(b.real))) for b in sym] + [1e-300])
    listed_floor = mod.size * np.finfo(float).eps * overall
    weighted = max(
        [float(np.max(np.abs(np.exp(omegas[m] / 2.0)[:, :, None] * b))) for (m, _), b in zip(blocks, sym)]
        + [1e-300]
    )
    where = {int(labels[m[0]]): (s, r) for s, (members, _) in enumerate(blocks) for r, m in enumerate(members)}
    jumps, dropped, block_sizes = [], [], {}
    zero = labels[0]
    for g in range(zero + 1):
        if g not in where:
            continue
        s, r = where[g]
        s, r = where[int(labels[mod.conj_pairing[blocks[s][0][r, 0]]])]
        idx, sub = blocks[s][0][r], sym[s][r]
        omega = float(np.mean(omegas[idx]))
        if g == zero:
            sub = sub.real
        d, vv = np.linalg.eigh(0.5 * (sub + dag(sub)))
        kept = []
        for k in range(len(d) - 1, -1, -1):
            if d[k] * np.exp(omega / 2.0) <= drop_rtol * weighted:
                if abs(d[k]) > listed_floor:
                    dropped.append(float(d[k]))
            else:
                kept.append(k)
        if kept:
            y = np.zeros((len(kept), mod.size), dtype=complex)
            y[:, idx] = np.conj(vv[:, kept]).T
            for scale, vmat in zip(np.sqrt(d[kept] * np.exp(omega / 2.0) / 2.0), mod.combine(y)):
                jumps.append((scale * vmat, omega))
                if g != zero:
                    jumps.append((scale * dag(vmat), -omega))
        block_sizes[omega] = len(kept)
        if g != zero:
            block_sizes[-omega] = len(kept)
    return jumps, dropped, block_sizes


# the second partials of the logarithmic mean: the chain oracle's Hessian
# and the confluent limits of the second-divided-difference references


def log_mean_dxx(x, y):
    """Second partial derivative of LM(x, y) in x, (2(x-y) - (x+y)L)/(x^2 L^3)
    with L = log(x/y); -1/(6x) at x = y.  Negative: LM is concave.

    LM is 1-homogeneous, so x LM_xx + y LM_xy = 0, and LM_yy(x, y) is
    ``log_mean_dxx(y, x)``.  Near coincidence the closed form cancels and
    the series of :func:`_log_mean_curvature` replaces it.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return -_log_mean_curvature(x, y) / (x * x)


def log_mean_dxy(x, y):
    """Mixed second partial of LM(x, y), ((x+y)L - 2(x-y))/(x y L^3) with
    L = log(x/y); 1/(6x) at x = y.  Equals -(x/y) ``log_mean_dxx(x, y)``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _log_mean_curvature(x, y) / (x * y)


def _reference_first_difference(x1, x2, y, lm1, lm2):
    close = np.abs(x1 - x2) <= 1e-5 * np.maximum(x1, x2)
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = (lm1 - lm2) / (x1 - x2)
    return np.where(close, log_mean_dx(0.5 * (x1 + x2), y), quotient)


def reference_kernel_divided_differences(lam, omegas, ker):
    """Reference for ``qmsflow.calculus.kernel_divided_differences``, taking
    the frequencies: ``left`` and ``right`` as two separate quotients, each
    with ``log_mean_dx`` evaluated at every entry."""
    up = np.exp(omegas / 2.0)[None, :, None]
    down = np.exp(-omegas / 2.0)[None, :, None]
    s, r = up * lam[:, None, :], down * lam[:, None, :]
    left = up[..., None, None] * _reference_first_difference(
        s[:, :, :, None, None], s[:, :, None, :, None], r[:, :, None, None, :],
        ker[:, :, :, None, :], ker[:, :, None, :, :],
    )
    right = down[..., None, None] * _reference_first_difference(
        r[:, :, None, :, None], r[:, :, None, None, :], s[:, :, :, None, None],
        ker[:, :, :, :, None], ker[:, :, :, None, :],
    )
    return left, right


def _reference_second_difference(lam, first, tilt, other_tilt):
    from qmsflow.calculus import CONFLUENT_GAP

    n = first.shape[2]
    lo, mid, hi = np.sort(np.stack(np.meshgrid(*(np.arange(n),) * 3, indexing="ij")), axis=0)
    spread = lam[:, hi] - lam[:, lo]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (first[:, :, mid, hi] - first[:, :, lo, mid]) / spread[:, None, ..., None]
    close = np.nonzero(spread <= CONFLUENT_GAP * lam[:, hi])
    mean = (lam[:, lo] + lam[:, mid] + lam[:, hi])[close][:, None, None] / 3.0
    out[close[0], :, close[1], close[2], close[3]] = 0.5 * tilt**2 * log_mean_dxx(
        tilt * mean, other_tilt * lam[close[0]][:, None, :]
    )
    return out


def reference_kernel_second_divided_differences(lam, omegas, left, right):
    """Reference for ``qmsflow.calculus.kernel_second_divided_differences``,
    taking the frequencies: ``in_s`` and ``in_r`` as two separate quotients,
    and the mixed term's quotient across (p, k) formed at every entry."""
    from qmsflow.calculus import CONFLUENT_GAP

    up = np.exp(omegas / 2.0)[None, :, None]
    down = np.exp(-omegas / 2.0)[None, :, None]
    in_s = _reference_second_difference(lam, left, up, down)
    in_r = _reference_second_difference(lam, right.transpose(0, 1, 3, 4, 2), down, up)
    gaps = lam[:, :, None] - lam[:, None, :]
    close = np.abs(gaps) <= CONFLUENT_GAP * np.maximum(lam[:, :, None], lam[:, None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        across_r = (left[..., :, None] - left[..., None, :]) / gaps[:, None, None, None]
        across_s = (right[:, :, :, None] - right[:, :, None, :]) / gaps[:, None, :, :, None, None]
    mixed = np.where(close[:, None, None, None], across_s, across_r)
    b, i, l, p, k = np.nonzero(close[:, :, :, None, None] & close[:, None, None, :, :])
    mixed[b, :, i, l, p, k] = log_mean_dxy(
        up[0, :, 0] * 0.5 * (lam[b, i] + lam[b, l])[:, None],
        down[0, :, 0] * 0.5 * (lam[b, p] + lam[b, k])[:, None],
    )
    return in_s, mixed, in_r.transpose(0, 1, 5, 2, 3, 4)


# ---------------------------------------------------------------------------
# classical chain oracle: the commutative reduction of the transport metric,
# minimized by the damped Newton solver of qmsflow.transport
# ---------------------------------------------------------------------------


class _ChainProblem:
    """Discrete-transport action for a reversible chain.

    Edge weights are logarithmic means w_xy(p) = LM(p_x Q_xy, p_y Q_yx);
    the quadratic form on increments solves the weighted graph Laplacian.
    This is the commutative reduction of the quantum metric: :meth:`evaluate`
    inverts the Laplacian at each midpoint once, and :meth:`derivatives`
    forms G and S there, from which
    :func:`qmsflow.transport._node_derivatives` reads the gradient and the
    Hessian as for :class:`qmsflow.transport._PathProblem`.
    """

    def __init__(self, rates: np.ndarray, p0: np.ndarray, p1: np.ndarray, k: int):
        self.q = np.asarray(rates, dtype=float)
        self.m = self.q.shape[0]
        self.k = k
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        # the largest rate sets the scale of the edge cut-off and of the
        # Laplacian's regularization, so that rates -> c rates is exact
        self.rate = float(np.max(np.abs(self.q)))
        edges = [
            (x, y)
            for x in range(self.m)
            for y in range(x + 1, self.m)
            if max(self.q[x, y], self.q[y, x]) > 1e-14 * self.rate
        ]
        self.tail = np.array([x for x, _ in edges], dtype=int)
        self.head = np.array([y for _, y in edges], dtype=int)
        self.q_out = self.q[self.tail, self.head]
        self.q_in = self.q[self.head, self.tail]
        # signed edge-vertex incidence, so that L(p) = D^T diag(w) D
        self.incidence = np.zeros((len(edges), self.m))
        self.incidence[np.arange(len(edges)), self.tail] = 1.0
        self.incidence[np.arange(len(edges)), self.head] = -1.0
        self.tail_onehot = np.maximum(self.incidence, 0.0)
        self.head_onehot = np.maximum(-self.incidence, 0.0)

    def initial(self) -> np.ndarray:
        ts = np.linspace(0.0, 1.0, self.k + 1)[1:-1]
        return self.p0[None, :] + ts[:, None] * (self.p1 - self.p0)[None, :]

    def full(self, y: np.ndarray) -> np.ndarray:
        return np.vstack([self.p0[None, :], y, self.p1[None, :]])

    def min_eigenvalue(self, y: np.ndarray) -> float:
        # positivity of occupation probabilities plays the role of the
        # minimum eigenvalue in the matrix case
        if y.size == 0:
            return np.inf
        return float(np.min(y))

    def evaluate(self, y: np.ndarray):
        """Per segment of the path with interior points ``y``: increments dp,
        midpoint edge masses, the inverse of the regularized Laplacian
        P = L(mid) + (largest rate) 1 1^T/m, and u = P^{-1} dp."""
        full = self.full(y)
        mids = 0.5 * (full[:-1] + full[1:])
        dps = full[1:] - full[:-1]
        out_mass = mids[:, self.tail] * self.q_out
        in_mass = mids[:, self.head] * self.q_in
        w = log_mean(out_mass, in_mass)
        lap = np.einsum("ex,ke,ey->kxy", self.incidence, w, self.incidence)
        # solve on the mean-zero complement
        lap += self.rate / self.m
        # each P is inverted once: u here, P^{-1} and P^{-1} G in the Hessian
        lap_inv = np.linalg.inv(lap)
        return dps, out_mass, in_mass, lap_inv, (lap_inv @ dps[..., None])[..., 0]

    def segment_actions(self, evaluation) -> np.ndarray:
        dps, *_, u = evaluation
        return self.k * np.einsum("kx,kx->k", dps, u)

    def derivatives(self, evaluation):
        """Exact gradient and block-tridiagonal Hessian from :meth:`evaluate`
        on mean-zero directions, times 2^-e, and e (see
        :func:`_node_derivatives`).

        With f = D u the edge fluxes and w_xy = LM(p_x Q_xy, p_y Q_yx),
        G = D^T diag(f) dw/dmid, so the midpoint gradient is
        -K u^T G = -K sum_e f_e^2 dw_e/dmid, and S = sum_e f_e^2 d^2 w_e/dmid^2.
        The gradient and each node block are projected onto mean-zero
        directions, and (mean diagonal) 1 1^T/m stands in on the constant
        direction, so a mean-zero gradient gives a mean-zero step.
        """
        _, out_mass, in_mass, lap_inv, u = evaluation
        m = self.m
        tail, head = self.tail_onehot, self.head_onehot
        flux = u @ self.incidence.T
        jac = (tail * (self.q_out * log_mean_dx(out_mass, in_mass))[..., None]
               + head * (self.q_in * log_mean_dx(in_mass, out_mass))[..., None])
        g = np.einsum("ex,ke,key->kxy", self.incidence, flux, jac)
        f2 = flux**2
        cross = np.einsum("ex,ke,ey->kxy", tail,
                          f2 * self.q_out * self.q_in * log_mean_dxy(out_mass, in_mass), head)
        s = (np.einsum("ex,ke,ey->kxy", tail, f2 * self.q_out**2 * log_mean_dxx(out_mass, in_mass), tail)
             + np.einsum("ex,ke,ey->kxy", head, f2 * self.q_in**2 * log_mean_dxx(in_mass, out_mass), head)
             + cross + np.swapaxes(cross, -1, -2))
        gradient, diag, lower, e = _node_derivatives(self.k, u, lap_inv, lap_inv @ g, g, s)
        center = np.eye(m) - 1.0 / m
        diag = center @ diag @ center
        lower = center @ lower @ center
        scale = np.trace(diag, axis1=1, axis2=2).mean() / (m - 1)
        return gradient - gradient.mean(axis=1, keepdims=True), diag + scale / m, lower, e


def classical_transport_distance(
    rates: RateMatrix, p0, p1, segments: int = 16, max_iter: int = 400
) -> GeodesicResult:
    """Discrete transport distance of the restricted chain.

    The minimized K-segment midpoint action, as in
    :func:`geodesic_distance`, but independent of the quantum solver's
    metric assembly: works directly on probability vectors with
    logarithmic-mean edge weights.  A chain with no nonzero rate, or one
    that is reducible, has a degenerate metric and raises ``ValueError``.
    """
    _require_segments(segments)
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    for p in (p0, p1):
        if p.shape != (rates.size,):
            raise ValueError(f"endpoints must have {rates.size} entries, got shape {p.shape}")
        if not (abs(p.sum() - 1.0) <= 1e-12 and np.all(p > 0)):  # NaN fails too
            raise ValueError("endpoints must be strictly positive probability vectors")
    problem = _ChainProblem(rates.rates, p0, p1, segments)
    if problem.rate == 0.0:
        raise ValueError("chain has no nonzero rate; the metric is degenerate")
    # the edge-vertex incidence has rank m minus the number of components
    if np.linalg.matrix_rank(problem.incidence) < problem.m - 1:
        raise ValueError("chain is reducible; the metric is degenerate")
    y, result = _minimize_path(problem, max_iter)
    result.path = [row for row in problem.full(y)]
    return result
