"""Named invariant suites for every module, run by the command line
``verify`` command.  Each check draws its randomness from a seeded
generator so reports are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import calculus, canonical, entropy, generators, linalg, models, states, transport
from .linalg import apply_super, dag, hs_inner, sharp
from .states import DensityState

__all__ = ["run_suite", "CHECKS"]


def _rand_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ---------------------------------------------------------------------------
# matrix substrate
# ---------------------------------------------------------------------------


def check_sharp_apply(rng):
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a, b, x = (_rand_matrix(rng, n) for _ in range(3))
        err = np.linalg.norm(apply_super(sharp(a, b), x) - a @ x @ b)
        worst = max(worst, err / max(np.linalg.norm(a @ x @ b), 1e-300))
    return worst < 1e-13, f"worst relative residual {worst:.3e}"


def check_choi_hermitian_iff_star(rng):
    n = 3
    a = _rand_matrix(rng, n)
    b = _rand_matrix(rng, n)
    star_preserving = sharp(a, dag(a)) + sharp(dag(a), a)
    not_star = sharp(a, b)  # unrelated factors break K(X^*) = K(X)^*
    c1 = linalg.choi(star_preserving)
    c2 = linalg.choi(not_star)
    h1 = np.linalg.norm(c1 - dag(c1)) / np.linalg.norm(c1)
    h2 = np.linalg.norm(c2 - dag(c2)) / np.linalg.norm(c2)
    return (h1 < 1e-12 and h2 > 1e-3), f"star case {h1:.3e}, non-star case {h2:.3e}"


def check_spectral_composition(rng):
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        x = _rand_matrix(rng, n)
        a = x @ dag(x) + 0.3 * np.eye(n)
        via_compose = linalg.spectral_calculus(a, lambda t: np.exp(np.log(t)))
        two_step = linalg.spectral_calculus(linalg.spectral_calculus(a, np.log), np.exp)
        worst = max(worst, np.linalg.norm(via_compose - two_step) / np.linalg.norm(a))
    return worst < 1e-11, f"worst composition residual {worst:.3e}"


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def check_inner_forms_positive(rng):
    ok = True
    for _ in range(5):
        n = int(rng.integers(2, 5))
        sigma = models.random_density(n, rng)
        mats = np.array([_rand_matrix(rng, n) for _ in range(n * n)])
        rows, cols = mats[:, None], mats[None]
        for gram in (
            states.inner_s(sigma, 0.3, rows, cols),
            states.inner_f(sigma, states.bkm_weight, rows, cols),
        ):
            gram = 0.5 * (gram + dag(gram))
            try:
                np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                ok = False
    return ok, "Cholesky of random Gram matrices"


def check_inner_compatibility(rng):
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 6))
        sigma = models.random_density(n, rng)
        a = _rand_matrix(rng, n)
        for f in (np.sqrt, states.bkm_weight, lambda t: (1.0 + t) / 2.0):
            val = states.inner_f(sigma, f, np.eye(n), a)
            worst = max(worst, abs(val - np.trace(sigma.rho @ a)))
    return worst < 1e-12, f"worst compatibility defect {worst:.3e}"


def check_modular_roundtrip(rng):
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 5))
        sigma = models.random_density(n, rng)
        md = states.build_modular_basis(sigma)
        x = _rand_matrix(rng, n)
        basis = md.combine(np.eye(md.size))
        resum = (hs_inner(basis, x, normalized=True)[:, None, None] * basis).sum(axis=0)
        worst = max(worst, np.linalg.norm(resum - x) / np.linalg.norm(x))
    return worst < 1e-11, f"worst expansion residual {worst:.3e}"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def check_dbc_equivalences(rng):
    worst = 0.0
    for _ in range(6):
        n = int(rng.integers(2, 6))
        spec = models.random_dbc_spec(n, rng)
        l = generators.Superoperator(spec.sigma, generators.build_generator(spec))
        rep = l.certification
        worst = max(worst, rep.modular_commutation, rep.bkm_residual, *rep.s_residuals.values())
        # the Bures weight f(t) = (1 + t)/2, on the block certification reads
        kernel = states._weight_kernel_f(spec.sigma, lambda t: (1.0 + t) / 2.0)
        worst = max(worst, generators._weighted_residual(l.bohr_blocks[1], kernel, float(np.max(kernel)), rep.l_norm))
    return worst < 1e-9, f"worst residual across batteries {worst:.3e}"


def check_dirichlet_positivity(rng):
    low = 0.0
    for _ in range(6):
        n = int(rng.integers(2, 6))
        spec = models.random_dbc_spec(n, rng)
        a = _rand_matrix(rng, n)
        val = -states.inner_s(spec.sigma, 0.5, a, generators.apply_generator(spec, a)).real
        low = min(low, val)
    return low > -1e-11, f"lowest Dirichlet value {low:.3e}"


def _svd_commutant_dim(spec):
    """dim {X : [V, X] = 0 for every jump V}, by an SVD of the stacked
    superoperators of X |-> [V, X], kron(1, V) - kron(V^T, 1) under column
    stacking."""
    eye = np.eye(spec.dim)
    stacked = np.vstack([np.kron(eye, v) - np.kron(v.T, eye) for v in spec.jump_ops()])
    svals = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(svals <= 1e-9 * svals[0]))


def _null_count(evals):
    """Eigenvalues at most 1e-9 times the largest |eigenvalue|: the
    numerical null dimension, a count that L -> cL does not change."""
    mags = np.abs(evals)
    return int(np.sum(mags <= 1e-9 * np.max(mags)))


def check_null_matches_commutant(rng):
    ok = True
    details = []
    zoo = [
        models.fermi_ou(1, 0.7, [1.0]).spec,
        models.fermi_ou(2, 1.0, [1.0, 2.0]).spec,
        models.depolarizing(3),
        models.random_dbc_spec(3, rng),
    ]
    for spec in zoo:
        l = generators.build_generator(spec)
        null_dim = _null_count(np.linalg.eigvals(l))
        com = _svd_commutant_dim(spec)
        details.append(f"{null_dim}={com}")
        ok = ok and null_dim == com == generators.ergodicity(spec)
    return ok, "null dims vs commutant dims " + ",".join(details)


def check_restriction_rows(rng):
    model = models.fermi_ou(2, 0.8, [1.0, 1.7])
    rate = models.hypercube_restriction(model)
    return (
        rate.row_sum_residual() < 1e-11 and rate.detailed_balance_residual() < 1e-11,
        f"row sums {rate.row_sum_residual():.3e}, detailed balance {rate.detailed_balance_residual():.3e}",
    )


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def check_offblock_vanishing(rng):
    worst = 0.0
    for _ in range(4):
        n = int(rng.integers(2, 5))
        spec = models.random_dbc_spec(n, rng)
        # the largest |c_ab| off the modular basis's blocks, exact for a superoperator
        gks = generators.Superoperator(spec.sigma, generators.build_generator(spec)).gks_blocks
        top = max(float(np.max(np.abs(x))) for x in (gks.row, gks.col, gks.offblock, *(b for _, b in gks.blocks)))
        worst = max(worst, gks.offblock / max(top, 1e-300))
    return worst < 1e-10, f"worst off-block coefficient {worst:.3e}"


def check_extraction_uniqueness(rng):
    ok = True
    details = []
    for _ in range(3):
        n = int(rng.integers(2, 5))
        spec = models.random_dbc_spec(n, rng)
        l = generators.build_generator(spec)
        # both extractions read one certification and one reduced spectrum,
        # which does not depend on the basis order
        admitted = generators.Superoperator(spec.sigma, l)
        ex1, _ = canonical.extract_canonical(admitted, spec.sigma)
        # permuted basis (identity stays first)
        md = admitted.gks_blocks.modular
        perm = [0] + [1 + int(i) for i in rng.permutation(md.size - 1)]
        ex2, _ = canonical.extract_canonical(admitted, spec.sigma, modular=md.reordered(perm))
        l1 = generators.build_generator(ex1)
        l2 = generators.build_generator(ex2)
        err = np.linalg.norm(l1 - l2, 2) / max(np.linalg.norm(l, 2), 1e-300)
        details.append(f"{err:.1e}/{ex1.njumps}={ex2.njumps}")
        ok = ok and err < 1e-9 and ex1.njumps == ex2.njumps
    return ok, "generator gap / jump counts " + ",".join(details)


def check_jump_count_bound(rng):
    ok = True
    for _ in range(4):
        n = int(rng.integers(2, 5))
        spec = models.random_dbc_spec(n, rng)
        l = generators.build_generator(spec)
        ex, _ = canonical.extract_canonical(l, spec.sigma)
        ok = ok and ex.njumps <= n * n - 1
    return ok, "extracted jump counts within n^2 - 1"


# ---------------------------------------------------------------------------
# differential calculus
# ---------------------------------------------------------------------------


def check_rho_mult_positive(rng):
    ok = True
    worst_cont = 0.0
    for _ in range(4):
        n = int(rng.integers(2, 5))
        rho = models.random_density(n, rng)
        omega = float(rng.uniform(-2, 2))
        mats = np.array([_rand_matrix(rng, n) for _ in range(n * n)])
        gram = hs_inner(mats[:, None], calculus.rho_mult(rho, omega, mats)[None])
        gram = 0.5 * (gram + dag(gram))
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            ok = False
        a = mats[0]
        base = calculus.rho_mult(rho, omega, a)
        for eps in (1e-4, 1e-5):
            h = _rand_matrix(rng, n)
            h = (h + dag(h)) / 2
            h *= eps / np.linalg.norm(h)
            pert = DensityState.from_matrix(rho.rho + h - np.trace(h).real * rho.rho)
            diff = np.linalg.norm(calculus.rho_mult(pert, omega, a) - base)
            worst_cont = max(worst_cont, diff / (eps * np.linalg.norm(a)))
    return ok and worst_cont < 50.0, (
        f"Gram Cholesky {'ok' if ok else 'failed'}, perturbation ratio {worst_cont:.2f}"
    )


def check_omega_zero_chain_rule(rng):
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        rho = models.random_density(n, rng)
        v = _rand_matrix(rng, n)
        lhs = calculus.rho_mult(rho, 0.0, v @ rho.log() - rho.log() @ v)
        rhs = v @ rho.rho - rho.rho @ v
        worst = max(worst, np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300))
    return worst < 1e-10, f"worst commutator chain-rule residual {worst:.3e}"


def check_grad_kernel_is_commutant(rng):
    ok = True
    for _ in range(4):
        n = int(rng.integers(2, 5))
        spec = models.random_dbc_spec(n, rng, ergodic=True)
        ok = ok and _svd_commutant_dim(spec) == generators.ergodicity(spec)
        g = calculus.grad(spec, np.eye(n))
        ok = ok and max(np.linalg.norm(x) for x in g) < 1e-12
    return ok, "gradient kernel equals commutant on ergodic batch"


# ---------------------------------------------------------------------------
# transport metric
# ---------------------------------------------------------------------------


def check_metric_quadratic_form(rng):
    ok = True
    for _ in range(3):
        n = int(rng.integers(2, 4))
        spec = models.random_dbc_spec(n, rng, ergodic=True)
        rho = models.random_density(n, rng)
        basis = linalg.traceless_hermitian_basis(n)
        g = transport.metric_tensor(spec, rho, basis)
        evals = np.linalg.eigvalsh(g)
        ok = ok and evals[0] > 1e-12
    return ok, "coordinate tensors positive definite"


def check_energy_identity(rng):
    worst = 0.0
    model = models.fermi_ou(1, 1.2, [1.0])
    spec = model.spec
    for _ in range(3):
        rho0 = models.random_density(2, rng)
        t = float(rng.uniform(0.05, 0.5))
        # the production along the orbit is the exact -dD/dt of the computed flow
        production = entropy.entropy_trajectory(spec, rho0, [t])[0].production
        orbit = generators.dual_orbit(spec, rho0.rho, [t])[0]
        rho_t = DensityState.from_matrix(0.5 * (orbit + dag(orbit)))
        dec = transport.continuity_solve(spec, rho_t, generators.apply_dual(spec, rho_t.rho))
        worst = max(worst, abs(production - dec.metric_value))
    return worst < 1e-12, f"worst energy identity mismatch {worst:.3e}"


def check_action_refinement(rng):
    # midpoint quadrature of the (convex in rho) metric integrand
    # underestimates, so the converged action grows toward the continuum
    # value under refinement; it must never drop, and consecutive
    # increments must shrink
    model = models.fermi_ou(1, 1.0, [1.0])
    rho0 = models.random_density(2, rng)
    rho1 = models.random_density(2, rng)
    actions = [
        transport.geodesic_distance(model.spec, rho0, rho1, segments=k, max_iter=2000).action
        for k in (4, 8, 16)
    ]
    drops = min(b - a for a, b in zip(actions, actions[1:]))
    shrinking = (actions[2] - actions[1]) <= (actions[1] - actions[0]) + 1e-6
    return drops > -1e-6 and shrinking, (
        f"refinement increments {actions[1] - actions[0]:+.3e}, {actions[2] - actions[1]:+.3e}"
    )


# ---------------------------------------------------------------------------
# entropy rates
# ---------------------------------------------------------------------------


def check_production_identity(rng):
    worst = 0.0
    for _ in range(4):
        n = int(rng.integers(2, 5))
        spec = models.random_dbc_spec(n, rng)
        rho = models.random_density(n, rng)
        prod = entropy.entropy_production(spec, rho)
        egrad = rho.log() - spec.sigma.log()
        total = 0.0
        for j, (_, w) in enumerate(spec.jumps):
            d = calculus.partial_deriv(spec, j, egrad)
            total += hs_inner(d, calculus.rho_mult(rho, w, d)).real
        worst = max(worst, abs(prod - total) / max(abs(prod), 1e-300))
    return worst < 1e-9, f"worst production identity residual {worst:.3e}"


def check_production_decay(rng):
    model = models.fermi_ou(2, 1.0, [1.0, 2.0])
    lam = model.decay_rate()
    rho0 = models.random_density(4, rng)
    rows = entropy.entropy_trajectory(model.spec, rho0, np.linspace(0, 2, 9), lam=lam)
    ok = all(r.production <= r.production_bound + 1e-9 for r in rows)
    ok = ok and all(r.entropy <= r.entropy_bound + 1e-10 for r in rows)
    return ok, "production and entropy bounded by decay envelopes"


def check_entropy_monotone(rng):
    ok = True
    for _ in range(3):
        n = int(rng.integers(2, 5))
        spec = models.random_dbc_spec(n, rng, ergodic=True)
        rho0 = models.random_density(n, rng)
        rows = entropy.entropy_trajectory(spec, rho0, np.linspace(0, 2, 9))
        ok = ok and all(b.entropy <= a.entropy + 1e-11 for a, b in zip(rows, rows[1:]))
    return ok, "entropy nonincreasing along dual flows"


# ---------------------------------------------------------------------------
# model zoo
# ---------------------------------------------------------------------------


def check_fermi_certifications(rng):
    ok = True
    worst = 0.0
    for m, beta, es in ((1, 0.5, [1.0]), (2, 1.0, [1.0, 2.0])):
        model = models.fermi_ou(m, beta, es)
        l = generators.build_generator(model.spec)
        rep = generators.certify_detailed_balance(l, model.spec.sigma)
        worst = max(worst, rep.s_residuals[1.0], rep.s_residuals[0.5], rep.bkm_residual)
        ok = ok and rep.gns_dbc and generators.ergodicity(model.spec) == 1
    return ok and worst < 1e-9, f"worst certification residual {worst:.3e}"


def check_skew_leibniz(rng):
    model = models.fermi_ou(2, 0.9, [1.0, 1.5])
    w = model.context.principal_unitary
    worst = 0.0
    for dw, v in model.skew_derivations():
        a, b = _rand_matrix(rng, 4), _rand_matrix(rng, 4)
        lhs = dw @ (v @ a @ b - a @ b @ v)
        rhs = dw @ (v @ a - a @ v) @ b + w @ a @ w @ dw @ (v @ b - b @ v)
        worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
    return worst < 1e-12, f"worst skew Leibniz residual {worst:.3e}"


def check_krawtchouk_orthogonality(rng):
    model = models.fermi_ou(2, 1.1, [1.0, 0.6])
    alphas = [(a, b) for a in [(0, 0), (1, 0), (0, 1), (1, 1)] for b in [(0, 0), (1, 0), (0, 1), (1, 1)]]
    kmats = np.array([model.krawtchouk(al) for al in alphas])
    worst = 0.0
    for s in (0.0, 0.5, 1.0):
        gram = states.inner_s(model.spec.sigma, s, kmats[:, None], kmats[None])
        off = gram - np.diag(np.diagonal(gram))
        worst = max(worst, float(np.max(np.abs(off))))
    return worst < 1e-10, f"worst off-diagonal Gram entry {worst:.3e}"


def check_fermi_intertwining(rng):
    model = models.fermi_ou(2, 1.3, [0.8, 1.9])
    rep = entropy.intertwining_rates(model.spec, model.skew_derivations(), kind="skew")
    expected = np.repeat(np.cosh(model.beta * model.energies / 2.0), 2)
    err = float(np.max(np.abs(np.sort(rep.rates) - np.sort(expected))))
    return err < 1e-10 and rep.lam is not None, f"rate error {err:.3e}"


CHECKS = [
    ("hs_algebra.sharp_apply", check_sharp_apply),
    ("hs_algebra.choi_hermitian_iff_star", check_choi_hermitian_iff_star),
    ("hs_algebra.spectral_composition", check_spectral_composition),
    ("states.inner_forms_positive", check_inner_forms_positive),
    ("states.inner_compatibility", check_inner_compatibility),
    ("states.modular_roundtrip", check_modular_roundtrip),
    ("lindblad.dbc_equivalences", check_dbc_equivalences),
    ("lindblad.dirichlet_positivity", check_dirichlet_positivity),
    ("lindblad.null_matches_commutant", check_null_matches_commutant),
    ("lindblad.restriction_rows", check_restriction_rows),
    ("canonical.offblock_vanishing", check_offblock_vanishing),
    ("canonical.extraction_uniqueness", check_extraction_uniqueness),
    ("canonical.jump_count_bound", check_jump_count_bound),
    ("diffcalc.rho_mult_positive", check_rho_mult_positive),
    ("diffcalc.omega_zero_chain_rule", check_omega_zero_chain_rule),
    ("diffcalc.grad_kernel_is_commutant", check_grad_kernel_is_commutant),
    ("metric_flow.metric_quadratic_form", check_metric_quadratic_form),
    ("metric_flow.energy_identity", check_energy_identity),
    ("metric_flow.action_refinement", check_action_refinement),
    ("entropy_rates.production_identity", check_production_identity),
    ("entropy_rates.production_decay", check_production_decay),
    ("entropy_rates.entropy_monotone", check_entropy_monotone),
    ("model_zoo.fermi_certifications", check_fermi_certifications),
    ("model_zoo.skew_leibniz", check_skew_leibniz),
    ("model_zoo.krawtchouk_orthogonality", check_krawtchouk_orthogonality),
    ("model_zoo.fermi_intertwining", check_fermi_intertwining),
]


def run_suite(seed: int):
    """Run every named invariant; returns (all_passed, report lines)."""
    lines = []
    all_ok = True
    for index, (name, fn) in enumerate(CHECKS):
        rng = np.random.default_rng([seed, index])
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crash is a failure with its message
            ok, detail = False, f"exception: {exc}"
        all_ok = all_ok and ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok, lines
