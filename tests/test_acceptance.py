"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and matches the module defaults.
"""

import numpy as np

from qmsflow.calculus import grad, rho_div, rho_mult
from qmsflow.canonical import extract_canonical
from qmsflow.entropy import (
    entropy_trajectory,
    intertwining_rates,
    lsi_check,
    relative_entropy,
)
from qmsflow.generators import Superoperator, apply_dual, build_generator, dual_orbit
from qmsflow.linalg import dag, hs_inner, traceless_hermitian_basis, vec, unvec
from qmsflow.models import (
    fermi_ou,
    hypercube_restriction,
    kms_counterexample,
    random_dbc_spec,
    random_density,
)
from qmsflow.states import DensityState, bkm_weight
from qmsflow.transport import (
    continuity_solve,
    geodesic_distance,
    metric_monotonicity_check,
    metric_tensor,
)
from qmsflow.verify import run_suite

from conftest import (
    chain_rule_residual,
    classical_transport_distance,
    random_matrix,
    self_adjointness_residual,
    weight_superoperator_f,
    weight_superoperator_s,
    weighted_laplacian_super,
)


def report(index, passed, detail):
    line = f"ACCEPTANCE {index:2d}: {'PASS' if passed else 'FAIL'} — {detail}"
    print(line)
    assert passed, line


def test_criterion_01_chain_rule():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        rho = random_density(n, rng)
        v = random_matrix(rng, n)
        omega = float(rng.uniform(-3.0, 3.0))
        worst = max(worst, chain_rule_residual(rho, v, omega))
    report(1, worst < 1e-10, f"chain-rule identity, worst relative residual {worst:.3e}")


def test_criterion_02_gradient_flow_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 6))
        spec = random_dbc_spec(n, rng)
        rho = random_density(n, rng)
        rho_dot = apply_dual(spec, rho.rho)
        egrad = rho.log() - spec.sigma.log()
        from qmsflow.calculus import divergence

        fld = [rho_mult(rho, w, d) for (_, w), d in zip(spec.jumps, grad(spec, egrad))]
        resid = np.linalg.norm(rho_dot - divergence(spec, fld)) / np.linalg.norm(rho_dot)
        worst = max(worst, resid)
    report(2, worst < 1e-8, f"gradient-flow identity, worst relative residual {worst:.3e}")


def test_criterion_03_canonical_roundtrip():
    rng = np.random.default_rng(103)
    worst_rt = worst_block = worst_h = worst_omega = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 6))
        spec = random_dbc_spec(n, rng)
        l = build_generator(spec)
        extracted, rep = extract_canonical(Superoperator(spec.sigma, l))
        worst_rt = max(worst_rt, rep.roundtrip_error)
        worst_block = max(
            worst_block, rep.block_residual, rep.pairing_residual, rep.offblock_residual
        )
        worst_h = max(worst_h, rep.hamiltonian_norm, rep.hamiltonian_hat_norm)
        dom = np.max(
            np.abs(np.sort(extracted.omegas()) - np.sort(spec.omegas()))
        )
        worst_omega = max(worst_omega, float(dom))
    ok = worst_rt < 1e-9 and worst_block < 1e-9 and worst_h < 1e-9 and worst_omega < 1e-9
    report(
        3,
        ok,
        f"canonical round-trip: generator {worst_rt:.3e}, blocks {worst_block:.3e}, "
        f"H {worst_h:.3e}, omega multisets {worst_omega:.3e}",
    )


def test_criterion_04_inner_product_equivalences():
    rng = np.random.default_rng(104)

    worst = 0.0
    specs = [random_dbc_spec(int(rng.integers(2, 6)), rng) for _ in range(10)]
    specs.append(fermi_ou(2, 1.0, [1.0, 2.0]).spec)
    for spec in specs:
        l = build_generator(spec)
        for s in (0.0, 0.25, 0.5, 0.75):
            worst = max(
                worst, self_adjointness_residual(l, weight_superoperator_s(spec.sigma, s))
            )
        for f in (np.sqrt, bkm_weight, lambda t: (1 + t) / 2):
            worst = max(
                worst, self_adjointness_residual(l, weight_superoperator_f(spec.sigma, f))
            )
    u = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    v1 = np.array([1.0, 1.0]) / np.sqrt(2)
    v2 = np.array([1.0, 2.0]) / np.sqrt(5)
    l_bad, sigma_bad, rep = kms_counterexample(u, v1, v2)
    sigma_exact = np.linalg.norm(sigma_bad.rho - np.array([[2, 3], [3, 5]]) / 7.0)
    ok = (
        worst < 1e-9
        and rep["kms_residual"] < 1e-10
        and rep["gns_residual"] > 1e-3
        and sigma_exact < 1e-14
    )
    report(
        4,
        ok,
        f"weighted self-adjointness {worst:.3e}; counterexample KMS {rep['kms_residual']:.3e}, "
        f"GNS {rep['gns_residual']:.3e}, sigma defect {sigma_exact:.1e}",
    )


def test_criterion_05_fermi_spectrum():
    rng = np.random.default_rng(105)
    singles = [(0, 0), (1, 0), (0, 1), (1, 1)]
    worst = 0.0
    for m in (1, 2, 3):
        for beta in (0.0, 0.5, 2.0):
            energies = rng.uniform(0.5, 2.5, size=m)
            model = fermi_ou(m, beta, energies)
            l = build_generator(model.spec)
            evals = np.linalg.eigvals(l)
            worst = max(worst, float(np.max(np.abs(evals.imag))))
            alphas = [()]
            for _ in range(m):
                alphas = [a + (s,) for a in alphas for s in singles]
            predicted = sorted(model.krawtchouk_eigenvalue(a) for a in alphas)
            got = np.sort(evals.real)
            worst = max(worst, float(np.max(np.abs(got - np.array(predicted)))))
    report(5, worst < 1e-9, f"Fermi spectra match the eigenvalue law, worst gap {worst:.3e}")


def test_criterion_06_intertwining_and_decay():
    rng = np.random.default_rng(106)
    model = fermi_ou(2, 1.0, [1.0, 2.0])
    rep = intertwining_rates(model.spec, model.skew_derivations(), kind="skew")
    expect = np.repeat(np.cosh(model.beta * model.energies / 2.0), 2)
    rate_gap = float(np.max(np.abs(np.sort(rep.rates) - np.sort(expect))))
    lam = rep.lam
    ok = rate_gap < 1e-9 and lam is not None
    worst_violation = -np.inf
    grid = np.linspace(0.0, 3.0, 13)
    for _ in range(10):
        rho0 = random_density(4, rng)
        rows = entropy_trajectory(model.spec, rho0, grid, lam=lam)
        for r in rows:
            worst_violation = max(worst_violation, r.entropy - r.entropy_bound)
    ok = ok and worst_violation <= 1e-10
    report(
        6,
        ok,
        f"skew rates gap {rate_gap:.3e}, lambda {lam}, worst bound violation {worst_violation:.3e}",
    )


def test_criterion_07_generalized_lsi():
    rng = np.random.default_rng(107)
    model = fermi_ou(2, 1.0, [1.0, 2.0])
    lam = model.decay_rate()
    worst = np.inf
    for _ in range(100):
        rho = random_density(4, rng)
        ok, margin = lsi_check(model.spec, rho, lam)
        assert ok
        worst = min(worst, margin)
    report(7, worst > -1e-9, f"log-Sobolev margin over 100 states, minimum {worst:.3e}")


def test_criterion_08_classical_restriction():
    worst_row = worst_db = worst_gibbs = 0.0
    for m, beta, energies in ((1, 2.0, [1.0]), (2, 1.0, [1.0, 2.0])):
        model = fermi_ou(m, beta, energies)
        rate = hypercube_restriction(model)
        worst_row = max(worst_row, rate.row_sum_residual())
        worst_db = max(worst_db, rate.detailed_balance_residual())
        # stationary vector is the Gibbs measure on occupation numbers
        weights = np.array(
            [
                np.exp(-beta * sum(e * ((x >> j) & 1) for j, e in enumerate(energies)))
                for x in range(2**m)
            ]
        )
        weights /= weights.sum()
        worst_gibbs = max(worst_gibbs, float(np.max(np.abs(rate.stationary - weights))))
    m1 = fermi_ou(1, 2.0, [1.0])
    r1 = hypercube_restriction(m1)
    direct_ok = abs(r1.rates[0, 1] - np.exp(-1.0)) < 1e-11 and abs(
        r1.rates[1, 0] - np.exp(1.0)
    ) < 1e-11
    from qmsflow.models import printed_hypercube_rates

    cmp = printed_hypercube_rates(m1)
    ok = worst_row < 1e-11 and worst_db < 1e-11 and worst_gibbs < 1e-11 and direct_ok
    report(
        8,
        ok,
        f"rows {worst_row:.2e}, balance {worst_db:.2e}, Gibbs {worst_gibbs:.2e}; "
        f"m=1 direct (e^-1, e^+1) vs printed {cmp['printed']['1->0']:.4f} reported",
    )


def test_criterion_09_metric_soundness():
    rng = np.random.default_rng(109)
    worst_eig = np.inf
    minimal_ok = True
    worst_energy = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 5))
        spec = random_dbc_spec(n, rng, ergodic=True)
        rho = random_density(n, rng)
        g = metric_tensor(spec, rho, traceless_hermitian_basis(n))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(g)[0]))

        x = random_matrix(rng, n)
        x = 0.5 * (x + dag(x))
        rho_dot = x - np.trace(x).real / n * np.eye(n)
        dec = continuity_solve(spec, rho, rho_dot)
        velocity = grad(spec, dec.potential)
        lap = weighted_laplacian_super(spec, rho)
        for _ in range(20):
            noise = [random_matrix(rng, n) for _ in range(spec.njumps)]
            from qmsflow.calculus import divergence

            sol, *_ = np.linalg.lstsq(lap, vec(divergence(spec, noise)), rcond=None)
            xmat = unvec(sol, n)
            alt = [
                v + rho_div(rho, w, nj - rho_mult(rho, w, d))
                for v, (_, w), nj, d in zip(
                    velocity, spec.jumps, noise, grad(spec, xmat)
                )
            ]
            alt_norm = sum(
                hs_inner(a, rho_mult(rho, w, a)).real
                for (_, w), a in zip(spec.jumps, alt)
            )
            minimal_ok = minimal_ok and dec.metric_value <= alt_norm + 1e-10

        # energy identity by central differences
        t, h = 0.2, 1e-5
        entropies = []
        grid = (t - h, t, t + h)
        for tt, rt in zip(grid, dual_orbit(spec, rho.rho, grid)):
            rt = DensityState.from_matrix(0.5 * (rt + dag(rt)))
            entropies.append(relative_entropy(rt, spec.sigma))
            if tt == t:
                rho_t = rt
        slope = (entropies[2] - entropies[0]) / (2 * h)
        dec_t = continuity_solve(spec, rho_t, apply_dual(spec, rho_t.rho))
        worst_energy = max(worst_energy, abs(slope + dec_t.metric_value))
    ok = worst_eig > -1e-10 and minimal_ok and worst_energy < 1e-6
    report(
        9,
        ok,
        f"tensor min eigenvalue {worst_eig:.3e}, minimal-norm beats 20x20 alternatives: "
        f"{minimal_ok}, energy identity {worst_energy:.3e}",
    )


def test_criterion_10_metric_monotonicity():
    rng = np.random.default_rng(110)
    model = fermi_ou(1, 1.0, [1.0])
    worst = np.inf
    for _ in range(100):
        rho = random_density(2, rng)
        a = random_matrix(rng, 2)
        omega = float(rng.uniform(-2.0, 2.0))
        t = float(rng.uniform(0.0, 2.0))
        ok, lhs, rhs = metric_monotonicity_check(model.spec, rho, a, omega, t)
        assert ok
        worst = min(worst, (rhs - lhs) / max(1.0, abs(rhs)))
    report(10, worst > -1e-10, f"semigroup contraction over 100 draws, worst slack {worst:.3e}")


def test_criterion_11_geodesic_talagrand():
    rng = np.random.default_rng(111)
    model = fermi_ou(1, 1.0, [1.0])
    lam = model.decay_rate()
    rate = hypercube_restriction(model)
    worst_rel = 0.0
    for p0, p1 in (
        (np.array([0.9, 0.1]), np.array([0.3, 0.7])),
        (np.array([0.6, 0.4]), np.array([0.15, 0.85])),
        (np.array([0.8, 0.2]), np.array([0.5, 0.5])),
    ):
        rho0 = DensityState.from_matrix(np.diag(p0).astype(complex))
        rho1 = DensityState.from_matrix(np.diag(p1).astype(complex))
        gq = geodesic_distance(model.spec, rho0, rho1, segments=32)
        gc = classical_transport_distance(rate, p0, p1, segments=32)
        worst_rel = max(worst_rel, abs(gq.distance - gc.distance) / gc.distance)
    tal_ok = True
    worst_tightness = 0.0
    for _ in range(10):
        rho = random_density(2, rng)
        d_upper = geodesic_distance(model.spec, rho, model.spec.sigma, segments=32).distance
        bound = np.sqrt(2.0 * relative_entropy(rho, model.spec.sigma) / lam)
        worst_tightness = max(worst_tightness, d_upper / bound)
        tal_ok = tal_ok and d_upper <= 1.05 * bound
    ok = worst_rel < 0.02 and tal_ok
    report(
        11,
        ok,
        f"classical match {worst_rel:.4%}, Talagrand tightness max {worst_tightness:.4f}",
    )


def test_criterion_12_determinism(tmp_path):
    from qmsflow.cli import main

    ok1, lines1 = run_suite(42)
    ok2, lines2 = run_suite(42)
    in_process = ok1 and ok2 and lines1 == lines2
    out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    code1 = main(["verify", "--seed", "42", "--output", str(out1)])
    code2 = main(["verify", "--seed", "42", "--output", str(out2)])
    byte_identical = out1.read_bytes() == out2.read_bytes()
    ok = in_process and byte_identical and code1 == 0 and code2 == 0
    report(12, ok, f"verify --seed 42 byte-identical: {byte_identical}, all checks green: {ok1}")
