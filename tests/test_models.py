import numpy as np
import pytest

from qmsflow.generators import (
    GeneratorSpec,
    build_generator,
    certify_detailed_balance,
    ergodicity,
)
from qmsflow.canonical import extract_canonical
from qmsflow.linalg import apply_super, dag
from qmsflow.models import (
    clifford,
    fermi_ou,
    fermi_ou_infinite,
    hypercube_projections,
    hypercube_restriction,
    kms_counterexample,
    printed_hypercube_rates,
    random_dbc_spec,
    skew_derivations_infinite,
)
from qmsflow.states import inner_s

from conftest import monomial, random_matrix

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestClifford:
    def test_two_generators_are_paulis(self):
        ctx = clifford(2)
        assert np.allclose(ctx.generators[0], PAULI_X)
        assert np.allclose(ctx.generators[1], PAULI_Y)
        assert np.allclose(ctx.principal_unitary, -PAULI_Z)
        assert np.allclose(ctx.principal_unitary @ ctx.principal_unitary, np.eye(2))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_car_exact(self, n):
        ctx = clifford(n)
        eye = np.eye(ctx.dim)
        for i, qi in enumerate(ctx.generators):
            assert np.array_equal(qi, dag(qi))
            for j, qj in enumerate(ctx.generators):
                acomm = qi @ qj + qj @ qi
                target = 2 * eye if i == j else np.zeros_like(acomm)
                assert np.array_equal(acomm, target)

    def test_entries_are_gaussian_integers(self):
        ctx = clifford(6)
        for q in ctx.generators:
            vals = np.unique(np.round(q.reshape(-1), 12))
            assert set(vals).issubset({0, 1, -1, 1j, -1j})

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_monomials_traceless(self, n):
        ctx = clifford(n)
        for bits in range(1, 2**n):
            alpha = [(bits >> j) & 1 for j in range(n)]
            qa = monomial(ctx, alpha)
            assert abs(np.trace(qa)) < 1e-12

    def test_principal_automorphism_flips_generators(self):
        # Gamma(A) = W A W for an even count
        ctx = clifford(4)
        w = ctx.principal_unitary
        for q in ctx.generators:
            assert np.linalg.norm(w @ q @ w + q) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            clifford(0)
        with pytest.raises(ValueError):
            clifford(11)


class TestInfiniteTemperature:
    def test_two_generator_spectrum(self, fermi_infinite_n2):
        l = build_generator(fermi_infinite_n2)
        assert np.allclose(
            sorted(np.linalg.eigvals(l).real), [-2, -1, -1, 0], atol=1e-12
        )

    def test_number_operator_action(self):
        ctx = clifford(4)
        spec = fermi_ou_infinite(4)
        l = build_generator(spec)
        for bits in range(16):
            alpha = [(bits >> j) & 1 for j in range(4)]
            qa = monomial(ctx, alpha)
            resid = np.linalg.norm(apply_super(l, qa) + sum(alpha) * qa)
            assert resid < 1e-11

    def test_jumps_self_adjoint_unitary(self, fermi_infinite_n2):
        for v, w in fermi_infinite_n2.jumps:
            assert w == 0.0
            v2 = 2 * v  # jumps carry the 1/2 scale
            assert np.allclose(v2, dag(v2))
            assert np.allclose(v2 @ v2, np.eye(2))

    def test_ergodic(self, fermi_infinite_n2):
        assert ergodicity(fermi_infinite_n2) == 1

    def test_skew_equals_rotated_plain(self, rng):
        # the pair (W / (2i), V_j), V_j = i W Q_j, applies
        # d-check_j A = (Q_j A - Gamma(A) Q_j)/2 with Gamma(A) = W A W
        ctx = clifford(4)
        w = ctx.principal_unitary
        for q, (dw, v) in zip(ctx.generators, skew_derivations_infinite(ctx)):
            assert np.array_equal(dw, w / 2j) and np.array_equal(v, 1j * w @ q)
            a = random_matrix(rng, 4)
            expect = 0.5 * (q @ a - w @ a @ w @ q)
            assert np.linalg.norm(dw @ (v @ a - a @ v) - expect) < 1e-13

    def test_rejects_odd(self):
        with pytest.raises(ValueError, match="even"):
            fermi_ou_infinite(3)


class TestFiniteTemperature:
    def test_infinite_temperature_limit(self):
        small = fermi_ou(1, 1e-3, [1.0])
        zero = fermi_ou_infinite(2)
        l_small = build_generator(small.spec)
        l_zero = build_generator(zero)
        assert np.linalg.norm(l_small - l_zero, 2) < 1e-2

    def test_annihilator_decay_rate(self, fermi_m1):
        l = build_generator(fermi_m1.spec)
        z = fermi_m1.annihilators[0]
        resid = np.linalg.norm(apply_super(l, z) + np.cosh(1.0) * z)
        assert resid < 1e-12

    def test_krawtchouk_eigenvalues_m2(self, fermi_m2):
        l = build_generator(fermi_m2.spec)
        singles = [(0, 0), (1, 0), (0, 1), (1, 1)]
        for a1 in singles:
            for a2 in singles:
                k = fermi_m2.krawtchouk([a1, a2])
                lam = fermi_m2.krawtchouk_eigenvalue([a1, a2])
                resid = np.linalg.norm(apply_super(l, k) - lam * k)
                assert resid < 1e-10 * max(1.0, np.linalg.norm(k))

    def test_jump_modular_eigenvectors(self, fermi_m2):
        sig = fermi_m2.spec.sigma
        for v, w in fermi_m2.spec.jumps:
            resid = np.linalg.norm(sig.rho @ v @ sig.power(-1) - np.exp(-w) * v)
            assert resid < 1e-12

    def test_passes_all_certifications(self, fermi_m2):
        rep = certify_detailed_balance(build_generator(fermi_m2.spec), fermi_m2.spec.sigma)
        assert rep.gns_dbc
        assert max(rep.s_residuals.values()) < 1e-10
        assert rep.bkm_residual < 1e-10

    def test_number_projections_span_fixed_space(self, fermi_m2):
        # for energies independent over the integers the modular fixed
        # space is spanned by the hypercube projections
        from qmsflow.states import build_modular_basis

        model = fermi_ou(2, 1.0, [1.0, np.sqrt(2)])
        md = build_modular_basis(model.spec.sigma)
        zero_modes = [
            f for f, w in zip(md.combine(np.eye(md.size)), md.bohr_frequencies) if abs(w) < 1e-10
        ]
        assert len(zero_modes) == 4
        projs = hypercube_projections(model)
        # each zero mode lies in the span of the projections
        stack = np.array([p.reshape(-1) for p in projs]).T
        for f in zero_modes:
            coef, res, *_ = np.linalg.lstsq(stack, f.reshape(-1), rcond=None)
            resid = np.linalg.norm(stack @ coef - f.reshape(-1))
            assert resid < 1e-10

    def test_krawtchouk_orthogonal_all_s(self, fermi_m1):
        singles = [(0, 0), (1, 0), (0, 1), (1, 1)]
        kmats = [fermi_m1.krawtchouk([a]) for a in singles]
        for s in (0.0, 0.5, 1.0):
            gram = np.array(
                [[inner_s(fermi_m1.spec.sigma, s, a, b) for b in kmats] for a in kmats]
            )
            off = gram - np.diag(np.diagonal(gram))
            assert np.max(np.abs(off)) < 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.5])
    def test_gibbs_state_matches_matrix_exponential(self, m, beta):
        # sigma = e^{-beta h} / Z with h = sum_j e_j N_j, against scipy's Pade expm
        import scipy.linalg

        model = fermi_ou(m, beta, [1.0, 1.3, 1.7, 2.2][:m])
        h = sum(e * n for e, n in zip(model.energies, model.number_ops))
        gibbs = scipy.linalg.expm(-beta * h)
        expect = gibbs / np.trace(gibbs).real
        assert np.max(np.abs(model.spec.sigma.rho - expect)) <= 1e-15

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fermi_ou(5, 1.0, [1.0] * 5)
        with pytest.raises(ValueError):
            fermi_ou(2, -1.0, [1.0, 1.0])
        with pytest.raises(ValueError):
            fermi_ou(2, 1.0, [1.0])

    def test_cold_regime(self):
        # beta e = 8 pushes sigma's smallest eigenvalue to ~3e-4 of scale
        model = fermi_ou(1, 8.0, [1.0])
        l = build_generator(model.spec)
        rep = certify_detailed_balance(l, model.spec.sigma)
        assert rep.gns_dbc
        got = sorted(np.linalg.eigvals(l).real)
        c = np.cosh(4.0)
        assert np.allclose(got, [-2 * c, -c, -c, 0.0], atol=1e-9)
        extracted, report = extract_canonical(l, model.spec.sigma)
        assert report.roundtrip_error < 1e-9


def test_four_mode_scale():
    # dim 16 / superoperator 256x256: the advertised ceiling of the toolkit
    model = fermi_ou(4, 1.0, [1.0, 1.5, 2.0, 2.5])
    l = build_generator(model.spec)
    rep = certify_detailed_balance(l, model.spec.sigma)
    assert rep.gns_dbc
    extracted, report = extract_canonical(l, model.spec.sigma)
    assert extracted.njumps == 8
    assert report.roundtrip_error < 1e-12
    singles = [(0, 0), (1, 0), (0, 1), (1, 1)]
    alphas = [()]
    for _ in range(4):
        alphas = [a + (s,) for a in alphas for s in singles]
    predicted = sorted(model.krawtchouk_eigenvalue(a) for a in alphas)
    got = np.sort(np.linalg.eigvals(l).real)
    assert np.max(np.abs(got - predicted)) < 1e-11


class TestHypercube:
    def test_single_mode_rates(self, fermi_m1):
        rate = hypercube_restriction(fermi_m1)
        assert rate.rates[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)
        assert rate.rates[1, 0] == pytest.approx(np.exp(+1.0), abs=1e-12)

    def test_two_modes_structure(self, fermi_m2):
        rate = hypercube_restriction(fermi_m2)
        assert rate.size == 4
        off = rate.rates - np.diag(np.diagonal(rate.rates))
        nonzero = np.abs(off) > 1e-12
        assert nonzero.sum() == 8  # only single-coordinate flips
        for x in range(4):
            for y in range(4):
                if x != y and bin(x ^ y).count("1") != 1:
                    assert abs(rate.rates[x, y]) < 1e-12
        # coordinate factorization: the flip rate of bit j is independent
        # of the other coordinate
        assert rate.rates[0, 1] == pytest.approx(rate.rates[2, 3], abs=1e-12)
        assert rate.rates[0, 2] == pytest.approx(rate.rates[1, 3], abs=1e-12)

    def test_infinite_temperature_rates_equal(self):
        model = fermi_ou(2, 0.0, [1.0, 2.0])
        rate = hypercube_restriction(model)
        off = rate.rates[np.abs(rate.rates) > 1e-12]
        vals = off[off > 0]
        assert np.allclose(vals, vals[0])

    def test_printed_rate_discrepancy_documented(self, fermi_m1):
        cmp = printed_hypercube_rates(fermi_m1)
        # direct evaluation is the ground truth: e^{+-beta e/2}
        assert cmp["direct"]["1->0"] == pytest.approx(np.exp(1.0), abs=1e-12)
        assert cmp["direct"]["0->1"] == pytest.approx(np.exp(-1.0), abs=1e-12)
        # the closed form printed for this walk differs (cosh argument
        # doubled); both numbers are reported
        assert cmp["printed"]["1->0"] == pytest.approx(
            2 * np.cosh(2.0) / (1 + np.exp(-2.0)), abs=1e-12
        )
        assert cmp["printed"]["1->0"] != pytest.approx(cmp["direct"]["1->0"], rel=0.1)


class TestDepolarizing:
    def test_two_level_spectrum(self, depolarizing_n2):
        l = build_generator(depolarizing_n2)
        evals = sorted(np.linalg.eigvals(l).real)
        assert evals[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(evals[:3], evals[0])
        assert evals[0] < -1.0

    def test_invariant_state(self, depolarizing_n2):
        from qmsflow.generators import apply_dual

        resid = np.linalg.norm(apply_dual(depolarizing_n2, depolarizing_n2.sigma.rho))
        assert resid < 1e-12

    def test_ergodic_and_extractable(self, depolarizing_n2):
        assert ergodicity(depolarizing_n2) == 1
        l = build_generator(depolarizing_n2)
        extracted, report = extract_canonical(l, depolarizing_n2.sigma)
        assert report.roundtrip_error < 1e-10


class TestCounterexample:
    def setup_method(self):
        self.u = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        self.v1 = np.array([1.0, 1.0]) / np.sqrt(2)
        self.v2 = np.array([1.0, 2.0]) / np.sqrt(5)

    def test_printed_invariant_state(self):
        _, sigma, report = kms_counterexample(self.u, self.v1, self.v2)
        assert np.allclose(sigma.rho, np.array([[2, 3], [3, 5]]) / 7.0, atol=1e-14)
        assert report["a"] == pytest.approx(0.5)
        assert report["b"] == pytest.approx(0.2)

    def test_flags(self):
        l, sigma, report = kms_counterexample(self.u, self.v1, self.v2)
        assert report["unital"] < 1e-12
        assert report["sigma_invariant"] < 1e-11
        assert report["kms_residual"] < 1e-11
        assert report["gns_residual"] > 1e-3
        assert report["modular_commutation"] > 1e-3

    def test_dual_eigenvalues_on_v_span(self):
        # the dual of the Kraus map acts on span{|v_j><v_j|} with
        # eigenvalues 1 and 1 - a - b
        from qmsflow.linalg import sharp

        k1 = np.outer(self.v1, np.conj(self.u[0]))
        k2 = np.outer(self.v2, np.conj(self.u[1]))
        kk_dual = sharp(k1, dag(k1)) + sharp(k2, dag(k2))
        p1 = np.outer(self.v1, np.conj(self.v1))
        p2 = np.outer(self.v2, np.conj(self.v2))
        basis = np.array([p1.reshape(-1), p2.reshape(-1)]).T
        images = np.array(
            [apply_super(kk_dual, p1).reshape(-1), apply_super(kk_dual, p2).reshape(-1)]
        ).T
        coeffs, res, *_ = np.linalg.lstsq(basis, images, rcond=None)
        evals = sorted(np.linalg.eigvals(coeffs).real)
        assert evals[1] == pytest.approx(1.0, abs=1e-12)
        assert evals[0] == pytest.approx(1.0 - 0.5 - 0.2, abs=1e-12)

    def test_rejects_orthogonal_v(self):
        with pytest.raises(ValueError, match="orthogonal"):
            kms_counterexample(self.u, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


class TestRandomSpecs:
    def test_validates(self, rng):
        for _ in range(5):
            spec = random_dbc_spec(int(rng.integers(2, 6)), rng)
            GeneratorSpec(spec.sigma, spec.jumps)

    def test_ergodic_flag(self, rng):
        for _ in range(5):
            spec = random_dbc_spec(int(rng.integers(2, 6)), rng, ergodic=True)
            assert ergodicity(spec) == 1
