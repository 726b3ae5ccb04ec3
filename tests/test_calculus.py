from decimal import Decimal, localcontext

import numpy as np
import pytest

from qmsflow.calculus import (
    divergence,
    grad,
    log_mean,
    log_mean_dx,
    partial_deriv,
    rho_div,
    rho_mult,
    tilted_kernel,
)
from qmsflow.generators import build_generator, ergodicity
from qmsflow.linalg import apply_super, dag, hs_inner
from qmsflow.models import clifford, random_dbc_spec, random_density
from qmsflow.states import DensityState, inner_s

from conftest import (
    chain_rule_residual,
    dirichlet_form,
    laplacian,
    log_mean_dxx,
    log_mean_dxy,
    monomial,
    random_matrix,
    rho_mult_super,
)


class TestDerivations:
    def test_annihilates_identity(self, rng):
        spec = random_dbc_spec(3, rng)
        for j in range(spec.njumps):
            assert np.allclose(partial_deriv(spec, j, np.eye(3)), 0.0)

    def test_self_commutator_vanishes(self, rng):
        spec = random_dbc_spec(3, rng)
        for j, (v, _) in enumerate(spec.jumps):
            assert np.allclose(partial_deriv(spec, j, v), 0.0)

    def test_leibniz_rule(self, rng):
        spec = random_dbc_spec(4, rng)
        a, b = random_matrix(rng, 4), random_matrix(rng, 4)
        for j in range(spec.njumps):
            lhs = partial_deriv(spec, j, a @ b)
            rhs = partial_deriv(spec, j, a) @ b + a @ partial_deriv(spec, j, b)
            assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, np.linalg.norm(lhs))

    def test_index_out_of_range(self, rng):
        spec = random_dbc_spec(2, rng)
        with pytest.raises(IndexError):
            partial_deriv(spec, spec.njumps, np.eye(2))

    def test_skew_derivative_lowers_krawtchouk(self, fermi_m1):
        # the degree-lowering calculus sends K_{(1,1)} to cosh(be/2) K_{(1,0)}
        model = fermi_m1
        w, v = model.skew_derivations()[0]
        k11 = model.krawtchouk([(1, 1)])
        k10 = model.krawtchouk([(1, 0)])
        image = w @ (v @ k11 - k11 @ v)
        assert np.linalg.norm(image - np.cosh(1.0) * k10) < 1e-12


class TestDivergence:
    def test_zero_field(self, rng):
        spec = random_dbc_spec(3, rng)
        w = grad(spec, np.eye(3))
        assert np.allclose(divergence(spec, w), 0.0)

    def test_adjoint_to_gradient(self, rng):
        spec = random_dbc_spec(3, rng)
        a = random_matrix(rng, 3)
        w = [random_matrix(rng, 3) for _ in range(spec.njumps)]
        lhs = hs_inner(a, divergence(spec, w))
        rhs = -sum(hs_inner(d, wj) for d, wj in zip(grad(spec, a), w))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_traceless_range(self, rng):
        spec = random_dbc_spec(4, rng)
        w = [random_matrix(rng, 4) for _ in range(spec.njumps)]
        assert abs(np.trace(divergence(spec, w))) < 1e-12

    def test_div_grad_is_laplacian(self, rng):
        spec = random_dbc_spec(3, rng)
        l0 = laplacian(spec)
        a = random_matrix(rng, 3)
        lhs = divergence(spec, grad(spec, a))
        rhs = apply_super(l0, a)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_component_count_enforced(self, rng):
        spec = random_dbc_spec(2, rng)
        with pytest.raises(ValueError):
            divergence(spec, [np.eye(2)] * (spec.njumps + 1))


class TestLaplacian:
    def test_negative_semidefinite(self, rng):
        spec = random_dbc_spec(3, rng)
        l0 = laplacian(spec)
        assert np.linalg.norm(l0 - dag(l0)) < 1e-12 * np.linalg.norm(l0)
        assert np.max(np.linalg.eigvalsh(0.5 * (l0 + dag(l0)))) < 1e-11

    def test_number_operator_on_monomials(self, fermi_infinite_n2):
        # at the tracial state the generator is its own Laplacian
        spec = fermi_infinite_n2
        l0 = laplacian(spec)
        ctx = clifford(2)
        for alpha in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            qa = monomial(ctx, alpha)
            resid = np.linalg.norm(apply_super(l0, qa) + sum(alpha) * qa)
            assert resid < 1e-11

    def test_null_dimension_matches_commutant(self, rng):
        for _ in range(3):
            spec = random_dbc_spec(3, rng)
            l0 = laplacian(spec)
            evals = np.linalg.eigvalsh(0.5 * (l0 + dag(l0)))
            null_dim = int(np.sum(np.abs(evals) < 1e-9 * max(1.0, np.abs(evals[0]))))
            assert null_dim == ergodicity(spec)

    def test_generates_tracial_dbc_semigroup(self, rng):
        from qmsflow.generators import Superoperator, certify_detailed_balance, check_complete_positivity
        from qmsflow.states import DensityState

        spec = random_dbc_spec(3, rng)
        l0 = Superoperator(DensityState.from_matrix(np.eye(3) / 3), laplacian(spec))
        rep = certify_detailed_balance(l0)
        assert rep.gns_dbc
        ok, _ = check_complete_positivity(l0)
        assert ok

    def test_poisson_solvable_iff_traceless(self, rng):
        spec = random_dbc_spec(3, rng, ergodic=True)
        l0 = laplacian(spec)
        b = random_matrix(rng, 3)
        b -= np.trace(b) / 3 * np.eye(3)
        x, *_ = np.linalg.lstsq(l0, b.reshape(-1, order="F"), rcond=None)
        resid = np.linalg.norm(l0 @ x - b.reshape(-1, order="F"))
        assert resid < 1e-10 * np.linalg.norm(b)
        # with a trace the residual is exactly the trace component
        b_bad = b + 0.5 * np.eye(3)
        x, *_ = np.linalg.lstsq(l0, b_bad.reshape(-1, order="F"), rcond=None)
        resid_bad = np.linalg.norm(l0 @ x - b_bad.reshape(-1, order="F"))
        assert resid_bad > 0.1


class TestDirichletForm:
    def test_nonnegative_diagonal(self, rng):
        spec = random_dbc_spec(3, rng)
        a = random_matrix(rng, 3)
        assert dirichlet_form(spec, 0.5, a, a).real >= 0.0

    def test_vanishes_on_identity(self, rng):
        spec = random_dbc_spec(3, rng)
        a = random_matrix(rng, 3)
        assert abs(dirichlet_form(spec, 0.3, np.eye(3), a)) < 1e-12

    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_represents_generator(self, rng, s):
        spec = random_dbc_spec(3, rng)
        l = build_generator(spec)
        for _ in range(10):
            a, b = random_matrix(rng, 3), random_matrix(rng, 3)
            lhs = dirichlet_form(spec, s, b, a)
            rhs = -inner_s(spec.sigma, s, b, apply_super(l, a))
            assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


class TestTiltedMultiplication:
    def test_tracial_zero_tilt_scales(self, rng):
        n = 4
        rho = DensityState.from_matrix(np.eye(n) / n)
        a = random_matrix(rng, n)
        assert np.allclose(rho_mult(rho, 0.0, a), a / n)

    def test_diagonal_entries_at_tilt(self, rng):
        rho = random_density(3, rng)
        omega = 1.3
        kern = tilted_kernel(rho, omega)
        lam = rho.eigenvalues
        expect = 2 * np.sinh(omega / 2) / omega * lam
        assert np.allclose(np.diagonal(kern), expect)

    def test_inverse(self, rng):
        rho = random_density(4, rng)
        a = random_matrix(rng, 4)
        for omega in (-2.0, 0.0, 1.7):
            back = rho_div(rho, omega, rho_mult(rho, omega, a))
            assert np.linalg.norm(back - a) < 1e-11 * np.linalg.norm(a)

    def test_star_relation(self, rng):
        rho = random_density(3, rng)
        a = random_matrix(rng, 3)
        lhs = dag(rho_mult(rho, 0.9, a))
        rhs = rho_mult(rho, -0.9, dag(a))
        assert np.allclose(lhs, rhs)

    def test_chain_rule_many(self, rng):
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 7))
            rho = random_density(n, rng)
            v = random_matrix(rng, n)
            omega = float(rng.uniform(-3, 3))
            worst = max(worst, chain_rule_residual(rho, v, omega))
        assert worst < 1e-10

    def test_zero_tilt_chain_rule(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            rho = random_density(n, rng)
            v = random_matrix(rng, n)
            lhs = rho_mult(rho, 0.0, v @ rho.log() - rho.log() @ v)
            rhs = v @ rho.rho - rho.rho @ v
            assert np.linalg.norm(lhs - rhs) < 1e-10 * max(np.linalg.norm(rhs), 1e-300)

    def test_positive_definite_superoperator(self, rng):
        rho = random_density(3, rng)
        s = rho_mult_super(rho, 0.8)
        assert np.linalg.norm(s - dag(s)) < 1e-12 * np.linalg.norm(s)
        assert np.min(np.linalg.eigvalsh(0.5 * (s + dag(s)))) > 0

    def test_superoperator_matches_direct(self, rng):
        rho = random_density(3, rng)
        a = random_matrix(rng, 3)
        via_super = apply_super(rho_mult_super(rho, -1.1), a)
        assert np.allclose(via_super, rho_mult(rho, -1.1, a))
        via_inv = apply_super(rho_mult_super(rho, -1.1, inverse=True), a)
        assert np.allclose(via_inv, rho_div(rho, -1.1, a))

    def test_continuity_in_the_state(self, rng):
        rho = random_density(3, rng)
        a = random_matrix(rng, 3)
        base = rho_mult(rho, 0.6, a)
        for eps in (1e-4, 1e-5):
            h = random_matrix(rng, 3)
            h = 0.5 * (h + dag(h))
            h *= eps / np.linalg.norm(h)
            pert = DensityState.from_matrix(rho.rho + h - np.trace(h).real * rho.rho)
            diff = np.linalg.norm(rho_mult(pert, 0.6, a) - base)
            assert diff < 50.0 * eps * np.linalg.norm(a)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            DensityState.from_matrix(np.diag([1.0, 0.0]).astype(complex))


class TestLogMean:
    def test_limit_on_diagonal(self):
        assert log_mean(2.0, 2.0) == pytest.approx(2.0)

    def test_closed_form(self):
        assert log_mean(4.0, 1.0) == pytest.approx(3.0 / np.log(4.0))

    def test_series_matches_closed_form_near_coincidence(self):
        x = 1.0
        for delta in (1e-8, 1e-10, 1e-12):
            # straddles the switching threshold
            approx = log_mean(x, x + delta)
            assert approx == pytest.approx(x + delta / 2, rel=1e-10)

    def test_symmetric_and_between(self, rng):
        xs = rng.uniform(0.1, 5.0, size=50)
        ys = rng.uniform(0.1, 5.0, size=50)
        lm = log_mean(xs, ys)
        assert np.allclose(lm, log_mean(ys, xs))
        assert np.all(lm >= np.minimum(xs, ys) - 1e-12)
        assert np.all(lm <= 0.5 * (xs + ys) + 1e-12)


def _log_mean_reference(x: float, y: float) -> float:
    """LM(x, y) at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        x, y = Decimal(x), Decimal(y)
        return float((x - y) / (x.ln() - y.ln()) if x != y else x)


class TestLogMeanPrecision:
    # log x - log y cancels just above the series switch at 1e-9
    GAPS = (0.0, 1e-12, 1e-9, 2e-9, 1e-7, 1e-3, 0.5)

    @pytest.mark.parametrize("gap", GAPS)
    def test_matches_high_precision(self, gap):
        for y in (1e-6, 0.3, 7.0):
            for x in (y * (1.0 + gap), y / (1.0 + gap)):
                want = _log_mean_reference(x, y)
                assert float(log_mean(x, y)) == pytest.approx(want, rel=1e-14)
                assert float(log_mean(y, x)) == pytest.approx(want, rel=1e-14)

    def test_gap_beyond_float_range(self):
        # (x - y)/y overflows; the logarithms are taken separately
        want = _log_mean_reference(1.0, 1e-320)
        assert float(log_mean(1.0, 1e-320)) == pytest.approx(want, rel=1e-14)


def _log_mean_dx_reference(x: float, y: float):
    """dLM/dx at 60 digits: the closed form and a central difference."""
    with localcontext() as ctx:
        ctx.prec = 60
        x, y = Decimal(x), Decimal(y)

        def lm(a):
            return (a - y) / (a.ln() - y.ln()) if a != y else a

        h = Decimal("1e-16") * x
        difference = (lm(x + h) - lm(x - h)) / (2 * h)
        if x == y:
            closed = Decimal("0.5")
        else:
            big_l = (x / y).ln()
            closed = (big_l - (x - y) / x) / (big_l * big_l)
        return float(closed), float(difference)


class TestLogMeanDx:
    # relative gaps on both sides of the series/closed-form switch at 1e-2
    GAPS = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.999e-2, 1.001e-2, 0.3, 3.0)

    @pytest.mark.parametrize("gap", GAPS)
    def test_matches_high_precision(self, gap):
        for y in (1e-6, 0.37, 5.0):
            for x in (y * (1.0 + gap), y / (1.0 + gap)):
                closed, difference = _log_mean_dx_reference(x, y)
                assert closed == pytest.approx(difference, rel=1e-20)
                assert float(log_mean_dx(x, y)) == pytest.approx(closed, rel=1e-12)

    def test_diagonal_limit_and_symmetry_relation(self, rng):
        assert float(log_mean_dx(2.0, 2.0)) == 0.5
        xs = rng.uniform(0.1, 5.0, size=50)
        ys = rng.uniform(0.1, 5.0, size=50)
        # LM is 1-homogeneous: x dLM/dx + y dLM/dy = LM
        euler = xs * log_mean_dx(xs, ys) + ys * log_mean_dx(ys, xs)
        assert np.allclose(euler, log_mean(xs, ys), rtol=1e-12)


def _log_mean_second_reference(x: float, y: float):
    """(LM_xx, LM_xy) at 80 digits: the closed forms, and the same from
    central second differences."""
    with localcontext() as ctx:
        ctx.prec = 80
        x, y = Decimal(x), Decimal(y)

        def lm(a, b):
            return (a - b) / (a.ln() - b.ln()) if a != b else a

        if x == y:
            closed = (-1 / (6 * x), 1 / (6 * x))
        else:
            big_l = (x / y).ln()
            c = ((x + y) * big_l - 2 * (x - y)) / big_l**3
            closed = (-c / (x * x), c / (x * y))
        hx, hy = Decimal("1e-20") * x, Decimal("1e-20") * y
        dxx = (lm(x + hx, y) - 2 * lm(x, y) + lm(x - hx, y)) / (hx * hx)
        dxy = (lm(x + hx, y + hy) - lm(x + hx, y - hy) - lm(x - hx, y + hy)
               + lm(x - hx, y - hy)) / (4 * hx * hy)
        return [float(v) for v in closed], [float(v) for v in (dxx, dxy)]


class TestLogMeanSecondPartials:
    # relative gaps on both sides of the series/closed-form switch, which
    # is at |x - y| = 0.1 max(x, y), a gap of 1/9
    GAPS = (0.0, 1e-12, 1e-9, 1e-5, 1e-2, 0.111, 0.112, 0.5, 3.0)

    @pytest.mark.parametrize("gap", GAPS)
    def test_matches_high_precision(self, gap):
        for y in (1e-6, 0.37, 5.0):
            for x in (y * (1.0 + gap), y / (1.0 + gap)):
                closed, difference = _log_mean_second_reference(x, y)
                assert closed == pytest.approx(difference, rel=1e-15)
                assert float(log_mean_dxx(x, y)) == pytest.approx(closed[0], rel=1e-12)
                assert float(log_mean_dxy(x, y)) == pytest.approx(closed[1], rel=1e-12)
                assert float(log_mean_dxy(y, x)) == pytest.approx(closed[1], rel=1e-12)

    def test_gap_beyond_float_range(self):
        # x/y overflows; the logarithms are taken separately.  LM_xy is
        # about 1.8e314 here, beyond float range, so it rounds to inf
        closed, _ = _log_mean_second_reference(1.0, 1e-320)
        assert float(log_mean_dxx(1.0, 1e-320)) == pytest.approx(closed[0], rel=1e-12)
        assert float(log_mean_dxy(1.0, 1e-320)) == closed[1] == np.inf

    def test_homogeneity_and_concavity(self, rng):
        xs = rng.uniform(0.1, 5.0, size=50)
        ys = rng.uniform(0.1, 5.0, size=50)
        dxx = log_mean_dxx(xs, ys)
        # LM is 1-homogeneous, so (x, y) spans the null space of its Hessian
        assert np.allclose(xs * dxx + ys * log_mean_dxy(xs, ys), 0.0, atol=1e-12 * np.abs(dxx).max())
        assert np.all(dxx < 0) and np.all(log_mean_dxx(ys, xs) < 0)


def test_grad_annihilates_exactly_commutant(rng):
    spec = random_dbc_spec(3, rng, ergodic=True)
    assert ergodicity(spec) == 1
    g = grad(spec, np.eye(3))
    assert max(np.linalg.norm(x) for x in g) < 1e-12
    a = random_matrix(rng, 3)
    a -= np.trace(a) / 3 * np.eye(3)
    assert max(np.linalg.norm(x) for x in grad(spec, a)) > 1e-3
