from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qmsflow.calculus import divergence, grad, log_mean, rho_div, rho_mult
from qmsflow.generators import build_adjoint, build_generator
from qmsflow.linalg import apply_super, dag, hs_inner, traceless_hermitian_basis, vec
from qmsflow.models import fermi_ou, hypercube_restriction, random_dbc_spec, random_density
from qmsflow.states import DensityState
from qmsflow.transport import (
    _ChainProblem,
    _MetricWorkspace,
    _PathProblem,
    classical_transport_distance,
    continuity_solve,
    geodesic_distance,
    metric_monotonicity_check,
    metric_tensor,
    riemannian_gradient_flow_check,
    weighted_laplacian_super,
)

from conftest import random_matrix


def random_traceless_hermitian(rng, n):
    x = random_matrix(rng, n)
    x = 0.5 * (x + dag(x))
    return x - np.trace(x).real / n * np.eye(n)


class TestContinuitySolve:
    def test_zero_tangent(self, rng):
        spec = random_dbc_spec(3, rng, ergodic=True)
        rho = random_density(3, rng)
        dec = continuity_solve(spec, rho, np.zeros((3, 3)))
        assert np.linalg.norm(dec.potential) < 1e-12
        assert dec.metric_value == pytest.approx(0.0, abs=1e-15)

    def test_solves_continuity_equation(self, rng):
        spec = random_dbc_spec(3, rng, ergodic=True)
        rho = random_density(3, rng)
        rho_dot = random_traceless_hermitian(rng, 3)
        dec = continuity_solve(spec, rho, rho_dot)
        resid = np.linalg.norm(rho_dot + divergence(spec, dec.field))
        assert resid < 1e-9 * max(1.0, np.linalg.norm(rho_dot))
        u = dec.potential
        assert np.linalg.norm(u - dag(u)) < 1e-10
        assert abs(np.trace(u)) < 1e-10

    def test_entropy_gradient_potential(self, rng):
        spec = random_dbc_spec(4, rng, ergodic=True)
        rho = random_density(4, rng)
        l_adj = build_adjoint(spec)
        rho_dot = apply_super(l_adj, rho.rho)
        rho_dot = 0.5 * (rho_dot + dag(rho_dot))
        dec = continuity_solve(spec, rho, rho_dot)
        expect = spec.sigma.log() - rho.log()
        expect -= np.trace(expect).real / 4 * np.eye(4)
        assert np.linalg.norm(dec.potential - expect) < 1e-8

    def test_metric_value_is_trace_pairing(self, rng):
        spec = random_dbc_spec(3, rng, ergodic=True)
        rho = random_density(3, rng)
        rho_dot = random_traceless_hermitian(rng, 3)
        dec = continuity_solve(spec, rho, rho_dot)
        assert dec.metric_value == pytest.approx(
            np.trace(dec.potential @ rho_dot).real, abs=1e-10
        )
        direct = sum(
            hs_inner(d, rho_mult(rho, w, d)).real
            for (_, w), d in zip(spec.jumps, grad(spec, dec.potential))
        )
        assert dec.metric_value == pytest.approx(direct, abs=1e-10)

    def test_minimal_norm_among_compatible_fields(self, rng):
        from qmsflow.linalg import unvec

        spec = random_dbc_spec(3, rng, ergodic=True)
        rho = random_density(3, rng)
        rho_dot = random_traceless_hermitian(rng, 3)
        dec = continuity_solve(spec, rho, rho_dot)
        velocity = grad(spec, dec.potential)
        lap = weighted_laplacian_super(spec, rho)
        for _ in range(20):
            # a flux with zero divergence perturbs the velocity field
            # without changing the continuity equation
            noise = [random_matrix(rng, 3) for _ in range(spec.njumps)]
            div_noise = divergence(spec, noise)
            x, *_ = np.linalg.lstsq(lap, vec(div_noise), rcond=None)
            xmat = unvec(x, 3)
            divfree = [
                noise_j - rho_mult(rho, w, d)
                for noise_j, (_, w), d in zip(noise, spec.jumps, grad(spec, xmat))
            ]
            alt = [
                v + rho_div(rho, w, a)
                for v, (_, w), a in zip(velocity, spec.jumps, divfree)
            ]
            resid = np.linalg.norm(
                rho_dot
                + divergence(
                    spec, [rho_mult(rho, w, a) for (_, w), a in zip(spec.jumps, alt)]
                )
            )
            assert resid < 1e-8 * max(1.0, np.linalg.norm(rho_dot))
            alt_norm = sum(
                hs_inner(a, rho_mult(rho, w, a)).real
                for (_, w), a in zip(spec.jumps, alt)
            )
            assert dec.metric_value <= alt_norm + 1e-10

    def test_rejects_non_ergodic(self, rng):
        sigma = random_density(2, rng)
        from qmsflow.generators import GeneratorSpec

        spec = GeneratorSpec.create(sigma, [])
        with pytest.raises(ValueError, match="ergodic"):
            continuity_solve(spec, sigma, np.zeros((2, 2)))

    def test_rejects_traceful_input(self, rng):
        spec = random_dbc_spec(2, rng, ergodic=True)
        with pytest.raises(ValueError, match="traceless"):
            continuity_solve(spec, spec.sigma, np.eye(2))


class TestMetricTensor:
    def test_full_rank_for_ergodic(self, rng):
        spec = random_dbc_spec(3, rng, ergodic=True)
        rho = random_density(3, rng)
        g = metric_tensor(spec, rho, traceless_hermitian_basis(3))
        evals = np.linalg.eigvalsh(g)
        assert evals[0] > 1e-12

    def test_depolarizing_is_isotropic(self, depolarizing_n2):
        rho = DensityState.from_matrix(np.eye(2) / 2)
        paulis = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        g = metric_tensor(depolarizing_n2, rho, paulis)
        assert np.allclose(g, g[0, 0] * np.eye(3), atol=1e-12)

    def test_bilinearity_consistency(self, rng):
        spec = random_dbc_spec(3, rng, ergodic=True)
        rho = random_density(3, rng)
        basis = traceless_hermitian_basis(3)
        g = metric_tensor(spec, rho, basis)
        a = rng.standard_normal(len(basis))
        rho_dot = sum(ak * bk for ak, bk in zip(a, basis))
        dec = continuity_solve(spec, rho, rho_dot)
        assert dec.metric_value == pytest.approx(float(a @ g @ a), rel=1e-9)


class TestGradientFlowIdentity:
    def test_random_specs(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            spec = random_dbc_spec(n, rng, ergodic=True)
            rho = random_density(n, rng)
            res = riemannian_gradient_flow_check(spec, rho)
            assert res["gradient_flow_residual"] < 1e-8
            assert res["energy_identity_mismatch"] < 1e-8 * max(1.0, res["metric_value"])

    def test_fixed_point(self, fermi_m2):
        res = riemannian_gradient_flow_check(fermi_m2.spec, fermi_m2.spec.sigma)
        assert res["metric_value"] == pytest.approx(0.0, abs=1e-12)

    def test_fermi_two_modes(self, fermi_m2, rng):
        rho = random_density(4, rng)
        res = riemannian_gradient_flow_check(fermi_m2.spec, rho)
        assert res["gradient_flow_residual"] < 1e-8


class TestGeodesics:
    def test_coincident_endpoints(self, fermi_m1_unit, rng):
        rho = random_density(2, rng)
        res = geodesic_distance(fermi_m1_unit.spec, rho, rho, segments=8)
        assert res.distance == pytest.approx(0.0, abs=1e-8)

    def test_symmetry(self, fermi_m1_unit, rng):
        rho0 = random_density(2, rng)
        rho1 = random_density(2, rng)
        a = geodesic_distance(fermi_m1_unit.spec, rho0, rho1, segments=16)
        b = geodesic_distance(fermi_m1_unit.spec, rho1, rho0, segments=16)
        assert abs(a.distance - b.distance) <= 0.01 * a.distance

    def test_matches_classical_chain_on_diagonal_endpoints(self, fermi_m1_unit):
        rate = hypercube_restriction(fermi_m1_unit)
        p0 = np.array([0.9, 0.1])
        p1 = np.array([0.25, 0.75])
        rho0 = DensityState.from_matrix(np.diag(p0).astype(complex))
        rho1 = DensityState.from_matrix(np.diag(p1).astype(complex))
        gq = geodesic_distance(fermi_m1_unit.spec, rho0, rho1, segments=32)
        gc = classical_transport_distance(rate, p0, p1, segments=32)
        assert abs(gq.distance - gc.distance) <= 0.02 * gc.distance

    def test_segment_actions_positive_and_sum(self, fermi_m1_unit, rng):
        rho0 = random_density(2, rng)
        rho1 = random_density(2, rng)
        res = geodesic_distance(fermi_m1_unit.spec, rho0, rho1, segments=8)
        assert np.all(res.segment_actions > -1e-14)
        assert res.action == pytest.approx(float(np.sum(res.segment_actions)))
        assert res.distance == pytest.approx(np.sqrt(res.action))

    def test_path_stays_positive(self, fermi_m1_unit, rng):
        rho0 = random_density(2, rng, min_eig=0.02)
        rho1 = random_density(2, rng, min_eig=0.02)
        res = geodesic_distance(fermi_m1_unit.spec, rho0, rho1, segments=8)
        for p in res.path:
            assert np.min(np.linalg.eigvalsh(p)) >= 1e-8 - 1e-14

    def test_rejects_boundary_endpoint(self, fermi_m1_unit):
        nearly = DensityState.from_matrix(np.diag([1 - 1e-9, 1e-9]).astype(complex))
        with pytest.raises(ValueError, match="positive"):
            geodesic_distance(fermi_m1_unit.spec, nearly, fermi_m1_unit.spec.sigma)

    def test_short_geodesics_match_local_metric(self, fermi_m1_unit, rng):
        # for nearby endpoints the distance reduces to the quadratic form
        # at the midpoint, an independent check of the whole solver stack
        spec = fermi_m1_unit.spec
        x = random_traceless_hermitian(rng, 2)
        x /= np.linalg.norm(x)
        for eps in (1e-2, 1e-3):
            rho1 = DensityState.from_matrix(spec.sigma.rho + eps * x)
            d = geodesic_distance(spec, spec.sigma, rho1, segments=8).distance
            mid = DensityState.from_matrix(0.5 * (spec.sigma.rho + rho1.rho))
            local = np.sqrt(continuity_solve(spec, mid, eps * x).metric_value)
            assert d == pytest.approx(local, rel=50 * eps)

    @pytest.mark.parametrize("segments", [0, -1])
    def test_rejects_segment_count_below_one(self, fermi_m1_unit, segments):
        sigma = fermi_m1_unit.spec.sigma
        with pytest.raises(ValueError, match="segments"):
            geodesic_distance(fermi_m1_unit.spec, sigma, sigma, segments=segments)

    def test_budget_exhaustion_flagged(self, fermi_m1_unit, rng):
        rho0 = random_density(2, rng)
        rho1 = random_density(2, rng)
        res = geodesic_distance(fermi_m1_unit.spec, rho0, rho1, segments=16, max_iter=3)
        assert not res.converged
        assert res.iterations == 3
        assert res.distance > 0  # best-so-far still returned


class TestMonotonicity:
    def test_time_zero_equality(self, fermi_m1_unit, rng):
        rho = random_density(2, rng)
        a = random_matrix(rng, 2)
        ok, lhs, rhs = metric_monotonicity_check(fermi_m1_unit.spec, rho, a, 0.7, 0.0)
        assert ok
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_random_sweep(self, fermi_m1_unit, rng):
        for _ in range(30):
            rho = random_density(2, rng)
            a = random_matrix(rng, 2)
            omega = float(rng.uniform(-2, 2))
            t = float(rng.uniform(0, 2))
            ok, lhs, rhs = metric_monotonicity_check(fermi_m1_unit.spec, rho, a, omega, t)
            assert ok

    def test_joint_convexity_midpoint(self, rng):
        # (rho, A) |-> <A, [rho]_w^{-1} A> at the midpoint never exceeds
        # the average of the endpoints
        for _ in range(20):
            n = int(rng.integers(2, 5))
            r1, r2 = random_density(n, rng), random_density(n, rng)
            a1, a2 = random_matrix(rng, n), random_matrix(rng, n)
            omega = float(rng.uniform(-2, 2))
            mid_rho = DensityState.from_matrix(0.5 * (r1.rho + r2.rho))
            mid_a = 0.5 * (a1 + a2)
            lhs = hs_inner(mid_a, rho_div(mid_rho, omega, mid_a)).real
            rhs = 0.5 * (
                hs_inner(a1, rho_div(r1, omega, a1)).real
                + hs_inner(a2, rho_div(r2, omega, a2)).real
            )
            assert lhs <= rhs + 1e-10 * max(1.0, abs(rhs))


class TestClassicalOracle:
    def test_coincident(self, fermi_m1_unit):
        rate = hypercube_restriction(fermi_m1_unit)
        p = np.array([0.5, 0.5])
        res = classical_transport_distance(rate, p, p, segments=8)
        assert res.distance == pytest.approx(0.0, abs=1e-10)

    def test_rejects_boundary(self, fermi_m1_unit):
        rate = hypercube_restriction(fermi_m1_unit)
        with pytest.raises(ValueError):
            classical_transport_distance(rate, np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    def test_segment_actions_match_per_edge_loop(self, fermi_m2, rng):
        # reference: K dp^T (L(mid) + 1 1^T/m)^{-1} dp, Laplacian built edge by edge
        rate = hypercube_restriction(fermi_m2)
        q = rate.rates
        p0 = np.array([0.7, 0.1, 0.1, 0.1])
        p1 = np.array([0.1, 0.2, 0.3, 0.4])
        problem = _ChainProblem(q, p0, p1, 6)
        y = problem.initial()
        y += 0.02 * rng.standard_normal(y.shape)
        y -= (y.sum(axis=1, keepdims=True) - 1.0) / 4
        full = problem.full(y)
        expected = []
        for left, right in zip(full[:-1], full[1:]):
            mid, dp = 0.5 * (left + right), right - left
            lap = np.ones((4, 4)) / 4
            for x in range(4):
                for z in range(x + 1, 4):
                    if q[x, z] > 1e-14 or q[z, x] > 1e-14:
                        w = log_mean(mid[x] * q[x, z], mid[z] * q[z, x])
                        lap[x, x] += w
                        lap[z, z] += w
                        lap[x, z] -= w
                        lap[z, x] -= w
            expected.append(6 * dp @ np.linalg.solve(lap, dp))
        assert np.allclose(problem.segment_actions(full), expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("segments", [0, -1])
    def test_rejects_segment_count_below_one(self, fermi_m1_unit, segments):
        rate = hypercube_restriction(fermi_m1_unit)
        p = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="segments"):
            classical_transport_distance(rate, p, p, segments=segments)

    def test_four_state_chain(self, fermi_m2):
        rate = hypercube_restriction(fermi_m2)
        p0 = np.array([0.7, 0.1, 0.1, 0.1])
        p1 = np.array([0.1, 0.2, 0.3, 0.4])
        res = classical_transport_distance(rate, p0, p1, segments=8, max_iter=200)
        assert res.distance > 0
        assert np.all([np.all(p > 0) for p in res.path])


class TestMetricAssembly:
    def test_matches_definition(self, rng):
        # M_{a,c} = sum_j <d_j B_a, [rho]_{omega_j} d_j B_c>, entry by entry
        spec = random_dbc_spec(3, rng, ergodic=True)
        ws = _MetricWorkspace(spec)
        rhos = [random_density(3, rng) for _ in range(3)]
        m = ws.metric_matrices(np.stack([r.rho for r in rhos]))
        for rho, mb in zip(rhos, m):
            direct = np.array([
                [
                    sum(
                        hs_inner(d_a, rho_mult(rho, w, d_c)).real
                        for (_, w), d_a, d_c in zip(spec.jumps, grad(spec, a), grad(spec, c))
                    )
                    for c in ws.basis
                ]
                for a in ws.basis
            ])
            assert np.allclose(mb, direct, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# exact action gradients against a central-difference oracle
# ---------------------------------------------------------------------------

GRADIENT_SEGMENTS = 5
GRADIENT_RTOL = 1e-6


def central_difference_gradient(action, y, h=1e-5, mean_zero=False):
    """Central-difference gradient of ``action`` at ``y``.

    With ``mean_zero`` each probe of point p moves along e_x - 1/m, so the
    result is the gradient projected onto mean-zero directions.
    """
    out = np.zeros_like(y)
    for idx in np.ndindex(*y.shape):
        step = np.zeros_like(y)
        if mean_zero:
            step[idx[0]] -= h / y.shape[1]
        step[idx] += h
        out[idx] = (action(y + step) - action(y - step)) / (2.0 * h)
    return out


def _diag_coords(ws, diagonals):
    return np.array([ws.coords(np.diag(d).astype(complex)) for d in diagonals])


# diagonals diag(a, b, b, c) keep the two one-particle levels of the
# energies-(1, 1) model degenerate along the whole path
DEGENERATE_DIAGONALS = (np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0),
                        np.array([1.0, -1.0, -1.0, 1.0]) / 2.0)


@lru_cache(maxsize=None)
def _quantum_case(name):
    """(problem, perturbation directions in coordinates)."""
    rng = np.random.default_rng(7)
    if name == "fermi-m1-diagonal":
        spec = fermi_ou(1, 1.0, [1.0]).spec
        rho0, rho1 = np.diag([0.9, 0.1]), np.diag([0.25, 0.75])
    elif name == "fermi-m2-degenerate":
        spec = fermi_ou(2, 1.0, [1.0, 1.0]).spec
        rho0, rho1 = np.eye(4) / 4, spec.sigma.rho
    elif name == "fermi-m2":
        spec = fermi_ou(2, 1.0, [1.0, 2.0]).spec
        rho0, rho1 = random_density(4, rng).rho, spec.sigma.rho
    else:
        spec = random_dbc_spec(3, rng, ergodic=True)
        rho0, rho1 = random_density(3, rng).rho, random_density(3, rng).rho
    ws = _MetricWorkspace(spec)
    problem = _PathProblem(ws, np.asarray(rho0, complex), np.asarray(rho1, complex),
                           GRADIENT_SEGMENTS)
    if name == "fermi-m2-degenerate":
        directions = _diag_coords(ws, DEGENERATE_DIAGONALS)
    else:
        directions = np.eye(ws.nb)
    return problem, directions


@lru_cache(maxsize=None)
def _classical_case(name):
    if name == "random-3":
        # a random reversible chain: Q_xy = s_xy sqrt(pi_y / pi_x)
        rng = np.random.default_rng(11)
        pi = rng.uniform(0.2, 1.0, 3)
        pi /= pi.sum()
        s = rng.uniform(0.3, 1.5, (3, 3))
        rates = (s + s.T) * np.sqrt(pi[None, :] / pi[:, None])
        np.fill_diagonal(rates, 0.0)
        np.fill_diagonal(rates, -rates.sum(axis=1))
        p0, p1 = np.array([0.6, 0.3, 0.1]), pi
    else:
        energies = {"fermi-m1-diagonal": [1.0], "fermi-m2-degenerate": [1.0, 1.0],
                    "fermi-m2": [1.0, 2.0]}[name]
        rate = hypercube_restriction(fermi_ou(len(energies), 1.0, energies))
        rates, pi = rate.rates, rate.stationary
        p0 = {"fermi-m1-diagonal": np.array([0.9, 0.1]),
              "fermi-m2-degenerate": np.full(4, 0.25),
              "fermi-m2": np.array([0.7, 0.1, 0.1, 0.1])}[name]
        p1 = np.array([0.25, 0.75]) if name == "fermi-m1-diagonal" else pi
    problem = _ChainProblem(rates, p0, p1, GRADIENT_SEGMENTS)
    m = len(p0)
    if name == "fermi-m2-degenerate":
        directions = np.array(DEGENERATE_DIAGONALS)
    else:
        directions = np.eye(m) - 1.0 / m
    return problem, directions


CASES = ["fermi-m1-diagonal", "fermi-m2-degenerate", "fermi-m2", "random-3"]


def _perturbed(y0, floor, perturbation, norm):
    """y0 + perturbation, scaled so no state drops below half of ``floor``."""
    size = norm(perturbation)
    return y0 if size == 0 else y0 + (0.5 * floor / size) * perturbation


def _quantum_path(name, coefficients):
    problem, directions = _quantum_case(name)
    y0 = problem.initial()
    n = problem.n

    def op_norm(p):
        return float(np.max(np.linalg.norm(problem.states(p) - np.eye(n) / n, ord=2,
                                           axis=(1, 2))))

    return problem, _perturbed(y0, problem.min_eigenvalue(y0), coefficients @ directions,
                               op_norm)


def _classical_path(name, coefficients):
    problem, directions = _classical_case(name)
    y0 = problem.initial()
    return problem, _perturbed(y0, problem.min_eigenvalue(y0), coefficients @ directions,
                               lambda p: float(np.max(np.abs(p))))


def _close(exact, oracle):
    return np.linalg.norm(exact - oracle) <= GRADIENT_RTOL * np.linalg.norm(oracle)


def _coefficients(data, name, case):
    directions = case(name)[1]
    return data.draw(hnp.arrays(np.float64, (GRADIENT_SEGMENTS - 1, len(directions)),
                                elements=st.floats(-1.0, 1.0)))


GRADIENT_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True, database=None)


class TestExactGradients:
    @pytest.mark.parametrize("name", CASES)
    def test_quantum_on_straight_path(self, name):
        problem, _ = _quantum_case(name)
        y = problem.initial()
        oracle = central_difference_gradient(problem.action, y)
        assert _close(problem.gradient(y), oracle)

    def test_degenerate_case_has_degenerate_midpoints(self):
        # makes sure the confluent branch of the divided differences runs
        problem, _ = _quantum_case("fermi-m2-degenerate")
        states = problem.states(problem.full_coords(problem.initial()))
        lam = np.linalg.eigvalsh(0.5 * (states[:-1] + states[1:]))
        assert np.all(np.abs(lam[:, 2] - lam[:, 1]) < 1e-14)

    @pytest.mark.parametrize("name", CASES)
    def test_classical_on_straight_path(self, name):
        problem, _ = _classical_case(name)
        y = problem.initial()
        oracle = central_difference_gradient(problem.action, y, mean_zero=True)
        assert _close(problem.gradient(y), oracle)

    @GRADIENT_SETTINGS
    @given(name=st.sampled_from(CASES), data=st.data())
    def test_quantum_on_random_paths(self, name, data):
        problem, y = _quantum_path(name, _coefficients(data, name, _quantum_case))
        oracle = central_difference_gradient(problem.action, y)
        assert _close(problem.gradient(y), oracle)

    @GRADIENT_SETTINGS
    @given(name=st.sampled_from(CASES), data=st.data())
    def test_classical_on_random_paths(self, name, data):
        problem, y = _classical_path(name, _coefficients(data, name, _classical_case))
        oracle = central_difference_gradient(problem.action, y, mean_zero=True)
        gradient = problem.gradient(y)
        assert _close(gradient, oracle)
        assert np.allclose(gradient.sum(axis=1), 0.0, atol=1e-12 * np.abs(gradient).max())


def test_energy_identity_along_flow(fermi_m1_unit, rng):
    spec = fermi_m1_unit.spec
    l = build_generator(spec)
    l_adj = dag(l)
    from qmsflow.entropy import relative_entropy
    from qmsflow.generators import dual_semigroup

    rho0 = random_density(2, rng)
    for t in (0.1, 0.6):
        h = 1e-5
        entropies = []
        for tt in (t - h, t, t + h):
            pt = dual_semigroup(l_adj, tt, spec.sigma)
            rt = apply_super(pt, rho0.rho)
            rt = DensityState.from_matrix(0.5 * (rt + dag(rt)))
            entropies.append(relative_entropy(rt, spec.sigma))
            if tt == t:
                rho_t = rt
        slope = (entropies[2] - entropies[0]) / (2 * h)
        dec = continuity_solve(spec, rho_t, apply_super(l_adj, rho_t.rho))
        assert abs(slope + dec.metric_value) < 1e-6
