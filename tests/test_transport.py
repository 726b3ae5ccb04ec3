from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qmsflow import generators, transport
from qmsflow.calculus import divergence, grad, log_mean, rho_div, rho_mult
from qmsflow.generators import GeneratorSpec, RateMatrix, apply_dual, dual_orbit, restrict_to_commutative
from qmsflow.linalg import dag, hs_inner, traceless_hermitian_basis, vec
from qmsflow.models import (
    depolarizing,
    fermi_ou,
    hypercube_projections,
    hypercube_restriction,
    random_dbc_spec,
    random_density,
)
from qmsflow.states import DensityState
from qmsflow.transport import (
    _MetricWorkspace,
    _PathProblem,
    _newton_step,
    continuity_solve,
    geodesic_distance,
    metric_monotonicity_check,
    metric_tensor,
    riemannian_gradient_flow_check,
)

import conftest
from conftest import _ChainProblem, classical_transport_distance, random_matrix, weighted_laplacian_super


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
        field = [rho_mult(rho, w, d) for (_, w), d in zip(spec.jumps, grad(spec, dec.potential))]
        resid = np.linalg.norm(rho_dot + divergence(spec, field))
        assert resid < 1e-9 * max(1.0, np.linalg.norm(rho_dot))
        u = dec.potential
        assert np.linalg.norm(u - dag(u)) < 1e-10
        assert abs(np.trace(u)) < 1e-10

    def test_entropy_gradient_potential(self, rng):
        spec = random_dbc_spec(4, rng, ergodic=True)
        rho = random_density(4, rng)
        rho_dot = apply_dual(spec, rho.rho)
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

        spec = GeneratorSpec(sigma, [])
        with pytest.raises(ValueError, match="ergodic"):
            continuity_solve(spec, sigma, np.zeros((2, 2)))

    def test_rejects_traceful_input(self, rng):
        spec = random_dbc_spec(2, rng, ergodic=True)
        with pytest.raises(ValueError, match="traceless"):
            continuity_solve(spec, spec.sigma, np.eye(2))


    @pytest.mark.parametrize(
        "rho_dot, match",
        [
            (1e-10 * np.array([[0.0, 1.0], [0.0, 0.0]]), "Hermitian"),
            (1e-10 * np.diag([1.0, 0.0]), "traceless"),
        ],
    )
    def test_input_checks_relative_to_rho_dot(self, rng, rho_dot, match):
        # a small rho_dot is judged against its own size, not against 1
        spec = random_dbc_spec(2, rng, ergodic=True)
        with pytest.raises(ValueError, match=match):
            continuity_solve(spec, spec.sigma, rho_dot)


@lru_cache(maxsize=None)
def _dim7_spec():
    return random_dbc_spec(7, np.random.default_rng(0), ergodic=True)


class TestSolveMetricSystem:
    """The point solves, LU on the assembled M (48 x 48 at dim 7), against
    scipy's Cholesky solve of the same M."""

    @pytest.mark.parametrize("directions", [1, 3, 15, 40])
    @pytest.mark.parametrize("state_seed", [None, 1, 7])
    def test_matches_scipy_cholesky(self, rng, directions, state_seed):
        import scipy.linalg

        # at sigma (None) or at a seeded state, for that many random directions
        spec = _dim7_spec()
        rho = spec.sigma if state_seed is None else random_density(7, np.random.default_rng(state_seed))
        dirs = np.array([random_traceless_hermitian(rng, 7) for _ in range(directions)])
        ws = _MetricWorkspace(spec)
        factor = scipy.linalg.cho_factor(ws.metric_matrices(rho.rho[None])[0], lower=True)
        a = ws.coords(dirs).T
        expect = a.T @ scipy.linalg.cho_solve(factor, a)
        got = metric_tensor(spec, rho, dirs)
        assert got.shape == expect.shape
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
        potential = scipy.linalg.cho_solve(factor, a[:, 0]) @ ws.flat_basis
        dec = continuity_solve(spec, rho, dirs[0])
        assert np.linalg.norm(dec.potential - potential.reshape(7, 7)) <= 1e-12 * np.linalg.norm(potential)


# (direction, the check it fails): not traceless, anti-Hermitian, and
# E_01, whose Hermitian part is a tangent vector
NOT_TANGENT = [
    (np.eye(2), "traceless"),
    (1j * np.diag([1.0, -1.0]), "Hermitian"),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), "Hermitian"),
]


class TestTangentCheck:
    """``metric_tensor`` and ``continuity_solve`` refuse what is not a
    tangent vector, by name and at any units."""

    @pytest.mark.parametrize("scale", [1e-310, 1.0, 1e200])
    @pytest.mark.parametrize("direction, match", NOT_TANGENT)
    def test_refuses_non_tangent_directions(self, fermi_m1, rng, direction, match, scale):
        spec, rho = fermi_m1.spec, random_density(2, rng)
        with pytest.raises(ValueError, match=f"directions must be {match}"):
            metric_tensor(spec, rho, [scale * direction])
        with pytest.raises(ValueError, match=f"rho_dot must be {match}"):
            continuity_solve(spec, rho, scale * direction)

    def test_one_bad_direction_among_good_ones(self, fermi_m1, rng):
        basis = traceless_hermitian_basis(2)
        with pytest.raises(ValueError, match="Hermitian"):
            metric_tensor(fermi_m1.spec, random_density(2, rng), [*basis, NOT_TANGENT[2][0]])

    def test_refuses_wrong_size(self, fermi_m1, rng):
        spec, rho = fermi_m1.spec, random_density(2, rng)
        with pytest.raises(ValueError, match=r"directions must have shape \(1, 2, 2\), got \(1, 3, 3\)"):
            metric_tensor(spec, rho, [np.zeros((3, 3))])
        with pytest.raises(ValueError, match=r"rho_dot must have shape \(2, 2\), got \(3, 3\)"):
            continuity_solve(spec, rho, np.zeros((3, 3)))

    def test_small_tangent_vectors_pass(self, fermi_m1, rng):
        # a tangent vector is one at any scale, subnormal entries included
        spec, rho = fermi_m1.spec, random_density(2, rng)
        x = 1e-310 * np.diag([1.0, -1.0])
        assert metric_tensor(spec, rho, [x]).shape == (1, 1)
        assert np.isfinite(continuity_solve(spec, rho, x).metric_value)


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

    def test_rejects_non_ergodic(self, fermi_m2, rng):
        # one number operator as the only jump leaves a nontrivial commutant
        spec = GeneratorSpec(fermi_m2.spec.sigma, [(fermi_m2.number_ops[0], 0.0)])
        with pytest.raises(ValueError, match="ergodic"):
            riemannian_gradient_flow_check(spec, random_density(4, rng))


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

    def test_rejects_endpoint_of_another_dimension(self, fermi_m1_unit):
        sigma = fermi_m1_unit.spec.sigma
        other = random_density(3, np.random.default_rng(0))
        for pair in ((other, sigma), (sigma, other)):
            with pytest.raises(ValueError, match="endpoint is dim 3, the spec is dim 2"):
                geodesic_distance(fermi_m1_unit.spec, *pair)

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
        # Newton converges on this input in one step, so a budget of none
        # stops it short
        rho0 = random_density(2, rng)
        rho1 = random_density(2, rng)
        # a negative budget is spent as well, not an uncapped loop
        for budget in (0, -1):
            res = geodesic_distance(fermi_m1_unit.spec, rho0, rho1, segments=16, max_iter=budget)
            assert not res.converged
            assert res.iterations == 0
            assert res.distance > 0  # best-so-far still returned

    def test_one_spectral_evaluation_per_action(self, fermi_m2, rng, monkeypatch):
        # the accepted point's evaluation gives its gradient, its Hessian
        # and, at the end, the segment actions
        calls = {"spectral_data": 0, "evaluate": 0}

        def counting(cls, name):
            method = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counting(_MetricWorkspace, "spectral_data")
        counting(_PathProblem, "evaluate")
        res = geodesic_distance(fermi_m2.spec, random_density(4, rng), fermi_m2.spec.sigma,
                                segments=4)
        assert res.converged and res.iterations > 1
        assert calls["spectral_data"] == calls["evaluate"] > res.iterations


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

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_inflated_flow_rejected_at_every_scale(self, fermi_m1_unit, rng, monkeypatch, scale):
        # an evolved A 1% too large breaks contraction whatever the size of A
        rho = random_density(2, rng)
        a = scale * random_matrix(rng, 2)
        ok, lhs, rhs = metric_monotonicity_check(fermi_m1_unit.spec, rho, a, 0.3, 0.5)
        assert ok and 0.0 < lhs <= rhs
        orbit = generators.dual_orbit

        def inflated(spec, x, times):
            out = orbit(spec, x, times)
            return [1.01 * y for y in out] if x is a else out

        monkeypatch.setattr(generators, "dual_orbit", inflated)
        ok, lhs, rhs = metric_monotonicity_check(fermi_m1_unit.spec, rho, a, 0.3, 0.0)
        assert not ok
        assert lhs == pytest.approx(1.01**2 * rhs, rel=1e-9)

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
        assert np.allclose(problem.segment_actions(problem.evaluate(y)), expected,
                           rtol=1e-12, atol=0)

    def test_one_inverse_per_point(self, fermi_m2, monkeypatch):
        # evaluate inverts each midpoint's Laplacian once, and derivatives
        # reads that inverse: no solve in either
        problem = _ChainProblem(hypercube_restriction(fermi_m2).rates, np.full(4, 0.25),
                                np.array([0.1, 0.2, 0.3, 0.4]), 6)
        calls, inv, solve = [], np.linalg.inv, np.linalg.solve
        monkeypatch.setattr(np.linalg, "inv", lambda *a: calls.append("inv") or inv(*a))
        monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append("solve") or solve(*a))
        problem.derivatives(problem.evaluate(problem.initial()))
        assert calls == ["inv"]

    @pytest.mark.parametrize("case, message", [
        ("reducible", "chain is reducible"),
        ("no-rate", "chain has no nonzero rate"),
        ("short-endpoint", "endpoints must have 2 entries"),
        ("matrix-endpoint", "endpoints must have 2 entries"),
        ("nan-endpoint", "strictly positive probability vectors"),
    ])
    def test_rejects_degenerate_chain(self, case, message):
        # LinAlgError is a ValueError, so each case is told by its message
        pair = np.array([[-1.0, 1.0], [1.0, -1.0]])
        if case == "reducible":
            # two 2-state blocks with no rate between them
            q = np.zeros((4, 4))
            q[:2, :2], q[2:, 2:] = pair, 2.0 * pair
            rate, p0 = RateMatrix(q, np.full(4, 0.25)), np.array([0.4, 0.1, 0.25, 0.25])
        elif case == "no-rate":
            rate, p0 = RateMatrix(np.zeros((1, 1)), np.ones(1)), np.ones(1)
        else:
            rate = RateMatrix(pair, np.full(2, 0.5))
            p0 = {"short-endpoint": np.full(3, 1 / 3), "matrix-endpoint": np.full((2, 2), 0.25),
                  "nan-endpoint": np.array([np.nan, 0.5])}[case]
        with pytest.raises(ValueError, match=message):
            classical_transport_distance(rate, p0, rate.stationary, segments=4)

    @pytest.mark.parametrize("segments", [0, -1])
    def test_rejects_segment_count_below_one(self, fermi_m1_unit, segments):
        rate = hypercube_restriction(fermi_m1_unit)
        p = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="segments"):
            classical_transport_distance(rate, p, p, segments=segments)

    @pytest.mark.parametrize("energies, segments, action, iterations", [
        ([1.0, 2.0], 4, "0x1.4d9d92c15811bp-1", 26),
        ([1.0, 1.0], 8, "0x1.999105a6ca2adp-2", 49),
        ([1.0], 8, "0x1.40e9f4f37f19ep-2", 30),
    ])
    def test_descent_bits(self, energies, segments, action, iterations):
        # ``action`` and ``iterations`` were recorded (x86-64, OpenBLAS) from
        # the Barzilai-Borwein descent that damped Newton replaced: Newton
        # ends at or below that action, within 1e-9 of it, in a few steps
        rate = hypercube_restriction(fermi_ou(len(energies), 1.0, energies))
        p0 = np.linspace(1.0, 2.0, len(rate.stationary))
        res = classical_transport_distance(rate, p0 / p0.sum(), rate.stationary,
                                           segments=segments)
        assert res.converged
        recorded = float.fromhex(action)
        assert res.action <= recorded
        assert res.action == pytest.approx(recorded, rel=1e-9, abs=0)
        assert res.iterations <= 5 < iterations

    def test_four_state_chain(self, fermi_m2):
        rate = hypercube_restriction(fermi_m2)
        p0 = np.array([0.7, 0.1, 0.1, 0.1])
        p1 = np.array([0.1, 0.2, 0.3, 0.4])
        res = classical_transport_distance(rate, p0, p1, segments=8, max_iter=200)
        assert res.distance > 0
        assert np.all([np.all(p > 0) for p in res.path])


def _embedded_chain(seed, m):
    """A random reversible chain (Q, pi) on m states and the spec with
    sigma = diag(pi) and jumps a |y><x| at omega = log(pi_x/pi_y), whose
    restriction to the diagonal is that chain: |a|^2 = Q_xy sqrt(pi_x/pi_y)/2."""
    rng = np.random.default_rng(seed)
    pi = rng.uniform(0.5, 1.5, m)
    pi /= pi.sum()
    s = rng.uniform(0.3, 1.5, (m, m))
    q = (s + s.T) * np.sqrt(pi[None, :] / pi[:, None])
    np.fill_diagonal(q, 0.0)
    unit = np.eye(m)
    jumps = [
        (np.sqrt(q[x, y] * np.sqrt(pi[x] / pi[y]) / 2.0) * np.outer(unit[y], unit[x]), float(np.log(pi[x] / pi[y])))
        for x in range(m) for y in range(m) if x != y
    ]
    np.fill_diagonal(q, -q.sum(axis=1))
    return RateMatrix(q, pi), GeneratorSpec(DensityState.from_matrix(np.diag(pi).astype(complex)), jumps)


class TestCommutativeReduction:
    # on a commutative subalgebra the semigroup leaves invariant, the
    # transport metric is the chain's discrete-transport metric, so the
    # quantum solver meets the classical oracle at round-off, on a path
    # that never leaves the subalgebra
    @pytest.mark.parametrize("energies", [[1.0], [1.0, 2.0], [1.0, 1.3, 1.6]])
    def test_fermi_chain_on_diagonal_endpoints(self, energies):
        model = fermi_ou(len(energies), 1.0, energies)
        rate, projections = hypercube_restriction(model), hypercube_projections(model)
        rng = np.random.default_rng(len(energies))
        for _ in range(3):
            p0, p1 = rng.uniform(0.05, 1.0, (2, rate.size))
            p0, p1 = p0 / p0.sum(), p1 / p1.sum()
            rho0, rho1 = (DensityState.from_matrix(sum(x * e for x, e in zip(p, projections)))
                          for p in (p0, p1))
            gq = geodesic_distance(model.spec, rho0, rho1, segments=16)
            gc = classical_transport_distance(rate, p0, p1, segments=16)
            assert gq.converged and gc.converged
            assert abs(gq.distance - gc.distance) <= 1e-12 * gc.distance
            for state in gq.path:
                assert np.all(state[~np.eye(len(state), dtype=bool)] == 0.0)

    @pytest.mark.parametrize("segments", [4, 16])
    def test_chain_embedded_as_spec(self, segments):
        rate, spec = _embedded_chain(7, 4)
        restricted = restrict_to_commutative(spec, [np.diag(e).astype(complex) for e in np.eye(4)])
        assert np.allclose(restricted.rates, rate.rates, rtol=0, atol=1e-12 * np.abs(rate.rates).max())
        assert np.allclose(restricted.stationary, rate.stationary, rtol=1e-12, atol=0)
        p0, p1 = np.array([0.55, 0.1, 0.15, 0.2]), rate.stationary
        gq = geodesic_distance(spec, *(DensityState.from_matrix(np.diag(p).astype(complex)) for p in (p0, p1)),
                               segments=segments)
        gc = classical_transport_distance(rate, p0, p1, segments=segments)
        assert gq.converged and gc.converged
        assert gq.iterations == gc.iterations
        assert abs(gq.distance - gc.distance) <= 1e-12 * gc.distance


class TestMetricAssembly:
    def test_matches_definition(self, rng):
        # M_{a,c} = sum_j <d_j B_a, [rho]_{omega_j} d_j B_c>, entry by entry
        spec = random_dbc_spec(3, rng, ergodic=True)
        ws = _MetricWorkspace(spec)
        rhos = [random_density(3, rng) for _ in range(3)]
        m = ws.metric_matrices(np.stack([r.rho for r in rhos]))
        basis = ws.flat_basis.reshape(-1, 3, 3)
        for rho, mb in zip(rhos, m):
            direct = np.array([
                [
                    sum(
                        hs_inner(d_a, rho_mult(rho, w, d_c)).real
                        for (_, w), d_a, d_c in zip(spec.jumps, grad(spec, a), grad(spec, c))
                    )
                    for c in basis
                ]
                for a in basis
            ])
            assert np.allclose(mb, direct, rtol=1e-12, atol=1e-14)


def _derivative_case(name):
    """A spec and a state of it; the two sigmas have degenerate spectra."""
    rng = np.random.default_rng(5)
    spec = {
        "fermi-m2": lambda: fermi_ou(2, 1.0, [1.0, 2.0]).spec,
        "random-3": lambda: random_dbc_spec(3, rng, ergodic=True),
        "depolarizing-3": lambda: depolarizing(3),
        "depolarizing-3-sigma": lambda: depolarizing(3),
        "fermi-m2-equal-sigma": lambda: fermi_ou(2, 1.0, [1.0, 1.0]).spec,
    }[name]()
    rho = spec.sigma.rho if name.endswith("sigma") else random_density(spec.dim, rng).rho
    return spec, rho, rng.standard_normal(len(traceless_hermitian_basis(spec.dim)))


class TestMetricDerivatives:
    """G_{c,a} = (d_a M x)_c and S_ab = x^T (d_a d_b M) x, d_a the
    derivative along the basis matrix B_a, against central differences of
    ``metric_matrices``."""

    H = 1e-4

    @pytest.mark.parametrize(
        "name", ["fermi-m2", "random-3", "depolarizing-3", "depolarizing-3-sigma", "fermi-m2-equal-sigma"]
    )
    def test_match_central_differences(self, name):
        spec, rho, x = _derivative_case(name)
        ws, h, n, nb = _MetricWorkspace(spec), self.H, spec.dim, len(x)
        g, s = (d[0] for d in ws.derivatives(ws.spectral_data(rho[None]), x[None]))
        steps = h * ws.basis
        m = ws.metric_matrices(np.concatenate([rho + steps, rho - steps]))
        g_oracle = ((m[:nb] - m[nb:]) @ x).T / (2 * h)
        # the second central difference of x^T M x along B_a and B_b
        corners = [rho + sa * steps[:, None] + sb * steps[None, :] for sa in (1, -1) for sb in (1, -1)]
        m = ws.metric_matrices(np.concatenate(corners).reshape(-1, n, n))
        f = np.einsum("a,kab,b->k", x, m, x).reshape(4, nb, nb)
        s_oracle = (f[0] - f[1] - f[2] + f[3]) / (4 * h * h)
        assert np.linalg.norm(g - g_oracle) <= 1e-6 * np.linalg.norm(g)
        assert np.linalg.norm(s - s_oracle) <= 1e-5 * np.linalg.norm(s)

    def test_stack_matches_single_states(self):
        spec = fermi_ou(2, 1.0, [1.0, 2.0]).spec
        rng = np.random.default_rng(6)
        ws = _MetricWorkspace(spec)
        rhos = np.stack([random_density(4, rng).rho for _ in range(3)])
        xs = rng.standard_normal((3, ws.nb))
        stacked = ws.derivatives(ws.spectral_data(rhos), xs)
        for i in range(3):
            single = ws.derivatives(ws.spectral_data(rhos[i:i + 1]), xs[i:i + 1])
            for got, want in zip(stacked, single):
                assert np.linalg.norm(got[i] - want[0]) <= 1e-14 * np.linalg.norm(want[0])


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
    elif name == "depolarizing-3":
        # from the maximally mixed sigma to a state with a double
        # eigenvalue: every midpoint on the straight line has one too
        spec = depolarizing(3)
        q, _ = np.linalg.qr(random_matrix(rng, 3))
        rho0, rho1 = spec.sigma.rho, q @ np.diag([0.5, 0.25, 0.25]) @ dag(q)
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


def _action(problem):
    """The action as a function of the interior coordinates."""
    return lambda y: float(np.sum(problem.segment_actions(problem.evaluate(y))))


def _derivatives(problem, y):
    """The action's gradient and Hessian blocks at ``y``, unscaled."""
    *system, e = problem.derivatives(problem.evaluate(y))
    return [np.ldexp(a, e) for a in system]


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
        oracle = central_difference_gradient(_action(problem), y)
        assert _close(_derivatives(problem, y)[0], oracle)

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
        oracle = central_difference_gradient(_action(problem), y, mean_zero=True)
        assert _close(_derivatives(problem, y)[0], oracle)

    @GRADIENT_SETTINGS
    @given(name=st.sampled_from(CASES), data=st.data())
    def test_quantum_on_random_paths(self, name, data):
        problem, y = _quantum_path(name, _coefficients(data, name, _quantum_case))
        oracle = central_difference_gradient(_action(problem), y)
        assert _close(_derivatives(problem, y)[0], oracle)

    @GRADIENT_SETTINGS
    @given(name=st.sampled_from(CASES), data=st.data())
    def test_classical_on_random_paths(self, name, data):
        problem, y = _classical_path(name, _coefficients(data, name, _classical_case))
        oracle = central_difference_gradient(_action(problem), y, mean_zero=True)
        gradient = _derivatives(problem, y)[0]
        assert _close(gradient, oracle)
        assert np.allclose(gradient.sum(axis=1), 0.0, atol=1e-12 * np.abs(gradient).max())


# ---------------------------------------------------------------------------
# exact action Hessians against central differences of the exact gradient
# ---------------------------------------------------------------------------

HESSIAN_RTOL = 1e-6


def central_difference_hessian(problem, y, h=1e-6, mean_zero=False):
    """Columns (g(y + h e) - g(y - h e))/2h of the exact gradient g, one per
    coordinate; with ``mean_zero`` each probe of point p moves along
    e_x - 1/m, as in :func:`central_difference_gradient`."""
    columns = []
    for idx in np.ndindex(*y.shape):
        step = np.zeros_like(y)
        if mean_zero:
            step[idx[0]] -= h / y.shape[1]
        step[idx] += h
        plus = _derivatives(problem, y + step)[0]
        minus = _derivatives(problem, y - step)[0]
        columns.append(((plus - minus) / (2.0 * h)).ravel())
    return np.array(columns).T


def _dense(diag, lower):
    """The symmetric block-tridiagonal matrix with these blocks."""
    nn, b = diag.shape[:2]
    out = np.zeros((nn * b, nn * b))
    for k, block in enumerate(diag):
        out[k * b:(k + 1) * b, k * b:(k + 1) * b] = block
    for k, block in enumerate(lower):
        out[(k + 1) * b:(k + 2) * b, k * b:(k + 1) * b] = block
        out[k * b:(k + 1) * b, (k + 1) * b:(k + 2) * b] = block.T
    return out


def _mean_zero_projector(y):
    m = y.shape[1]
    return np.kron(np.eye(len(y)), np.eye(m) - 1.0 / m)


HESSIAN_QUANTUM_CASES = ["fermi-m2", "random-3", "depolarizing-3"]


class TestExactHessians:
    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("name", HESSIAN_QUANTUM_CASES)
    def test_quantum(self, name, perturbed):
        problem, directions = _quantum_case(name)
        y = problem.initial()
        if perturbed:
            coefficients = np.random.default_rng(5).uniform(-1, 1, (len(y), len(directions)))
            problem, y = _quantum_path(name, coefficients)
        hessian = _dense(*_derivatives(problem, y)[1:])
        oracle = central_difference_hessian(problem, y)
        assert np.linalg.norm(hessian - oracle) <= HESSIAN_RTOL * np.linalg.norm(oracle)
        assert np.array_equal(hessian, hessian.T)
        assert np.linalg.eigvalsh(hessian)[0] > 0

    def test_coincident_eigenvalues_reached(self):
        # the depolarizing case runs the confluent branches of the second
        # divided differences
        problem, _ = _quantum_case("depolarizing-3")
        states = problem.states(problem.full_coords(problem.initial()))
        lam = np.linalg.eigvalsh(0.5 * (states[:-1] + states[1:]))
        assert np.all(np.abs(lam[:, 1] - lam[:, 0]) < 1e-14)

    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("name", CASES)
    def test_classical(self, name, perturbed):
        problem, directions = _classical_case(name)
        y = problem.initial()
        if perturbed:
            coefficients = np.random.default_rng(5).uniform(-1, 1, (len(y), len(directions)))
            problem, y = _classical_path(name, coefficients)
        _, diag, lower = _derivatives(problem, y)
        center = _mean_zero_projector(y)
        hessian = center @ _dense(diag, lower) @ center
        oracle = central_difference_hessian(problem, y, mean_zero=True)
        assert np.linalg.norm(hessian - oracle) <= HESSIAN_RTOL * np.linalg.norm(oracle)
        # positive definite once the constant directions are filled in
        assert np.linalg.eigvalsh(_dense(diag, lower))[0] > 0

    @pytest.mark.parametrize("name", HESSIAN_QUANTUM_CASES)
    def test_newton_step_solves_dense_system(self, name):
        problem, _ = _quantum_case(name)
        g, diag, lower, _ = problem.derivatives(problem.evaluate(problem.initial()))
        hessian = _dense(diag, lower)
        step, squared = _newton_step(diag, lower, g)
        expected = np.linalg.solve(hessian, -g.ravel())
        assert np.allclose(step.ravel(), expected, rtol=1e-10, atol=1e-14 * np.abs(expected).max())
        assert squared == pytest.approx(-g.ravel() @ expected, rel=1e-10)


# (case, iterations, action, decrement): the first 8 geodesic-d4 benchmark
# inputs (Fermi m=2 from random_density(4, default_rng([1, 2, i])) to sigma,
# K = 4), Fermi m=1 with K = 16 and a random dim-3 spec with K = 8
PINNED_SOLVES = [
    ("d4-0", 3, 0.8256401401975784, 1.0439348997771791e-14),
    ("d4-1", 3, 0.7074863147431532, 5.775452236718576e-22),
    ("d4-2", 3, 0.5409512669363711, 4.2428874237237825e-16),
    ("d4-3", 3, 1.395193293028857, 7.976718472701046e-14),
    ("d4-4", 3, 0.6466583235921898, 8.349118615794715e-15),
    ("d4-5", 3, 0.5077656009440181, 6.160814912818436e-17),
    ("d4-6", 3, 0.5452863292676485, 2.2050600109593516e-16),
    ("d4-7", 3, 1.0566338545764884, 4.869604618715766e-13),
    ("m1-k16", 3, 0.6500764405809091, 3.2720823685581567e-21),
    ("r3-k8", 2, 0.04625414012707383, 4.3629239703801253e-16),
]


def _pinned_case(case):
    if case.startswith("d4-"):
        spec = fermi_ou(2, 1.0, [1.0, 2.0]).spec
        rho0 = random_density(4, np.random.default_rng([1, 2, int(case[3:])]))
        return spec, rho0, spec.sigma, 4
    if case == "m1-k16":
        spec = fermi_ou(1, 1.0, [1.0]).spec
        return spec, random_density(2, np.random.default_rng(3)), spec.sigma, 16
    rng = np.random.default_rng(4)
    spec = random_dbc_spec(3, rng, ergodic=True)
    return spec, random_density(3, rng), random_density(3, rng), 8


class TestNewtonSolver:
    def test_benchmark_inputs_take_few_steps(self, fermi_m2):
        # the geodesic-d4 benchmark's first inputs: three steps each when
        # this was written, where Barzilai-Borwein took 33 to 39 iterations
        spec = fermi_m2.spec
        for i in range(4):
            rho = random_density(4, np.random.default_rng([1, 2, i]))
            res = geodesic_distance(spec, rho, spec.sigma, segments=4)
            assert res.converged
            assert res.iterations <= 5
            assert 0.0 <= res.decrement <= 1e-12 * res.action

    def test_nearly_pure_endpoints(self):
        # from these endpoints full Newton steps soon point out of the
        # positivity floor's region while the minimum lies inside it, so it
        # is reached only through damped steps; 0.48944180583759 is where
        # Barzilai-Borwein descent stops on this input, after 180 iterations,
        # about 1e-8 above the minimum
        rng = np.random.default_rng(1)
        spec = random_dbc_spec(4, rng, ergodic=True)

        def nearly_pure():
            q, _ = np.linalg.qr(random_matrix(rng, 4))
            lam = np.array([1.0, 1e-7, 1e-7, 1e-7]) / (1.0 + 3e-7)
            return DensityState.from_matrix(q @ np.diag(lam) @ dag(q))

        res = geodesic_distance(spec, nearly_pure(), nearly_pure(), segments=8, max_iter=40)
        assert res.converged
        assert res.action <= 0.48944180583759
        assert res.action == pytest.approx(0.48944180583759, rel=1e-7, abs=0)
        assert min(np.linalg.eigvalsh(p).min() for p in res.path) >= 1e-8 - 1e-14

    def test_failed_line_search_is_not_converged(self, fermi_m2, monkeypatch):
        # no candidate clears the positivity floor, so no step is taken and
        # the decrement test never passes
        spec = fermi_m2.spec
        rho = random_density(4, np.random.default_rng([1, 2, 0]))
        monkeypatch.setattr(_PathProblem, "min_eigenvalue", lambda self, y: -np.inf)
        res = geodesic_distance(spec, rho, spec.sigma, segments=4)
        assert not res.converged
        assert res.iterations == 0
        assert res.decrement > 1e-12 * res.action

    @pytest.mark.parametrize("case, armijo_slope", [
        ("d4-0", transport.ARMIJO_SLOPE), ("m1-k16", transport.ARMIJO_SLOPE),
        ("r3-k8", transport.ARMIJO_SLOPE), ("d4-1", 0.75),
    ])
    def test_one_derivative_pass_per_point(self, case, armijo_slope, monkeypatch):
        # each accepted point, the last one included, gets one pass of each
        # kernel difference, both inside the workspace's one G and S pass;
        # above 1/2 the Armijo test rejects full Newton steps near the
        # minimum, so there rejected candidates are evaluated, and they get
        # no derivative pass
        calls = {"kernel_divided_differences": 0, "kernel_second_divided_differences": 0,
                 "derivatives": 0, "evaluate": 0}

        def counting(owner, name):
            function = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(transport, "kernel_divided_differences")
        counting(transport, "kernel_second_divided_differences")
        counting(_MetricWorkspace, "derivatives")
        counting(_PathProblem, "evaluate")
        monkeypatch.setattr(transport, "ARMIJO_SLOPE", armijo_slope)
        spec, rho0, rho1, segments = _pinned_case(case)
        res = geodesic_distance(spec, rho0, rho1, segments=segments)
        assert res.converged
        assert calls["kernel_divided_differences"] == res.iterations + 1
        assert calls["kernel_second_divided_differences"] == res.iterations + 1
        assert calls["derivatives"] == res.iterations + 1
        if armijo_slope > 0.5:
            assert calls["evaluate"] > 2 * (res.iterations + 1)

    def test_one_chain_derivative_pass_per_point(self, fermi_m2, monkeypatch):
        # the chain's gradient and Hessian read one G, so each accepted
        # point evaluates the logarithmic mean's derivative once per side
        calls = []
        log_mean_dx = conftest.log_mean_dx

        def counting(*args):
            calls.append(args)
            return log_mean_dx(*args)

        monkeypatch.setattr(conftest, "log_mean_dx", counting)
        rate = hypercube_restriction(fermi_m2)
        res = classical_transport_distance(rate, np.array([0.7, 0.1, 0.1, 0.1]),
                                           rate.stationary, segments=6)
        assert res.converged
        assert len(calls) == 2 * (res.iterations + 1)

    @pytest.mark.parametrize("case, iterations, action, decrement", PINNED_SOLVES)
    def test_pinned_solves(self, case, iterations, action, decrement):
        # recorded (x86-64, OpenBLAS) before the kernel differences became
        # stacked passes and each M was inverted once per point
        spec, rho0, rho1, segments = _pinned_case(case)
        res = geodesic_distance(spec, rho0, rho1, segments=segments)
        assert res.converged
        assert res.iterations == iterations
        assert res.action == pytest.approx(action, rel=1e-13, abs=0)
        assert abs(res.decrement - decrement) <= 1e-12 * action

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_quantum_convergence_is_scale_free(self, fermi_m2, scale):
        # jumps times sqrt(c) make L -> cL and the action -> action/c
        spec = fermi_m2.spec
        rho = random_density(4, np.random.default_rng(3))
        base = geodesic_distance(spec, rho, spec.sigma, segments=4)
        scaled = GeneratorSpec(spec.sigma, [(np.sqrt(scale) * v, w) for v, w in spec.jumps])
        res = geodesic_distance(scaled, rho, scaled.sigma, segments=4)
        assert base.converged and res.converged
        assert scale * res.action == pytest.approx(base.action, rel=1e-9, abs=0)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_classical_convergence_is_scale_free(self, fermi_m2, scale):
        # at 1e-12 an absolute 1 1^T/m regularization of the Laplacian
        # left the solve unconverged after 400 steps
        rate = hypercube_restriction(fermi_m2)
        p0 = np.array([0.7, 0.1, 0.1, 0.1])
        base = classical_transport_distance(rate, p0, rate.stationary, segments=4)
        scaled = type(rate)(rates=scale * rate.rates, stationary=rate.stationary)
        res = classical_transport_distance(scaled, p0, rate.stationary, segments=4)
        assert base.converged and res.converged
        assert scale * res.action == pytest.approx(base.action, rel=1e-9, abs=0)


def test_energy_identity_along_flow(fermi_m1_unit, rng):
    spec = fermi_m1_unit.spec
    from qmsflow.entropy import relative_entropy

    rho0 = random_density(2, rng)
    for t in (0.1, 0.6):
        h = 1e-5
        entropies = []
        grid = (t - h, t, t + h)
        for tt, rt in zip(grid, dual_orbit(spec, rho0.rho, grid)):
            rt = DensityState.from_matrix(0.5 * (rt + dag(rt)))
            entropies.append(relative_entropy(rt, spec.sigma))
            if tt == t:
                rho_t = rt
        slope = (entropies[2] - entropies[0]) / (2 * h)
        dec = continuity_solve(spec, rho_t, apply_dual(spec, rho_t.rho))
        assert abs(slope + dec.metric_value) < 1e-6
