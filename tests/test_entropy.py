import functools
import math
import re

import numpy as np
import pytest
import scipy.linalg

from qmsflow.calculus import partial_deriv, rho_mult
from qmsflow.entropy import (
    entropy_production,
    entropy_trajectory,
    intertwining_rates,
    lsi_check,
    relative_entropy,
    talagrand_check,
)
from qmsflow import entropy, generators
from qmsflow.generators import GeneratorSpec, build_generator, dual_orbit
from qmsflow.linalg import apply_super, dag, hs_inner, traceless_hermitian_basis
from qmsflow.models import fermi_ou, random_dbc_spec, random_density
from qmsflow.states import DensityState
from qmsflow.transport import continuity_solve, geodesic_distance, metric_tensor

from conftest import per_point_trajectory, random_matrix


def scalar_kl(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(np.sum(p * (np.log(p) - np.log(q))))


class TestRelativeEntropy:
    def test_zero_at_equal_states(self, rng):
        rho = random_density(4, rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_pair_matches_scalar_kl(self):
        p = [0.75, 0.25]
        q = [0.5, 0.5]
        rho = DensityState.from_matrix(np.diag(p).astype(complex))
        sig = DensityState.from_matrix(np.diag(q).astype(complex))
        # frozen from the independent scalar oracle
        assert scalar_kl(p, q) == pytest.approx(0.1308120359411, abs=1e-12)
        assert relative_entropy(rho, sig) == pytest.approx(scalar_kl(p, q), abs=1e-13)

    def test_random_commuting_pairs(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            p = rng.uniform(0.1, 1.0, n)
            p /= p.sum()
            q = rng.uniform(0.1, 1.0, n)
            q /= q.sum()
            u, _ = np.linalg.qr(random_matrix(rng, n))
            rho = DensityState.from_matrix((u * p) @ dag(u))
            sig = DensityState.from_matrix((u * q) @ dag(u))
            assert relative_entropy(rho, sig) == pytest.approx(
                scalar_kl(p, q), abs=1e-12
            )

    def test_unitary_covariance(self, rng):
        rho = random_density(3, rng)
        sig = random_density(3, rng)
        u, _ = np.linalg.qr(random_matrix(rng, 3))
        rho_u = DensityState.from_matrix(u @ rho.rho @ dag(u))
        sig_u = DensityState.from_matrix(u @ sig.rho @ dag(u))
        assert relative_entropy(rho_u, sig_u) == pytest.approx(
            relative_entropy(rho, sig), abs=1e-12
        )

    def test_nonnegative(self, rng):
        for _ in range(10):
            rho = random_density(3, rng)
            sig = random_density(3, rng)
            assert relative_entropy(rho, sig) >= 0.0


class TestEntropyProduction:
    def test_zero_at_invariant_state(self, fermi_m2):
        assert entropy_production(fermi_m2.spec, fermi_m2.spec.sigma) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_nonnegative(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            spec = random_dbc_spec(n, rng)
            rho = random_density(n, rng)
            assert entropy_production(spec, rho) > -1e-11

    def test_no_superoperator_matrix(self, rng, monkeypatch):
        # L^+(rho) is applied from the jumps: no Kronecker product, no
        # n^2 x n^2 generator
        kron, build = np.kron, generators.build_generator
        calls = []

        def counting_kron(*args, **kwargs):
            calls.append("kron")
            return kron(*args, **kwargs)

        def counting_build(spec):
            calls.append("build_generator")
            return build(spec)

        monkeypatch.setattr(np, "kron", counting_kron)
        for mod in (entropy, generators):
            monkeypatch.setattr(mod, "build_generator", counting_build)
        spec = random_dbc_spec(4, rng)
        assert entropy_production(spec, random_density(4, rng)) > 0.0
        assert calls == []

    def test_matches_entropy_slope(self, fermi_m1, rng):
        rho = random_density(2, rng)
        h = 1e-5
        rows = entropy_trajectory(fermi_m1.spec, rho, [0.0, h, 2 * h])
        slope = (rows[2].entropy - rows[0].entropy) / (2 * h)
        assert abs(slope + rows[1].production) < 1e-6

    def test_gradient_energy_identity(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 5))
            spec = random_dbc_spec(n, rng)
            rho = random_density(n, rng)
            prod = entropy_production(spec, rho)
            egrad = rho.log() - spec.sigma.log()
            direct = sum(
                hs_inner(
                    partial_deriv(spec, j, egrad),
                    rho_mult(rho, w, partial_deriv(spec, j, egrad)),
                ).real
                for j, (_, w) in enumerate(spec.jumps)
            )
            assert abs(prod - direct) < 1e-9 * max(1.0, abs(prod))


class TestIntertwining:
    def test_fermi_skew_rates(self, fermi_m2):
        report = intertwining_rates(
            fermi_m2.spec, fermi_m2.skew_derivations(), kind="skew"
        )
        expect = np.repeat(np.cosh(fermi_m2.beta * fermi_m2.energies / 2.0), 2)
        assert max(report.intertwine_residuals) < 1e-9
        assert np.allclose(np.sort(report.rates), np.sort(expect), atol=1e-9)
        assert report.lam == pytest.approx(np.cosh(0.5), abs=1e-9)

    def test_infinite_temperature_unit_rate(self):
        from qmsflow.models import clifford, fermi_ou_infinite, skew_derivations_infinite

        ctx = clifford(4)
        spec = fermi_ou_infinite(4)
        report = intertwining_rates(spec, skew_derivations_infinite(ctx), kind="skew")
        assert report.lam == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(report.rates, 1.0, atol=1e-10)

    def test_generic_spec_has_no_intertwining(self, rng):
        spec = random_dbc_spec(3, rng, ergodic=True)
        report = intertwining_rates(spec)
        assert report.lam is None
        assert max(report.intertwine_residuals) > 1e-3


class TestLSI:
    def test_trivial_at_invariant_state(self, fermi_m2):
        ok, margin = lsi_check(fermi_m2.spec, fermi_m2.spec.sigma, fermi_m2.decay_rate())
        assert ok
        assert margin == pytest.approx(0.0, abs=1e-10)

    def test_random_states(self, fermi_m2, rng):
        lam = fermi_m2.decay_rate()
        for _ in range(50):
            rho = random_density(4, rng)
            ok, _ = lsi_check(fermi_m2.spec, rho, lam)
            assert ok

    def test_near_optimality_on_slowest_mode(self, fermi_m2):
        # perturbations along the slowest decaying direction keep the
        # slack-to-entropy ratio bounded as the perturbation shrinks
        spec = fermi_m2.spec
        lam = fermi_m2.decay_rate()
        j_slow = int(np.argmin(np.cosh(fermi_m2.beta * fermi_m2.energies / 2)))
        z = fermi_m2.annihilators[j_slow]
        mode = z @ spec.sigma.rho + dag(z @ spec.sigma.rho)
        ratios = []
        for eps in (1e-2, 1e-3, 1e-4):
            rho = DensityState.from_matrix(spec.sigma.rho + eps * mode)
            d = relative_entropy(rho, spec.sigma)
            _, margin = lsi_check(spec, rho, lam)
            ratios.append(margin / d)
        assert all(r < 20.0 for r in ratios)
        assert abs(ratios[-1] - ratios[-2]) < 0.2 * (1 + abs(ratios[-1]))

    def test_rejects_nonpositive_rate(self, fermi_m2):
        with pytest.raises(ValueError):
            lsi_check(fermi_m2.spec, fermi_m2.spec.sigma, 0.0)


class TestTrajectory:
    def test_invariant_start_is_flat_zero(self, fermi_m1):
        rows = entropy_trajectory(fermi_m1.spec, fermi_m1.spec.sigma, [0.0, 0.5, 1.0])
        for r in rows:
            assert r.entropy == pytest.approx(0.0, abs=1e-12)
            assert r.production == pytest.approx(0.0, abs=1e-12)

    def test_single_point_grid(self, fermi_m1, rng):
        rho = random_density(2, rng)
        rows = entropy_trajectory(fermi_m1.spec, rho, [0.0])
        assert len(rows) == 1
        assert rows[0].entropy == pytest.approx(
            relative_entropy(rho, fermi_m1.spec.sigma)
        )

    def test_decay_bound_on_grid(self, fermi_m1, rng):
        lam = fermi_m1.decay_rate()
        rho = random_density(2, rng)
        rows = entropy_trajectory(fermi_m1.spec, rho, np.arange(0.0, 2.01, 0.1), lam=lam)
        for r in rows:
            assert r.entropy <= r.entropy_bound + 1e-10
            assert r.production <= r.production_bound + 1e-9

    def test_monotone_decrease(self, rng):
        spec = random_dbc_spec(3, rng, ergodic=True)
        rho = random_density(3, rng)
        rows = entropy_trajectory(spec, rho, np.linspace(0, 2, 11))
        for a, b in zip(rows, rows[1:]):
            assert b.entropy <= a.entropy + 1e-12

    def test_slope_at_slowest_mode(self, fermi_m2):
        # a state saturating the slowest mode decays at exactly -2 lambda
        spec = fermi_m2.spec
        lam = fermi_m2.decay_rate()
        j_slow = int(np.argmin(np.cosh(fermi_m2.beta * fermi_m2.energies / 2)))
        z = fermi_m2.annihilators[j_slow]
        mode = z @ spec.sigma.rho + dag(z @ spec.sigma.rho)
        rho = DensityState.from_matrix(spec.sigma.rho + 1e-4 * mode)
        h = 1e-4
        rows = entropy_trajectory(spec, rho, [0.0, h])
        d0, d1 = rows[0].entropy, rows[1].entropy
        slope = (np.log(d1) - np.log(d0)) / h
        assert slope == pytest.approx(-2 * lam, rel=1e-2)

    @pytest.mark.parametrize("model", ["fermi_m2", "random4"])
    def test_factored_flow_matches_per_time_semigroup(self, fermi_m2, rng, model):
        spec = fermi_m2.spec if model == "fermi_m2" else random_dbc_spec(4, rng)
        rho0 = random_density(4, rng)
        grid = np.linspace(0.0, 3.0, 13)
        l = build_generator(spec)
        orbit = dual_orbit(spec, rho0.rho, grid)
        rows = entropy_trajectory(spec, rho0, grid)
        for t, rho_t, row in zip(grid, orbit, rows):
            ref = apply_super(scipy.linalg.expm(t * dag(l)), rho0.rho)
            assert np.linalg.norm(rho_t - ref) <= 1e-12
            ref = DensityState.from_matrix(0.5 * (ref + dag(ref)) / np.trace(ref).real)
            assert abs(row.entropy - relative_entropy(ref, spec.sigma)) <= 1e-12
            assert abs(row.production - entropy_production(spec, ref)) <= 1e-12

    @pytest.mark.parametrize("points", [1, 5, 31])
    def test_one_superoperator_eigensolve(self, fermi_m2, rng, monkeypatch, points):
        # create builds the spec's Bohr blocks once, which checks it; the
        # first spectral routine eigensolves them once, and every spectral
        # and transport routine reads the eigenpairs from the spec; no block
        # is the whole n^2 x n^2 superoperator
        builds = {"bohr_blocks": 0, "bohr_factor": 0}

        def counting(name):
            prop = GeneratorSpec.__dict__[name]

            def build(spec):
                builds[name] += 1
                return prop.func(spec)

            wrapped = functools.cached_property(build)
            wrapped.__set_name__(GeneratorSpec, name)
            monkeypatch.setattr(GeneratorSpec, name, wrapped)

        counting("bohr_blocks")
        counting("bohr_factor")
        spec = GeneratorSpec.create(fermi_m2.spec.sigma, fermi_m2.spec.jumps)
        assert builds == {"bohr_blocks": 1, "bohr_factor": 0}
        rho = random_density(4, rng)
        generators.ergodicity(spec)
        dual_orbit(spec, rho.rho, np.linspace(0, 2, points))
        entropy_trajectory(spec, rho, np.linspace(0, 2, points))
        continuity_solve(spec, rho, generators.apply_dual(spec, rho.rho))
        metric_tensor(spec, rho, traceless_hermitian_basis(4))
        geodesic_distance(spec, rho, spec.sigma, segments=2, max_iter=5)
        assert builds == {"bohr_blocks": 1, "bohr_factor": 1}
        assert all(vecs.shape[-1] < 16 for _, _, _, vecs in spec.bohr_factor[1])

    @pytest.mark.parametrize("points", [1, 5, 31])
    def test_one_jump_stack_build(self, fermi_m2, rng, monkeypatch, points):
        # the weights, the (J, n, n) jump stack and K are built once per
        # spec and shared by the Bohr blocks and every production
        stack = GeneratorSpec.__dict__["jump_stack"]
        builds = []

        def counting_stack(spec):
            builds.append(1)
            return stack.func(spec)

        counting = functools.cached_property(counting_stack)
        counting.__set_name__(GeneratorSpec, "jump_stack")
        monkeypatch.setattr(GeneratorSpec, "jump_stack", counting)
        spec = GeneratorSpec.create(fermi_m2.spec.sigma, fermi_m2.spec.jumps)
        entropy_trajectory(spec, random_density(4, rng), np.linspace(0, 2, points))
        assert len(builds) == 1

    def test_rejects_descending_grid(self, fermi_m1, rng):
        with pytest.raises(ValueError):
            entropy_trajectory(fermi_m1.spec, fermi_m1.spec.sigma, [1.0, 0.5])


def _relaxation_grid(spec, points):
    """``points`` times over two relaxation times of L's slowest mode, so the
    production stays far above its round-off floor (near sigma both routes
    to it lose relative accuracy as it decays)."""
    mu = np.abs(np.concatenate([vals.ravel() for _, _, vals, _ in spec.bohr_factor[1]]))
    gap = np.min(mu[mu > 1e-9 * np.max(mu)])
    return np.linspace(0.0, 2.0 / gap, points)


@functools.cache
def _trajectory_case(name):
    if name == "fermi_m2":
        model = fermi_ou(2, 1.0, [1.0, 2.0])
        return model.spec, model.decay_rate()
    n = int(name.removeprefix("random"))
    return random_dbc_spec(n, np.random.default_rng(n), ergodic=True), None


class TestStackedTrajectory:
    """entropy_trajectory's stacked passes against the per-point oracle of
    conftest: from_matrix, relative_entropy and apply_dual at each time."""

    @pytest.mark.parametrize("name", ["fermi_m2", "random3", "random8"])
    @pytest.mark.parametrize("points", [1, 31, 2 * entropy.TRAJECTORY_CHUNK + 5])
    def test_matches_per_point_oracle(self, rng, name, points):
        spec, lam = _trajectory_case(name)
        rho0 = random_density(spec.dim, rng)
        grid = [0.7] if points == 1 else _relaxation_grid(spec, points)
        rows = entropy_trajectory(spec, rho0, grid, lam=lam)
        ref = per_point_trajectory(spec, rho0, grid, lam=lam)
        assert len(rows) == len(ref) == points
        for row, r in zip(rows, ref):
            assert (row.t, row.entropy_bound, row.production_bound) == (r.t, r.entropy_bound, r.production_bound)
            assert abs(row.entropy - r.entropy) <= 1e-13
            assert abs(row.production - r.production) <= 1e-11 * abs(r.production)

    def test_chunks_do_not_change_rows(self, rng, monkeypatch):
        # each time's state and eigensolve are its own, so the chunk
        # boundaries move no digit
        spec, lam = _trajectory_case("random3")
        rho0 = random_density(3, rng)
        grid = _relaxation_grid(spec, 40)
        whole = entropy_trajectory(spec, rho0, grid, lam=lam)
        monkeypatch.setattr(entropy, "TRAJECTORY_CHUNK", 7)
        assert entropy_trajectory(spec, rho0, grid, lam=lam) == whole

    def test_empty_grid(self, fermi_m1):
        assert entropy_trajectory(fermi_m1.spec, fermi_m1.spec.sigma, []) == []

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", ["non_finite", "not_positive"])
    def test_failing_state_raises_from_matrix_error(self, fermi_m2, rng, monkeypatch, bad):
        # a state along the orbit that fails a check raises what
        # DensityState.from_matrix raises on it
        flow = entropy._flow
        state = np.diag([np.nan, 0.5, 0.25, 0.25]) if bad == "non_finite" else np.diag([0.6, 0.5, -0.1, 0.0])

        def corrupted(factor, times, rate=False):
            out = flow(factor, times, rate)
            if not rate:
                out[len(times) // 2] = state
            return out

        monkeypatch.setattr(entropy, "_flow", corrupted)
        with pytest.raises(ValueError) as expected:
            DensityState.from_matrix(state)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            entropy_trajectory(fermi_m2.spec, random_density(4, rng), np.linspace(0.0, 1.0, 9))

    def test_rate_is_dual_generator_of_orbit(self, rng):
        # the production's L^+(rho_t) comes from the Bohr-block factor; it
        # is L^+ applied from the jumps to the computed orbit
        spec, _ = _trajectory_case("random8")
        factor = generators._flow_factor(spec, random_density(8, rng).rho)
        times = np.linspace(0.0, 2.0, 5)
        rates = generators._flow(factor, times, rate=True)
        scale = np.linalg.norm(rates[0])  # apply_dual's round-off is that of L^+(rho_0)
        for rho_t, rate in zip(generators._flow(factor, times), rates):
            assert np.linalg.norm(rate - generators.apply_dual(spec, rho_t)) <= 1e-13 * scale

    @pytest.mark.parametrize("points", [31, 1001])
    def test_one_eigensolve_per_chunk(self, rng, monkeypatch, points):
        # the states of a chunk are eigensolved in one batched call, and
        # the production reads L^+(rho_t) from the factor: apply_dual runs
        # once, for the bound's production at rho0
        spec, _ = _trajectory_case("random8")
        spec.bohr_factor
        rho0 = random_density(8, rng)
        calls = {"eigh": 0, "apply_dual": 0}
        eigh, apply_dual = np.linalg.eigh, entropy.apply_dual

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
        monkeypatch.setattr(entropy, "apply_dual", counted("apply_dual", apply_dual))
        rows = entropy_trajectory(spec, rho0, np.linspace(0.0, 3.0, points))
        assert len(rows) == points
        assert calls["eigh"] <= math.ceil(points / entropy.TRAJECTORY_CHUNK) + 1
        assert calls["apply_dual"] <= 1

    def test_peak_memory_does_not_grow_with_grid(self):
        # a 1001-point grid at dim 32: one (T, n, n) array is 16 MB.  The
        # per-point loop this replaced, holding the orbit as a list, peaked
        # at 19.99 MB under tracemalloc; an unchunked stack peaks at 115 MB
        import tracemalloc

        spec = random_dbc_spec(32, np.random.default_rng(5), ergodic=True)
        rho0 = random_density(32, np.random.default_rng(6))
        tracemalloc.start()
        try:
            rows = entropy_trajectory(spec, rho0, np.linspace(0.0, 3.0, 1001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 1001
        assert peak <= 20e6


class TestTalagrand:
    def test_invariant_state(self, fermi_m1_unit):
        res = talagrand_check(
            fermi_m1_unit.spec, fermi_m1_unit.spec.sigma, fermi_m1_unit.decay_rate(),
            segments=8,
        )
        assert res["passed"]
        assert res["distance_upper"] == pytest.approx(0.0, abs=1e-8)

    def test_random_states(self, fermi_m1_unit, rng):
        lam = fermi_m1_unit.decay_rate()
        for _ in range(3):
            rho = random_density(2, rng)
            res = talagrand_check(fermi_m1_unit.spec, rho, lam, segments=32)
            assert res["passed"]
            assert 0.0 < res["tightness"] <= 1.05
            assert res["converged"]
            assert 0.0 <= res["decrement"] <= 1e-12 * res["distance_upper"] ** 2

    def test_rejects_nonpositive_rate(self, fermi_m1_unit, rng):
        with pytest.raises(ValueError):
            talagrand_check(fermi_m1_unit.spec, fermi_m1_unit.spec.sigma, -1.0)


def test_production_decays_exponentially(fermi_m2, rng):
    lam = fermi_m2.decay_rate()
    rho = random_density(4, rng)
    rows = entropy_trajectory(fermi_m2.spec, rho, np.linspace(0, 3, 13), lam=lam)
    for r in rows:
        assert r.production <= r.production_bound + 1e-9
