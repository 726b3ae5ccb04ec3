import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qmsflow.generators import (
    GeneratorSpec,
    _self_adjointness_residual,
    apply_dual,
    apply_generator,
    build_generator,
    certify_detailed_balance,
    check_complete_positivity,
    dual_orbit,
    ergodicity,
    modular_subalgebra,
    restrict_to_commutative,
    semigroup,
)
from qmsflow.linalg import apply_super, choi, commutator_super, dag, unvec, vec
from qmsflow.models import (
    depolarizing,
    fermi_ou,
    hypercube_projections,
    kms_counterexample,
    random_dbc_spec,
    random_density,
)
from qmsflow.states import (
    DensityState,
    _weight_kernel_f,
    bkm_weight,
    inner_s,
    modular_superoperator,
    weight_superoperator_f,
    weight_superoperator_s,
)

from conftest import kron_sum_generator, modular_elements, random_matrix


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def tracial(n):
    return DensityState.from_matrix(np.eye(n) / n)


def svd_residual(l, omega):
    """Reference: ||Omega L - L^+ Omega||_2 / (||Omega||_2 ||L||_2), every norm an SVD."""
    lhs = omega @ l - dag(l) @ omega
    return np.linalg.norm(lhs, 2) / (np.linalg.norm(omega, 2) * np.linalg.norm(l, 2))


def counting_svds(monkeypatch, rows=None):
    """Records each SVD: np.linalg.svd and np.linalg.norm(x, 2) of a matrix;
    with ``rows``, only of matrices, stacked or not, with that many rows."""
    norm, svd = np.linalg.norm, np.linalg.svd
    calls = []

    def counted(x):
        return rows is None or (np.ndim(x) >= 2 and np.shape(x)[-2] == rows)

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2 and counted(x):
            calls.append("norm")
        return norm(x, ord, *args, **kwargs)

    def counting_svd(x, *args, **kwargs):
        if counted(x):
            calls.append("svd")
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def counting_expm(monkeypatch):
    expm = scipy.linalg.expm
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(1)
        return expm(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    return calls


class TestGeneratorSpec:
    def test_rejects_non_eigenvector_jump(self, rng):
        sigma = random_density(3, rng)
        v = random_matrix(rng, 3)
        with pytest.raises(ValueError, match="eigenvector"):
            GeneratorSpec.create(sigma, [(v, 0.0), (dag(v), 0.0)])

    def test_rejects_unpaired_jump(self, rng):
        sigma = random_density(2, rng)
        u = sigma.eigenvectors
        v = np.sqrt(2) * np.outer(u[:, 0], np.conj(u[:, 1]))
        w = float(np.log(sigma.eigenvalues[1] / sigma.eigenvalues[0]))
        with pytest.raises(ValueError, match="adjoint"):
            GeneratorSpec.create(sigma, [(v, w)])

    def test_self_adjoint_jump_pairs_with_itself(self):
        spec = GeneratorSpec.create(tracial(2), [(PAULI_X, 0.0)])
        assert spec.njumps == 1


class TestBuildGenerator:
    def test_empty_jump_list_gives_zero(self, rng):
        spec = GeneratorSpec.create(random_density(3, rng), [])
        assert np.allclose(build_generator(spec), 0.0)

    @pytest.mark.parametrize("case", ["fermi_m2", "random_5", "no_jumps"])
    def test_matches_kron_sum(self, rng, fermi_m2, case):
        if case == "fermi_m2":
            spec = fermi_m2.spec
        elif case == "random_5":
            spec = random_dbc_spec(5, rng)
        else:
            spec = GeneratorSpec.create(random_density(3, rng), [])
        l = build_generator(spec)
        ref = kron_sum_generator(spec)
        assert np.linalg.norm(l - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_pauli_x_double_commutator(self):
        spec = GeneratorSpec.create(tracial(2), [(PAULI_X, 0.0)])
        l = build_generator(spec)
        # L A = 2 (X A X - A)
        for _ in range(3):
            a = np.random.default_rng(5).standard_normal((2, 2))
            assert np.allclose(apply_super(l, a), 2 * (PAULI_X @ a @ PAULI_X - a))
        assert np.allclose(sorted(np.linalg.eigvals(l).real), [-4, -4, 0, 0])
        assert np.allclose(np.linalg.eigvals(l).imag, 0.0)

    def test_fermi_single_mode_spectrum(self, fermi_m1):
        l = build_generator(fermi_m1.spec)
        c = np.cosh(1.0)
        got = sorted(np.linalg.eigvals(l).real)
        assert np.allclose(got, [-2 * c, -c, -c, 0.0], atol=1e-12)

    def test_annihilates_identity(self, rng):
        spec = random_dbc_spec(4, rng)
        l = build_generator(spec)
        assert np.linalg.norm(l @ vec(np.eye(4))) < 1e-12 * np.linalg.norm(l)

    def test_gns_self_adjoint(self, rng):
        spec = random_dbc_spec(3, rng)
        l = build_generator(spec)
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        lhs = inner_s(spec.sigma, 1.0, a, apply_super(l, b))
        rhs = inner_s(spec.sigma, 1.0, apply_super(l, a), b)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


class TestApplyDual:
    @pytest.mark.parametrize("case", ["fermi_m2", "random_5", "no_jumps"])
    def test_matches_kron_sum(self, rng, fermi_m2, case):
        if case == "fermi_m2":
            spec = fermi_m2.spec
        elif case == "random_5":
            spec = random_dbc_spec(5, rng)
        else:
            spec = GeneratorSpec.create(random_density(3, rng), [])
        ref = kron_sum_generator(spec)
        for _ in range(3):
            x = random_matrix(rng, spec.dim)
            for got, want in (
                (apply_generator(spec, x), apply_super(ref, x)),
                (apply_dual(spec, x), apply_super(dag(ref), x)),
            ):
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(ref) * np.linalg.norm(x)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
    def test_hilbert_schmidt_duality(self, seed, n):
        # Tr[A^* L^+(rho)] = Tr[L(A)^* rho] for arbitrary complex A, rho
        rng = np.random.default_rng(seed)
        spec = random_dbc_spec(n, rng)
        a, rho = random_matrix(rng, n), random_matrix(rng, n)
        lhs = np.vdot(a, apply_dual(spec, rho))
        rhs = np.vdot(apply_generator(spec, a), rho)
        scale = np.linalg.norm(kron_sum_generator(spec)) * np.linalg.norm(a) * np.linalg.norm(rho)
        assert abs(lhs - rhs) <= 1e-14 * scale

    def test_preserves_invariant_state(self, rng):
        for _ in range(5):
            spec = random_dbc_spec(int(rng.integers(2, 6)), rng)
            resid = np.linalg.norm(apply_dual(spec, spec.sigma.rho))
            assert resid < 1e-11 * max(1.0, np.linalg.norm(build_generator(spec)))

    def test_traceless_range(self, rng):
        spec = random_dbc_spec(3, rng)
        x = random_matrix(rng, 3)
        assert abs(np.trace(apply_dual(spec, x))) < 1e-12

    def test_is_hs_adjoint_and_involutive(self, rng):
        spec = random_dbc_spec(3, rng)
        l = build_generator(spec)
        # the matrix of apply_dual, one matrix unit per column
        l_adj = np.array([vec(apply_dual(spec, unvec(e, 3))) for e in np.eye(9)]).T
        assert np.linalg.norm(l_adj - dag(l)) < 1e-13 * np.linalg.norm(l)
        assert np.linalg.norm(dag(l_adj) - l) < 1e-13 * np.linalg.norm(l)

    def test_fermi_decay_mode(self, fermi_m1):
        # L+ applied to the slow diagonal direction lands in the
        # eigenspace with eigenvalue -2 cosh(beta e / 2)
        model = fermi_m1
        x = model.number_perp[0] - np.exp(-2.0) * model.number_ops[0]
        image = apply_dual(model.spec, x)
        back = apply_dual(model.spec, image)
        rate = 2 * np.cosh(1.0)
        assert np.linalg.norm(back + rate * image) < 1e-10 * np.linalg.norm(image)


class TestCertification:
    def test_built_generators_pass_battery(self, rng):
        for _ in range(5):
            spec = random_dbc_spec(int(rng.integers(2, 6)), rng)
            rep = certify_detailed_balance(build_generator(spec), spec.sigma)
            assert rep.gns_dbc
            assert max(rep.s_residuals.values()) < 1e-9
            assert rep.bkm_residual < 1e-9
            assert rep.modular_commutation < 1e-9
            assert rep.star_preservation < 1e-9

    def test_counterexample_is_kms_only(self):
        u = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        v1 = np.array([1.0, 1.0]) / np.sqrt(2)
        v2 = np.array([1.0, 2.0]) / np.sqrt(5)
        l, sigma, _ = kms_counterexample(u, v1, v2)
        rep = certify_detailed_balance(l, sigma)
        assert rep.s_residuals[0.5] < 1e-10
        assert rep.s_residuals[1.0] > 1e-3
        assert rep.modular_commutation > 1e-2
        assert rep.kms_only
        assert not rep.gns_dbc

    def test_wrong_size_superoperator_named(self):
        sigma = DensityState.from_matrix(np.diag([0.3, 0.7]).astype(complex))
        with pytest.raises(ValueError, match=r"superoperator has shape \(9, 9\), expected \(4, 4\)"):
            certify_detailed_balance(np.zeros((9, 9)), sigma)

    @pytest.mark.parametrize("case", ["dbc", "kms_only", "not_dbc"])
    def test_grid_without_half_and_one(self, rng, case):
        if case == "dbc":
            spec = random_dbc_spec(3, rng)
            l, sigma = build_generator(spec), spec.sigma
        elif case == "kms_only":
            u = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
            l, sigma, _ = kms_counterexample(u, [1.0, 1.0] / np.sqrt(2), [1.0, 2.0] / np.sqrt(5))
        else:
            l, sigma = random_matrix(rng, 9), random_density(3, rng)
        full = certify_detailed_balance(l, sigma).as_dict()
        partial = certify_detailed_balance(l, sigma, s_grid=(0.0, 0.25)).as_dict()
        assert partial["s_residuals"] == {k: full["s_residuals"][k] for k in ("0.0", "0.25")}
        del full["s_residuals"], partial["s_residuals"]
        assert partial == full

    def test_one_operator_norm_of_l(self, rng, monkeypatch):
        # the 2-norm of L is an SVD; certification takes it once and reuses
        # it, also for the s = 1 and s = 1/2 verdicts off the grid: two SVDs
        # of n^2-row arrays, ||L|| and the modular commutator
        spec = random_dbc_spec(3, rng)
        l = build_generator(spec)
        calls = counting_svds(monkeypatch, rows=9)
        certify_detailed_balance(l, spec.sigma)
        assert len(calls) == 2
        certify_detailed_balance(l, spec.sigma, s_grid=(0.0,))
        assert len(calls) == 4

    @pytest.mark.parametrize("case", ["kms_only", "random_1e-6", "random_1", "random_1e6"])
    def test_residuals_match_svd_reference(self, rng, case):
        if case == "kms_only":
            u = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
            l, sigma, _ = kms_counterexample(u, [1.0, 1.0] / np.sqrt(2), [1.0, 2.0] / np.sqrt(5))
        else:
            l, sigma = float(case.split("_")[1]) * random_matrix(rng, 9), random_density(3, rng)
        rep = certify_detailed_balance(l, sigma)
        got = dict(rep.s_residuals)
        ref = {s: svd_residual(l, weight_superoperator_s(sigma, s)) for s in got}
        got["bkm"] = rep.bkm_residual
        ref["bkm"] = svd_residual(l, weight_superoperator_f(sigma, bkm_weight))
        got["direct"] = _self_adjointness_residual(l, weight_superoperator_s(sigma, 0.25))
        ref["direct"] = ref[0.25]
        delta = modular_superoperator(sigma)
        got["modular"] = rep.modular_commutation
        ref["modular"] = np.linalg.norm(l @ delta - delta @ l, 2) / (
            np.linalg.norm(l, 2) * np.linalg.norm(delta, 2)
        )
        assert max(ref.values()) > 1e-2
        for key, want in ref.items():
            if want > 1e-6:
                assert got[key] == pytest.approx(want, rel=1e-12), key
            else:  # the KMS residual of the counterexample is round-off
                assert max(got[key], want) < 1e-12, key

    def test_weight_norms_in_closed_form(self, rng):
        sigma = random_density(5, rng)
        lam = sigma.eigenvalues
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            omega = weight_superoperator_s(sigma, s)
            assert lam[-1] == pytest.approx(np.linalg.norm(omega, 2), rel=1e-13)
        omega = weight_superoperator_f(sigma, bkm_weight)
        bkm = np.max(_weight_kernel_f(sigma, bkm_weight))
        assert bkm == pytest.approx(np.linalg.norm(omega, 2), rel=1e-13)
        delta = modular_superoperator(sigma)
        assert lam[-1] / lam[0] == pytest.approx(np.linalg.norm(delta, 2), rel=1e-13)

    def test_zero_residual_is_positive_zero(self):
        # the spectral radius of a zero matrix is +0.0, not -0.0
        sigma = DensityState.from_matrix(np.diag([0.3, 0.7]).astype(complex))
        resid = _self_adjointness_residual(np.eye(4), weight_superoperator_s(sigma, 0.5))
        assert resid == 0.0 and not np.signbit(resid)

    def test_two_svds(self, rng, monkeypatch):
        # ||L|| and the modular commutator, which is not normal; every other
        # 2-norm is an eigensolve or in closed form
        spec = random_dbc_spec(3, rng)
        l = build_generator(spec)
        calls = counting_svds(monkeypatch)
        certify_detailed_balance(l, spec.sigma)
        assert len(calls) <= 2

    def test_modular_operator_self_adjoint_every_s(self, rng):
        sigma = random_density(3, rng)
        delta = modular_superoperator(sigma)
        rep = certify_detailed_balance(delta, sigma)
        assert max(rep.s_residuals.values()) < 1e-11
        assert rep.bkm_residual < 1e-11

    def test_f_family_follows_gns(self, rng):
        # GNS self-adjointness propagates to every weighted form, sampled
        from qmsflow.states import bkm_weight, weight_superoperator_f
        from qmsflow.generators import _self_adjointness_residual

        for _ in range(3):
            spec = random_dbc_spec(int(rng.integers(2, 5)), rng)
            l = build_generator(spec)
            for f in (np.sqrt, bkm_weight, lambda t: (1 + t) / 2):
                resid = _self_adjointness_residual(
                    l, weight_superoperator_f(spec.sigma, f)
                )
                assert resid < 1e-9


class TestBlockRoute:
    """A spec's certification and distances from its Bohr blocks; the dense L is the oracle."""

    @pytest.mark.parametrize("eps", [0.0, 5e-9])
    def test_certification_bounds_the_dense_one(self, rng, eps):
        # eps scales the first jump, a GNS defect the KMS check lets through
        for _ in range(4):
            spec = random_dbc_spec(int(rng.integers(2, 6)), rng)
            (v, w), rest = spec.jumps[0], list(spec.jumps[1:])
            spec = GeneratorSpec.create(spec.sigma, [((1 + eps) * v, w)] + rest)
            blocks = certify_detailed_balance(spec, spec.sigma)
            dense = certify_detailed_balance(build_generator(spec), spec.sigma)
            assert blocks.l_norm <= dense.l_norm * (1 + 1e-12)
            assert blocks.l_norm == pytest.approx(dense.l_norm, rel=1e-12)
            assert blocks.gns_dbc == dense.gns_dbc and blocks.kms_only == dense.kms_only
            pairs = [(blocks.s_residuals[s], dense.s_residuals[s]) for s in dense.s_residuals]
            pairs += [(blocks.bkm_residual, dense.bkm_residual),
                      (blocks.modular_commutation, dense.modular_commutation)]
            for mine, theirs in pairs:
                assert mine >= theirs - 1e-14
                assert mine <= theirs + 1e-12 + 1e-6 * theirs

    def test_spec_needs_its_own_sigma(self, rng):
        spec = random_dbc_spec(3, rng)
        with pytest.raises(ValueError, match="own sigma"):
            certify_detailed_balance(spec, random_density(3, rng))

    def test_distance_needs_nested_blocks(self):
        # a jump frequency between two Bohr frequencies 1.5e-10 apart merges
        # their blocks, so the exact spec's blocks nest in the merged one's
        # and not the other way round
        from qmsflow.generators import _block_distance, _input_blocks

        f = 0.5
        lam = np.array([1.0, np.exp(f), np.exp(2 * f + 1.5e-10)])
        sigma = DensityState.from_matrix(np.diag(lam / lam.sum()).astype(complex))
        e10 = np.zeros((3, 3), dtype=complex)
        e10[1, 0] = 1.0
        exact = GeneratorSpec.create(sigma, [(e10, -f), (e10.T.copy(), f)])
        merged = GeneratorSpec.create(sigma, [(e10, -f - 0.75e-10), (e10.T.copy(), f + 0.75e-10)])
        assert len(merged.bohr_blocks[1]) != len(exact.bohr_blocks[1])
        l_gap = np.linalg.norm(build_generator(merged) - build_generator(exact), 2)
        assert l_gap <= _block_distance(*_input_blocks(merged, sigma)[:2], exact) <= l_gap + 1e-14
        with pytest.raises(ValueError, match="nest"):
            _block_distance(*_input_blocks(exact, sigma)[:2], merged)

    def test_superoperator_distance_bounds_the_dense_one(self, rng):
        # a superoperator is one block, so the distance is exact up to the
        # other spec's off-block bound
        from qmsflow.generators import _block_distance, _input_blocks

        spec = random_dbc_spec(3, rng)
        other = GeneratorSpec.create(spec.sigma, [(1.1 * v, w) for v, w in spec.jumps])
        l = build_generator(spec)
        gap = np.linalg.norm(build_generator(other) - l, 2)
        got = _block_distance(*_input_blocks(l, spec.sigma)[:2], other)
        assert gap - 1e-14 * gap <= got <= gap + other.bohr_blocks[2] + 1e-14 * gap


class TestCompletePositivity:
    def test_built_generators_pass(self, rng):
        spec = random_dbc_spec(3, rng)
        ok, min_eig = check_complete_positivity(build_generator(spec))
        assert ok
        assert min_eig > -1e-10

    def test_sign_flipped_double_commutator_fails(self, rng):
        x = random_matrix(rng, 2)
        v = x + dag(x)
        c = commutator_super(v)
        l_bad = c @ c  # +[V,[V,.]]
        ok, min_eig = check_complete_positivity(l_bad)
        assert not ok
        assert min_eig < -1e-6

    def test_zero_map(self):
        ok, min_eig = check_complete_positivity(np.zeros((9, 9)))
        assert ok
        assert min_eig == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("size", [5, 8])
    def test_wrong_size_superoperator_named(self, size):
        # 5 is no square; 8 is, but 8 x 8 is no n^2 x n^2
        with pytest.raises(ValueError, match=rf"superoperator has shape \({size}, {size}\), expected"):
            check_complete_positivity(np.zeros((size, size)))

    def test_rejects_non_unital(self, rng):
        x = random_matrix(rng, 2)
        with pytest.raises(ValueError):
            check_complete_positivity(np.eye(4) + 0 * x[0, 0])

    def test_verdict_independent_of_units(self, fermi_m1):
        # Fermi m=1 minus 12 times the dissipator 2 V^* A V - {V^* V, A} of
        # the lowering operator: rejected at every scale
        lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        jump = GeneratorSpec(tracial(2), ((lower, 0.0),))  # not detailed balance
        l = build_generator(fermi_m1.spec) - 12.0 * build_generator(jump)
        for scale in (1.0, 1e-6, 1e-9, 1e-12):
            ok, min_eig = check_complete_positivity(scale * l)
            assert not ok, scale
            assert min_eig < -scale

    def test_one_pade_exponential_and_no_svd(self, rng, monkeypatch):
        # the reduced block is the verdict: no exponential at all, and
        # ||L|| comes from the caller
        l = build_generator(random_dbc_spec(3, rng))
        l_norm = np.linalg.norm(l, 2)
        pade = counting_expm(monkeypatch)
        svds = counting_svds(monkeypatch)
        assert check_complete_positivity(l, l_norm=l_norm)[0]
        assert pade == []
        assert svds == []

    def test_verdict_matches_choi_of_propagators(self, rng, fermi_m1):
        # oracle: exp(tL) is CP iff its Choi matrix is PSD, sampled at
        # three times, against the verdict of the reduced block alone
        x = random_matrix(rng, 2)
        flip = commutator_super(x + dag(x))
        lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        jump = GeneratorSpec(tracial(2), ((lower, 0.0),))  # not detailed balance
        cases = [build_generator(random_dbc_spec(n, rng)) for n in (2, 3, 4)]
        cases += [flip @ flip, build_generator(fermi_m1.spec) - 12.0 * build_generator(jump)]
        verdicts = []
        for l in cases:
            choi_psd = True
            for t in (0.01, 0.1, 1.0):
                evals = np.linalg.eigvalsh(choi(scipy.linalg.expm(t * l)))
                choi_psd &= bool(evals[0] >= -1e-8 * max(-evals[0], evals[-1]))
            assert check_complete_positivity(l)[0] == choi_psd
            verdicts.append(choi_psd)
        assert verdicts == [True, True, True, False, False]

    def test_any_modular_basis_gives_the_maximally_mixed_verdict(self, rng, fermi_m2):
        # the reduced block is taken whole over the basis given, so sigma's
        # basis and the maximally mixed state's give one spectrum
        from qmsflow.canonical import gks_matrix
        from qmsflow.states import build_modular_basis
        from conftest import near_degenerate_spec

        x = random_matrix(rng, 3)
        flip = commutator_super(x + dag(x))
        lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        jump = GeneratorSpec(tracial(2), ((lower, 0.0),))  # not detailed balance
        specs = [random_dbc_spec(3, rng), fermi_m2.spec, near_degenerate_spec(1e-12)]
        cases = [(build_generator(spec), spec.sigma) for spec in specs] + [
            (flip @ flip, random_density(3, rng)),
            (build_generator(fermi_ou(1, 2.0, [1.0]).spec) - 12.0 * build_generator(jump), random_density(2, rng)),
        ]
        verdicts = []
        for l, sigma in cases:
            n = sigma.dim
            tracial_basis = modular_elements(build_modular_basis(tracial(n)))
            scale = np.max(np.abs(np.linalg.eigvalsh(gks_matrix(l, tracial_basis).reduced())))
            ok, min_eig = check_complete_positivity(l)
            ok_sigma, min_eig_sigma = check_complete_positivity(l, modular=build_modular_basis(sigma))
            assert ok_sigma == ok
            assert abs(min_eig_sigma - min_eig) <= 1e-13 * scale
            verdicts.append(ok)
        assert verdicts == [True, True, True, False, False]

    def test_wrong_size_for_the_basis_named(self, rng):
        from qmsflow.states import build_modular_basis

        with pytest.raises(ValueError, match=r"superoperator has shape \(16, 16\), expected \(9, 9\)"):
            check_complete_positivity(np.zeros((16, 16)), modular=build_modular_basis(random_density(3, rng)))

    def test_largest_bohr_block_is_bounded(self, monkeypatch):
        # a block of more units than MAX_BOHR_BLOCK is refused before it is
        # built; at the limit the spec loads
        from qmsflow import generators

        monkeypatch.setattr(generators, "MAX_BOHR_BLOCK", 16)
        GeneratorSpec.create(tracial(4), [(np.diag([1.0, 0.0, 0.0, -1.0]), 0.0)])  # one 16-unit block
        with pytest.raises(ValueError, match=r"largest Bohr block has 25 units; at most 16"):
            GeneratorSpec.create(tracial(5), [(np.diag([1.0, 0.0, 0.0, 0.0, -1.0]), 0.0)])


class TestErgodicity:
    def test_fermi_models_ergodic(self, fermi_m1, fermi_m2):
        assert ergodicity(fermi_m1.spec) == 1
        assert ergodicity(fermi_m2.spec) == 1

    def test_single_diagonal_jump(self):
        e11 = np.diag([1.0, 0.0]).astype(complex)
        sigma = DensityState.from_matrix(np.diag([0.6, 0.4]).astype(complex))
        spec = GeneratorSpec.create(sigma, [(e11, 0.0)])
        assert ergodicity(spec) == 2

    def test_empty_jump_set(self, rng):
        spec = GeneratorSpec.create(random_density(3, rng), [])
        assert ergodicity(spec) == 9

    def test_matches_generator_null_space(self, rng):
        # null(L) is the commutant of the jumps: three independent counts agree
        for _ in range(4):
            spec = random_dbc_spec(int(rng.integers(2, 5)), rng)
            l = build_generator(spec)
            evals = np.linalg.eigvals(l)
            null_dim = int(
                np.sum(np.abs(evals) < 1e-9 * max(1.0, np.max(np.abs(evals))))
            )
            stacked = np.vstack([commutator_super(v) for v in spec.jump_ops()])
            svals = np.linalg.svd(stacked, compute_uv=False)
            commutant = int(np.sum(svals <= 1e-9 * svals[0]))
            assert null_dim == commutant == ergodicity(spec)


class TestSemigroup:
    def test_time_zero_is_identity(self, rng):
        spec = random_dbc_spec(3, rng)
        assert np.allclose(semigroup(build_generator(spec), 0.0), np.eye(9))

    def test_unital(self, rng):
        spec = random_dbc_spec(3, rng)
        p = semigroup(build_generator(spec), 0.7)
        assert np.linalg.norm(apply_super(p, np.eye(3)) - np.eye(3)) < 1e-12

    def test_semigroup_law(self, rng):
        spec = random_dbc_spec(2, rng)
        l = build_generator(spec)
        lhs = semigroup(l, 0.9)
        rhs = semigroup(l, 0.5) @ semigroup(l, 0.4)
        assert np.linalg.norm(lhs - rhs) < 1e-10 * np.linalg.norm(lhs)

    def test_spectral_path_matches_pade(self, rng):
        spec = random_dbc_spec(3, rng)
        l = build_generator(spec)
        for x in (random_matrix(rng, 3), random_density(3, rng).rho):
            (spectral,) = dual_orbit(spec, x, [0.6])
            pade = apply_super(scipy.linalg.expm(0.6 * dag(l)), x)
            assert np.linalg.norm(spectral - pade) < 1e-11 * np.linalg.norm(pade)

    def test_fermi_krawtchouk_decay(self, fermi_m1):
        l = build_generator(fermi_m1.spec)
        k11 = fermi_m1.krawtchouk([(1, 1)])
        t = 0.37
        evolved = apply_super(semigroup(l, t), k11)
        expect = np.exp(-2 * np.cosh(1.0) * t) * k11
        assert np.linalg.norm(evolved - expect) < 1e-12

    def test_choi_positive_along_flow(self, rng):
        from qmsflow.linalg import choi

        spec = random_dbc_spec(2, rng)
        l = build_generator(spec)
        for t in (0.01, 0.1, 1.0):
            c = choi(semigroup(l, t))
            assert np.min(np.linalg.eigvalsh(0.5 * (c + dag(c)))) > -1e-11

    def test_rejects_negative_time(self, rng):
        spec = random_dbc_spec(2, rng)
        with pytest.raises(ValueError):
            semigroup(build_generator(spec), -0.1)

    def test_dual_matches_transpose_route(self, rng):
        spec = random_dbc_spec(2, rng)
        l = build_generator(spec)
        lhs = dag(semigroup(l, 0.8))
        rhs = scipy.linalg.expm(0.8 * dag(l))
        assert np.linalg.norm(lhs - rhs) < 1e-11 * np.linalg.norm(rhs)

    def test_pade_for_any_superoperator(self, rng):
        # an arbitrary superoperator, not KMS-symmetric for any state: each
        # time is one Pade exponential
        l = random_matrix(rng, 9)
        for t in (0.0, 0.3, 1.1):
            assert np.array_equal(semigroup(l, t), scipy.linalg.expm(t * l))

    def test_dual_orbit_rejects_negative_time(self, rng):
        spec = random_dbc_spec(2, rng)
        with pytest.raises(ValueError):
            dual_orbit(spec, spec.sigma.rho, [0.0, -0.1])


@functools.cache
def _covariance_model(name):
    if name == "fermi_m1":
        return fermi_ou(1, 2.0, [1.0]).spec
    if name == "fermi_m2":
        return fermi_ou(2, 1.0, [1.0, 2.0]).spec
    if name == "depolarizing_n3":
        return depolarizing(3)
    return random_dbc_spec(4, np.random.default_rng(4))


COVARIANCE_MODELS = ["fermi_m1", "fermi_m2", "depolarizing_n3", "random4"]
COVARIANCE_SETTINGS = settings(max_examples=16, deadline=None, derandomize=True, database=None)


def _assert_orbits_close(got, expect, rtol=1e-12):
    for a, b in zip(got, expect, strict=True):
        assert np.linalg.norm(a - b) <= rtol * np.linalg.norm(b)


class TestDualOrbit:
    """ergodicity and exp(t L^+) under changes that leave L alone or transform it."""

    @pytest.mark.parametrize("name", COVARIANCE_MODELS)
    def test_matches_pade_of_dense_dual(self, rng, name):
        spec = _covariance_model(name)
        l_adj = dag(build_generator(spec))
        x = random_matrix(rng, spec.dim)
        times = [0.0, 0.05, 0.7, 3.0]
        expect = [apply_super(scipy.linalg.expm(t * l_adj), x) for t in times]
        _assert_orbits_close(dual_orbit(spec, x, times), expect)

    @pytest.mark.parametrize("name", COVARIANCE_MODELS)
    def test_stack_matches_per_time_formula(self, rng, name):
        # the stacked pass against one time at a time: w Q e^{t mu} Q^* (tilde x / w)
        spec = _covariance_model(name)
        x = random_matrix(rng, spec.dim)
        times = [0.0, 0.05, 0.7, 3.0]
        stack = dual_orbit(spec, x, times)
        assert stack.shape == (len(times), spec.dim, spec.dim)
        u, blocks = spec.bohr_factor
        xt = (dag(u) @ x @ u).ravel()
        for t, got in zip(times, stack):
            flat = np.zeros_like(xt)
            for units, w, mu, q in blocks:
                y = np.einsum("kqp,kq->kp", np.conj(q), xt[units] / w)
                flat[units] = w * np.einsum("kpq,kq->kp", q, np.exp(t * mu) * y)
            expect = u @ flat.reshape(u.shape) @ dag(u)
            assert np.linalg.norm(got - expect) <= 1e-15 * np.linalg.norm(expect)

    def test_empty_grid(self):
        spec = _covariance_model("fermi_m2")
        assert dual_orbit(spec, spec.sigma.rho, []).shape == (0, 4, 4)

    @COVARIANCE_SETTINGS
    @given(
        name=st.sampled_from(COVARIANCE_MODELS),
        c=st.sampled_from([1e-20, 1e-10, 1.0, 1e10]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scaling(self, name, c, seed):
        # jumps sqrt(c) V give c L: the same orbit at times t / c
        spec = _covariance_model(name)
        scaled = GeneratorSpec.create(spec.sigma, [(np.sqrt(c) * v, w) for v, w in spec.jumps])
        rng = np.random.default_rng(seed)
        x, times = random_matrix(rng, spec.dim), rng.uniform(0.0, 2.0, 3)
        assert ergodicity(scaled) == ergodicity(spec)
        _assert_orbits_close(dual_orbit(scaled, x, times / c), dual_orbit(spec, x, times))

    @COVARIANCE_SETTINGS
    @given(name=st.sampled_from(COVARIANCE_MODELS), seed=st.integers(0, 2**32 - 1))
    def test_unitary_conjugation(self, name, seed):
        spec = _covariance_model(name)
        rng = np.random.default_rng(seed)
        w, _ = np.linalg.qr(random_matrix(rng, spec.dim))
        sigma = DensityState.from_matrix(w @ spec.sigma.rho @ dag(w))
        rotated = GeneratorSpec.create(sigma, [(w @ v @ dag(w), om) for v, om in spec.jumps])
        x, times = random_matrix(rng, spec.dim), rng.uniform(0.0, 2.0, 3)
        assert ergodicity(rotated) == ergodicity(spec)
        expect = [w @ y @ dag(w) for y in dual_orbit(spec, x, times)]
        _assert_orbits_close(dual_orbit(rotated, w @ x @ dag(w), times), expect)

    @COVARIANCE_SETTINGS
    @given(name=st.sampled_from(COVARIANCE_MODELS), seed=st.integers(0, 2**32 - 1))
    def test_reordered_and_split_jumps(self, name, seed):
        # a permutation of the jumps, or V -> (V/sqrt2, V/sqrt2) for every
        # jump or only the first, leaving V^* whole, is the same L
        spec = _covariance_model(name)
        rng = np.random.default_rng(seed)
        permuted = [spec.jumps[i] for i in rng.permutation(spec.njumps)]
        split = [(v / np.sqrt(2.0), w) for v, w in spec.jumps for _ in range(2)]
        (v, w), rest = spec.jumps[0], list(spec.jumps[1:])
        split_first = [(v / np.sqrt(2.0), w)] * 2 + rest
        x, times = random_matrix(rng, spec.dim), rng.uniform(0.0, 2.0, 3)
        expect = dual_orbit(spec, x, times)
        for jumps in (permuted, split, split_first):
            other = GeneratorSpec.create(spec.sigma, jumps)
            assert ergodicity(other) == ergodicity(spec)
            _assert_orbits_close(dual_orbit(other, x, times), expect)

    @pytest.mark.parametrize(
        "jumps, match",
        [
            # mixes two Bohr blocks
            ([(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0)] * 2, "not a modular eigenvector"),
            # right block, wrong frequency
            (
                [(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0), (np.array([[0.0, 0.0], [1.0, 0.0]]), 0.0)],
                "not a modular eigenvector",
            ),
            # a modular eigenvector without its adjoint
            ([(np.array([[0.0, 1.0], [0.0, 0.0]]), -np.log(7.0 / 3.0))], "not KMS-symmetric"),
        ],
    )
    def test_rejects_non_eigenvector_jump(self, jumps, match):
        sigma = DensityState.from_matrix(np.diag([0.7, 0.3]).astype(complex))
        with pytest.raises(ValueError, match=match):
            GeneratorSpec.create(sigma, jumps)
        # the blocks are the check wherever they are first read
        spec = GeneratorSpec(sigma, tuple(jumps))
        with pytest.raises(ValueError, match=match):
            ergodicity(spec)
        with pytest.raises(ValueError, match=match):
            dual_orbit(spec, sigma.rho, [1.0])


class TestRestriction:
    def test_fermi_single_mode_rates(self, fermi_m1):
        rate = restrict_to_commutative(fermi_m1.spec, hypercube_projections(fermi_m1))
        be = 2.0
        assert rate.rates[0, 1] == pytest.approx(np.exp(-be / 2), abs=1e-12)
        assert rate.rates[1, 0] == pytest.approx(np.exp(+be / 2), abs=1e-12)

    def test_fermi_stationary_vector_is_gibbs(self, fermi_m1):
        rate = restrict_to_commutative(fermi_m1.spec, hypercube_projections(fermi_m1))
        z = 1.0 + np.exp(-2.0)
        assert np.allclose(rate.stationary, [1.0 / z, np.exp(-2.0) / z], atol=1e-12)

    def test_classical_detailed_balance(self, fermi_m2):
        rate = restrict_to_commutative(fermi_m2.spec, hypercube_projections(fermi_m2))
        assert rate.detailed_balance_residual() < 1e-11
        assert rate.row_sum_residual() < 1e-11
        off = rate.rates - np.diag(np.diagonal(rate.rates))
        assert np.min(off) > -1e-12

    def test_forward_equation_matches_dual_generator(self, fermi_m1, rng):
        projs = hypercube_projections(fermi_m1)
        rate = restrict_to_commutative(fermi_m1.spec, projs)
        p = rng.uniform(0.2, 0.8, size=2)
        p /= p.sum()
        traces = [float(np.trace(e).real) for e in projs]
        rho = sum(pk / tk * e for pk, tk, e in zip(p, traces, projs))
        image = apply_dual(fermi_m1.spec, rho)
        pdot_quantum = [float(np.trace(e @ image).real) for e in projs]
        pdot_classical = rate.rates.T @ p
        assert np.allclose(pdot_quantum, pdot_classical, atol=1e-12)

    def test_rejects_non_invariant_span(self, rng):
        spec = random_dbc_spec(2, rng, n_offdiag=1, n_zero=0)
        # projections onto a basis unrelated to sigma's eigenvectors
        q, _ = np.linalg.qr(random_matrix(rng, 2))
        projs = [np.outer(q[:, i], np.conj(q[:, i])) for i in range(2)]
        with pytest.raises(ValueError, match="invariant"):
            restrict_to_commutative(spec, projs)

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e6])
    def test_verdict_independent_of_units(self, rng, c):
        # jumps V -> sqrt(c) V scale L by c: the hypercube is accepted with
        # rates scaled by c, projections on a random basis are rejected
        model = fermi_ou(2, 1.0, [1.0, 2.0])
        spec = GeneratorSpec.create(
            model.spec.sigma, [(np.sqrt(c) * v, w) for v, w in model.spec.jumps]
        )
        base = restrict_to_commutative(model.spec, hypercube_projections(model))
        rate = restrict_to_commutative(spec, hypercube_projections(model))
        assert np.linalg.norm(rate.rates - c * base.rates) <= 1e-13 * c * np.linalg.norm(base.rates)
        q, _ = np.linalg.qr(random_matrix(rng, 4))
        projs = [np.outer(q[:, i], np.conj(q[:, i])) for i in range(4)]
        with pytest.raises(ValueError, match="invariant"):
            restrict_to_commutative(spec, projs)

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e6])
    def test_pure_dephasing_accepted(self, rng, c):
        # zero-frequency jumps commute with sigma, so L^+ vanishes on the
        # modular subalgebra; in a non-diagonal eigenbasis the images are
        # round-off, which the floor must not read as a residual
        base = random_dbc_spec(4, rng, n_offdiag=0)
        spec = GeneratorSpec.create(base.sigma, [(np.sqrt(c) * v, w) for v, w in base.jumps])
        rate = restrict_to_commutative(spec, modular_subalgebra(spec.sigma))
        k_norm = c * np.linalg.norm(sum(v @ v for v, _ in base.jumps))
        assert np.max(np.abs(rate.rates)) <= 1e-13 * k_norm

    def test_rejects_non_projections(self, fermi_m1):
        with pytest.raises(ValueError, match="not an orthogonal projection"):
            restrict_to_commutative(fermi_m1.spec, [0.5 * np.eye(2), 0.5 * np.eye(2)])

    def test_rejects_wrong_dimension(self, fermi_m1):
        with pytest.raises(ValueError, match="shape"):
            restrict_to_commutative(fermi_m1.spec, [np.eye(3)])

    def test_rejects_zero_projection(self, fermi_m1):
        # [I, 0] passes every projection test, but the rates divide by the
        # trace of each projection
        with pytest.raises(ValueError, match="projection 1 is zero"):
            restrict_to_commutative(fermi_m1.spec, [np.eye(2), np.zeros((2, 2))])


class TestModularSubalgebra:
    def test_two_level(self):
        sigma = DensityState.from_matrix(np.diag([0.7, 0.3]).astype(complex))
        projs = modular_subalgebra(sigma)
        assert np.allclose(projs[0], np.diag([0, 1]))  # ascending eigenvalues
        assert np.allclose(projs[1], np.diag([1, 0]))

    def test_three_level_rank_one_orthogonal(self, rng):
        sigma = random_density(3, rng)
        projs = modular_subalgebra(sigma)
        assert len(projs) == 3
        for i, p in enumerate(projs):
            assert np.allclose(p @ p, p)
            assert np.linalg.norm(sigma.rho @ p - p @ sigma.rho) < 1e-13
            for q in projs[:i]:
                assert np.linalg.norm(p @ q) < 1e-12

    def test_rejects_degenerate(self):
        sigma = DensityState.from_matrix(np.diag([0.4, 0.4, 0.2]).astype(complex))
        with pytest.raises(ValueError, match="degenerate"):
            modular_subalgebra(sigma)

    def test_accepts_tiny_distinct_eigenvalues(self):
        # 1e-12 apart but log 2 apart in frequency: the Bohr grouping, not
        # an absolute gap, decides degeneracy
        sigma = DensityState.from_matrix(np.diag([1e-12, 2e-12, 1.0 - 3e-12]).astype(complex))
        projs = modular_subalgebra(sigma)
        assert len(projs) == 3
        assert np.allclose(sum(projs), np.eye(3), atol=1e-12)


def test_dirichlet_positivity(rng):
    for _ in range(6):
        n = int(rng.integers(2, 6))
        spec = random_dbc_spec(n, rng)
        l = build_generator(spec)
        a = random_matrix(rng, n)
        val = -inner_s(spec.sigma, 0.5, a, apply_super(l, a)).real
        assert val > -1e-11
