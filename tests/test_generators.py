import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qmsflow.generators import (
    GeneratorSpec,
    Superoperator,
    _admit,
    _certify_blocks,
    _weighted_residual,
    apply_dual,
    apply_generator,
    build_generator,
    certify_detailed_balance,
    check_complete_positivity,
    dual_orbit,
    ergodicity,
    modular_subalgebra,
    restrict_to_commutative,
)
from qmsflow.canonical import extract_canonical
from qmsflow.linalg import apply_super, choi, dag, sharp, unvec, vec
from qmsflow.models import (
    depolarizing,
    fermi_ou,
    fermi_ou_infinite,
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
)

from conftest import (
    commutator_super,
    kron_sum_generator,
    modular_elements,
    modular_superoperator,
    near_degenerate_spec,
    random_matrix,
    self_adjointness_residual,
    star_swap_residual,
    tracial,
    weight_superoperator_f,
    weight_superoperator_s,
)


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


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
            GeneratorSpec(sigma, [(v, 0.0), (dag(v), 0.0)])

    def test_rejects_unpaired_jump(self, rng):
        sigma = random_density(2, rng)
        u = sigma.eigenvectors
        v = np.sqrt(2) * np.outer(u[:, 0], np.conj(u[:, 1]))
        w = float(np.log(sigma.eigenvalues[1] / sigma.eigenvalues[0]))
        with pytest.raises(ValueError, match="adjoint"):
            GeneratorSpec(sigma, [(v, w)])

    def test_self_adjoint_jump_pairs_with_itself(self):
        spec = GeneratorSpec(tracial(2), [(PAULI_X, 0.0)])
        assert spec.njumps == 1

    @pytest.mark.parametrize("scale", [1e-155, 1e-160, 1e-165, 1e-320])
    def test_rejects_underflowing_generator(self, fermi_m2, scale):
        # L ~ scale^2 is subnormal at 1e-155 and 0 from 1e-162 on, while the
        # jumps themselves are nonzero
        spec = fermi_m2.spec
        with pytest.raises(ValueError, match="L underflows double precision"):
            GeneratorSpec(spec.sigma, [(scale * v, w) for v, w in spec.jumps])

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e-310, 1e-320])
    def test_rejects_off_block_jump_at_subnormal_scale(self, fermi_m2, scale):
        # the off-block fraction of a jump with subnormal entries is judged
        # as at scale 1, not read as nan and let through
        v = np.random.default_rng(0).standard_normal((4, 4))
        with pytest.raises(ValueError, match="jump 4 is not a modular eigenvector: 9.595e-01"):
            GeneratorSpec(fermi_m2.spec.sigma, [*fermi_m2.spec.jumps, (scale * v, 0.0), (scale * v.T, 0.0)])

    @pytest.mark.parametrize("jumps", [[], [(np.zeros((4, 4)), 0.0)], [(np.eye(4), 0.0)]])
    def test_generator_exactly_zero_is_admitted(self, fermi_m2, jumps):
        # no jumps, a zero jump, and a multiple of 1 (L = 0 but K != 0)
        # give L = 0 without underflow
        spec = GeneratorSpec(fermi_m2.spec.sigma, jumps)
        assert all(not x.any() for *_, x in spec.bohr_blocks[1])

    def test_jumps_are_read_only_views_of_the_stack(self, rng):
        spec = random_dbc_spec(4, rng)
        c, vs, k = spec.jump_stack
        for j, (v, _) in enumerate(spec.jumps):
            assert np.shares_memory(v, vs) and np.array_equal(v, vs[j])
            assert not v.flags.writeable
        assert not any(a.flags.writeable for a in (c, vs, k, spec._eigen_rows))

    def test_gks_reads_the_admitted_rows(self, rng):
        # the coefficients come from the rows tilde V_j and tilde K kept at
        # construction, so the jumps are not read, let alone rotated again;
        # a modular basis of another sigma object is refused
        from qmsflow.generators import _jump_gks
        from qmsflow.states import build_modular_basis

        spec = random_dbc_spec(4, rng)
        md = build_modular_basis(spec.sigma)
        gks = _jump_gks(spec, md)
        c, vs, k = spec.jump_stack
        object.__setattr__(spec, "jump_stack", (c, np.full_like(vs, np.nan), np.full_like(k, np.nan)))
        again = _jump_gks(spec, md)
        assert np.array_equal(again.row, gks.row) and np.array_equal(again.col, gks.col)
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(again.blocks, gks.blocks, strict=True))
        twin = build_modular_basis(DensityState.from_matrix(spec.sigma.rho))
        with pytest.raises(ValueError, match="own sigma"):
            _jump_gks(spec, twin)


def _offblock_jumps(spec, rel):
    """The jumps of ``spec`` (sigma nondegenerate), each with rel ||V_j||
    of mass added off its Bohr block: a traceless diagonal shift in sigma's
    eigenbasis at omega != 0, a hop between its extreme eigenvectors at
    omega = 0."""
    n, u = spec.dim, spec.sigma.eigenvectors
    shift, hop = np.zeros((n, n)), np.zeros((n, n))
    shift[0, 0], shift[1, 1], hop[0, n - 1] = 2**-0.5, -(2**-0.5), 1.0
    return [(v + rel * np.linalg.norm(v) * (u @ (shift if w != 0 else hop) @ dag(u)), w) for v, w in spec.jumps]


def _offblock_fractions(sigma, jumps):
    """Per jump, the Frobenius norms of tilde V_j = U^* V_j U off its Bohr
    block, as its difference from the row :func:`_admit` returns with those
    entries zeroed (not from the jump :func:`_admit` snaps), and of V_j whole."""
    n, u = sigma.dim, sigma.eigenvectors
    vs = np.array([v for v, _ in jumps], dtype=complex)
    rotated = (dag(u) @ vs @ u).reshape(len(vs), n * n)
    _, on_block = _admit(sigma, vs.copy(), np.array([w for _, w in jumps]))
    return np.linalg.norm(rotated - on_block, axis=1), np.linalg.norm(vs, axis=(1, 2))


SNAP_SPECS = [(2, 0), (3, 1), (4, 2), (6, 3), (8, 4)]
# models whose jumps are exact modular eigenvectors: (build, argument)
EXACT_MODELS = [
    *((lambda m: fermi_ou(m, 1.0, [1.0, 2.0, 1.3, 1.6][:m]).spec, m) for m in range(1, 5)),
    *((depolarizing, n) for n in range(2, 7)),
    (fermi_ou_infinite, 2),
    (fermi_ou_infinite, 4),
]


class TestSnap:
    """Construction stores each jump with its part off its Bohr block taken away."""

    @pytest.mark.parametrize("build, arg", EXACT_MODELS)
    def test_exact_eigenvectors_stored_as_given(self, build, arg, monkeypatch):
        given_jumps, admit = [], GeneratorSpec.__post_init__

        def recording(spec):
            given_jumps.append(list(spec.jumps))
            admit(spec)

        monkeypatch.setattr(GeneratorSpec, "__post_init__", recording)
        spec = build(arg)
        assert len(given_jumps) == 1
        assert all(np.array_equal(v, x) for (v, _), (x, _) in zip(spec.jumps, given_jumps[0], strict=True))

    @pytest.mark.parametrize("rel", [1e-12, 1e-11, 0.99e-10])
    @pytest.mark.parametrize("n, seed", SNAP_SPECS)
    def test_stored_jumps_lie_on_their_blocks(self, n, seed, rel):
        base = random_dbc_spec(n, np.random.default_rng(seed))
        raw = _offblock_jumps(base, rel)
        spec = GeneratorSpec(base.sigma, raw)
        off, mass = _offblock_fractions(spec.sigma, spec.jumps)
        assert np.all(off <= 1e-15 * mass)
        raw_off, raw_mass = _offblock_fractions(spec.sigma, raw)
        assert np.all(raw_off > 0.5 * rel * raw_mass)
        for (v, _), (x, _), frac in zip(spec.jumps, raw, raw_off / raw_mass):
            assert np.linalg.norm(v - x) <= (frac + 1e-15) * np.linalg.norm(x)

    @pytest.mark.parametrize("n, seed", SNAP_SPECS)
    def test_one_generator_from_raw_jumps(self, n, seed):
        # raw jumps with 0.99e-10 of their mass off their blocks: the dense
        # L of the stored jumps, rotated into sigma's eigenbasis, is the
        # spec's Bohr blocks and nothing else
        from qmsflow.generators import _rotated

        base = random_dbc_spec(n, np.random.default_rng(seed))
        spec = GeneratorSpec(base.sigma, _offblock_jumps(base, 0.99e-10))
        l = build_generator(spec)
        blocks = np.zeros((n * n, n * n), dtype=complex)
        for units, _, x in spec.bohr_blocks[1]:
            blocks[units[:, :, None], units[:, None, :]] = x
        assert np.linalg.norm(_rotated(l, spec.sigma) - blocks) <= 1e-14 * np.linalg.norm(l, 2)

    @pytest.mark.parametrize("n, seed", SNAP_SPECS)
    def test_snap_commutes_with_conjugation_and_reordering(self, n, seed):
        base = random_dbc_spec(n, np.random.default_rng(seed))
        raw = _offblock_jumps(base, 0.99e-10)
        spec = GeneratorSpec(base.sigma, raw)
        w, _ = np.linalg.qr(random_matrix(np.random.default_rng(seed + 10), n))
        sigma = DensityState.from_matrix(w @ base.sigma.rho @ dag(w))
        rotated = GeneratorSpec(sigma, [(w @ v @ dag(w), om) for v, om in raw])
        # up to the round-off of sigma's eigenvectors, eps / (relative gap)
        lam = base.sigma.eigenvalues
        tol = 1e-15 * lam[-1] / np.min(np.diff(lam))
        for (v, om), (x, om_x) in zip(rotated.jumps, spec.jumps):
            assert om == om_x
            assert np.linalg.norm(v - w @ x @ dag(w)) <= tol * np.linalg.norm(x)
        order = np.random.default_rng(seed).permutation(len(raw))
        shuffled = GeneratorSpec(base.sigma, [raw[i] for i in order])
        for (v, om), i in zip(shuffled.jumps, order):
            assert om == spec.jumps[i][1]
            assert np.linalg.norm(v - spec.jumps[i][0]) <= 1e-15 * np.linalg.norm(v)


class TestBuildGenerator:
    def test_empty_jump_list_gives_zero(self, rng):
        spec = GeneratorSpec(random_density(3, rng), [])
        assert np.allclose(build_generator(spec), 0.0)

    @pytest.mark.parametrize("case", ["fermi_m2", "random_5", "no_jumps"])
    def test_matches_kron_sum(self, rng, fermi_m2, case):
        if case == "fermi_m2":
            spec = fermi_m2.spec
        elif case == "random_5":
            spec = random_dbc_spec(5, rng)
        else:
            spec = GeneratorSpec(random_density(3, rng), [])
        l = build_generator(spec)
        ref = kron_sum_generator(spec)
        assert np.linalg.norm(l - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_pauli_x_double_commutator(self):
        spec = GeneratorSpec(tracial(2), [(PAULI_X, 0.0)])
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
            spec = GeneratorSpec(random_density(3, rng), [])
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
            rep = certify_detailed_balance(Superoperator(spec.sigma, build_generator(spec)))
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
        rep = certify_detailed_balance(Superoperator(sigma, l))
        assert rep.s_residuals[0.5] < 1e-10
        assert rep.s_residuals[1.0] > 1e-3
        assert rep.modular_commutation > 1e-2
        assert rep.kms_only
        assert not rep.gns_dbc

    @pytest.mark.parametrize("verdict", [certify_detailed_balance, check_complete_positivity, extract_canonical])
    def test_bare_matrix_is_no_input(self, verdict):
        # a dense L is read only as Superoperator(sigma, matrix): no sigma is guessed for it
        with pytest.raises(AttributeError):
            verdict(np.zeros((4, 4)))

    def test_wrong_size_superoperator_named(self):
        sigma = DensityState.from_matrix(np.diag([0.3, 0.7]).astype(complex))
        with pytest.raises(ValueError, match=r"superoperator has shape \(9, 9\), expected \(4, 4\)"):
            certify_detailed_balance(Superoperator(sigma, np.zeros((9, 9))))

    def test_one_operator_norm_of_l(self, rng, monkeypatch):
        # the 2-norm of L is an SVD; certification takes it once and reuses
        # it: one SVD of n^2-row arrays, ||L|| and the modular commutator
        # stacked
        spec = random_dbc_spec(3, rng)
        l = build_generator(spec)
        calls = counting_svds(monkeypatch, rows=9)
        certify_detailed_balance(Superoperator(spec.sigma, l))
        assert len(calls) == 1

    @pytest.mark.parametrize("case", ["kms_only", "random_1e-6", "random_1", "random_1e6"])
    def test_residuals_match_svd_reference(self, rng, case):
        if case == "kms_only":
            u = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
            l, sigma, _ = kms_counterexample(u, [1.0, 1.0] / np.sqrt(2), [1.0, 2.0] / np.sqrt(5))
        else:
            l, sigma = float(case.split("_")[1]) * random_matrix(rng, 9), random_density(3, rng)
        rep = certify_detailed_balance(Superoperator(sigma, l))
        got = dict(rep.s_residuals)
        ref = {s: svd_residual(l, weight_superoperator_s(sigma, s)) for s in got}
        got["bkm"] = rep.bkm_residual
        ref["bkm"] = svd_residual(l, weight_superoperator_f(sigma, bkm_weight))
        got["direct"] = self_adjointness_residual(l, weight_superoperator_s(sigma, 0.25))
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
        resid = self_adjointness_residual(np.eye(4), weight_superoperator_s(sigma, 0.5))
        assert resid == 0.0 and not np.signbit(resid)

    def test_two_svds(self, rng, monkeypatch):
        # ||L|| and the modular commutator, which is not normal; every other
        # 2-norm is an eigensolve or in closed form
        spec = random_dbc_spec(3, rng)
        l = build_generator(spec)
        calls = counting_svds(monkeypatch)
        certify_detailed_balance(Superoperator(spec.sigma, l))
        assert len(calls) <= 2

    def test_modular_operator_self_adjoint_every_s(self, rng):
        sigma = random_density(3, rng)
        delta = modular_superoperator(sigma)
        rep = certify_detailed_balance(Superoperator(sigma, delta))
        assert max(rep.s_residuals.values()) < 1e-11
        assert rep.bkm_residual < 1e-11

    def test_f_family_follows_gns(self, rng):
        # GNS self-adjointness propagates to every weighted form, sampled
        for _ in range(3):
            spec = random_dbc_spec(int(rng.integers(2, 5)), rng)
            l = build_generator(spec)
            for f in (np.sqrt, bkm_weight, lambda t: (1 + t) / 2):
                resid = self_adjointness_residual(
                    l, weight_superoperator_f(spec.sigma, f)
                )
                assert resid < 1e-9

    @pytest.mark.parametrize("kind", ["spec", "superoperator", "random"])
    def test_block_weighted_residual_matches_dense(self, rng, kind):
        # the residuals read from L's blocks (verify's Bures battery), three
        # weights in one call, against the dense weight superoperators:
        # equal where L is not Omega-symmetric, round-off where it is
        if kind == "random":
            sigma, dense = random_density(3, rng), random_matrix(rng, 9)
        else:
            spec = random_dbc_spec(4, rng)
            sigma, dense = spec.sigma, build_generator(spec)
        blocks = (spec if kind == "spec" else Superoperator(sigma, dense)).bohr_blocks[1]
        weights = (np.sqrt, bkm_weight, lambda t: (1 + t) / 2)
        kernels = np.stack([_weight_kernel_f(sigma, f) for f in weights])
        got = _weighted_residual(blocks, kernels, kernels.max(axis=(1, 2)), np.linalg.norm(dense, 2))
        assert got.shape == (3,)
        for f, mine in zip(weights, got.tolist()):
            want = self_adjointness_residual(dense, weight_superoperator_f(sigma, f))
            if kind == "random":
                assert want > 1e-2 and mine == pytest.approx(want, rel=1e-12)
            else:
                assert max(mine, want) < 1e-12

    def test_one_eigensolve_and_one_svd_per_size_group(self, monkeypatch):
        # Fermi m=4's seven size groups: the five Omega_s and Omega_BKM share
        # one eigvalsh per group, ||L_B|| and the modular commutator one SVD
        spec = fermi_ou(4, 1.0, [1.0, 1.3, 1.7, 2.2]).spec
        assert len(spec.bohr_blocks[1]) == 7
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        _certify_blocks(spec.sigma, spec.bohr_blocks[1])
        assert calls.count("eigvalsh") == calls.count("svd") == 7

    def test_star_residual_free_of_overflow(self):
        # the kms-counterexample plus 1e-3 sharp(A, B) is not star-preserving;
        # its residual is the same at x1 and x1e154, where the squares of
        # its entries overflow
        u = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        l, sigma, _ = kms_counterexample(u, np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, 2.0]) / np.sqrt(5))
        rng = np.random.default_rng(0)
        a, b = random_matrix(rng, 2), random_matrix(rng, 2)
        l = l + 1e-3 * sharp(a, b)
        base = certify_detailed_balance(Superoperator(sigma, l)).star_preservation
        assert base == pytest.approx(4.489e-3, rel=1e-3)
        scaled = certify_detailed_balance(Superoperator(sigma, 1e154 * l)).star_preservation
        assert scaled == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
    def test_star_and_unital_residuals_match_the_dense_checks(self, rng, scale):
        # read in sigma's eigenbasis, they are the dense checks of K(X^*) =
        # K(X)^* and of ||L(1)|| / ||L||_2 that complete positivity relies on
        sigma, l = random_density(3, rng), scale * random_matrix(rng, 9)
        rep = certify_detailed_balance(Superoperator(sigma, l))
        assert rep.star_preservation == pytest.approx(star_swap_residual(l), rel=1e-12)
        unital = np.linalg.norm(l @ vec(np.eye(3))) / np.linalg.norm(l, 2)
        assert rep.unital_residual == pytest.approx(unital, rel=1e-12)


class TestBlockRoute:
    """A spec's certification and distances from its Bohr blocks; the dense L is the oracle."""

    @pytest.mark.parametrize("eps", [0.0, 5e-9])
    def test_certification_bounds_the_dense_one(self, rng, eps):
        # eps scales the first jump, a GNS defect the KMS check lets through
        for _ in range(4):
            spec = random_dbc_spec(int(rng.integers(2, 6)), rng)
            (v, w), rest = spec.jumps[0], list(spec.jumps[1:])
            spec = GeneratorSpec(spec.sigma, [((1 + eps) * v, w)] + rest)
            blocks = certify_detailed_balance(spec)
            dense = certify_detailed_balance(Superoperator(spec.sigma, build_generator(spec)))
            assert blocks.l_norm <= dense.l_norm * (1 + 1e-12)
            assert blocks.l_norm == pytest.approx(dense.l_norm, rel=1e-12)
            assert blocks.gns_dbc == dense.gns_dbc and blocks.kms_only == dense.kms_only
            pairs = [(blocks.s_residuals[s], dense.s_residuals[s]) for s in dense.s_residuals]
            pairs += [(blocks.bkm_residual, dense.bkm_residual),
                      (blocks.modular_commutation, dense.modular_commutation)]
            for mine, theirs in pairs:
                assert mine >= theirs - 1e-14
                assert mine <= theirs + 1e-12 + 1e-6 * theirs

    def test_midpoint_jump_keeps_sigmas_blocks(self):
        # a jump frequency midway between two Bohr frequencies 1.5e-10 apart
        # is looked up, not grouped: the tie goes to the smaller |frequency|,
        # so the jump and its adjoint land on mirrored blocks, the layout is
        # the exact spec's, and the distance is the same in both directions
        from qmsflow.generators import _block_distance

        f = 0.5
        lam = np.array([1.0, np.exp(f), np.exp(2 * f + 1.5e-10)])
        sigma = DensityState.from_matrix(np.diag(lam / lam.sum()).astype(complex))
        e10 = np.zeros((3, 3), dtype=complex)
        e10[1, 0] = 1.0
        exact = GeneratorSpec(sigma, [(e10, -f), (e10.T.copy(), f)])
        midpoint = GeneratorSpec(sigma, [(e10, -f - 0.75e-10), (e10.T.copy(), f + 0.75e-10)])
        assert _layout(midpoint) == _layout(exact)
        l_gap = np.linalg.norm(build_generator(midpoint) - build_generator(exact), 2)
        there = _block_distance(midpoint.bohr_blocks[1], exact)
        assert _block_distance(exact.bohr_blocks[1], midpoint) == pytest.approx(there, rel=1e-15)
        assert there == pytest.approx(l_gap, rel=1e-14, abs=1e-15)

    def test_superoperator_distance_bounds_the_dense_one(self, rng):
        # a superoperator is one block and the other spec's jumps lie on
        # their blocks, so the distance is exact
        from qmsflow.generators import _block_distance

        spec = random_dbc_spec(3, rng)
        other = GeneratorSpec(spec.sigma, [(1.1 * v, w) for v, w in spec.jumps])
        l = build_generator(spec)
        gap = np.linalg.norm(build_generator(other) - l, 2)
        got = _block_distance(Superoperator(spec.sigma, l).bohr_blocks[1], other)
        assert gap - 1e-14 * gap <= got <= gap + 1e-14 * gap



def _layout(spec):
    """Each size group's units, in order: the layout of a spec's Bohr blocks."""
    return [units.tolist() for units, *_ in spec.bohr_blocks[1]]


def _unrotated(lt, sigma):
    """The superoperator (column stacking) whose entries on the units E_ab
    of sigma's eigenvectors are ``lt``: W lt W^* with column a n + b of W
    the column-stacked U E_ab U^*."""
    n, u = sigma.dim, sigma.eigenvectors
    w = np.einsum("ia,jb->jiab", u, np.conj(u)).reshape(n * n, n * n)
    return w @ lt @ dag(w)


FAR = 1e12  # a jump frequency far beyond every Bohr frequency


class TestSigmaDecidesTheBlocks:
    """The Bohr blocks are sigma's alone; the jumps' frequencies are looked up among them."""

    def test_far_zero_jump_keeps_the_blocks(self):
        # one zero jump at omega = 1e12 neither merges the 9 blocks of Fermi
        # m=2 nor moves a unit, and the certification is the same
        spec = fermi_ou(2, 1.0, [1.0, 1.3]).spec
        far = GeneratorSpec(spec.sigma, [*spec.jumps, (np.zeros((4, 4)), FAR)])
        assert [units.shape for units, *_ in far.bohr_blocks[1]] == [(4, 1), (4, 2), (1, 4)]
        assert _layout(far) == _layout(spec)
        for (_, w, x), (_, w0, x0) in zip(far.bohr_blocks[1], spec.bohr_blocks[1]):
            assert np.array_equal(w, w0) and np.array_equal(x, x0)
        assert far.certification.as_dict() == spec.certification.as_dict()

    @pytest.mark.parametrize("change", ["permuted", "times_1e100", "times_1e-100", "zero_jump"])
    @pytest.mark.parametrize("name", ["fermi_m2", "fermi_m3", "random5"])
    def test_layout_ignores_the_jumps(self, name, change):
        spec = {
            "fermi_m2": lambda: fermi_ou(2, 1.0, [1.0, 1.3]).spec,
            "fermi_m3": lambda: fermi_ou(3, 1.0, [1.0, 1.3, 1.7]).spec,
            "random5": lambda: random_dbc_spec(5, np.random.default_rng(4), ergodic=True),
        }[name]()
        jumps = list(spec.jumps)
        if change == "permuted":
            jumps = [jumps[k] for k in np.random.default_rng(5).permutation(len(jumps))]
        elif change == "zero_jump":
            jumps.append((np.zeros_like(jumps[0][0]), 0.37))
        else:
            jumps = [(float(change[len("times_"):]) * v, w) for v, w in jumps]
        assert _layout(GeneratorSpec(spec.sigma, jumps)) == _layout(spec)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: fermi_ou(1, 1.0, [1.0]).spec,
            lambda: fermi_ou(2, 1.0, [1.0, 1.3]).spec,
            lambda: fermi_ou(4, 1.0, [1.0, 1.3, 1.7, 2.2]).spec,
            lambda: fermi_ou(3, 1.0, [1.0, 1.0, 1.0]).spec,
            lambda: fermi_ou_infinite(4),
            lambda: depolarizing(3),
            lambda: random_dbc_spec(4, np.random.default_rng(1), ergodic=True),
            lambda: random_dbc_spec(6, np.random.default_rng(7), n_offdiag=15, n_zero=3, ergodic=True),
            lambda: near_degenerate_spec(0.0),
            lambda: near_degenerate_spec(5e-12),
            lambda: near_degenerate_spec(5e-11),
        ],
        ids=["fermi_m1", "fermi_m2", "fermi_m4", "fermi_equal", "fermi_infinite_4", "depolarizing_3",
             "random4", "random6", "near_degenerate_0", "near_degenerate_5e-12", "near_degenerate_5e-11"],
    )
    def test_every_mirror_is_a_block_of_the_same_size(self, build):
        spec = build()
        n = spec.dim
        blocks = {frozenset(b.tolist()) for units, *_ in spec.bohr_blocks[1] for b in units}
        assert sum(len(b) for b in blocks) == n * n
        for b in blocks:
            assert frozenset((u % n) * n + u // n for u in b) in blocks

    def test_star_residual_matches_the_dense_one_on_seven_size_groups(self, rng):
        # Fermi m=4's blocks, with and without a perturbation that keeps
        # their layout and breaks star preservation, against the dense check
        spec = fermi_ou(4, 1.0, [1.0, 1.3, 1.7, 2.2]).spec
        sigma, nn = spec.sigma, spec.dim**2
        assert len(spec.bohr_blocks[1]) == 7
        for eps in (0.0, 1e-3):
            blocks = [(u, w, x + eps * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)))
                      for u, w, x in spec.bohr_blocks[1]]
            lt = np.zeros((nn, nn), dtype=complex)
            for units, _, x in blocks:
                lt[units[:, :, None], units[:, None, :]] = x
            got = _certify_blocks(sigma, blocks).star_preservation
            want = star_swap_residual(_unrotated(lt, sigma))
            if eps:
                assert want > 1e-4 and got == pytest.approx(want, rel=1e-12)
            else:
                assert max(got, want) < 1e-15

    def test_distance_matches_the_dense_gap_on_seven_size_groups(self):
        from qmsflow.generators import _block_distance

        # the first jump and its adjoint, jump 1, times 1.1
        spec = fermi_ou(4, 1.0, [1.0, 1.3, 1.7, 2.2]).spec
        other = GeneratorSpec(spec.sigma, [(1.1 * v if k < 2 else v, w) for k, (v, w) in enumerate(spec.jumps)])
        gap = np.linalg.norm(build_generator(other) - build_generator(spec), 2)
        assert gap > 1e-2
        assert _block_distance(spec.bohr_blocks[1], other) == pytest.approx(gap, rel=1e-14)


class TestCompletePositivity:
    def test_built_generators_pass(self, rng):
        spec = random_dbc_spec(3, rng)
        ok, min_eig = check_complete_positivity(Superoperator(tracial(3), build_generator(spec)))
        assert ok
        assert min_eig > -1e-10

    def test_sign_flipped_double_commutator_fails(self, rng):
        x = random_matrix(rng, 2)
        v = x + dag(x)
        c = commutator_super(v)
        l_bad = c @ c  # +[V,[V,.]]
        ok, min_eig = check_complete_positivity(Superoperator(tracial(2), l_bad))
        assert not ok
        assert min_eig < -1e-6

    def test_zero_map(self):
        ok, min_eig = check_complete_positivity(Superoperator(tracial(3), np.zeros((9, 9))))
        assert ok
        assert min_eig == pytest.approx(0.0, abs=1e-14)

    def test_rejects_non_unital(self, rng):
        x = random_matrix(rng, 2)
        with pytest.raises(ValueError):
            check_complete_positivity(Superoperator(tracial(2), np.eye(4) + 0 * x[0, 0]))

    def test_verdict_independent_of_units(self, fermi_m1):
        # Fermi m=1 minus 12 times the dissipator 2 V^* A V - {V^* V, A} of
        # the lowering operator: rejected at every scale
        lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        jump = kron_sum_generator([(lower, 0.0)])  # not detailed balance: no spec admits it
        l = build_generator(fermi_m1.spec) - 12.0 * jump
        for scale in (1.0, 1e-6, 1e-9, 1e-12):
            ok, min_eig = check_complete_positivity(Superoperator(tracial(2), scale * l))
            assert not ok, scale
            assert min_eig < -scale

    def test_one_pade_exponential_and_no_svd(self, rng, monkeypatch):
        # the reduced block is the verdict: no exponential at all, and after
        # certification ||L|| and the unital and star residuals are kept
        spec = random_dbc_spec(3, rng)
        l = Superoperator(spec.sigma, build_generator(spec))
        certify_detailed_balance(l)
        pade = counting_expm(monkeypatch)
        svds = counting_svds(monkeypatch)
        assert check_complete_positivity(l)[0]
        assert pade == []
        assert svds == []

    def test_verdict_matches_choi_of_propagators(self, rng, fermi_m1):
        # oracle: exp(tL) is CP iff its Choi matrix is PSD, sampled at
        # three times, against the verdict of the reduced block alone
        x = random_matrix(rng, 2)
        flip = commutator_super(x + dag(x))
        lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        jump = kron_sum_generator([(lower, 0.0)])  # not detailed balance: no spec admits it
        cases = [(build_generator(random_dbc_spec(n, rng)), n) for n in (2, 3, 4)]
        cases += [(flip @ flip, 2), (build_generator(fermi_m1.spec) - 12.0 * jump, 2)]
        verdicts = []
        for l, n in cases:
            choi_psd = True
            for t in (0.01, 0.1, 1.0):
                evals = np.linalg.eigvalsh(choi(scipy.linalg.expm(t * l)))
                choi_psd &= bool(evals[0] >= -1e-8 * max(-evals[0], evals[-1]))
            assert check_complete_positivity(Superoperator(tracial(n), l))[0] == choi_psd
            verdicts.append(choi_psd)
        assert verdicts == [True, True, True, False, False]

    def test_any_modular_basis_gives_the_maximally_mixed_verdict(self, rng, fermi_m2):
        # the reduced block is taken whole over the admitted sigma's basis,
        # so sigma's basis and the maximally mixed state's give one spectrum
        from qmsflow.states import build_modular_basis
        from conftest import gks_matrix, near_degenerate_spec

        x = random_matrix(rng, 3)
        flip = commutator_super(x + dag(x))
        lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        jump = kron_sum_generator([(lower, 0.0)])  # not detailed balance: no spec admits it
        specs = [random_dbc_spec(3, rng), fermi_m2.spec, near_degenerate_spec(1e-12)]
        cases = [(build_generator(spec), spec.sigma) for spec in specs] + [
            (flip @ flip, random_density(3, rng)),
            (build_generator(fermi_ou(1, 2.0, [1.0]).spec) - 12.0 * jump, random_density(2, rng)),
        ]
        verdicts = []
        for l, sigma in cases:
            n = sigma.dim
            tracial_basis = modular_elements(build_modular_basis(tracial(n)))
            scale = np.max(np.abs(np.linalg.eigvalsh(gks_matrix(l, tracial_basis)[1:, 1:])))
            ok, min_eig = check_complete_positivity(Superoperator(tracial(n), l))
            ok_sigma, min_eig_sigma = check_complete_positivity(Superoperator(sigma, l))
            assert ok_sigma == ok
            assert abs(min_eig_sigma - min_eig) <= 1e-13 * scale
            verdicts.append(ok)
        assert verdicts == [True, True, True, False, False]

    def test_wrong_size_for_the_basis_named(self, rng):
        with pytest.raises(ValueError, match=r"superoperator has shape \(16, 16\), expected \(9, 9\)"):
            check_complete_positivity(Superoperator(random_density(3, rng), np.zeros((16, 16))))

    def test_largest_bohr_block_is_bounded(self, monkeypatch):
        # a block of more units than MAX_BOHR_BLOCK is refused before it is
        # built; at the limit the spec loads
        from qmsflow import generators

        monkeypatch.setattr(generators, "MAX_BOHR_BLOCK", 16)
        GeneratorSpec(tracial(4), [(np.diag([1.0, 0.0, 0.0, -1.0]), 0.0)])  # one 16-unit block
        with pytest.raises(ValueError, match=r"largest Bohr block has 25 units; at most 16"):
            GeneratorSpec(tracial(5), [(np.diag([1.0, 0.0, 0.0, 0.0, -1.0]), 0.0)])


class TestErgodicity:
    def test_fermi_models_ergodic(self, fermi_m1, fermi_m2):
        assert ergodicity(fermi_m1.spec) == 1
        assert ergodicity(fermi_m2.spec) == 1

    def test_single_diagonal_jump(self):
        e11 = np.diag([1.0, 0.0]).astype(complex)
        sigma = DensityState.from_matrix(np.diag([0.6, 0.4]).astype(complex))
        spec = GeneratorSpec(sigma, [(e11, 0.0)])
        assert ergodicity(spec) == 2

    def test_empty_jump_set(self, rng):
        spec = GeneratorSpec(random_density(3, rng), [])
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
        assert np.allclose(scipy.linalg.expm(0.0 * build_generator(spec)), np.eye(9))

    def test_unital(self, rng):
        spec = random_dbc_spec(3, rng)
        p = scipy.linalg.expm(0.7 * build_generator(spec))
        assert np.linalg.norm(apply_super(p, np.eye(3)) - np.eye(3)) < 1e-12

    def test_semigroup_law(self, rng):
        spec = random_dbc_spec(2, rng)
        l = build_generator(spec)
        lhs = scipy.linalg.expm(0.9 * l)
        rhs = scipy.linalg.expm(0.5 * l) @ scipy.linalg.expm(0.4 * l)
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
        evolved = apply_super(scipy.linalg.expm(t * l), k11)
        expect = np.exp(-2 * np.cosh(1.0) * t) * k11
        assert np.linalg.norm(evolved - expect) < 1e-12

    def test_choi_positive_along_flow(self, rng):
        from qmsflow.linalg import choi

        spec = random_dbc_spec(2, rng)
        l = build_generator(spec)
        for t in (0.01, 0.1, 1.0):
            c = choi(scipy.linalg.expm(t * l))
            assert np.min(np.linalg.eigvalsh(0.5 * (c + dag(c)))) > -1e-11

    def test_dual_matches_transpose_route(self, rng):
        spec = random_dbc_spec(2, rng)
        l = build_generator(spec)
        lhs = dag(scipy.linalg.expm(0.8 * l))
        rhs = scipy.linalg.expm(0.8 * dag(l))
        assert np.linalg.norm(lhs - rhs) < 1e-11 * np.linalg.norm(rhs)

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

    def test_null_mode_is_exact_at_long_times(self):
        # the null eigenvalue is exactly 0: its round-off, about 1e-16 of
        # L's largest, would scale sigma by e^{t mu} (trace 0.895 at
        # t = 1e15, 1.5e-5 at t = 1e17)
        spec = fermi_ou(1, 1.0, [1.0]).spec
        (got,) = dual_orbit(spec, spec.sigma.rho, [1e17])
        assert np.linalg.norm(got - spec.sigma.rho) <= 1e-12

    @COVARIANCE_SETTINGS
    @given(
        name=st.sampled_from(COVARIANCE_MODELS),
        c=st.sampled_from([1e-20, 1e-10, 1.0, 1e10]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scaling(self, name, c, seed):
        # jumps sqrt(c) V give c L: the same orbit at times t / c
        spec = _covariance_model(name)
        scaled = GeneratorSpec(spec.sigma, [(np.sqrt(c) * v, w) for v, w in spec.jumps])
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
        rotated = GeneratorSpec(sigma, [(w @ v @ dag(w), om) for v, om in spec.jumps])
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
            other = GeneratorSpec(spec.sigma, jumps)
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
        # construction is the one check: no spec of these jumps exists
        sigma = DensityState.from_matrix(np.diag([0.7, 0.3]).astype(complex))
        with pytest.raises(ValueError, match=match):
            GeneratorSpec(sigma, jumps)


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
        spec = GeneratorSpec(
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
        spec = GeneratorSpec(base.sigma, [(np.sqrt(c) * v, w) for v, w in base.jumps])
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
