import numpy as np
import pytest

from qmsflow.linalg import apply_super, dag, hs_inner
from qmsflow.models import random_density
from qmsflow.states import (
    DensityState,
    _checked_spectra,
    bkm_weight,
    build_modular_basis,
    inner_f,
    inner_s,
    modular_apply,
    modular_shift,
    modular_superoperator,
    weight_superoperator_f,
    weight_superoperator_s,
)
from qmsflow.calculus import rho_div, rho_mult
from qmsflow.linalg import vec

from conftest import dense_modular_basis, modular_elements, random_matrix


class TestDensityState:
    def test_valid(self, rng):
        state = random_density(4, rng)
        assert state.dim == 4
        assert np.trace(state.rho) == pytest.approx(1.0)
        assert float(state.eigenvalues[0]) > 0

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityState.from_matrix(random_matrix(rng, 3))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityState.from_matrix(np.eye(2, dtype=complex))

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="positive"):
            DensityState.from_matrix(np.diag([1.0, 0.0]).astype(complex))

    def test_hermiticity_tolerance_relative_to_norm(self):
        # |rho| = 1/4 at the maximally mixed dim-16 state, so a defect of
        # 5.7e-13 lies between 1e-12 |rho| and 1e-12
        rho, unit = np.eye(16, dtype=complex) / 16, np.zeros((16, 16))
        unit[0, 1] = 1.0  # |rho - rho^*| = sqrt(2) c for rho + c unit
        assert np.linalg.norm(rho) == pytest.approx(0.25)
        DensityState.from_matrix(rho + 1e-13 * unit)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityState.from_matrix(rho + 4e-13 * unit)


class TestCheckedSpectra:
    """The density checks on a stack are from_matrix's, item by item."""

    @pytest.mark.parametrize("bad", ["non_finite", "not_hermitian", "trace", "not_positive"])
    def test_first_failing_item_raises_from_matrix_error(self, rng, bad):
        item = {
            "non_finite": np.diag([np.inf, 0.5, 0.5]),
            "not_hermitian": random_matrix(rng, 3) / 3,
            "trace": np.eye(3) / 2,
            "not_positive": np.diag([0.7, 0.4, -0.1]),
        }[bad]
        good = [random_density(3, rng).rho for _ in range(3)]
        with pytest.raises(ValueError) as expected:
            DensityState.from_matrix(item)
        with pytest.raises(ValueError) as got:
            _checked_spectra(np.array([good[0], item, good[1], np.diag([0.0, 0.0, 1.0]), good[2]]))
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 3), (4,)])
    def test_non_square_input(self, shape):
        with pytest.raises(ValueError, match="must be square"):
            DensityState.from_matrix(np.zeros(shape))

    def test_passing_stack_matches_from_matrix(self, rng):
        stack = np.array([random_density(4, rng).rho for _ in range(5)])
        sym, vals, vecs = _checked_spectra(stack)
        for k, rho in enumerate(stack):
            state = DensityState.from_matrix(rho)
            assert np.array_equal(sym[k], state.rho)
            assert np.array_equal(vals[k], state.eigenvalues)
            # the same eigenvectors up to from_matrix's phase convention
            phases = np.sum(np.conj(vecs[k]) * state.eigenvectors, axis=0)
            assert np.allclose(np.abs(phases), 1.0, atol=1e-12)


class TestMatrixFunctionCache:
    def test_computed_once_and_read_only(self, rng):
        state = random_density(4, rng)
        for get in (lambda: state.power(0.3), state.log, lambda: state.modular_kernel(bkm_weight)):
            first = get()
            assert get() is first
            with pytest.raises(ValueError, match="read-only"):
                first[0, 0] = 0.0
        assert state.power(0.3) is not state.power(0.7)

    def test_same_values_as_spectral_calculus(self, rng):
        state = random_density(5, rng)
        for p in (-1.0, -0.5, 0.3, 1.0):
            fresh = state.spectrum.apply(lambda x: x**p)
            assert np.array_equal(state.power(p), fresh)
        assert np.array_equal(state.log(), state.spectrum.apply(np.log))
        lam = state.eigenvalues
        assert np.array_equal(state.modular_kernel(np.sqrt), np.sqrt(lam[:, None] / lam[None, :]))

    def test_cache_is_per_state_and_not_in_repr(self, rng):
        state = random_density(3, rng)
        copy = DensityState(state.rho, state.spectrum)
        state.power(0.5)
        assert "_cache" not in repr(state)
        assert copy._cache == {} and state._cache != {}

    def test_one_eigen_application_per_state_and_exponent(self, monkeypatch):
        # across verify seeds 1..4, each (spectrum, function) pair is
        # applied once: 884 applications, where recomputing made 11,932
        from qmsflow.linalg import HermitianSpectrum
        from qmsflow.verify import run_suite

        apply, seen, keys = HermitianSpectrum.apply, [], []

        def recording_apply(spectrum, f):
            seen.append(spectrum)  # keeps ids unique while the suite runs
            keys.append((id(spectrum), complex(f(2.0))))  # f(2) tells exponents apart
            return apply(spectrum, f)

        monkeypatch.setattr(HermitianSpectrum, "apply", recording_apply)
        for seed in range(1, 5):
            assert run_suite(seed)[0]
        assert 0 < len(keys) == len(set(keys))


class TestModularOperator:
    def test_fixes_commuting_elements(self, rng):
        sigma = random_density(3, rng)
        a = sigma.spectrum.apply(lambda t: t**2 + 1.0)
        assert np.allclose(modular_apply(sigma, a), a)

    def test_matrix_unit_eigenvector(self):
        sigma = DensityState.from_matrix(np.diag([0.7, 0.3]).astype(complex))
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.allclose(modular_apply(sigma, e12), (0.7 / 0.3) * e12)

    def test_adjoint_pairs_inverse_eigenvalues(self, rng):
        sigma = random_density(4, rng)
        md = build_modular_basis(sigma)
        for f, w in zip(modular_elements(md), md.bohr_frequencies):
            out = modular_apply(sigma, dag(f))
            assert np.linalg.norm(out - np.exp(w) * dag(f)) < 1e-10

    def test_star_relation(self, rng):
        sigma = random_density(3, rng)
        a = random_matrix(rng, 3)
        lhs = dag(modular_apply(sigma, a))
        rhs = sigma.power(-1) @ dag(a) @ sigma.rho
        assert np.allclose(lhs, rhs)


class TestModularBasis:
    def test_tracial_case_all_frequencies_vanish(self):
        sigma = DensityState.from_matrix(np.eye(3) / 3)
        md = build_modular_basis(sigma)
        assert np.allclose(md.bohr_frequencies, 0.0)
        basis = modular_elements(md)
        assert np.allclose(basis[0], np.eye(3))
        # orthonormal and star-closed
        for al, f in enumerate(basis):
            assert np.allclose(basis[md.conj_pairing[al]], dag(f))

    def test_two_level_frequencies(self):
        lam1, lam2 = 0.8, 0.2
        sigma = DensityState.from_matrix(np.diag([lam1, lam2]).astype(complex))
        md = build_modular_basis(sigma)
        expected = sorted([0.0, 0.0, np.log(lam1 / lam2), -np.log(lam1 / lam2)])
        assert np.allclose(sorted(md.bohr_frequencies), expected)

    def test_diagonalizes_modular_superoperator(self, rng):
        sigma = random_density(4, rng)
        md = build_modular_basis(sigma)
        delta = modular_superoperator(sigma)
        for f, w in zip(modular_elements(md), md.bohr_frequencies):
            resid = np.linalg.norm(apply_super(delta, f) - np.exp(-w) * f)
            assert resid < 1e-11

    def test_orthonormal(self, rng):
        sigma = random_density(5, rng)
        md = build_modular_basis(sigma)
        basis = modular_elements(md)
        gram = np.array(
            [[hs_inner(a, b, normalized=True) for b in basis] for a in basis]
        )
        assert np.linalg.norm(gram - np.eye(md.size)) < 1e-11

    def test_degenerate_spectrum(self, rng):
        # two equal eigenvalues force symmetrized off-diagonal elements
        q, _ = np.linalg.qr(random_matrix(rng, 3))
        sigma = DensityState.from_matrix((q * [0.4, 0.4, 0.2]) @ dag(q))
        md = build_modular_basis(sigma)
        assert np.sum(np.abs(md.bohr_frequencies) < 1e-12) == 5
        basis = modular_elements(md)
        for al, f in enumerate(basis):
            assert np.allclose(basis[md.conj_pairing[al]], dag(f), atol=1e-12)

    @pytest.mark.parametrize("spectrum", [[0.1, 0.2, 0.3, 0.4], [0.3, 0.3, 0.3, 0.1], [0.25] * 4])
    def test_eigen_coordinates(self, rng, spectrum):
        q, _ = np.linalg.qr(random_matrix(rng, 4))
        sigma = DensityState.from_matrix((q * spectrum) @ dag(q))
        md = build_modular_basis(sigma)
        owner, units, coefs = md.eigen
        assert np.all(np.diff(owner) >= 0)
        u = sigma.eigenvectors
        for a, f in enumerate(dense_modular_basis(sigma)):
            tilde = np.zeros(16, dtype=complex)
            np.add.at(tilde, units[owner == a], coefs[owner == a])
            assert np.allclose(u @ tilde.reshape(4, 4) @ dag(u), f, rtol=0, atol=1e-13)
        perm = [0, *rng.permutation(np.arange(1, md.size))]
        moved = md.reordered(perm)
        assert np.all(np.diff(moved.eigen[0]) >= 0)
        basis, moved_basis = modular_elements(md), modular_elements(moved)
        for k, a in enumerate(perm):
            assert np.array_equal(moved_basis[k], basis[a])
            assert np.array_equal(moved.eigen[2][moved.eigen[0] == k], coefs[owner == a])
            assert np.array_equal(moved_basis[moved.conj_pairing[k]], basis[md.conj_pairing[a]])

    def test_expansion_roundtrip(self, rng):
        sigma = random_density(4, rng)
        md = build_modular_basis(sigma)
        x = random_matrix(rng, 4)
        resum = sum(hs_inner(f, x, normalized=True) * f for f in modular_elements(md))
        assert np.linalg.norm(resum - x) < 1e-11 * np.linalg.norm(x)

    @pytest.mark.parametrize(
        "spectrum",
        [None, [0.1, 0.2, 0.3, 0.4], [0.3, 0.3, 0.3, 0.1], [0.25] * 4, [0.3, 0.3 * (1 + 5e-11), 0.4 - 1.5e-11]],
    )
    def test_combine_matches_dense_elements(self, rng, spectrum):
        if spectrum is None:
            sigma = random_density(5, rng)
        else:
            q, _ = np.linalg.qr(random_matrix(rng, len(spectrum)))
            sigma = DensityState.from_matrix((q * spectrum) @ dag(q))
        md = build_modular_basis(sigma)
        dense = np.array(dense_modular_basis(sigma))
        assert np.max(np.abs(modular_elements(md) - dense)) <= 1e-14
        # combinations of two elements, which rotate only the rows and columns they touch
        y = np.zeros((3, md.size), dtype=complex)
        y[:, rng.choice(md.size, 2, replace=False)] = random_matrix(rng, 3)[:, :2]
        expect = np.tensordot(y, dense, axes=1)
        assert np.max(np.abs(md.combine(y) - expect)) <= 1e-14 * np.max(np.abs(expect))

    def test_build_forms_no_dense_elements(self, rng):
        # n^2 dense n x n elements at dim 32 would hold 16.8 MB
        import tracemalloc

        sigma = random_density(32, rng)
        tracemalloc.start()
        try:
            build_modular_basis(sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestWeightedInnerProducts:
    def test_compatibility_with_state(self, rng):
        sigma = random_density(3, rng)
        eye = np.eye(3)
        for s in (0.0, 0.3, 0.5, 1.0):
            assert inner_s(sigma, s, eye, eye) == pytest.approx(1.0)

    def test_s_one_is_gns(self, rng):
        sigma = random_density(3, rng)
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        gns = np.trace(sigma.rho @ dag(a) @ b)
        assert inner_s(sigma, 1.0, a, b) == pytest.approx(gns)

    def test_modular_shift_lemma(self, rng):
        sigma = random_density(4, rng)
        a, b = random_matrix(rng, 4), random_matrix(rng, 4)
        for s, t in ((0.6, 0.25), (0.5, -0.3), (0.9, 0.4)):
            lhs = inner_s(sigma, s, modular_shift(sigma, t, a), b)
            rhs = inner_s(sigma, s - t, a, b)
            assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))

    def test_rejects_s_outside_unit_interval(self, rng):
        sigma = random_density(2, rng)
        with pytest.raises(ValueError):
            inner_s(sigma, 1.2, np.eye(2), np.eye(2))

    def test_constant_weight_is_gns(self, rng):
        sigma = random_density(3, rng)
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        assert inner_f(sigma, lambda t: 1.0, a, b) == pytest.approx(
            inner_s(sigma, 1.0, a, b)
        )

    def test_sqrt_weight_is_kms(self, rng):
        sigma = random_density(4, rng)
        a, b = random_matrix(rng, 4), random_matrix(rng, 4)
        lhs = inner_f(sigma, np.sqrt, a, b)
        rhs = inner_s(sigma, 0.5, a, b)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_bkm_at_tracial_state(self, rng):
        n = 3
        sigma = DensityState.from_matrix(np.eye(n) / n)
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        assert inner_f(sigma, bkm_weight, a, b) == pytest.approx(
            np.trace(dag(a) @ b) / n
        )

    def test_rejects_nonpositive_weight(self, rng):
        sigma = random_density(3, rng)
        with pytest.raises(ValueError):
            inner_f(sigma, lambda t: t - 1.0, np.eye(3), np.eye(3))

    @pytest.mark.parametrize("which", ["s0", "s05", "bkm", "bures"])
    def test_positive_definite_gram(self, rng, which):
        sigma = random_density(3, rng)
        form = {
            "s0": lambda a, b: inner_s(sigma, 0.0, a, b),
            "s05": lambda a, b: inner_s(sigma, 0.5, a, b),
            "bkm": lambda a, b: inner_f(sigma, bkm_weight, a, b),
            "bures": lambda a, b: inner_f(sigma, lambda t: (1 + t) / 2, a, b),
        }[which]
        mats = [random_matrix(rng, 3) for _ in range(9)]
        gram = np.array([[form(a, b) for b in mats] for a in mats])
        np.linalg.cholesky(0.5 * (gram + dag(gram)))

    def test_every_weight_compatible(self, rng):
        sigma = random_density(4, rng)
        a = random_matrix(rng, 4)
        for f in (np.sqrt, bkm_weight, lambda t: (1 + t) / 2, lambda t: t**0.25):
            val = inner_f(sigma, f, np.eye(4), a)
            assert abs(val - np.trace(sigma.rho @ a)) < 1e-12


class TestStackedForms:
    """The forms contract the last two axes and broadcast the leading ones,
    so one call gives a Gram matrix; it must equal the scalar calls."""

    WEIGHTS = {"sqrt": np.sqrt, "bkm": bkm_weight, "bures": lambda t: (1.0 + t) / 2.0}

    @staticmethod
    def stack(rng, n, m):
        return np.array([random_matrix(rng, n) for _ in range(m)])

    @staticmethod
    def assert_entrywise(gram, form, rows, cols):
        scalar = np.array([[form(a, b) for b in cols] for a in rows])
        assert gram.shape == scalar.shape
        assert np.max(np.abs(gram - scalar)) <= 1e-14 * np.max(np.abs(scalar))

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 1.0])
    def test_inner_s_gram_matches_scalar_calls(self, rng, s):
        sigma = random_density(4, rng)
        mats = self.stack(rng, 4, 16)
        gram = inner_s(sigma, s, mats[:, None], mats[None])
        self.assert_entrywise(gram, lambda a, b: inner_s(sigma, s, a, b), mats, mats)

    @pytest.mark.parametrize("name", ["sqrt", "bkm", "bures"])
    def test_inner_f_gram_matches_scalar_calls(self, rng, name):
        sigma, f = random_density(3, rng), self.WEIGHTS[name]
        mats = self.stack(rng, 3, 9)
        gram = inner_f(sigma, f, mats[:, None], mats[None])
        self.assert_entrywise(gram, lambda a, b: inner_f(sigma, f, a, b), mats, mats)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_hs_inner_gram_matches_scalar_calls(self, rng, normalized):
        rows, cols = self.stack(rng, 3, 5), self.stack(rng, 3, 7)
        gram = hs_inner(rows[:, None], cols[None], normalized=normalized)
        self.assert_entrywise(gram, lambda a, b: hs_inner(a, b, normalized=normalized), rows, cols)

    def test_two_matrices_give_a_python_complex(self, rng):
        sigma = random_density(3, rng)
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        for val in (hs_inner(a, b), inner_s(sigma, 0.3, a, b), inner_f(sigma, np.sqrt, a, b)):
            assert type(val) is complex

    def test_leading_axes_broadcast(self, rng):
        sigma = random_density(2, rng)
        mats = self.stack(rng, 2, 6).reshape(2, 3, 2, 2)
        assert inner_s(sigma, 0.5, mats, np.eye(2)).shape == (2, 3)
        assert inner_f(sigma, np.sqrt, np.eye(2), mats[:, :1]).shape == (2, 1)
        assert hs_inner(mats[:, None], mats[None]).shape == (2, 2, 3)

    @pytest.mark.parametrize("omega", [0.0, -1.3, 0.8])
    def test_rho_mult_and_div_act_on_stacks(self, rng, omega):
        rho = random_density(4, rng)
        mats = self.stack(rng, 4, 5)
        for fn in (rho_mult, rho_div):
            stacked = fn(rho, omega, mats)
            for a, got in zip(mats, stacked):
                want = fn(rho, omega, a)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 1.0])
    def test_inner_s_gram_is_the_weight_superoperator(self, rng, s):
        sigma = random_density(3, rng)
        mats = self.stack(rng, 3, 9)
        vecs = np.array([vec(a) for a in mats])
        want = np.conj(vecs) @ weight_superoperator_s(sigma, s) @ vecs.T
        gram = inner_s(sigma, s, mats[:, None], mats[None])
        assert np.max(np.abs(gram - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", ["sqrt", "bkm", "bures"])
    def test_inner_f_gram_is_the_weight_superoperator(self, rng, name):
        sigma, f = random_density(3, rng), self.WEIGHTS[name]
        mats = self.stack(rng, 3, 9)
        vecs = np.array([vec(a) for a in mats])
        want = np.conj(vecs) @ weight_superoperator_f(sigma, f) @ vecs.T
        gram = inner_f(sigma, f, mats[:, None], mats[None])
        assert np.max(np.abs(gram - want)) <= 1e-13 * np.max(np.abs(want))

    def test_mismatched_matrix_shapes_raise(self, rng):
        sigma = random_density(3, rng)
        mats = self.stack(rng, 3, 4)
        wrong = self.stack(rng, 2, 4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            hs_inner(mats[:, None], wrong[None])
        with pytest.raises(ValueError, match="dimension mismatch"):
            inner_s(sigma, 0.5, mats[:, None], wrong[None])
        with pytest.raises(ValueError, match="dimension mismatch"):
            inner_f(sigma, np.sqrt, wrong[:, None], mats[None])
        with pytest.raises(ValueError, match="dimension mismatch"):
            inner_s(sigma, 0.5, wrong, wrong)  # agree with each other, not with sigma

    def test_stacks_keep_the_weight_checks(self, rng):
        sigma = random_density(3, rng)
        mats = self.stack(rng, 3, 4)
        with pytest.raises(ValueError, match="outside"):
            inner_s(sigma, 1.2, mats[:, None], mats[None])
        with pytest.raises(ValueError, match="not positive"):
            inner_f(sigma, lambda t: t - 1.0, mats[:, None], mats[None])


def test_bkm_weight_limit():
    assert bkm_weight(1.0) == pytest.approx(1.0)
    ts = np.array([1.0 - 3e-10, 1.0 + 3e-10])
    exact = (ts - 1.0) / np.log(ts)
    assert np.allclose([bkm_weight(t) for t in ts], exact, rtol=1e-12)
