import numpy as np
import pytest

from qmsflow.linalg import (
    apply_super,
    choi,
    dag,
    hermitian_eig,
    hs_inner,
    sharp,
    spectral_calculus,
    traceless_hermitian_basis,
    unvec,
    vec,
)

from conftest import random_matrix, reconstruct, star_swap_residual


def test_vec_is_column_stacking():
    x = np.array([[1, 3], [2, 4]], dtype=complex)
    assert np.array_equal(vec(x), np.array([1, 2, 3, 4], dtype=complex))
    assert np.array_equal(unvec(vec(x)), x)


def test_hs_inner_identity_is_state():
    eye = np.eye(5, dtype=complex)
    assert hs_inner(eye, eye, normalized=True) == pytest.approx(1.0)


def test_hs_inner_matrix_unit():
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    # tau[E21 E12] = tau[E22] = 1/2
    assert hs_inner(e12, e12, normalized=True) == pytest.approx(0.5)


def test_hs_inner_hermitian_symmetry(rng):
    a, b = random_matrix(rng, 4), random_matrix(rng, 4)
    assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))


def test_hs_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        hs_inner(np.eye(2), np.eye(3))


def test_sharp_identity():
    assert np.allclose(sharp(np.eye(3), np.eye(3)), np.eye(9))


def test_sharp_applies_two_sided(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a, b, x = (random_matrix(rng, n) for _ in range(3))
        expect = a @ x @ b
        err = np.linalg.norm(apply_super(sharp(a, b), x) - expect)
        assert err <= 1e-13 * np.linalg.norm(expect)


def test_sharp_trace_factorizes(rng):
    a, b = random_matrix(rng, 4), random_matrix(rng, 4)
    assert np.trace(sharp(a, b)) == pytest.approx(np.trace(a) * np.trace(b))


def test_sharp_adjoint(rng):
    a, b = random_matrix(rng, 3), random_matrix(rng, 3)
    assert np.allclose(dag(sharp(a, b)), sharp(dag(a), dag(b)))


def test_sharp_of_orthonormal_bases_is_orthonormal(rng):
    # unitarity of the tensor-to-operator identification
    n = 2
    basis = [np.eye(n, dtype=complex)] + [np.sqrt(n) * b for b in traceless_hermitian_basis(n)]
    supers = [sharp(f, g) for f in basis for g in basis]
    gram = np.array(
        [[np.trace(dag(s) @ t) / n**2 for t in supers] for s in supers]
    )
    assert np.linalg.norm(gram - np.eye(len(supers))) < 1e-12


def kronecker_sum_choi(s):
    """Reference Choi matrix: the defining sum over matrix units E_ij."""
    n = int(round(np.sqrt(s.shape[0])))
    out = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            eij = np.zeros((n, n), dtype=complex)
            eij[i, j] = 1.0
            out += np.kron(apply_super(s, eij), eij)
    return out


@pytest.mark.parametrize("n", [2, 3, 5, 16])
def test_choi_is_kronecker_sum(rng, n):
    s = random_matrix(rng, n * n)
    assert np.array_equal(choi(s), kronecker_sum_choi(s))


def test_choi_identity_is_rank_one():
    n = 3
    c = choi(np.eye(n * n))
    vals = np.linalg.eigvalsh(c)
    assert vals[-1] == pytest.approx(n)
    assert np.all(vals[:-1] < 1e-12)


def test_choi_single_kraus_psd(rng):
    a = random_matrix(rng, 3)
    c = choi(sharp(a, dag(a)))
    assert np.min(np.linalg.eigvalsh(0.5 * (c + dag(c)))) > -1e-12


def test_choi_gks_pairing(rng):
    # Tr[G^+ C(K) F] = n^2 <sharp(G (x) F^*), K>_{C2}; the normalized
    # statement in the source carries an n-factor slip, the unnormalized
    # trace identity is exact
    n = 3
    k = random_matrix(rng, n * n)
    g, f = random_matrix(rng, n), random_matrix(rng, n)
    c = choi(k)
    lhs = np.conj(g.reshape(-1)) @ c @ f.reshape(-1)
    s = sharp(g, dag(f))
    rhs = np.trace(dag(s) @ k)
    assert lhs == pytest.approx(rhs)


def test_choi_hermitian_iff_star_preserving(rng):
    a = random_matrix(rng, 3)
    star = sharp(a, dag(a)) + sharp(dag(a), a)
    c = choi(star)
    assert np.linalg.norm(c - dag(c)) < 1e-12 * np.linalg.norm(c)
    assert star_swap_residual(star) < 1e-13

    b = random_matrix(rng, 3)
    non_star = sharp(a, b)
    c2 = choi(non_star)
    assert np.linalg.norm(c2 - dag(c2)) > 1e-3 * np.linalg.norm(c2)
    assert star_swap_residual(non_star) > 1e-3


def test_star_swap_residual_free_of_overflow():
    # the norms are of scaled entries: the same residual at x1 and x1e154,
    # where the squares of the entries overflow
    rng = np.random.default_rng(0)
    a, b = random_matrix(rng, 2), random_matrix(rng, 2)
    s = sharp(a, dag(a)) + 1e-3 * sharp(a, b)
    base = star_swap_residual(s)
    assert base > 1e-4
    assert star_swap_residual(1e154 * s) == pytest.approx(base, rel=1e-12)


def test_spectral_identity(rng):
    x = random_matrix(rng, 4)
    a = x + dag(x)
    assert np.allclose(spectral_calculus(a, lambda t: t), a)


def test_spectral_exp_diagonal():
    a = np.diag([0.0, np.log(2.0)]).astype(complex)
    assert np.allclose(spectral_calculus(a, np.exp), np.diag([1.0, 2.0]))


def test_spectral_log_exp_roundtrip(rng):
    for _ in range(5):
        n = int(rng.integers(2, 7))
        x = random_matrix(rng, n)
        rho = x @ dag(x) + 0.2 * np.eye(n)
        back = spectral_calculus(spectral_calculus(rho, np.log), np.exp)
        assert np.linalg.norm(back - rho) <= 1e-12 * np.linalg.norm(rho)


def test_spectral_rejects_non_hermitian(rng):
    with pytest.raises(ValueError):
        spectral_calculus(random_matrix(rng, 3), np.exp)


def test_spectral_rejects_log_of_indefinite():
    with pytest.raises(ValueError, match="spectrum"):
        spectral_calculus(np.diag([1.0, -1.0]).astype(complex), np.log)


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_spectral_keeps_small_imaginary_values(scale):
    # f(x) = i x is purely imaginary at every scale, however small
    a = scale * np.diag([1.0, 2.0])
    assert np.allclose(spectral_calculus(a, lambda x: 1j * x), 1j * a, rtol=1e-14, atol=0)


def test_hermitian_eig_reconstruction(rng):
    x = random_matrix(rng, 5)
    a = x + dag(x)
    spec = hermitian_eig(a)
    assert np.linalg.norm(reconstruct(spec) - a) <= 1e-12 * np.linalg.norm(a)
    assert np.all(np.diff(spec.eigenvalues) >= 0)


def test_composition_on_commuting_functions(rng):
    x = random_matrix(rng, 4)
    a = x @ dag(x) + 0.5 * np.eye(4)
    lhs = spectral_calculus(a, lambda t: np.sqrt(np.exp(np.log(t))))
    rhs = spectral_calculus(spectral_calculus(a, np.log), lambda t: np.sqrt(np.exp(t)))
    assert np.linalg.norm(lhs - rhs) <= 1e-11 * np.linalg.norm(a)


def test_finite_entries_enforced():
    bad = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        hermitian_eig(bad)
