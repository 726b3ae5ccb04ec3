import re

import numpy as np
import pytest

from qmsflow.canonical import extract_canonical
from qmsflow.generators import (
    GeneratorSpec,
    Superoperator,
    build_generator,
    certify_detailed_balance,
    check_complete_positivity,
)
from qmsflow.linalg import dag, hs_inner, sharp
from qmsflow.models import depolarizing, fermi_ou, random_dbc_spec, random_density
from qmsflow.states import DensityState, build_modular_basis

from conftest import (
    commutator_super,
    dense_modular_basis,
    gks_hermiticity_residual,
    gks_matrix,
    kron_sum_generator,
    loop_canonical_jumps,
    modular_elements,
    near_degenerate_spec,
    random_matrix,
)


def first_nonorthonormal_pair(basis):
    """Reference: the pairwise loop, upper triangle in row-major order."""
    for a in range(len(basis)):
        for b in range(a, len(basis)):
            g = hs_inner(basis[a], basis[b], normalized=True)
            if abs(g - (1.0 if a == b else 0.0)) > 1e-9:
                return a, b
    return None


def _hamiltonian_parts(c: np.ndarray, basis) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the two Hamiltonian candidates sum_b (c_0b F_b - c_b0 F_b^*)/2i
    and sum_b (c_0b F_b^* - c_b0 F_b)/2i over dense basis elements."""
    h = np.zeros_like(basis[0])
    h_hat = np.zeros_like(basis[0])
    for b in range(1, len(basis)):
        h = h + (c[0, b] * basis[b] - c[b, 0] * dag(basis[b])) / 2j
        h_hat = h_hat + (c[0, b] * dag(basis[b]) - c[b, 0] * basis[b]) / 2j
    return h, h_hat


def identity_anchored_basis(n):
    """Modular basis of the maximally mixed state: orthonormal, identity first."""
    return list(modular_elements(build_modular_basis(DensityState.from_matrix(np.eye(n) / n))))


class TestGKSMatrix:
    def test_identity_map_coefficients(self, rng):
        n = 3
        basis = identity_anchored_basis(n)
        c = gks_matrix(np.eye(n * n), basis)
        expect = np.zeros_like(c)
        expect[0, 0] = 1.0
        assert np.linalg.norm(c - expect) < 1e-12

    def test_two_sided_multiplication_is_rank_one(self, rng):
        n = 2
        basis = identity_anchored_basis(n)
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        c = gks_matrix(sharp(a, b), basis)
        expect = np.array(
            [
                [
                    np.trace(fa @ a) * np.trace(dag(fb) @ b) / n**2
                    for fb in basis
                ]
                for fa in basis
            ]
        )
        assert np.linalg.norm(c - expect) < 1e-12

    def test_reconstruction(self, rng):
        n = 3
        basis = identity_anchored_basis(n)
        k = random_matrix(rng, n * n)
        c = gks_matrix(k, basis)
        rebuilt = sum(
            c[a, b] * sharp(dag(basis[a]), basis[b])
            for a in range(len(basis))
            for b in range(len(basis))
        )
        assert np.linalg.norm(rebuilt - k) < 1e-11 * np.linalg.norm(k)

    def test_hermitian_iff_star_preserving(self, rng):
        n = 2
        basis = identity_anchored_basis(n)
        a = random_matrix(rng, n)
        star = sharp(a, dag(a)) + sharp(dag(a), a)
        g1 = gks_matrix(star, basis)
        assert gks_hermiticity_residual(g1) < 1e-12
        g2 = gks_matrix(sharp(a, random_matrix(rng, n)), basis)
        assert gks_hermiticity_residual(g2) > 1e-3

    def test_rejects_bad_basis(self, rng):
        with pytest.raises(ValueError, match="orthonormal|identity"):
            gks_matrix(np.eye(4), [np.eye(2), np.eye(2), np.eye(2), np.eye(2)])

    @pytest.mark.parametrize("case", ["scaled", "overlap", "duplicate", "noisy", "two_noisy"])
    def test_orthonormality_error_names_first_pair(self, rng, case):
        basis = identity_anchored_basis(3)
        if case == "scaled":
            basis[4] = 1.5 * basis[4]
        elif case == "overlap":
            basis[6] = basis[6] + 1e-6 * basis[2]
        elif case == "duplicate":
            basis[5] = basis[3]
        elif case == "noisy":
            basis[8] = basis[8] + 1e-7 * random_matrix(rng, 3)
        else:
            for k in rng.choice(np.arange(1, 9), 2, replace=False):
                basis[k] = basis[k] + 1e-5 * random_matrix(rng, 3)
        a, b = first_nonorthonormal_pair(basis)
        with pytest.raises(ValueError, match=re.escape(f"not orthonormal at pair ({a}, {b})")):
            gks_matrix(np.eye(9), basis)

    def test_orthonormality_within_tolerance_accepted(self, rng):
        basis = identity_anchored_basis(3)
        basis[7] = basis[7] + 1e-12 * random_matrix(rng, 3)
        assert first_nonorthonormal_pair(basis) is None
        gks_matrix(np.eye(9), basis)


class TestReducedGKS:
    """The reduced coefficient block decides complete positivity."""

    def test_zoo_generators_psd(self, rng, fermi_m2):
        l = build_generator(fermi_m2.spec)
        ok, min_eig = check_complete_positivity(l)
        assert ok
        assert min_eig > -1e-12

    def test_negated_double_commutator_fails(self, rng):
        x = random_matrix(rng, 2)
        v = x + dag(x)
        c = commutator_super(v)
        ok, min_eig = check_complete_positivity(c @ c)
        assert not ok
        assert min_eig < -1e-8

    def test_identity_map_zero_reduced_block(self):
        ok, min_eig = check_complete_positivity(np.zeros((4, 4)))
        assert ok
        assert min_eig == pytest.approx(0.0, abs=1e-8)
        assert np.allclose(gks_matrix(np.zeros((4, 4)), identity_anchored_basis(2))[1:, 1:], 0.0)


class TestExtraction:
    @pytest.mark.parametrize("route", ["spec", "superoperator"])
    def test_one_pairing_image_per_extraction(self, route, monkeypatch):
        # the pairing residual and the symmetrisation read one image
        from qmsflow import canonical

        spec = fermi_ou(4, 1.0, [1.0, 1.3, 1.6, 1.9]).spec
        paired, calls = canonical._paired_blocks, []

        def counted(*args):
            calls.append(1)
            return paired(*args)

        monkeypatch.setattr(canonical, "_paired_blocks", counted)
        extract_canonical(spec if route == "spec" else build_generator(spec), spec.sigma)
        assert len(calls) == 1

    def test_superoperator_rotated_once(self, monkeypatch):
        # a bare superoperator is admitted once: certification, the
        # positivity check and the coefficients read one rotated block, and
        # the report is the one of the caller's admitted and certified L
        from qmsflow import generators

        spec = fermi_ou(2, 1.0, [1.0, 2.0]).spec
        l = build_generator(spec)
        admitted = Superoperator(spec.sigma, l)
        certify_detailed_balance(admitted, spec.sigma)
        expected = extract_canonical(admitted, spec.sigma)
        rotated, calls = generators._rotated, []

        def counted(*args):
            calls.append(1)
            return rotated(*args)

        monkeypatch.setattr(generators, "_rotated", counted)
        extracted, report = extract_canonical(l, spec.sigma)
        assert len(calls) == 1
        assert report.as_dict() == expected[1].as_dict()
        assert all(np.array_equal(v, w) for (v, _), (w, _) in zip(extracted.jumps, expected[0].jumps, strict=True))

    def test_roundtrip_random_specs(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 6))
            spec = random_dbc_spec(n, rng)
            l = build_generator(spec)
            extracted, report = extract_canonical(l, spec.sigma)
            assert report.roundtrip_error < 1e-9
            assert np.allclose(
                sorted(extracted.omegas()), sorted(spec.omegas()), atol=1e-9
            )
            assert report.hamiltonian_norm < 1e-9
            assert report.hamiltonian_hat_norm < 1e-9
            assert max(report.block_residual, report.pairing_residual) < 1e-9

    def test_jump_properties(self, rng):
        spec = random_dbc_spec(4, rng)
        l = build_generator(spec)
        extracted, _ = extract_canonical(l, spec.sigma)
        n = spec.dim
        sig = spec.sigma
        ops = extracted.jump_ops()
        norms = [np.sqrt(hs_inner(v, v, normalized=True).real) for v in ops]
        for j, (v, w) in enumerate(extracted.jumps):
            assert abs(np.trace(v)) < 1e-10  # traceless
            # modular eigenvector property
            resid = np.linalg.norm(
                sig.rho @ v @ sig.power(-1) - np.exp(-w) * v
            )
            assert resid < 1e-9 * np.linalg.norm(v)
        # mutual orthogonality after normalization
        for j in range(len(ops)):
            for k in range(j):
                ip = hs_inner(ops[j], ops[k], normalized=True) / (norms[j] * norms[k])
                assert abs(ip) < 1e-9
        # star closure: each jump's adjoint is a jump at -omega, and the
        # omega = 0 jumps are self-adjoint
        for v, w in extracted.jumps:
            if abs(w) <= 1e-9:
                assert np.linalg.norm(v - dag(v)) <= 1e-9 * np.linalg.norm(v)
            assert any(
                np.linalg.norm(v2 - dag(v)) <= 1e-9 * np.linalg.norm(v)
                and abs(w2 + w) <= 1e-9
                for v2, w2 in extracted.jumps
            )

    def test_fermi_two_modes(self, fermi_m2):
        l = build_generator(fermi_m2.spec)
        extracted, report = extract_canonical(l, fermi_m2.spec.sigma)
        assert extracted.njumps == 4
        expect = sorted([-1.0, 1.0, -2.0, 2.0])
        assert np.allclose(sorted(extracted.omegas()), expect, atol=1e-10)
        assert report.roundtrip_error < 1e-10

    def test_depolarizing_self_adjoint_jumps(self, depolarizing_n2):
        l = build_generator(depolarizing_n2)
        extracted, report = extract_canonical(l, depolarizing_n2.sigma)
        assert extracted.njumps == 3
        assert np.allclose(extracted.omegas(), 0.0)
        for v, _ in extracted.jumps:
            assert np.linalg.norm(v - dag(v)) < 1e-10
            assert abs(np.trace(v)) < 1e-10
        assert report.roundtrip_error < 1e-10

    def test_degenerate_sigma_block(self, rng):
        # equal sigma eigenvalues merge Bohr frequencies into 2-dim blocks
        q, _ = np.linalg.qr(random_matrix(rng, 3))
        lam = np.array([0.2, 0.2, 0.6])
        sigma = DensityState.from_matrix((q * lam) @ dag(q))
        jumps = []
        for i in (0, 1):
            v = np.sqrt(3) * np.outer(q[:, i], np.conj(q[:, 2]))
            w = float(np.log(lam[2] / lam[i]))
            jumps.append((v, w))
            jumps.append((dag(v), -w))
        spec = GeneratorSpec(sigma, jumps)
        l = build_generator(spec)
        extracted, report = extract_canonical(l, sigma)
        assert report.roundtrip_error < 1e-9
        assert extracted.njumps == 4

    def test_rejects_non_dbc_input(self):
        u = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        v1 = np.array([1.0, 1.0]) / np.sqrt(2)
        v2 = np.array([1.0, 2.0]) / np.sqrt(5)
        from qmsflow.models import kms_counterexample

        l, sigma, _ = kms_counterexample(u, v1, v2)
        with pytest.raises(ValueError, match="GNS"):
            extract_canonical(l, sigma)

    def test_offblock_coefficients_vanish(self, rng):
        spec = random_dbc_spec(3, rng)
        l = build_generator(spec)
        md = build_modular_basis(spec.sigma)
        c = gks_matrix(l, modular_elements(md))
        om = md.bohr_frequencies
        scale = max(np.max(np.abs(c)), 1e-300)
        mask = np.abs(om[:, None] - om[None, :]) > 1e-8 * max(1.0, np.max(np.abs(om)))
        assert np.max(np.abs(c[mask])) < 1e-10 * scale

    def test_uniqueness_under_basis_reordering(self, rng):
        spec = random_dbc_spec(3, rng)
        l = build_generator(spec)
        md = build_modular_basis(spec.sigma)
        ex1, _ = extract_canonical(l, spec.sigma, modular=md)
        perm = [0] + [1 + int(i) for i in rng.permutation(md.size - 1)]
        md2 = md.reordered(perm)
        assert np.array_equal(
            md2.conj_pairing, [perm.index(int(md.conj_pairing[i])) for i in perm]
        )
        ex2, _ = extract_canonical(l, spec.sigma, modular=md2)
        gap = np.linalg.norm(
            build_generator(ex1) - build_generator(ex2), 2
        ) / np.linalg.norm(l, 2)
        assert gap < 1e-9
        assert ex1.njumps == ex2.njumps
        # a spec's jumps give its coefficients over any modular basis of sigma
        ex3, _ = extract_canonical(spec, spec.sigma, modular=md2)
        gap = np.linalg.norm(build_generator(ex3) - l, 2) / np.linalg.norm(l, 2)
        assert gap < 1e-9
        assert ex3.njumps == ex1.njumps

    @pytest.mark.parametrize("shape", [(9, 9), (5, 5), (4, 16)])
    def test_wrong_size_superoperator_named(self, shape):
        sigma = DensityState.from_matrix(np.diag([0.3, 0.7]).astype(complex))
        with pytest.raises(ValueError, match=re.escape(f"superoperator has shape {shape}, expected (4, 4)")):
            extract_canonical(np.zeros(shape), sigma)

    def test_jump_count_bound(self, rng):
        for _ in range(4):
            n = int(rng.integers(2, 5))
            spec = random_dbc_spec(n, rng)
            extracted, _ = extract_canonical(build_generator(spec), spec.sigma)
            assert extracted.njumps <= n * n - 1

    def test_near_degenerate_sigma_window(self, rng):
        # eigenvalues 3e-11 apart (relative) are merged, so the tiny
        # +-omega units become self-adjoint zero modes and the jumps
        # between them come back as two omega = 0 jumps
        lam = np.array([0.3, 0.3 * (1 + 3e-11), 0.4 - 0.3 * 3e-11])
        q, _ = np.linalg.qr(random_matrix(rng, 3))
        sigma = DensityState.from_matrix((q * (lam / lam.sum())) @ dag(q))
        u = sigma.eigenvectors
        ls = sigma.eigenvalues
        v = np.sqrt(3) * (0.8 + 0.4j) * np.outer(u[:, 0], np.conj(u[:, 1]))
        w = float(np.log(ls[1]) - np.log(ls[0]))
        spec = GeneratorSpec(sigma, [(v, w), (dag(v), -w)])
        extracted, report = extract_canonical(build_generator(spec), sigma)
        assert report.roundtrip_error < 1e-9
        assert extracted.njumps == 2

    @pytest.mark.parametrize("gap", [0.0, 1e-13, 5e-12, 2e-11, 5e-11])
    def test_near_degenerate_sigma_merged_once(self, gap):
        # one grouping decides both the merged eigenvalues and the blocks:
        # E_01 and E_10 become self-adjoint omega = 0 elements, never a
        # complex pair inside the zero block
        spec = near_degenerate_spec(gap)
        l = build_generator(spec)
        extracted, report = extract_canonical(l, spec.sigma)
        assert report.roundtrip_error <= 1e-9
        assert extracted.njumps == 4

    def test_dropped_eigenvalues_independent_of_build(self):
        # round-off below the block eigensolve's floor is not listed, so two
        # builds of the same L that differ in the last bits report alike
        model = fermi_ou(4, 1.0, [1.0, 1.3, 1.7, 2.2])
        reports = [
            extract_canonical(build(model.spec), model.spec.sigma)[1].dropped_eigenvalues
            for build in (build_generator, kron_sum_generator)
        ]
        assert reports[0] == reports[1]

    def test_not_completely_positive_refused(self, fermi_m1):
        # minus three number-operator dissipators leave a negative
        # eigenvalue in the zero-frequency block: L is GNS-symmetric but
        # not completely positive, so it has no canonical form
        sigma = fermi_m1.spec.sigma
        number = GeneratorSpec(sigma, [(fermi_m1.number_ops[0], 0.0)])
        l = build_generator(fermi_m1.spec) - 3.0 * build_generator(number)
        assert certify_detailed_balance(l, sigma).gns_dbc
        with pytest.raises(ValueError, match=r"not conditionally completely positive .*eigenvalue -"):
            extract_canonical(l, sigma)

    def test_extraction_of_dropped_rank(self, rng):
        # two linearly dependent jumps in one block collapse to one
        sigma = random_density(3, rng)
        u = sigma.eigenvectors
        lam = sigma.eigenvalues
        v = np.sqrt(3) * np.outer(u[:, 0], np.conj(u[:, 1]))
        w = float(np.log(lam[1] / lam[0]))
        jumps = [(v, w), (dag(v), -w), (0.5 * v, w), (0.5 * dag(v), -w)]
        spec = GeneratorSpec(sigma, jumps)
        extracted, report = extract_canonical(build_generator(spec), sigma)
        assert extracted.njumps == 2
        assert report.roundtrip_error < 1e-10


def _canonical_jumps_of(gks, drop_rtol):
    """``_canonical_jumps`` on a ``JumpGKS`` and its adjoint-pairing images."""
    from qmsflow.canonical import _canonical_jumps, _paired_blocks

    return _canonical_jumps(gks.blocks, gks.modular, _paired_blocks(gks.blocks, gks.modular), drop_rtol)


class TestCanonicalJumps:
    """Each jump is formed by ``ModularData.combine`` from the block's few
    units; the sum of dense oracle elements is the reference."""

    @pytest.mark.parametrize(
        "make",
        [lambda: fermi_ou(2, 1.0, [1.0, 2.0]).spec,
         lambda: random_dbc_spec(4, np.random.default_rng(7)),
         lambda: near_degenerate_spec(5e-11)],
    )
    def test_matches_dense_sum(self, make, monkeypatch):
        from qmsflow.canonical import DROP_RTOL
        from qmsflow.states import ModularData

        spec = make()
        gks = spec.gks_blocks
        jumps = _canonical_jumps_of(gks, DROP_RTOL)
        dense = np.array(dense_modular_basis(spec.sigma))
        monkeypatch.setattr(ModularData, "combine", lambda self, y: np.tensordot(y, dense, axes=1))
        ref = _canonical_jumps_of(gks, DROP_RTOL)
        assert [w for _, w in jumps[0]] == [w for _, w in ref[0]]
        scale = max(np.max(np.abs(v)) for v, _ in ref[0])
        for (v, _), (r, _) in zip(jumps[0], ref[0]):
            assert np.max(np.abs(v - r)) <= 1e-14 * scale


_JUMP_CASES = {
    "fermi_m2": lambda: fermi_ou(2, 1.0, [1.0, 2.0]).spec,
    "fermi_m3": lambda: fermi_ou(3, 1.0, [1.0, 1.0, 2.0]).spec,
    "random4": lambda: random_dbc_spec(4, np.random.default_rng(7)),
    "random6_zero3": lambda: random_dbc_spec(6, np.random.default_rng(3), n_zero=3),
    "random16": lambda: random_dbc_spec(16, np.random.default_rng(16), ergodic=True),
    "near_degenerate": lambda: near_degenerate_spec(5e-11),
    "depolarizing3": lambda: depolarizing(3),
}


def _gks_of(case, route):
    spec = _JUMP_CASES[case]()
    return (spec if route == "spec" else Superoperator(spec.sigma, build_generator(spec))).gks_blocks


class TestStackedCanonicalJumps:
    """``_canonical_jumps`` against the per-label loop of conftest: the same
    jumps in the same order, the same dropped eigenvalues and the same
    block sizes, in the same order."""

    @pytest.mark.parametrize("route", ["spec", "superoperator"])
    @pytest.mark.parametrize("case", sorted(_JUMP_CASES))
    def test_matches_per_label_loop(self, case, route):
        from qmsflow.canonical import DROP_RTOL

        gks = _gks_of(case, route)
        jumps, dropped, sizes = _canonical_jumps_of(gks, DROP_RTOL)
        ref_jumps, ref_dropped, ref_sizes = loop_canonical_jumps(gks.blocks, gks.modular, DROP_RTOL)
        assert [w for _, w in jumps] == [w for _, w in ref_jumps]
        scale = max(np.max(np.abs(v)) for v, _ in ref_jumps)
        for (v, _), (r, _) in zip(jumps, ref_jumps):
            assert np.max(np.abs(v - r)) <= 1e-15 * scale
        assert dropped == ref_dropped
        assert list(sizes.items()) == list(ref_sizes.items())

    @pytest.mark.parametrize("drop_rtol", [0.2, 2.0])
    def test_dropped_order_matches_per_label_loop(self, drop_rtol):
        # a coarse drop tolerance drops some eigenvalues of each block
        gks = _gks_of("random6_zero3", "spec")
        jumps, dropped, sizes = _canonical_jumps_of(gks, drop_rtol)
        ref_jumps, ref_dropped, ref_sizes = loop_canonical_jumps(gks.blocks, gks.modular, drop_rtol)
        assert [w for _, w in jumps] == [w for _, w in ref_jumps]
        assert dropped and dropped == ref_dropped and (drop_rtol < 1.0) == (len(jumps) > 0)
        assert list(sizes.items()) == list(ref_sizes.items())

    @pytest.mark.parametrize("case", ["fermi_m3", "random16"])
    def test_two_eigensolves_per_block_size(self, case, monkeypatch):
        # one batched eigh per block size and a real one for the block of
        # 0, and one combine call for every jump (the per-label loop made
        # one eigh per conjugate pair: 121 on random16)
        from qmsflow.canonical import DROP_RTOL
        from qmsflow.states import ModularData

        gks = _gks_of(case, "spec")
        calls = {"eigh": 0, "combine": 0}
        eigh, combine = np.linalg.eigh, ModularData.combine

        def counted_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        def counted_combine(self, y):
            calls["combine"] += 1
            return combine(self, y)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(ModularData, "combine", counted_combine)
        jumps, _, _ = _canonical_jumps_of(gks, DROP_RTOL)
        assert jumps and calls["eigh"] <= 2 * len(gks.blocks)
        assert calls["combine"] == 1


def _traceful_spec():
    """Jumps with trace parts over the maximally mixed state (degenerate),
    closed under adjoints: W + I and W^* + I."""
    w = random_matrix(np.random.default_rng(5), 3) + np.eye(3)
    return GeneratorSpec(DensityState.from_matrix(np.eye(3) / 3), ((w, 0.0), (dag(w), 0.0)))


class TestJumpGKS:
    """The GKS coefficients of a spec from its jumps; gks_matrix of the dense L is the oracle."""

    @pytest.mark.parametrize(
        "make",
        [lambda: fermi_ou(2, 1.0, [1.0, 2.0]).spec,
         lambda: random_dbc_spec(6, np.random.default_rng(3), n_zero=3),
         lambda: near_degenerate_spec(5e-11),
         _traceful_spec],
    )
    def test_matches_dense_coefficients(self, make):
        spec = make()
        gks = spec.gks_blocks
        md = gks.modular
        c = gks_matrix(build_generator(spec), modular_elements(md))
        scale = np.max(np.abs(c))
        assert np.allclose(gks.row, c[0], rtol=0, atol=1e-14 * scale)
        assert np.allclose(gks.col, c[:, 0], rtol=0, atol=1e-14 * scale)
        on_blocks = np.zeros(c.shape, dtype=bool)
        for members, blocks in gks.blocks:
            rows, cols = members[:, :, None], members[:, None, :]
            assert np.allclose(blocks, c[rows, cols], rtol=0, atol=1e-14 * scale)
            on_blocks[rows, cols] = True
        on_blocks[0, :] = on_blocks[:, 0] = True
        assert np.max(np.abs(c[~on_blocks]), initial=0.0) <= gks.offblock + 1e-14 * scale
        h, h_hat = _hamiltonian_parts(c, modular_elements(md))
        assert gks.hamiltonian_norms == pytest.approx(
            (np.linalg.norm(h), np.linalg.norm(h_hat)), rel=1e-9, abs=1e-14 * scale
        )

    @pytest.mark.parametrize("case", ["fermi_m2", "random_dbc", "near_degenerate", "random_l"])
    def test_superoperator_coefficients_match_dense(self, case):
        # the one-block route reads a superoperator's coefficients on sigma's
        # eigenvectors; off the labels its bound is the exact largest entry
        rng = np.random.default_rng(11)
        if case == "random_l":
            sigma, l = random_density(3, rng), random_matrix(rng, 9)
        else:
            spec = {"fermi_m2": lambda: fermi_ou(2, 1.0, [1.0, 2.0]).spec,
                    "random_dbc": lambda: random_dbc_spec(4, rng),
                    "near_degenerate": lambda: near_degenerate_spec(5e-11)}[case]()
            sigma, l = spec.sigma, build_generator(spec)
        gks = Superoperator(sigma, l).gks_blocks
        md = gks.modular
        c = gks_matrix(l, modular_elements(md))
        scale = np.max(np.abs(c))
        assert np.allclose(gks.row, c[0], rtol=0, atol=1e-14 * scale)
        assert np.allclose(gks.col, c[:, 0], rtol=0, atol=1e-14 * scale)
        for members, blocks in gks.blocks:
            assert np.allclose(blocks, c[members[:, :, None], members[:, None, :]], rtol=0, atol=1e-14 * scale)
        off = md.block_labels[:, None] != md.block_labels[None, :]
        assert gks.offblock == pytest.approx(np.max(np.abs(c[off]), initial=0.0), rel=0, abs=1e-14 * scale)
        h, h_hat = _hamiltonian_parts(c, modular_elements(md))
        assert gks.hamiltonian_norms == pytest.approx(
            (np.linalg.norm(h), np.linalg.norm(h_hat)), rel=1e-9, abs=1e-14 * scale
        )
