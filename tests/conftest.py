import numpy as np
import pytest

from qmsflow.linalg import dag, sharp
from qmsflow.models import fermi_ou, fermi_ou_infinite, depolarizing


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def fermi_m1():
    return fermi_ou(1, 2.0, [1.0])


@pytest.fixture(scope="session")
def fermi_m1_unit():
    return fermi_ou(1, 1.0, [1.0])


@pytest.fixture(scope="session")
def fermi_m2():
    return fermi_ou(2, 1.0, [1.0, 2.0])


@pytest.fixture(scope="session")
def fermi_infinite_n2():
    return fermi_ou_infinite(2)


@pytest.fixture(scope="session")
def depolarizing_n2():
    return depolarizing(2)


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def kron_sum_generator(spec):
    """Reference L: the per-jump sum of Kronecker products."""
    n = spec.dim
    out = np.zeros((n * n, n * n), dtype=complex)
    eye = np.eye(n)
    for v, w in spec.jumps:
        vv = dag(v) @ v
        out += np.exp(-w / 2.0) * (2.0 * sharp(dag(v), v) - sharp(vv, eye) - sharp(eye, vv))
    return out


def near_degenerate_spec(gap):
    """sigma = diag(0.3, 0.3(1 + gap), 0.4 - 0.3 gap) with four independent jumps.

    The omega = 0 jump E_01 + i E_10 comes with its adjoint (the same
    dissipator), E_02 and E_20 sit at +-log(lam_2/lam_0), and diag(1, -1, 0)
    completes the set, so the canonical form has four jumps.
    """
    from qmsflow.generators import GeneratorSpec
    from qmsflow.states import DensityState

    lam = np.array([0.3, 0.3 * (1 + gap), 0.4 - 0.3 * gap])
    unit = np.eye(3, dtype=complex)

    def e(i, j):
        return np.outer(unit[i], unit[j])

    w = float(np.log(lam[2] / lam[0]))
    v = e(0, 1) + 1j * e(1, 0)
    jumps = [(v, 0.0), (dag(v), 0.0), (e(0, 2), w), (e(2, 0), -w), (np.diag([1.0, -1.0, 0.0]), 0.0)]
    return GeneratorSpec.create(DensityState.from_matrix(np.diag(lam).astype(complex)), jumps)


def modular_elements(md):
    """Every element of a modular basis as an n x n matrix, stacked in order."""
    return md.combine(np.eye(md.size))


def dense_modular_basis(sigma):
    """Reference: the modular basis of ``sigma`` formed densely, in the order
    of :func:`qmsflow.states.build_modular_basis`.

    Each element is a sum of outer products of sigma's eigenvectors: a
    Helmert row of the diagonal units sqrt(n) |eta_i><eta_i|, the real or
    imaginary symmetrization of a unit inside a merged eigenspace, or one
    unit sqrt(n) |eta_i><eta_j| at omega != 0.
    """
    from qmsflow.states import _helmert_rows, bohr_groups

    n, u = sigma.dim, sigma.eigenvectors
    loglam = np.log(sigma.eigenvalues)
    label = np.empty(n * n, dtype=int)
    for g, members in enumerate(bohr_groups(sigma)):
        label[members] = g
    label = label.reshape(n, n)
    group_of = np.concatenate([[0], np.cumsum(label[np.arange(n - 1), np.arange(1, n)] != label[0, 0])])
    group_log = np.array([np.mean(loglam[group_of == g]) for g in range(group_of[-1] + 1)])

    def unit(i, j):
        return np.sqrt(n) * np.outer(u[:, i], np.conj(u[:, j]))

    h = _helmert_rows(n)
    entries = [(0.0, (-1, k), sum(h[k, i] * unit(i, i) for i in range(n))) for k in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if group_of[i] == group_of[j]:
                if i < j:
                    f = unit(i, j)
                    entries.append((0.0, (i, j), (f + dag(f)) / np.sqrt(2.0)))
                    entries.append((0.0, (j, i), 1j * (f - dag(f)) / np.sqrt(2.0)))
            else:
                entries.append((float(group_log[group_of[j]] - group_log[group_of[i]]), (i, j), unit(i, j)))
    entries.sort(key=lambda e: (e[0], e[1]))
    first = next(k for k, e in enumerate(entries) if e[1] == (-1, 0))
    entries.insert(0, entries.pop(first))
    return [e[2] for e in entries]


def per_point_trajectory(spec, rho0, grid, lam=None):
    """Reference: the trajectory one time at a time, each state through
    ``DensityState.from_matrix`` and its production through ``apply_dual``."""
    from qmsflow.entropy import TrajectorySample, entropy_production, relative_entropy
    from qmsflow.generators import dual_orbit
    from qmsflow.states import DensityState

    d0 = relative_entropy(rho0, spec.sigma)
    p0 = entropy_production(spec, rho0)
    rows = []
    for t in grid:
        (rho_t,) = dual_orbit(spec, rho0.rho, [t])
        rho_t = 0.5 * (rho_t + dag(rho_t))
        rho_t = DensityState.from_matrix(rho_t / np.trace(rho_t).real)
        rows.append(TrajectorySample(
            t=float(t),
            entropy=relative_entropy(rho_t, spec.sigma),
            production=entropy_production(spec, rho_t),
            entropy_bound=None if lam is None else float(np.exp(-2 * lam * t) * d0),
            production_bound=None if lam is None else float(np.exp(-2 * lam * t) * p0),
        ))
    return rows


def loop_canonical_jumps(blocks, mod, drop_rtol):
    """Reference for ``qmsflow.canonical._canonical_jumps``: one eigensolve
    and one ``combine`` call per conjugate pair of blocks, in label order."""
    from qmsflow.canonical import _paired_blocks

    omegas, labels = mod.bohr_frequencies, mod.block_labels
    sym = []
    for (_, values), image in zip(blocks, _paired_blocks(blocks, mod)):
        half = 0.5 * (values + image)
        sym.append(0.5 * (half + np.conj(half).transpose(0, 2, 1)))
    overall = max([float(np.max(np.abs(b.real))) for b in sym] + [1e-300])
    listed_floor = mod.size * np.finfo(float).eps * overall
    weighted = max(
        [float(np.max(np.abs(np.exp(omegas[m] / 2.0)[:, :, None] * b))) for (m, _), b in zip(blocks, sym)]
        + [1e-300]
    )
    where = {int(labels[m[0]]): (s, r) for s, (members, _) in enumerate(blocks) for r, m in enumerate(members)}
    jumps, dropped, block_sizes = [], [], {}
    zero = labels[0]
    for g in range(zero + 1):
        if g not in where:
            continue
        s, r = where[g]
        s, r = where[int(labels[mod.conj_pairing[blocks[s][0][r, 0]]])]
        idx, sub = blocks[s][0][r], sym[s][r]
        omega = float(np.mean(omegas[idx]))
        if g == zero:
            sub = sub.real
        d, vv = np.linalg.eigh(0.5 * (sub + dag(sub)))
        kept = []
        for k in range(len(d) - 1, -1, -1):
            if d[k] * np.exp(omega / 2.0) <= drop_rtol * weighted:
                if abs(d[k]) > listed_floor:
                    dropped.append(float(d[k]))
            else:
                kept.append(k)
        if kept:
            y = np.zeros((len(kept), mod.size), dtype=complex)
            y[:, idx] = np.conj(vv[:, kept]).T
            for scale, vmat in zip(np.sqrt(d[kept] * np.exp(omega / 2.0) / 2.0), mod.combine(y)):
                jumps.append((scale * vmat, omega))
                if g != zero:
                    jumps.append((scale * dag(vmat), -omega))
        block_sizes[omega] = len(kept)
        if g != zero:
            block_sizes[-omega] = len(kept)
    return jumps, dropped, block_sizes
