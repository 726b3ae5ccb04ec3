"""First and second divided differences of the tilted logarithmic-mean
kernels: the stacked pass against the per-array reference in conftest, and
both against a 40-digit mpmath evaluation."""

from functools import lru_cache

import numpy as np
import pytest

from qmsflow.calculus import (
    kernel_divided_differences,
    kernel_second_divided_differences,
    kernel_tilts,
    log_mean,
)
from qmsflow.models import fermi_ou, random_dbc_spec, random_density
from qmsflow.transport import _MetricWorkspace, _PathProblem

from conftest import (
    reference_kernel_divided_differences,
    reference_kernel_second_divided_differences,
)

# relative gaps on both sides of each switch: the first differences'
# derivative at 1e-5 and the second differences' confluent limit at
# CONFLUENT_GAP = 1e-3
GAPS = (0.0, 1e-7, 0.9e-5, 1.1e-5, 0.9e-3, 1.1e-3, 0.1)
GAP_OMEGAS = np.array([0.0, 0.7, -0.7])


def _kernels(lam, omegas):
    up, down = kernel_tilts(omegas)[:, None, :, None] * lam[:, None, :]
    return log_mean(up[..., None], down[..., None, :])


def _gap_spectrum(gap):
    """Two pairs at relative gap ``gap`` and one pair well apart, sorted."""
    lam = np.array([0.1, 0.1 * (1.0 + gap), 0.35, 0.35 * (1.0 + gap)])
    return lam / lam.sum()


def _midpoint_case(name):
    """Eigenvalues, frequencies and kernels of segment midpoints."""
    rng = np.random.default_rng(3)
    if name == "fermi-m2":
        spec = fermi_ou(2, 1.0, [1.0, 2.0]).spec
        rho0, rho1 = random_density(4, rng).rho, spec.sigma.rho
    else:
        n = int(name.split("-")[1])
        spec = random_dbc_spec(n, rng, ergodic=True)
        rho0, rho1 = random_density(n, rng).rho, random_density(n, rng).rho
    ws = _MetricWorkspace(spec)
    problem = _PathProblem(ws, rho0, rho1, 4)
    states = problem.states(problem.full_coords(problem.initial()))
    lam, _, ker, _ = ws.spectral_data(0.5 * (states[:-1] + states[1:]))
    return lam, ws.omegas, ker


CASES = ["fermi-m2", "random-3", "random-8", "gaps"]


def _case(name):
    if name == "gaps":
        lam = np.stack([_gap_spectrum(g) for g in GAPS])
        return lam, GAP_OMEGAS, _kernels(lam, GAP_OMEGAS)
    return _midpoint_case(name)


class TestAgainstReference:
    @pytest.mark.parametrize("name", CASES)
    def test_first_differences(self, name):
        lam, omegas, ker = _case(name)
        left, right = kernel_divided_differences(lam, kernel_tilts(omegas), ker)
        ref_left, ref_right = reference_kernel_divided_differences(lam, omegas, ker)
        assert np.array_equal(left, ref_left)
        assert np.array_equal(right, ref_right)

    @pytest.mark.parametrize("name", CASES)
    def test_second_differences(self, name):
        lam, omegas, ker = _case(name)
        tilts = kernel_tilts(omegas)
        left, right = kernel_divided_differences(lam, tilts, ker)
        got = kernel_second_divided_differences(lam, tilts, left, right)
        want = reference_kernel_second_divided_differences(lam, omegas, left, right)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.all(np.isfinite(g))
            assert np.array_equal(g, w)

    def test_switches_are_reached(self):
        # the gap spectra put pairs on both sides of the 1e-5 and 1e-3 switches
        lam = np.stack([_gap_spectrum(g) for g in GAPS])
        rel = (lam[:, 1] - lam[:, 0]) / lam[:, 1]
        assert np.sum(rel <= 1e-5) == 3 and np.sum(rel <= 1e-3) == 5


# ---------------------------------------------------------------------------
# 40-digit reference
# ---------------------------------------------------------------------------

MP_DIGITS = 40


def _mp_divided_differences(mpmath, tu, td):
    """phi[s_nodes; r_nodes] of phi(s, r) = LM(tu s, td r) at MP_DIGITS
    digits, as a function of two sorted tuples of nodes; nodes that
    coincide are taken as derivatives."""

    def phi(s, r):
        # log1p keeps the relative precision of the logarithms' difference
        # at the nearby points where mpmath.diff samples it
        x, y = tu * s, td * r
        return x if x == y else (x - y) / mpmath.log1p((x - y) / y)

    @lru_cache(maxsize=None)
    def dd(ss, rs):
        if ss[0] != ss[-1]:
            return (dd(ss[1:], rs) - dd(ss[:-1], rs)) / (ss[-1] - ss[0])
        if rs[0] != rs[-1]:
            return (dd(ss, rs[1:]) - dd(ss, rs[:-1])) / (rs[-1] - rs[0])
        ks, kr = len(ss) - 1, len(rs) - 1
        if ks == kr == 0:
            return phi(ss[0], rs[0])
        order = mpmath.diff(phi, (ss[0], rs[0]), (ks, kr))
        return order / (mpmath.factorial(ks) * mpmath.factorial(kr))

    return dd


def _mp_arrays(mpmath, lam, omegas):
    """left, right and in_s, mixed, in_r of one spectrum at MP_DIGITS
    digits, with the tilts taken exactly as the floats the code uses."""
    n = len(lam)
    tilts = kernel_tilts(omegas)
    first = np.empty((2, len(omegas), n, n, n))
    second = np.empty((3, len(omegas), n, n, n, n))
    with mpmath.workdps(MP_DIGITS):
        nodes = [mpmath.mpf(float(v)) for v in lam]
        for j in range(len(omegas)):
            dd = _mp_divided_differences(mpmath, mpmath.mpf(float(tilts[0, j])),
                                         mpmath.mpf(float(tilts[1, j])))
            for i, l, p, k in np.ndindex(n, n, n, n):
                a, b, c, d = nodes[i], nodes[l], nodes[p], nodes[k]
                first[0, j, i, l, k] = dd(tuple(sorted((a, b))), (d,))
                first[1, j, i, l, k] = dd((a,), tuple(sorted((b, d))))
                second[0, j, i, l, p, k] = dd(tuple(sorted((a, b, c))), (d,))
                second[1, j, i, l, p, k] = dd(tuple(sorted((a, b))), tuple(sorted((c, d))))
                second[2, j, i, l, p, k] = dd((a,), tuple(sorted((b, c, d))))
    return first, second


# relative error allowed against the 40-digit values, entry by entry: the
# first differences switch to the midpoint derivative at a gap of 1e-5
# (error ~gap^2, or ~1e-16/gap for the quotient), the second ones to the
# confluent limit at 1e-3 (within about 1e-7 at the switch)
FIRST_RTOL = 1e-10
SECOND_RTOL = 2e-7


@pytest.mark.parametrize("gap", GAPS)
def test_matches_high_precision(gap):
    mpmath = pytest.importorskip("mpmath")
    lam = _gap_spectrum(gap)[None]
    tilts = kernel_tilts(GAP_OMEGAS)
    left, right = kernel_divided_differences(lam, tilts, _kernels(lam, GAP_OMEGAS))
    second = kernel_second_divided_differences(lam, tilts, left, right)
    first_ref, second_ref = _mp_arrays(mpmath, lam[0], GAP_OMEGAS)
    for got, want in zip((left, right), first_ref):
        assert np.all(np.abs(got[0] - want) <= FIRST_RTOL * np.abs(want))
    for got, want in zip(second, second_ref):
        assert np.all(np.abs(got[0] - want) <= SECOND_RTOL * np.abs(want))
