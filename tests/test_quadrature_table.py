"""The table behind `CumulativeQuadrature.value` on the strip
quadratures: agreement with the per-call Gauss-Kronrod evaluation it
replaced, the level-by-level build bit for bit against the panel-by-panel
one, the leaves' power basis against the Chebyshev antiderivatives it is
converted from, its integrand calls, no integrand evaluation and no lazy
build after the build, and zeta0 next to the lower strip end against a
50-digit quadrature."""

import functools
import math

import numpy as np
import pytest

from biconsurf import checks, gluing, spherical
from biconsurf import numerics as nm
from conftest import (Leaves, gk_adaptive, isothermal_quadrature, reference_build,
                      scalar_clenshaw)


def per_call_gk(cq, x):
    """The evaluation the table replaced: the table entry at the cell's
    node nearer the origin plus the signed adaptive GK integral from there
    to x (in s in the end cells)."""
    if x <= cq.lower:
        return float(cq.table[0])
    if x >= cq.upper:
        return float(cq.table[-1])
    i = min(max(int(np.searchsorted(cq.nodes, x)) - 1, 0), nm.QUAD_CELLS - 1)
    a, b = cq.nodes[i:i + 2].tolist()
    if x == a:
        return float(cq.table[i])
    gk = lambda f, lo, hi: gk_adaptive(f, lo, hi, cq._cell_tol[i], Leaves())[0]
    if cq.nodes[i] < cq.origin:
        if i == 0:
            return float(cq.table[1]) - gk(cq.left_sub, math.sqrt(x - a), math.sqrt(b - a))
        return float(cq.table[i + 1]) - gk(cq.f, x, b)
    if i == nm.QUAD_CELLS - 1:
        return float(cq.table[i]) + gk(cq.right_sub, math.sqrt(b - x), math.sqrt(b - a))
    return float(cq.table[i]) + gk(cq.f, a, x)


def _cstar_at(C, frac):
    return frac * gluing.cstar_range(C).upper


C_NEAR_MIN = 1.001 * spherical.C_MIN
PAIRS = [
    (1.0, 1.0),
    (C_NEAR_MIN, _cstar_at(C_NEAR_MIN, 0.01)),
    (C_NEAR_MIN, _cstar_at(C_NEAR_MIN, 0.99)),
    (20.0, _cstar_at(20.0, 0.01)),
    (20.0, _cstar_at(20.0, 0.99)),
    (3.0, _cstar_at(3.0, 0.5)),
]
PAIR_IDS = ["C1", "Cmin-low", "Cmin-high", "C20-low", "C20-high", "C3"]

# distance of x to the nearer end, as a fraction of the width
DISTANCE_BANDS = ((1e-2, 0.5), (1e-4, 1e-2), (1e-6, 1e-4), (1e-12, 1e-6))


def band_points(cq, n=40):
    width = cq.upper - cq.lower
    for a, b in DISTANCE_BANDS:
        d = width * np.geomspace(a, b, n)
        yield np.concatenate([cq.lower + d, cq.upper - d])


def quadratures(C, Cstar):
    at = gluing.GluingAtlas(C, Cstar)
    return {"zeta": at.family._zeta_cum, "h": at._h_cum}


@pytest.mark.parametrize("C, Cstar", PAIRS, ids=PAIR_IDS)
def test_table_matches_per_call_gk_by_band(C, Cstar):
    for name, cq in quadratures(C, Cstar).items():
        scale = abs(cq.total)
        for band, xs in zip(DISTANCE_BANDS, band_points(cq)):
            worst = np.max(np.abs(cq.value(xs) - [per_call_gk(cq, x) for x in xs.tolist()]))
            assert worst <= 1e-13 * scale, (name, band, worst / scale)


# C = 300 and 1e3 have panels that stop at the depth limit
DEEP = [(100.0, _cstar_at(100.0, 0.5)), (300.0, _cstar_at(300.0, 0.5)), (1e3, _cstar_at(1e3, 0.5))]


@pytest.mark.parametrize("C, Cstar", PAIRS + DEEP, ids=PAIR_IDS + ["C100", "C300", "C1e3"])
def test_build_matches_the_panel_by_panel_reference(C, Cstar):
    at = gluing.GluingAtlas(C, Cstar)
    tables = {"zeta": at.family._zeta_cum, "h": at._h_cum,
              "isothermal": isothermal_quadrature(at.family)}
    for name, cq in tables.items():
        ref = reference_build(cq)
        assert np.array_equal(cq.table, ref.table), name
        assert np.array_equal(cq._cell_tol, ref.cell_tol), name
        assert np.array_equal(cq._cell, ref.cell), name
        assert cq._leaves.shape == ref.leaves.shape, name
        for col in range(ref.leaves.shape[1]):
            assert np.array_equal(cq._leaves[:, col], ref.leaves[:, col]), (name, col)
        assert np.array_equal(cq._poly, ref.poly), name
        assert np.array_equal(cq._x_keys, ref.x_keys), name
        assert np.array_equal(cq._y_keys, ref.y_keys), name


@pytest.mark.parametrize("C", [C_NEAR_MIN, 1.0, 20.0, 1e3])
def test_power_basis_matches_the_chebyshev_antiderivative(C):
    # each leaf's power-basis antiderivative and its derivative, at 9 points
    # of t, against the Chebyshev coefficients they were converted from,
    # summed by Clenshaw one float at a time, in units of the leaf's
    # integral; measured at most 7.9e-16 (zeta, 1.001 C_MIN) and 3.4e-15
    # (the derivative, zeta, C = 1e3); one product of the samples by a
    # composed samples-to-power map was off by 0.7-2e-13
    for name, cq in quadratures(C, _cstar_at(C, 0.5)).items():
        cheb = reference_build(cq).cheb.tolist()
        span = cq._leaves[:, nm._SPAN]
        for t in np.linspace(-1.0, 1.0, 9).tolist():
            got = nm._polynomial(cq._poly, np.full(len(span), t))
            want = np.array([scalar_clenshaw(coef, t) for coef in cheb])
            gap = np.abs(got - want) / span[:, None]
            assert np.max(gap[:, 0]) <= 3e-15, (name, t)
            assert np.max(gap[:, 1]) <= 1e-14, (name, t)


def test_build_calls_each_integrand_once_per_level():
    # at C = 1e3 the lower zeta end cell halves its panels to the depth
    # limit, so left_sub takes all 9 levels
    cq = spherical.SphereFamily(1e3)._zeta_cum
    calls = {"f": 0, "left_sub": 0, "right_sub": 0}

    def counted(name):
        fn = getattr(cq, name)

        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    nm.CumulativeQuadrature(counted("f"), cq.lower, cq.origin, cq.upper,
                            counted("left_sub"), counted("right_sub"))
    assert all(1 <= n <= 9 for n in calls.values()), calls


def test_value_at_nodes_is_the_table():
    cq = gluing.atlas(1.0, 1.0)._h_cum
    for i in (1, 2, 100, 256, nm.QUAD_CELLS - 2, nm.QUAD_CELLS - 1):
        assert cq.value(float(cq.nodes[i])) == cq.table[i]


def _exact_lower_zeta(mpmath, C, root, xi):
    """The turning angle from the lower strip end to xi at 50 digits: the end
    integral of 2 g_zeta / sqrt(T/d) over s from 0 to sqrt(xi - a_r^3), by
    mpmath.quad, with a_r^3 the 50-digit root next to `root`.  T/d comes from the
    exact division of P(a) = T(a^3) = -a^8 + 3C a^6 - 3 by a - a_r."""
    c = mpmath.mpf(C)
    a_r = mpmath.findroot(lambda a: a ** 6 * (3 * c - a * a) - 3, mpmath.cbrt(root))
    quotient = [mpmath.mpf(-1)]
    for coef in (0, 3 * c, 0, 0, 0, 0, 0):
        quotient.append(coef + a_r * quotient[-1])

    def integrand(s):
        tau = a_r ** 3 + s * s
        a = mpmath.cbrt(tau)
        t_over_d = mpmath.polyval(quotient, a) / (a * a + a * a_r + a_r * a_r)
        g = mpmath.sqrt(c) * tau ** (mpmath.mpf(4) / 3) / (c * tau * tau - 1)
        return 2 * g / mpmath.sqrt(t_over_d)

    return float(mpmath.quad(integrand, [0, mpmath.sqrt(mpmath.mpf(xi) - a_r ** 3)]))


# from C ~ 300 up the lower zeta end cell's first leaf stops at the depth limit
# of the adaptive build, wider than the radius of convergence in s (a pole of
# the integrand at C tau^2 = 1 sits 7e-4 from s = 0 at C = 1e3): ROADMAP item 2
UNRESOLVED_END = pytest.mark.xfail(strict=True, reason="lower zeta end leaf at the depth limit")


@pytest.mark.parametrize("C", [1.001 * spherical.C_MIN, 1.0, 20.0, 300.0,
                               pytest.param(1e3, marks=UNRESOLVED_END)])
def test_zeta0_at_the_lower_end_against_mpmath(C):
    # xi = xi01 + f (xi02 - xi01), f from 1e-9 to 1e-2; measured at most 1.8e-12
    # of the table's span at C = 1, 20 and 300, 2.9e-11 at 1.001 C_MIN (f = 1e-9,
    # where xi01's rounding shows), and 3.0e-7 at C = 1e3 at every f
    mpmath = pytest.importorskip("mpmath")
    fam = spherical.SphereFamily(C)
    r, span = fam.roots, fam._zeta_cum.total
    with mpmath.workdps(50):
        for f in np.geomspace(1e-9, 1e-2, 8).tolist():
            xi = r.xi01 + f * (r.xi02 - r.xi01)
            exact = _exact_lower_zeta(mpmath, C, r.xi01, xi)
            assert abs(fam.zeta0(xi) - fam.zeta_limits[0] - exact) <= 1e-10 * span, f


def test_no_integrand_evaluation_after_build(monkeypatch):
    at = gluing.GluingAtlas(1.0, 1.0)
    fam = at.family
    calls = {"panel": 0, "integrand": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(nm, "gauss_kronrod_panel", counted("panel", nm.gauss_kronrod_panel))
    for cq in (at._h_cum, fam._zeta_cum):
        for attr in ("f", "left_sub", "right_sub"):
            monkeypatch.setattr(cq, attr, counted("integrand", getattr(cq, attr)))
    r = at.roots
    width = r.xi02 - r.xi01
    offsets = width * np.geomspace(1e-12, 0.5, 60)
    xis = np.concatenate([r.xi01 + offsets, r.xi02 - offsets])
    at._h_cum.value(xis)
    fam._zeta_cum.value(xis)
    at.h0(xis)
    fam.zeta0(xis)
    for xi in xis.tolist():
        fam.zeta0_deriv(xi)
    lo, hi = at.h_limits
    span = hi - lo
    at.h0_inverse(np.concatenate([lo + span * np.geomspace(1e-11, 1.0, 80),
                                  hi - span * np.geomspace(1e-11, 1.0, 80)]))
    assert calls == {"panel": 0, "integrand": 0}


def test_lookups_build_nothing_lazily():
    # the build makes the leaves' power-basis coefficients and search keys:
    # a cold table's first lookups add, replace or cache nothing
    assert not any(isinstance(attr, functools.cached_property)
                   for attr in vars(nm.CumulativeQuadrature).values())
    fam = spherical.SphereFamily(1.0)
    cq = fam._zeta_cum
    before = dict(vars(cq))
    cq.value(np.linspace(cq.lower, cq.upper, 7))
    cq.inverse(np.linspace(*cq.table[[0, -1]], 7))
    after = vars(cq)
    assert after.keys() == before.keys()
    assert all(after[name] is attr for name, attr in before.items())


@pytest.mark.parametrize("C, Cstar", PAIRS[1:3], ids=PAIR_IDS[1:3])
def test_leaves_near_the_threshold(C, Cstar):
    # T has one formula across each end cell and its neighbours, so the
    # adaptive build has no switching seam to split at: near C_MIN each
    # table takes about as many leaves as at C = 20 (517)
    for name, cq in quadratures(C, Cstar).items():
        assert len(cq._leaves) <= 600, name


@pytest.fixture(scope="module")
def cold_report():
    """A cold s3-complete report, with the quadrature builds it made."""
    spherical.family.cache_clear()
    gluing.atlas.cache_clear()
    builds = []
    init = nm.CumulativeQuadrature.__init__

    def counted(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    nm.CumulativeQuadrature.__init__ = counted
    try:
        report = checks.s3_complete_checks(1.0, 1.0, c0=0.0, grid=10, seed=12345)
    finally:
        nm.CumulativeQuadrature.__init__ = init
    return report, builds


def test_cold_s3_complete_report_builds_two_quadratures(cold_report):
    # the turning angle and the height; the negative control shares the height
    _, builds = cold_report
    assert len(builds) == 2


def test_negative_control_shares_tables_bit_for_bit(cold_report):
    report, _ = cold_report
    at = gluing.GluingAtlas(1.0, 1.0)
    jets = at.junction_jets(1, phases=(at.phase(0), at.phase(0)))
    assert report["junction_negative_control"].value == checks._junction_mismatch(at, jets)[1][0, 1]
