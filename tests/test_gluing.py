"""Global construction: admissible range, height quadrature, reflected
profile, phases, junction smoothness, and the glued immersions."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biconsurf import checks, diffgeo, gluing, numerics, spherical
from biconsurf.numerics import Bracket, OutOfDomain, find_root
from conftest import (jet_lengths_at, junction_stencil_cases, junction_stencil_gaps,
                      refined_singular_integral, residual,
                      scalar_inverse, scalar_value, validate_patch)


@pytest.fixture(scope="module")
def at():
    return gluing.atlas(1.0, 1.0)


class TestCstarRange:
    def test_reference_value(self):
        rng = gluing.cstar_range(1.0)
        assert rng.upper == pytest.approx(2.0842397718205974, rel=1e-14)
        assert rng.lower == 0.0

    def test_open_interval(self):
        rng = gluing.cstar_range(1.0)
        assert not rng.contains(rng.upper)
        assert not rng.contains(0.0)
        assert rng.contains(0.5 * rng.upper)

    def test_blows_up_at_threshold(self):
        assert gluing.cstar_range(spherical.C_MIN + 1e-10).upper > 1e4

    def test_invalid_c(self):
        with pytest.raises(gluing.InvalidC):
            gluing.cstar_range(0.5)

    def test_c_min_low_part_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            exact = mpmath.mpf(4) / mpmath.mpf(3) ** mpmath.mpf(1.5)
            assert float(exact - spherical.C_MIN) == gluing.C_MIN_LO

    @pytest.mark.parametrize("C", [0.7698012, 1.00000001 * spherical.C_MIN,
                                   1.001 * spherical.C_MIN, 1.0, 20.0, 1e6])
    def test_upper_end_within_4_ulps_of_mpmath(self, C):
        # with C - C_MIN formed from the rounded C_MIN alone, the upper end
        # sat 1.75e-11 relative too high at 0.7698012 and 1.9e-9 at
        # 1.00000001 C_MIN
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            exact = (mpmath.mpf(C) - mpmath.mpf(4) / mpmath.mpf(3) ** mpmath.mpf(1.5)) ** -0.5
            upper = gluing.cstar_range(C).upper
            assert abs(float((upper - exact) / math.ulp(float(exact)))) <= 4.0

    def test_atlas_rejects_inadmissible(self):
        with pytest.raises(gluing.InvalidC):
            gluing.GluingAtlas(1.0, 3.0)


class TestAtlasCache:
    def test_one_entry_however_c0_is_passed(self):
        a = gluing.atlas(1.0, 1.0)
        assert a is gluing.atlas(1.0, 1.0, c0=0.0)
        assert a is gluing.atlas(1.0, 1.0, 0.0)
        assert a is gluing.atlas(1, 1)

    def test_cache_controls(self):
        gluing.atlas(1.0, 1.0)
        info = gluing.atlas.cache_info()
        assert info.currsize >= 1
        hits = info.hits
        gluing.atlas(1.0, 1.0, c0=0.0)
        assert gluing.atlas.cache_info().hits == hits + 1


class TestHeightFunction:
    def test_base_point(self, at):
        assert at.h0(at.roots.xi00) == 0.0

    def test_limits_vs_midpoint_oracle(self, at):
        r = at.roots

        def g(t):
            tv = float(spherical.T(1.0, t))
            return math.sqrt((3 * t * t - tv) / (t ** 4 * tv))

        left, le = refined_singular_integral(g, r.xi01, r.xi00, True, False)
        right, re_ = refined_singular_integral(g, r.xi00, r.xi02, False, True)
        m1, p1 = at.h_limits
        assert m1 == pytest.approx(-left, abs=1e-8 + 10 * le)
        assert p1 == pytest.approx(right, abs=1e-8 + 10 * re_)
        # frozen oracle values
        assert m1 == pytest.approx(-1.359894422590082, abs=1e-7)
        assert p1 == pytest.approx(0.38162416784530295, abs=1e-7)

    def test_strictly_increasing(self, at):
        r = at.roots
        xs = np.linspace(r.xi01 + 1e-9, r.xi02 - 1e-9, 50)
        hs = [at.h0(float(x)) for x in xs]
        assert np.all(np.diff(hs) > 0.0)

    def test_derivative_blows_up_at_ends(self, at):
        # h0' = 1 / (dF/dh): the profile's rate vanishes toward both roots
        r = at.roots
        rate = lambda xi: at._rates(0, xi)[0]
        interior = rate(r.xi00)
        for d in (1e-4, 1e-8, 1e-12):
            assert 0.0 < rate(r.xi01 + d) < rate(r.xi01 + 100 * d)
            assert 0.0 < rate(r.xi02 - d) < interior
        assert rate(r.xi01 + 1e-12) < 1e-5

    def test_inverse_round_trip(self, at):
        m1, p1 = at.h_limits
        for y in np.linspace(m1 + 1e-4, p1 - 1e-4, 23):
            xi = at.h0_inverse(float(y))
            assert at.h0(xi) == pytest.approx(float(y), abs=1e-11)

    def test_inverse_near_limits(self, at):
        m1, p1 = at.h_limits
        assert at.h0_inverse(p1 - 1e-3) == pytest.approx(at.roots.xi02, abs=2e-2)
        assert at.h0_inverse(m1) == at.roots.xi01
        assert at.h0_inverse(p1) == at.roots.xi02

    def test_inverse_out_of_range(self, at):
        with pytest.raises(OutOfDomain):
            at.h0_inverse(at.h_limits[1] + 0.1)

    def test_generic_monotone_inverse_on_height(self, at):
        # the kernel's bracketed root finder inverts the monotone height
        # function to the atlas machinery's answer
        r = at.roots

        def invert(y):
            f = lambda xi: at.h0(xi) - y
            return find_root(f, Bracket.from_function(f, r.xi01, r.xi02), tol=1e-12)

        xi_base = invert(0.0)
        assert xi_base == pytest.approx(r.xi00, abs=1e-9)
        y = at.h_limits[1] - 1e-3
        xi_near_top = invert(y)
        assert r.xi02 - xi_near_top < 2e-2    # hugs the upper root
        assert at.h0(xi_near_top) == pytest.approx(y, abs=1e-10)


@pytest.mark.parametrize("name", ["h0", "zeta0", "mean_curvature_psi"])
def test_closed_strip_guard(at, name):
    """Every evaluator on the closed strip takes both roots and rejects a
    NaN and the floats just outside, as a float or inside an array."""
    fun = at.family.zeta0 if name == "zeta0" else getattr(at, name)
    r = at.roots
    assert np.all(np.isfinite(fun(np.array([r.xi01, r.xi02]))))
    for xi in (math.nan, math.nextafter(r.xi01, 0.0), math.nextafter(r.xi02, math.inf)):
        for arg in (xi, np.array([r.xi00, xi])):
            with pytest.raises(OutOfDomain):
                fun(arg)


def _cstar_at(C, frac):
    return frac * gluing.cstar_range(C).upper


# (C, C*, bounds on max |h0(F(y)) - y| / span per distance band); the bounds
# are what the PCHIP-seeded per-call inverse, which the table replaced,
# reached on these samples
INVERSE_CASES = [
    (1.0, 1.0, (9.2e-14, 3.9e-13, 7.2e-11, 1.2e-8)),
    (20.0, _cstar_at(20.0, 0.01), (9.1e-14, 3.4e-13, 4.4e-11, 9.9e-9)),
    (20.0, _cstar_at(20.0, 0.99), (9.5e-14, 9.9e-13, 8.3e-11, 1.6e-8)),
    (1.001 * spherical.C_MIN, _cstar_at(1.001 * spherical.C_MIN, 0.5),
     (8.9e-14, 5.2e-12, 5.6e-10, 3.6e-8)),
    # at most twice the measured 9.5e-15, 8.3e-13, 8.5e-11 and 1.4e-8
    (1e3, _cstar_at(1e3, 0.99), (1.9e-14, 1.6e-12, 1.7e-10, 2.7e-8)),
]
# distance of y to the nearer end height, as a fraction of the span
DISTANCE_BANDS = ((1e-2, 0.5), (1e-4, 1e-2), (1e-6, 1e-4), (1e-11, 1e-6))


def band_heights(at, n=100):
    """Heights log-spaced in each distance band, from both ends."""
    lo, hi = at.h_limits
    span = hi - lo
    for a, b in DISTANCE_BANDS:
        d = span * np.geomspace(a, b, n)
        yield np.concatenate([lo + d, hi - d])


@pytest.fixture(scope="module", params=INVERSE_CASES,
                ids=["C1", "C20-low", "C20-high", "Cmin", "C1e3-high"])
def inverse_case(request):
    C, Cstar, bounds = request.param
    return gluing.GluingAtlas(C, Cstar), bounds


class TestTabulatedInverse:
    def test_round_trip_by_band(self, inverse_case):
        at, bounds = inverse_case
        span = at.h_limits[1] - at.h_limits[0]
        for ys, bound in zip(band_heights(at), bounds):
            worst = np.max(np.abs(at.h0(at.F(ys)) - ys)) / span
            assert worst <= bound

    def test_base_point(self, inverse_case):
        # within one ulp of xi00 plus one height ulp at h = 0 carried into
        # xi: 5e-11 at C = 20, 5e-5 at C = 1e3
        at, _ = inverse_case
        xi00 = at.roots.xi00
        floor = math.ulp(xi00) + math.ulp(at._h_base) * at._rates(0, xi00)[0]
        assert abs(at.F(0.0) - xi00) <= floor

    def test_h0_calls_per_inversion(self, inverse_case, monkeypatch):
        # the inversion runs on the table's leaves, not through value lookups
        at, _ = inverse_case
        lo, hi = at.h_limits
        ys = np.concatenate([np.linspace(lo, hi, 1000), *band_heights(at)])
        calls = []
        h0, value = at.h0, at._h_cum.value
        monkeypatch.setattr(at, "h0", lambda xi: calls.append(xi) or h0(xi))
        monkeypatch.setattr(at._h_cum, "value", lambda x: calls.append(x) or value(x))
        at.h0_inverse(ys)
        assert calls == []

    def test_array_calls_match_the_scalar_reference(self, inverse_case):
        # each entry of an array call takes the float operations of the
        # one-float lookups of conftest, so the bits agree
        at, _ = inverse_case
        lo, hi = at.h_limits
        ys = np.concatenate([np.linspace(lo, hi, 1000), *band_heights(at)]) + at._h_base
        ys = np.clip(ys, 0.0, at._h_cum.total)
        xis = at._h_cum.inverse(ys)
        want = [scalar_inverse(at._h_cum, y) for y in ys.tolist()]
        assert xis.tobytes() == np.array(want).tobytes()
        for table in (at._h_cum, at.family._zeta_cum):
            want = [scalar_value(table, x) for x in xis.tolist()]
            assert table.value(xis).tobytes() == np.array(want).tobytes()

    def test_a_float_gives_a_float(self, inverse_case):
        at, _ = inverse_case
        cq = at._h_cum
        for got in (cq.inverse(0.3 * cq.total), cq.value(0.5 * (cq.lower + cq.upper)),
                    cq.inverse(0.0), cq.value(cq.upper), at.h0_inverse(0.0), at.F(0.1),
                    at.h0(at.roots.xi00), at.family.zeta0(at.roots.xi00)):
            assert type(got) is float

    def test_an_out_of_range_entry_raises(self, inverse_case):
        at, _ = inverse_case
        cq = at._h_cum
        for call, good, bad in ((cq.inverse, 0.5 * cq.total, 1.01 * cq.total),
                                (cq.inverse, 0.5 * cq.total, -0.01 * cq.total),
                                (cq.value, at.roots.xi00, cq.upper + 0.01 * (cq.upper - cq.lower)),
                                (at.h0_inverse, 0.0, 1.01 * at.h_limits[1] + 0.1)):
            with pytest.raises(OutOfDomain):
                call(np.array([good, bad, good]))

    def test_newton_converges_on_dense_heights(self, at, caplog):
        with caplog.at_level(logging.DEBUG, logger="biconsurf.numerics"):
            for a2 in (at, gluing.atlas(1e3, _cstar_at(1e3, 0.5)),
                       gluing.atlas(1e3, _cstar_at(1e3, 0.99))):
                lo, hi = a2.h_limits
                a2.h0_inverse(np.linspace(lo, hi, 4000))
        assert caplog.records == []

    def test_newton_cap_is_logged(self, caplog, monkeypatch):
        a2 = gluing.GluingAtlas(1.0, 1.0)
        monkeypatch.setattr(numerics, "NEWTON_CAP", 1)
        with caplog.at_level(logging.DEBUG, logger="biconsurf.numerics"):
            xi = a2.h0_inverse(0.1)
        # the record names the height the table inverts
        assert len(caplog.records) == 1
        assert f"y={0.1 + a2._h_base!r}" in caplog.records[0].getMessage()
        assert a2.roots.xi00 < xi < a2.roots.xi02

    def test_one_inversion_per_partials_call(self, monkeypatch):
        # one call of the height table's inverse, on the distinct heights
        a2 = gluing.GluingAtlas(1.0, 1.0)
        calls = []
        inverse = a2._h_cum.inverse
        monkeypatch.setattr(a2._h_cum, "inverse", lambda y: calls.append(y) or inverse(y))
        for partials in (a2.immersion_phi_partials, a2.immersion_psi_partials):
            for h in (-0.7, 0.2, 1.3):
                calls.clear()
                partials(h, 0.4)
                assert [len(y) for y in calls] == [1]
            calls.clear()
            partials(np.array([-0.7, 0.2, 1.3, 0.2, a2.grid[1]]), 0.4)
            assert [len(y) for y in calls] == [3]


class TestGridAndPhases:
    def test_grid_closed_form(self, at):
        m1, p1 = at.h_limits
        for k in range(1, gluing.K_MAX + 1):
            assert at.grid[k] == pytest.approx(k * p1 - (k - 1) * m1, abs=1e-12)
        for k in range(-gluing.K_MAX, 0):
            assert at.grid[k] == pytest.approx(-k * m1 + (k + 1) * p1, abs=1e-12)

    def test_uniform_spacing(self, at):
        delta = at.h_limits[1] - at.h_limits[0]
        for k in range(1, gluing.K_MAX):
            assert at.grid[k + 1] - at.grid[k] == pytest.approx(delta, abs=1e-12)

    def test_phase_base(self, at):
        assert at.phase(0) == pytest.approx(at.c0, abs=1e-15)

    def test_phase_first_step(self, at):
        zm, zp = at.zeta_limits
        assert gluing.phase_distance(at.phase(1), -2.0 * zp - at.c0) < 1e-12

    def test_recursion_matches_closed_form(self, at):
        for k in range(-25, 26):
            assert gluing.phase_distance(at.phase(k), at.phase_by_recursion(k)) < 1e-12

    def test_nonzero_c0_consistency(self):
        a2 = gluing.GluingAtlas(1.0, 1.0, c0=0.7)
        for k in range(-12, 13):
            assert gluing.phase_distance(a2.phase(k), a2.phase_by_recursion(k)) < 1e-12


class TestReflectedProfile:
    def test_junction_values(self, at):
        m1, p1 = at.h_limits
        assert at.F(p1) == at.roots.xi02
        assert at.F(m1) == at.roots.xi01
        assert at.F(at.grid[2]) == at.roots.xi01
        assert at.F(at.grid[3]) == at.roots.xi02
        assert at.F(at.grid[-2]) == at.roots.xi02
        assert at.F(at.grid[-3]) == at.roots.xi01

    def test_base_point(self, at):
        assert at.F(0.0) == pytest.approx(at.roots.xi00, abs=1e-12)

    @given(h=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_periodicity(self, h):
        a = gluing.atlas(1.0, 1.0)
        assert a.F(h + a.period) == pytest.approx(a.F(h), abs=1e-12)

    def test_mirror_symmetry_across_junctions(self, at):
        for k in (1, -1, 2):
            hj = at.grid[k]
            for s in (1e-3, 0.05, 0.3):
                assert at.F(hj + s) == pytest.approx(at.F(hj - s), abs=1e-12)

    def test_unresolvable_height_rejected(self, at):
        # one ulp of h exceeds the inversion's height slack, so the reduced
        # height h - k delta would be rounding
        for h in (1e300, -1e300, 1e12):
            with pytest.raises(OutOfDomain):
                at.F(h)
            with pytest.raises(OutOfDomain):
                at.strip_of(h)

    def test_range_confinement(self, at):
        rng = np.random.default_rng(3)
        for h in rng.uniform(-5.0, 5.0, 100):
            xi = at.F(float(h))
            assert at.roots.xi01 <= xi <= at.roots.xi02


class TestJunctionSmoothness:
    @staticmethod
    def relative(at, k, phases=None):
        """The relative mismatches of Phi1 and Phi2 at orders 0..3 that the
        report reads at the junction h_{0,k}."""
        return checks._junction_mismatch(at, at.junction_jets(k, phases))[1]

    def test_orders_match(self, at):
        for k in (1, -1):
            left, right = at.junction_jets(k)
            assert left.shape == right.shape == (2, 4)
            rel = self.relative(at, k)
            assert np.all(rel[:, 1:] < 1e-3), (k, rel)

    def test_rejected_phase_branch_breaks_c1(self, at):
        assert self.relative(at, 1, (at.phase(0), at.phase(0)))[0, 1] > 1e-2
        assert self.relative(at, 1)[0, 1] < 1e-3

    @pytest.mark.parametrize("C", [1.000001 * spherical.C_MIN, 1.001 * spherical.C_MIN,
                                   1.0, 20.0, 1e3])
    def test_matches_over_the_admissible_range(self, C):
        # measured at most 1.2e-15: both sides share one set of coefficients,
        # so only the phase constants can tell them apart
        for frac in (1e-3, 0.5, 0.999):
            at = gluing.GluingAtlas(C, _cstar_at(C, frac))
            worst = max(np.max(self.relative(at, k)[:, 1:]) for k in (1, -1, 2))
            assert worst <= 1e-10, (C, frac, worst)

    def test_jets_match_stencils_on_the_evaluator(self):
        # conftest's junction_stencil_cases, measured at most 4.5e-11, 1.5e-7,
        # 2.6e-6 on orders 1..3 at C = 1 and 5.7e-9, 2.0e-6, 9.8e-5 near C_MIN.
        # At C = 20 the heights of junction 1's upper half-strip are resolved
        # to about 1e-13 of the span (ROADMAP item 5): with its steps 100
        # times shorter it reads 1.1e-10, 3.5e-4, 2.9e-3, where rounding
        # limits orders 2 and 3; junctions -1 and 2 read 7.7e-12, 1.7e-7, 4.1e-7
        for C, cstar, junctions, scale, bounds in junction_stencil_cases():
            at = gluing.GluingAtlas(C, cstar)
            for k, i, order, side, gap in junction_stencil_gaps(at, junctions, scale):
                assert gap <= bounds[order - 1], (C, k, i, order, side, gap)

    @pytest.mark.parametrize("C", [1.001 * spherical.C_MIN, 1.0, 20.0, 1e3])
    def test_jets_are_the_evaluators_at_the_root(self, C):
        # orders 0..2 on each side are `SphereFamily.point`'s jet with that
        # strip's phase, sign and rates at the root, to 4 ulps (measured 0)
        at = gluing.GluingAtlas(C, _cstar_at(C, 0.5))
        for k in (1, -1, 2):
            j = k if k > 0 else k + 1
            root = np.array([(at.roots.xi01, at.roots.xi02)[j % 2]])
            for side, strip in enumerate((j - 1, j)):
                jet = at.family.point(root, 0.0, at.zeta_limits[j % 2], at.phase(strip),
                                      -1.0 if strip % 2 else 1.0, at._rates(strip, root))
                want = np.array([jet[n][0, :2] for n in (0, 1, 3)]).T  # X, X_h, X_hh
                got = at.junction_jets(k)[side][:, :3]
                assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want))), (k, side)

    def test_no_inversion_and_no_integrand(self, monkeypatch):
        at = gluing.GluingAtlas(1.0, 1.0)
        calls = []
        inverse = at._h_cum.inverse
        monkeypatch.setattr(at._h_cum, "inverse", lambda y: calls.append(y) or inverse(y))
        for table in (at._h_cum, at.family._zeta_cum):
            for name in ("f", "left_sub", "right_sub"):
                fn = getattr(table, name)
                monkeypatch.setattr(table, name, lambda x, fn=fn: calls.append(x) or fn(x))
        for k in (1, -1, 2):
            at.junction_jets(k)
        at.junction_jets(1, phases=(at.phase(0), at.phase(0)))
        assert calls == []
        at.F(0.3)  # the counter sees an inversion
        assert len(calls) == 1

    def test_out_of_atlas(self, at):
        with pytest.raises(ValueError):
            at.junction_jets(0)
        with pytest.raises(ValueError):
            at.junction_jets(99)


class TestRevolutionSurface:
    def test_radius_range(self, at):
        rng = np.random.default_rng(5)
        lo = at.Cstar / at.roots.xi02
        hi = at.Cstar / at.roots.xi01
        for h in rng.uniform(-4.0, 4.0, 64):
            assert lo - 1e-12 <= at.radius(float(h)) <= hi + 1e-12

    def test_pullback_metric(self, at):
        patch = at.psi_patch((at.h_limits[0] - 1.0, at.grid[2]))
        for h in (-1.2, -0.3, 0.1, 0.5, 1.0):
            E, F, G = diffgeo.fundamental_forms(patch, h, 0.7)
            Ec, Gc = at.psi_metric(at.F(h))
            assert E == pytest.approx(Ec, rel=1e-6)
            assert G == pytest.approx(Gc, rel=1e-6)
            assert abs(F) < 1e-10

    def test_one_minus_K_positive(self, at):
        patch = at.psi_patch((at.h_limits[0] - 1.0, at.grid[2]))
        for h in (-1.0, 0.2, 0.9):
            d = diffgeo.shape_operator(patch, h, 0.4)
            assert 1.0 - d.K > 0.0
            assert d.K == pytest.approx(
                spherical.gauss_curvature_DC(at.F(h)), abs=1e-6)

    def test_mean_curvature_closed_form(self, at):
        patch = at.psi_patch((at.h_limits[0] - 1.0, at.grid[2]))
        for frac in np.linspace(0.1, 0.9, 16):
            xi = at.roots.xi01 + frac * (at.roots.xi02 - at.roots.xi01)
            h = at.h0(float(xi))
            d = diffgeo.shape_operator(patch, h, 0.4)
            assert d.f == pytest.approx(at.mean_curvature_psi(float(xi)), abs=1e-5)

    def test_mean_curvature_sign_flip_for_large_cstar(self):
        # near the admissibility threshold the closed form changes sign
        # along the profile; the oracle (oriented for f >= 0) matches |f|
        C = spherical.C_MIN + 0.02
        Cs = 0.5 * gluing.cstar_range(C).upper
        a2 = gluing.GluingAtlas(C, Cs)
        xi_hi = a2.roots.xi01 + 0.92 * (a2.roots.xi02 - a2.roots.xi01)
        assert a2.mean_curvature_psi(xi_hi) < 0.0
        patch = a2.psi_patch((a2.h_limits[0], a2.grid[2]))
        d = diffgeo.shape_operator(patch, a2.h0(xi_hi), 0.4)
        assert d.f == pytest.approx(abs(a2.mean_curvature_psi(xi_hi)), abs=1e-5)

    def test_mean_curvature_depends_on_cstar(self):
        a1 = gluing.atlas(1.0, 1.0)
        a2 = gluing.GluingAtlas(1.0, 0.5)
        xi = 3.0
        assert abs(a1.mean_curvature_psi(xi) - a2.mean_curvature_psi(xi)) > 1e-3

    def test_denominator_positive_on_strip(self, at):
        for frac in np.linspace(0.001, 0.999, 33):
            xi = at.roots.xi01 + frac * (at.roots.xi02 - at.roots.xi01)
            rad = 9 * xi * xi - 3 * at.Cstar ** 2 * float(spherical.T(1.0, xi))
            assert rad > 0.0

    def test_not_biconservative(self, at):
        # the revolution surface satisfies the closed-form mean curvature,
        # not the eigenvector identity: its residual stays O(1)
        patch = at.psi_patch((at.h_limits[0], at.h_limits[1]))
        for h in (-0.5, 0.1, 0.3):
            assert residual(patch, h, 0.4) > 1e-2


class TestGluedImmersion:
    def test_unit_norm_random(self, at):
        rng = np.random.default_rng(11)
        h, th = np.array([(rng.uniform(-4.0, 4.0), rng.uniform(0.0, 2 * math.pi))
                          for _ in range(200)]).T
        assert np.max(np.abs(np.linalg.norm(at.immersion_phi(h, th), axis=1) - 1.0)) < 1e-10

    def test_junction_continuity(self, at):
        # offsets this close to a junction sit at the sqrt(eps)
        # representation limit of the profile inverse (~1e-8)
        eps = 1e-10
        for k in (1, -1, 2, -2):
            hj = at.grid[k]
            a = at.immersion_phi(hj - eps, 0.4)
            b = at.immersion_phi(hj + eps, 0.4)
            c = at.immersion_phi(hj, 0.4)
            assert np.max(np.abs(a - b)) < 1e-7
            assert np.max(np.abs(a - c)) < 1e-7

    def test_base_strip_matches_local_immersion(self, at):
        # on the base strip with c0 = 0 the glued map is the strip immersion
        fam = spherical.family(1.0)
        h, th = 0.15, 0.6
        xi = at.F(h)
        assert at.immersion_phi(h, th) == pytest.approx(fam.immersion(xi, th), abs=1e-11)

    def test_base_point_components(self, at):
        p1, p2, p3 = at.immersion_phi(0.0, 0.0)[:3]
        xi00 = at.roots.xi00
        assert p1 == pytest.approx(math.sqrt(1.0 - 1.0 / xi00 ** 2), rel=1e-12)
        assert p2 == pytest.approx(0.0, abs=1e-12)
        assert p3 == pytest.approx(1.0 / xi00, rel=1e-12)

    def test_rotational_components_are_periodic(self, at):
        for h in (-0.9, 0.2, 1.1):
            a = at.immersion_phi(h, 0.0)[:3]
            b = at.immersion_phi(h + at.period, 0.0)[:3]
            assert a[2] == pytest.approx(b[2], abs=1e-12)

    def test_pullback_metric_multi_strip(self, at):
        patch = at.phi_patch((at.h_limits[0] - 1.0, at.grid[2]))
        for h in (-1.3, -0.4, 0.2, 0.55, 1.2, 1.9):
            E, F, G = diffgeo.fundamental_forms(patch, h, 0.4)
            Ec, Gc = at.psi_metric(at.F(h))
            assert E == pytest.approx(Ec, rel=1e-6)
            assert G == pytest.approx(Gc, rel=1e-6)

    def test_biconservative_across_strips(self, at):
        patch = at.phi_patch((at.h_limits[0] - 1.0, at.grid[2]))
        for h in (-0.6, 0.2, 0.9, 1.4):
            assert residual(patch, h, 0.3) < 1e-4

    def test_partials_validate(self, at):
        patch = at.phi_patch((0.05, 0.3))
        rep = validate_patch(patch, at.immersion_phi)
        assert rep["ok"]


# (C, C*): C = C* = 1, and the verify-sweep edges with C* at 50% and 1% of its range
C_EDGE = 1.001 * spherical.C_MIN
JUNCTION_ATLASES = [(1.0, 1.0), (C_EDGE, 0.5 * gluing.cstar_range(C_EDGE).upper),
                    (20.0, 0.01 * gluing.cstar_range(20.0).upper)]


class TestJunctionPartials:
    """At a junction F sits on a root of T, and the closed-form h-rates
    take their T = 0 values: dF/dh = 0 and dzeta/dh = +-D with
    D = sqrt(C) xi^{7/3} / (sqrt(3) (C xi^2 - 1))."""

    @pytest.fixture(scope="class", params=JUNCTION_ATLASES, ids=["C1", "Cmin", "C20"])
    def jat(self, request):
        return gluing.atlas(*request.param)

    @pytest.mark.parametrize("k", [-3, -2, -1, 1, 2, 3])
    def test_phi_tangent_is_the_junction_limit(self, jat, k):
        h = jat.grid[k]
        xi = jat.F(h)
        p1, p2, _ = jat.immersion_phi(h, 0.0)[:3]
        d = math.sqrt(jat.C) * xi ** (7.0 / 3.0) / (math.sqrt(3.0) * (jat.C * xi * xi - 1.0))
        _, d_h, d_theta = jat.immersion_phi_partials(h, 0.3)[:3]
        assert np.all(np.isfinite(d_h)) and np.all(np.isfinite(d_theta))
        # (R cos, s R sin)' = s D (-R sin, s R cos) = D (-Phi2, Phi1) on either strip
        limit = d * np.array([-p2, p1, 0.0, 0.0])
        assert np.linalg.norm(d_h - limit) <= 1e-14 * np.linalg.norm(limit)

    @pytest.mark.parametrize("k", [-3, -2, -1, 1, 2, 3])
    def test_psi_radius_rate_vanishes(self, jat, k):
        d_h = jat.immersion_psi_partials(jat.grid[k], 0.3)[1]
        assert d_h[0] == 0.0 and d_h[1] == 0.0 and d_h[2] == 1.0

    def test_psi_partials_read_no_turning_angle(self, jat, monkeypatch):
        # Psi = (C*/F cos, C*/F sin, h) needs dF/dh alone, not g_zeta
        def unread(*args):
            raise AssertionError("g_zeta evaluated for Psi")
        monkeypatch.setattr(jat.family, "_zeta_g", unread)
        hs = np.array([jat.grid[-2], 0.0, 0.5 * jat.grid[1], jat.grid[1], jat.grid[3]])
        d_h = jat.immersion_psi_partials(hs, 0.3)[1]
        assert np.all(np.isfinite(d_h))

    # at C = 20 the steps of the jets' own length scale matter: 1e-4 of
    # the patch width put the first partials 2.05e-6 off fourth-order
    # differences of the positions on this correct patch
    @pytest.mark.parametrize("C, Cstar", JUNCTION_ATLASES, ids=["C1", "Cmin", "C20"])
    def test_partials_validate_across_a_junction(self, C, Cstar):
        jat = gluing.atlas(C, Cstar)
        m1, p1 = jat.h_limits
        pad = 0.2 * (p1 - m1)
        patch = jat.phi_patch((p1 - pad, p1 + pad))
        # the middle row of the 5 x 5 sample sits on h_{0,1}
        assert jat.F(patch.grid(5, 5, margin=5e-2)[0][2]) == jat.roots.xi02
        assert validate_patch(patch, jat.immersion_phi)["ok"]

    def test_one_call_is_the_calls_one_height_at_a_time(self, jat):
        # strips -3 to 3 with every junction between and around them: the
        # rates' odd-strip sign and their junction limits, entry by entry.
        # One height is a one-entry array: a float call runs numpy's scalar
        # power, which differs from its array power in the last bits
        hs = np.concatenate([np.linspace(jat.grid[-4], jat.grid[4], 57),
                             [jat.grid[k] for k in range(-4, 5) if k]])
        assert set(range(-3, 4)) <= set(jat.strip_of(hs).tolist())
        theta = np.linspace(0.0, 1.0, len(hs))
        for partials in (jat.immersion_phi_partials, jat.immersion_psi_partials):
            at_once = partials(hs, theta)
            one_by_one = [partials(hs[i:i + 1], theta[i:i + 1]) for i in range(len(hs))]
            for i, tangents in enumerate(at_once):
                assert tangents.tobytes() == np.concatenate([p[i] for p in one_by_one]).tobytes()

    def test_negative_height_radicand_is_out_of_domain(self):
        # with C* a hair below its upper end, 3 xi^2 - C*^2 T dips to -3.4e-11
        # of 3 xi^2 near xi00, where the height table's integrand is clamped to
        # 0: T from the roots' product is that far off near the double root
        C = 0.7698012
        nat = gluing.GluingAtlas(C, (1.0 - 1e-15) * gluing.cstar_range(C).upper)
        h = nat.h0(2.2795070569365254)
        for partials in (nat.immersion_phi_partials, nat.immersion_psi_partials):
            with pytest.raises(OutOfDomain, match=r"^C xi\^2 <= 1 or 3 xi\^2 <= C\*\^2 T at xi = 2\.27"):
                partials(np.array([0.1, h]), 0.0)


class TestOracleWork:
    """Deterministic work of the batched oracle on the glued immersion: a
    residual sample's 25 partials points have 9 distinct heights, and each
    distinct height inverts h0 once, in one table call.  The 5 normals read
    their positions from that call, where they took a second table call
    for 3 heights before the evaluator returned its positions."""

    @pytest.mark.parametrize("h", [-0.6, 0.2, 0.9, 1.4])
    def test_residual_sample_inverts_at_most_12_heights(self, at, monkeypatch, h):
        # the lengths that size the stencils are read before the count
        patch = at.phi_patch((at.h_limits[0] - 1.0, at.grid[2]))
        hs = np.full(3, h) + [0.0, 1e-3, 2e-3]
        one, three = jet_lengths_at(patch, h, 0.3), jet_lengths_at(patch, hs, 0.3)
        calls = []
        inverse = numerics.CumulativeQuadrature.inverse
        monkeypatch.setattr(numerics.CumulativeQuadrature, "inverse",
                            lambda self, y: calls.append(len(y)) or inverse(self, y))
        diffgeo.biconservativity_residual(patch, h, 0.3, one)
        assert len(calls) == 1 and 0 < sum(calls) <= 9
        calls.clear()
        diffgeo.biconservativity_residual(patch, hs, np.full(3, 0.3), three)
        assert len(calls) == 1 and sum(calls) <= 27


class TestPeriodicityProbe:
    """Phi repeats with the profile iff twice the total turning angle is a
    whole turn; at C = C* = 1 it is not."""

    @staticmethod
    def period_gap(at):
        """|Phi(h + P, 0.3) - Phi(h, 0.3)| per component over 17 heights
        inside the base strip."""
        m1, p1 = at.h_limits
        hs = np.linspace(m1 + 0.05 * (p1 - m1), p1 - 0.05 * (p1 - m1), 17)
        return np.abs(at.immersion_phi(hs + at.period, 0.3) - at.immersion_phi(hs, 0.3))

    def test_reports_phase_defect(self, at):
        report, _ = checks.build_report("s3-complete", 1.0, 1.0)
        defect = report["checks"]["periodicity_phase_defect"]["value"]
        # 2(zeta_{0,1} - zeta_{0,-1}) = 4.2375241939... at C = C* = 1;
        # its circle distance to a full turn is 2pi - that
        assert defect == pytest.approx(2.0 * math.pi - 4.2375241939, abs=1e-6)
        assert np.max(self.period_gap(at)[:, 2:]) < 1e-10

    def test_component_mismatch_consistent_with_defect(self, at):
        # a nonzero angle defect forces visible first-component mismatch
        assert np.max(self.period_gap(at)[:, 0]) > 0.1
