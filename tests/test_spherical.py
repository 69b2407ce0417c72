"""Sphere-ambient family: strip roots, metric, turning-angle quadrature,
immersion, the curvature equation, and the coordinate bridge."""

import dataclasses
import logging
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biconsurf import diffgeo, euclidean, numerics, spherical
from biconsurf.numerics import DegenerateDomain, OutOfDomain, StepUnderflow
from conftest import (REFERENCE_LOGGER, curvature_f, curvature_L, phi_coordinate_bridge,
                      reference_build, reference_second_order, refined_singular_integral,
                      residual, validate_patch)


class TestRoots:
    def test_against_bisection_oracle(self, oracle_roots_C1):
        r = spherical.domain_roots(1.0)
        assert r.xi01 == pytest.approx(oracle_roots_C1[0], abs=1e-12)
        assert r.xi02 == pytest.approx(oracle_roots_C1[1], abs=1e-12)
        assert r.xi00 == 3.375

    def test_midpoint_value_exact_fraction(self):
        # T((9/4)^{3/2}) = 3^8/2^8 - ... = 2187/256 - 3 for C = 1
        assert float(spherical.T(1.0, 3.375)) == pytest.approx(
            2187.0 / 256.0 - 3.0, rel=1e-15)

    def test_ordering_and_radius_bound_sweep(self):
        for C in (0.8, 1.0, 2.0, 5.0):
            r = spherical.domain_roots(C)
            assert abs(float(spherical.T(C, r.xi01))) < 1e-10
            assert abs(float(spherical.T(C, r.xi02))) < 1e-10
            assert r.xi01 < (2.25 * C) ** 1.5 < r.xi02
            assert r.xi01 > C ** -0.5

    def test_degenerate_threshold_rejected(self):
        with pytest.raises(DegenerateDomain):
            spherical.domain_roots(spherical.C_MIN)
        with pytest.raises(DegenerateDomain):
            spherical.domain_roots(spherical.C_MIN - 1e-6)

    def test_double_root_identity(self):
        # at the threshold, C^4 = 256/729 makes the midpoint a double root
        assert spherical.C_MIN ** 4 == pytest.approx(256.0 / 729.0, rel=1e-15)

    @given(C=st.floats(4.0 / 3.0 ** 1.5 + 0.01, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_roots_property_sweep(self, C):
        r = spherical.domain_roots(C)
        scale = max(1.0, 3.0 * C * r.xi02 ** 2)
        assert abs(float(spherical.T(C, r.xi01))) < 1e-10 * scale
        assert abs(float(spherical.T(C, r.xi02))) < 1e-10 * scale
        assert r.xi01 < r.xi00 < r.xi02

    def test_within_a_few_ulps_of_mpmath(self):
        # measured at most 3.9 ulps; before the Newton polish the bracket's
        # absolute width left up to 1,488 ulps (xi01 at C = 2.3e4).  At
        # C_MIN the roots merge into a double root, which limits accuracy
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for C in np.geomspace(1.001 * spherical.C_MIN, 1e6, 120).tolist():
                c = mpmath.mpf(C)
                P = lambda a: a ** 6 * (3 * c - a * a) - 3
                r = spherical.domain_roots(C)
                for xi in (r.xi01, r.xi02):
                    exact = mpmath.findroot(P, mpmath.cbrt(xi)) ** 3
                    ulps = float(abs(xi - exact)) / math.ulp(float(exact))
                    assert ulps <= 6.0, (C, xi, ulps)

    def test_k_root_correspondence(self):
        r = spherical.domain_roots(1.0)
        C1 = spherical.FamilyParamsS3(1.0).C1
        assert abs(curvature_L(C1, r.k01)) < 1e-10
        assert abs(curvature_L(C1, r.k02)) < 1e-10


def exact_T(mpmath, C, tau):
    x = mpmath.mpf(tau)
    return -x ** (mpmath.mpf(8) / 3) + 3 * mpmath.mpf(C) * x * x - 3


class TestTNearRoots:
    """`DomainRoots.T`, the factored T that the strip quadratures use."""

    @pytest.mark.parametrize("C", [0.8, 1.0, 3.0, 20.0, 100.0])
    def test_against_mpmath(self, C):
        # distances of 0.1 to 1.5 times 1e-4 of the strip width, on both
        # sides of both roots (but not below tau = 0): at C = 20 and 100 that
        # width reaches a fifth of xi01 and beyond, out of the range of any
        # low-order expansion about the root
        mpmath = pytest.importorskip("mpmath")
        r = spherical.domain_roots(C)
        width = 1e-4 * (r.xi02 - r.xi01)
        worst = 0.0
        with mpmath.workdps(50):
            for root in (r.xi01, r.xi02):
                for frac in np.linspace(0.1, 1.5, 15):
                    for side in (1.0, -1.0):
                        tau = root + side * frac * width
                        if tau <= 0.0:
                            continue
                        exact = exact_T(mpmath, C, tau)
                        worst = max(worst, float(abs((r.T(tau) - exact) / exact)))
        assert worst <= 1e-9

    @pytest.mark.parametrize("C", [0.8, 1.0, 3.0, 20.0, 100.0])
    def test_whole_strip_against_mpmath(self, C):
        # no window: one formula from end to end of the open strip
        mpmath = pytest.importorskip("mpmath")
        r = spherical.domain_roots(C)
        taus = np.linspace(r.xi01, r.xi02, 202)[1:-1]
        worst = 0.0
        with mpmath.workdps(50):
            for tau, got in zip(taus.tolist(), r.T(taus).tolist()):
                exact = exact_T(mpmath, C, tau)
                worst = max(worst, float(abs((got - exact) / exact)))
        assert worst <= 1e-11

    @pytest.mark.parametrize("C", [0.8, 1.0, 3.0, 20.0, 100.0])
    def test_scalar_matches_array(self, C):
        # floats and arrays run the same arithmetic; Python's pow and numpy's
        # may round tau^{1/3} apart by an ulp, which T carries twice, on top
        # of a dozen roundings
        r = spherical.domain_roots(C)
        width = r.xi02 - r.xi01
        offsets = width * np.geomspace(1e-15, 0.5, 40)
        taus = np.concatenate([r.xi01 + offsets, r.xi02 - offsets, [r.xi00]])
        for tau, ref in zip(taus.tolist(), r.T(taus).tolist()):
            got = r.T(tau)
            assert isinstance(got, float)
            assert got > 0.0
            assert abs(got - ref) <= 16.0 * np.finfo(float).eps * ref


class TestMetric:
    def test_closed_form_coefficients(self):
        E, G = spherical.metric_gC(1.0, 3.375)
        t = 2187.0 / 256.0 - 3.0
        assert E == pytest.approx(3.0 / (3.375 ** 2 * t), rel=1e-14)
        assert G == pytest.approx(1.0 / 3.375 ** 2, rel=1e-15)

    def test_blows_up_at_inner_root(self):
        r = spherical.domain_roots(1.0)
        E, _ = spherical.metric_gC(1.0, r.xi01 + 1e-9)
        assert E > 1e6

    def test_out_of_domain(self):
        r = spherical.domain_roots(1.0)
        with pytest.raises(OutOfDomain):
            spherical.metric_gC(1.0, r.xi01 - 0.1)


class TestGaussCurvature:
    def test_vanishing_point(self):
        assert spherical.gauss_curvature_DC(9.0 ** 0.375) == pytest.approx(0.0, abs=1e-14)

    def test_derivative_sign(self):
        h = 1e-6
        for xi in (2.0, 3.375, 4.5):
            fd = (spherical.gauss_curvature_DC(xi + h)
                  - spherical.gauss_curvature_DC(xi - h)) / (2 * h)
            assert fd == pytest.approx(-(8.0 / 27.0) * xi ** (5.0 / 3.0), rel=1e-8)
            assert fd < 0.0

    def test_brioschi_matches_and_c_independent(self):
        for C in (0.8, 1.0, 2.0):
            r = spherical.domain_roots(C)
            for frac in (0.3, 0.6):
                xi = r.xi01 + frac * (r.xi02 - r.xi01)
                k = diffgeo.gauss_curvature_from_metric(
                    lambda x: spherical.metric_gC(C, x)[0],
                    lambda x: 1.0 / (x * x), xi,
                    scale=r.xi02 - r.xi01, dG=lambda x: -2.0 / x ** 3)
                assert k == pytest.approx(spherical.gauss_curvature_DC(xi), abs=1e-6)

    def test_grad_K_vanishes_at_ends(self):
        # |grad K| = sqrt(1/E) |K'| with K' = -(8/27) xi^{5/3}, which goes like
        # sqrt(distance to the root): it tends to 0 at both ends
        def grad_k_norm(xi):
            return math.sqrt(xi * xi * float(spherical.T(1.0, xi)) / 3.0) * (8.0 / 27.0) \
                * xi ** (5.0 / 3.0)
        r = spherical.domain_roots(1.0)
        assert grad_k_norm(3.0) > 1e-2
        for root, sgn in ((r.xi01, +1.0), (r.xi02, -1.0)):
            vals = [grad_k_norm(root + sgn * d) for d in (1e-4, 1e-8, 1e-12)]
            assert vals[0] > vals[1] > vals[2]
            assert vals[2] < 1e-4


class TestZeta:
    def test_base_point(self):
        fam = spherical.family(1.0)
        assert fam.zeta0(3.375) == 0.0

    def test_limits_vs_midpoint_oracle(self):
        fam = spherical.family(1.0)
        r = fam.roots

        def g(t):
            return t ** (4.0 / 3.0) / ((t * t - 1.0) * math.sqrt(float(spherical.T(1.0, t))))

        left, le = refined_singular_integral(g, r.xi01, 3.375, True, False)
        right, re_ = refined_singular_integral(g, 3.375, r.xi02, False, True)
        zm, zp = fam.zeta_limits
        assert zm == pytest.approx(-left, abs=1e-8 + 10 * le)
        assert zp == pytest.approx(right, abs=1e-8 + 10 * re_)
        # frozen values from the oracle run
        assert zm == pytest.approx(-1.7268637987530306, abs=1e-7)
        assert zp == pytest.approx(0.3918982982231469, abs=1e-7)

    def test_limits_near_threshold_against_mpmath(self):
        # at C = 1.001 C_MIN the strip is narrow and both ends steep; the
        # 50-digit reference integrates between its own 50-digit roots
        mpmath = pytest.importorskip("mpmath")
        C = 1.001 * spherical.C_MIN
        fam = spherical.SphereFamily(C)
        r = fam.roots
        with mpmath.workdps(50):
            c = mpmath.mpf(C)
            T = lambda x: exact_T(mpmath, C, x)
            lo, hi = mpmath.findroot(T, r.xi01), mpmath.findroot(T, r.xi02)
            mid = (9 * c / 4) ** mpmath.mpf(1.5)
            g = lambda x: mpmath.sqrt(c) * x ** (mpmath.mpf(4) / 3) / ((c * x * x - 1)
                                                                      * mpmath.sqrt(T(x)))
            exact = (-mpmath.quad(g, [lo, mid]), mpmath.quad(g, [mid, hi]))
        for got, ref in zip(fam.zeta_limits, exact):
            assert abs(got - float(ref)) <= 2e-13

    def test_monotone(self):
        fam = spherical.family(1.0)
        r = fam.roots
        xs = np.linspace(r.xi01 + 1e-6, r.xi02 - 1e-6, 40)
        vals = [fam.zeta0(float(x)) for x in xs]
        assert np.all(np.diff(vals) > 0.0)

    def test_integrand_positive_on_strip(self):
        # C xi^2 > 1 holds on the whole strip since xi01 > C^{-1/2}
        for C in (0.8, 1.0, 3.0):
            r = spherical.domain_roots(C)
            assert C * r.xi01 ** 2 > 1.0

    def test_out_of_domain(self):
        fam = spherical.family(1.0)
        with pytest.raises(OutOfDomain):
            fam.zeta0(fam.roots.xi02 + 0.1)

    @pytest.mark.parametrize("C, logged", [(1.0, False), (300.0, True), (1e3, True)])
    def test_unconverged_panels_are_logged(self, C, logged, caplog):
        # the lower end cell's integrand has a pole 7.3e-4 from s = 0 at
        # C = 1e3, and bisection stops at the depth limit there (2 records
        # measured, 1 at C = 300; none at any C <= 100).  The build goes
        # level by level, so only the order may differ from the
        # panel-by-panel reference's records.  The table is built on first use
        with caplog.at_level(logging.DEBUG, logger="biconsurf.numerics"):
            fam = spherical.SphereFamily(C)
            fam._zeta_cum
        records = [r for r in caplog.records if r.name == "biconsurf.numerics"]
        assert bool(records) == logged
        assert all("unconverged" in r.getMessage() for r in records)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger=REFERENCE_LOGGER):
            reference_build(fam._zeta_cum)
        expected = [r for r in caplog.records if r.name == REFERENCE_LOGGER]

        def panels(recs):
            return Counter((r.msg, *map(float, r.args)) for r in recs)
        assert panels(records) == panels(expected)


class TestImmersion:
    def test_open_strip_guard(self):
        # one open-strip check, DomainRoots.contains, for floats and arrays;
        # the immersion and zeta0' keep their errors
        fam = spherical.family(1.0)
        r = fam.roots
        xs = np.array([r.xi01, np.nextafter(r.xi01, np.inf), r.xi00,
                       np.nextafter(r.xi02, 0.0), r.xi02, np.nan])
        inside = [False, True, True, True, False, False]
        assert r.contains(xs).tolist() == inside
        assert [bool(r.contains(x)) for x in xs.tolist()] == inside
        message = f"xi = {r.xi02!r} outside the open strip"
        with pytest.raises(OutOfDomain, match=f"^{re.escape(message)}$"):
            fam.immersion(xs[1:], 0.0)
        for x in (r.xi01, r.xi02, math.nan):
            message = f"xi = {x!r} at or outside the strip ends"
            with pytest.raises(OutOfDomain, match=f"^{re.escape(message)}$"):
                fam.zeta0_deriv(x)

    def test_unit_norm_random(self):
        fam = spherical.family(1.0)
        r = fam.roots
        rng = np.random.default_rng(7)
        for _ in range(200):
            xi = rng.uniform(r.xi01 * 1.0001, r.xi02 * 0.9999)
            th = rng.uniform(-10.0, 10.0)
            assert abs(np.linalg.norm(fam.immersion(xi, th)) - 1.0) < 1e-12

    def test_pullback_metric(self):
        fam = spherical.family(1.0)
        patch = fam.patch()
        xis, _ = patch.grid(12, 4)
        for xi in xis:
            E, F, G = diffgeo.fundamental_forms(patch, float(xi), 0.3)
            Ec, Gc = spherical.metric_gC(1.0, float(xi))
            assert E == pytest.approx(Ec, rel=1e-8)
            assert abs(F) < 1e-10 / Gc
            assert G == pytest.approx(Gc, rel=1e-8)

    def test_gauss_curvature_identity(self):
        fam = spherical.family(1.0)
        patch = fam.patch()
        for xi in (1.7, 2.8, 4.2):
            d = diffgeo.shape_operator(patch, xi, 0.4)
            assert d.K == pytest.approx(spherical.gauss_curvature_DC(xi), abs=1e-6)

    def test_biconservative_grid(self):
        fam = spherical.family(1.0)
        patch = fam.patch()
        xis, ths = patch.grid(8, 3, margin=1e-3)
        worst = max(residual(patch, float(x), float(t))
                    for x in xis for t in ths)
        assert worst < 1e-4

    @pytest.mark.parametrize("C", [1.00000001 * spherical.C_MIN, 1.0, 1e3, 1e6])
    def test_residual_stencil_at_the_strip_ends(self, C):
        # residual samples at the patch's ends, 1e-3 of the strip width from
        # each root, sized as the report sizes them: every point of the
        # curvature stencil inside the open strip, each xi-step at most 1%
        # of the distance to the nearer root, where the partials blow up
        fam = spherical.family(C)
        patch, roots = fam.patch(), fam.roots
        xi, theta = np.array(patch.u_range), np.array([0.2, 0.5])
        lengths = diffgeo.jet_lengths(fam.unturned_jet(xi, theta))
        step = diffgeo.jet_steps("curvature", patch, lengths)[0]
        assert np.all(step <= 0.01 * np.minimum(xi - roots.xi01, roots.xi02 - xi))
        seen = []
        evaluate = patch.jet
        recorded = dataclasses.replace(patch, jet=lambda u, v: seen.append(u) or evaluate(u, v))
        res, _ = diffgeo.biconservativity_residual(recorded, xi, theta, lengths)
        assert len(seen) == 1 and np.all(roots.contains(seen[0]))
        assert np.all(np.isfinite(res))

    def test_partials_validate(self):
        fam = spherical.family(1.0)
        rep = validate_patch(fam.patch(), fam.immersion)
        assert rep["ok"]

    def test_out_of_domain(self):
        fam = spherical.family(1.0)
        with pytest.raises(OutOfDomain):
            fam.immersion(fam.roots.xi02 + 0.01, 0.0)


class TestCurvatureOde:
    """The profile-curvature equation k'' = f(k) along the meridian: in
    closed form on the strip, as the report checks it, and as one half
    period from k01 at rest up to its turn, integrated by the reference
    stepper or by `numerics.solve_ode`, which the report no longer runs."""

    @staticmethod
    def half_period(C, solve=reference_second_order, **kw):
        r = spherical.domain_roots(C)
        return solve(curvature_f(spherical.FamilyParamsS3(C).C1), r.k01, 0.0, 100.0, 1e-3, **kw)

    @staticmethod
    def closed_form_gap(C, sol):
        """Per state of a run, |k'^2 - (16/27) k^2 T| at the xi of its k,
        relative to the sum of P's terms: the run's drift off P = 0."""
        r = spherical.domain_roots(C)
        C1 = spherical.FamilyParamsS3(C).C1
        _, k, kp, _ = np.reshape(sol.states, (-1, 4)).T
        _, kp2, _ = spherical.meridian_curvature(
            C, r, np.clip((3.0 ** 1.5 * k) ** 0.75, r.xi01, r.xi02))
        return np.abs(kp * kp - kp2) / (kp * kp + 16.0 / 9.0 * k * k + 16.0 * k ** 4
                                        + C1 * k ** 3.5)

    def test_prime_integral_drift(self):
        # both forms read roundoff at 1,999 points across the strip
        r = spherical.domain_roots(1.0)
        C1 = spherical.FamilyParamsS3(1.0).C1
        k, kp2, kpp = spherical.meridian_curvature(1.0, r, np.linspace(r.xi01, r.xi02, 2001)[1:-1])
        assert np.max(spherical.prime_integral_residual(C1, k, kp2)) < 1e-15
        assert np.max(spherical.curvature_equation_residual(C1, k, kpp)) < 1e-15

    @pytest.mark.parametrize("C, accepted", [(1.001 * spherical.C_MIN, 43), (1.0, 123),
                                             (20.0, 456)])
    def test_step_controller_is_pinned(self, C, accepted):
        # accepted states of solve_ode's half period, the start included: a
        # change to the step controller or the tableau shows here first
        assert len(self.half_period(C, numerics.solve_ode)) == accepted

    @pytest.mark.parametrize("C", [1.001 * spherical.C_MIN, 1.0, 20.0, 50.0, 1e3, 1e5])
    def test_matches_the_reference_stepper(self, C):
        # solve_ode's run is the reference's, and both keep to the closed
        # form: at each state k'^2 is (16/27) k^2 T at the xi of its k, to
        # 2.8e-7 of P's terms at 1e5 (stepper error), and the turn lands on
        # k02; 1e5 is the largest C of the failure map whose half period
        # completes
        got, want = self.half_period(C, numerics.solve_ode), self.half_period(C)
        assert (got.states, got.turn) == (want.states, want.turn)
        assert np.max(self.closed_form_gap(C, want)) < 1e-6
        k02 = spherical.domain_roots(C).k02
        assert abs(want.turn[1] - k02) / k02 < 1e-6

    def test_half_period_takes_the_meridian_length(self):
        # k is half the mean curvature, so t is the meridian's arclength,
        # the integral of sqrt(3/T)/xi over the strip
        assert self.half_period(1.0).turn[0] == pytest.approx(1.85540023, abs=1e-8)

    def test_step_underflow_matches_the_reference(self):
        # at C = 1e6 the step collapses just short of the turn, at the
        # reference's t, while the closed form reads roundoff there
        messages = []
        for solve in (numerics.solve_ode, reference_second_order):
            with pytest.raises(StepUnderflow) as caught:
                self.half_period(1e6, solve)
            messages.append(str(caught.value))
        assert messages == ["step collapsed at t=1.570796244804733"] * 2
        r = spherical.domain_roots(1e6)
        C1 = spherical.FamilyParamsS3(1e6).C1
        k, kp2, kpp = spherical.meridian_curvature(1e6, r, np.linspace(r.xi01, r.xi02, 101))
        assert np.max(spherical.prime_integral_residual(C1, k, kp2)) < 1e-14
        assert np.max(spherical.curvature_equation_residual(C1, k, kpp)) < 1e-14

    def test_drift_shrinks_with_tolerance(self):
        # the run's gap to the closed form is the stepper's error
        drift = {tol: np.max(self.closed_form_gap(1.0, self.half_period(1.0, tol=tol)))
                 for tol in (1e-8, 5e-11)}
        assert drift[5e-11] < drift[1e-8]

    def test_confined_to_root_interval(self):
        r = spherical.domain_roots(1.0)
        ks = np.reshape(self.half_period(1.0).states, (-1, 4))[:, 1]
        assert ks[0] == r.k01
        assert np.all((r.k01 - 1e-6 <= ks) & (ks <= r.k02 + 1e-6))

    def test_turning_points_sit_on_L_zeros(self):
        # the closed form is at rest on P = 0 at both roots, and the run
        # that starts at rest on one turns on the other
        C1 = spherical.FamilyParamsS3(1.0).C1
        r = spherical.domain_roots(1.0)
        assert np.max(spherical.prime_integral_residual(C1, np.array([r.k01, r.k02]), 0.0)) < 1e-15
        _, k, kp, _ = self.half_period(1.0).turn
        assert abs(kp) < 1e-6
        assert abs(k - r.k02) < 1e-6
        assert abs(curvature_L(C1, k)) < 1e-6

    def test_large_C_trial_stage_past_zero_is_quiet(self):
        # started downward from k01 at C = 50, trial stages cross k = 0;
        # f gives NaN there, and the suite turns the RuntimeWarning of
        # k ** 2.5 into an error, so the step halves quietly until it collapses
        r = spherical.domain_roots(50.0)
        with pytest.raises(StepUnderflow):
            numerics.solve_ode(curvature_f(spherical.FamilyParamsS3(50.0).C1), r.k01, -1.0,
                               100.0, 1e-3)


class TestCoordinateBridge:
    def test_induced_constant(self):
        u, C = phi_coordinate_bridge(2.0, -1.0, -0.9)
        assert C == pytest.approx(2.0, rel=1e-14)

    def test_base_point_maps_to_midpoint(self):
        r = spherical.domain_roots(2.0)
        phi0 = math.log(1.0 / r.xi00)
        u, _ = phi_coordinate_bridge(2.0, -1.0, phi0)
        assert u == 0.0

    def test_rejects_nonpositive_radicand(self):
        with pytest.raises(OutOfDomain):
            phi_coordinate_bridge(2.0, -1.0, 5.0)
        with pytest.raises(OutOfDomain):
            phi_coordinate_bridge(-1.0, -1.0, 0.0)

    def test_metric_match(self):
        r = spherical.domain_roots(2.0)
        phis = np.log(1.0 / np.linspace(r.xi00 * 0.75, r.xi00 * 1.25, 9))
        mismatch = spherical.bridge_metric_match(2.0, -1.0, phis)
        assert mismatch.shape == phis.shape
        assert np.max(mismatch) < 1e-6

    # u at fractions of the admissible phi band, frozen from an adaptive
    # quadrature of 1/sqrt(radicand) in phi (QUADPACK); mpmath agrees with
    # the (20, -1) value at 0.99 to all 17 digits
    FROZEN = [
        ((2.0, -1.0), 0.5, 1.1406767663751811),
        ((2.0, -1.0), 0.0001, -1.1368171667451035),
        ((2.0, -1.0), 1e-06, -1.1637440938291277),
        ((2.0, -1.0), 0.99, 2.7095806766950856),
        ((2.0, -1.0), 0.9999, 2.8820322555849884),
        ((2.0, -1.0), 0.999999, 2.899177281376118),
        ((1.0, -1.0), 0.5, 0.6722766991782682),
        ((1.0, -1.0), 0.0001, -1.6559365086060625),
        ((1.0, -1.0), 1e-06, -1.6838508418010856),
        ((1.0, -1.0), 0.99, 2.4259587893920695),
        ((1.0, -1.0), 0.9999, 2.639937024290036),
        ((1.0, -1.0), 0.999999, 2.661263346379086),
        ((20.0, -1.0), 0.5, 0.9367287811843421),
        ((20.0, -1.0), 0.0001, -0.3533494779531377),
        ((20.0, -1.0), 1e-06, -0.36697224054820493),
        ((20.0, -1.0), 0.99, 1.8700971269753948),
        ((20.0, -1.0), 0.9999, 1.9501920613696275),
        ((20.0, -1.0), 0.999999, 1.9580903711789432),
        ((3.0, -2.0), 0.5, 0.8477793174142063),
        ((3.0, -2.0), 0.0001, -0.929889725078223),
        ((3.0, -2.0), 1e-06, -0.9510019074588137),
        ((3.0, -2.0), 0.99, 2.080103183085783),
        ((3.0, -2.0), 0.9999, 2.2176707717806763),
        ((3.0, -2.0), 0.999999, 2.2313530863436557),
    ]

    @pytest.mark.parametrize("ab, frac, expected", FROZEN)
    def test_band_fractions_match_frozen_values(self, ab, frac, expected):
        a, b = ab
        r = spherical.domain_roots(a * (-b) ** -0.75)
        lo, hi = (math.log((-b) ** 0.375 / x) for x in (r.xi02, r.xi01))
        u, _ = phi_coordinate_bridge(a, b, lo + frac * (hi - lo))
        assert u == pytest.approx(expected, rel=1e-9)

    def test_sign_convention(self):
        # u increases as phi moves up from the base point (plus branch)
        r = spherical.domain_roots(2.0)
        phi0 = math.log(1.0 / r.xi00)
        u_hi, _ = phi_coordinate_bridge(2.0, -1.0, phi0 + 0.1)
        u_lo, _ = phi_coordinate_bridge(2.0, -1.0, phi0 - 0.1)
        assert u_hi > 0.0 > u_lo


class TestProfileEquation:
    # the flat case c = 0 is solved by the R^3 family's exponent,
    # 1/2 log C + 3 log cosh u
    flat = staticmethod(euclidean.metric_profile_derivs(euclidean.FamilyParamsR3.from_C(1.0)))

    def test_residual_at_origin(self):
        assert spherical.master_ode_residual(0.0, self.flat, 0.0) == 0.0

    def test_residual_small_everywhere(self):
        for u in (-2.0, 0.5, 1.0, 3.0):
            assert abs(spherical.master_ode_residual(0.0, self.flat, u)) < 1e-10

    def test_master_equation_reduces_at_c_zero(self):
        # at c = 0 the equation is the flat one, 3 phi''' + 2 phi' phi'' = 0
        for u in (0.3, 1.0, 2.7, -1.1):
            _, d1, d2, d3 = self.flat(u)
            full = spherical.master_ode_residual(0.0, self.flat, u)
            assert full == 3.0 * d3 + 2.0 * d1 * d2

    def test_strip_profile_solves_master_equation(self):
        fam = spherical.family(1.0)
        derivs = fam.metric_profile_derivs()
        r = fam.roots
        for frac in (0.25, 0.5, 0.75):
            xi = r.xi01 + frac * (r.xi02 - r.xi01)
            assert abs(spherical.master_ode_residual(1.0, derivs, xi)) < 1e-10


class TestCurvatureRouteEquivalence:
    def test_turning_angle_density_matches(self):
        # the curvature-route angle density, pushed through
        # k = 3^{-3/2} xi^{4/3}, equals the strip turning-angle density
        C = 1.0
        C1 = spherical.FamilyParamsS3(C).C1
        fam = spherical.family(C)

        def mu_prime(k):
            A = 9.0 * C1 * k ** 1.5 - 16.0
            B = 9.0 * C1 * k ** 1.5 - 16.0 * (1.0 + 9.0 * k * k)
            return 108.0 * math.sqrt(k * k / A) / math.sqrt(k ** 0.5 * A * B / C1)

        for xi in (2.0, 3.0, 3.375, 4.2):
            k = 3.0 ** -1.5 * xi ** (4.0 / 3.0)
            dk_dxi = 3.0 ** -1.5 * (4.0 / 3.0) * xi ** (1.0 / 3.0)
            assert mu_prime(k) * dk_dxi == pytest.approx(
                fam.zeta0_deriv(xi), rel=1e-12)


class TestParamsS3:
    def test_c1_relation(self):
        par = spherical.FamilyParamsS3(1.0)
        assert par.C1 == pytest.approx(16.0 * 3.0 ** 0.25, rel=1e-15)
        assert par.C1 > 64.0 / 3.0 ** 1.25

    def test_k01_exceeds_radius_bound(self):
        for C in (0.8, 1.0, 2.0, 5.0):
            r = spherical.domain_roots(C)
            C1 = spherical.FamilyParamsS3(C).C1
            assert r.k01 > (16.0 / (9.0 * C1)) ** (2.0 / 3.0)

    def test_rejects_below_threshold(self):
        with pytest.raises(DegenerateDomain):
            spherical.FamilyParamsS3(0.5)
