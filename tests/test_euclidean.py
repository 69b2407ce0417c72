"""Euclidean-ambient family: profile, completion, immersion, gluing data,
homothety law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biconsurf import checks, diffgeo, euclidean
from biconsurf.numerics import OutOfDomain
from conftest import curvatures, residual, validate_patch


PARAMS_1 = euclidean.FamilyParamsR3.from_C(1.0)


class TestParams:
    def test_relation(self):
        p = euclidean.FamilyParamsR3.from_C(2.5)
        assert p.C1 ** 3 * p.C == pytest.approx(9.0, rel=1e-14)
        q = euclidean.FamilyParamsR3(C=9.0 / p.C1 ** 3, C1=p.C1)
        assert q.C == pytest.approx(2.5, rel=1e-14)

    def test_rejects_inconsistent(self):
        with pytest.raises(ValueError):
            euclidean.FamilyParamsR3(C=1.0, C1=1.0)
        with pytest.raises(ValueError):
            euclidean.FamilyParamsR3.from_C(-1.0)


class TestProfile:
    def test_boundary_value_zero(self):
        assert euclidean.profile_t(1.0, 1.0) == 0.0

    def test_boundary_limit(self):
        assert euclidean.profile_t(1.0, 1.0 + 1e-12) < 1e-5

    def test_known_value(self):
        # (3/2)(sqrt(2) + log(1 + sqrt(2))) at rho = 2^{3/2}
        t = euclidean.profile_t(1.0, 2.0 ** 1.5)
        assert t == pytest.approx(3.443380724088957, rel=1e-14)

    def test_below_boundary_rejected(self):
        with pytest.raises(OutOfDomain):
            euclidean.profile_t(1.0, 0.9)

    @given(c1=st.floats(0.3, 4.0), r1=st.floats(0.01, 4.0), r2=st.floats(0.01, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing(self, c1, r1, r2):
        lo, hi = sorted((r1, r2))
        base = c1 ** -1.5
        rho1 = base * (1.0 + lo)
        rho2 = base * (1.0 + hi)
        if rho2 - rho1 < 1e-12 * base:
            return
        assert euclidean.profile_t(c1, rho2) > euclidean.profile_t(c1, rho1)

    def test_derivative_matches_formula(self):
        c1, rho = 1.7, 1.9
        h = 1e-6
        fd = (euclidean.profile_t(c1, rho + h) - euclidean.profile_t(c1, rho - h)) / (2 * h)
        assert fd == pytest.approx(1.0 / math.sqrt(c1 * rho ** (2.0 / 3.0) - 1.0), rel=1e-8)


class TestCompletedProfile:
    def test_waist_value(self):
        assert euclidean.complete_profile_x(1.3, 0.0) == pytest.approx(1.3 ** -1.5, rel=1e-14)

    def test_even(self):
        assert euclidean.complete_profile_x(1.0, -1.7) == pytest.approx(
            euclidean.complete_profile_x(1.0, 1.7), rel=1e-13)

    @given(t=st.floats(1e-4, 6.0), c1=st.floats(0.5, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, t, c1):
        x = euclidean.complete_profile_x(c1, t)
        assert euclidean.profile_t(c1, x) == pytest.approx(t, abs=1e-10, rel=1e-10)

    def test_minimum_at_waist(self):
        xs = [euclidean.complete_profile_x(1.0, t) for t in np.linspace(-2, 2, 41)]
        assert min(xs) == pytest.approx(1.0, rel=1e-12)
        assert np.argmin(xs) == 20


class TestImmersion:
    def test_axis_point(self):
        p = euclidean.immersion_XC(PARAMS_1, 0.0, 0.0)
        assert p == pytest.approx(np.array([1.0 / 3.0, 0.0, 0.0]), abs=1e-15)

    def test_metric_is_conformal(self):
        patch = euclidean.xc_patch(PARAMS_1)
        for u, v in [(0.3, 0.1), (-1.1, 1.5), (0.9, 2.0)]:
            E, F, G = diffgeo.fundamental_forms(patch, u, v)
            factor = math.cosh(u) ** 6
            assert E == pytest.approx(factor, rel=1e-12)
            assert abs(F) < 1e-12 * factor
            assert G == pytest.approx(factor, rel=1e-12)

    def test_angular_period(self):
        for u in (-0.7, 0.4):
            a = euclidean.immersion_XC(PARAMS_1, u, 0.37)
            b = euclidean.immersion_XC(PARAMS_1, u, 0.37 + 2.0 * math.pi / 3.0)
            assert a == pytest.approx(b, abs=1e-14)

    def test_partials_match_fd(self):
        rep = validate_patch(euclidean.xc_patch(PARAMS_1),
                             lambda u, v: euclidean.immersion_XC(PARAMS_1, u, v))
        assert rep["ok"]

    def test_validation_reads_the_position_evaluator(self, monkeypatch):
        # mesh and export read immersion_XC, not the jet's own copy of X:
        # a drift of it alone fails both the differences of the positions
        # and the comparison with the jet's positions
        xc = euclidean.immersion_XC

        def drifted(par, u, v):
            out = xc(par, u, v)
            out[..., 2] += 1e-5 * np.sin(u)
            return out
        monkeypatch.setattr(euclidean, "immersion_XC", drifted)
        rep = validate_patch(euclidean.xc_patch(PARAMS_1),
                             lambda u, v: euclidean.immersion_XC(PARAMS_1, u, v))
        assert rep["partials_vs_fd"] > 1e-6 and not rep["same_positions"] and not rep["ok"]

    def test_gauss_curvature_identity(self):
        patch = euclidean.xc_patch(PARAMS_1)
        for u in (-1.2, -0.5, 0.01, 0.8, 1.4):
            d = diffgeo.shape_operator(patch, u, 0.3)
            assert d.K == pytest.approx(-3.0 / math.cosh(u) ** 8, abs=1e-8)

    def test_curvature_gradient_vanishes_only_on_axis(self):
        patch = euclidean.xc_patch(PARAMS_1)
        _, _, _, grad_k0 = curvatures(patch, 0.0, 0.3)
        assert np.linalg.norm(grad_k0) < 1e-6
        for u in (-0.9, 0.6):
            f, K, grad_f, grad_k = curvatures(patch, u, 0.3)
            # K' has the sign of u: K increases away from the axis
            assert grad_k[0] * u > 0.0
            assert np.linalg.norm(grad_k) > 1e-3

    def test_mean_curvature_positive_closed_form(self):
        patch = euclidean.xc_patch(PARAMS_1)
        for u in (-1.0, 0.2, 1.3):
            d = diffgeo.shape_operator(patch, u, 0.5)
            assert d.f == pytest.approx(2.0 / math.cosh(u) ** 4, rel=1e-7)
            assert d.f > 0.0

    def test_biconservative(self):
        patch = euclidean.xc_patch(PARAMS_1)
        assert residual(patch, 0.7, 0.3) < 1e-5

    def test_gradient_is_eigenvector(self):
        # A(grad f) = -(f/2) grad f componentwise, not just in norm
        patch = euclidean.xc_patch(PARAMS_1)
        d = diffgeo.shape_operator(patch, 0.7, 0.3)
        f, K, grad_f, _ = curvatures(patch, 0.7, 0.3)
        lhs = d.shape @ grad_f
        rhs = -0.5 * f * grad_f
        assert np.max(np.abs(lhs - rhs)) < 1e-4 * np.linalg.norm(rhs)


class TestCompleteness:
    def test_factor_bounded_below(self):
        # the r3 report's row: the worst of 1 - factor / C over u in [-3, 3]
        row = checks.r3_checks(1.0, grid=10, seed=12345)["completeness_bound"]
        assert row.passed
        assert row.value == pytest.approx(0.0, abs=1e-12)
        assert row.worst_at == pytest.approx((0.0,), abs=1e-12)

    def test_factor_at_large_u(self):
        par = euclidean.FamilyParamsR3.from_C(2.0)
        assert euclidean.conformal_factor(par, 3.0) >= 2.0
        assert euclidean.conformal_factor(par, 0.0) == pytest.approx(2.0, rel=1e-15)


class TestGluing:
    def test_mirror_pose_matches(self):
        rep = euclidean.gluing_conditions_check(1.3, 1.3, n_samples=16)
        assert set(rep) == {"position", "normal_parallelism", "mean_curvature"}
        assert rep["position"] < 1e-12
        assert rep["normal_parallelism"] < 1e-12
        assert rep["mean_curvature"] < 1e-14

    def test_different_c1_mean_curvature_gap(self):
        c1 = 0.9
        rep = euclidean.gluing_conditions_check(c1, 2.0 * c1, n_samples=8)
        expected = 2.0 / 3.0 * abs(c1 ** 1.5 - (2.0 * c1) ** 1.5)
        assert rep["mean_curvature"] == pytest.approx(expected, rel=1e-14)
        assert rep["mean_curvature"] > 0.0


class TestHomothety:
    def test_identity_scale(self):
        gaps = euclidean.homothety_check(1.0, [0.5, 2.0], [0.2, 1.0])
        assert gaps.tolist() == [0.0, 0.0]

    def test_scaled_family(self):
        assert euclidean.homothety_check(4.0, 1.0, 0.5) < 1e-12

    def test_boundary_radius_scaling(self):
        # the completed profile's waist is the unit boundary radius scaled by C1^{-3/2}
        assert euclidean.complete_profile_x(2.0, 0.0) == pytest.approx(2.0 ** -1.5 * 1.0, rel=1e-12)

    def test_chart_equivalence(self):
        # theta = sinh(u)^2 with tripled angle reproduces the isothermal chart
        par = euclidean.FamilyParamsR3.from_C(1.7)
        u, v = 0.8, 0.4
        theta = math.sinh(u) ** 2
        a = euclidean.theta_chart_point(par.C1, theta, 3.0 * v)
        b = euclidean.immersion_XC(par, u, v)
        assert a == pytest.approx(b, abs=1e-12)


class TestLevelCurves:
    def test_identity_on_family(self):
        derivs = euclidean.metric_profile_derivs(PARAMS_1)
        for u in np.linspace(0.05, 2.4, 10):
            kg, kf = diffgeo.level_curve_circle_check(derivs, 0.0, float(u))
            assert kg == pytest.approx(kf, abs=1e-12)


class TestProfileSeam:
    def test_waist_curvature_closed_form(self):
        # a fourth-order difference straddling the seam t = 0 of the even
        # reflection; the step keeps every t != 0 on the root solve
        for c1 in (0.8, 1.3, 2.0):
            h = 1e-3 * c1 ** -1.5
            x = [euclidean.complete_profile_x(c1, k * h) for k in (-2, -1, 0, 1, 2)]
            d2 = (-x[0] + 16.0 * x[1] - 30.0 * x[2] + 16.0 * x[3] - x[4]) / (12.0 * h * h)
            assert d2 == pytest.approx(c1 ** 1.5 / 3.0, rel=1e-7)
