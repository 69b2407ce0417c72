"""Oracle sanity on surfaces with known geometry, plus the level-curve
criterion in both ambients."""

import dataclasses
import math

import numpy as np
import pytest

from biconsurf import diffgeo, spherical
from biconsurf.numerics import OutOfDomain


def plane_patch():
    return diffgeo.ImmersionPatch(
        u_range=(-1.0, 1.0), v_range=(-1.0, 1.0), ambient=diffgeo.EUCLIDEAN3,
        position=lambda u, v: np.array([u, v, 0.0]),
        first_partials=lambda u, v: (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])))


def round_sphere_patch():
    def pos(u, v):
        return np.array([math.sin(u) * math.cos(v), math.sin(u) * math.sin(v), math.cos(u)])

    def partials(u, v):
        xu = np.array([math.cos(u) * math.cos(v), math.cos(u) * math.sin(v), -math.sin(u)])
        xv = np.array([-math.sin(u) * math.sin(v), math.sin(u) * math.cos(v), 0.0])
        return xu, xv

    return diffgeo.ImmersionPatch(
        u_range=(0.3, 2.8), v_range=(0.0, 2.0 * math.pi), ambient=diffgeo.EUCLIDEAN3,
        position=pos, first_partials=partials)


def flat_torus_patch():
    s = 1.0 / math.sqrt(2.0)

    def partials(u, v):
        return (s * np.array([-math.sin(u), math.cos(u), 0.0, 0.0]),
                s * np.array([0.0, 0.0, -math.sin(v), math.cos(v)]))

    return diffgeo.ImmersionPatch(
        u_range=(0.0, 2 * math.pi), v_range=(0.0, 2 * math.pi), ambient=diffgeo.SPHERE3,
        position=lambda u, v: s * np.array(
            [math.cos(u), math.sin(u), math.cos(v), math.sin(v)]),
        first_partials=partials)


def latitude_sphere_patch(r):
    sr, cr = math.sin(r), math.cos(r)

    def pos(u, v):
        return np.array([sr * math.cos(u) * math.cos(v), sr * math.sin(u) * math.cos(v),
                         sr * math.sin(v), cr])

    def partials(u, v):
        xu = sr * np.array([-math.sin(u) * math.cos(v), math.cos(u) * math.cos(v), 0.0, 0.0])
        xv = sr * np.array([-math.cos(u) * math.sin(v), -math.sin(u) * math.sin(v),
                            math.cos(v), 0.0])
        return xu, xv

    return diffgeo.ImmersionPatch(
        u_range=(0.0, 2 * math.pi), v_range=(-1.2, 1.2), ambient=diffgeo.SPHERE3,
        position=pos, first_partials=partials)


def long_cylinder_patch():
    """Unit cylinder whose u-width is a thousand times its v-width."""
    return diffgeo.ImmersionPatch(
        u_range=(0.0, 1000.0), v_range=(0.0, 1.0), ambient=diffgeo.EUCLIDEAN3,
        position=lambda u, v: np.array([math.cos(v), math.sin(v), u]),
        first_partials=lambda u, v: (np.array([0.0, 0.0, 1.0]),
                                     np.array([-math.sin(v), math.cos(v), 0.0])))


class TestFundamentalForms:
    def test_plane(self):
        E, F, G = diffgeo.fundamental_forms(plane_patch(), 0.2, -0.3)
        assert (E, F, G) == pytest.approx((1.0, 0.0, 1.0), abs=1e-9)

    def test_sphere_metric(self):
        E, F, G = diffgeo.fundamental_forms(round_sphere_patch(), 1.1, 0.5)
        assert E == pytest.approx(1.0, abs=1e-10)
        assert F == pytest.approx(0.0, abs=1e-10)
        assert G == pytest.approx(math.sin(1.1) ** 2, abs=1e-10)

    def test_degenerate_rejected(self):
        bad = diffgeo.ImmersionPatch(
            u_range=(-1, 1), v_range=(-1, 1), ambient=diffgeo.EUCLIDEAN3,
            position=lambda u, v: np.array([u, u, 0.0]),
            first_partials=lambda u, v: (np.array([1.0, 1.0, 0.0]), np.zeros(3)))
        with pytest.raises(diffgeo.DegenerateMetric):
            diffgeo.fundamental_forms(bad, 0.0, 0.0)


class TestShapeOperator:
    def test_unit_sphere_umbilical(self):
        data = diffgeo.shape_operator(round_sphere_patch(), 1.1, 0.5)
        assert data.shape == pytest.approx(np.eye(2), abs=1e-7)
        assert data.f == pytest.approx(2.0, abs=1e-8)
        assert data.K == pytest.approx(1.0, abs=1e-7)

    def test_orientation_forces_nonnegative_f(self):
        # reversed chart flips the raw cross product; reported f stays >= 0
        p = round_sphere_patch()

        def partials(u, v):
            xu, xv = p.first_partials(u, -v)
            return xu, -xv

        flipped = diffgeo.ImmersionPatch(
            u_range=p.u_range, v_range=p.v_range, ambient=p.ambient,
            position=lambda u, v: p.position(u, -v), first_partials=partials)
        data = diffgeo.shape_operator(flipped, 1.1, -0.5)
        assert data.f >= 0.0

    def test_flat_torus_minimal(self):
        data = diffgeo.shape_operator(flat_torus_patch(), 1.0, 2.0)
        assert data.f == pytest.approx(0.0, abs=1e-7)
        assert data.K == pytest.approx(0.0, abs=1e-7)

    def test_latitude_sphere_umbilical(self):
        r = 0.8
        data = diffgeo.shape_operator(latitude_sphere_patch(r), 1.0, 0.3)
        assert data.f == pytest.approx(2.0 / math.tan(r), rel=1e-6)
        assert data.K == pytest.approx(1.0 / math.sin(r) ** 2, rel=1e-6)

    def test_anisotropic_patch_steps_per_coordinate(self):
        # a v step sized from the u-width (1000) would be 1e-2 and put the
        # mean curvature off by ~1.7e-5
        data = diffgeo.shape_operator(long_cylinder_patch(), 500.0, 0.5)
        assert abs(data.f - 1.0) <= 1e-8
        assert data.K == pytest.approx(0.0, abs=1e-12)

    def test_normal_orthogonality_sphere3(self):
        p = flat_torus_patch()
        data = diffgeo.shape_operator(p, 0.7, 1.9)
        pos = p.position(0.7, 1.9)
        assert abs(data.normal @ pos) < 1e-10
        assert np.linalg.norm(data.normal) == pytest.approx(1.0, abs=1e-12)


class TestCurvatures:
    def test_round_sphere_constant(self):
        f, K, grad_f, grad_k = diffgeo.curvatures(round_sphere_patch(), 1.1, 0.5)
        assert K == pytest.approx(1.0, abs=1e-7)
        assert np.linalg.norm(grad_k) < 1e-6
        assert np.linalg.norm(grad_f) < 1e-6

    def test_residual_zero_at_cmc(self):
        # gradient below the CMC threshold: unnormalized defect, FD noise only
        res = diffgeo.biconservativity_residual(round_sphere_patch(), 1.1, 0.5)
        assert res < 1e-8


class TestLevelCurveCheck:
    def test_euclidean_family_closed_form(self):
        C = 1.3
        half_log_c = 0.5 * math.log(C)

        def derivs(u):
            th, s2 = math.tanh(u), 1.0 / math.cosh(u) ** 2
            return (half_log_c + 3.0 * math.log(math.cosh(u)),
                    3.0 * th, 3.0 * s2, -6.0 * s2 * th)

        for u in (0.3, 1.0, 2.0):
            kg, kf = diffgeo.level_curve_circle_check(derivs, 0.0, u)
            expected = 3.0 * abs(math.tanh(u)) / (math.sqrt(C) * math.cosh(u) ** 3)
            assert kg == pytest.approx(expected, rel=1e-12)
            assert kf == pytest.approx(expected, rel=1e-12)

    def test_strip_family_closed_form(self):
        C = 1.0
        fam = spherical.family(C)
        derivs = fam.metric_profile_derivs()
        r = fam.roots
        for frac in (0.2, 0.5, 0.8):
            xi = r.xi01 + frac * (r.xi02 - r.xi01)
            kg, kf = diffgeo.level_curve_circle_check(derivs, 1.0, xi)
            expected = math.sqrt(float(spherical.T(C, xi)) / 3.0)
            assert kg == pytest.approx(expected, rel=1e-10)
            assert kf == pytest.approx(expected, rel=1e-10)

    def test_axis_limit_vanishes(self):
        def derivs(u):
            th, s2 = math.tanh(u), 1.0 / math.cosh(u) ** 2
            return 3.0 * math.log(math.cosh(u)), 3.0 * th, 3.0 * s2, -6.0 * s2 * th

        kg, kf = diffgeo.level_curve_circle_check(derivs, 0.0, 1e-5)
        assert kg < 1e-4 and kf < 1e-4
        with pytest.raises(diffgeo.CMCPoint):
            diffgeo.level_curve_circle_check(derivs, 0.0, 0.0)

    def test_positive_curvature_gap_required(self):
        def derivs(u):
            # round-sphere-like exponent: c - K < 0 for c = 0
            return 0.0, 1.0, -1.0, 1.0

        with pytest.raises(OutOfDomain):
            diffgeo.level_curve_circle_check(derivs, 0.0, 0.1)


class TestMetricCurvature:
    def test_round_sphere_polar_metric(self):
        K = diffgeo.gauss_curvature_from_metric(
            lambda x: 1.0, lambda x: math.sin(x) ** 2, 0.9,
            dG=lambda x: 2.0 * math.sin(x) * math.cos(x))
        assert K == pytest.approx(1.0, rel=1e-9)

    def test_fd_route_agrees(self):
        K = diffgeo.gauss_curvature_from_metric(
            lambda x: 1.0, lambda x: math.sin(x) ** 2, 0.9)
        assert K == pytest.approx(1.0, rel=1e-6)


class TestPartialsCalls:
    @staticmethod
    def counted(patch):
        calls = []
        fp = patch.first_partials

        def first_partials(u, v):
            calls.append((u, v))
            return fp(u, v)
        return dataclasses.replace(patch, first_partials=first_partials), calls

    def test_one_call_per_stencil_point(self):
        # the center and four stencil points: X_uv and X_vv share (u, v +- hv)
        patch, calls = self.counted(plane_patch())
        diffgeo.shape_operator(patch, 0.1, 0.2)
        assert len(calls) == 5
        assert len(set(calls)) == 5

    def test_residual_calls(self):
        # five shape operators: the center and the curvature stencil
        patch, calls = self.counted(plane_patch())
        diffgeo.biconservativity_residual(patch, 0.1, 0.2)
        assert len(calls) == 25


class TestValidatePatch:
    def test_nan_partials_fail(self):
        # NaN partials on one grid row; positions stay finite
        def partials(u, v):
            xu, xv = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
            return (xu * math.nan, xv) if 0.4 < u < 0.6 else (xu, xv)
        patch = diffgeo.ImmersionPatch(
            u_range=(0.0, 1.0), v_range=(0.0, 1.0), ambient=diffgeo.EUCLIDEAN3,
            position=lambda u, v: np.array([u, v, 0.0]), first_partials=partials)
        assert sum(0.4 < u < 0.6 for u in patch.grid(5, 5, margin=5e-2)[0]) == 1
        rep = diffgeo.validate_patch(patch)
        assert not rep["ok"]
        assert math.isnan(rep["partials_vs_fd"])

    def test_round_sphere_partials(self):
        rep = diffgeo.validate_patch(round_sphere_patch())
        assert rep["ok"]
        assert rep["partials_vs_fd"] < 1e-6

    def test_sphere3_unit_norm(self):
        rep = diffgeo.validate_patch(flat_torus_patch())
        assert rep["position_norm_defect"] < 1e-12
        assert rep["normal_orthogonality"] < 1e-8
