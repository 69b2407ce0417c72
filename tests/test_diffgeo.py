"""Oracle sanity on surfaces with known geometry, plus the level-curve
criterion in both ambients."""

import dataclasses
import math

import numpy as np
import pytest

from biconsurf import diffgeo, gluing, spherical
from biconsurf.numerics import OutOfDomain
from conftest import assert_matches_reference, curvatures, jet_lengths_at, residual, validate_patch


def vec(*components):
    """Stack components into vectors: (d,) for scalars, (n, d) for arrays of n points."""
    return np.stack(np.broadcast_arrays(*components), -1)


def plane_patch():
    zero = lambda u: vec(0.0 * u, 0.0, 0.0)
    return diffgeo.ImmersionPatch(
        u_range=(-1.0, 1.0), v_range=(-1.0, 1.0), ambient=diffgeo.EUCLIDEAN3,
        jet=lambda u, v: (vec(u, v, 0.0 * u), vec(1.0, 0.0, 0.0 * u), vec(0.0, 1.0, 0.0 * u),
                          zero(u), zero(u), zero(u)))


def sphere_position(u, v):
    """The unit sphere in polar angle u and longitude v."""
    return vec(np.sin(u) * np.cos(v), np.sin(u) * np.sin(v), np.cos(u))


def round_sphere_patch():
    def jet(u, v):
        xu = vec(np.cos(u) * np.cos(v), np.cos(u) * np.sin(v), -np.sin(u))
        xv = vec(-np.sin(u) * np.sin(v), np.sin(u) * np.cos(v), 0.0 * u)
        xuv = vec(-np.cos(u) * np.sin(v), np.cos(u) * np.cos(v), 0.0 * u)
        xvv = vec(-np.sin(u) * np.cos(v), -np.sin(u) * np.sin(v), 0.0 * u)
        return sphere_position(u, v), xu, xv, -sphere_position(u, v), xuv, xvv

    return diffgeo.ImmersionPatch(
        u_range=(0.3, 2.8), v_range=(0.0, 2.0 * math.pi), ambient=diffgeo.EUCLIDEAN3, jet=jet)


def torus_position(u, v):
    """The Clifford torus in S^3."""
    return 1.0 / math.sqrt(2.0) * vec(np.cos(u), np.sin(u), np.cos(v), np.sin(v))


def flat_torus_patch():
    s = 1.0 / math.sqrt(2.0)

    def jet(u, v):
        zero = 0.0 * u
        return (torus_position(u, v), s * vec(-np.sin(u), np.cos(u), zero, zero),
                s * vec(0.0 * v, 0.0 * v, -np.sin(v), np.cos(v)),
                s * vec(-np.cos(u), -np.sin(u), zero, zero), vec(zero, zero, zero, zero),
                s * vec(0.0 * v, 0.0 * v, -np.cos(v), -np.sin(v)))

    return diffgeo.ImmersionPatch(
        u_range=(0.0, 2 * math.pi), v_range=(0.0, 2 * math.pi), ambient=diffgeo.SPHERE3, jet=jet)


def latitude_sphere_patch(r):
    sr, cr = math.sin(r), math.cos(r)

    def pos(u, v):
        return vec(sr * np.cos(u) * np.cos(v), sr * np.sin(u) * np.cos(v), sr * np.sin(v),
                   cr + 0.0 * u)

    def jet(u, v):
        zero = 0.0 * u
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        return (pos(u, v), sr * vec(-su * cv, cu * cv, zero, zero),
                sr * vec(-cu * sv, -su * sv, cv, zero), sr * vec(-cu * cv, -su * cv, zero, zero),
                sr * vec(su * sv, -cu * sv, zero, zero), sr * vec(-cu * cv, -su * cv, -sv, zero))

    return diffgeo.ImmersionPatch(
        u_range=(0.0, 2 * math.pi), v_range=(-1.2, 1.2), ambient=diffgeo.SPHERE3, jet=jet)


def long_cylinder_patch():
    """Unit cylinder whose u-width is a thousand times its v-width."""
    zero = lambda u: vec(0.0 * u, 0.0, 0.0)
    return diffgeo.ImmersionPatch(
        u_range=(0.0, 1000.0), v_range=(0.0, 1.0), ambient=diffgeo.EUCLIDEAN3,
        jet=lambda u, v: (vec(np.cos(v), np.sin(v), u), vec(0.0 * u, 0.0, 1.0),
                          vec(-np.sin(v), np.cos(v), 0.0 * u), zero(u), zero(u),
                          vec(-np.cos(v), -np.sin(v), 0.0 * u)))


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
            jet=lambda u, v: (vec(u, u, 0.0 * u), vec(1.0, 1.0, 0.0 * u),
                              *[vec(0.0, 0.0, 0.0 * u)] * 4))
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

        def jet(u, v):
            x, xu, xv, xuu, xuv, xvv = p.jet(u, -v)
            return x, xu, -xv, xuu, -xuv, xvv

        flipped = diffgeo.ImmersionPatch(
            u_range=p.u_range, v_range=p.v_range, ambient=p.ambient, jet=jet)
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
        # the second partials are the patch's own, so no step sized from
        # the u-width (1000) reaches the mean curvature
        data = diffgeo.shape_operator(long_cylinder_patch(), 500.0, 0.5)
        assert abs(data.f - 1.0) <= 1e-8
        assert data.K == pytest.approx(0.0, abs=1e-12)

    def test_normal_orthogonality_sphere3(self):
        p = flat_torus_patch()
        data = diffgeo.shape_operator(p, 0.7, 1.9)
        pos = torus_position(0.7, 1.9)
        assert abs(data.normal @ pos) < 1e-10
        assert np.linalg.norm(data.normal) == pytest.approx(1.0, abs=1e-12)


class TestCurvatures:
    def test_round_sphere_constant(self):
        f, K, grad_f, grad_k = curvatures(round_sphere_patch(), 1.1, 0.5)
        assert K == pytest.approx(1.0, abs=1e-7)
        assert np.linalg.norm(grad_k) < 1e-6
        assert np.linalg.norm(grad_f) < 1e-6

    def test_residual_zero_at_cmc(self):
        # gradient below the CMC threshold: unnormalized defect, FD noise only
        res = residual(round_sphere_patch(), 1.1, 0.5)
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


class TestPartialsCalls:
    """The batched oracle calls the patch's jet once per entry point, on
    the points of the whole sample set: the shape operator reads the
    closed-form second partials at the points, and only the residual's
    curvature gradients difference, on a 5-point stencil."""

    @staticmethod
    def counted(patch):
        calls = []
        evaluate = patch.jet

        def jet(u, v):
            calls.append(len(u))
            return evaluate(u, v)
        return dataclasses.replace(patch, jet=jet), calls

    def test_shape_operator_one_call(self):
        # the points alone: no stencil for the second partials
        patch, calls = self.counted(round_sphere_patch())
        diffgeo.shape_operator(patch, np.linspace(0.5, 2.5, 7), np.full(7, 0.2))
        assert calls == [7]

    # the lengths that size a residual's stencils are read before the count
    POINTS = np.linspace(0.5, 2.5, 7), np.full(7, 0.2)

    def test_residual_calls(self):
        # five shape operators per point: the point and its curvature stencil
        lengths = jet_lengths_at(round_sphere_patch(), *self.POINTS)
        patch, calls = self.counted(round_sphere_patch())
        diffgeo.biconservativity_residual(patch, *self.POINTS, lengths)
        assert calls == [5 * 7]

    def test_ride_points_share_the_call(self):
        # the shape operators of the ride points come from the entry
        # point's own call, and are the ones that a call of their own gives
        lengths = jet_lengths_at(round_sphere_patch(), *self.POINTS)
        patch, calls = self.counted(round_sphere_patch())
        ride = (np.array([0.7, 1.9]), np.array([0.1, 0.3]))
        res, data = diffgeo.biconservativity_residual(patch, *self.POINTS, lengths, ride)
        assert calls == [5 * 7 + 2]
        assert np.array_equal(res, diffgeo.biconservativity_residual(
            patch, *self.POINTS, lengths)[0])
        alone = diffgeo.shape_operator(patch, *ride)
        for field in dataclasses.fields(data):
            assert np.array_equal(getattr(data, field.name), getattr(alone, field.name))

    def test_scalar_call_is_one_point(self):
        lengths = jet_lengths_at(round_sphere_patch(), 1.1, 0.5)
        patch, calls = self.counted(round_sphere_patch())
        data = diffgeo.shape_operator(patch, 1.1, 0.5)
        res, _ = diffgeo.biconservativity_residual(patch, 1.1, 0.5, lengths)
        assert calls == [1, 5]
        batch = diffgeo.shape_operator(patch, np.array([1.1]), np.array([0.5]))
        assert data.K == batch.K[0] and data.shape.shape == (2, 2)
        assert np.ndim(res) == 0 and res == diffgeo.biconservativity_residual(
            patch, np.array([1.1]), np.array([0.5]), lengths)[0][0]


def sphere_patches():
    """Spherical patches with their position evaluators and the
    evaluator's point sets: the flat torus, the s3-local strip and the
    glued immersion across the junction h_{0,1}."""
    at = gluing.atlas(1.0, 1.0)
    fam = spherical.family(1.0)
    strip = fam.patch()
    glued = at.phi_patch((at.h_limits[0], at.grid[2]))
    return [(flat_torus_patch(), torus_position, np.linspace(0.5, 5.5, 7), np.full(7, 1.9)),
            (strip, fam.immersion, np.linspace(*strip.u_range, 9)[1:-1], np.full(7, 0.4)),
            (glued, at.immersion_phi, np.linspace(at.h_limits[0], at.grid[2], 9)[1:-1],
             np.full(7, 0.3))]


class TestSphereNormals:
    """On the sphere the evaluator's one call returns the positions that
    the normals read: no position evaluator is called, and the normals
    are, bit for bit, those that positions from a call of the family's
    position evaluator give."""

    @pytest.mark.parametrize("case", range(3), ids=["torus", "strip", "glued"])
    def test_one_evaluator_call_and_no_position_call(self, case, monkeypatch):
        patch, _, us, vs = sphere_patches()[case]
        lengths = jet_lengths_at(patch, us, vs)  # before the count
        refused = lambda *args: pytest.fail("the oracle called a position evaluator")
        monkeypatch.setattr(spherical.SphereFamily, "immersion", refused)
        monkeypatch.setattr(gluing.GluingAtlas, "immersion_phi", refused)
        counted, calls = TestPartialsCalls.counted(patch)
        diffgeo.shape_operator(counted, us, vs)
        assert calls == [len(us)]
        diffgeo.biconservativity_residual(counted, us, vs, lengths)
        assert calls == [len(us), 5 * len(us)]

    @pytest.mark.parametrize("case", range(3), ids=["torus", "strip", "glued"])
    def test_normals_match_a_position_call(self, case):
        patch, position, us, vs = sphere_patches()[case]
        data = diffgeo.shape_operator(patch, us, vs)
        positions, xu, xv = patch.jet(us, vs)[:3]
        assert positions.tobytes() == position(us, vs).tobytes()
        n = diffgeo._normal(us, vs, position(us, vs), xu, xv)
        # the orientation flips whole rows
        assert np.all((data.normal == n).all(1) | (data.normal == -n).all(1))


REFERENCE_PATCHES = {
    "plane": (plane_patch, 0.1, 0.2),
    "round_sphere": (round_sphere_patch, 1.1, 0.5),
    "flat_torus": (flat_torus_patch, 1.0, 2.0),
    "latitude_sphere": (lambda: latitude_sphere_patch(0.8), 1.0, 0.3),
    "long_cylinder": (long_cylinder_patch, 500.0, 0.5),
}

class TestAgainstScalarOracle:
    @pytest.mark.parametrize("name", REFERENCE_PATCHES)
    def test_known_patches(self, name):
        make, u, v = REFERENCE_PATCHES[name]
        patch = make()
        (u0, u1), (v0, v1) = patch.u_range, patch.v_range
        us = np.array([u, u0 + 0.3 * (u1 - u0), u0 + 0.7 * (u1 - u0)])
        vs = np.array([v, v0 + 0.6 * (v1 - v0), v0 + 0.2 * (v1 - v0)])
        # the reference's second partials are central differences at 2e-5 of
        # the jets' length scale: its fields are up to 1.3e-10 off the
        # closed-form ones here, and its residuals up to 1.4e-8
        assert_matches_reference(patch, us, vs, diffgeo.shape_operator(patch, us, vs),
                                 residual(patch, us, vs), rel=2e-8)


class TestValidatePatch:
    def test_nan_partials_fail(self):
        # NaN partials on one grid row; positions stay finite
        def jet(u, v):
            row = np.where((0.4 < u) & (u < 0.6), math.nan, 1.0)
            return (vec(u, v, 0.0 * u), vec(row, 0.0 * u, 0.0 * u), vec(0.0 * u, 1.0, 0.0 * u),
                    *[vec(0.0 * u, 0.0, 0.0)] * 3)
        patch = diffgeo.ImmersionPatch(
            u_range=(0.0, 1.0), v_range=(0.0, 1.0), ambient=diffgeo.EUCLIDEAN3, jet=jet)
        assert sum(0.4 < u < 0.6 for u in patch.grid(5, 5, margin=5e-2)[0]) == 1
        rep = validate_patch(patch, lambda u, v: vec(u, v, 0.0 * u))
        assert not rep["ok"]
        assert math.isnan(rep["partials_vs_fd"])

    def test_round_sphere_partials(self):
        rep = validate_patch(round_sphere_patch(), sphere_position)
        assert rep["ok"]
        assert rep["partials_vs_fd"] < 1e-6 and rep["second_vs_fd"] < 1e-6

    def test_sphere3_unit_norm(self):
        rep = validate_patch(flat_torus_patch(), torus_position)
        assert rep["position_norm_defect"] < 1e-12
        assert rep["normal_orthogonality"] < 1e-8
