"""The one sampling reduction behind every sampled check, and the samples
the checks draw."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biconsurf import checks, diffgeo, euclidean, gluing, numerics, spherical
from conftest import assert_matches_reference, jet_lengths_at


# the report's grid and seed, passed to the family functions called directly
GRID, SEED = 10, 12345


class TestWorst:
    def test_picks_the_largest_sample(self):
        x, y = np.array([1.0, 3.0, 2.0]), np.array([2.0, -1.0, 2.5])
        res = checks._worst(x * y, [x, y], 10.0)
        assert res.value == 5.0
        assert res.worst_at == (2.0, 2.5)
        assert res.n_samples == 3
        assert res.passed

    def test_nan_sample_fails_the_check(self):
        # the first NaN wins, ahead of larger values and of later NaNs
        x = np.array([1.0, 2.0, 3.0, 4.0])
        res = checks._worst([1.0, math.nan, 3.0, math.nan], [x], 10.0)
        assert math.isnan(res.value)
        assert res.worst_at == (2.0,)
        assert not res.passed
        assert res.as_dict()["pass"] is False

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            checks._worst([], [np.array([])], 1.0)

    def test_one_value_per_sample(self):
        with pytest.raises(ValueError):
            checks._worst([0.0, 1.0], [np.array([0.5])], 1.0)

    def test_report_keys_unchanged(self):
        res = checks._worst([0.5], [np.array([0.5])], 1.0)
        assert set(res.as_dict()) == {"value", "tolerance", "comparison", "informational", "pass"}


class TestSampleCounts:
    """Every check's sample count in the reports at C = C* = 1, so that a
    rewrite cannot drop samples."""

    COUNTS = {
        "r3": {"biconservativity_residual": 48, "completeness_bound": 101,
               "gauss_curvature_identity": 10, "gluing_negative_control": 1, "homothety": 16,
               "level_curve_circles": 16, "metric_pullback": 50, "mirror_gluing": 1,
               "partials_vs_positions": 10, "profile_roundtrip": 12, "second_vs_first": 10},
        "s3-local": {"biconservativity_residual": 16, "bridge_metric_match": 7,
                     "curvature_c_independent": 9, "curvature_equation": 32,
                     "flat_profile_equation": 1, "gauss_curvature_identity": 10,
                     "k01_above_radius_bound": 1, "level_curve_circles": 16,
                     "metric_pullback": 10, "partials_vs_positions": 10, "prime_integral": 32,
                     "prime_integral_at_roots": 2, "root_identities": 2, "root_ordering": 1,
                     "second_vs_first": 10, "sphere_norm": 256, "zeta_limits_finite": 1,
                     "zeta_monotone": 1},
        "s3-complete": {"biconservativity_residual": 10, "grid_formula": 11,
                        "grid_spacing": 10, "junction_continuity": 6,
                        "junction_negative_control": 1, "junction_smoothness": 3,
                        "metric_pullback": 30, "partials_vs_positions": 10,
                        "periodicity_phase_defect": 1, "phase_recursion_vs_closed_form": 51,
                        "profile_junction_values": 3, "profile_periodicity": 12,
                        "second_vs_first": 10, "sphere_norm": 256},
        "revolution": {"cstar_admissible": 1, "gauss_curvature_identity": 10,
                       "mean_curvature_closed_form": 16, "metric_pullback": 30,
                       "one_minus_K_positive": 10, "partials_vs_positions": 26,
                       "radius_range": 64, "second_vs_first": 26},
    }

    def counts(self, family):
        _, res = checks.build_report(family, 1.0, None if family in ("r3", "s3-local") else 1.0)
        return {name: r.n_samples for name, r in res.items()}

    def test_r3(self):
        assert self.counts("r3") == self.COUNTS["r3"]

    def test_s3_local(self):
        assert self.counts("s3-local") == self.COUNTS["s3-local"]

    def test_s3_complete(self):
        assert self.counts("s3-complete") == self.COUNTS["s3-complete"]

    def test_revolution(self):
        assert self.counts("revolution") == self.COUNTS["revolution"]

    def test_curvature_c_independent_names_c_xi_and_width(self):
        res = checks.s3_local_checks(1.0, GRID, SEED)["curvature_c_independent"]
        C, xi, width = res.worst_at
        r = spherical.domain_roots(C)
        assert C in (0.8, 1.0, 2.0)
        assert width == r.xi02 - r.xi01 and r.contains(xi)


class TestSphereNormDraws:
    """sphere_norm draws its 256 points as one (256, 2) array: the same
    numbers, in the same order, as one scalar draw per coordinate."""

    @staticmethod
    def drawn(monkeypatch, owner, name, family, seed):
        seen = []
        evaluate = getattr(owner, name)

        def recorded(self, u, v):
            if np.size(u) == 256:
                seen.append((np.array(u), np.array(v)))
            return evaluate(self, u, v)
        monkeypatch.setattr(owner, name, recorded)
        checks.build_report(family, 1.0, None if family == "s3-local" else 1.0, seed=seed)
        (points,) = seen
        return points

    def test_s3_local(self, monkeypatch):
        lo, hi = spherical.family(1.0).patch().u_range
        rng = np.random.default_rng(7)
        expected = np.array([(rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi))
                             for _ in range(256)]).T
        u, v = self.drawn(monkeypatch, spherical.SphereFamily, "immersion", "s3-local", 7)
        assert np.array_equal(u, expected[0]) and np.array_equal(v, expected[1])

    def test_s3_complete(self, monkeypatch):
        at = gluing.atlas(1.0, 1.0)
        m1, p1 = at.h_limits
        delta, P = p1 - m1, at.period
        rng = np.random.default_rng(7)
        rng.uniform(m1 + 0.05 * delta, p1 - 0.05 * delta, 12)  # profile_periodicity's
        expected = np.array([(rng.uniform(m1 - P, p1 + P), rng.uniform(0.0, 2.0 * math.pi))
                             for _ in range(256)]).T
        u, v = self.drawn(monkeypatch, gluing.GluingAtlas, "immersion_phi", "s3-complete", 7)
        assert np.array_equal(u, expected[0]) and np.array_equal(v, expected[1])

    def test_later_draws_follow_on(self):
        array_rng, scalar_rng = np.random.default_rng(7), np.random.default_rng(7)
        array_rng.uniform([0.5, 0.0], [1.5, 2.0], (256, 2))
        for _ in range(256):
            scalar_rng.uniform(0.5, 1.5), scalar_rng.uniform(0.0, 2.0)
        assert np.array_equal(array_rng.uniform(0.0, 1.0, 12), scalar_rng.uniform(0.0, 1.0, 12))


@pytest.mark.parametrize("family", ["s3-local", "s3-complete"])
def test_sphere_reports_need_no_numpy_2_call(monkeypatch, family):
    # pyproject.toml allows numpy 1.x, which has no np.vecdot
    monkeypatch.delattr(np, "vecdot", raising=False)
    report, _ = checks.build_report(family, 1.0, None if family == "s3-local" else 1.0)
    assert report["checks"]["sphere_norm"]["pass"]


class TestPositionCalls:
    """A report evaluates positions a sample set at a time: sphere_norm's
    256 samples are one call of the family's position evaluator, and no
    call is a single point."""

    @pytest.mark.parametrize("family, owner, name", [
        ("s3-local", spherical.SphereFamily, "immersion"),
        ("s3-complete", gluing.GluingAtlas, "immersion_phi")])
    def test_sphere_norm_is_one_call(self, monkeypatch, family, owner, name):
        sizes = []
        evaluate = getattr(owner, name)

        def counted(self, u, v):
            sizes.append(np.broadcast(u, v).size)
            return evaluate(self, u, v)
        monkeypatch.setattr(owner, name, counted)
        checks.build_report(family, 1.0, None if family == "s3-local" else 1.0)
        assert sizes.count(256) == 1, sizes
        assert min(sizes) > 1, sizes


def _count_calls(monkeypatch, owner, name):
    """Record the calls of owner.name from now on: the list of their
    positional arguments, without a bound method's self."""
    calls, fn = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args[1:] if isinstance(owner, type) else args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


class TestTableCalls:
    """A report looks its heights up a sample set at a time: each call of
    the height table's inverse covers all the heights of one evaluator
    call or one check, and the closed-form references of a glued report
    share one call (3 calls for the 429 heights of a warm s3-complete
    report at C = C* = 1, 2 for revolution's).  A spherical evaluator call
    returns the positions of the oracle's normals with the tangents, and
    the sphere reports' oracle rows all read the residual's one call, so a
    warm s3-local report makes 3 zeta-table lookups and s3-complete 2."""

    # the counts before the sphere reports' metric and K rows moved onto the
    # residual's call parametrize the tests as ceilings; the counts now are
    # pinned exactly
    INVERSIONS = {"s3-complete": 3, "revolution": 2}
    ZETA_LOOKUPS = {"s3-local": 3, "s3-complete": 2}

    @pytest.mark.parametrize("family, n_calls", [("s3-complete", 4), ("revolution", 2)])
    def test_inversion_calls_per_warm_report(self, monkeypatch, family, n_calls):
        checks.build_report(family, 1.0, 1.0)
        calls = _count_calls(monkeypatch, numerics.CumulativeQuadrature, "inverse")
        checks.build_report(family, 1.0, 1.0)
        sizes = [np.size(y) for (y,) in calls]
        assert len(sizes) == self.INVERSIONS[family] <= n_calls, sizes
        assert sum(sizes) > 10 * len(sizes), sizes

    def test_leaf_polynomials_per_warm_report(self, monkeypatch):
        # one product of the powers of t per Newton pass of an inversion
        # and per `value` lookup: 3 passes for each of the 3 inversions,
        # then the 2 zeta lookups
        checks.build_report("s3-complete", 1.0, 1.0)
        calls = _count_calls(monkeypatch, numerics, "_polynomial")
        checks.build_report("s3-complete", 1.0, 1.0)
        columns = [coef.shape[-1] for coef, _ in calls]
        assert columns == [2] * 6 + [1] + [2] * 3 + [1], columns

    @pytest.mark.parametrize("family, n_calls", [("s3-local", 4), ("s3-complete", 3)])
    def test_zeta_lookups_per_warm_report(self, monkeypatch, family, n_calls):
        cstar = None if family == "s3-local" else 1.0
        checks.build_report(family, 1.0, cstar)
        calls = _count_calls(monkeypatch, spherical.family(1.0)._zeta_cum, "value")
        checks.build_report(family, 1.0, cstar)
        assert len(calls) == self.ZETA_LOOKUPS[family] <= n_calls, [np.size(x) for (x,) in calls]

    def test_junction_coefficients_once_per_atlas(self, monkeypatch):
        # the junction rows read one coefficient set per atlas, from one call
        # of the strip rates' terms on the two roots; a warm report computes none
        gluing.atlas.cache_clear()
        calls = _count_calls(monkeypatch, gluing.GluingAtlas, "_rate_terms")
        checks.build_report("s3-complete", 1.0, 1.0)
        roots = gluing.atlas(1.0, 1.0).roots
        at_roots = lambda: sum(np.array_equal(xi, [roots.xi01, roots.xi02]) for xi, _ in calls)
        assert at_roots() == 1
        calls.clear()
        checks.build_report("s3-complete", 1.0, 1.0)
        assert calls and at_roots() == 0

    def test_revolution_makes_one_oracle_call(self, monkeypatch):
        checks.build_report("revolution", 1.0, 1.0)
        calls = _count_calls(monkeypatch, diffgeo, "shape_operator")
        forms = _count_calls(monkeypatch, diffgeo, "fundamental_forms")
        checks.build_report("revolution", 1.0, 1.0)
        assert len(calls) == 1 and forms == []

    @pytest.mark.parametrize("family, n_calls", [("r3", 3), ("s3-local", 1), ("s3-complete", 1),
                                                 ("revolution", 1)])
    def test_evaluator_calls_per_warm_report(self, monkeypatch, family, n_calls):
        # one jet call per oracle entry point.  The consistency rows' jets
        # ride on the residual's call, the revolution report's on its one
        # shape-operator call; r3 sizes its stencils from the jets of its K
        # identity's call, the other reports from closed forms at the
        # samples' known profile values, so the sphere reports' metric and
        # K rows ride on the residual's call too
        cstar = None if family in ("r3", "s3-local") else 1.0
        checks.build_report(family, 1.0, cstar)
        owner, name = {"r3": (euclidean, "immersion_XC_partials"),
                       "s3-local": (spherical.SphereFamily, "immersion_partials"),
                       "s3-complete": (gluing.GluingAtlas, "immersion_phi_partials"),
                       "revolution": (gluing.GluingAtlas, "immersion_psi_partials")}[family]
        calls = _count_calls(monkeypatch, owner, name)
        checks.build_report(family, 1.0, cstar)
        assert len(calls) == n_calls

    def test_warm_s3_local_report_solves_no_root(self, monkeypatch):
        # the family's roots are cached with it, and the metric route's
        # roots at C = 0.8 and 2.0 once per process
        checks.build_report("s3-local", 1.0)
        calls = _count_calls(monkeypatch, spherical, "find_root")
        checks.build_report("s3-local", 1.0)
        assert calls == []


@pytest.mark.parametrize("C", [1e-3, 1.0, 20.0, 1e3])
def test_profile_evaluations_per_warm_r3_report(monkeypatch, C):
    # the report inverts the profile t(rho) at 12 heights, each by a
    # doubling bracket and a root solve to 1e-14 r0: 180-183 evaluations by
    # Illinois false position, where alternating secant and bisection
    # steps took 559-615
    checks.build_report("r3", C)
    calls = _count_calls(monkeypatch, euclidean, "profile_t")
    checks.build_report("r3", C)
    assert len(calls) <= 200


class TestMergedCalls:
    """The oracle calls that a report merges give each point the bits that
    separate calls give it: the revolution report's one `shape_operator`
    call over its curvature heights, the heights of its mean-curvature
    samples, its metric heights and its consistency stencils; the shape
    operators that the sphere reports read at the ride points of their
    residual's call; and the first forms that the reports read from a
    shape-operator call in place of a `fundamental_forms` call."""

    FIELDS = ("E", "F", "G", "normal", "shape", "f", "K", "jet")

    @pytest.fixture(scope="class")
    def at(self):
        return gluing.atlas(1.0, 1.0)

    @staticmethod
    def assert_same_bits(merged, *parts):
        apart = np.concatenate(parts)
        assert merged.shape == apart.shape and merged.tobytes() == apart.tobytes()

    @staticmethod
    def psi_samples(at):
        """The revolution report's patch and its four point sets (u, v)."""
        m1, p1 = at.h_limits
        patch = at.psi_patch((m1 - (p1 - m1), at.grid[2]))
        heights = checks._strip_interior_samples(at, (0, 1), 5, margin=0.06)
        xi = at.roots.xi01 + np.linspace(0.08, 0.92, 16) * (at.roots.xi02 - at.roots.xi01)
        h_metric = checks._strip_interior_samples(at, (-1, 0, 1), 10)
        stencil, _ = diffgeo.consistency(patch, heights, 0.4, at.psi_jet_lengths(at.F(heights)))
        return patch, [(hs, np.full_like(hs, 0.4)) for hs in (heights, at.h0(xi), h_metric)] + [
            stencil]

    def test_psi_shape_operator(self, at):
        patch, parts = self.psi_samples(at)
        merged = diffgeo.shape_operator(patch, *(np.concatenate(x) for x in zip(*parts)))
        apart = [diffgeo.shape_operator(patch, *uv) for uv in parts]
        for name in self.FIELDS:
            self.assert_same_bits(getattr(merged, name), *(getattr(a, name) for a in apart))

    def test_ride_shape_operators(self, at):
        # the s3-complete report's metric heights on its residual's call
        m1, p1 = at.h_limits
        patch = at.phi_patch((m1 - (p1 - m1), at.grid[2]))
        h_metric = checks._strip_interior_samples(at, (-1, 0, 1), 10)
        ride = (h_metric, np.full_like(h_metric, 0.4))
        h_res = checks._strip_interior_samples(at, (0, 1), 5, margin=0.08)
        _, merged = diffgeo.biconservativity_residual(
            patch, h_res, 0.3, jet_lengths_at(patch, h_res, 0.3), ride)
        alone = diffgeo.shape_operator(patch, *ride)
        for name in self.FIELDS:
            self.assert_same_bits(getattr(merged, name), getattr(alone, name))

    @pytest.mark.parametrize("family", ["revolution", "s3-local"])
    def test_first_forms_from_the_shape_operator(self, at, family):
        if family == "revolution":
            patch, parts = self.psi_samples(at)
            us = parts[2][0]
            shape = diffgeo.shape_operator(patch, *(np.concatenate(x) for x in zip(*parts[:3])))
            shape = shape[-len(us):]
        else:
            patch = spherical.family(1.0).patch()
            us = patch.grid(10, 4)[0]
            shape = diffgeo.shape_operator(patch, us, 0.4)
        for got, want in zip((shape.E, shape.F, shape.G),
                             diffgeo.fundamental_forms(patch, us, 0.4)):
            self.assert_same_bits(got, want)


@pytest.mark.parametrize("C", [10.0, 50.0])
def test_s3_local_root_and_curvature_bounds_scale_free(C):
    # both quantities grow with C; relative to their size they sit near rounding
    res = checks.s3_local_checks(C, GRID, SEED)
    assert res["root_identities"].value < 1e-14
    assert res["curvature_c_independent"].value < 1e-9


@given(log_c=st.floats(-12.0, 15.0))
@settings(max_examples=25, deadline=None)
def test_r3_passes_over_the_admissible_range(log_c):
    # lengths in units of C1^{-3/2} and curvatures in C1^3: no r3 bound
    # depends on where C sits in [1e-12, 1e15]
    C = 10.0 ** log_c
    report, _ = checks.build_report("r3", C)
    failing = {k: v["value"] for k, v in report["checks"].items() if not v["pass"]}
    assert report["overall_pass"] and not failing, (C, failing)


class TestControlsCanFail:
    @pytest.mark.parametrize("C", [1e-6, 1.0, 1e6])
    def test_r3_negative_control_reads_the_mismatch(self, C):
        # pieces of C1 and 2 C1: the mean-curvature gap is 2/3 (2^{3/2} - 1) C1^{3/2}
        res = checks.r3_checks(C, GRID, SEED)["gluing_negative_control"]
        assert res.comparison == "ge"
        assert res.value == pytest.approx(2.0 / 3.0 * (2.0 ** 1.5 - 1.0), rel=1e-12)
        assert res.passed

    def test_grid_formula_sees_a_moved_junction(self, monkeypatch):
        at = gluing.GluingAtlas(1.0, 1.0)
        assert checks.s3_complete_checks(1.0, 1.0, 0.0, GRID, SEED)["grid_formula"].value < 1e-13
        at.grid[5] += 1e-9
        monkeypatch.setattr(gluing, "atlas", lambda *args, **kwargs: at)
        res = checks.s3_complete_checks(1.0, 1.0, 0.0, GRID, SEED)["grid_formula"]
        assert res.value == pytest.approx(1e-9, rel=1e-3)
        assert res.worst_at == (5.0,)
        assert not res.passed


@pytest.mark.parametrize("c0", [0.0, 0.7])
def test_complete_report_leaves_psi_to_the_revolution_report(monkeypatch, c0):
    # Psi does not depend on c0: the revolution report checks it, once
    def refused(*args, **kwargs):
        raise AssertionError("the s3-complete report evaluates Psi")
    for name in ("psi_patch", "immersion_psi", "immersion_psi_partials"):
        monkeypatch.setattr(gluing.GluingAtlas, name, refused)
    report, _ = checks.build_report("s3-complete", 1.0, 1.0, c0=c0)
    assert [name for name in report["checks"] if name.startswith("psi_")] == []


# (C, family): bounds on the gap between a report's oracle calls (a
# residual's ride points count as a shape-operator call) and the
# point-by-point oracle, whose second partials are central differences
# of the first at 2e-5 of the jets' length scale where the report's are
# closed forms: (shape-operator fields relative to 1 + their size,
# residual).  The largest gaps measured over the call's points, at C = 1,
# 1.001 C_MIN and 20: the fields 2.9e-10 / 3.1e-10 / 1.0e-10 (r3),
# 2.1e-9 / 1.4e-8 / 1.9e-6 (s3-local), 1.6e-8 / 2.3e-7 / 2.1e-8
# (s3-complete, whose samples at the junctions put the reference's
# stencil across them) and 3.8e-10 / 4.6e-9 / 9.7e-7 (revolution); the
# residuals 3.1e-8 / 6.4e-8 / 4.9e-8 (r3), 2.3e-7 / 1.7e-6 / 7.9e-7
# (s3-local) and 2.2e-8 / 3.1e-7 / 6.0e-9 (s3-complete).  Each bound is 3
# to 10 times its gap, except five kept from when the reference stepped
# 1e-5 of the width, whose gaps the shorter steps' rounding raised:
# s3-complete's fields at C = 1 (1.9 times), revolution's at 1.001 C_MIN
# (2.2), s3-local's fields at 1.001 C_MIN (2.9) and both of its gaps at
# C = 20 (2.1, 2.5).  The residual gap is the reference's
# own error: its differenced second partials' error over the curvature
# step, which the jets' length scale makes shorter than 1e-3 of the width
ORACLE_GAP = {
    ("C1", "r3"): (2e-9, 2e-7), ("C1", "s3-local"): (1e-8, 2e-6),
    ("C1", "s3-complete"): (3e-8, 2e-7), ("C1", "revolution"): (2e-9, None),
    ("Cmin", "r3"): (2e-9, 3e-7), ("Cmin", "s3-local"): (4e-8, 1e-5),
    ("Cmin", "s3-complete"): (1e-6, 2e-6), ("Cmin", "revolution"): (1e-8, None),
    ("C20", "r3"): (1e-9, 3e-7), ("C20", "s3-local"): (4e-6, 2e-6),
    ("C20", "s3-complete"): (1e-7, 5e-8), ("C20", "revolution"): (5e-6, None),
}


@pytest.mark.parametrize("family", checks.FAMILIES)
@pytest.mark.parametrize("C", [1.0, 1.001 * spherical.C_MIN, 20.0], ids=["C1", "Cmin", "C20"])
def test_report_oracle_calls_match_the_scalar_oracle(request, monkeypatch, family, C):
    # every oracle call of the report, against the point-by-point oracle
    rel, residual_tol = ORACLE_GAP[request.node.callspec.id.split("-")[0], family]
    calls, depth = [], [0]
    for name in ("shape_operator", "biconservativity_residual"):
        def recorded(patch, u, v, *lengths_ride, fn=getattr(diffgeo, name), name=name):
            depth[0] += 1
            try:
                out = fn(patch, u, v, *lengths_ride)
            finally:
                depth[0] -= 1
            if depth[0] == 0 and name == "shape_operator":  # not a residual's stencil call
                calls.append((name, patch, *np.broadcast_arrays(u, v), out))
            elif depth[0] == 0:  # the residual, and the shape operators at its ride points
                calls.append((name, patch, *np.broadcast_arrays(u, v), out[0]))
                calls.append(("shape_operator", patch, *lengths_ride[1], out[1]))
            return out
        monkeypatch.setattr(diffgeo, name, recorded)
    cstar = 0.5 * gluing.cstar_range(C).upper if family in ("s3-complete", "revolution") else None
    checks.build_report(family, C, cstar)
    monkeypatch.undo()
    # revolution's one oracle call is the shape operator; a residual's ride
    # points count as a shape-operator call
    assert {c[0] for c in calls} == {"revolution": {"shape_operator"}}.get(
        family, {"shape_operator", "biconservativity_residual"})
    for name, patch, us, vs, out in calls:
        if name == "shape_operator":
            assert_matches_reference(patch, us, vs, out, rel=rel)
        else:
            assert_matches_reference(patch, us, vs, diffgeo.shape_operator(patch, us, vs), out,
                                     rel=rel, residual_tol=residual_tol)
