"""The one sampling reduction behind every sampled check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biconsurf import checks, diffgeo, gluing, numerics, spherical
from conftest import assert_matches_reference


class TestWorst:
    def test_picks_the_largest_sample(self):
        res = checks._worst(lambda x, y: x * y, [(1.0, 2.0), (3.0, -1.0), (2.0, 2.5)], 10.0)
        assert res.value == 5.0
        assert res.worst_at == (2.0, 2.5)
        assert res.n_samples == 3
        assert res.passed

    def test_nan_sample_fails_the_check(self):
        # max(0.0, nan) is 0.0: a running max would drop this sample
        res = checks._worst(lambda x: math.nan if x == 2.0 else x,
                            [(1.0,), (2.0,), (3.0,)], 10.0)
        assert math.isnan(res.value)
        assert res.worst_at == (2.0,)
        assert not res.passed
        assert res.as_dict()["pass"] is False

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            checks._worst(lambda x: 0.0, [], 1.0)

    def test_report_keys_unchanged(self):
        res = checks._worst(lambda x: x, [(0.5,)], 1.0)
        assert set(res.as_dict()) == {"value", "tolerance", "comparison", "informational", "pass"}


class TestSampleCounts:
    """Sample counts at C = C* = 1, so that a rewrite cannot drop samples."""

    def test_s3_local(self):
        res = checks.s3_local_checks(1.0)
        assert res["sphere_norm"].n_samples == 256
        assert res["root_identities"].n_samples == 2

    def test_s3_complete(self):
        res = checks.s3_complete_checks(1.0, 1.0)
        assert res["sphere_norm"].n_samples == 256
        assert res["phase_recursion_vs_closed_form"].n_samples == 51
        assert res["junction_continuity"].n_samples == 6
        assert res["psi_radius_range"].n_samples == 64


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


class TestTableCalls:
    """A report looks its heights up a sample set at a time: each call of
    the height table's inverse covers all the heights of one evaluator
    call or one check (15 calls for the 719 heights of a warm s3-complete
    report at C = C* = 1, 6 for revolution's 212)."""

    @pytest.mark.parametrize("family, most", [("s3-complete", 20), ("revolution", 8)])
    def test_inversion_calls_per_warm_report(self, monkeypatch, family, most):
        checks.build_report(family, 1.0, 1.0)
        sizes = []
        inverse = numerics.CumulativeQuadrature.inverse
        monkeypatch.setattr(numerics.CumulativeQuadrature, "inverse",
                            lambda self, y: sizes.append(np.size(y)) or inverse(self, y))
        checks.build_report(family, 1.0, 1.0)
        assert 0 < len(sizes) <= most, sizes
        assert sum(sizes) > 10 * len(sizes), sizes


@pytest.mark.parametrize("C", [10.0, 50.0])
def test_s3_local_root_and_curvature_bounds_scale_free(C):
    # both quantities grow with C; relative to their size they sit near rounding
    res = checks.s3_local_checks(C)
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
        res = checks.r3_checks(C)["gluing_negative_control"]
        assert res.comparison == "ge"
        assert res.value == pytest.approx(2.0 / 3.0 * (2.0 ** 1.5 - 1.0), rel=1e-12)
        assert res.passed

    def test_grid_formula_sees_a_moved_junction(self, monkeypatch):
        at = gluing.GluingAtlas(1.0, 1.0)
        assert checks.s3_complete_checks(1.0, 1.0)["grid_formula"].value < 1e-13
        at.grid[5] += 1e-9
        monkeypatch.setattr(gluing, "atlas", lambda *args, **kwargs: at)
        res = checks.s3_complete_checks(1.0, 1.0)["grid_formula"]
        assert res.value == pytest.approx(1e-9, rel=1e-3)
        assert res.worst_at == (5.0,)
        assert not res.passed


def test_complete_report_shares_its_atlas_with_psi():
    # Psi does not depend on c0: a cold c0 != 0 report builds one atlas
    gluing.atlas.cache_clear()
    complete, _ = checks.build_report("s3-complete", 1.0, 1.0, c0=0.7)
    assert gluing.atlas.cache_info().misses == 1
    revolution, _ = checks.build_report("revolution", 1.0, 1.0)
    for name, res in revolution["checks"].items():
        assert complete["checks"]["psi_" + name] == res


@pytest.mark.parametrize("family", checks.FAMILIES)
@pytest.mark.parametrize("C", [1.0, 1.001 * spherical.C_MIN, 20.0], ids=["C1", "Cmin", "C20"])
def test_report_oracle_calls_match_the_scalar_oracle(monkeypatch, family, C):
    # every oracle call of the report, against the point-by-point oracle
    calls, depth = [], [0]
    for name in ("shape_operator", "biconservativity_residual"):
        def recorded(patch, u, v, fn=getattr(diffgeo, name), name=name):
            depth[0] += 1
            try:
                out = fn(patch, u, v)
            finally:
                depth[0] -= 1
            if depth[0] == 0:  # not the residual's own stencil call
                calls.append((name, patch, *np.broadcast_arrays(u, v), out))
            return out
        monkeypatch.setattr(diffgeo, name, recorded)
    cstar = 0.5 * gluing.cstar_range(C).upper if family in ("s3-complete", "revolution") else None
    checks.build_report(family, C, cstar)
    monkeypatch.undo()
    # revolution has no residual check
    assert {c[0] for c in calls} >= {"shape_operator"} | (
        set() if family == "revolution" else {"biconservativity_residual"})
    for name, patch, us, vs, out in calls:
        if name == "shape_operator":
            assert_matches_reference(patch, us, vs, out)
        else:
            assert_matches_reference(patch, us, vs, diffgeo.shape_operator(patch, us, vs), out)
