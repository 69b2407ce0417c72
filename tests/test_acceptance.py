"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Grid sizes and tolerances here are the contract; they are not tuned
per-machine.  Everything runs in seconds.
"""

import json
import math

import numpy as np
import pytest

from biconsurf import checks, cli, diffgeo, euclidean, gluing, spherical
from conftest import bisect_root, curvature_f, reference_second_order, refined_singular_integral


@pytest.fixture(scope="module")
def atlas11():
    return gluing.atlas(1.0, 1.0)


def _report(name, worst, tol, ok=None):
    ok = (worst <= tol) if ok is None else ok
    print(f"{'PASS' if ok else 'FAIL'} {name}: worst={worst:.3e} tol={tol:.1e}")
    return ok


# 1 ---------------------------------------------------------------------

def test_criterion_1_root_identities():
    worst = 0.0
    ok = True
    for C in (0.8, 1.0, 2.0, 5.0):
        r = spherical.domain_roots(C)
        worst = max(worst, abs(float(spherical.T(C, r.xi01))),
                    abs(float(spherical.T(C, r.xi02))))
        ok = ok and (r.xi01 < (2.25 * C) ** 1.5 < r.xi02) and (r.xi01 > C ** -0.5)
    T1 = lambda x: -x ** (8.0 / 3.0) + 3.0 * x * x - 3.0
    lo = bisect_root(T1, 1e-9, 3.375)
    hi = bisect_root(T1, 3.375, 10.0)
    r1 = spherical.domain_roots(1.0)
    oracle_gap = max(abs(r1.xi01 - lo), abs(r1.xi02 - hi))
    ok = ok and oracle_gap <= 1e-9
    assert _report("criterion 1 (root identities)", max(worst, oracle_gap), 1e-10, ok and worst <= 1e-10)


# 2 ---------------------------------------------------------------------

def test_criterion_2_metric_pullbacks(atlas11):
    worst_closed = 0.0
    par = euclidean.FamilyParamsR3.from_C(1.0)
    patch = euclidean.xc_patch(par)
    us, vs = patch.grid(32, 32)
    for u in us:
        for v in vs:
            E, F, G = diffgeo.fundamental_forms(patch, float(u), float(v))
            c = euclidean.conformal_factor(par, float(u))
            worst_closed = max(worst_closed, abs(E - c) / c, abs(F) / c, abs(G - c) / c)
    ok = _report("criterion 2a (X metric pullback)", worst_closed, 1e-8)

    fam = spherical.family(1.0)
    sp = fam.patch()
    xis, ths = sp.grid(32, 32)
    worst_phi = 0.0
    for xi in xis:  # one row of theta per call
        E, F, G = diffgeo.fundamental_forms(sp, np.full(len(ths), xi), ths)
        Ec, Gc = spherical.metric_gC(1.0, float(xi))
        worst_phi = max(worst_phi, *np.abs(E - Ec) / Ec, *np.abs(F) / Gc, *np.abs(G - Gc) / Gc)
    ok &= _report("criterion 2b (strip metric pullback)", worst_phi, 1e-8)

    at = atlas11
    m1, p1 = at.h_limits
    delta = p1 - m1
    hs = np.concatenate([
        np.linspace(m1 - delta + 0.02 * delta, m1 - 0.02 * delta, 10),
        np.linspace(m1 + 0.02 * delta, p1 - 0.02 * delta, 12),
        np.linspace(p1 + 0.02 * delta, p1 + delta - 0.02 * delta, 10),
    ])
    ths = np.linspace(0.05, 0.95, 32)
    ppsi = at.psi_patch((m1 - delta, p1 + delta))
    pphi = at.phi_patch((m1 - delta, p1 + delta))
    worst_psi = 0.0
    worst_glued = 0.0
    for h in hs:  # one row of theta per call
        Ec, Gc = at.psi_metric(float(h))
        E, F, G = diffgeo.fundamental_forms(ppsi, np.full(len(ths), h), ths)
        worst_psi = max(worst_psi, *np.abs(E - Ec) / Ec, *np.abs(F) / Ec, *np.abs(G - Gc) / Gc)
        E, F, G = diffgeo.fundamental_forms(pphi, np.full(len(ths), h), ths)
        worst_glued = max(worst_glued, *np.abs(E - Ec) / Ec, *np.abs(F) / Ec, *np.abs(G - Gc) / Gc)
    ok &= _report("criterion 2c (revolution metric pullback)", worst_psi, 1e-6)
    ok &= _report("criterion 2d (glued metric pullback)", worst_glued, 1e-6)
    assert ok


# 3 ---------------------------------------------------------------------

def test_criterion_3_curvature_identities():
    par = euclidean.FamilyParamsR3.from_C(1.0)
    patch = euclidean.xc_patch(par)
    worst_x = 0.0
    for u in np.linspace(-1.45, 1.45, 32):
        d = diffgeo.shape_operator(patch, float(u), 0.4)
        worst_x = max(worst_x, abs(d.K - euclidean.gauss_curvature(par, float(u))))
    ok = _report("criterion 3a (X curvature identity)", worst_x, 1e-6)

    worst_s = 0.0
    profiles = {}
    for C in (0.8, 1.0, 2.0):
        r = spherical.domain_roots(C)
        vals = []
        for frac in np.linspace(0.15, 0.85, 8):
            xi = r.xi01 + frac * (r.xi02 - r.xi01)
            kb = diffgeo.gauss_curvature_from_metric(
                lambda x, C=C: spherical.metric_gC(C, x)[0],
                lambda x: 1.0 / (x * x), float(xi),
                scale=r.xi02 - r.xi01, dG=lambda x: -2.0 / x ** 3)
            worst_s = max(worst_s, abs(kb - spherical.gauss_curvature_DC(float(xi))))
            vals.append(kb)
        profiles[C] = vals
    ok &= _report("criterion 3b (strip curvature identity)", worst_s, 1e-6)

    # same xi-fractions map to different xi per C, so compare through the
    # closed form: identity already implies C-independence; check directly
    # that curvature at matching xi values agrees across C where strips overlap
    worst_ci = 0.0
    r08 = spherical.domain_roots(0.8)
    r10 = spherical.domain_roots(1.0)
    overlap = (max(r08.xi01, r10.xi01) + 0.2, min(r08.xi02, r10.xi02) - 0.2)
    for xi in np.linspace(*overlap, 6):
        k_a = diffgeo.gauss_curvature_from_metric(
            lambda x: spherical.metric_gC(0.8, x)[0], lambda x: 1.0 / (x * x),
            float(xi), scale=2.0, dG=lambda x: -2.0 / x ** 3)
        k_b = diffgeo.gauss_curvature_from_metric(
            lambda x: spherical.metric_gC(1.0, x)[0], lambda x: 1.0 / (x * x),
            float(xi), scale=2.0, dG=lambda x: -2.0 / x ** 3)
        worst_ci = max(worst_ci, abs(k_a - k_b))
    ok &= _report("criterion 3c (curvature C-independence)", worst_ci, 1e-6)
    assert ok


# 4 ---------------------------------------------------------------------

def test_criterion_4_biconservativity(atlas11):
    worst = 0.0
    for C in (1.0, 4.0):
        par = euclidean.FamilyParamsR3.from_C(C)
        patch = euclidean.xc_patch(par)
        us, vs = patch.grid(16, 16)
        for u in us:
            if abs(u) <= 1e-3 * 3.0:
                continue
            for v in vs:
                worst = max(worst, diffgeo.biconservativity_residual(patch, float(u), float(v)))
    ok = _report("criterion 4a (X residual)", worst, 1e-4)

    sp = spherical.family(1.0).patch()
    xis, ths = sp.grid(16, 16, margin=1e-3)
    worst_p = 0.0
    for xi in xis:  # one row of theta per call
        worst_p = max(worst_p, *diffgeo.biconservativity_residual(sp, np.full(len(ths), xi), ths))
    ok &= _report("criterion 4b (strip residual)", worst_p, 1e-4)

    at = atlas11
    m1, p1 = at.h_limits
    delta = p1 - m1
    pphi = at.phi_patch((m1 - delta, p1 + delta))
    band = max(1e-3 * delta, 0.02 * delta)
    hs = np.concatenate([
        np.linspace(m1 - delta + band, m1 - band, 5),
        np.linspace(m1 + band, p1 - band, 6),
        np.linspace(p1 + band, p1 + delta - band, 5),
    ])
    worst_g = 0.0
    ths = np.linspace(0.05, 0.95, 16)
    for h in hs:  # one row of theta per call
        worst_g = max(worst_g, *diffgeo.biconservativity_residual(pphi, np.full(len(ths), h), ths))
    ok &= _report("criterion 4c (glued residual)", worst_g, 1e-4)
    assert ok


# 5 ---------------------------------------------------------------------

def test_criterion_5_prime_integral():
    # the report's closed-form rows at C = 1: P = 0 and k'' = f(k) across
    # the strip, and P = 0 at rest at both roots; then the trajectory: one
    # half period of the reference stepper from k01 at rest turns at k02,
    # after the meridian's length, here from an independent quadrature
    rows = checks.s3_local_checks(1.0, grid=10, seed=12345)
    ok = True
    for name in ("prime_integral", "curvature_equation", "prime_integral_at_roots"):
        ok &= _report(f"criterion 5 ({name})", rows[name].value, 1e-8)
    par = spherical.FamilyParamsS3(1.0)
    r = spherical.domain_roots(1.0)
    t_turn, k_turn = reference_second_order(curvature_f(par.C1), r.k01, 0.0, 100.0, 1e-3).turn[:2]
    T1 = lambda x: -x ** (8.0 / 3.0) + 3.0 * x * x - 3.0
    length, _ = refined_singular_integral(lambda x: math.sqrt(3.0 / T1(x)) / x,
                                          r.xi01, r.xi02, True, True)
    ok &= _report("criterion 5 (arrival at k02)", abs(k_turn - r.k02) / r.k02, 1e-6)
    ok &= _report("criterion 5 (half period vs meridian length)",
                  abs(t_turn - length) / length, 1e-7)
    assert ok


# 6 ---------------------------------------------------------------------

def test_criterion_6_gluing(atlas11):
    at = atlas11
    m1, p1 = at.h_limits
    worst_grid = 0.0
    for k in range(1, 26):
        expected_p = k * p1 - (k - 1) * m1
        expected_m = k * m1 + (1 - k) * p1   # label -k
        worst_grid = max(worst_grid, abs(at.h_grid_point(k) - expected_p),
                         abs(at.h_grid_point(-k) - expected_m))
    worst_phase = max(gluing.phase_distance(at.phase(k), at.phase_by_recursion(k))
                      for k in range(-25, 26))
    ok = _report("criterion 6a (grid + phase identities)",
                 max(worst_grid, worst_phase), 1e-12)

    rng = np.random.default_rng(2024)
    worst_per = max(abs(at.F(float(h) + at.period) - at.F(float(h)))
                    for h in rng.uniform(m1, p1, 16))
    ok &= _report("criterion 6b (profile periodicity)", worst_per, 1e-12)

    worst_j = 0.0
    for k in (1, -1, 2):
        rep = at.junction_smoothness(k)
        for fn in rep.values():
            for order in fn.values():
                worst_j = max(worst_j, order["relative_mismatch"])
    ok &= _report("criterion 6c (junction C1..C3 matching)", worst_j, 1e-3)

    neg = at.junction_smoothness(1, orders=(1,), functions=("phi1",),
                                 phases=(at.phase(0), at.phase(0)))
    mismatch = neg["phi1"][1]["relative_mismatch"]
    ok &= _report("criterion 6d (negative control breaks C1)", mismatch, 1e-2,
                  ok=mismatch > 1e-2)
    assert ok


# 7 ---------------------------------------------------------------------

def test_criterion_7_sphere_constraint(atlas11):
    rng = np.random.default_rng(99)
    fam = spherical.family(1.0)
    r = fam.roots
    # the points drawn one pair at a time, evaluated in one call
    xi, th = np.array([(rng.uniform(r.xi01 * (1 + 1e-9), r.xi02 * (1 - 1e-9)),
                        rng.uniform(-8.0, 8.0)) for _ in range(1000)]).T
    worst_local = np.max(np.abs(np.linalg.norm(fam.immersion(xi, th), axis=1) - 1.0))
    ok = _report("criterion 7a (strip immersion on the sphere)", worst_local, 1e-10)

    at = atlas11
    h, th = np.array([(rng.uniform(-2.0 * at.period, 2.0 * at.period), rng.uniform(-8.0, 8.0))
                      for _ in range(1000)]).T
    worst_glued = np.max(np.abs(np.linalg.norm(at.immersion_phi(h, th), axis=1) - 1.0))
    ok &= _report("criterion 7b (glued immersion on the sphere)", worst_glued, 1e-10)
    assert ok


# 8 ---------------------------------------------------------------------

def test_criterion_8_level_curve_circles():
    par = euclidean.FamilyParamsR3.from_C(1.0)
    derivs = euclidean.metric_profile_derivs(par)
    worst = 0.0
    for u in np.linspace(0.03, 2.6, 32):
        kg, kf = diffgeo.level_curve_circle_check(derivs, 0.0, float(u))
        worst = max(worst, abs(kg - kf))
    fam = spherical.family(1.0)
    sderivs = fam.metric_profile_derivs()
    r = fam.roots
    for frac in np.linspace(0.05, 0.95, 32):
        xi = r.xi01 + frac * (r.xi02 - r.xi01)
        kg, kf = diffgeo.level_curve_circle_check(sderivs, 1.0, float(xi))
        worst = max(worst, abs(kg - kf))
    assert _report("criterion 8 (level curves are circles)", worst, 1e-8)


# 9 ---------------------------------------------------------------------

def test_criterion_9_homothety_and_boundary():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.05, 4.0, 64), rng.uniform(0.0, 2 * math.pi, 64)
    worst_h = max(np.max(euclidean.homothety_check(c1, *pts)) for c1 in (4.0, 2.3))
    ok = _report("criterion 9a (homothety law)", worst_h, 1e-12)

    rep = euclidean.gluing_conditions_check(
        1.2, 1.2, euclidean.RigidMotion.mirror_z(), n_samples=16)
    worst_m = max(rep["position"], rep["normal_parallelism"],
                  rep["mean_curvature"], rep["grad_mean_curvature"])
    ok &= _report("criterion 9b (mirror boundary matching)", worst_m, 1e-10)

    c1, c1p = 1.2, 1.9
    neg = euclidean.gluing_conditions_check(
        c1, c1p, euclidean.RigidMotion.identity(), n_samples=16)
    expected = 2.0 / 3.0 * abs(c1 ** 1.5 - c1p ** 1.5)
    gap = abs(neg["mean_curvature"] - expected)
    ok &= _report("criterion 9c (negative control curvature gap)", gap, 1e-12)
    assert ok


# 10 --------------------------------------------------------------------

def test_criterion_10_deterministic_reports(tmp_path):
    blobs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli.main(["verify", "--family", "s3-local", "--C", "1",
                         "--grid-n", "5", "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    identical = blobs[0] == blobs[1]
    print(f"{'PASS' if identical else 'FAIL'} criterion 10 (bit-identical reports): "
          f"{len(blobs[0])} bytes")
    rep = json.loads(blobs[0])
    assert rep["overall_pass"] is True
    assert identical
