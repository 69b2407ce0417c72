"""Named verification checks and machine-readable reports.

Each check reduces a geometric identity to a single number compared
against a tolerance; a report is a deterministic JSON-ready dict (fixed
seeds, no timestamps) so repeated runs with the same configuration are
bit-identical.  The CLI `verify` subcommand and the test suite both drive
these.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import diffgeo, euclidean, gluing, spherical

__all__ = [
    "CheckResult",
    "Tolerances",
    "r3_checks",
    "s3_local_checks",
    "s3_complete_checks",
    "revolution_checks",
    "build_report",
    "FAMILIES",
]

FAMILIES = ("r3", "s3-local", "s3-complete", "revolution")


@dataclass(frozen=True)
class CheckResult:
    value: float
    tolerance: float
    comparison: str = "le"   # "le": pass iff value <= tolerance; "ge": >=
    info: bool = False       # informational rows never fail a report

    @property
    def passed(self) -> bool:
        if self.info:
            return True
        if self.comparison == "le":
            return self.value <= self.tolerance
        return self.value >= self.tolerance

    def as_dict(self) -> dict:
        return {
            "value": float(self.value),
            "tolerance": float(self.tolerance),
            "comparison": self.comparison,
            "informational": bool(self.info),
            "pass": bool(self.passed),
        }


@dataclass(frozen=True)
class Tolerances:
    """Tolerance knobs; environment variables BICONSURF_* override."""

    metric_rel: float = 1e-8
    metric_glued_rel: float = 1e-6
    curvature: float = 1e-6
    residual: float = 1e-4
    sphere_norm: float = 1e-10
    roots: float = 1e-10
    prime_integral: float = 1e-8
    junction_rel: float = 1e-3
    phase: float = 1e-12
    homothety: float = 1e-12
    boundary_match: float = 1e-10
    level_curve: float = 1e-8
    psi_mean_curvature: float = 1e-5

    @classmethod
    def from_env(cls) -> "Tolerances":
        kwargs = {}
        for name in cls.__dataclass_fields__:
            env = os.environ.get("BICONSURF_" + name.upper())
            if env is not None:
                kwargs[name] = float(env)
        return cls(**kwargs)


def _max_rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ----------------------------------------------------------------------
# Euclidean family
# ----------------------------------------------------------------------

def r3_checks(C: float, grid: int = 16, seed: int = 12345,
              tols: Tolerances | None = None) -> dict[str, CheckResult]:
    tols = tols or Tolerances()
    par = euclidean.FamilyParamsR3.from_C(C)
    patch = euclidean.xc_patch(par)
    rng = np.random.default_rng(seed)

    us, vs = patch.grid(grid, grid)
    worst_metric = 0.0
    worst_k = 0.0
    for u in us:
        for v in vs[:: max(1, grid // 4)]:
            E, F, G = diffgeo.fundamental_forms(patch, u, v)
            factor = euclidean.conformal_factor(par, u)
            worst_metric = max(worst_metric, _max_rel(E, factor),
                               abs(F) / factor, _max_rel(G, factor))
    for u in us:
        d = diffgeo.shape_operator(patch, u, 0.4)
        worst_k = max(worst_k, abs(d.K - euclidean.gauss_curvature(par, u)))

    worst_res = 0.0
    for u in np.linspace(0.08, 1.45, 8):
        for su in (-1.0, 1.0):
            for v in np.linspace(0.1, 2.0, 3):
                worst_res = max(worst_res, diffgeo.biconservativity_residual(patch, su * u, v))

    comp = euclidean.completeness_bound_check(par, np.linspace(-3.0, 3.0, 101))

    pts = [(float(t), float(v)) for t, v in zip(rng.uniform(0.05, 4.0, 16),
                                                rng.uniform(0.0, 2 * math.pi, 16))]
    hom = euclidean.homothety_check(par.C1, pts)

    mirror = euclidean.gluing_conditions_check(
        par.C1, par.C1, euclidean.RigidMotion.mirror_z(), n_samples=16)
    mirror_worst = max(mirror["position"], mirror["normal_parallelism"],
                       mirror["mean_curvature"], mirror["grad_mean_curvature"])
    neg = euclidean.gluing_conditions_check(
        par.C1, 2.0 * par.C1, euclidean.RigidMotion.identity(), n_samples=8)
    expected_f_gap = 2.0 / 3.0 * abs(par.C1 ** 1.5 - (2.0 * par.C1) ** 1.5)

    derivs = euclidean.metric_profile_derivs(par)
    worst_lc = 0.0
    for u in np.linspace(0.05, 2.5, 16):
        kg, kf = diffgeo.level_curve_circle_check(derivs, 0.0, float(u))
        worst_lc = max(worst_lc, abs(kg - kf))

    worst_rt = 0.0
    for t in rng.uniform(0.01, 5.0, 12):
        x = euclidean.complete_profile_x(par.C1, float(t))
        worst_rt = max(worst_rt, abs(euclidean.profile_t(par.C1, x) - float(t)))

    return {
        "metric_pullback": CheckResult(worst_metric, tols.metric_rel),
        "gauss_curvature_identity": CheckResult(worst_k, tols.curvature),
        "biconservativity_residual": CheckResult(worst_res, tols.residual),
        "completeness_bound": CheckResult(1.0 - comp["min_ratio"], 0.0),
        "homothety": CheckResult(hom["max_mismatch"], tols.homothety),
        "mirror_gluing": CheckResult(mirror_worst, tols.boundary_match),
        "gluing_negative_control": CheckResult(
            abs(neg["mean_curvature"] - expected_f_gap), 1e-12),
        "level_curve_circles": CheckResult(worst_lc, tols.level_curve),
        "profile_roundtrip": CheckResult(worst_rt, 1e-10),
    }


# ----------------------------------------------------------------------
# Sphere family, fundamental strip
# ----------------------------------------------------------------------

def s3_local_checks(C: float, grid: int = 12, seed: int = 12345,
                    tols: Tolerances | None = None) -> dict[str, CheckResult]:
    tols = tols or Tolerances()
    fam = spherical.family(C)
    roots = fam.roots
    rng = np.random.default_rng(seed)

    root_resid = max(abs(float(spherical.T(C, roots.xi01))),
                     abs(float(spherical.T(C, roots.xi02))))
    ordering_ok = roots.xi01 < roots.xi00 < roots.xi02 and roots.xi01 > C ** -0.5
    k_bound_gap = roots.k01 - (16.0 / (9.0 * fam.params.C1)) ** (2.0 / 3.0)

    patch = fam.patch(theta_range=(0.0, 1.0))
    xis, _ = patch.grid(grid, 4)
    worst_metric = 0.0
    worst_k = 0.0
    for xi in xis:
        E, F, G = diffgeo.fundamental_forms(patch, xi, 0.4)
        Ec, Gc = spherical.metric_gC(C, xi)
        worst_metric = max(worst_metric, _max_rel(E, Ec), abs(F) * xi * xi, _max_rel(G, Gc))
        d = diffgeo.shape_operator(patch, xi, 0.4)
        # |K| grows like xi^(8/3) with C: compare relative to the closed-form size
        k_closed = spherical.gauss_curvature_DC(xi)
        worst_k = max(worst_k, abs(d.K - k_closed) / (1.0 + abs(k_closed)))

    # intrinsic curvature straight from the metric coefficients, for a few C
    worst_ci = 0.0
    for Cx in (0.8, C, 2.0):
        rx = spherical.domain_roots(Cx)
        for frac in (0.25, 0.5, 0.75):
            xi = rx.xi01 + frac * (rx.xi02 - rx.xi01)
            kb = diffgeo.gauss_curvature_from_metric(
                lambda x, Cx=Cx: spherical.metric_gC(Cx, x)[0],
                lambda x: 1.0 / (x * x),
                xi, scale=rx.xi02 - rx.xi01,
                dG=lambda x: -2.0 / x ** 3)
            worst_ci = max(worst_ci, abs(kb - spherical.gauss_curvature_DC(xi)))

    worst_norm = 0.0
    for _ in range(256):
        xi = rng.uniform(roots.xi01 * 1.001, roots.xi02 * 0.999)
        th = rng.uniform(0.0, 2.0 * math.pi)
        worst_norm = max(worst_norm, abs(np.linalg.norm(fam.immersion(xi, th)) - 1.0))

    worst_res = 0.0
    for xi in np.linspace(xis[0], xis[-1], 8):
        for th in (0.2, 0.5):
            worst_res = max(worst_res, diffgeo.biconservativity_residual(patch, float(xi), th))

    k_mid = 0.5 * (roots.k01 + roots.k02)
    ode = spherical.curvature_ode_k(fam.params, k_mid, +1)
    confinement = max(roots.k01 - ode["k_min"], ode["k_max"] - roots.k02, 0.0)

    zlims = fam.zeta_limits
    z_vals = [fam.zeta0(x) for x in np.linspace(roots.xi01 + 1e-3, roots.xi02 - 1e-3, 24)]
    z_monotone = float(np.min(np.diff(z_vals)))

    # with b = -1 the bridge has xi = e^{-phi}; sample the middle of the strip
    xi_band = roots.xi01 + np.linspace(0.3, 0.7, 7) * (roots.xi02 - roots.xi01)
    bridge = spherical.bridge_metric_match(C, -1.0, np.log(1.0 / xi_band))

    derivs = fam.metric_profile_derivs()
    worst_lc = 0.0
    for frac in np.linspace(0.1, 0.9, 16):
        xi = roots.xi01 + frac * (roots.xi02 - roots.xi01)
        kg, kf = diffgeo.level_curve_circle_check(derivs, 1.0, float(xi))
        worst_lc = max(worst_lc, abs(kg - kf))

    return {
        "root_identities": CheckResult(root_resid, tols.roots),
        "root_ordering": CheckResult(0.0 if ordering_ok else 1.0, 0.0),
        "k01_above_radius_bound": CheckResult(k_bound_gap, 0.0, comparison="ge"),
        "metric_pullback": CheckResult(worst_metric, tols.metric_rel),
        "gauss_curvature_identity": CheckResult(worst_k, tols.curvature),
        "curvature_c_independent": CheckResult(worst_ci, tols.curvature),
        "sphere_norm": CheckResult(worst_norm, tols.sphere_norm),
        "biconservativity_residual": CheckResult(worst_res, tols.residual),
        "prime_integral_drift": CheckResult(ode["max_drift_relative"], tols.prime_integral),
        "k_confinement": CheckResult(confinement, 1e-6),
        "zeta_monotone": CheckResult(-z_monotone, 0.0),
        "zeta_limits_finite": CheckResult(
            0.0 if all(math.isfinite(z) for z in zlims) else 1.0, 0.0),
        "bridge_metric_match": CheckResult(bridge["max_rel_mismatch"], tols.metric_glued_rel),
        "flat_profile_equation": CheckResult(abs(spherical.c0_ode_residual(1.0)), 1e-10),
        "level_curve_circles": CheckResult(worst_lc, tols.level_curve),
    }


# ----------------------------------------------------------------------
# Glued sphere immersion and the revolution surface
# ----------------------------------------------------------------------

def _strip_interior_samples(at: gluing.GluingAtlas, strips, n, margin=0.02):
    m1, p1 = at.h_limits
    delta = p1 - m1
    out = []
    for k in strips:
        if k == 0:
            lo, hi = m1, p1
        elif k >= 1:
            lo = at.grid[k]
            hi = lo + delta
        else:
            hi = at.grid[k]
            lo = hi - delta
        pad = margin * (hi - lo)
        out.extend(float(x) for x in np.linspace(lo + pad, hi - pad, n))
    return out


def _profile_metric_pullback(at: gluing.GluingAtlas, patch, grid: int) -> float:
    """Worst relative mismatch of the patch's first form against the
    periodic-profile metric, on strips -1, 0 and 1 with junction bands excluded."""
    worst = 0.0
    for h in _strip_interior_samples(at, (-1, 0, 1), grid):
        E, F, G = diffgeo.fundamental_forms(patch, h, 0.4)
        Ec, Gc = at.psi_metric(h)
        worst = max(worst, _max_rel(E, Ec), abs(F) / Ec, _max_rel(G, Gc))
    return worst


def _junction_continuity(at: gluing.GluingAtlas) -> float:
    """Phase-level value agreement of the glued components at junctions.

    The one-sided limits are closed-form in the phases, so the exact
    identity is checked directly: adjacent strips must produce the same
    first two components at the shared root.  (A numeric probe at small
    offsets would only re-measure the profile inverse's representation
    floor, which scales with the root size.)
    """
    worst = 0.0
    for j in (-2, -1, 0, 1, 2, 3):
        xi, zlim = at._junction_data(j)
        k_right = 0 if j == 0 else j       # strip just above the junction
        k_left = 0 if j == 1 else j - 1    # strip just below
        R = at.family.radius(xi)
        ca, cb = at.phase(k_left), at.phase(k_right)
        p1a = R * math.cos(zlim + ca)
        p1b = R * math.cos(zlim + cb)
        p2a = (-1.0 if k_left % 2 else 1.0) * R * math.sin(zlim + ca)
        p2b = (-1.0 if k_right % 2 else 1.0) * R * math.sin(zlim + cb)
        worst = max(worst, abs(p1a - p1b), abs(p2a - p2b))
    return worst


def s3_complete_checks(C: float, Cstar: float, c0: float = 0.0,
                       grid: int = 10, seed: int = 12345,
                       tols: Tolerances | None = None) -> dict[str, CheckResult]:
    tols = tols or Tolerances()
    at = gluing.atlas(C, Cstar, c0=c0)
    rng = np.random.default_rng(seed)
    m1, p1 = at.h_limits
    delta = p1 - m1

    worst_grid = 0.0
    for k in range(1, at.k_max + 1):
        worst_grid = max(worst_grid, abs(at.grid[k] - (k * p1 - (k - 1) * m1)))
        worst_grid = max(worst_grid, abs(at.grid[-k] - (k * m1 - (k - 1) * p1)))
    spacing = max(abs((at.grid[k + 1] - at.grid[k]) - delta)
                  for k in range(1, at.k_max))

    worst_phase = max(gluing.phase_distance(at.phase(k), at.phase_by_recursion(k))
                      for k in range(-25, 26))

    worst_fper = 0.0
    for h in rng.uniform(m1 + 0.05 * delta, p1 - 0.05 * delta, 12):
        worst_fper = max(worst_fper, abs(at.F(h + at.period) - at.F(h)),
                         abs(at.F(h - at.period) - at.F(h)))
    f_junctions = max(abs(at.F(p1) - at.roots.xi02),
                      abs(at.F(m1) - at.roots.xi01),
                      abs(at.F(0.0) - at.roots.xi00))

    worst_junction = 0.0
    for k in (1, -1, 2):
        rep = at.junction_smoothness(k)
        for fn in rep.values():
            for order in fn.values():
                worst_junction = max(worst_junction, order["relative_mismatch"])
    neg = at.with_rejected_phases().junction_smoothness(1, orders=(1,), functions=("phi1",))
    neg_mismatch = neg["phi1"][1]["relative_mismatch"]

    worst_norm = 0.0
    for _ in range(256):
        h = rng.uniform(m1 - at.period, p1 + at.period)
        th = rng.uniform(0.0, 2.0 * math.pi)
        worst_norm = max(worst_norm, abs(np.linalg.norm(at.immersion_phi(h, th)) - 1.0))

    hpatch = at.phi_patch((m1 - delta, at.grid[2]), (0.0, 1.0))
    worst_metric = _profile_metric_pullback(at, hpatch, grid)

    cont = _junction_continuity(at)

    worst_res = 0.0
    for h in _strip_interior_samples(at, (0, 1), 5, margin=0.08):
        worst_res = max(worst_res, diffgeo.biconservativity_residual(hpatch, h, 0.3))

    probe = at.periodicity_probe()

    out = {
        "grid_formula": CheckResult(worst_grid, tols.phase),
        "grid_spacing": CheckResult(spacing, tols.phase),
        "phase_recursion_vs_closed_form": CheckResult(worst_phase, tols.phase),
        "profile_periodicity": CheckResult(worst_fper, tols.phase),
        "profile_junction_values": CheckResult(f_junctions, tols.phase),
        "junction_smoothness": CheckResult(worst_junction, tols.junction_rel),
        "junction_negative_control": CheckResult(
            neg_mismatch, 10.0 * tols.junction_rel, comparison="ge"),
        "sphere_norm": CheckResult(worst_norm, tols.sphere_norm),
        "metric_pullback": CheckResult(worst_metric, tols.metric_glued_rel),
        "junction_continuity": CheckResult(cont, 1e-10),
        "biconservativity_residual": CheckResult(worst_res, tols.residual),
        "periodicity_phase_defect": CheckResult(probe["phase_defect"], math.inf, info=True),
    }
    out.update(revolution_checks(C, Cstar, grid=grid, seed=seed, tols=tols,
                                 prefix="psi_"))
    return out


def revolution_checks(C: float, Cstar: float, grid: int = 10, seed: int = 12345,
                      tols: Tolerances | None = None, prefix: str = "") -> dict[str, CheckResult]:
    tols = tols or Tolerances()
    at = gluing.atlas(C, Cstar)
    rng = np.random.default_rng(seed + 1)
    m1, p1 = at.h_limits
    delta = p1 - m1

    admissible = gluing.cstar_range(C).contains(Cstar)

    patch = at.psi_patch((m1 - delta, at.grid[2]))
    worst_metric = _profile_metric_pullback(at, patch, grid)
    worst_kbound = -math.inf
    worst_kmatch = 0.0
    for h in _strip_interior_samples(at, (0, 1), 5, margin=0.06):
        d = diffgeo.shape_operator(patch, h, 0.4)
        k_closed = spherical.gauss_curvature_DC(at.F(h))
        # curvature magnitudes grow like the strip width^(8/3): compare
        # relative to the closed-form size
        worst_kmatch = max(worst_kmatch, abs(d.K - k_closed) / (1.0 + abs(k_closed)))
        worst_kbound = max(worst_kbound, d.K - 1.0)

    worst_f = 0.0
    for frac in np.linspace(0.08, 0.92, 16):
        xi = at.roots.xi01 + frac * (at.roots.xi02 - at.roots.xi01)
        h = at.h0(float(xi))
        d = diffgeo.shape_operator(patch, h, 0.4)
        # oracle orientation keeps f >= 0 while the closed form is signed;
        # curvature magnitudes grow with C, so compare in relative terms
        closed = abs(at.mean_curvature_psi(float(xi)))
        worst_f = max(worst_f, abs(d.f - closed) / (1.0 + closed))

    radius_ok = True
    for h in rng.uniform(m1 - at.period, p1 + at.period, 64):
        r = at.radius(float(h))
        lo = Cstar / at.roots.xi02 - 1e-12
        hi = Cstar / at.roots.xi01 + 1e-12
        radius_ok = radius_ok and (lo <= r <= hi)

    return {
        prefix + "cstar_admissible": CheckResult(0.0 if admissible else 1.0, 0.0),
        prefix + "metric_pullback": CheckResult(worst_metric, tols.metric_glued_rel),
        prefix + "gauss_curvature_identity": CheckResult(worst_kmatch, tols.curvature),
        prefix + "one_minus_K_positive": CheckResult(worst_kbound, 0.0),
        prefix + "mean_curvature_closed_form": CheckResult(worst_f, tols.psi_mean_curvature),
        prefix + "radius_range": CheckResult(0.0 if radius_ok else 1.0, 0.0),
    }


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

def build_report(family: str, C: float, Cstar: float | None = None,
                 c0: float = 0.0, grid: int = 10, seed: int = 12345,
                 tols: Tolerances | None = None) -> dict:
    tols = tols or Tolerances.from_env()
    if family == "r3":
        checks = r3_checks(C, grid=grid, seed=seed, tols=tols)
    elif family == "s3-local":
        checks = s3_local_checks(C, grid=grid, seed=seed, tols=tols)
    elif family == "s3-complete":
        if Cstar is None:
            raise ValueError("s3-complete requires C*")
        checks = s3_complete_checks(C, Cstar, c0=c0, grid=grid, seed=seed, tols=tols)
    elif family == "revolution":
        if Cstar is None:
            raise ValueError("revolution requires C*")
        checks = revolution_checks(C, Cstar, grid=grid, seed=seed, tols=tols)
    else:
        raise ValueError(f"unknown family {family!r}")
    return {
        "config": {
            "family": family,
            "C": C,
            "Cstar": Cstar,
            "c0": c0,
            "grid": grid,
            "seed": seed,
            "tolerances": {k: getattr(tols, k) for k in tols.__dataclass_fields__},
        },
        "checks": {name: res.as_dict() for name, res in sorted(checks.items())},
        "overall_pass": all(res.passed for res in checks.values()),
    }
