"""Named verification checks and machine-readable reports.

Each check reduces a geometric identity to a single number compared
against a tolerance.  A sampled check is one measure over one set of
sample columns (one 1-D array per coordinate of the sample points),
taken in one call, and `_worst` reduces its values to the worst sample;
only the checks over junction and phase labels and the profile's root
solves measure one sample at a time.  A report is a deterministic
JSON-ready dict (fixed seeds, no timestamps) so repeated runs with the
same configuration are bit-identical.  The CLI `verify` subcommand and
the test suite both drive these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

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
    n_samples: int = 1       # points the value was reduced over
    worst_at: tuple = ()     # the sample point that gave the value

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
    """The fixed tolerances of the checks; the report echoes them."""

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
    partials_vs_positions: float = 2e-7
    second_vs_first: float = 2e-7


def _worst(values, samples, tolerance: float) -> CheckResult:
    """The largest of `values`, one per sample, with the number of samples
    and the sample that gave it; `samples` holds one 1-D array per
    coordinate of the sample points.

    A NaN value counts as the worst, so the check fails; a check over no
    samples is an error rather than a pass.
    """
    values = np.asarray(values, dtype=float)
    if not values.size:
        raise ValueError("a sampled check needs at least one sample")
    if any(np.shape(x) != values.shape for x in samples):
        raise ValueError("one value per sample")
    i = int(np.argmax(values))  # the first NaN, if there is one
    return CheckResult(float(values[i]), tolerance, n_samples=values.size,
                       worst_at=tuple(float(x[i]) for x in samples))


def _product(*axes):
    """The samples of the grid spanned by the axes, one 1-D array per
    axis, with the last axis varying fastest."""
    return [x.ravel() for x in np.meshgrid(*axes, indexing="ij")]


def _largest(*terms: float) -> float:
    """max() of a few terms of one sample, where a NaN term wins."""
    return math.nan if any(map(math.isnan, terms)) else float(max(terms))


def _rel_gap(measured, closed):
    """|measured - closed| relative to 1 + |closed|: curvatures grow with C."""
    closed = np.asarray(closed, dtype=float)
    return np.abs(measured - closed) / (1.0 + np.abs(closed))


def _metric_mismatch(E, F, G, closed):
    """Per point, the worst relative mismatch of the first form (E, F, G)
    from the oracle against the positive closed-form coefficients
    (Ec, 0, Gc) = closed, one array each over all the points."""
    Ec, Gc = np.asarray(closed, dtype=float)
    # np.max propagates a NaN
    return np.max([np.abs(E - Ec) / Ec, np.abs(F) / np.sqrt(Ec * Gc), np.abs(G - Gc) / Gc], axis=0)


def _profile_values(at, *heights):
    """F at each array of heights from one call of `at.F`: an inversion is
    elementwise, so each value is the one a call of its own would give."""
    return np.split(at.F(np.concatenate(heights)), np.cumsum([len(h) for h in heights[:-1]]))


def _unit_defect(points):
    """| |p| - 1 | for each row p of `points`."""
    return np.abs(np.sqrt(np.einsum("ij,ij->i", points, points)) - 1.0)


def _level_curve_gap(derivs, c: float, x):
    kg, kf = diffgeo.level_curve_circle_check(derivs, c, x)
    return np.abs(kg - kf)


def _consistency_rows(values, samples, tols: Tolerances) -> dict[str, CheckResult]:
    """The rows of the two `diffgeo.consistency` measures at the samples."""
    return {"partials_vs_positions": _worst(values[0], samples, tols.partials_vs_positions),
            "second_vs_first": _worst(values[1], samples, tols.second_vs_first)}


# ----------------------------------------------------------------------
# Euclidean family
# ----------------------------------------------------------------------

def r3_checks(C: float, grid: int, seed: int) -> dict[str, CheckResult]:
    tols = Tolerances()
    par = euclidean.FamilyParamsR3.from_C(C)
    patch = euclidean.xc_patch(par)
    rng = np.random.default_rng(seed)
    us, vs = patch.grid(grid, grid)

    # the homothety law scales lengths by C1^{-3/2} and curvatures by C1^3;
    # measured in those units, a bound holds for every C
    length = par.C1 ** -1.5
    mirror = euclidean.gluing_conditions_check(par.C1, par.C1)
    mirror_worst = _largest(mirror["position"] / length, mirror["normal_parallelism"],
                            mirror["mean_curvature"])
    neg = euclidean.gluing_conditions_check(par.C1, 2.0 * par.C1, n_samples=8)

    pullback = _product(us, vs[:: max(1, grid // 4)])
    u_res, sign, v_res = _product(np.linspace(0.08, 1.45, 8), np.array([-1.0, 1.0]),
                                  np.linspace(0.1, 2.0, 3))
    u_res = sign * u_res
    # one call at the K identity's and residual's samples sizes the residual's
    # stencils and the consistency rows', which ride on the residual's call
    n = len(us)
    shape = diffgeo.shape_operator(patch, np.append(us, u_res), np.append(np.full(n, 0.4), v_res))
    lengths = diffgeo.jet_lengths(shape.jet.swapaxes(0, 1))
    stencil, defects = diffgeo.consistency(patch, us, 0.4, lengths[:, :n])
    residual, ride = diffgeo.biconservativity_residual(patch, u_res, v_res, lengths[:, n:], stencil)
    u_bound = np.linspace(-3.0, 3.0, 101)
    homothety = rng.uniform(0.05, 4.0, 16), rng.uniform(0.0, 2 * math.pi, 16)
    u_level = np.linspace(0.05, 2.5, 16)
    t_round = length * rng.uniform(0.01, 5.0, 12)  # drawn after the homothety samples

    return {
        "metric_pullback": _worst(_metric_mismatch(
            *diffgeo.fundamental_forms(patch, *pullback),
            [euclidean.conformal_factor(par, pullback[0])] * 2), pullback, tols.metric_rel),
        "gauss_curvature_identity": _worst(
            np.abs(shape.K[:n] - euclidean.gauss_curvature(par, us)) * length ** 2,
            [us], tols.curvature),
        "biconservativity_residual": _worst(residual, [u_res, v_res], tols.residual),
        **_consistency_rows(defects(ride.jet), [us], tols),
        # a conformal factor >= C makes the metric complete
        "completeness_bound": _worst(1.0 - euclidean.conformal_factor(par, u_bound) / par.C,
                                     [u_bound], 0.0),
        "homothety": _worst(euclidean.homothety_check(par.C1, *homothety) / length,
                            homothety, tols.homothety),
        "mirror_gluing": CheckResult(mirror_worst, tols.boundary_match),
        # pieces of C1 and 2 C1 must not glue: gaps of 0.65 and 1.22 in these units
        "gluing_negative_control": CheckResult(
            _largest(neg["position"] / length, neg["mean_curvature"] * length),
            10.0 * tols.boundary_match, comparison="ge"),
        "level_curve_circles": _worst(
            _level_curve_gap(euclidean.metric_profile_derivs(par), 0.0, u_level) * length,
            [u_level], tols.level_curve),
        # a root solve per sample
        "profile_roundtrip": _worst(
            [abs(euclidean.profile_t(par.C1, euclidean.complete_profile_x(par.C1, t)) - t)
             / length for t in t_round.tolist()], [t_round], 1e-10),
    }


# ----------------------------------------------------------------------
# Sphere family, fundamental strip
# ----------------------------------------------------------------------

@cache
def _fixed_roots(C: float) -> spherical.DomainRoots:
    """The strip roots at one of the fixed C of s3-local's metric route,
    solved once per process: C = 0.8 and 2.0 are constants, while
    `spherical.family`'s cache may be cleared between reports, as the
    verify-sweep benchmark does before each cold one."""
    return spherical.domain_roots(C)


def s3_local_checks(C: float, grid: int, seed: int) -> dict[str, CheckResult]:
    tols = Tolerances()
    fam = spherical.family(C)
    roots = fam.roots
    rng = np.random.default_rng(seed)
    width = roots.xi02 - roots.xi01

    ordering_ok = roots.xi01 < roots.xi00 < roots.xi02 and roots.xi01 > C ** -0.5
    k_bound_gap = roots.k01 - (16.0 / (9.0 * fam.params.C1)) ** (2.0 / 3.0)

    patch = fam.patch()
    xis, _ = patch.grid(grid, 4)
    residual = _product(np.linspace(xis[0], xis[-1], 8), np.array([0.2, 0.5]))
    # the metric, K and consistency rows at the centres of the stencils,
    # which ride on the residual's call; every stencil is sized from the
    # closed-form jet at its centre, whose lengths do not depend on theta
    n = len(xis)
    lengths = diffgeo.jet_lengths(fam.unturned_jet(np.append(xis, residual[0]), 0.4))
    stencil, defects = diffgeo.consistency(patch, xis, 0.4, lengths[:, :n])
    xi_roots = np.array([roots.xi01, roots.xi02])

    # intrinsic curvature straight from the metric coefficients, for a few C:
    # (C, xi, strip width) at a quarter, half and three quarters of each strip
    strips = [(0.8, _fixed_roots(0.8)), (C, roots), (2.0, _fixed_roots(2.0))]
    metric_route = np.array([(Cx, rx.xi01 + f * (rx.xi02 - rx.xi01), rx.xi02 - rx.xi01)
                             for Cx, rx in strips for f in (0.25, 0.5, 0.75)]).T
    c_metric, xi_metric, scale = metric_route
    k_metric = diffgeo.gauss_curvature_from_metric(
        lambda x: spherical.metric_gC(c_metric, x)[0], lambda x: 1.0 / (x * x),
        xi_metric, scale=scale, dG=lambda x: -2.0 / x ** 3)

    # the curvature equation in closed form, at distances to each root
    # log-spaced from 1e-12 to half the strip width, and at rest at the roots
    C1 = fam.params.C1
    d = width * np.logspace(-12.0, math.log10(0.5), 16)
    xi_curv = np.concatenate([roots.xi01 + d, roots.xi02 - d])
    k, kp2, kpp = spherical.meridian_curvature(C, roots, xi_curv)
    k_roots = np.array([roots.k01, roots.k02])
    z_vals = fam.zeta0(np.linspace(*patch.u_range, 24))
    sphere = rng.uniform([patch.u_range[0], 0.0], [patch.u_range[1], 2.0 * math.pi], (256, 2)).T
    res, ride = diffgeo.biconservativity_residual(patch, *residual, lengths[:, n:], stencil)
    shape = ride[:n]
    # with b = -1 the bridge has xi = e^{-phi}; sample the middle of the strip
    phi_bridge = np.log(1.0 / (roots.xi01 + np.linspace(0.3, 0.7, 7) * width))
    xi_level = roots.xi01 + np.linspace(0.1, 0.9, 16) * width

    return {
        # |T(root)| against the size of T's terms, which grow like C xi^2
        "root_identities": _worst(
            np.abs(spherical.T(C, xi_roots)) / (3.0 * C * xi_roots * xi_roots),
            [xi_roots], tols.roots),
        "root_ordering": CheckResult(0.0 if ordering_ok else 1.0, 0.0),
        "k01_above_radius_bound": CheckResult(k_bound_gap, 0.0, comparison="ge"),
        "metric_pullback": _worst(
            _metric_mismatch(shape.E, shape.F, shape.G, spherical.metric_gC(C, xis)),
            [xis], tols.metric_rel),
        # |K| grows like xi^(8/3) with C: compare relative to the closed-form size
        "gauss_curvature_identity": _worst(
            _rel_gap(shape.K, spherical.gauss_curvature_DC(xis)), [xis], tols.curvature),
        "curvature_c_independent": _worst(
            _rel_gap(k_metric, spherical.gauss_curvature_DC(xi_metric)), metric_route,
            tols.curvature),
        "sphere_norm": _worst(_unit_defect(fam.immersion(*sphere)), sphere, tols.sphere_norm),
        "biconservativity_residual": _worst(res, residual, tols.residual),
        **_consistency_rows(defects(ride.jet), [xis], tols),
        "prime_integral": _worst(spherical.prime_integral_residual(C1, k, kp2), [xi_curv],
                                 tols.prime_integral),
        "curvature_equation": _worst(spherical.curvature_equation_residual(C1, k, kpp),
                                     [xi_curv], tols.prime_integral),
        # the equation's turning points, (k, 0) on P = 0, are the strip's roots
        "prime_integral_at_roots": _worst(spherical.prime_integral_residual(C1, k_roots, 0.0),
                                          [k_roots], tols.prime_integral),
        "zeta_monotone": CheckResult(-float(np.min(np.diff(z_vals))), 0.0),
        "zeta_limits_finite": CheckResult(
            0.0 if all(math.isfinite(z) for z in fam.zeta_limits) else 1.0, 0.0),
        "bridge_metric_match": _worst(spherical.bridge_metric_match(C, -1.0, phi_bridge),
                                      [phi_bridge], tols.metric_glued_rel),
        "flat_profile_equation": CheckResult(abs(spherical.master_ode_residual(
            0.0, euclidean.metric_profile_derivs(euclidean.FamilyParamsR3.from_C(1.0)), 1.0)),
            1e-10),
        "level_curve_circles": _worst(
            _level_curve_gap(fam.metric_profile_derivs(), 1.0, xi_level), [xi_level],
            tols.level_curve),
    }


# ----------------------------------------------------------------------
# Glued sphere immersion and the revolution surface
# ----------------------------------------------------------------------

def _junction_mismatch(at: gluing.GluingAtlas, jets):
    """|right - left| of the one-sided jets (left, right) of a junction,
    and that mismatch relative to the larger one-sided derivative or to
    the amplitude 2 / (strip height)^order, whichever is larger.  An
    amplitude past the float range raises OverflowError."""
    left, right = jets
    mismatch = np.abs(right - left)
    delta = at.h_limits[1] - at.h_limits[0]
    if not (delta ** 3 > 0.0 and math.isfinite(2.0 / delta ** 3)):
        raise OverflowError(f"the junction amplitude 2 / (strip height)^3 leaves the floats "
                            f"at strip height {delta!r}")
    floor = [2.0 / delta ** n for n in range(4)]
    return mismatch, mismatch / np.maximum(np.maximum(np.abs(left), np.abs(right)), floor)


def _strip_interior_samples(at: gluing.GluingAtlas, strips, n, margin=0.02):
    """Heights on the given strips, junction bands of `margin` excluded."""
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
        out.append(np.linspace(lo + pad, hi - pad, n))
    return np.concatenate(out)


def s3_complete_checks(C: float, Cstar: float, c0: float, grid: int,
                       seed: int) -> dict[str, CheckResult]:
    tols = Tolerances()
    at = gluing.atlas(C, Cstar, c0=c0)
    rng = np.random.default_rng(seed)
    m1, p1 = at.h_limits
    delta = p1 - m1
    roots, P = at.roots, at.period
    zm1, zp1 = at.zeta_limits
    # the continuity-only branch c_k = c0: the base strip's constant on both sides
    neg = _junction_mismatch(at, at.junction_jets(1, phases=(at.phase(0), at.phase(0))))[1]
    hpatch = at.phi_patch((m1 - delta, at.grid[2]))
    # the junctions by iterated reflection h_{0,k+1} = 2 h_{0,k} - h_{0,k-1},
    # up from (h_{0,-1}, h_{0,1}) and down from (h_{0,1}, h_{0,-1})
    reflected = {-1: m1, 1: p1}
    for sign, a, b in ((1, m1, p1), (-1, p1, m1)):
        for k in range(2, gluing.K_MAX + 1):
            a, b = b, 2.0 * b - a
            reflected[sign * k] = b

    # the per-label checks measure one junction or phase label at a time
    def per_label(measure, labels, tolerance):
        labels = np.array(labels)
        return _worst([measure(k) for k in labels.tolist()], [labels], tolerance)

    # the random samples are drawn in the order of the checks
    h_period = rng.uniform(m1 + 0.05 * delta, p1 - 0.05 * delta, 12)
    sphere = rng.uniform([m1 - P, 0.0], [p1 + P, 2.0 * math.pi], (256, 2)).T
    junctions = np.array([p1, m1, 0.0]), np.array([roots.xi02, roots.xi01, roots.xi00])
    h_res = _strip_interior_samples(at, (0, 1), 5, margin=0.08)
    h_metric = _strip_interior_samples(at, (-1, 0, 1), grid)  # junction bands excluded
    # the consistency rows at two metric heights a strip and the junctions
    # -2..2, which their stencils straddle; every stencil is sized from
    # Phi's closed form at the known xi (its lengths do not depend on
    # theta), and the consistency stencils and the metric heights ride on
    # the residual
    h_jet = np.concatenate([h_metric[::max(1, grid // 2)], [at.grid[k] for k in (-2, -1, 1, 2)]])
    up, down, base, xi_junctions, xi_metric, xi_jet, xi_res = _profile_values(
        at, h_period + P, h_period - P, h_period, junctions[0], h_metric, h_jet, h_res)
    n = len(h_jet)
    lengths = diffgeo.jet_lengths(at.unturned_phi_jet(np.append(xi_jet, xi_res), 0.4))
    stencil, defects = diffgeo.consistency(hpatch, h_jet, 0.4, lengths[:, :n])
    res, ride = diffgeo.biconservativity_residual(hpatch, h_res, 0.3, lengths[:, n:], (
        np.append(h_metric, stencil[0]), np.append(np.full_like(h_metric, 0.4), stencil[1])))
    metric = ride[:len(h_metric)]
    # (mismatch, relative mismatch) of Phi1 and Phi2 at orders 0..3, one jet set per label
    mismatch = {k: _junction_mismatch(at, at.junction_jets(k)) for k in (-3, -2, -1, 1, 2, 3)}

    return {
        "grid_formula": per_label(
            lambda k: _largest(abs(at.grid[k] - reflected[k]), abs(at.grid[-k] - reflected[-k])),
            range(1, gluing.K_MAX + 1), tols.phase),
        "grid_spacing": per_label(lambda k: abs((at.grid[k + 1] - at.grid[k]) - delta),
                                  range(1, gluing.K_MAX), tols.phase),
        "phase_recursion_vs_closed_form": per_label(
            lambda k: gluing.phase_distance(at.phase(k), at.phase_by_recursion(k)),
            range(-25, 26), tols.phase),
        "profile_periodicity": _worst(np.maximum(np.abs(up - base), np.abs(down - base)),
                                      [h_period], tols.phase),
        "profile_junction_values": _worst(np.abs(xi_junctions - junctions[1]), junctions,
                                          tols.phase),
        "junction_smoothness": per_label(lambda k: np.max(mismatch[k][1][:, 1:]), [1, -1, 2],
                                         tols.junction_rel),
        # Phi1's first-order matching
        "junction_negative_control": CheckResult(neg[0, 1], 10.0 * tols.junction_rel,
                                                 comparison="ge"),
        "sphere_norm": _worst(_unit_defect(at.immersion_phi(*sphere)), sphere, tols.sphere_norm),
        "metric_pullback": _worst(_metric_mismatch(metric.E, metric.F, metric.G,
                                                   at.psi_metric(xi_metric)),
                                  [h_metric], tols.metric_glued_rel),
        # the one-sided values of the same jets
        "junction_continuity": per_label(lambda k: np.max(mismatch[k][0][:, 0]),
                                         [-3, -2, -1, 1, 2, 3], 1e-10),
        "biconservativity_residual": _worst(res, [h_res], tols.residual),
        **_consistency_rows(defects(ride.jet[len(h_metric):]), [h_jet], tols),
        # Phi repeats with the profile iff twice the total turning angle
        # is a whole turn
        "periodicity_phase_defect": CheckResult(
            gluing.phase_distance(2.0 * (zp1 - zm1), 0.0), math.inf, info=True),
    }


def revolution_checks(C: float, Cstar: float, grid: int, seed: int) -> dict[str, CheckResult]:
    """Psi's checks; Psi does not depend on c0, so they are not repeated
    in the s3-complete report."""
    tols = Tolerances()
    at = gluing.atlas(C, Cstar)
    rng = np.random.default_rng(seed + 1)
    m1, p1 = at.h_limits
    delta = p1 - m1
    roots = at.roots
    patch = at.psi_patch((m1 - delta, at.grid[2]))
    # every oracle row reads one call over the curvature heights, the
    # mean-curvature heights (spaced in xi), the metric heights and the
    # consistency rows' stencils about the first two, sized from Psi's
    # closed form at their known xi
    heights = _strip_interior_samples(at, (0, 1), 5, margin=0.06)
    xi_mean = roots.xi01 + np.linspace(0.08, 0.92, 16) * (roots.xi02 - roots.xi01)
    h_metric = _strip_interior_samples(at, (-1, 0, 1), grid)
    h_radius = rng.uniform(m1 - at.period, p1 + at.period, 64)
    xi_metric, xi_heights, xi_radius = _profile_values(at, h_metric, heights, h_radius)
    h_jet = np.concatenate([heights, at.h0(xi_mean)])
    stencil, defects = diffgeo.consistency(
        patch, h_jet, 0.4, at.psi_jet_lengths(np.concatenate([xi_heights, xi_mean])))
    h_all = np.concatenate([h_jet, h_metric])
    shape = diffgeo.shape_operator(patch, np.append(h_all, stencil[0]),
                                   np.append(np.full_like(h_all, 0.4), stencil[1]))
    n, n_mean = len(heights), len(h_jet)
    shape, shape_mean, shape_metric, jet = (shape[:n], shape[n:n_mean],
                                            shape[n_mean:len(h_all)], shape.jet[len(h_all):])
    r = at.Cstar / xi_radius
    lo, hi = Cstar / roots.xi02 - 1e-12, Cstar / roots.xi01 + 1e-12

    return {
        "cstar_admissible": CheckResult(
            0.0 if gluing.cstar_range(C).contains(Cstar) else 1.0, 0.0),
        "metric_pullback": _worst(_metric_mismatch(
            shape_metric.E, shape_metric.F, shape_metric.G, at.psi_metric(xi_metric)),
            [h_metric], tols.metric_glued_rel),
        # curvature magnitudes grow like the strip width^(8/3): compare
        # relative to the closed-form size
        "gauss_curvature_identity": _worst(
            _rel_gap(shape.K, spherical.gauss_curvature_DC(xi_heights)),
            [heights], tols.curvature),
        "one_minus_K_positive": _worst(shape.K - 1.0, [heights], 0.0),
        # oracle orientation keeps f >= 0 while the closed form is signed
        "mean_curvature_closed_form": _worst(
            _rel_gap(shape_mean.f, np.abs(at.mean_curvature_psi(xi_mean))),
            [xi_mean], tols.psi_mean_curvature),
        "radius_range": _worst(np.where((lo <= r) & (r <= hi), 0.0, 1.0), [h_radius], 0.0),
        **_consistency_rows(defects(jet), [h_jet], tols),
    }


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

def build_report(family: str, C: float, Cstar: float | None = None,
                 c0: float = 0.0, grid: int = 10,
                 seed: int = 12345) -> tuple[dict, dict[str, CheckResult]]:
    """The JSON-ready report and the results it was built from; each
    result's `n_samples` and `worst_at` stay out of the JSON."""
    tols = Tolerances()
    if family == "r3":
        checks = r3_checks(C, grid=grid, seed=seed)
    elif family == "s3-local":
        checks = s3_local_checks(C, grid=grid, seed=seed)
    elif family == "s3-complete":
        if Cstar is None:
            raise ValueError("s3-complete requires C*")
        checks = s3_complete_checks(C, Cstar, c0=c0, grid=grid, seed=seed)
    elif family == "revolution":
        if Cstar is None:
            raise ValueError("revolution requires C*")
        checks = revolution_checks(C, Cstar, grid=grid, seed=seed)
    else:
        raise ValueError(f"unknown family {family!r}")
    report = {
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
    return report, checks
