"""The Euclidean-ambient family of complete biconservative surfaces.

A one-parameter family of rotation surfaces in R^3 indexed by C > 0 (the
constant of the conformal metric C cosh^6 u), equivalently by
C1 = (9/C)^{1/3}.  The local piece is the graph profile t(rho) over
rho > C1^{-3/2}; its even reflection completes the profile, and the
isothermal chart gives the global immersion

    X_C(u, v) = (sqrt(C)/3) (cosh^3 u cos 3v, cosh^3 u sin 3v,
                             (3/2)(sinh(2u)/2 + u)).

Besides the evaluators this module carries the verification hooks: the
conformal completeness bound, the boundary-circle matching conditions for
gluing two local pieces, and the homothety law relating different C1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diffgeo
from .numerics import (
    OutOfDomain,
    expand_bracket,
    find_root,
    one_sided_derivative,
)

__all__ = [
    "FamilyParamsR3",
    "RigidMotion",
    "profile_t",
    "profile_t_deriv",
    "complete_profile_x",
    "profile_seam_smoothness",
    "immersion_XC",
    "immersion_XC_partials",
    "xc_patch",
    "boundary_circle_point",
    "boundary_normal",
    "boundary_mean_curvature",
    "conformal_factor",
    "completeness_bound_check",
    "gluing_conditions_check",
    "homothety_check",
    "theta_chart_point",
    "metric_profile_derivs",
    "gauss_curvature",
    "mean_curvature",
]


@dataclass(frozen=True)
class FamilyParamsR3:
    """Parameters of the Euclidean family; C1**3 * C = 9 ties the two."""

    C: float
    C1: float

    def __post_init__(self):
        if self.C <= 0.0 or self.C1 <= 0.0:
            raise ValueError("C and C1 must be positive")
        if abs(self.C1 ** 3 * self.C - 9.0) > 1e-12 * 9.0:
            raise ValueError(f"C1^3 C = {self.C1 ** 3 * self.C} != 9")

    @classmethod
    def from_C(cls, C: float) -> "FamilyParamsR3":
        return cls(C=C, C1=(9.0 / C) ** (1.0 / 3.0))

    @classmethod
    def from_C1(cls, C1: float) -> "FamilyParamsR3":
        return cls(C=9.0 / C1 ** 3, C1=C1)


def profile_t(C1: float, rho: float) -> float:
    """Height of the local profile over radius rho (rho > C1^{-3/2}).

    Strictly increasing with derivative 1/sqrt(C1 rho^{2/3} - 1); exactly 0
    at the inner boundary radius rho = C1^{-3/2} (the closed formula's own
    limit), where the graph meets the rotation plane vertically.
    """
    if C1 <= 0.0:
        raise ValueError("C1 must be positive")
    w = C1 * rho ** (2.0 / 3.0) - 1.0
    if w < 0.0:
        raise OutOfDomain(f"rho = {rho} < C1^(-3/2) = {C1 ** -1.5}")
    sw = math.sqrt(w)
    return 1.5 / C1 * (rho ** (1.0 / 3.0) * sw
                       + math.log(math.sqrt(C1) * rho ** (1.0 / 3.0) + sw) / math.sqrt(C1))


def profile_t_deriv(C1: float, rho: float) -> float:
    w = C1 * rho ** (2.0 / 3.0) - 1.0
    if w <= 0.0:
        raise OutOfDomain(f"rho = {rho} at or below the boundary radius")
    return 1.0 / math.sqrt(w)


def complete_profile_x(C1: float, t: float) -> float:
    """Radius of the completed (evenly reflected) profile at height t.

    x(0) = C1^{-3/2}; for t > 0 the value inverts profile_t by a bracketed
    solve, and x(-t) = x(t).
    """
    t = abs(t)
    r0 = C1 ** -1.5
    if t < 1e-6:
        # Near the waist the inverse is quadratic: x ~ r0 (1 + C1^3 t^2 / 6).
        return r0 * (1.0 + C1 ** 3 * t * t / 6.0)
    lo = r0 * (1.0 + 1e-14)
    b = expand_bracket(lambda r: profile_t(C1, r) - t, lo, r0 * 2.0)
    return find_root(lambda r: profile_t(C1, r) - t, b, tol=1e-14 * max(1.0, r0))


def profile_seam_smoothness(C1: float, orders=(1, 2, 3), step: float = 2e-2) -> dict:
    """One-sided derivatives of the completed profile at the waist t = 0.

    The even reflection makes odd-order one-sided limits opposite, so a
    smooth seam needs them to vanish; even orders must agree.  The report
    carries both sides per order, the mismatch, and a relative form
    (scaled by the analytic waist curvature x''(0) = C1^{3/2} / 3).  Orders
    above 3 are not checked: the construction is only certified to that
    order here.
    """
    fn = lambda t: complete_profile_x(C1, t)
    scale2 = C1 ** 1.5 / 3.0
    out = {}
    for order in orders:
        d_r = one_sided_derivative(fn, 0.0, order, step, forward=True)
        d_l = one_sided_derivative(fn, 0.0, order, step, forward=False)
        mism = abs(d_r - d_l)
        ref = max(abs(d_l), abs(d_r), scale2 * (C1 ** 1.5) ** (order - 2))
        out[order] = {
            "left": d_l,
            "right": d_r,
            "mismatch": mism,
            "relative_mismatch": mism / ref,
        }
    out["waist_curvature_expected"] = scale2
    return out


def immersion_XC(params: FamilyParamsR3, u: float, v) -> np.ndarray:
    """Point of X_C; a 1-D `v` gives the (n, 3) row at one u."""
    s = math.sqrt(params.C)
    ch = math.cosh(u)
    r = s / 3.0 * ch ** 3
    z = s / 2.0 * (0.5 * math.sinh(2.0 * u) + u)
    v = np.asarray(v, dtype=float)
    rows = [[r * math.cos(3.0 * t), r * math.sin(3.0 * t), z] for t in v.ravel().tolist()]
    return np.array(rows) if v.ndim else np.array(rows[0])


def immersion_XC_partials(params: FamilyParamsR3, u: float, v: float):
    s = math.sqrt(params.C)
    ch = math.cosh(u)
    sh = math.sinh(u)
    c3, s3 = math.cos(3.0 * v), math.sin(3.0 * v)
    xu = np.array([s * ch * ch * sh * c3, s * ch * ch * sh * s3, s * ch * ch])
    xv = np.array([-s * ch ** 3 * s3, s * ch ** 3 * c3, 0.0])
    return xu, xv


def xc_patch(params: FamilyParamsR3,
             u_range=(-1.5, 1.5),
             v_range=(0.0, 2.0 * math.pi / 3.0)) -> diffgeo.ImmersionPatch:
    return diffgeo.ImmersionPatch(
        u_range=u_range,
        v_range=v_range,
        ambient=diffgeo.EUCLIDEAN3,
        position=lambda u, v: immersion_XC(params, u, v),
        first_partials=lambda u, v: immersion_XC_partials(params, u, v),
    )


def conformal_factor(params: FamilyParamsR3, u: float) -> float:
    return params.C * math.cosh(u) ** 6


def gauss_curvature(params: FamilyParamsR3, u: float) -> float:
    return -3.0 / (params.C * math.cosh(u) ** 8)


def mean_curvature(params: FamilyParamsR3, u: float) -> float:
    return 2.0 / (math.sqrt(params.C) * math.cosh(u) ** 4)


def metric_profile_derivs(params: FamilyParamsR3):
    """Conformal exponent of C cosh^6 u and its first three u-derivatives."""
    half_log_c = 0.5 * math.log(params.C)

    def derivs(u: float):
        th = math.tanh(u)
        sech2 = 1.0 / math.cosh(u) ** 2
        phi = half_log_c + 3.0 * math.log(math.cosh(u))
        return phi, 3.0 * th, 3.0 * sech2, -6.0 * sech2 * th

    return derivs


def completeness_bound_check(params: FamilyParamsR3, u_grid) -> dict:
    """Conformal factor stays >= C, with equality only on the axis u = 0.

    Bounding the factor below by the flat metric's constant is what makes
    the induced metric complete, so the report records the worst ratio and
    where it occurs.
    """
    u_grid = np.asarray(u_grid, dtype=float)
    ratio = np.cosh(u_grid) ** 6
    i_min = int(np.argmin(ratio))
    return {
        "min_ratio": float(ratio[i_min]),
        "argmin_u": float(u_grid[i_min]),
        "bound_holds": bool(np.all(ratio >= 1.0)),
        "min_on_axis_only": bool(
            np.all((ratio > 1.0) | (np.abs(u_grid) < 1e-12))
        ),
    }


# ----------------------------------------------------------------------
# Boundary-circle data (closed forms; the chart degenerates there)
# ----------------------------------------------------------------------

def boundary_circle_point(C1: float, v: float) -> np.ndarray:
    r = C1 ** -1.5
    return np.array([r * math.cos(v), r * math.sin(v), 0.0])


def boundary_normal(C1: float, v: float) -> np.ndarray:
    # Limit of the outward-tilted unit normal as rho drops to the boundary:
    # the tangent plane turns parallel to the rotation axis.
    return np.array([-math.cos(v), -math.sin(v), 0.0])


def boundary_mean_curvature(C1: float) -> float:
    return 2.0 / 3.0 * C1 ** 1.5


@dataclass(frozen=True)
class RigidMotion:
    """Orthogonal matrix plus translation; reflections allowed."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        if R.shape != (3, 3) or not np.allclose(R @ R.T, np.eye(3), atol=1e-12):
            raise ValueError("rotation must be a 3x3 orthogonal matrix")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))

    @classmethod
    def identity(cls) -> "RigidMotion":
        return cls()

    @classmethod
    def mirror_z(cls) -> "RigidMotion":
        return cls(rotation=np.diag([1.0, 1.0, -1.0]))

    @classmethod
    def translate_z(cls, a3: float) -> "RigidMotion":
        return cls(translation=np.array([0.0, 0.0, a3]))

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.rotation @ p + self.translation


def _closest_on_circle(p, center, axis, radius):
    """Closest point of a 3D circle to p, and the distance."""
    d = p - center
    axial = float(d @ axis)
    radial = d - axial * axis
    rn = float(np.linalg.norm(radial))
    if rn < 1e-300:
        # Equidistant from the whole circle; pick an arbitrary representative.
        e = np.array([1.0, 0.0, 0.0])
        e = e - float(e @ axis) * axis
        radial, rn = e, float(np.linalg.norm(e))
    q = center + radius * radial / rn
    return q, float(np.linalg.norm(p - q))


def gluing_conditions_check(
    C1: float,
    C1p: float,
    pose: RigidMotion,
    n_samples: int = 16,
) -> dict:
    """Boundary-matching mismatches between two local pieces.

    Samples the boundary circle of the C1 piece and measures, against the
    posed C1p piece: distance to its boundary circle, normal parallelism
    |eta x eta'|, mean-curvature difference, and curvature-gradient
    difference.  Mismatches are reported, never raised; both gradients
    vanish in the boundary limit, so their mismatch is structurally zero.
    """
    if n_samples < 3:
        raise ValueError("need at least 3 samples")
    R, a = pose.rotation, pose.translation
    r_p = C1p ** -1.5
    center = a.copy()
    axis = R @ np.array([0.0, 0.0, 1.0])

    max_pos = 0.0
    max_normal = 0.0
    for i in range(n_samples):
        v = 2.0 * math.pi * i / n_samples
        p = boundary_circle_point(C1, v)
        q, dist = _closest_on_circle(p, center, axis, r_p)
        max_pos = max(max_pos, dist)
        # parameter of q on the posed circle, then the posed normal there
        local = R.T @ (q - a)
        vq = math.atan2(local[1], local[0])
        eta = boundary_normal(C1, v)
        eta_p = R @ boundary_normal(C1p, vq)
        max_normal = max(max_normal, float(np.linalg.norm(np.cross(eta, eta_p))))

    f_mismatch = abs(boundary_mean_curvature(C1) - boundary_mean_curvature(C1p))
    return {
        "position": max_pos,
        "normal_parallelism": max_normal,
        "mean_curvature": f_mismatch,
        "grad_mean_curvature": 0.0,
        "n_samples": n_samples,
    }


# ----------------------------------------------------------------------
# Homothety law
# ----------------------------------------------------------------------

def theta_chart_point(C1: float, theta: float, v: float) -> np.ndarray:
    """Rotation-surface point in the theta chart, theta = C1 rho^{2/3} - 1.

    Evaluates radius and height through the rho-chart profile, so the
    homothety comparison genuinely exercises the profile formula.
    """
    if theta <= 0.0:
        raise OutOfDomain("theta must be positive")
    rho = C1 ** -1.5 * (theta + 1.0) ** 1.5
    t = profile_t(C1, rho)
    return np.array([rho * math.cos(v), rho * math.sin(v), t])


def homothety_check(C1: float, sample_pts) -> dict:
    """Max deviation of X_{C1} from the C1^{-3/2}-scaled unit-parameter surface."""
    scale = C1 ** -1.5
    worst = 0.0
    for theta, v in sample_pts:
        lhs = theta_chart_point(C1, theta, v)
        rhs = scale * theta_chart_point(1.0, theta, v)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return {
        "max_mismatch": worst,
        "boundary_radius_scaled": scale * 1.0,
        "boundary_radius_direct": complete_profile_x(C1, 0.0),
    }
