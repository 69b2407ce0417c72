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
from dataclasses import dataclass

import numpy as np

from . import diffgeo
from .numerics import OutOfDomain, expand_bracket, find_root

__all__ = [
    "FamilyParamsR3",
    "profile_t",
    "complete_profile_x",
    "immersion_XC",
    "immersion_XC_partials",
    "xc_patch",
    "boundary_circle_point",
    "boundary_normal",
    "boundary_mean_curvature",
    "conformal_factor",
    "gluing_conditions_check",
    "homothety_check",
    "theta_chart_point",
    "metric_profile_derivs",
    "gauss_curvature",
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


def complete_profile_x(C1: float, t: float) -> float:
    """Radius of the completed (evenly reflected) profile at height t.

    x(0) = C1^{-3/2}; for t > 0 the value inverts profile_t by a bracketed
    solve, and x(-t) = x(t).  The waist window and the root tolerance are
    fractions of r0 = C1^{-3/2}, the length unit of the homothety law.
    """
    t = abs(t)
    r0 = C1 ** -1.5
    if t < 1e-6 * r0:
        # Near the waist the inverse is quadratic: x ~ r0 (1 + C1^3 t^2 / 6).
        return r0 * (1.0 + C1 ** 3 * t * t / 6.0)
    lo = r0 * (1.0 + 1e-14)
    b = expand_bracket(lambda r: profile_t(C1, r) - t, lo, r0 * 2.0)
    return find_root(lambda r: profile_t(C1, r) - t, b, tol=1e-14 * r0)


def immersion_XC(params: FamilyParamsR3, u, v) -> np.ndarray:
    """Points of X_C at the broadcast (u, v), shape (..., 3), with cosh and
    sinh once per distinct u."""
    s = math.sqrt(params.C)

    def at(x):
        return s / 3.0 * math.cosh(x) ** 3, s / 2.0 * (0.5 * math.sinh(2.0 * x) + x)
    r, z = diffgeo.per_distinct(lambda us: zip(*map(at, us.tolist())), u)
    v = 3.0 * np.asarray(v, dtype=float)
    return diffgeo.stack_coordinates(r * np.cos(v), r * np.sin(v), z)


def immersion_XC_partials(params: FamilyParamsR3, u, v):
    """The jet (X, X_u, X_v, X_uu, X_uv, X_vv) of X_C at the points (u, v),
    from whole-array cosh and sinh."""
    s = math.sqrt(params.C)
    u = np.asarray(u, dtype=float)
    ch, sh = np.cosh(u), np.sinh(u)
    r, dr, d2r = s / 3.0 * ch ** 3, s * ch * ch * sh, s * ch * (ch * ch + 2.0 * sh * sh)
    c3, s3 = np.cos(3.0 * np.asarray(v)), np.sin(3.0 * np.asarray(v))
    return diffgeo.stack_jet(
        (r * c3, r * s3, s / 2.0 * (sh * ch + u)), (dr * c3, dr * s3, s * ch * ch),
        (-3.0 * r * s3, 3.0 * r * c3, 0.0), (d2r * c3, d2r * s3, 2.0 * s * ch * sh),
        (-3.0 * dr * s3, 3.0 * dr * c3, 0.0), (-9.0 * r * c3, -9.0 * r * s3, 0.0))


def xc_patch(params: FamilyParamsR3) -> diffgeo.ImmersionPatch:
    """X_C over u in [-1.5, 1.5] and one period 2 pi / 3 of v."""
    return diffgeo.ImmersionPatch(
        u_range=(-1.5, 1.5),
        v_range=(0.0, 2.0 * math.pi / 3.0),
        ambient=diffgeo.EUCLIDEAN3,
        jet=lambda u, v: immersion_XC_partials(params, u, v),
    )


def conformal_factor(params: FamilyParamsR3, u):
    return params.C * np.cosh(u) ** 6


def gauss_curvature(params: FamilyParamsR3, u):
    return -3.0 / (params.C * np.cosh(u) ** 8)


def metric_profile_derivs(params: FamilyParamsR3):
    """Conformal exponent of C cosh^6 u and its first three u-derivatives,
    at a point u or an array of them."""
    half_log_c = 0.5 * math.log(params.C)

    def derivs(u):
        th = np.tanh(u)
        sech2 = 1.0 / np.cosh(u) ** 2
        phi = half_log_c + 3.0 * np.log(np.cosh(u))
        return phi, 3.0 * th, 3.0 * sech2, -6.0 * sech2 * th

    return derivs


# ----------------------------------------------------------------------
# Boundary-circle data (closed forms; the chart degenerates there)
# ----------------------------------------------------------------------

def boundary_circle_point(C1: float, v) -> np.ndarray:
    r = C1 ** -1.5
    return diffgeo.stack_coordinates(r * np.cos(v), r * np.sin(v), 0.0)


def boundary_normal(C1: float, v) -> np.ndarray:
    # Limit of the outward-tilted unit normal as rho drops to the boundary:
    # the tangent plane turns parallel to the rotation axis.
    return diffgeo.stack_coordinates(-np.cos(v), -np.sin(v), 0.0)


def boundary_mean_curvature(C1: float) -> float:
    return 2.0 / 3.0 * C1 ** 1.5


def gluing_conditions_check(C1: float, C1p: float, n_samples: int = 16) -> dict:
    """Boundary-matching mismatches between two local pieces.

    Samples the boundary circle of the C1 piece and measures, against the
    C1p piece: distance to its boundary circle, normal parallelism
    |eta x eta'| and mean-curvature difference.  Mismatches are reported,
    never raised.  The mirror z -> -z that glues two pieces fixes the
    boundary plane z = 0 pointwise, and both boundary circles and their
    normals lie in it, so the check compares the two circles directly.
    """
    if n_samples < 3:
        raise ValueError("need at least 3 samples")
    v = 2.0 * math.pi * np.arange(n_samples) / n_samples
    p = boundary_circle_point(C1, v)
    # the closest points q of the C1p circle (p lies off the axis, in its plane) and the normals there
    q = C1p ** -1.5 * p / np.linalg.norm(p, axis=1)[:, None]
    eta_p = boundary_normal(C1p, np.arctan2(q[:, 1], q[:, 0]))
    parallelism = np.linalg.norm(np.cross(boundary_normal(C1, v), eta_p), axis=1)
    return {
        "position": float(np.max(np.linalg.norm(p - q, axis=1))),
        "normal_parallelism": float(np.max(parallelism)),
        "mean_curvature": abs(boundary_mean_curvature(C1) - boundary_mean_curvature(C1p)),
    }


# ----------------------------------------------------------------------
# Homothety law
# ----------------------------------------------------------------------

def theta_chart_point(C1: float, theta, v) -> np.ndarray:
    """Rotation-surface points in the theta chart, theta = C1 rho^{2/3} - 1,
    of shape (..., 3) at the broadcast (theta, v).

    Evaluates radius and height through the rho-chart profile, so the
    homothety comparison genuinely exercises the profile formula.
    """
    theta, v = np.broadcast_arrays(np.asarray(theta, dtype=float), v)
    if np.any(theta <= 0.0):
        raise OutOfDomain("theta must be positive")
    rho = C1 ** -1.5 * (theta + 1.0) ** 1.5
    t = np.reshape([profile_t(C1, r) for r in rho.ravel().tolist()], rho.shape)
    return diffgeo.stack_coordinates(rho * np.cos(v), rho * np.sin(v), t)


def homothety_check(C1: float, theta, v):
    """Per point (theta, v), the largest coordinate deviation of X_{C1} from
    the C1^{-3/2}-scaled unit-parameter surface (NaN if the point is NaN)."""
    gap = theta_chart_point(C1, theta, v) - C1 ** -1.5 * theta_chart_point(1.0, theta, v)
    return np.max(np.abs(gap), axis=-1)
