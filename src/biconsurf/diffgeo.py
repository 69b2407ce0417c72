"""Independent differential-geometry oracle for immersed surface patches.

Given nothing but a position evaluator (and optionally analytic first
partials), computes first and second fundamental forms, the shape
operator, mean and Gauss curvature, curvature gradients, and the residual
of the eigenvector condition A(grad f) = -(f/2) grad f that characterizes
biconservative surfaces in a 3-space-form.  Two ambients are supported:
Euclidean 3-space, and the unit 3-sphere sitting in 4-space (where the
surface normal is the unit vector orthogonal to the position and both
tangents).

All computations are local and pure, so grid evaluation parallelizes
trivially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import OutOfDomain

__all__ = [
    "EUCLIDEAN3",
    "SPHERE3",
    "DegenerateMetric",
    "CMCPoint",
    "ImmersionPatch",
    "SurfaceData",
    "fundamental_forms",
    "shape_operator",
    "curvatures",
    "biconservativity_residual",
    "level_curve_circle_check",
    "gauss_curvature_from_metric",
    "validate_patch",
]

EUCLIDEAN3 = "euclidean3"
SPHERE3 = "sphere3"

# Second derivatives of analytic partials: central differences at this
# fraction of the domain scale keep the truncation error near 1e-10.
PARTIAL_FD_FRACTION = 1e-5
# Outer step for gradients of scalar curvature fields.
GRADIENT_FD_FRACTION = 1e-4

RESIDUAL_FLOOR = 1e-12
# below this gradient magnitude the point counts as CMC and the residual
# is reported unnormalized (the quotient would be noise over noise)
GRADIENT_THRESHOLD = 1e-8
ORIENT_TOL = 1e-8


class DegenerateMetric(Exception):
    """First fundamental form failed positive-definiteness."""


class CMCPoint(Exception):
    """Curvature gradient vanishes; the level-curve criterion is undefined."""


@dataclass(frozen=True)
class ImmersionPatch:
    """A coordinate rectangle with a position evaluator into the ambient.

    position(u, v) returns 3 components for the Euclidean ambient and 4
    (a unit vector) for the spherical one.  first_partials, when given,
    returns the pair of tangent vectors (X_u, X_v) and is preferred over
    finite differences everywhere derivatives of the position are needed.
    """

    u_range: tuple[float, float]
    v_range: tuple[float, float]
    ambient: str
    position: Callable[[float, float], np.ndarray]
    first_partials: Callable[[float, float], tuple[np.ndarray, np.ndarray]] | None = None
    name: str = ""
    # u-values where the chart degenerates (metric blows up); derivative
    # steps shrink in proportion to the distance from these.
    u_singularities: tuple[float, ...] = ()

    def __post_init__(self):
        if self.ambient not in (EUCLIDEAN3, SPHERE3):
            raise ValueError(f"unknown ambient {self.ambient!r}")
        if not (self.u_range[0] < self.u_range[1] and self.v_range[0] < self.v_range[1]):
            raise ValueError("degenerate coordinate rectangle")

    @property
    def scale(self) -> float:
        return max(self.u_range[1] - self.u_range[0], self.v_range[1] - self.v_range[0])

    def contains(self, u: float, v: float) -> bool:
        return (self.u_range[0] <= u <= self.u_range[1]
                and self.v_range[0] <= v <= self.v_range[1])

    def grid(self, nu: int, nv: int, margin: float = 1e-3):
        """Interior grid avoiding a relative margin near all four edges."""
        du = (self.u_range[1] - self.u_range[0]) * margin
        dv = (self.v_range[1] - self.v_range[0]) * margin
        us = np.linspace(self.u_range[0] + du, self.u_range[1] - du, nu)
        vs = np.linspace(self.v_range[0] + dv, self.v_range[1] - dv, nv)
        return us, vs


@dataclass
class SurfaceData:
    """Pointwise geometric data of an immersed patch."""

    E: float
    F: float
    G: float
    h11: float
    h12: float
    h22: float
    normal: np.ndarray
    shape: np.ndarray        # 2x2 shape-operator matrix in coordinate basis
    f: float                 # mean curvature, trace of the shape operator
    K: float                 # Gauss curvature of the induced metric

    @property
    def metric(self) -> np.ndarray:
        return np.array([[self.E, self.F], [self.F, self.G]])


def _fd4(fun, x, h):
    return (fun(x - 2 * h) - 8 * fun(x - h) + 8 * fun(x + h) - fun(x + 2 * h)) / (12 * h)


def _position_partials(patch: ImmersionPatch, u: float, v: float):
    if patch.first_partials is not None:
        xu, xv = patch.first_partials(u, v)
        return np.asarray(xu, dtype=float), np.asarray(xv, dtype=float)
    h = PARTIAL_FD_FRACTION * patch.scale * 10.0
    pos = patch.position
    xu = _fd4(lambda uu: np.asarray(pos(uu, v), dtype=float), u, h)
    xv = _fd4(lambda vv: np.asarray(pos(u, vv), dtype=float), v, h)
    return xu, xv


def _u_step(patch: ImmersionPatch, u: float, base: float) -> float:
    # inverse-sqrt blow-up of the partials: relative truncation of the
    # second-derivative stencil goes like (step/dist)^2, so keep the ratio
    # near 1e-4 (roundoff stays ~eps/ratio, far below that).
    if not patch.u_singularities:
        return base
    dist = min(abs(u - s) for s in patch.u_singularities)
    return min(base, 1e-4 * dist) if dist > 0.0 else base


def _second_partials(patch: ImmersionPatch, u: float, v: float):
    h = PARTIAL_FD_FRACTION * patch.scale
    hu = _u_step(patch, u, h)
    if patch.first_partials is not None:
        fp = patch.first_partials

        def pu(uu, vv):
            return np.asarray(fp(uu, vv)[0], dtype=float)

        def pv(uu, vv):
            return np.asarray(fp(uu, vv)[1], dtype=float)

        xuu = (pu(u + hu, v) - pu(u - hu, v)) / (2 * hu)
        xuv = (pu(u, v + h) - pu(u, v - h)) / (2 * h)
        xvv = (pv(u, v + h) - pv(u, v - h)) / (2 * h)
        return xuu, xuv, xvv
    pos = patch.position
    hh = h * 100.0

    def p(uu, vv):
        return np.asarray(pos(uu, vv), dtype=float)

    xuu = (-p(u + 2 * hh, v) + 16 * p(u + hh, v) - 30 * p(u, v)
           + 16 * p(u - hh, v) - p(u - 2 * hh, v)) / (12 * hh * hh)
    xvv = (-p(u, v + 2 * hh) + 16 * p(u, v + hh) - 30 * p(u, v)
           + 16 * p(u, v - hh) - p(u, v - 2 * hh)) / (12 * hh * hh)
    xuv = (p(u + hh, v + hh) - p(u + hh, v - hh)
           - p(u - hh, v + hh) + p(u - hh, v - hh)) / (4 * hh * hh)
    return xuu, xuv, xvv


def _normal(patch: ImmersionPatch, u: float, v: float, xu, xv):
    if patch.ambient == EUCLIDEAN3:
        n = np.cross(xu, xv)
    else:
        p = np.asarray(patch.position(u, v), dtype=float)
        # Hodge dual of p ^ xu ^ xv in R^4: orthogonal to all three rows.
        m = np.vstack([p, xu, xv])
        n = np.empty(4)
        cols = np.arange(4)
        for i in range(4):
            minor = m[:, cols != i]
            n[i] = (-1.0) ** i * np.linalg.det(minor)
    nn = np.linalg.norm(n)
    if nn == 0.0:
        raise DegenerateMetric("tangent vectors do not span a plane")
    return n / nn


def _first_form(patch: ImmersionPatch, u: float, v: float):
    """Tangents (X_u, X_v) and the first form (E, F, G), checked nondegenerate."""
    xu, xv = _position_partials(patch, u, v)
    E = float(xu @ xu)
    F = float(xu @ xv)
    G = float(xv @ xv)
    if E * G - F * F <= 0.0:
        raise DegenerateMetric(f"EG - F^2 = {E * G - F * F} <= 0 at ({u}, {v})")
    return xu, xv, E, F, G


def fundamental_forms(patch: ImmersionPatch, u: float, v: float):
    """First fundamental form coefficients (E, F, G) at an interior point."""
    return _first_form(patch, u, v)[2:]


def shape_operator(patch: ImmersionPatch, u: float, v: float) -> SurfaceData:
    """Shape operator and supporting data, normal oriented so f >= 0.

    The second-form coefficients are ambient inner products of the second
    coordinate derivatives with the unit normal; on the sphere the normal
    is orthogonal to the position, so the same formula computes the form
    with respect to the spherical connection.
    """
    xu, xv, E, F, G = _first_form(patch, u, v)
    det_g = E * G - F * F
    n = _normal(patch, u, v, xu, xv)
    xuu, xuv, xvv = _second_partials(patch, u, v)
    h11 = float(xuu @ n)
    h12 = float(xuv @ n)
    h22 = float(xvv @ n)
    g_inv = np.array([[G, -F], [-F, E]]) / det_g
    H = np.array([[h11, h12], [h12, h22]])
    A = g_inv @ H
    f = float(np.trace(A))
    if f < -ORIENT_TOL:
        n = -n
        h11, h12, h22 = -h11, -h12, -h22
        H = -H
        A = -A
        f = -f
    K = float(np.linalg.det(A)) + (1.0 if patch.ambient == SPHERE3 else 0.0)
    return SurfaceData(E=E, F=F, G=G, h11=h11, h12=h12, h22=h22,
                       normal=n, shape=A, f=f, K=K)


def _scalar_gradient(patch, u, v, scalar, g_inv, h):
    du = (scalar(u + h, v) - scalar(u - h, v)) / (2 * h)
    dv = (scalar(u, v + h) - scalar(u, v - h)) / (2 * h)
    d = np.array([du, dv])
    return g_inv @ d, d


def curvatures(patch: ImmersionPatch, u: float, v: float):
    """Mean curvature, Gauss curvature and their metric gradients.

    Gradients are coordinate components of grad = g^{-1} d(scalar); their
    lengths in the induced metric are sqrt(d . g^{-1} . d).
    """
    data = shape_operator(patch, u, v)
    det_g = data.E * data.G - data.F ** 2
    g_inv = np.array([[data.G, -data.F], [-data.F, data.E]]) / det_g
    h = GRADIENT_FD_FRACTION * patch.scale

    def f_at(uu, vv):
        return shape_operator(patch, uu, vv).f

    def k_at(uu, vv):
        return shape_operator(patch, uu, vv).K

    grad_f, _ = _scalar_gradient(patch, u, v, f_at, g_inv, h)
    grad_k, _ = _scalar_gradient(patch, u, v, k_at, g_inv, h)
    return data.f, data.K, grad_f, grad_k


def biconservativity_residual(patch: ImmersionPatch, u: float, v: float) -> float:
    """Scale-free defect of A(grad f) = -(f/2) grad f at one point.

    Returns |A(grad f) + (f/2) grad f|_g normalized by |grad f|_g |f| / 2
    (with an absolute floor).  Where the gradient is below the CMC
    threshold the defect is returned unnormalized: both sides of the
    identity vanish there and the quotient would compare noise to noise.
    """
    data = shape_operator(patch, u, v)
    det_g = data.E * data.G - data.F ** 2
    g = data.metric
    g_inv = np.array([[data.G, -data.F], [-data.F, data.E]]) / det_g
    h = GRADIENT_FD_FRACTION * patch.scale

    def f_at(uu, vv):
        return shape_operator(patch, uu, vv).f

    grad_f, _ = _scalar_gradient(patch, u, v, f_at, g_inv, h)
    res_vec = data.shape @ grad_f + 0.5 * data.f * grad_f
    res_norm = math.sqrt(max(0.0, float(res_vec @ g @ res_vec)))
    grad_norm = math.sqrt(max(0.0, float(grad_f @ g @ grad_f)))
    if grad_norm <= GRADIENT_THRESHOLD:
        return res_norm
    denom = max(grad_norm * abs(data.f) / 2.0, RESIDUAL_FLOOR)
    return res_norm / denom


def level_curve_circle_check(
    derivs: Callable[[float], tuple[float, float, float, float]],
    c: float,
    point: float,
) -> tuple[float, float]:
    """Compare two routes to the curvature of a constant-u curve.

    `derivs(point)` must return the conformal exponent of the metric
    e^{2 phi}(du^2 + dv^2) together with its first three derivatives with
    respect to the isothermal coordinate, evaluated at the point.  Returns
    the geodesic curvature e^{-phi}|phi'| of the v-coordinate circle and
    the intrinsic prediction 3 |grad K| / (8 (c - K)).
    """
    phi, d1, d2, d3 = derivs(point)
    e_m = math.exp(-phi)
    kappa_geo = e_m * abs(d1)
    K = -e_m ** 2 * d2
    dK = e_m ** 2 * (2.0 * d1 * d2 - d3)
    if dK == 0.0:
        raise CMCPoint(f"K'({point}) = 0; level curve is not a curvature circle")
    if c - K <= 0.0:
        raise OutOfDomain(f"c - K = {c - K} <= 0 at {point}")
    grad_k_norm = e_m * abs(dK)
    kappa_formula = 3.0 * grad_k_norm / (8.0 * (c - K))
    return kappa_geo, kappa_formula


def gauss_curvature_from_metric(
    E: Callable[[float], float],
    G: Callable[[float], float],
    x: float,
    scale: float = 1.0,
    dG: Callable[[float], float] | None = None,
) -> float:
    """Gauss curvature of an orthogonal metric E(x) dx^2 + G(x) dy^2.

    Uses K = -(1/(2 sqrt(EG))) d/dx( G'(x) / sqrt(EG) ); the coefficients
    depend on the first coordinate only.  An analytic dG sharpens the
    inner derivative, the outer one is a fourth-order difference.
    """
    h = 1e-4 * scale

    def gprime(xx):
        if dG is not None:
            return dG(xx)
        return _fd4(G, xx, h)

    def inner(xx):
        return gprime(xx) / math.sqrt(E(xx) * G(xx))

    d_inner = _fd4(inner, x, h)
    return -d_inner / (2.0 * math.sqrt(E(x) * G(x)))


def validate_patch(patch: ImmersionPatch, n: int = 5, rel_tol: float = 1e-6):
    """Spot-check patch invariants on an n x n interior sample.

    For spherical patches the position must be a unit vector; supplied
    partials must match finite differences of the position; the normal
    must be orthogonal to the tangents (and the position).  Returns the
    worst deviations found.
    """
    us, vs = patch.grid(n, n, margin=5e-2)
    worst_norm = 0.0
    worst_partial = 0.0
    worst_orth = 0.0
    for u in us:
        for v in vs:
            pos = np.asarray(patch.position(u, v), dtype=float)
            if patch.ambient == SPHERE3:
                worst_norm = max(worst_norm, abs(np.linalg.norm(pos) - 1.0))
            xu, xv = _position_partials(patch, u, v)
            if patch.first_partials is not None:
                h = PARTIAL_FD_FRACTION * patch.scale * 10.0
                fu = _fd4(lambda uu: np.asarray(patch.position(uu, v), dtype=float), u, h)
                fv = _fd4(lambda vv: np.asarray(patch.position(u, vv), dtype=float), v, h)
                su = max(1.0, float(np.linalg.norm(xu)))
                sv = max(1.0, float(np.linalg.norm(xv)))
                worst_partial = max(worst_partial,
                                    float(np.linalg.norm(fu - xu)) / su,
                                    float(np.linalg.norm(fv - xv)) / sv)
            nrm = _normal(patch, u, v, xu, xv)
            worst_orth = max(worst_orth, abs(float(nrm @ xu)), abs(float(nrm @ xv)))
            if patch.ambient == SPHERE3:
                worst_orth = max(worst_orth, abs(float(nrm @ pos)))
    return {
        "position_norm_defect": worst_norm,
        "partials_vs_fd": worst_partial,
        "normal_orthogonality": worst_orth,
        "ok": worst_partial <= rel_tol and worst_norm <= 1e-10 and worst_orth <= 1e-8,
    }
