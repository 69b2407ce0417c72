"""Independent differential-geometry oracle for immersed surface patches.

Given nothing but a position evaluator and analytic first partials,
computes first and second fundamental forms, the shape operator, mean and
Gauss curvature, curvature gradients, and the residual of the eigenvector
condition A(grad f) = -(f/2) grad f that characterizes biconservative
surfaces in a 3-space-form.  Second derivatives are central differences
of the partials, curvature gradients central differences of the
curvatures; `validate_patch` checks the partials against differences of
the positions.  Every step comes from `_step`: a fixed fraction, per
stencil, of the differenced coordinate's own width, shrunk near a
singular value of u in proportion to the distance from it.  Two ambients
are supported: Euclidean 3-space, and the unit 3-sphere sitting in
4-space (where the surface normal is the unit vector orthogonal to the
position and both tangents).

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

# Step of each stencil as a fraction of the differenced coordinate's
# length scale (see _step): central differences of analytic partials,
# fourth-order differences of exact values (positions, metric
# coefficients), and central differences of curvatures, which carry the
# partials' differencing noise and so take the longer step.
FD_FRACTION = {"partials": 1e-5, "values": 1e-4, "curvature": 1e-3}
# Near a singular value the length scale is this multiple of the distance
# to it: the partials blow up like its inverse square root, and relative
# truncation goes like (step / distance)^2.
SINGULAR_SCALE = 10.0

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
    (a unit vector) for the spherical one.  first_partials returns the
    pair of tangent vectors (X_u, X_v); the oracle differences these for
    second derivatives, and positions only to check them (validate_patch).
    Each coordinate's steps scale with that coordinate's own width.
    """

    u_range: tuple[float, float]
    v_range: tuple[float, float]
    ambient: str
    position: Callable[[float, float], np.ndarray]
    first_partials: Callable[[float, float], tuple[np.ndarray, np.ndarray]]
    # u-values where the chart degenerates (metric blows up); derivative
    # steps shrink in proportion to the distance from these.
    u_singularities: tuple[float, ...] = ()

    def __post_init__(self):
        if self.ambient not in (EUCLIDEAN3, SPHERE3):
            raise ValueError(f"unknown ambient {self.ambient!r}")
        if not (self.u_range[0] < self.u_range[1] and self.v_range[0] < self.v_range[1]):
            raise ValueError("degenerate coordinate rectangle")

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


def _step(kind: str, coord_range: tuple[float, float], at: float,
          singularities: tuple[float, ...]) -> float:
    """The oracle's one finite-difference step rule.

    The step in a coordinate spanning `coord_range` is FD_FRACTION[kind]
    of that coordinate's length scale: its width, or SINGULAR_SCALE times
    the distance from `at` to the nearest of its singular values,
    whichever is shorter.
    """
    scale = coord_range[1] - coord_range[0]
    if singularities:
        dist = min(abs(at - s) for s in singularities)
        if dist > 0.0:
            scale = min(scale, SINGULAR_SCALE * dist)
    return FD_FRACTION[kind] * scale


def _position_partials(patch: ImmersionPatch, u: float, v: float):
    xu, xv = patch.first_partials(u, v)
    return np.asarray(xu, dtype=float), np.asarray(xv, dtype=float)


def _second_partials(patch: ImmersionPatch, u: float, v: float):
    """Central differences of the partials, one partials call per stencil point."""
    hu = _step("partials", patch.u_range, u, patch.u_singularities)
    hv = _step("partials", patch.v_range, v, ())
    up, um = _position_partials(patch, u + hu, v), _position_partials(patch, u - hu, v)
    vp, vm = _position_partials(patch, u, v + hv), _position_partials(patch, u, v - hv)
    xuu = (up[0] - um[0]) / (2 * hu)
    xuv = (vp[0] - vm[0]) / (2 * hv)
    xvv = (vp[1] - vm[1]) / (2 * hv)
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


def _curvature_gradients(patch: ImmersionPatch, u: float, v: float, data: SurfaceData):
    """Metric gradients g^{-1} d(f) and g^{-1} d(K), both from one
    central-difference stencil of shape operators; `data` is the shape
    operator at (u, v)."""
    hu = _step("curvature", patch.u_range, u, patch.u_singularities)
    hv = _step("curvature", patch.v_range, v, ())
    up, um = shape_operator(patch, u + hu, v), shape_operator(patch, u - hu, v)
    vp, vm = shape_operator(patch, u, v + hv), shape_operator(patch, u, v - hv)
    det_g = data.E * data.G - data.F ** 2
    g_inv = np.array([[data.G, -data.F], [-data.F, data.E]]) / det_g
    grad_f = g_inv @ np.array([(up.f - um.f) / (2 * hu), (vp.f - vm.f) / (2 * hv)])
    grad_k = g_inv @ np.array([(up.K - um.K) / (2 * hu), (vp.K - vm.K) / (2 * hv)])
    return grad_f, grad_k


def curvatures(patch: ImmersionPatch, u: float, v: float):
    """Mean curvature, Gauss curvature and their metric gradients.

    Gradients are coordinate components of grad = g^{-1} d(scalar); their
    lengths in the induced metric are sqrt(d . g^{-1} . d).
    """
    data = shape_operator(patch, u, v)
    grad_f, grad_k = _curvature_gradients(patch, u, v, data)
    return data.f, data.K, grad_f, grad_k


def biconservativity_residual(patch: ImmersionPatch, u: float, v: float) -> float:
    """Scale-free defect of A(grad f) = -(f/2) grad f at one point.

    Returns |A(grad f) + (f/2) grad f|_g normalized by |grad f|_g |f| / 2
    (with an absolute floor).  Where the gradient is below the CMC
    threshold the defect is returned unnormalized: both sides of the
    identity vanish there and the quotient would compare noise to noise.
    """
    data = shape_operator(patch, u, v)
    g = data.metric
    grad_f, _ = _curvature_gradients(patch, u, v, data)
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
    depend on the first coordinate only, whose width is `scale`.  An
    analytic dG sharpens the inner derivative, the outer one is a
    fourth-order difference.
    """
    h = _step("values", (0.0, scale), x, ())

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

    For spherical patches the position must be a unit vector; the
    partials must match fourth-order differences of the position; the
    normal must be orthogonal to the tangents (and the position).  Returns
    the worst deviations found; a NaN deviation is the worst, so it fails.
    """
    us, vs = patch.grid(n, n, margin=5e-2)
    norm, partial, orth = [0.0], [], []
    for u in us:
        for v in vs:
            pos = np.asarray(patch.position(u, v), dtype=float)
            if patch.ambient == SPHERE3:
                norm.append(abs(np.linalg.norm(pos) - 1.0))
            xu, xv = _position_partials(patch, u, v)
            hu = _step("values", patch.u_range, u, patch.u_singularities)
            hv = _step("values", patch.v_range, v, ())
            fu = _fd4(lambda uu: np.asarray(patch.position(uu, v), dtype=float), u, hu)
            fv = _fd4(lambda vv: np.asarray(patch.position(u, vv), dtype=float), v, hv)
            su = max(1.0, float(np.linalg.norm(xu)))
            sv = max(1.0, float(np.linalg.norm(xv)))
            partial += [float(np.linalg.norm(fu - xu)) / su, float(np.linalg.norm(fv - xv)) / sv]
            nrm = _normal(patch, u, v, xu, xv)
            orth += [abs(float(nrm @ xu)), abs(float(nrm @ xv))]
            if patch.ambient == SPHERE3:
                orth.append(abs(float(nrm @ pos)))
    # max() drops a NaN that is not its first argument
    worst_norm, worst_partial, worst_orth = (
        math.nan if any(map(math.isnan, xs)) else max(xs) for xs in (norm, partial, orth))
    return {
        "position_norm_defect": worst_norm,
        "partials_vs_fd": worst_partial,
        "normal_orthogonality": worst_orth,
        "ok": worst_partial <= rel_tol and worst_norm <= 1e-10 and worst_orth <= 1e-8,
    }
