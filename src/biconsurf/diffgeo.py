"""Independent differential-geometry oracle for immersed surface patches.

Given a patch's jet, positions with first and second partials in closed
form, computes first and second fundamental forms, the shape operator,
mean and Gauss curvature, curvature gradients (central differences of the
curvatures), and the residual of the eigenvector condition
A(grad f) = -(f/2) grad f that characterizes biconservative surfaces in a
3-space-form.  Two consistency measures keep the oracle independent of
the closed forms it reads: the first partials against fourth-order
differences of the positions, and the second against those of the first.
Every stencil on a patch is sized by `jet_steps` from the jets' lengths.
Two ambients are supported: Euclidean 3-space, and the unit 3-sphere in
4-space (where the surface normal is the unit vector orthogonal to the
position and both tangents).

The oracle is batched: an entry point takes a sample set of points, calls
the patch's `jet` once on all their points (one per shape operator, 5 per
residual, which carries `ride` points in that call and returns their
shape operators) and does the rest on arrays, point by point.  A scalar
call is the one-point case and returns scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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
    "per_distinct",
    "stack_coordinates",
    "fundamental_forms",
    "shape_operator",
    "biconservativity_residual",
    "level_curve_circle_check",
    "gauss_curvature_from_metric",
]

EUCLIDEAN3 = "euclidean3"
SPHERE3 = "sphere3"

# Step of each stencil as a fraction of the differenced coordinate's
# length scale: its width for fourth-order differences of metric
# coefficients, the jets' own (see jet_steps) for central differences of
# curvatures and fourth-order differences of jets.
FD_FRACTION = {"values": 1e-4, "curvature": 1e-3, "jet": 1e-3}

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
    """A coordinate rectangle with a jet evaluator into the ambient.

    jet(us, vs) takes equal-length 1-D arrays of points and returns
    (X, X_u, X_v, X_uu, X_uv, X_vv), six (n, d) arrays in closed form from
    one evaluation, stacked as one (6, n, d) array or not: d = 3 for the
    Euclidean ambient, 4 for the spherical one, whose positions X are unit
    vectors.  Only the consistency measures, which difference the jets, can
    tell a wrong closed form from a right one.  Steps scale with the jets'
    lengths, bounded by each coordinate's width (see `jet_steps`).
    """

    u_range: tuple[float, float]
    v_range: tuple[float, float]
    ambient: str
    jet: Callable[[np.ndarray, np.ndarray], np.ndarray]

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
    """Geometric data of an immersed patch: per-point arrays over a batch
    (normal (n, d), shape (n, 2, 2), jet (n, 6, d)), or one point's values."""

    E: float
    F: float
    G: float
    normal: np.ndarray
    shape: np.ndarray        # 2x2 shape-operator matrix in coordinate basis
    f: float                 # mean curvature, trace of the shape operator
    K: float                 # Gauss curvature of the induced metric
    jet: np.ndarray          # the patch's (X, X_u, X_v, X_uu, X_uv, X_vv) it was read from

    def __getitem__(self, i) -> "SurfaceData":
        """The data of point i, or of a slice of points, of a batch."""
        return SurfaceData(*(getattr(self, fl.name)[i] for fl in fields(self)))


def per_distinct(fun, u):
    """`fun` once, on the 1-D array of the distinct values of `u`, and each
    sequence it returns, one value per distinct value, spread back over
    `u` as a float array shaped like `u`."""
    uniq, inv = np.unique(u, return_inverse=True)
    inv = inv.reshape(np.shape(u))
    return tuple(np.asarray(vals, dtype=float)[inv] for vals in fun(uniq))


def stack_coordinates(*coords):
    """Points of shape (..., len(coords)) from the broadcast coordinate arrays."""
    out = np.empty(np.broadcast(*coords).shape + (len(coords),))
    for i, x in enumerate(coords):
        out[..., i] = x
    return out


def stack_jet(*rows):
    """(X, X_u, X_v, X_uu, X_uv, X_vv) as one (6, n, d) array from six rows."""
    out = stack_coordinates(*(x for row in rows for x in row))
    return out.reshape(out.shape[:-1] + (6, -1)).swapaxes(0, -2)


def _fd4(fun, x, h):
    return (fun(x - 2 * h) - 8 * fun(x - h) + 8 * fun(x + h) - fun(x + 2 * h)) / (12 * h)


def _points(u, v):
    """The points (u, v) as equal-length 1-D float arrays; a scalar pair is one point."""
    us, vs = np.broadcast_arrays(np.atleast_1d(u).astype(float), np.atleast_1d(v).astype(float))
    if us.ndim != 1 or not us.size:
        raise ValueError("the oracle takes a nonempty 1-D set of points")
    return us, vs


def _unbatch(u, v, out):
    """The result of a scalar call: the one point of each array in `out`."""
    if np.ndim(u) or np.ndim(v):
        return out
    return tuple(x[0] for x in out) if isinstance(out, tuple) else out[0]


def _stencil(us, vs, hu, hv):
    """The points and their four central-difference neighbours, as five blocks."""
    return (np.concatenate([us, us + hu, us - hu, us, us]),
            np.concatenate([vs, vs, vs, vs + hv, vs - hv]))


def _central(x, hu, hv):
    """(d/du, d/dv) by central differences of the values x on `_stencil`'s blocks."""
    x = x.reshape(5, len(hu), *x.shape[1:])
    hu, hv = (np.reshape(2 * h, (-1,) + (1,) * (x.ndim - 2)) for h in (hu, hv))
    return (x[1] - x[2]) / hu, (x[3] - x[4]) / hv


def _dot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _fail_first(bad, exc, message, *values):
    """Raise `exc` at the first point where `bad` holds; `message` is
    formatted with that point's entries of `values`."""
    if np.any(bad):
        i = int(np.argmax(bad))
        raise exc(message.format(*(np.ravel(x)[i] for x in values)))


def _first_form(us, vs, xu, xv):
    """(E, F, G) of the tangents at the points, checked nondegenerate; an
    EG - F^2 past the float range raises OverflowError."""
    E, F, G = _dot(xu, xu), _dot(xu, xv), _dot(xv, xv)
    _fail_first(np.isinf(E * G) | np.isinf(F * F), OverflowError,
                "EG - F^2 overflows at ({}, {})", us, vs)
    det = E * G - F * F
    _fail_first(det <= 0.0, DegenerateMetric, "EG - F^2 = {} <= 0 at ({}, {})", det, us, vs)
    return E, F, G


def _inverse_metric(E, F, G):
    """Entries (g^11, g^12, g^22) of the inverse first form."""
    det = E * G - F * F
    return G / det, -F / det, E / det


def _normal(us, vs, p, xu, xv):
    """Unit normals (n, d): the cross product of the tangents in R^3, where
    the positions p are None; in R^4 the Hodge dual of p ^ xu ^ xv,
    orthogonal to the position p and both tangents, by cofactor expansion
    along p."""
    a, b = xu.T, xv.T
    if p is None:
        n = np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                      a[0] * b[1] - a[1] * b[0]], -1)
    else:
        p = p.T
        m = {(j, k): a[j] * b[k] - a[k] * b[j] for j in range(4) for k in range(j + 1, 4)}
        n = np.stack([p[1] * m[2, 3] - p[2] * m[1, 3] + p[3] * m[1, 2],
                      p[2] * m[0, 3] - p[0] * m[2, 3] - p[3] * m[0, 2],
                      p[0] * m[1, 3] - p[1] * m[0, 3] + p[3] * m[0, 1],
                      p[1] * m[0, 2] - p[0] * m[1, 2] - p[2] * m[0, 1]], -1)
    nn = np.sqrt(_dot(n, n))
    _fail_first(nn == 0.0, DegenerateMetric, "tangent vectors do not span a plane at ({}, {})",
                us, vs)
    return n / nn[:, None]


@np.errstate(over="ignore", invalid="ignore")
def fundamental_forms(patch: ImmersionPatch, u, v):
    """First fundamental form coefficients (E, F, G) at interior points."""
    us, vs = _points(u, v)
    return _unbatch(u, v, _first_form(us, vs, *patch.jet(us, vs)[1:3]))


@np.errstate(over="ignore", invalid="ignore")
def shape_operator(patch: ImmersionPatch, u, v) -> SurfaceData:
    """Shape operator and supporting data, normal oriented so f >= 0.

    The second-form coefficients are ambient inner products of the
    closed-form second partials with the unit normal; on the sphere the
    normal is orthogonal to the position, so the same formula computes the
    form with respect to the spherical connection.
    """
    us, vs = _points(u, v)
    jet = np.asarray(patch.jet(us, vs))
    p, xu, xv = jet[:3]
    E, F, G = _first_form(us, vs, xu, xv)
    nrm = _normal(us, vs, p if patch.ambient == SPHERE3 else None, xu, xv)
    h11, h12, h22 = np.einsum("kij,ij->ki", jet[3:], nrm)
    g11, g12, g22 = _inverse_metric(E, F, G)
    A = np.array([[g11 * h11 + g12 * h12, g11 * h12 + g12 * h22],
                  [g12 * h11 + g22 * h12, g12 * h12 + g22 * h22]])
    sign = np.where(A[0, 0] + A[1, 1] < -ORIENT_TOL, -1.0, 1.0)
    A = A * sign
    K = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0] + (1.0 if patch.ambient == SPHERE3 else 0.0)
    return _unbatch(u, v, SurfaceData(E, F, G, sign[:, None] * nrm, A.transpose(2, 0, 1),
                                      A[0, 0] + A[1, 1], K, jet.swapaxes(0, 1)))


def jet_lengths(jet):
    """|X_u|, |X_v|, |X_uu|, |X_uv|, |X_vv| (5, n) of jets (6, n, d)."""
    return np.sqrt(np.einsum("knd,knd->kn", jet[1:], jet[1:]))


def jet_steps(kind: str, patch: ImmersionPatch, lengths):
    """The oracle's one step rule on a patch: per point, the steps (h, k)
    (2, n) in u and v, FD_FRACTION[kind] of the shortest of the
    coordinate's width and the lengths on which a tangent changes by its
    own size, from the points' `jet_lengths` (5, n) from any source:
    |X_u|/|X_uu|, |X_v|/|X_uv| in u (Psi_h = (r' cos, r' sin, 1) sees r
    vary only through the second), |X_v|/|X_vv|, |X_u|/|X_uv| in v."""
    rate = (lengths[[2, 3, 4, 3]] / lengths[[0, 1, 1, 0]]).reshape(2, 2, -1)
    width = np.diff([patch.u_range, patch.v_range])
    return FD_FRACTION[kind] / np.maximum(rate.max(1), 1.0 / width)


def _curvature_gradients(patch: ImmersionPatch, us, vs, lengths, ride=((), ())):
    """Shape operators at the points, there the metric gradients g^{-1} d(f)
    and g^{-1} d(K) as (n, 2) arrays, and the shape operators at the `ride`
    points: one shape_operator call over the points, their stencils, with
    steps from the points' `jet_lengths`, and the ride points."""
    hu, hv = jet_steps("curvature", patch, lengths)
    n = 5 * len(us)
    stencil = shape_operator(patch, *(np.concatenate([x, r]) for x, r in
                                      zip(_stencil(us, vs, hu, hv), ride)))
    data = stencil[:len(us)]
    g11, g12, g22 = _inverse_metric(data.E, data.F, data.G)
    grads = (_central(x[:n], hu, hv) for x in (stencil.f, stencil.K))
    return (data, *(np.stack([g11 * du + g12 * dv, g12 * du + g22 * dv], -1)
                    for du, dv in grads), stencil[n:])


@np.errstate(over="ignore", invalid="ignore")
def biconservativity_residual(patch: ImmersionPatch, u, v, lengths, ride=((), ())):
    """Scale-free defect of A(grad f) = -(f/2) grad f at each point, its
    curvature stencil sized from the points' `jet_lengths` (5, n) from any
    source, and the shape operators (SurfaceData) of the `ride` points,
    which its evaluator call covers.

    The defect is |A(grad f) + (f/2) grad f|_g normalized by
    |grad f|_g |f| / 2 (with an absolute floor).  Where the gradient is
    below the CMC threshold the defect is returned unnormalized: both sides
    of the identity vanish there and the quotient would compare noise to
    noise.  A NaN anywhere in a point's data gives that point a NaN.
    """
    us, vs = _points(u, v)
    d, grad_f, _, rode = _curvature_gradients(patch, us, vs, lengths, ride)
    # lengths in the induced metric of tangent components (n, 2)
    length = lambda x: np.sqrt(np.maximum(
        0.0, (x[:, 0] * d.E + x[:, 1] * d.F) * x[:, 0] + (x[:, 0] * d.F + x[:, 1] * d.G) * x[:, 1]))
    res_norm = length(np.einsum("nij,nj->ni", d.shape, grad_f) + 0.5 * d.f[:, None] * grad_f)
    grad_norm = length(grad_f)
    denom = np.maximum(grad_norm * np.abs(d.f) / 2.0, RESIDUAL_FLOOR)
    return _unbatch(u, v, np.where(grad_norm <= GRADIENT_THRESHOLD, res_norm, res_norm / denom)), rode


def consistency(patch: ImmersionPatch, us, vs, lengths):
    """The stencil about the broadcast (us, vs), each point then u -+ 2h,
    u -+ h, then v -+ 2k, v -+ k, with the `jet_steps` of the points'
    `jet_lengths`.  And a function of the stencil's jets alone that gives
    per point, D the fourth-order differences, the larger of
    |D_u X - X_u|/|X_u| and |D_v X - X_v|/|X_v|, and the largest
    |D_a X_b - X_ab| over |X_b| / (the length step a came from),
    ab = uu, uv (a = v), vv."""
    steps = jet_steps("jet", patch, lengths)  # (h, k)
    a, b, m = [0, 1, 0, 1, 1], [0, 0, 1, 1, 2], steps.shape[1]  # direction a of D_a X_b
    scale = steps[a] / FD_FRACTION["jet"]
    scale[:2] = 1.0

    def measure(jet):
        s = jet[m:, :3].reshape(2, 4, m, 3, -1)
        d = (s[:, 0] - s[:, 3] + 8.0 * (s[:, 2] - s[:, 1]))[a, :, b] / (12.0 * steps[a, :, None])
        d -= jet[:m, 1:].swapaxes(0, 1)
        g = np.sqrt(np.einsum("kmd,kmd->km", d, d)) * scale
        g /= jet_lengths(jet[:m].swapaxes(0, 1))[[0, 1, 0, 0, 1]]
        return np.maximum(g[0], g[1]), g[2:].max(0)
    off = np.array([[0, -2, -1, 1, 2, 0, 0, 0, 0], [0, 0, 0, 0, 0, -2, -1, 1, 2]])[..., None]
    return tuple((x + o * h).ravel() for x, o, h in zip((us, vs), off, steps)), measure


def level_curve_circle_check(derivs: Callable, c: float, point):
    """Compare two routes to the curvature of a constant-u curve, at a
    point or an array of them.

    `derivs(point)` must return the conformal exponent of the metric
    e^{2 phi}(du^2 + dv^2) together with its first three derivatives with
    respect to the isothermal coordinate, evaluated at the points.
    Returns the geodesic curvature e^{-phi}|phi'| of the v-coordinate
    circle and the intrinsic prediction 3 |grad K| / (8 (c - K)).
    """
    phi, d1, d2, d3 = derivs(point)
    e_m = np.exp(-phi)
    kappa_geo = e_m * np.abs(d1)
    K = -e_m ** 2 * d2
    dK = e_m ** 2 * (2.0 * d1 * d2 - d3)
    _fail_first(dK == 0.0, CMCPoint, "K'({}) = 0; level curve is not a curvature circle", point)
    _fail_first(c - K <= 0.0, OutOfDomain, "c - K = {} <= 0 at {}", c - K, point)
    kappa_formula = 3.0 * (e_m * np.abs(dK)) / (8.0 * (c - K))
    return kappa_geo, kappa_formula


def gauss_curvature_from_metric(E: Callable, G: Callable, x, scale=1.0, *, dG: Callable):
    """Gauss curvature of an orthogonal metric E(x) dx^2 + G(x) dy^2, at a
    point x or an array of them.

    Uses K = -(1/(2 sqrt(EG))) d/dx( G'(x) / sqrt(EG) ); the coefficients
    depend on the first coordinate only, whose width is `scale` (one per
    point, or one for all).  The inner derivative G' is the analytic dG,
    the outer one is a fourth-order difference.
    """
    h = FD_FRACTION["values"] * scale
    inner = lambda xx: dG(xx) / np.sqrt(E(xx) * G(xx))
    return -_fd4(inner, x, h) / (2.0 * np.sqrt(E(x) * G(x)))
