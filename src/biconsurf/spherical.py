"""The sphere-ambient family on its fundamental strip.

For C > 4/3^{3/2} the polynomial-like function T(xi) = -xi^{8/3} + 3C xi^2 - 3
has exactly two positive roots xi01 < xi02 straddling xi00 = (9C/4)^{3/2}.
On the strip (xi01, xi02) x R the metric

    g_C = 3 / (xi^2 T(xi)) dxi^2 + dtheta^2 / xi^2

is realized inside the unit 3-sphere by

    Phi_C(xi, theta) = (sqrt(1 - 1/(C xi^2)) cos zeta,
                        sqrt(1 - 1/(C xi^2)) sin zeta,
                        cos(sqrt(C) theta) / (sqrt(C) xi),
                        sin(sqrt(C) theta) / (sqrt(C) xi)),

with zeta the quadrature of sqrt(C) tau^{4/3} / ((C tau^2 - 1) sqrt(T(tau)))
based at xi00.  The same immersion arises from an arclength-parametrized
curve whose curvature k solves k'' = -(16/9) k - 32 k^3 + (7/4) C1 k^{5/2}
with C1 = 16 * 3^{1/4} C; that route is kept here as an ODE cross-check,
connected to the strip coordinates by k = 3^{-3/2} xi^{4/3}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import diffgeo
from .numerics import (
    Bracket,
    CumulativeQuadrature,
    DegenerateDomain,
    OdeState,
    OutOfDomain,
    expand_bracket,
    find_root,
    solve_ode,
)

__all__ = [
    "C_MIN",
    "FamilyParamsS3",
    "DomainRoots",
    "T",
    "T_deriv",
    "L",
    "strip_quadrature",
    "domain_roots",
    "metric_gC",
    "gauss_curvature_DC",
    "grad_K_norm",
    "SphereFamily",
    "family",
    "zeta0",
    "immersion_PhiC",
    "curvature_ode_k",
    "phi_coordinate_bridge",
    "c0_ode_residual",
    "master_ode_residual",
    "metric_profile_derivs",
]

C_MIN = 4.0 / 3.0 ** 1.5  # threshold where the two roots of T coalesce

ROOT_TOL = 1e-13

# the curvature ODE cross-check stops at this many turning points or time
ODE_TURNING_POINTS = 7
ODE_T_END = 100.0


@dataclass(frozen=True)
class FamilyParamsS3:
    """Sphere-family parameters: C above the double-root threshold."""

    C: float

    def __post_init__(self):
        if self.C <= C_MIN:
            raise DegenerateDomain(f"C = {self.C} <= {C_MIN}")

    @property
    def C1(self) -> float:
        return 16.0 * 3.0 ** 0.25 * self.C


@dataclass(frozen=True)
class DomainRoots:
    """Roots of T bracketing the strip, plus their curvature-side images."""

    xi01: float
    xi00: float
    xi02: float

    def __post_init__(self):
        if not (0.0 < self.xi01 < self.xi00 < self.xi02):
            raise ValueError("roots out of order")

    @property
    def k01(self) -> float:
        return 3.0 ** -1.5 * self.xi01 ** (4.0 / 3.0)

    @property
    def k02(self) -> float:
        return 3.0 ** -1.5 * self.xi02 ** (4.0 / 3.0)

    def contains(self, xi: float) -> bool:
        return self.xi01 < xi < self.xi02


def T(C: float, xi):
    xi = np.asarray(xi, dtype=float) if not np.isscalar(xi) else xi
    return -np.power(xi, 8.0 / 3.0) + 3.0 * C * np.square(xi) - 3.0


def T_deriv(C: float, xi):
    return -(8.0 / 3.0) * np.power(xi, 5.0 / 3.0) + 6.0 * C * xi


def T_deriv2(C: float, xi):
    return -(40.0 / 9.0) * np.power(xi, 2.0 / 3.0) + 6.0 * C


def T_over_distance(C: float, root: float, d):
    """T(root + d) / d from the Taylor polynomial around the root.

    Valid for |d| well inside the strip (the d^4 truncation is below
    machine precision for |d| <= ~1e-3 root); the point is that d enters
    exactly, so there is no cancellation even for d near the rounding
    scale of root.
    """
    d = np.asarray(d, dtype=float)
    t1 = float(T_deriv(C, root))
    t2 = float(T_deriv2(C, root))
    t3 = -(80.0 / 27.0) * root ** (-1.0 / 3.0)
    t4 = (80.0 / 81.0) * root ** (-4.0 / 3.0)
    return t1 + d * (t2 / 2.0 + d * (t3 / 6.0 + d * (t4 / 24.0)))


def _taylor_window(roots: "DomainRoots", root: float) -> float:
    return min(1e-4 * (roots.xi02 - roots.xi01), 1e-3 * root)


def T_near_roots(C: float, tau, roots: "DomainRoots"):
    """T evaluated stably arbitrarily close to its strip roots.

    Direct evaluation of T loses relative accuracy within ~1e-7 of a root
    (catastrophic cancellation against the noise of the root itself);
    inside a small window the value is recovered from the Taylor expansion
    about the root instead.  The window at each root is the smaller of
    1e-4 of the strip width and 1e-3 of the root, the range where the
    quartic Taylor polynomial's truncation stays below rounding; at large
    C, 1e-4 of the strip width alone would reach a fifth of xi01.  A root
    whose window the range of `tau` misses is skipped without a mask.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    out = T(C, tau)
    lo, hi = float(tau.min()), float(tau.max())
    for root in (roots.xi01, roots.xi02):
        window = _taylor_window(roots, root)
        # rounding is monotone, so no tau - root lies within the window either
        if hi - root < -window or lo - root > window:
            continue
        d = tau - root
        mask = np.abs(d) <= window
        if np.any(mask):
            dm = d[mask]
            out[mask] = dm * T_over_distance(C, root, dm)
    return out


def T_stable(C: float, xi: float, roots: "DomainRoots") -> float:
    """Scalar `T_near_roots` in Python floats, with the same windows; the
    two differ by a few ulps where Python's pow and numpy's round apart."""
    for root in (roots.xi01, roots.xi02):
        d = xi - root
        if abs(d) <= _taylor_window(roots, root):
            t1 = -(8.0 / 3.0) * root ** (5.0 / 3.0) + 6.0 * C * root
            t2 = -(40.0 / 9.0) * root ** (2.0 / 3.0) + 6.0 * C
            t3 = -(80.0 / 27.0) * root ** (-1.0 / 3.0)
            t4 = (80.0 / 81.0) * root ** (-4.0 / 3.0)
            return d * (t1 + d * (t2 / 2.0 + d * (t3 / 6.0 + d * (t4 / 24.0))))
    return -xi ** (8.0 / 3.0) + 3.0 * C * (xi * xi) - 3.0


def L(C1: float, k):
    return -16.0 / 9.0 - 16.0 * np.square(k) + C1 * np.power(k, 1.5)


def strip_quadrature(C: float, roots: "DomainRoots", g) -> CumulativeQuadrature:
    """Cumulative quadrature of g(tau, T(tau)) / sqrt(T(tau)) over the strip.

    `g` takes arrays of tau and of T(tau) and must stay finite at the
    roots.  The end cells substitute tau = root +/- s^2 and take T from
    s^2 T_over_distance, so the distance to the root enters exactly; the
    inverse square root of T then cancels against the substitution's
    factor 2 s, and the end integrands, kept as `left_sub` and `right_sub`
    on the result, are up to sign the derivatives of the integral with
    respect to s = sqrt(|tau - root|).
    """

    def f(tau):
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        tv = np.maximum(T_near_roots(C, tau, roots), 1e-300)
        return g(tau, tv) / np.sqrt(tv)

    def end(root, side):
        def sub(s):
            d = s * s
            t_over_d = side * T_over_distance(C, root, side * d)
            return 2.0 * g(root + side * d, d * t_over_d) / np.sqrt(t_over_d)
        return sub

    return CumulativeQuadrature(f, roots.xi01, roots.xi02,
                                end(roots.xi01, 1.0), end(roots.xi02, -1.0))


def domain_roots(C: float, tol: float = ROOT_TOL) -> DomainRoots:
    """Bracketed roots xi01 < xi00 < xi02 of T for an admissible C.

    The midpoint xi00 = (9C/4)^{3/2} maximizes nothing in particular but
    always separates the two roots; T(xi00) = 2187 C^4 / 256 - 3, so a
    non-positive value there flags the degenerate (double-root) regime.
    """
    xi00 = (2.25 * C) ** 1.5
    t00 = float(T(C, xi00))
    if t00 <= 10.0 * np.finfo(float).eps * max(1.0, 3.0 * C * xi00 ** 2):
        raise DegenerateDomain(
            f"C = {C} at or below the double-root threshold {C_MIN}"
        )
    f = lambda x: float(T(C, x))
    lo = find_root(f, Bracket.from_function(f, 1e-9, xi00), tol=tol)
    upper = expand_bracket(f, xi00, 2.0 * xi00)
    hi = find_root(f, upper, tol=tol)
    return DomainRoots(xi01=lo, xi00=xi00, xi02=hi)


def metric_gC(C: float, xi: float) -> tuple[float, float]:
    """Closed-form metric coefficients (E, G) on the strip; F = 0."""
    t = float(T(C, xi))
    if xi <= 0.0 or t <= 0.0:
        raise OutOfDomain(f"xi = {xi} outside the strip for C = {C}")
    return 3.0 / (xi * xi * t), 1.0 / (xi * xi)


def gauss_curvature_DC(xi: float) -> float:
    """Strip Gauss curvature 1 - xi^{8/3}/9; independent of C."""
    return 1.0 - xi ** (8.0 / 3.0) / 9.0


def grad_K_norm(C: float, xi: float) -> float:
    """Metric norm of the curvature gradient on the strip: vanishes at both ends."""
    t = float(T(C, xi))
    if t < 0.0:
        raise OutOfDomain(f"xi = {xi} outside the strip")
    # |grad K| = sqrt(E^{-1}) |K'| with K' = -(8/27) xi^{5/3}
    return math.sqrt(xi * xi * t / 3.0) * (8.0 / 27.0) * xi ** (5.0 / 3.0)


class SphereFamily:
    """Per-C bundle: roots, zeta quadrature, metric, and the immersion.

    Construction is single-threaded; the finished object is immutable in
    practice and safe for concurrent evaluation.
    """

    def __init__(self, C: float):
        self.params = FamilyParamsS3(C=C)
        self.C = float(C)
        self.roots = domain_roots(C)
        sc = math.sqrt(self.C)

        C = self.C  # not self in the integrand: that cycle would outlive cache eviction
        self._zeta_cum = strip_quadrature(
            C, self.roots, lambda tau, t: sc * np.power(tau, 4.0 / 3.0) / (C * tau * tau - 1.0))
        self._zeta_base = self._zeta_cum.value(self.roots.xi00)

    # -- scalar quantities -------------------------------------------------

    def zeta0(self, xi: float) -> float:
        """Turning-angle quadrature based at xi00 (zeta0(xi00) = 0)."""
        if not (self.roots.xi01 <= xi <= self.roots.xi02):
            raise OutOfDomain(f"xi = {xi} outside [{self.roots.xi01}, {self.roots.xi02}]")
        return self._zeta_cum.value(xi) - self._zeta_base

    def zeta0_deriv(self, xi: float) -> float:
        t = T_stable(self.C, xi, self.roots)
        if t <= 0.0:
            raise OutOfDomain(f"xi = {xi} at or outside the strip ends")
        return math.sqrt(self.C) * xi ** (4.0 / 3.0) / ((self.C * xi * xi - 1.0) * math.sqrt(t))

    @property
    def zeta_limits(self) -> tuple[float, float]:
        """(limit at xi01, limit at xi02); both finite."""
        return (-self._zeta_base, self._zeta_cum.total - self._zeta_base)

    # -- immersion ----------------------------------------------------------

    def radius(self, xi: float) -> float:
        w = 1.0 - 1.0 / (self.C * xi * xi)
        if w <= 0.0:
            raise OutOfDomain(f"C xi^2 <= 1 at xi = {xi}")
        return math.sqrt(w)

    def immersion(self, xi: float, theta) -> np.ndarray:
        """Point of Phi_C; a 1-D `theta` gives the (n, 4) row at one xi."""
        if not self.roots.contains(xi):
            raise OutOfDomain(f"xi = {xi} outside the open strip")
        R = self.radius(xi)
        z = self.zeta0(xi)
        sc = math.sqrt(self.C)
        p1, p2, d = R * math.cos(z), R * math.sin(z), sc * xi
        theta = np.asarray(theta, dtype=float)
        rows = [[p1, p2, math.cos(sc * t) / d, math.sin(sc * t) / d]
                for t in theta.ravel().tolist()]
        return np.array(rows) if theta.ndim else np.array(rows[0])

    def immersion_partials(self, xi: float, theta: float):
        R = self.radius(xi)
        z = self.zeta0(xi)
        sc = math.sqrt(self.C)
        dR = 1.0 / (self.C * xi ** 3 * R)
        dz = self.zeta0_deriv(xi)
        ct, st = math.cos(sc * theta), math.sin(sc * theta)
        cz, sz = math.cos(z), math.sin(z)
        d_xi = np.array([
            dR * cz - R * sz * dz,
            dR * sz + R * cz * dz,
            -ct / (sc * xi * xi),
            -st / (sc * xi * xi),
        ])
        d_theta = np.array([0.0, 0.0, -st / xi, ct / xi])
        return d_xi, d_theta

    def patch(self, xi_margin: float = 1e-3, theta_range=(0.0, 1.0)) -> diffgeo.ImmersionPatch:
        """Strip patch trimmed by a relative margin at the singular ends."""
        width = self.roots.xi02 - self.roots.xi01
        lo = self.roots.xi01 + xi_margin * width
        hi = self.roots.xi02 - xi_margin * width
        return diffgeo.ImmersionPatch(
            u_range=(lo, hi),
            v_range=theta_range,
            ambient=diffgeo.SPHERE3,
            position=lambda xi, th: self.immersion(xi, th),
            first_partials=lambda xi, th: self.immersion_partials(xi, th),
            u_singularities=(self.roots.xi01, self.roots.xi02),
        )

    def metric_profile_derivs(self):
        """Conformal exponent derivatives (w.r.t. the isothermal coordinate)
        of the strip metric, indexed by xi.

        With du = sqrt(3/T) dxi the metric reads e^{-2 log xi}(du^2 + dtheta^2);
        the chain rule turns the T-closed-forms into u-derivatives of the
        exponent phi = -log xi.
        """
        C = self.C

        def derivs(xi: float):
            t = float(T(C, xi))
            if t <= 0.0:
                raise OutOfDomain(f"xi = {xi} outside the strip")
            tp = float(T_deriv(C, xi))
            tpp = float(T_deriv2(C, xi))
            root = math.sqrt(t / 3.0)
            phi = -math.log(xi)
            d1 = -root / xi
            d2 = -tp / (6.0 * xi) + t / (3.0 * xi * xi)
            d3 = root * (-tpp / (6.0 * xi) + tp / (2.0 * xi * xi) - 2.0 * t / (3.0 * xi ** 3))
            return phi, d1, d2, d3

        return derivs


@lru_cache(maxsize=32)
def family(C: float) -> SphereFamily:
    """Cached per-C family bundle (thread-safe via lru_cache)."""
    return SphereFamily(C)


# -- module-level convenience wrappers ---------------------------------------

def zeta0(C: float, xi: float) -> float:
    return family(C).zeta0(xi)


def immersion_PhiC(params: FamilyParamsS3 | float, xi: float, theta: float) -> np.ndarray:
    C = params.C if isinstance(params, FamilyParamsS3) else float(params)
    return family(C).immersion(xi, theta)


# -- curvature ODE route ------------------------------------------------------

def curvature_ode_k(
    params: FamilyParamsS3,
    k_start: float,
    direction: int = +1,
    tol: float = 1e-10,
) -> dict:
    """Integrate the profile-curvature oscillation and report invariants.

    Starts on the zero level set of the conserved quantity
    P = (k')^2 + (16/9) k^2 + 16 k^4 - C1 k^{7/2}, with k' taken from P = 0,
    and integrates k'' = -(16/9) k - 32 k^3 + (7/4) C1 k^{5/2}.  Turning
    points (k' = 0) are located by event detection; the equation itself is
    regular there, so the trajectory passes through them and oscillates
    between the two roots of L.  Returns the trajectory with the maximum
    conserved-quantity drift (absolute and relative to the term scale) and
    the k-range covered.
    """
    C1 = params.C1
    roots = domain_roots(params.C)
    if not (roots.k01 < k_start < roots.k02):
        raise OutOfDomain(f"k_start = {k_start} outside ({roots.k01}, {roots.k02})")
    lk = float(L(C1, k_start))
    if lk <= 0.0:
        raise OutOfDomain(f"L(k_start) = {lk} <= 0")
    kp0 = direction * k_start * math.sqrt(lk)

    def rhs(t, y):
        k = y[0]
        return np.array([y[1], -16.0 / 9.0 * k - 32.0 * k ** 3 + 1.75 * C1 * k ** 2.5])

    def prime(k, kp):
        return kp * kp + 16.0 / 9.0 * k * k + 16.0 * k ** 4 - C1 * k ** 3.5

    sol = solve_ode(
        rhs,
        OdeState(0.0, np.array([k_start, kp0]), 1e-3),
        ODE_T_END,
        tol=tol,
        event=lambda t, y: y[1],
        max_events=ODE_TURNING_POINTS,
    )
    ks = np.array([s.y[0] for s in sol.states])
    kps = np.array([s.y[1] for s in sol.states])
    drift = np.abs(prime(ks, kps))
    scale = np.max(kps ** 2 + 16.0 / 9.0 * ks ** 2 + 16.0 * ks ** 4 + C1 * ks ** 3.5)
    return {
        "states": sol.states,
        "turning_points": sol.events,
        "max_drift": float(np.max(drift)),
        "max_drift_relative": float(np.max(drift) / scale),
        "k_min": float(np.min(ks)),
        "k_max": float(np.max(ks)),
        "k01": roots.k01,
        "k02": roots.k02,
    }


# -- isothermal-coordinate bridge ---------------------------------------------

def _bridge_radicand(a: float, b: float, phi):
    return b / 3.0 * np.exp(-2.0 * np.asarray(phi) / 3.0) - np.exp(2.0 * np.asarray(phi)) + a


@lru_cache(maxsize=32)
def _isothermal_quadrature(C: float) -> CumulativeQuadrature:
    """Strip quadrature of sqrt(3/T), the isothermal coordinate density."""
    return strip_quadrature(C, domain_roots(C), lambda tau, t: np.full_like(tau, math.sqrt(3.0)))


def phi_coordinate_bridge(a: float, b: float, phi: float) -> tuple[float, float]:
    """Isothermal coordinate u(phi) of the conformal-exponent route, plus C.

    Requires a > 0, b < 0 and a positive radicand at phi.  The base point
    of the quadrature maps to xi00 under xi = (-b)^{3/8} e^{-phi}, which
    keeps the convention aligned with the strip quadratures.  The induced
    strip constant is C = a (-b)^{-3/4}.  Under that map the radicand is
    (-b)^{3/4} T(xi) / (3 xi^2), so du = dphi / sqrt(radicand) turns into
    u = -(-b)^{-3/8} times the integral of sqrt(3/T) from xi00 to xi, a
    strip quadrature that stays accurate up to the band edges.
    """
    if a <= 0.0 or b >= 0.0:
        raise OutOfDomain("need a > 0 and b < 0")
    C = a * (-b) ** -0.75
    if C <= C_MIN:
        raise DegenerateDomain(f"induced C = {C} <= {C_MIN}")
    rad = float(_bridge_radicand(a, b, phi))
    if rad <= 0.0:
        raise OutOfDomain(f"radicand {rad} <= 0 at phi = {phi}")
    xi00 = domain_roots(C).xi00
    scale38 = (-b) ** 0.375
    if phi == math.log(scale38 / xi00):
        return 0.0, C
    quad = _isothermal_quadrature(C)
    return -(quad.value(scale38 * math.exp(-phi)) - quad.value(xi00)) / scale38, C


def bridge_metric_match(a: float, b: float, phi_values) -> dict:
    """Transform the conformal metric through the bridge and compare to g_C.

    The (phi, v) metric e^{2 phi}(dphi^2 / radicand + dv^2) must pull back
    to the closed-form strip coefficients; reports the worst relative
    mismatch over the given phi samples.
    """
    C = a * (-b) ** -0.75
    worst = 0.0
    for phi in np.asarray(phi_values, dtype=float):
        rad = float(_bridge_radicand(a, b, phi))
        if rad <= 0.0:
            raise OutOfDomain(f"phi = {phi} outside the admissible band")
        xi = (-b) ** 0.375 * math.exp(-phi)
        e2phi = math.exp(2.0 * phi)
        # dxi = -xi dphi and theta = (-b)^{3/8} v
        E_transformed = (e2phi / rad) / (xi * xi)
        G_transformed = e2phi * (-b) ** -0.75
        E_closed, G_closed = metric_gC(C, xi)
        worst = max(worst,
                    abs(E_transformed - E_closed) / abs(E_closed),
                    abs(G_transformed - G_closed) / abs(G_closed))
    return {"C": C, "max_rel_mismatch": worst}


# -- conformal-exponent equation ----------------------------------------------

def master_ode_residual(c: float, derivs, u: float) -> float:
    """Residual of 8 c e^{2 phi} phi' + 2 phi' phi'' + 3 phi''' at u."""
    phi, d1, d2, d3 = derivs(u)
    return 8.0 * c * math.exp(2.0 * phi) * d1 + 2.0 * d1 * d2 + 3.0 * d3


def _flat_profile_derivs(u: float):
    th = math.tanh(u / 3.0)
    sech2 = 1.0 / math.cosh(u / 3.0) ** 2
    phi = 3.0 * math.log(math.cosh(u / 3.0))
    return phi, th, sech2 / 3.0, -2.0 / 9.0 * sech2 * th


def c0_ode_residual(u: float) -> float:
    """Flat-case equation 3 phi''' + 2 phi' phi'' = 0 on phi = 3 log cosh(u/3)."""
    _, d1, d2, d3 = _flat_profile_derivs(u)
    return 3.0 * d3 + 2.0 * d1 * d2


def metric_profile_derivs(C: float):
    return family(C).metric_profile_derivs()
