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

with zeta the quadrature of g_zeta / sqrt(T(tau)) based at xi00, where
g_zeta = sqrt(C) tau^{4/3} / (C tau^2 - 1).  Along the meridian's arclength
the profile curvature k = 3^{-3/2} xi^{4/3}, half the mean curvature,
solves k'' = -(16/9) k - 32 k^3 + (7/4) C1 k^{5/2} with C1 = 16 * 3^{1/4} C,
on the level set P = (k')^2 + (16/9) k^2 + 16 k^4 - C1 k^{7/2} = 0; with
ds = sqrt(3/T)/xi dxi both forms are closed forms in xi, T and T'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import diffgeo
from .numerics import (
    Bracket,
    CumulativeQuadrature,
    DegenerateDomain,
    OutOfDomain,
    expand_bracket,
    find_root,
)

__all__ = [
    "C_MIN",
    "FamilyParamsS3",
    "DomainRoots",
    "T",
    "T_deriv",
    "strip_quadrature",
    "domain_roots",
    "metric_gC",
    "gauss_curvature_DC",
    "SphereFamily",
    "family",
    "master_ode_residual",
    "meridian_curvature",
    "prime_integral_residual",
    "curvature_equation_residual",
]

C_MIN = 4.0 / 3.0 ** 1.5  # threshold where the two roots of T coalesce

ROOT_TOL = 1e-13


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

    def contains(self, xi):
        """Whether xi, a float or each entry of an array, lies on the open
        strip (xi01, xi02); a NaN does not."""
        return (self.xi01 < xi) & (xi < self.xi02)

    def check_closed(self, xi) -> None:
        """Raise OutOfDomain unless every xi, a float or an array, lies on
        the closed strip [xi01, xi02]; a NaN does not."""
        xs = np.asarray(xi, dtype=float)
        outside = ~((self.xi01 <= xs) & (xs <= self.xi02))
        if outside.any():
            raise OutOfDomain(f"xi = {float(xs[outside][0])} outside the closed strip "
                              f"[{self.xi01}, {self.xi02}]")

    @cached_property
    def _cofactor_constants(self) -> tuple[float, ...]:
        b1, b2 = self.xi01 ** (1.0 / 3.0), self.xi02 ** (1.0 / 3.0)
        x1, x2 = b1 * b1, b2 * b2
        # 3C = x2 + 3 / x2^3 at the root, so 3C - x1 - x2 without cancellation
        return b1, x1, b2, x2, 3.0 / x2 ** 3 - x1, -3.0 / (x1 * x2)

    def cofactor(self, tau):
        """k(tau) = T(tau) / ((tau - xi01)(xi02 - tau)) for tau > 0.

        In x = tau^{2/3} = a^2, T is the quartic -x^4 + 3C x^3 - 3 with
        roots x1, x2, so T = -(x - x1)(x - x2)(x^2 - alpha x - beta), and
        x - x_i = (tau - xi0i)(a + b_i)/(x + a b_i + x_i) with b_i^2 = x_i.
        Every factor is smooth and every sum below adds terms of one sign
        (alpha and beta are negative), so k is accurate to a few ulps on
        the closed strip.  It needs only the roots; floats and arrays alike.
        """
        b1, x1, b2, x2, alpha, beta = self._cofactor_constants
        a = tau ** (1.0 / 3.0)
        x = a * a
        return ((a + b1) / (x + a * b1 + x1) * (a + b2) / (x + a * b2 + x2)
                * ((x - alpha) * x - beta))

    def T(self, tau):
        """T on the strip, with the distances to both roots exact factors."""
        return (tau - self.xi01) * (self.xi02 - tau) * self.cofactor(tau)


def T(C: float, xi):
    xi = np.asarray(xi, dtype=float) if not np.isscalar(xi) else xi
    return -np.power(xi, 8.0 / 3.0) + 3.0 * C * np.square(xi) - 3.0


def T_deriv(C: float, xi):
    return -(8.0 / 3.0) * np.power(xi, 5.0 / 3.0) + 6.0 * C * xi


def T_deriv2(C: float, xi):
    return -(40.0 / 9.0) * np.power(xi, 2.0 / 3.0) + 6.0 * C


def strip_quadrature(roots: "DomainRoots", g) -> CumulativeQuadrature:
    """Cumulative quadrature of g(tau, T(tau)) / sqrt(T(tau)) over the strip,
    counted from xi00, so that its value at xi00 is 0 exactly.

    `g` takes arrays of tau and of T(tau) and must stay finite at the
    roots.  T comes from `DomainRoots.T`, the product of both distances to
    the roots and the smooth cofactor, so it is positive on the open strip
    and has no window or branch near the ends.  The end cells substitute
    tau = root +/- s^2, where T / s^2 is the distance to the other root
    times the cofactor: the distance s^2 enters exactly, the inverse square
    root of T cancels against the substitution's factor 2 s, and the end
    integrands, kept as `left_sub` and `right_sub` on the result, are up to
    sign the derivatives of the integral with respect to s = sqrt(|tau - root|).
    """

    def f(tau):
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        tv = roots.T(tau)
        return g(tau, tv) / np.sqrt(tv)

    def end(root, other):
        side = math.copysign(1.0, other - root)

        def sub(s):
            d = s * s
            tau = root + side * d
            t_over_d = side * (other - tau) * roots.cofactor(tau)
            return 2.0 * g(tau, d * t_over_d) / np.sqrt(t_over_d)
        return sub

    return CumulativeQuadrature(f, roots.xi01, roots.xi00, roots.xi02,
                                end(roots.xi01, roots.xi02), end(roots.xi02, roots.xi01))


def domain_roots(C: float) -> DomainRoots:
    """Roots xi01 < xi00 < xi02 of T for an admissible C, bracketed and
    then polished to a few ulps.

    The midpoint xi00 = (9C/4)^{3/2} maximizes nothing in particular but
    always separates the two roots; T(xi00) = 2187 C^4 / 256 - 3, so a
    non-positive value there flags the degenerate (double-root) regime.
    With r = C^{-1/2}, T(r/2) = -2.25 - (0.25/C)^{4/3} < 0 < T(2r) = 9 - (4/C)^{4/3}
    for every C > C_MIN: [r/2, 2r] brackets xi01 alone, to ROOT_TOL relative to r.
    """
    xi00 = (2.25 * C) ** 1.5
    t00 = float(T(C, xi00))
    if t00 <= 10.0 * np.finfo(float).eps * max(1.0, 3.0 * C * xi00 ** 2):
        raise DegenerateDomain(
            f"C = {C} at or below the double-root threshold {C_MIN}"
        )
    f = lambda x: float(T(C, x))
    r = C ** -0.5
    lo = find_root(f, Bracket.from_function(f, 0.5 * r, 2.0 * r), tol=ROOT_TOL * r)
    upper = expand_bracket(f, xi00, 2.0 * xi00)
    hi = find_root(f, upper, tol=ROOT_TOL)
    return DomainRoots(xi01=_polish_root(C, lo), xi00=xi00, xi02=_polish_root(C, hi))


def _polish_root(C: float, xi: float) -> float:
    """Three Newton steps on P(a) = T(a^3) = a^6 (3C - a^2) - 3 in a = xi^{1/3}:
    a bracket closed to an absolute width leaves up to ~1.5e3 ulps, these
    a few (away from the double root at C_MIN)."""
    a = xi ** (1.0 / 3.0)
    for _ in range(3):
        a2 = a * a
        a5 = a2 * a2 * a
        a -= (a5 * a * (3.0 * C - a2) - 3.0) / (a5 * (18.0 * C - 8.0 * a2))
    return a ** 3


def metric_gC(C: float, xi):
    """Closed-form metric coefficients (E, G) on the strip, F = 0, at a point
    xi or an array of them."""
    xi = np.asarray(xi, dtype=float)
    t = T(C, xi)
    outside = (xi <= 0.0) | (t <= 0.0)
    if outside.any():
        raise OutOfDomain(f"xi = {float(xi[outside][0])} outside the strip for C = {C}")
    E, G = 3.0 / (xi * xi * t), 1.0 / (xi * xi)
    return (E, G) if xi.ndim else (float(E), float(G))


def gauss_curvature_DC(xi: float) -> float:
    """Strip Gauss curvature 1 - xi^{8/3}/9; independent of C."""
    return 1.0 - xi ** (8.0 / 3.0) / 9.0


class SphereFamily:
    """Per-C bundle: roots, zeta quadrature (built on first use), metric, and
    the immersion.  The finished object is safe for concurrent evaluation;
    from Python 3.12 `cached_property` takes no lock, so two threads may
    each build the zeta table, with identical results.
    """

    def __init__(self, C: float):
        self.params = FamilyParamsS3(C=C)
        self.C = float(C)
        self.roots = domain_roots(C)
        sc = math.sqrt(self.C)

        C = self.C  # not self in g_zeta: that cycle would outlive cache eviction
        self._zeta_g = lambda tau, t: sc * np.power(tau, 4.0 / 3.0) / (C * tau * tau - 1.0)
        # g_zeta' / g_zeta, which zeta0'' and the glued rates read
        self._zeta_log_rate = lambda tau: 4.0 / (3.0 * tau) - 2.0 * C * tau / (C * tau * tau - 1.0)

    @cached_property
    def _zeta_cum(self) -> CumulativeQuadrature:
        return strip_quadrature(self.roots, self._zeta_g)

    # -- scalar quantities -------------------------------------------------

    def zeta0(self, xi):
        """Turning-angle quadrature based at xi00 (zeta0(xi00) = 0), floats
        and arrays alike."""
        self.roots.check_closed(xi)
        return self._zeta_cum.value(xi)

    def zeta0_deriv(self, xi):
        """g_zeta / sqrt(T) on the open strip, floats and arrays alike."""
        xs = np.asarray(xi, dtype=float)
        outside = ~self.roots.contains(xs)
        if outside.any():
            raise OutOfDomain(f"xi = {float(xs[outside][0])} at or outside the strip ends")
        t = self.roots.T(xs)
        return self._zeta_g(xs, t) / np.sqrt(t)  # a float gives a numpy float

    @cached_property
    def zeta_limits(self) -> tuple[float, float]:
        """(limit at xi01, limit at xi02); both finite."""
        return tuple(self._zeta_cum.table[[0, -1]].tolist())

    # -- immersion ----------------------------------------------------------

    def point(self, xi, theta, zeta, c=0.0, s=1.0, rates=None):
        """Points (R cos(zeta + c), s R sin(zeta + c), cos(sqrt(C) theta) / (sqrt(C) xi),
        sin(sqrt(C) theta) / (sqrt(C) xi)), R = sqrt(1 - 1/(C xi^2)), of shape (..., 4)
        at the broadcast arguments; the strip has c = 0 and s = 1.  With the
        rates (xi_u, xi_uu, zeta_u, zeta_uu) along a parameter u, the jet in (u, theta)."""
        w = 1.0 - 1.0 / (self.C * xi * xi)
        if np.any(w <= 0.0):
            raise OutOfDomain(f"C xi^2 <= 1 at xi = {np.min(xi)}")
        R = np.sqrt(w)
        sc = math.sqrt(self.C)
        d = sc * xi
        theta = sc * np.asarray(theta, dtype=float)
        cz, sz, ct, st = np.cos(zeta + c), np.sin(zeta + c), np.cos(theta), np.sin(theta)
        X = (R * cz, s * R * sz, ct / d, st / d)
        if rates is None:
            return diffgeo.stack_coordinates(*X)
        dxi, d2xi, dz, d2z = rates  # and below the xi-derivatives of R and of 1/d
        R1 = 1.0 / (self.C * xi ** 3 * R)
        R2 = -(3.0 * R + xi * R1) / (self.C * xi ** 4 * R * R)
        A1, A2 = -1.0 / (d * xi), 2.0 / (d * xi * xi)
        # (X1 + i X2 / s) = (a + i b) e^{i (zeta + c)}
        rot = lambda a, b: (a * cz - b * sz, s * (a * sz + b * cz))
        a1, a2 = A1 * dxi, A2 * dxi * dxi + A1 * d2xi
        return diffgeo.stack_jet(
            X, (*rot(R1 * dxi, R * dz), a1 * ct, a1 * st), (0.0, 0.0, -st / xi, ct / xi),
            (*rot(R2 * dxi * dxi + R1 * d2xi - R * dz * dz, 2.0 * R1 * dxi * dz + R * d2z),
             a2 * ct, a2 * st), (0.0, 0.0, dxi * st / (xi * xi), -dxi * ct / (xi * xi)),
            (0.0, 0.0, -sc * ct / xi, -sc * st / xi))

    def immersion(self, xi, theta) -> np.ndarray:
        """Points of Phi_C at the broadcast (xi, theta), shape (..., 4), with
        zeta0 once on the distinct xi."""
        def at(xs):
            outside = ~self.roots.contains(xs)
            if outside.any():
                raise OutOfDomain(f"xi = {float(xs[outside][0])} outside the open strip")
            return (self.zeta0(xs),)
        return self.point(xi, theta, *diffgeo.per_distinct(at, xi))

    def immersion_partials(self, xi, theta):
        """The jet in (xi, theta) at the points, with zeta0 and its rates
        once on the distinct xi."""
        zeta, *rates = diffgeo.per_distinct(lambda x: (self.zeta0(x), *self._zeta_rates(x)), xi)
        return self.point(xi, theta, zeta, rates=(1.0, 0.0, *rates))

    def _zeta_rates(self, xi):
        """zeta0' and zeta0'' = zeta0' (g_zeta'/g_zeta - T'/(2T)) in closed form."""
        dz = self.zeta0_deriv(xi)
        return dz, dz * (self._zeta_log_rate(xi) - 0.5 * T_deriv(self.C, xi) / self.roots.T(xi))

    def unturned_jet(self, xi, theta, rates=None):
        """The jet of `immersion_partials` (with a glued strip's h-rates, of
        Phi) turned back by its turning angle: no table read, same lengths."""
        return self.point(xi, theta, 0.0, rates=rates or (1.0, 0.0, *self._zeta_rates(xi)))

    def patch(self) -> diffgeo.ImmersionPatch:
        """Strip patch over theta in [0, 1], trimmed by 1e-3 of the strip
        width at the singular ends."""
        width = self.roots.xi02 - self.roots.xi01
        lo = self.roots.xi01 + 1e-3 * width
        hi = self.roots.xi02 - 1e-3 * width
        return diffgeo.ImmersionPatch(
            u_range=(lo, hi),
            v_range=(0.0, 1.0),
            ambient=diffgeo.SPHERE3,
            jet=lambda xi, th: self.immersion_partials(xi, th),
        )

    def metric_profile_derivs(self):
        """Conformal exponent derivatives (w.r.t. the isothermal coordinate)
        of the strip metric, indexed by xi: a point or an array of them.

        With du = sqrt(3/T) dxi the metric reads e^{-2 log xi}(du^2 + dtheta^2);
        the chain rule turns the T-closed-forms into u-derivatives of the
        exponent phi = -log xi.
        """
        C = self.C

        def derivs(xi):
            t = T(C, xi)
            if np.any(t <= 0.0):
                raise OutOfDomain(f"xi = {np.asarray(xi)[t <= 0.0].flat[0]} outside the strip")
            tp, tpp = T_deriv(C, xi), T_deriv2(C, xi)
            root = np.sqrt(t / 3.0)
            phi = -np.log(xi)
            d1 = -root / xi
            d2 = -tp / (6.0 * xi) + t / (3.0 * xi * xi)
            d3 = root * (-tpp / (6.0 * xi) + tp / (2.0 * xi * xi) - 2.0 * t / (3.0 * xi ** 3))
            return phi, d1, d2, d3

        return derivs


@lru_cache(maxsize=32)
def family(C: float) -> SphereFamily:
    """Cached per-C family bundle (thread-safe via lru_cache)."""
    return SphereFamily(C)


# -- bridge from the conformal-exponent route ----------------------------------

def _bridge_radicand(a: float, b: float, phi):
    return b / 3.0 * np.exp(-2.0 * np.asarray(phi) / 3.0) - np.exp(2.0 * np.asarray(phi)) + a


def bridge_metric_match(a: float, b: float, phi):
    """Transform the conformal metric through the bridge and compare to g_C.

    The (phi, v) metric e^{2 phi}(dphi^2 / radicand + dv^2) must pull back
    to the closed-form strip coefficients of C = a (-b)^{-3/4}; returns,
    per sample of phi, the larger relative mismatch of the two (NaN if
    the sample is NaN).
    """
    phi = np.asarray(phi, dtype=float)
    rad = _bridge_radicand(a, b, phi)
    if np.any(rad <= 0.0):
        raise OutOfDomain(f"phi = {float(phi[rad <= 0.0].flat[0])} outside the admissible band")
    xi = (-b) ** 0.375 * np.exp(-phi)
    e2phi = np.exp(2.0 * phi)
    E_closed, G_closed = metric_gC(a * (-b) ** -0.75, xi)
    # dxi = -xi dphi and theta = (-b)^{3/8} v
    return np.maximum(np.abs((e2phi / rad) / (xi * xi) - E_closed) / np.abs(E_closed),
                      np.abs(e2phi * (-b) ** -0.75 - G_closed) / np.abs(G_closed))


# -- conformal-exponent equation ----------------------------------------------

def master_ode_residual(c: float, derivs, u: float) -> float:
    """Residual of 8 c e^{2 phi} phi' + 2 phi' phi'' + 3 phi''' at u."""
    phi, d1, d2, d3 = derivs(u)
    return 8.0 * c * math.exp(2.0 * phi) * d1 + 2.0 * d1 * d2 + 3.0 * d3


# -- profile-curvature equation -----------------------------------------------

def meridian_curvature(C: float, roots: DomainRoots, xi):
    """The profile curvature k = 3^{-3/2} xi^{4/3} at strip points xi, with
    k'^2 and the two terms of k'' along the meridian's arclength s:
    ds = sqrt(3/T)/xi dxi gives k'^2 = (16/27) k^2 T and
    k'' = (16/27) k T + (2/9) k xi T', with T from the roots' product form."""
    k = 3.0 ** -1.5 * xi ** (4.0 / 3.0)
    t = roots.T(xi)
    return k, 16.0 / 27.0 * k * k * t, (16.0 / 27.0 * k * t, 2.0 / 9.0 * k * xi * T_deriv(C, xi))


def _relative(terms):
    """|sum of the terms| over the sum of their magnitudes."""
    return np.abs(sum(terms)) / sum(np.abs(t) for t in terms)


def prime_integral_residual(C1: float, k, kp2):
    """|P|, P = (k')^2 + (16/9) k^2 + 16 k^4 - C1 k^{7/2}, at states
    (k, k'^2), relative to the sum of its terms' magnitudes."""
    return _relative([kp2, 16.0 / 9.0 * k * k, 16.0 * k ** 4, -C1 * k ** 3.5])


def curvature_equation_residual(C1: float, k, kpp):
    """|k'' - f(k)|, f(k) = -(16/9) k - 32 k^3 + (7/4) C1 k^{5/2}, at
    states (k, k'') with k'' given as a sequence of terms, relative to the
    sum of all the terms' magnitudes."""
    return _relative([*kpp, 16.0 / 9.0 * k, 32.0 * k ** 3, -1.75 * C1 * k ** 2.5])
