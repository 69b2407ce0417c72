"""Global construction: reflected profile, phase bookkeeping, and the
complete immersions built from the sphere-family strip.

The strip height function h0(xi) (an endpoint-singular quadrature of
g_h / sqrt(T) based at xi00) is strictly increasing with finite limits
h_{0,-1} < 0 < h_{0,1}, so its inverse parametrizes the profile of a
revolution surface in R^3; the profile's h-rates read the same g_h.
Reflecting across the lines h = h_{0,k} extends the inverse to a periodic
profile F defined on the whole axis; alternating strips carry alternating
signs of the height derivative.  Matching phase constants c_k make the
first two components of the sphere immersion glue to C^3 order across the
junctions, giving a complete immersion

    Phi(h, theta) = (Phi1(h), Phi2(h),
                     Phi3(h) cos(sqrt(C) theta), Phi3(h) sin(sqrt(C) theta))

of the plane with the periodic-profile metric into the unit 3-sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import diffgeo
from .numerics import (NumericsError, OutOfDomain, check_range, power_derivatives,
                       series_compose, series_mul, series_powers, series_revert)
from .spherical import C_MIN, SphereFamily, T, T_deriv, family, strip_quadrature

__all__ = [
    "InvalidC",
    "CstarRange",
    "cstar_range",
    "phase_distance",
    "GluingAtlas",
    "atlas",
]

TWO_PI = 2.0 * math.pi

# slack used when reducing phases mod 2*pi and when snapping junction hits
PHASE_SLACK = 1e-12

# junction labels run over +-1 .. +-K_MAX: the h_{0,+-11} range of fig6
K_MAX = 11


class InvalidC(Exception):
    """C outside the admissible sphere-family range."""


@dataclass(frozen=True)
class CstarRange:
    """Open admissible interval (0, (C - 4/3^{3/2})^{-1/2}) for C*."""

    lower: float
    upper: float

    def contains(self, cstar: float) -> bool:
        return self.lower < cstar < self.upper


# C_MIN + C_MIN_LO is 4/3^{3/2} to about 1e-33: near C_MIN, where C - C_MIN is
# exact and tiny, C_MIN's rounding alone put C*'s upper end up to 2e-9 too high
C_MIN_LO = -2.941449398920198e-17


def cstar_range(C: float) -> CstarRange:
    if C <= C_MIN:
        raise InvalidC(f"C = {C} <= {C_MIN}")
    return CstarRange(lower=0.0, upper=((C - C_MIN) - C_MIN_LO) ** -0.5)


def _mod2pi(x: float) -> float:
    """Reduce into (-pi, pi]."""
    y = math.fmod(x, TWO_PI)
    if y > math.pi:
        y -= TWO_PI
    elif y <= -math.pi:
        y += TWO_PI
    return y


def phase_distance(x: float, y: float) -> float:
    """Distance between two phases on the circle."""
    return abs(_mod2pi(x - y))


class GluingAtlas:
    """Everything needed to evaluate the periodic profile and the glued
    immersions for one parameter pair (C, C*) and base phase c0.

    The family's zeta table is built on first use; Psi never uses it.  A
    built atlas is immutable and safe for concurrent evaluation, though from
    Python 3.12 two threads may each build that table, with identical results.
    """

    def __init__(self, C: float, Cstar: float, c0: float = 0.0):
        rng = cstar_range(C)  # raises InvalidC for inadmissible C
        if not rng.contains(Cstar):
            raise InvalidC(f"C* = {Cstar} outside (0, {rng.upper})")
        self.C = float(C)
        self.Cstar = float(Cstar)
        # reduced once: sums of turning angles added to a raw c0 of large
        # magnitude would lose their low digits before their own reduction
        self.c0 = _mod2pi(float(c0))
        self.family: SphereFamily = family(self.C)
        self.roots = self.family.roots
        cs2 = self.Cstar * self.Cstar  # g_h reads this, not self

        self._h_g = lambda tau, t: np.sqrt(np.maximum(3.0 * tau * tau - cs2 * t, 0.0)) / (tau * tau)
        self._h_cum = strip_quadrature(self.roots, self._h_g)
        self._h_base = self._h_cum.value(self.roots.xi00)
        self.h_limits = (-self._h_base, self._h_cum.total - self._h_base)
        self.period = 2.0 * (self.h_limits[1] - self.h_limits[0])

        self.grid = {k: self.h_grid_point(k) for k in range(-K_MAX, K_MAX + 1) if k != 0}

    @property
    def zeta_limits(self) -> tuple[float, float]:
        """The family's turning-angle limits; reading them builds its zeta table."""
        return self.family.zeta_limits

    # -- height function and its inverse ------------------------------------

    def h0(self, xi):
        """Height of the base profile, floats and arrays alike; h0(xi00) = 0,
        finite at both roots."""
        self.roots.check_closed(xi)
        return self._h_cum.value(xi) - self._h_base

    def h0_inverse(self, y):
        """Inverse of h0 on [h_{0,-1}, h_{0,1}]: a float gives a float, an
        array an array.  The profile evaluators call `_invert` directly."""
        xi = self._invert(np.asarray(y, dtype=float))
        return xi if xi.ndim else float(xi)

    def _invert(self, ys: np.ndarray) -> np.ndarray:
        """h0_inverse of an array of heights: one call of the height table's
        own inverse, with heights within PHASE_SLACK of the span of an end
        height snapped onto its root."""
        lo, hi = self.h_limits
        span = hi - lo
        check_range(ys, lo, hi, 1e-9 * span, "height ")
        low, high = ys <= lo + PHASE_SLACK * span, ys >= hi - PHASE_SLACK * span
        xi = np.where(low, self.roots.xi01, self.roots.xi02)
        inner = ~(low | high)
        xi[inner] = self._h_cum.inverse(ys[inner] + self._h_base)
        return xi

    # -- grid, strips and phases ---------------------------------------------

    def h_grid_point(self, k: int) -> float:
        """Junction ordinate h_{0,k}; the index skips 0 (the base strip
        spans the two labels -1 and 1)."""
        if k == 0:
            raise ValueError("grid labels are nonzero integers")
        m1, p1 = self.h_limits
        if k >= 1:
            return k * p1 - (k - 1) * m1
        return -k * m1 + (k + 1) * p1

    def strip_of(self, h):
        """Strip index: 0 for the base strip [h_{0,-1}, h_{0,1}], k >= 1 for
        [h_{0,k}, h_{0,k+1}], k <= -1 for [h_{0,k-1}, h_{0,k}]; an int, or
        an int array for an array of heights."""
        m1, p1 = self.h_limits
        hs = np.asarray(h, dtype=float)
        # past this, one ulp of h exceeds the height slack of h0_inverse
        huge = ~(np.spacing(np.abs(hs)) <= 1e-9 * (p1 - m1))
        if huge.any():
            raise OutOfDomain(f"height {float(hs[huge][0])} too large to reduce onto the "
                              f"base strip")
        k = np.floor((hs - m1) / (p1 - m1)).astype(int)
        return k if k.ndim else int(k)

    def phase(self, k: int) -> float:
        """Phase constant of strip k, reduced into (-pi, pi].

        Even strips advance by the full turning angle per period; odd
        strips carry the reflected combination.
        """
        zm1, zp1 = self.zeta_limits
        if k % 2 == 0:
            return _mod2pi(k * (zp1 - zm1) + self.c0)
        return _mod2pi((k - 1) * zm1 - (k + 1) * zp1 - self.c0)

    def phase_by_recursion(self, k: int) -> float:
        """Independent route to the same constants: step from c0 one strip
        at a time, alternating which endpoint angle reflects."""
        zm1, zp1 = self.zeta_limits
        c = self.c0
        if k >= 0:
            for kk in range(1, k + 1):
                c = (-2.0 * zp1 - c) if kk % 2 == 1 else (-2.0 * zm1 - c)
        else:
            # downward: invert c_{k+1} = -2 z - c_k  =>  c_k = -2 z - c_{k+1}
            for kk in range(0, k, -1):
                # c_{kk-1} from c_{kk}
                z = zp1 if kk % 2 == 1 else zm1
                c = -2.0 * z - c
        return _mod2pi(c)

    # -- periodic profile ------------------------------------------------------

    def _strip_points(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Strips k owning the heights h (an array) and the profile values
        F(h), from one inversion of the heights off the junctions.

        A junction belongs to the strip on its right and maps exactly onto
        its root: the slots j of the uniform ladder h_{0,-1} + j delta
        carry xi01 when even and xi02 when odd.  Elsewhere F(h) inverts the
        base-strip height of h under strip k's reflection.
        """
        m1, p1 = self.h_limits
        delta = p1 - m1
        k = self.strip_of(h)
        j = np.round((h - m1) / delta)
        junction = np.abs(h - (m1 + j * delta)) <= 1e-12 * max(1.0, delta)
        k = np.where(junction, j.astype(int), k)
        odd = k % 2 == 1
        y = np.where(odd, (k + 1) * p1 - (k - 1) * m1 - h, h - k * delta)
        xi = np.where(odd, self.roots.xi02, self.roots.xi01)
        xi[~junction] = self._invert(y[~junction])
        return k, xi

    def F(self, h):
        """Periodic reflected profile, floats and arrays alike: strip-wise
        inverse of the height map.

        Exact root values at the junctions; inside a strip the inverse of
        h0 composed with the strip's reflection.
        """
        xi = self._strip_points(np.asarray(h, dtype=float))[1]
        return xi if xi.ndim else float(xi)

    def _rates(self, k, xi, zeta=True):
        """(F', F'', zeta', zeta'') in h on strips k at F = xi, from the tables'
        integrands g / sqrt(T): F' = s sqrt(T)/g_h, F'' = T'/(2 g_h^2) - T g_h'/g_h^3,
        zeta' = s g_zeta/g_h, zeta'' = zeta' F' (g_zeta'/g_zeta - g_h'/g_h), s = -1 on
        odd strips; finite on the closed strip, F' = zeta'' = 0 at a junction (T = 0).
        With zeta=False only (F', F''), which Psi needs."""
        xi = np.asarray(xi, dtype=float)
        t = self.roots.T(xi)
        gh = self._h_g(xi, t)  # 0 where it clamps a negative radicand 3 xi^2 - C*^2 T
        bad = (self.C * xi * xi <= 1.0) | ~(gh > 0.0)
        if bad.any():
            raise OutOfDomain(f"C xi^2 <= 1 or 3 xi^2 <= C*^2 T at xi = {float(xi[bad][0])}")
        s = np.where(np.asarray(k) % 2 == 1, -1.0, 1.0)
        cs2, tp = self.Cstar * self.Cstar, T_deriv(self.C, xi)
        log_rate = (6.0 * xi - cs2 * tp) / (2.0 * (3.0 * xi * xi - cs2 * t)) - 2.0 / xi
        dF = s * np.sqrt(t) / gh
        d2F = (0.5 * tp - t * log_rate) / (gh * gh)
        if not zeta:
            return dF, d2F
        dz = s * self.family._zeta_g(xi, t) / gh
        return dF, d2F, dz, dz * dF * (self.family._zeta_log_rate(xi) - log_rate)

    # -- revolution surface -----------------------------------------------------

    def radius(self, h):
        return self.Cstar / self.F(h)

    def immersion_psi(self, h, theta) -> np.ndarray:
        """Points of Psi at the broadcast (h, theta), shape (..., 3), with the
        radius once on the distinct h."""
        (r,) = diffgeo.per_distinct(lambda y: (self.radius(y),), h)
        ang = np.asarray(theta, dtype=float) / self.Cstar
        return diffgeo.stack_coordinates(r * np.cos(ang), r * np.sin(ang), h)

    def immersion_psi_partials(self, h, theta):
        """The jet (Psi, Psi_h, Psi_theta, Psi_hh, Psi_htheta, Psi_thetatheta)
        at the points, with F and its h-rates once per distinct h."""
        def at(y):
            k, xi = self._strip_points(y)
            return (xi, *self._rates(k, xi, zeta=False))
        xi, dF, d2F = diffgeo.per_distinct(at, h)
        cs = self.Cstar
        r, dr, d2r = cs / xi, -cs * dF / (xi * xi), cs * (2.0 * dF * dF / xi - d2F) / (xi * xi)
        ang = np.asarray(theta, dtype=float) / cs
        ca, sa = np.cos(ang), np.sin(ang)
        return diffgeo.stack_jet((r * ca, r * sa, h), (dr * ca, dr * sa, 1.0),
                                 (-sa / xi, ca / xi, 0.0), (d2r * ca, d2r * sa, 0.0),
                                 (-dr * sa / cs, dr * ca / cs, 0.0),
                                 (-ca / (cs * xi), -sa / (cs * xi), 0.0))

    def psi_jet_lengths(self, xi):
        """`diffgeo.jet_lengths` of Psi where F = xi, from closed forms alone."""
        (dF, d2F), cs = self._rates(0, xi, zeta=False), self.Cstar
        dr, d2r = -cs * dF / (xi * xi), cs * (2.0 * dF * dF / xi - d2F) / (xi * xi)
        return np.array([np.hypot(dr, 1.0), 1.0 / xi, np.abs(d2r), np.abs(dr) / cs,
                         1.0 / (cs * xi)])

    def unturned_phi_jet(self, xi, theta):
        """`SphereFamily.unturned_jet` of Phi where F = xi."""
        return self.family.unturned_jet(xi, theta, self._rates(0, xi))

    def psi_metric(self, xi):
        """Closed-form induced metric (E, G) of the revolution surface at
        profile value xi = F(h), a point or an array of them."""
        t = T(self.C, xi)
        E = 3.0 * xi * xi / (3.0 * xi * xi - self.Cstar ** 2 * t)
        return E, 1.0 / (xi * xi)

    def mean_curvature_psi(self, xi):
        """Closed-form mean curvature (trace convention) of the revolution
        surface at profile value xi, a point or an array of them; depends
        on both C and C*.

        The quotient below is the average of the two principal curvatures,
        hence the factor 2 to match the trace-of-shape-operator convention
        used everywhere else (a unit sphere has mean curvature 2).  The
        sign follows the fixed normal of the profile parametrization and
        can flip along the profile for large admissible C*; the oracle
        orients its normal pointwise for nonnegative trace, so comparisons
        should be made in absolute value.
        """
        xi = np.asarray(xi, dtype=float)
        self.roots.check_closed(xi)
        cs = self.Cstar
        num = 9.0 * xi * xi - cs * cs * (-2.0 * xi ** (8.0 / 3.0) + 9.0 * self.C * xi * xi - 18.0)
        rad = 9.0 * xi * xi - 3.0 * cs * cs * T(self.C, xi)
        if np.any(rad <= 0.0):
            raise OutOfDomain("height-derivative radicand not positive")
        H = 2.0 * num / (6.0 * cs * np.sqrt(rad))
        return H if H.ndim else float(H)

    def psi_patch(self, h_range) -> diffgeo.ImmersionPatch:
        """Psi over the heights h_range and one turn, theta in [0, 2 pi C*]."""
        return diffgeo.ImmersionPatch(
            u_range=tuple(h_range),
            v_range=(0.0, TWO_PI * self.Cstar),
            ambient=diffgeo.EUCLIDEAN3,
            jet=self.immersion_psi_partials,
        )

    # -- glued sphere immersion ----------------------------------------------

    def _profile_at(self, h: np.ndarray):
        """Strips k at the heights h (an array), and the (xi, zeta, c, s)
        arguments of the family's `point` there: F(h), zeta0(F), the phase
        c_k, and Phi2's sign on strip k."""
        k, xi = self._strip_points(h)
        strips, where = np.unique(k, return_inverse=True)  # one phase per strip
        return k, (xi, self.family.zeta0(xi),
                   np.array([self.phase(kk) for kk in strips.tolist()])[where],
                   np.where(k % 2 == 1, -1.0, 1.0))

    def immersion_phi(self, h, theta) -> np.ndarray:
        """Points of Phi at the broadcast (h, theta), shape (..., 4), with the
        profile once on the distinct h."""
        xi, zeta, c, s = diffgeo.per_distinct(lambda y: self._profile_at(y)[1], h)
        return self.family.point(xi, theta, zeta, c, s)

    def immersion_phi_partials(self, h, theta):
        """The jet (Phi, Phi_h, Phi_theta, Phi_hh, Phi_htheta, Phi_thetatheta)
        at the points, with the profile once on the distinct h and its
        h-rates once per distinct h."""
        def at(y):
            k, prof = self._profile_at(y)
            return (*prof, *self._rates(k, prof[0]))
        xi, zeta, c, s, *rates = diffgeo.per_distinct(at, h)
        return self.family.point(xi, theta, zeta, c, s, rates)

    def phi_patch(self, h_range) -> diffgeo.ImmersionPatch:
        """Phi over the heights h_range and theta in [0, 1]."""
        return diffgeo.ImmersionPatch(
            u_range=tuple(h_range),
            v_range=(0.0, 1.0),
            ambient=diffgeo.SPHERE3,
            jet=self.immersion_phi_partials,
        )

    # -- junction verification -------------------------------------------------

    def junction_jets(self, k: int, phases=None) -> tuple[np.ndarray, np.ndarray]:
        """(left, right): the one-sided h-derivatives of Phi1 and Phi2 at
        the junction h_{0,k}, one row per component and one column per
        order 0 to 3 (order 0 holds the one-sided values), from exact jets
        in the end variable s = sqrt|xi - root|.

        Both sides have the same series in d = |h - h_j| of the turning
        angle and of R (`_end_jets`); composing cos, sin(zeta + c) with
        them gives each component as a series in d.  The sides differ
        only in their strip's phase constant, the sign of Phi2 on odd
        strips, and the factor (-1)^n that turns the n-th d-derivative
        into an h-derivative on the left.  `phases` replaces the (left,
        right) phase constants; the same constant on both sides is the
        continuity-only branch c_k = c0 of a negative control.  No
        inversion runs and no integrand is evaluated.
        """
        if k not in self.grid:
            raise ValueError(f"junction label {k} outside the atlas grid")
        j = k if k > 0 else k + 1  # the slot of h_{0,k} on the ladder of _strip_points
        zlim, dz_powers, R = self._end_jets[j % 2]

        def jets(strip, phase, side):
            """Phi1 and Phi2 on `strip` with phase constant `phase`, as
            h-derivatives on the side where d = `side` (h - h_j)."""
            ang = zlim + phase
            c, sn = math.cos(ang), math.sin(ang)
            sgn = -1.0 if strip % 2 else 1.0
            phi1 = series_mul(R, series_compose([c, -sn, -c, sn], dz_powers))
            phi2 = series_mul(R, series_compose([sn, c, -sn, -c], dz_powers))
            return np.array([phi1, [sgn * v for v in phi2]]) * [
                math.factorial(n) * side ** n for n in range(4)]

        c_left, c_right = phases if phases is not None else (self.phase(j - 1), self.phase(j))
        return jets(j - 1, c_left, -1.0), jets(j, c_right, 1.0)

    @cached_property
    def _end_jets(self) -> tuple:
        """Per strip end, lower then upper: the turning angle's limit there,
        and the series to d^3 in d = |h - h_j| of the powers of zeta -
        limit (`series_powers`: a strip's phase only shifts the turning
        angle by a constant) and of R = sqrt(1 - 1/(C xi^2)) on a strip
        next to a junction h_j at that end.  The tables are immutable, so
        each end is expanded once.

        Near the root xi = root +- s^2 exactly, and the height and the
        turning angle differ from their end values by series in s whose
        coefficients up to s^3 come from the end-cell Chebyshev leaf of
        each table; the end integrands are functions of s^2, so both
        series are odd and their even coefficients are set to exactly 0.
        Reverting |h - h_j| = H(s) gives s as a series in d, and composing
        xi(s) and R(xi) gives R's.  An end whose series cannot be
        reverted or composed in floats (at huge C, H's leading coefficient
        to the fifth underflows, or 1 - 1/(C xi^2) rounds to 0 at the
        root) raises NumericsError naming it.
        """
        odd = lambda a: [0.0, a[1], 0.0, a[3]]
        out = []
        for upper, root, zlim in ((False, self.roots.xi01, self.zeta_limits[0]),
                                  (True, self.roots.xi02, self.zeta_limits[1])):
            end = "upper" if upper else "lower"
            inward = -1.0 if upper else 1.0  # sign of xi - root, and of zeta - zlim
            height = odd(self._h_cum.end_series(upper))
            if height[1] ** 5 == 0.0:  # series_revert divides by it
                raise NumericsError(f"the height series at the {end} strip end is degenerate: "
                                    f"leading coefficient {height[1]!r}")
            s = series_revert(height)
            z1, z3 = odd(self.family._zeta_cum.end_series(upper))[1::2]
            s2 = series_mul(s, s)
            s3 = series_mul(s2, s)
            xi = [root, *(inward * c for c in s2[1:])]
            dz = [inward * (z1 * a + z3 * b) for a, b in zip(s[1:], s3[1:])]
            w = [-c / self.C for c in series_compose(power_derivatives(root, -2.0),
                                                     series_powers(xi))]
            w[0] += 1.0
            if not w[0] > 0.0:
                raise NumericsError(f"the series of R at the {end} strip end is degenerate: "
                                    f"1 - 1/(C xi^2) = {w[0]!r} at xi = {root!r}")
            out.append((zlim, series_powers([0.0, *dz]),
                        series_compose(power_derivatives(w[0], 0.5), series_powers(w))))
        return tuple(out)


@lru_cache(maxsize=16)
def _cached_atlas(C: float, Cstar: float, c0: float) -> GluingAtlas:
    return GluingAtlas(C, Cstar, c0=c0)


def atlas(C: float, Cstar: float, c0: float = 0.0) -> GluingAtlas:
    """Cached atlas for repeat use in checks and the CLI; one cache entry
    per (C, C*, c0) however c0 is passed."""
    return _cached_atlas(float(C), float(Cstar), float(c0))


atlas.cache_clear = _cached_atlas.cache_clear
atlas.cache_info = _cached_atlas.cache_info
