"""Global construction: reflected profile, phase bookkeeping, and the
complete immersions built from the sphere-family strip.

The strip height function h0(xi), an endpoint-singular quadrature of
g_h / sqrt(T) counted from xi00, is strictly increasing with finite limits
h_{0,-1} < 0 < h_{0,1}, so its inverse parametrizes the profile of a
revolution surface in R^3; the profile's h-rates read the same g_h.
Reflecting across the lines h = h_{0,k} extends the inverse to a periodic
profile F defined on the whole axis; alternating strips carry alternating
signs of the height derivative.  F(0) = xi00 exactly, a height near 0
keeps its own precision, and a height equal to a grid point h_{0,k} maps
exactly onto its root.  Matching phase constants c_k make the
first two components of the sphere immersion glue to C^3 order across the
junctions, giving a complete immersion

    Phi(h, theta) = (Phi1(h), Phi2(h),
                     Phi3(h) cos(sqrt(C) theta), Phi3(h) sin(sqrt(C) theta))

of the plane with the periodic-profile metric into the unit 3-sphere.
Its one-sided h-derivatives at a junction, to order 3, are closed forms
in the strip rates at the root, where T = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import diffgeo
from .numerics import OutOfDomain, check_range
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
        self.h_limits = tuple(self._h_cum.table[[0, -1]].tolist())
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
        return self._h_cum.value(xi)

    def h0_inverse(self, y):
        """Inverse of h0 on [h_{0,-1}, h_{0,1}]: a float gives a float, an
        array an array.  The profile evaluators call `_invert` directly."""
        return self._invert(np.asarray(y, dtype=float))

    def _invert(self, ys: np.ndarray) -> np.ndarray:
        """h0_inverse of an array of heights by one call of the height table's
        inverse; a height past an end by at most 1e-9 of the span maps onto its root."""
        lo, hi = self.h_limits
        check_range(ys, lo, hi, 1e-9 * (hi - lo), "height ")
        return self._h_cum.inverse(np.clip(ys, lo, hi))

    # -- grid, strips and phases ---------------------------------------------

    def h_grid_point(self, k: int) -> float:
        """Junction ordinate h_{0,k}; the index skips 0 (the base strip
        spans the two labels -1 and 1)."""
        if k == 0:
            raise ValueError("grid labels are nonzero integers")
        return self._slot_height(k if k > 0 else k + 1)

    def _slot_height(self, j):
        """Slot j of the ladder h_{0,-1} + j delta: h_{0,j} for j >= 1, else h_{0,j-1}."""
        m1, p1 = self.h_limits
        return j * p1 - (j - 1) * m1

    def strip_of(self, h):
        """Strip index: 0 for the base strip [h_{0,-1}, h_{0,1}], k >= 1 for
        [h_{0,k}, h_{0,k+1}], k <= -1 for [h_{0,k-1}, h_{0,k}]; an int, or
        an int array for an array of heights."""
        m1, p1 = self.h_limits
        hs = np.asarray(h, dtype=float)
        # a NaN has no strip, nor a height whose ulp exceeds 1e-9 of the strip
        # height, the most by which `_invert` takes a height past an end
        bad = ~(np.spacing(np.abs(hs)) <= 1e-9 * (p1 - m1))
        if bad.any():
            raise OutOfDomain(f"height {float(hs[bad][0])} cannot be reduced onto the base strip")
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

        A junction, a height equal to its grid point, belongs to the strip
        on its right and maps exactly onto its root: the slots j of the
        uniform ladder h_{0,-1} + j delta carry xi01 when even and xi02 when
        odd.  Elsewhere F(h) inverts the base-strip height of h under strip
        k's reflection.
        """
        m1, p1 = self.h_limits
        delta = p1 - m1
        k = self.strip_of(h)
        j = np.round((h - m1) / delta)
        junction = h == self._slot_height(j)
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
        """(F', F'', zeta', zeta'') in h on strips k at F = xi: F' = s sqrt(T)/g_h,
        zeta' = s g_zeta/g_h and zeta'' = zeta' F' (g_zeta'/g_zeta - g_h'/g_h), s = -1
        on odd strips, from `_rate_terms`; F' = zeta'' = 0 at a junction (T = 0).
        With zeta=False only (F', F''), which Psi needs."""
        s = np.where(np.asarray(k) % 2 == 1, -1.0, 1.0)
        dF, d2F, *z = self._rate_terms(xi, zeta)
        return (s * dF, d2F, s * z[0], z[0] * dF * z[1]) if zeta else (s * dF, d2F)

    def _rate_terms(self, xi, zeta):
        """sqrt(T)/g_h and F'' = T'/(2 g_h^2) - T g_h'/g_h^3 at F = xi, from the
        tables' integrands g / sqrt(T), and with `zeta` also g_zeta/g_h and the
        log-rate difference g_zeta'/g_zeta - g_h'/g_h; finite on the closed strip."""
        xi = np.asarray(xi, dtype=float)
        t = self.roots.T(xi)
        gh = self._h_g(xi, t)  # 0 where it clamps a negative radicand 3 xi^2 - C*^2 T
        bad = (self.C * xi * xi <= 1.0) | ~(gh > 0.0)
        if bad.any():
            raise OutOfDomain(f"C xi^2 <= 1 or 3 xi^2 <= C*^2 T at xi = {float(xi[bad][0])}")
        cs2, tp = self.Cstar * self.Cstar, T_deriv(self.C, xi)
        log_rate = (6.0 * xi - cs2 * tp) / (2.0 * (3.0 * xi * xi - cs2 * t)) - 2.0 / xi
        terms = np.sqrt(t) / gh, (0.5 * tp - t * log_rate) / (gh * gh)
        if not zeta:
            return terms
        return (*terms, self.family._zeta_g(xi, t) / gh, self.family._zeta_log_rate(xi) - log_rate)

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
        order 0 to 3 (order 0 holds the one-sided values).

        On strip j of sign s, Phi1 + i Phi2 = R e^{i psi} with
        psi = s (zeta + c_j).  Both sides share the derivatives of
        `_junction_coefficients` over e^{i psi}, so they differ only in
        psi's value s (zeta limit + c_j).  `phases` replaces the (left,
        right) phase constants; the same constant on both sides is the
        continuity-only branch c_k = c0 of a negative control.  No
        inversion runs and no integrand is evaluated.
        """
        if k not in self.grid:
            raise ValueError(f"junction label {k} outside the atlas grid")
        j = k if k > 0 else k + 1  # the slot of h_{0,k} on the ladder of _strip_points
        zlim, coef = self.zeta_limits[j % 2], self._junction_coefficients[j % 2]
        c_left, c_right = phases if phases is not None else (self.phase(j - 1), self.phase(j))

        def jets(strip, phase):
            z = np.exp(1j * (-1.0 if strip % 2 else 1.0) * (zlim + phase)) * coef
            return np.array([z.real, z.imag])

        return jets(j - 1, c_left), jets(j, c_right)

    @cached_property
    def _junction_coefficients(self) -> np.ndarray:
        """Per strip end, lower then upper: the h-derivatives of order 0 to 3
        of R e^{i psi} over e^{i psi}, on either strip next to a junction there.

        At the root T = 0, so F' = F''' = 0, and on both sides
        psi' = g_zeta/g_h, psi'' = 0 and psi''' = psi' F'' times the
        log-rate difference, all from `_rate_terms`.  With
        R = sqrt(1 - 1/(C xi^2)) and R_xi at the root the derivatives are R,
        i psi' R, R_xi F'' - psi'^2 R and i (3 psi' R_xi F'' + R (psi''' - psi'^3)).
        """
        xi = np.array([self.roots.xi01, self.roots.xi02])
        _, d2F, dpsi, log_rates = self._rate_terms(xi, True)
        R = np.sqrt(1.0 - 1.0 / (self.C * xi * xi))
        d2R = 1.0 / (self.C * xi ** 3 * R) * d2F
        return np.stack([R, 1j * dpsi * R, d2R - R * dpsi * dpsi,
                         1j * (3.0 * dpsi * d2R + R * (dpsi * d2F * log_rates - dpsi ** 3))], 1)


@lru_cache(maxsize=16)
def _cached_atlas(C: float, Cstar: float, c0: float) -> GluingAtlas:
    return GluingAtlas(C, Cstar, c0=c0)


def atlas(C: float, Cstar: float, c0: float = 0.0) -> GluingAtlas:
    """Cached atlas for repeat use in checks and the CLI; one cache entry
    per (C, C*, c0) however c0 is passed."""
    return _cached_atlas(float(C), float(Cstar), float(c0))


atlas.cache_clear = _cached_atlas.cache_clear
atlas.cache_info = _cached_atlas.cache_info
