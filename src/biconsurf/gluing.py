"""Global construction: reflected profile, phase bookkeeping, and the
complete immersions built from the sphere-family strip.

The strip height function h0(xi) (an endpoint-singular quadrature based at
xi00) is strictly increasing with finite limits h_{0,-1} < 0 < h_{0,1}, so
its inverse parametrizes the profile of a revolution surface in R^3.
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

import copy
import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import diffgeo
from .numerics import OutOfDomain, one_sided_derivative
from .spherical import C_MIN, SphereFamily, T, T_stable, family, strip_quadrature

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

# Newton steps allowed per inversion; a Hermite-seeded one takes about two
NEWTON_CAP = 8

_log = logging.getLogger(__name__)


class InvalidC(Exception):
    """C outside the admissible sphere-family range."""


@dataclass(frozen=True)
class CstarRange:
    """Open admissible interval (0, (C - 4/3^{3/2})^{-1/2}) for C*."""

    lower: float
    upper: float

    def contains(self, cstar: float) -> bool:
        return self.lower < cstar < self.upper


def cstar_range(C: float) -> CstarRange:
    if C <= C_MIN:
        raise InvalidC(f"C = {C} <= {C_MIN}")
    return CstarRange(lower=0.0, upper=(C - C_MIN) ** -0.5)


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

    Construction is single-threaded; a built atlas is immutable and safe
    for concurrent evaluation.  `rejected_phases=True` installs the
    continuity-only branch c_k = c_0, which keeps the immersion continuous
    but deliberately breaks first-order matching at the junctions; it
    exists for negative-control tests.
    """

    def __init__(
        self,
        C: float,
        Cstar: float,
        c0: float = 0.0,
        k_max: int = 11,
        rejected_phases: bool = False,
    ):
        rng = cstar_range(C)  # raises InvalidC for inadmissible C
        if not rng.contains(Cstar):
            raise InvalidC(f"C* = {Cstar} outside (0, {rng.upper})")
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        self.C = float(C)
        self.Cstar = float(Cstar)
        self.c0 = float(c0)
        self.k_max = int(k_max)
        self.rejected_phases = bool(rejected_phases)
        self.family: SphereFamily = family(self.C)
        self.roots = self.family.roots
        cs2 = self.Cstar * self.Cstar

        self._h_cum = strip_quadrature(
            self.C, self.roots,
            lambda tau, t: np.sqrt(np.maximum(3.0 * tau * tau - cs2 * t, 0.0)) / (tau * tau))
        self._h_base = self._h_cum.value(self.roots.xi00)
        self.h_limits = (-self._h_base, self._h_cum.total - self._h_base)
        self.period = 2.0 * (self.h_limits[1] - self.h_limits[0])
        self.zeta_limits = self.family.zeta_limits

        # inverse table: h0 and dxi/dh at the nodes; the slope vanishes at the roots
        self._h_nodes = self._h_cum.table - self._h_base
        self._xi_slopes = np.zeros_like(self._h_nodes)
        self._xi_slopes[1:-1] = 1.0 / self._h_cum.f(self._h_cum.nodes[1:-1])

        self.grid = {k: self.h_grid_point(k) for k in range(-self.k_max, self.k_max + 1) if k != 0}

    # -- height function and its inverse ------------------------------------

    def h0(self, xi: float) -> float:
        """Height of the base profile; h0(xi00) = 0, finite at both roots."""
        if not (self.roots.xi01 <= xi <= self.roots.xi02):
            raise OutOfDomain(f"xi = {xi} outside the closed strip")
        return self._h_cum.value(xi) - self._h_base

    def h0_deriv(self, xi: float) -> float:
        t = T_stable(self.C, xi, self.roots)
        if t <= 0.0:
            raise OutOfDomain(f"xi = {xi} at or beyond the strip ends")
        num = 3.0 * xi * xi - self.Cstar ** 2 * t
        return math.sqrt(num / (xi ** 4 * t))

    def h0_inverse(self, y: float) -> float:
        """Inverse of h0 on [h_{0,-1}, h_{0,1}].

        The table of h0 at the quadrature nodes, together with the slopes
        dxi/dh = 1/h0'(xi) there (zero at the roots, where xi(h) is even in
        the distance to the end height), gives a piecewise cubic Hermite
        seed in the cell holding y.  Bracketed Newton steps on h0 then run
        until a step moves xi by at most 1e-14 of the strip width, or the
        residual is within two ulps of the height span, below which the
        step is rounding.  In the three cells at each end the steps are
        taken in w = sqrt(|xi - root|), where the height map has a smooth,
        nonvanishing derivative, and the slope comes from the height
        table's `end_slope`.  Each step costs one table lookup: the
        integrand is not evaluated.

        Measured max |h0(h0_inverse(y)) - y| / span at C = C* = 1, by the
        distance of y to the nearer end height: 2e-15 beyond 1e-2 of the
        span, 3e-13 within 1e-2, 3e-11 within 1e-4 and 9e-9 within 1e-6
        (up to 3e-14, 2e-12, 2e-10 and 2e-8 at C = 1.001 C_MIN with C* at
        half its range).  The
        three end bands are the representation floor h0'(xi) ulp(xi) of
        the returned xi; at a root a one-ulp move of xi already changes
        the height by ~sqrt(eps).  A Newton loop that reaches NEWTON_CAP
        steps logs y and its last step at DEBUG level on the
        "biconsurf.gluing" logger.
        """
        lo, hi = self.h_limits
        span = hi - lo
        if y <= lo + PHASE_SLACK * span:
            if y < lo - 1e-9 * span:
                raise OutOfDomain(f"height {y} below {lo}")
            return self.roots.xi01
        if y >= hi - PHASE_SLACK * span:
            if y > hi + 1e-9 * span:
                raise OutOfDomain(f"height {y} above {hi}")
            return self.roots.xi02
        hs, xs, ms = self._h_nodes, self._h_cum.nodes, self._xi_slopes
        i = min(max(int(np.searchsorted(hs, y)) - 1, 0), len(hs) - 2)
        d = hs[i + 1] - hs[i]
        t = (y - hs[i]) / d
        xi = float((1.0 + 2.0 * t) * (1.0 - t) ** 2 * xs[i] + t * (1.0 - t) ** 2 * d * ms[i]
                   + t * t * (3.0 - 2.0 * t) * xs[i + 1] - t * t * (1.0 - t) * d * ms[i + 1])
        if 3 <= i < len(hs) - 4:
            to_u = to_xi = lambda v: v
            slope = self.h0_deriv
        else:
            # u = +-w rises with xi at both ends: xi = root + s u^2
            root, s = (self.roots.xi01, 1.0) if i < 3 else (self.roots.xi02, -1.0)
            to_u = lambda v: s * math.sqrt(s * (v - root))
            to_xi = lambda u: root + s * u * u
            slope = lambda u: self._h_cum.end_slope(s * u, upper=s < 0.0)
        u_lo, u_hi = to_u(float(xs[i])), to_u(float(xs[i + 1]))
        xi = min(max(xi, float(xs[i])), float(xs[i + 1]))
        tol = 1e-14 * (self.roots.xi02 - self.roots.xi01)
        h_res = 2.0 * math.ulp(span)  # spacing of the tabulated heights
        for _ in range(NEWTON_CAP):
            u = to_u(xi)
            r = self.h0(xi) - y
            if r > 0.0:
                u_hi = u
            else:
                u_lo = u
            nxt = u - r / slope(u)
            if not (u_lo <= nxt <= u_hi):
                nxt = 0.5 * (u_lo + u_hi)
            nxt = to_xi(nxt)
            step, xi = nxt - xi, nxt
            # below h_res the residual is rounding, and so is the step it gives
            if abs(step) <= tol or abs(r) <= h_res:
                return xi
        _log.debug("h0_inverse: no convergence in %d Newton steps at y=%r, last step %r",
                   NEWTON_CAP, y, step)
        return xi

    def with_rejected_phases(self) -> "GluingAtlas":
        """This atlas on the continuity-only branch c_k = c0, sharing its
        tables: the negative control without a second height quadrature."""
        bad = copy.copy(self)
        bad.rejected_phases = True
        return bad

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

    def strip_of(self, h: float) -> int:
        """Strip index: 0 for the base strip [h_{0,-1}, h_{0,1}], k >= 1 for
        [h_{0,k}, h_{0,k+1}], k <= -1 for [h_{0,k-1}, h_{0,k}]."""
        m1, p1 = self.h_limits
        delta = p1 - m1
        j = math.floor((h - m1) / delta)
        return 0 if j == 0 else j

    def _junction_index(self, h: float) -> int | None:
        """Return the grid slot j when h sits on a junction, else None.

        Slots j enumerate the uniform ladder h_{0,-1} + j (h_{0,1}-h_{0,-1});
        even slots carry xi01, odd slots xi02.
        """
        m1, p1 = self.h_limits
        delta = p1 - m1
        j = round((h - m1) / delta)
        if abs(h - (m1 + j * delta)) <= 1e-12 * max(1.0, delta):
            return int(j)
        return None

    def phase(self, k: int) -> float:
        """Phase constant of strip k, reduced into (-pi, pi].

        Even strips advance by the full turning angle per period; odd
        strips carry the reflected combination.  The continuity-only
        negative-control branch returns c0 for every strip.
        """
        if self.rejected_phases:
            return _mod2pi(self.c0)
        zm1, zp1 = self.zeta_limits
        if k % 2 == 0:
            return _mod2pi(k * (zp1 - zm1) + self.c0)
        return _mod2pi((k - 1) * zm1 - (k + 1) * zp1 - self.c0)

    def phase_by_recursion(self, k: int) -> float:
        """Independent route to the same constants: step from c0 one strip
        at a time, alternating which endpoint angle reflects."""
        if self.rejected_phases:
            return _mod2pi(self.c0)
        zm1, zp1 = self.zeta_limits
        c = self.c0
        if k >= 0:
            for kk in range(1, k + 1):
                c = (-2.0 * zp1 - c) if kk % 2 == 1 else (-2.0 * zm1 - c)
        else:
            # downward: invert c_{k+1} = -2 z - c_k  =>  c_k = -2 z - c_{k+1}
            for kk in range(0, k, -1):
                above = kk  # we are computing c_{kk-1} from c_{kk}
                z = zp1 if above % 2 == 1 else zm1
                c = -2.0 * z - c
        return _mod2pi(c)

    # -- periodic profile ------------------------------------------------------

    def _strip_point(self, h: float) -> tuple[int, float]:
        """Strip k owning h and the profile value F(h), from one inversion.

        A junction belongs to the strip on its right and maps exactly onto
        its root.
        """
        j = self._junction_index(h)
        if j is not None:
            return j, self.roots.xi01 if j % 2 == 0 else self.roots.xi02
        k = self.strip_of(h)
        return k, self.h0_inverse(self._strip_height(h, k))

    def F(self, h: float) -> float:
        """Periodic reflected profile: strip-wise inverse of the height map.

        Exact root values at the junctions; inside a strip the inverse of
        h0 composed with the strip's reflection.
        """
        return self._strip_point(h)[1]

    def _strip_height(self, h: float, k: int) -> float:
        """Map h to the base-strip height whose inverse gives F(h)."""
        m1, p1 = self.h_limits
        if k % 2 == 0:
            return h - k * (p1 - m1)
        return (k + 1) * p1 - (k - 1) * m1 - h

    def _F_deriv_at(self, k: int, xi: float) -> float:
        """dF/dh on strip k at F = xi: +-1/h0'(xi); zero in the junction limit."""
        if not self.roots.contains(xi):
            return 0.0
        sign = 1.0 if k % 2 == 0 else -1.0
        return sign / self.h0_deriv(xi)

    # -- revolution surface -----------------------------------------------------

    def radius(self, h: float) -> float:
        return self.Cstar / self.F(h)

    def immersion_psi(self, h: float, theta) -> np.ndarray:
        """Point of Psi; a 1-D `theta` gives the (n, 3) row at height h."""
        r = self.radius(h)
        rows = [[r * math.cos(t / self.Cstar), r * math.sin(t / self.Cstar), h]
                for t in np.atleast_1d(theta)]
        return np.array(rows) if np.ndim(theta) else np.array(rows[0])

    def immersion_psi_partials(self, h: float, theta: float):
        k, xi = self._strip_point(h)
        r = self.Cstar / xi
        dr = -self.Cstar * self._F_deriv_at(k, xi) / (xi * xi)
        ang = theta / self.Cstar
        ca, sa = math.cos(ang), math.sin(ang)
        d_h = np.array([dr * ca, dr * sa, 1.0])
        d_theta = np.array([-sa / xi, ca / xi, 0.0])
        return d_h, d_theta

    def psi_metric(self, h: float) -> tuple[float, float]:
        """Closed-form induced metric of the revolution surface."""
        Fh = self.F(h)
        t = float(T(self.C, Fh))
        E = 3.0 * Fh * Fh / (3.0 * Fh * Fh - self.Cstar ** 2 * t)
        return E, 1.0 / (Fh * Fh)

    def mean_curvature_psi(self, xi: float) -> float:
        """Closed-form mean curvature (trace convention) of the revolution
        surface at profile value xi; depends on both C and C*.

        The quotient below is the average of the two principal curvatures,
        hence the factor 2 to match the trace-of-shape-operator convention
        used everywhere else (a unit sphere has mean curvature 2).  The
        sign follows the fixed normal of the profile parametrization and
        can flip along the profile for large admissible C*; the oracle
        orients its normal pointwise for nonnegative trace, so comparisons
        should be made in absolute value.
        """
        if not (self.roots.xi01 <= xi <= self.roots.xi02):
            raise OutOfDomain(f"xi = {xi} outside the closed strip")
        cs = self.Cstar
        num = 9.0 * xi * xi - cs * cs * (-2.0 * xi ** (8.0 / 3.0) + 9.0 * self.C * xi * xi - 18.0)
        rad = 9.0 * xi * xi - 3.0 * cs * cs * float(T(self.C, xi))
        if rad <= 0.0:
            raise OutOfDomain("height-derivative radicand not positive")
        return 2.0 * num / (6.0 * cs * math.sqrt(rad))

    def psi_patch(self, h_range, theta_range=None) -> diffgeo.ImmersionPatch:
        if theta_range is None:
            theta_range = (0.0, TWO_PI * self.Cstar)
        return diffgeo.ImmersionPatch(
            u_range=tuple(h_range),
            v_range=tuple(theta_range),
            ambient=diffgeo.EUCLIDEAN3,
            position=self.immersion_psi,
            first_partials=self.immersion_psi_partials,
        )

    # -- glued sphere immersion ----------------------------------------------

    def _junction_data(self, j: int):
        zm1, zp1 = self.zeta_limits
        if j % 2 == 0:
            return self.roots.xi01, zm1
        return self.roots.xi02, zp1

    def profile_components(self, h: float) -> tuple[float, float, float]:
        """(Phi1, Phi2, Phi3) at h; Phi4 equals Phi3."""
        k, xi = self._strip_point(h)
        R = self.family.radius(xi)
        ang = self.family.zeta0(xi) + self.phase(k)  # zeta0 is exact at the roots
        sgn = -1.0 if k % 2 else 1.0
        return R * math.cos(ang), sgn * R * math.sin(ang), 1.0 / (math.sqrt(self.C) * xi)

    def immersion_phi(self, h: float, theta) -> np.ndarray:
        """Point of Phi; a 1-D `theta` gives the (n, 4) row at height h."""
        p1, p2, p3 = self.profile_components(h)
        sc = math.sqrt(self.C)
        rows = [[p1, p2, p3 * math.cos(sc * t), p3 * math.sin(sc * t)]
                for t in np.atleast_1d(theta)]
        return np.array(rows) if np.ndim(theta) else np.array(rows[0])

    def _profile_deriv_at(self, k: int, xi: float) -> tuple[float, float, float]:
        """h-derivatives of (Phi1, Phi2, Phi3) on strip k at F = xi; finite
        at junctions, where the blow-up of the turning-angle density cancels
        the flattening of the profile inverse."""
        sc = math.sqrt(self.C)
        sgn = -1.0 if k % 2 else 1.0
        R = self.family.radius(xi)
        ang = self.family.zeta0(xi) + self.phase(k)
        ca, sa = math.cos(ang), math.sin(ang)
        if not self.roots.contains(xi):
            # junction limit (exact or snapped root): zeta0' / h0' stays finite as T -> 0
            dz = sgn * sc * xi ** (7.0 / 3.0) / (math.sqrt(3.0) * (self.C * xi * xi - 1.0))
            return -R * sa * dz, sgn * R * ca * dz, 0.0
        dF = self._F_deriv_at(k, xi)
        dR = 1.0 / (self.C * xi ** 3 * R)
        dz = self.family.zeta0_deriv(xi)
        return ((dR * ca - R * sa * dz) * dF,
                sgn * (dR * sa + R * ca * dz) * dF,
                -dF / (sc * xi * xi))

    def immersion_phi_partials(self, h: float, theta: float):
        k, xi = self._strip_point(h)
        d1, d2, d3 = self._profile_deriv_at(k, xi)
        sc = math.sqrt(self.C)
        p3 = 1.0 / (sc * xi)
        ct, st = math.cos(sc * theta), math.sin(sc * theta)
        d_h = np.array([d1, d2, d3 * ct, d3 * st])
        d_theta = np.array([0.0, 0.0, -sc * p3 * st, sc * p3 * ct])
        return d_h, d_theta

    def phi_patch(self, h_range, theta_range=(0.0, 1.0)) -> diffgeo.ImmersionPatch:
        return diffgeo.ImmersionPatch(
            u_range=tuple(h_range),
            v_range=tuple(theta_range),
            ambient=diffgeo.SPHERE3,
            position=self.immersion_phi,
            first_partials=self.immersion_phi_partials,
        )

    # -- junction verification -------------------------------------------------

    def _junction_feature_length(self, k: int) -> float:
        """h-distance over which the profile departs a few percent of the
        strip width from the junction root; FD steps must resolve it."""
        span = self.roots.xi02 - self.roots.xi01
        root, _ = self._junction_data(self._junction_index(self.grid[k]))
        slope = self._h_cum.end_slope(0.0, upper=root != self.roots.xi01)
        return slope * math.sqrt(0.05 * span)

    def junction_smoothness(self, k: int, orders=(1, 2, 3), functions=("F", "phi1", "phi2")) -> dict:
        """One-sided derivative comparison across the junction h_{0,k}.

        For each requested function and order, estimates the derivative
        from both sides with one-sided stencils at two step sizes, keeps
        the better-converged estimate, and reports the mismatch together
        with a relative form.  Steps are clamped to the junction's feature
        length (the profile turns quadratically on a scale that shrinks
        with the end slope of the height map), and the normalization
        includes the derivative magnitude just inside the strip, so a tiny
        jump is never measured against a function whose derivatives are
        legitimately enormous there.
        """
        if abs(k) > self.k_max or k == 0:
            raise ValueError(f"junction label {k} outside the atlas grid")
        h_j = self.grid[k]
        delta = self.h_limits[1] - self.h_limits[0]
        span_xi = self.roots.xi02 - self.roots.xi01
        feature = self._junction_feature_length(k)

        funcs = {}
        if "F" in functions:
            funcs["F"] = (self.F, span_xi)
        if "phi1" in functions:
            funcs["phi1"] = (lambda h: self.profile_components(h)[0], 2.0)
        if "phi2" in functions:
            funcs["phi2"] = (lambda h: self.profile_components(h)[1], 2.0)

        steps = {1: (1e-4 * delta, 5e-5 * delta),
                 2: (2e-3 * delta, 1e-3 * delta),
                 3: (8e-3 * delta, 4e-3 * delta)}

        out = {}
        for name, (fn, amp) in funcs.items():
            per_order = {}
            for order in orders:
                best = None
                for step in steps[order]:
                    step = min(step, 0.125 * feature)
                    d_r = one_sided_derivative(fn, h_j, order, step, forward=True)
                    d_l = one_sided_derivative(fn, h_j, order, step, forward=False)
                    mism = abs(d_r - d_l)
                    if best is None or mism < best[0]:
                        best = (mism, d_l, d_r, step)
                mism, d_l, d_r, step = best
                d_nb = one_sided_derivative(fn, h_j + 10.0 * step, order, step,
                                            forward=True)
                scale = max(abs(d_l), abs(d_r), abs(d_nb), amp / delta ** order)
                per_order[order] = {
                    "left": d_l,
                    "right": d_r,
                    "mismatch": mism,
                    "relative_mismatch": mism / scale,
                    "step": step,
                }
            out[name] = per_order
        return out

    # -- periodicity probe -------------------------------------------------------

    def periodicity_probe(self) -> dict:
        """Evidence on whether the glued immersion repeats with the profile.

        The profile and the last two components are periodic by
        construction; the first two repeat iff twice the total turning
        angle is a multiple of 2*pi.  Reports the measured phase defect
        and the worst sampled component mismatch; asserts nothing.
        """
        zm1, zp1 = self.zeta_limits
        defect = phase_distance(2.0 * (zp1 - zm1), 0.0)
        tol = 1e-8  # defect below which the immersion counts as periodic
        m1, p1 = self.h_limits
        hs = np.linspace(m1 + 0.05 * (p1 - m1), p1 - 0.05 * (p1 - m1), 17)
        worst = 0.0
        worst34 = 0.0
        for h in hs:
            a = self.immersion_phi(h, 0.3)
            b = self.immersion_phi(h + self.period, 0.3)
            worst = max(worst, float(np.max(np.abs(a - b))))
            worst34 = max(worst34, float(np.max(np.abs(a[2:] - b[2:]))))
        return {
            "phase_defect": defect,
            "max_component_mismatch": worst,
            "max_mismatch_rotational_components": worst34,
            "periodic_within_tol": bool(defect <= tol and worst <= tol),
            "tol": tol,
        }


@lru_cache(maxsize=16)
def _cached_atlas(C: float, Cstar: float, c0: float) -> GluingAtlas:
    return GluingAtlas(C, Cstar, c0=c0)


def atlas(C: float, Cstar: float, c0: float = 0.0) -> GluingAtlas:
    """Cached atlas for repeat use in checks and the CLI; one cache entry
    per (C, C*, c0) however c0 is passed."""
    return _cached_atlas(float(C), float(Cstar), float(c0))


atlas.cache_clear = _cached_atlas.cache_clear
atlas.cache_info = _cached_atlas.cache_info
