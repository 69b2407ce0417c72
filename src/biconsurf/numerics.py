"""Shared numerical kernel.

Bracketed root finding, cumulative quadrature that tolerates
inverse-square-root endpoint singularities (adaptive Gauss-Kronrod at
build time, one bisection level at a time with one integrand call per
level, kept as per-panel antiderivatives in the power basis that a
lookup finds by one search), and an embedded adaptive Runge-Kutta
integrator of k'' = f(k) up to its first turning point, which the
package does not call: the benchmark's tracer wraps it by name.
Everything is pure with respect to its inputs; the cumulative
quadrature tables built here are immutable after construction and safe
to share between threads.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "NumericsError",
    "NoSignChange",
    "MaxIterations",
    "InvalidSpec",
    "StepUnderflow",
    "NoTurningPoint",
    "OutOfDomain",
    "DegenerateDomain",
    "Bracket",
    "OdeSolution",
    "find_root",
    "expand_bracket",
    "check_range",
    "solve_ode",
    "gauss_kronrod_panel",
    "CumulativeQuadrature",
]

ROOT_TOL = 1e-12
ODE_TOL = 1e-10

# iteration budgets: bracket doublings, root-finder steps, ODE steps,
# Newton steps of a table inversion (which takes two to six)
BRACKET_EXPANSIONS = 200
ROOT_MAX_ITER = 200
ODE_MAX_STEPS = 1_000_000
NEWTON_CAP = 8
# a table inversion's entry is done once a Newton step moves its t by at
# most this: the steps converge quadratically, so the next would be ~1e-16
NEWTON_STEP_TOL = 1e-8

# cells of a cumulative quadrature table; its GK panels accept at 1e-13
# relative, and a cell halves its panels at most 8 times
QUAD_CELLS = 512
_GK_REL = 1e-13
_GK_MAX_DEPTH = 8

_EPS = float(np.finfo(float).eps)

_log = logging.getLogger(__name__)


class NumericsError(Exception):
    """Base class for numerical-kernel failures."""


class NoSignChange(NumericsError):
    """The proposed interval does not bracket a sign change."""


class MaxIterations(NumericsError):
    """An iteration failed to converge within its budget."""


class InvalidSpec(NumericsError):
    """A quadrature specification violates its invariants."""


class StepUnderflow(NumericsError):
    """The ODE step size collapsed below machine resolution."""


class NoTurningPoint(NumericsError):
    """An ODE run reached its end time before the turning point it needs."""


class OutOfDomain(NumericsError):
    """An evaluation point lies outside the admissible domain."""


class DegenerateDomain(NumericsError):
    """A parameter sits at (or below) a degenerate double-root threshold."""


# ----------------------------------------------------------------------
# Root finding
# ----------------------------------------------------------------------

def _opposite_signs(a: float, b: float) -> bool:
    # sign comparison instead of a*b < 0: the product underflows to +-0
    # for subnormal values and would silently report "no sign change"
    return (a > 0.0) != (b > 0.0) and a != 0.0 and b != 0.0


@dataclass(frozen=True)
class Bracket:
    """A sign-change interval: lo < hi with f(lo) * f(hi) < 0."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise NoSignChange(f"bracket endpoints out of order: [{self.lo}, {self.hi}]")
        if not (np.isfinite(self.f_lo) and np.isfinite(self.f_hi)):
            raise NoSignChange("bracket function values must be finite")
        if not _opposite_signs(self.f_lo, self.f_hi) \
                and self.f_lo != 0.0 and self.f_hi != 0.0:
            raise NoSignChange(
                f"no sign change on [{self.lo}, {self.hi}]: f={self.f_lo}, {self.f_hi}"
            )

    @classmethod
    def from_function(cls, f: Callable[[float], float], lo: float, hi: float) -> "Bracket":
        return cls(lo, hi, f(lo), f(hi))


def expand_bracket(f: Callable[[float], float], lo: float, hi: float) -> Bracket:
    """Double the distance of `hi` from `lo` until f changes sign."""
    f_lo = f(lo)
    f_hi = f(hi)
    for _ in range(BRACKET_EXPANSIONS):
        if _opposite_signs(f_lo, f_hi):
            return Bracket(lo, hi, f_lo, f_hi)
        hi = lo + (hi - lo) * 2.0
        f_hi = f(hi)
    raise NoSignChange(f"no sign change found expanding from [{lo}, {hi}]")


def find_root(
    f: Callable[[float], float],
    bracket: Bracket,
    tol: float = ROOT_TOL,
) -> float:
    """Illinois-modified false position on a validated bracket (Dowell and
    Jarratt, BIT 11, 1971), safeguarded by bisection.

    Each step interpolates linearly between the ends; an end kept by two
    steps in a row has its interpolation weight halved, so that the ends
    alternate and the convergence is superlinear (order ~1.44).  A step
    bisects instead when the interpolant falls on an end, after three
    steps in a row that each failed to halve the bracket, and after a step
    onto a plateau (f equal to its value at the end it replaced, where
    the interpolant learns nothing).  Illinois' own rhythm, keep an end,
    keep it again and halve its weight, then jump across, spans three
    steps, so a bisection after two would preempt every jump.  No f takes
    more than about four times the bisection count.  Returns a point whose
    enclosing interval has width <= tol (absolute, with a machine-epsilon
    relative floor).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a, b = bracket.lo, bracket.hi
    fa, fb = bracket.f_lo, bracket.f_hi
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b

    wa, wb = fa, fb  # the interpolation weights: f at the ends, halved by Illinois
    kept = 0  # the end the last step kept: -1 for a, 1 for b
    slow = 0  # steps in a row that failed to halve the bracket; 3 calls for bisection
    for _ in range(ROOT_MAX_ITER):
        width = b - a
        if width <= tol + 4.0 * _EPS * max(abs(a), abs(b)):
            return a if abs(fa) <= abs(fb) else b
        x = b - wb * width / (wb - wa)
        bisect = slow == 3 or not a < x < b
        if bisect:
            x = a + 0.5 * width

        fx = f(x)
        if fx == 0.0:
            return x
        if _opposite_signs(fa, fx):
            flat = fx == fb
            b, fb, wb = x, fx, fx
            wa = 0.5 * wa if kept == -1 else wa
            kept = -1
        else:
            flat = fx == fa
            a, fa, wa = x, fx, fx
            wb = 0.5 * wb if kept == 1 else wb
            kept = 1
        slow = 3 if flat else 0 if bisect or b - a <= 0.5 * width else slow + 1
    raise MaxIterations(f"root not localized to {tol} in {ROOT_MAX_ITER} iterations")


# ----------------------------------------------------------------------
# Quadrature
# ----------------------------------------------------------------------

# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_GK_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def gauss_kronrod_panel(f_vec, a: np.ndarray,
                        b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """15-point Kronrod panels [a, b] of a vectorized integrand, one per
    entry of the arrays of ends, from one call of f_vec.

    Returns (values, error_estimates, samples); an estimate is the
    Gauss/Kronrod discrepancy and a row of samples the integrand at its
    panel's 15 Kronrod nodes, in ascending order.  Each sum is a stacked
    `matmul` of 1 x 15 rows by the weights, one BLAS dot per row, so a
    panel's value does not depend on the others in the call (`y @ w` would).
    """
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _GK_NODES
    y = np.asarray(f_vec(x.ravel()), dtype=float).reshape(x.shape)
    k15 = half * (y[:, None, :] @ _GK_WEIGHTS[:, None])[:, 0, 0]
    g7 = half * (y[:, None, 1::2] @ _G7_WEIGHTS[:, None])[:, 0, 0]
    return k15, np.abs(k15 - g7), y


def _antiderivative_matrix() -> np.ndarray:
    """16 x 15 map from a panel's samples at the Kronrod nodes to the
    Chebyshev coefficients, on [-1, 1], of the antiderivative of their
    degree-14 interpolant that vanishes at -1.

    The interpolant is evaluated at the 16 Chebyshev points of the first
    kind (none is a Kronrod node) in the barycentric form; a cosine sum
    gives its Chebyshev coefficients a_k, and the integration recurrence
    b_k = (a_{k-1} - a_{k+1}) / (2k) those of the antiderivative
    (Trefethen, Approximation Theory and Approximation Practice, ch. 3
    and 19).  Built in Python floats: at import, numpy ufuncs that nothing
    else uses would page in code for a table of 240 numbers.
    """
    nodes = _GK_NODES.tolist()
    n = len(nodes)
    m = n + 1
    theta = [math.pi * (p + 0.5) / m for p in range(m)]
    weights = [1.0 / math.prod(nodes[j] - nodes[k] for k in range(n) if k != j)
               for j in range(n)]
    interp = []  # [point][sample]: Lagrange basis at the Chebyshev points
    for th in theta:
        q = [w / (math.cos(th) - x) for w, x in zip(weights, nodes)]
        total = sum(q)
        interp.append([v / total for v in q])
    a = [[2.0 / m * sum(math.cos(k * th) * row[j] for th, row in zip(theta, interp))
          for j in range(n)] for k in range(m)]
    a[0] = [0.5 * v for v in a[0]]
    a += [[0.0] * n, [0.0] * n]
    b = [[a[0][j] - 0.5 * a[2][j] for j in range(n)]]
    b += [[(a[k - 1][j] - a[k + 1][j]) / (2.0 * k) for j in range(n)] for k in range(2, m)]
    b.insert(0, [-sum((-1.0) ** k * b[k - 1][j] for k in range(1, m)) for j in range(n)])
    return np.array(b)


_ANTIDERIVATIVE = _antiderivative_matrix()


def _power_matrix() -> np.ndarray:
    """16 x 32 map from Chebyshev to power-basis coefficients, each beside
    its derivative's: row k holds those of T_k and T_k', interleaved, from
    T_{k+1} = 2 t T_k - T_{k-1} in Python integers, so every entry is exact."""
    rows = [[1] + [0] * len(_GK_NODES), [0, 1] + [0] * (len(_GK_NODES) - 1)]
    while len(rows) <= len(_GK_NODES):
        rows.append([2 * a - b for a, b in zip([0] + rows[-1][:-1], rows[-2])])
    return np.array([[x for j, c in enumerate(row) for x in (c, (j + 1) * (row + [0])[j + 1])]
                     for row in rows], dtype=float)


_TO_POWER = _power_matrix()

# columns of a leaf row: panel's left end, half-width, integral up to the
# left end, and its own integral
_LO, _HALF, _BASE, _SPAN = 0, 1, 2, 3


def _polynomial(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per entry n, the powers t[n]^0 .. t[n]^15 times the 16 x k matrix
    coef[n] of power-basis coefficients.  The powers are running products
    and each entry's sum is one BLAS product of its own row (a stacked
    `matmul`), so an entry's bits do not depend on the others in the call."""
    powers = np.repeat(t[:, None], len(_TO_POWER), axis=1)
    powers[:, 0] = 1.0
    return (np.cumprod(powers, axis=1)[:, None, :] @ coef)[:, 0]


def check_range(xs: np.ndarray, lo: float, hi: float, slack: float, name: str = "") -> None:
    """Raise OutOfDomain naming the first entry of the array xs below
    lo - slack or above hi + slack, after `name`."""
    for bad, where in ((xs < lo - slack, f"below {lo}"), (xs > hi + slack, f"above {hi}")):
        if bad.any():
            raise OutOfDomain(f"{name}{float(xs[bad][0])} {where}")


class CumulativeQuadrature:
    """Cumulative integral of a vectorized integrand over (lower, upper).

    The endpoints may carry inverse-square-root singularities, so the first
    and last cells are integrated in s, with x = lower + s**2 and
    x = upper - s**2.  `left_sub` and `right_sub` are those end-cell
    integrands, 2 s f(end +/- s**2), written by the caller so that the
    distance to the endpoint enters as s**2 exactly: computing (x - end)
    from a rounded x would cancel, and the exact distance is what keeps
    the table accurate to ~1e-13 relative all the way to the closed
    endpoints.  Nodes cluster near the ends (cosine spacing), matching
    where the integrand steepens.

    The build integrates each cell with adaptive Gauss-Kronrod panels,
    bisected until they converge, to depth 8 at most.  It goes one depth
    at a time over all cells: a level evaluates every open panel of an
    integrand in one call, so a build makes at most 9 calls of each of
    `f_vec`, `left_sub` and `right_sub`.  A cell's value sums each split
    panel's halves from the deepest level up, as a depth-first recursion
    would, and `table` holds the running sums of the cell values.  Each
    accepted panel, a leaf, also keeps its start in x and in the integral,
    and the antiderivative of its 15-point interpolant and that
    polynomial's derivative, as power-basis coefficients in its variable t
    on [-1, 1] (Chebyshev ones from the samples, then an exact change of
    basis).  So `value(x)` is one search plus one polynomial, and
    `inverse(y)` one search plus a few Newton steps on the leaf, for all
    the entries of an array at once: after the build no integrand is
    evaluated and no lookup builds anything.
    """

    def __init__(
        self,
        f_vec: Callable[[np.ndarray], np.ndarray],
        lower: float,
        upper: float,
        left_sub: Callable[[np.ndarray], np.ndarray],
        right_sub: Callable[[np.ndarray], np.ndarray],
    ):
        if not lower < upper:
            raise InvalidSpec("need lower < upper")
        self.f = f_vec
        self.lower = float(lower)
        self.upper = float(upper)
        self.left_sub = left_sub
        self.right_sub = right_sub
        j = np.arange(QUAD_CELLS + 1)
        self.nodes = lower + (upper - lower) * 0.5 * (1.0 - np.cos(np.pi * j / QUAD_CELLS))
        self.nodes[0] = lower
        self.nodes[-1] = upper
        # absolute floor per cell; panels also accept at ~1e-13 relative
        self._cell_tol = 1e-14 * max(1.0, upper - lower)
        # breadth first: a level evaluates the open panels of each integrand
        # in one call and halves those neither converged nor at the depth
        # limit or the width floor; a panel's key is its cell, then its
        # place in the cell in units of the deepest half-width
        a, b = self.nodes[:-1].copy(), self.nodes[1:].copy()
        a[[0, -1]] = 0.0  # the end cells are in s, the upper one from `upper` backwards
        b[[0, -1]] = np.sqrt(np.diff(self.nodes)[[0, -1]])
        key = np.arange(QUAD_CELLS) << _GK_MAX_DEPTH
        tol, levels, found = self._cell_tol, [], []
        for depth in range(_GK_MAX_DEPTH + 1):
            cell = key >> _GK_MAX_DEPTH
            part = np.minimum(cell, 1) + (cell == QUAD_CELLS - 1)
            val, err, y = np.empty_like(a), np.empty_like(a), np.empty((len(a), len(_GK_NODES)))
            for k, sub in enumerate((left_sub, f_vec, right_sub)):
                sel = part == k
                if sel.any():
                    val[sel], err[sel], y[sel] = gauss_kronrod_panel(sub, a[sel], b[sel])
            converged = err <= tol + _GK_REL * np.abs(val)
            done = converged | (depth == _GK_MAX_DEPTH) | (
                b - a < 64.0 * _EPS * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b)))
            for n in np.flatnonzero(done & ~converged).tolist():
                _log.debug("GK panel [%r, %r] unconverged at depth %d, error %r",
                           float(a[n]), float(b[n]), depth, float(err[n]))
            levels.append((val, done))
            found.append((key[done], a[done], b[done], val[done], y[done]))
            if done.all():
                break
            split = ~done
            a, b = a[split], b[split]
            m = 0.5 * (a + b)
            a, b = np.stack([a, m], 1).ravel(), np.stack([m, b], 1).ravel()
            key = np.repeat(key[split], 2)
            key[1::2] += 1 << (_GK_MAX_DEPTH - depth - 1)
            tol = 0.5 * tol
        # a split panel's value is the sum of its halves', from the deepest level up
        for (val, done), (halves, _) in zip(levels[-2::-1], levels[:0:-1]):
            val[~done] = halves[0::2] + halves[1::2]
        cum = np.cumsum(np.concatenate(([0.0], levels[0][0])))
        key, lo, hi, value, y = (np.concatenate(col) for col in zip(*found))
        order = np.argsort(key)
        cell = key[order] >> _GK_MAX_DEPTH
        first_leaf = np.searchsorted(cell, np.arange(QUAD_CELLS + 1))
        self.table = cum
        rows = np.empty((len(order), _SPAN + 1))
        rows[:, _LO] = lo[order]
        rows[:, _HALF] = 0.5 * (hi - lo)[order]
        value = value[order]
        # a leaf's base: the integral up to its left end, counted from the
        # cell's own end in the two end cells and from lower elsewhere;
        # round k adds every cell's k-th leaf
        base, count = cum[:-1].copy(), np.diff(first_leaf)
        base[[0, -1]] = 0.0
        for k in range(count.max()):
            cells = np.flatnonzero(count > k)
            j = first_leaf[cells] + k
            rows[j, _BASE] = base[cells]
            base[cells] += value[j]
        # each leaf's start in x and in the integral: they increase leaf by
        # leaf once the last cell, counted from `upper`, is reversed, and a
        # cell's first leaf starts at its node and its table entry exactly
        head, end, lo_s, base_s = first_leaf[1], first_leaf[-2], rows[:, _LO], rows[:, _BASE]
        x_key, y_key = lo_s.copy(), base_s.copy()
        x_key[:head] = self.lower + lo_s[:head] * lo_s[:head]
        x_key[end:] = np.append(self.upper - lo_s[end + 1:] * lo_s[end + 1:], self.nodes[-2])
        y_key[end:] = np.append(cum[-1] - base_s[end + 1:], cum[-2])
        flip = np.concatenate([np.arange(end), np.arange(len(rows) - 1, end - 1, -1)])
        rows, self._cell = rows[flip], cell[flip]
        self._x_keys, self._y_keys = x_key[flip], y_key[flip]
        # the antiderivative's Chebyshev coefficients, whose sum in order is
        # the leaf's integral, then its power-basis ones in the leaf's
        # variable t, beside those of its derivative
        cheb = y[order[flip]] @ _ANTIDERIVATIVE.T * rows[:, _HALF:_HALF + 1]
        rows[:, _SPAN] = np.add.reduce(np.ascontiguousarray(cheb.T), axis=0)
        self._leaves, self._poly = rows, (cheb @ _TO_POWER).reshape(len(rows), -1, 2)

    @property
    def total(self) -> float:
        return float(self.table[-1])

    def value(self, x):
        """Cumulative integral from `lower` to x, for x in the closed
        interval: a float gives a float, an array an array.

        One search of the leaves' starts in x finds the leaf, and the value
        is the leaf's base plus its antiderivative's polynomial.
        """
        xs = np.asarray(x, dtype=float)
        check_range(xs, self.lower, self.upper, 1e-12 * (self.upper - self.lower))
        out = np.where(xs <= self.lower, 0.0, self.total)
        inner = ~((xs <= self.lower) | (xs >= self.upper))
        xin = xs[inner]
        leaf = np.searchsorted(self._x_keys, xin, "right") - 1
        i = self._cell[leaf]
        first, last = i == 0, i == QUAD_CELLS - 1
        # the end cells' leaves are in s = sqrt|x - end|
        v = xin.copy()
        v[first] = np.sqrt(xin[first] - self.lower)
        v[last] = np.sqrt(self.upper - xin[last])
        lo, half, base, _ = self._leaves[leaf].T
        val = base + _polynomial(self._poly[leaf, :, :1], (v - lo) / half - 1.0)[:, 0]
        val[last] = self.total - val[last]
        out[inner] = np.where(xin == self.nodes[i], self.table[i], val)
        return out if xs.ndim else float(out)

    def inverse(self, y):
        """The x in the closed interval with value(x) = y, for a positive
        integrand and y in [0, total]: a float gives a float, an array an
        array.

        One search of the leaves' starts in the integral finds each
        entry's leaf; there, bracketed Newton steps from a linear seed solve
        for the leaf's own variable t, all entries at once, with the
        antiderivative and its derivative from one product of the powers
        of t per pass.  The end cells' leaves are in s already, so an end
        needs no substitution of its own.  An entry stops when a step moves
        its t by at most NEWTON_STEP_TOL, or its residual is within two
        ulps of `total`, below which it is rounding.  Newton's steps shrink
        quadratically, so the pass a 1e-14 stop would add moves t by about
        1e-16: on 2,000 heights spread over the strip it changes 2 returned
        x at C = C* = 1, by one ulp, and 6% of them at C = 1e3 with C* at
        99% of its range, by at most 2.4e-15 relative (14 ulps).  An entry
        still moving after NEWTON_CAP steps is logged, with its y and last
        step, at DEBUG level on the "biconsurf.numerics" logger.

        Measured max |value(inverse(y)) - y| / total on the strip height
        table at C = C* = 1, by the distance of y to the nearer end (2,000
        log-spaced y a band at each end): 3.5e-15 beyond 1e-2 of the total,
        3.4e-13 within 1e-2, 3.4e-11 within 1e-4 and 8.5e-9 within 1e-6 (up
        to 1e-14, 9.4e-13, 9.5e-11 and 1.4e-8 at C = 1e3 with C* at 99% of
        its range), the same to two digits with the 1e-14 stop.  The three
        end bands are the representation floor of the returned x: at an
        end, a one-ulp move of x moves s = sqrt|x - end| by up to
        sqrt(ulp(x)), and the integral by that times the end integrand.
        """
        ys = np.asarray(y, dtype=float)
        total = self.total
        check_range(ys, 0.0, total, 1e-12 * total)
        out = np.where(ys <= 0.0, self.lower, self.upper)
        inner = ~((ys <= 0.0) | (ys >= total))
        yin = ys[inner]
        leaf = np.searchsorted(self._y_keys, yin, "right") - 1
        i = self._cell[leaf]
        last = i == QUAD_CELLS - 1
        # the last cell's leaves count the integral from `upper`
        v = np.where(last, total - yin, yin)
        lo_end, half, base, span = self._leaves[leaf].T
        poly = self._poly[leaf]
        t = np.minimum(2.0 * (v - base) / span - 1.0, 1.0)
        lo, hi = np.full_like(t, -1.0), np.full_like(t, 1.0)
        r_tol = 2.0 * math.ulp(total)
        going = np.ones(t.shape, dtype=bool)  # a converged entry keeps its t
        for _ in range(NEWTON_CAP):
            p, slope = _polynomial(poly, t).T
            r = base + p - v
            up = r > 0.0
            lo, hi = np.where(up, lo, t), np.where(up, t, hi)
            nxt = t - r / slope
            nxt = np.where((lo <= nxt) & (nxt <= hi), nxt, 0.5 * (lo + hi))
            step = nxt - t
            t = np.where(going, nxt, t)
            going &= ~((np.abs(step) <= NEWTON_STEP_TOL) | (np.abs(r) <= r_tol))
            if not going.any():
                break
        else:
            for n in np.flatnonzero(going).tolist():
                _log.debug("inverse: no convergence in %d Newton steps at y=%r, last step %r",
                           NEWTON_CAP, float(yin[n]), float(step[n]))
        x = lo_end + half * (t + 1.0)
        out[inner] = np.where(i == 0, self.lower + x * x, np.where(last, self.upper - x * x, x))
        return out if ys.ndim else float(out)


# ----------------------------------------------------------------------
# ODE integration (Dormand-Prince 5(4), adaptive, up to a turning point)
# ----------------------------------------------------------------------

@dataclass
class OdeSolution:
    """A trajectory of k'' = f(k) up to its first turning point: `states`
    holds t, k, k' and the step that reached it for each accepted state in
    turn, `turn` the same four floats for the turning point; `len()` counts
    the accepted states."""

    states: list[float]
    turn: tuple[float, float, float, float]

    def __len__(self):
        return len(self.states) // 4


# Dormand-Prince 5(4) tableau: stage weights and the weights of the
# embedded 4th-order solution; the 5th-order one is the last stage's point
# (first same as last).  The equation is autonomous, so the nodes go unused
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_B1, _B3, _B4, _B5, _B6, _B7 = (5179 / 57600, 7571 / 16695, 393 / 640, -92097 / 339200,
                                187 / 2100, 1 / 40)


def _hermite(t, t0, y0, f0, t1, y1, f1):
    """Cubic Hermite interpolant at t of one component of a step from
    (t0, y0) to (t1, y1) with slopes f0 and f1, for turning-point refinement."""
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def solve_ode(
    f: Callable[[float], float],
    k: float,
    kp: float,
    t_end: float,
    step: float,
    tol: float = ODE_TOL,
) -> OdeSolution:
    """Adaptive Dormand-Prince 5(4) trajectory of k'' = f(k) from (k, k')
    at t = 0 up to its first turning point, with `step` the first trial step.

    The state is the pair (k, k') of floats; the k-part of a stage's
    derivative is that stage's k', so `f` is the only call per stage.
    Local error is controlled to `tol` (absolute and relative weight).  The
    turning point, a sign change of k' across an accepted step, is refined
    by bisection on the k' component of the step's Hermite interpolant,
    until the midpoint is an end of the bracket, and ends the run.  A run
    that reaches t_end, where its last step is clipped to land, without a
    turn raises NoTurningPoint.  A stage point that leaves the floats halves
    the step; `f` must give a non-finite value at a non-finite k, so that
    such a point always carries through to the step's end point, where it is
    caught.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if not (step > 0.0 and t_end > 0.0 and math.isfinite(k) and math.isfinite(kp)):
        raise ValueError("the start needs a finite (k, k'), a positive step and t_end > 0")
    t, k, kp, h = 0.0, float(k), float(kp), min(step, t_end)
    states = [t, k, kp, h]
    fk = f(k)

    for _ in range(ODE_MAX_STEPS):
        if t >= t_end:
            raise NoTurningPoint(f"no turning point by t = {t_end}")
        if t + h > t_end:
            h = t_end - t
        if h < 32.0 * _EPS * max(1.0, t):
            raise StepUnderflow(f"step collapsed at t={t}")

        # stage j sits at (k_j, p_j) and has derivative (p_j, f_j)
        k2, p2 = k + h * (_A21 * kp), kp + h * (_A21 * fk)
        f2 = f(k2)
        k3 = k + h * (_A31 * kp + _A32 * p2)
        p3 = kp + h * (_A31 * fk + _A32 * f2)
        f3 = f(k3)
        k4 = k + h * (_A41 * kp + _A42 * p2 + _A43 * p3)
        p4 = kp + h * (_A41 * fk + _A42 * f2 + _A43 * f3)
        f4 = f(k4)
        k5 = k + h * (_A51 * kp + _A52 * p2 + _A53 * p3 + _A54 * p4)
        p5 = kp + h * (_A51 * fk + _A52 * f2 + _A53 * f3 + _A54 * f4)
        f5 = f(k5)
        k6 = k + h * (_A61 * kp + _A62 * p2 + _A63 * p3 + _A64 * p4 + _A65 * p5)
        p6 = kp + h * (_A61 * fk + _A62 * f2 + _A63 * f3 + _A64 * f4 + _A65 * f5)
        f6 = f(k6)
        # the last stage's point is the 5th-order solution
        y5a = k + h * (_A71 * kp + _A73 * p3 + _A74 * p4 + _A75 * p5 + _A76 * p6)
        y5b = kp + h * (_A71 * fk + _A73 * f3 + _A74 * f4 + _A75 * f5 + _A76 * f6)
        if not (math.isfinite(y5a) and math.isfinite(y5b)):  # a stage left the floats
            h *= 0.5
            continue
        f7 = f(y5a)
        y4a = k + h * (_B1 * kp + _B3 * p3 + _B4 * p4 + _B5 * p5 + _B6 * p6 + _B7 * y5b)
        y4b = kp + h * (_B1 * fk + _B3 * f3 + _B4 * f4 + _B5 * f5 + _B6 * f6 + _B7 * f7)
        # squares by ** 2 summed in component order: an RMS norm's rounding
        da = (y5a - y4a) / (tol + tol * max(abs(k), abs(y5a)))
        db = (y5b - y4b) / (tol + tol * max(abs(kp), abs(y5b)))
        err = math.sqrt((da ** 2 + db ** 2) / 2)
        if err <= 1.0:
            t_new = t + h  # the last stage was evaluated at (t_new, y5)
            states += (t_new, y5a, y5b, h)
            if _opposite_signs(kp, y5b):
                ta, tb, ea = t, t_new, kp
                for _ in range(80):
                    tm = 0.5 * (ta + tb)
                    if tm == ta or tm == tb:
                        break  # float resolution: the bracket no longer moves
                    em = _hermite(tm, t, kp, fk, t_new, y5b, f7)
                    if _opposite_signs(ea, em) or em == 0.0:
                        tb = tm
                    else:
                        ta, ea = tm, em
                tm = 0.5 * (ta + tb)
                return OdeSolution(states, (tm, _hermite(tm, t, k, kp, t_new, y5a, y5b),
                                            _hermite(tm, t, kp, fk, t_new, y5b, f7), h))
            t, k, kp, fk = t_new, y5a, y5b, f7
            h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
    raise MaxIterations("step budget exhausted before t_end")
