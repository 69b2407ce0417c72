"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own quadrature/root
machinery: plain bisection for roots, Richardson-refined composite
midpoint for integrals (with the square-root substitution applied at the
code level, not through the package helpers), and Richardson-extrapolated
one-sided stencils for derivatives.  Expected values frozen in
the tests were produced by these.  `ScalarOracle` is the differential-
geometry oracle evaluated point by point, the reference for the batched
one; `scalar_value` and `scalar_inverse` are the height-table lookups
one float at a time, the references for the array ones, and
`scalar_clenshaw` sums a leaf's Chebyshev antiderivative, the reference
for its power-basis one; `reference_build` is the cumulative quadrature
build one panel at a time, by depth-first recursion, the reference for
the level-by-level one; `junction_stencil_gaps` compares the glued
immersion's junction jets with one-sided stencils; `reference_solve_ode`
is a generic ODE stepper on a state of any length, and
`reference_second_order` poses k'' = f(k) to it up to its first turn,
the reference for the package's second-order stepper and, with
`curvature_f`, the trajectory of the profile curvature that the report
checks in closed form.  `jet_lengths_at` reads the `diffgeo.jet_lengths`
that size the oracle's stencils off a patch's jet at a set of points,
`residual` is the batched residual with those lengths, and `curvatures`
reads the oracle's curvature gradients at one point; `validate_patch`
checks a patch's closed-form first partials against differences of a
position evaluator, and its second partials against differences of its
first partials;
`phi_coordinate_bridge` is the isothermal coordinate of the
conformal-exponent route, from `isothermal_quadrature`, which is the
package's own strip quadrature.
"""

import bisect
import functools
import logging
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest


def bisect_root(f, a, b, iters=200):
    """Plain bisection; the independent root oracle."""
    fa, fb = f(a), f(b)
    assert fa * fb < 0, "oracle bracket must straddle a sign change"
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _midpoint(g, a, b, n):
    h = (b - a) / n
    return h * sum(g(a + (i + 0.5) * h) for i in range(n))


def refined_midpoint(g, a, b, n0=1024):
    """Composite midpoint with two Richardson levels; returns (value, err)."""
    v0 = _midpoint(g, a, b, n0)
    v1 = _midpoint(g, a, b, 2 * n0)
    v2 = _midpoint(g, a, b, 4 * n0)
    r1 = (4 * v1 - v0) / 3
    r2 = (4 * v2 - v1) / 3
    rr = (16 * r2 - r1) / 15
    return rr, abs(rr - r2)


def refined_singular_integral(g, a, b, singular_lower, singular_upper, n0=1024):
    """Independent oracle for integrals with inverse-sqrt endpoint blowup.

    Splits at the midpoint and substitutes t = end +/- s**2 on the flagged
    halves before the midpoint refinement.
    """
    m = 0.5 * (a + b)
    total, err = 0.0, 0.0
    if singular_lower:
        v, e = refined_midpoint(lambda s: 2 * s * g(a + s * s), 0.0, math.sqrt(m - a), n0)
    else:
        v, e = refined_midpoint(g, a, m, n0)
    total += v
    err += e
    if singular_upper:
        v, e = refined_midpoint(lambda s: 2 * s * g(b - s * s), 0.0, math.sqrt(b - m), n0)
    else:
        v, e = refined_midpoint(g, m, b, n0)
    return total + v, err + e


def one_sided_derivative(f, x, order, step, forward):
    """One-sided derivative of order 1..3 at x, on the forward or backward
    side: second-order stencils at step, step/2 and step/4, extrapolated
    twice to cancel the h^2 and h^3 error terms."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")

    def raw(s_step):
        s = s_step if forward else -s_step
        v = [f(x + i * s) for i in range(5)]
        if order == 1:
            return (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * s)
        if order == 2:
            return (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (s * s)
        return (-5.0 * v[0] + 18.0 * v[1] - 24.0 * v[2] + 14.0 * v[3] - 3.0 * v[4]) / (2.0 * s ** 3)

    d1, d2, d4 = raw(step), raw(0.5 * step), raw(0.25 * step)
    r1, r2 = (4.0 * d2 - d1) / 3.0, (4.0 * d4 - d2) / 3.0
    return (8.0 * r2 - r1) / 7.0


def junction_stencil_cases():
    """(C, C*, junctions, step scale, bounds on orders 1..3) of the one-sided
    stencil comparison of the glued immersion's junction jets: C = 1 and,
    with C* at 50% of its range, 1.001 C_MIN and 20, where junction 1, whose
    upper half-strip holds 6e-4 of the strip's height, takes steps 100
    times shorter."""
    from biconsurf import gluing, spherical
    half = lambda C: 0.5 * gluing.cstar_range(C).upper
    c_near = 1.001 * spherical.C_MIN
    return [(1.0, 1.0, (1, -1, 2), 1.0, (1e-10, 5e-7, 1e-5)),
            (c_near, half(c_near), (1, -1, 2), 1.0, (2e-8, 1e-5, 3e-4)),
            (20.0, half(20.0), (-1, 2), 1.0, (3e-11, 1e-6, 2e-6)),
            (20.0, half(20.0), (1,), 1e-2, (1e-9, 1e-3, 1e-2))]


def junction_stencil_gaps(at, junctions, scale):
    """(k, component, order, side, gap) for each junction k, component
    Phi1 (0) or Phi2 (1), order 1..3 and side (0 left, 1 right): the gap
    between `at.junction_jets(k)` and a Richardson-extrapolated one-sided
    stencil on `immersion_phi` at theta = 0, with steps `scale` times
    1e-3, 4e-3 and 1e-2 of the strip height by order, relative to the
    scale of the report's rows."""
    delta = at.h_limits[1] - at.h_limits[0]
    point = functools.lru_cache(maxsize=None)(lambda h: at.immersion_phi(h, 0.0))
    gaps = []
    for k in junctions:
        jets = at.junction_jets(k)
        for i in (0, 1):
            f = lambda h: point(h)[i]
            for order, step in ((1, 1e-3), (2, 4e-3), (3, 1e-2)):
                for side in (0, 1):
                    fd = one_sided_derivative(f, at.grid[k], order, step * scale * delta,
                                              forward=side == 1)
                    jet = jets[side][i, order]
                    gaps.append((k, i, order, side,
                                 abs(fd - jet) / max(abs(jet), 2.0 / delta ** order)))
    return gaps


def scalar_clenshaw(coef, t):
    """sum c_k T_k(t) and sum k c_k U_{k-1}(t), in Python floats."""
    t2 = t + t
    b1 = b2 = d1 = d2 = 0.0
    k = len(coef) - 1
    for c in coef[:0:-1]:
        b1, b2 = c + t2 * b1 - b2, b1
        d1, d2 = k * c + t2 * d1 - d2, d1
        k -= 1
    return coef[0] + t * b1 - b2, d1


def scalar_polynomial(coef, t):
    """The leaf polynomial(s) with power-basis coefficients `coef` (16 x k)
    at one float t: the powers as running products in Python floats, then
    their sum as one BLAS product of the row of powers, the one that each
    entry of the package's stacked product makes."""
    powers = [1.0]
    for _ in range(len(coef) - 1):
        powers.append(powers[-1] * t)
    return (np.array([powers]) @ np.ascontiguousarray(coef))[0].tolist()


def _scalar_leaf(keys, z):
    """The last leaf whose start in `keys` is at most z, by bisection in
    Python floats."""
    return bisect.bisect_right(keys.tolist(), z) - 1


def scalar_value(cq, x):
    """`CumulativeQuadrature.value` at one float x, one Python float
    operation at a time: the cell from the inverse cosine spacing and a
    walk over the nodes, the leaf by bisection on the leaves' starts in x,
    then the leaf's polynomial."""
    from biconsurf import numerics as nm
    if x <= cq.lower:
        if x < cq.lower - 1e-12 * (cq.upper - cq.lower):
            raise nm.OutOfDomain(f"{x} below {cq.lower}")
        return 0.0
    if x >= cq.upper:
        if x > cq.upper + 1e-12 * (cq.upper - cq.lower):
            raise nm.OutOfDomain(f"{x} above {cq.upper}")
        return cq.total
    c = 1.0 - 2.0 * (x - cq.lower) / (cq.upper - cq.lower)
    i = min(int(nm.QUAD_CELLS / math.pi * math.acos(min(1.0, max(-1.0, c)))), nm.QUAD_CELLS - 1)
    while x < cq.nodes[i]:
        i -= 1
    while x >= cq.nodes[i + 1]:
        i += 1
    if x == cq.nodes[i]:
        return float(cq.table[i])
    end = i in (0, nm.QUAD_CELLS - 1)
    v = math.sqrt(x - cq.lower if i == 0 else cq.upper - x) if end else x
    j = _scalar_leaf(cq._x_keys, x)
    lo, half, base, _ = cq._leaves[j].tolist()
    val = base + scalar_polynomial(cq._poly[j, :, :1], (v - lo) / half - 1.0)[0]
    return cq.total - val if i == nm.QUAD_CELLS - 1 else val


def scalar_inverse(cq, y):
    """`CumulativeQuadrature.inverse` at one float y, one Python float
    operation at a time: the cell by bisection on the table, the leaf by
    bisection on the leaves' starts in y, then bracketed Newton steps from
    the linear seed."""
    from biconsurf import numerics as nm
    total = cq.total
    if y <= 0.0:
        if y < -1e-12 * total:
            raise nm.OutOfDomain(f"{y} below 0")
        return cq.lower
    if y >= total:
        if y > total + 1e-12 * total:
            raise nm.OutOfDomain(f"{y} above {total}")
        return cq.upper
    i = int(np.searchsorted(cq.table, y, "right")) - 1
    v = total - y if i == nm.QUAD_CELLS - 1 else y
    j = _scalar_leaf(cq._y_keys, y)
    lo_end, half, base, span = cq._leaves[j].tolist()
    lo, hi = -1.0, 1.0
    t = min(2.0 * (v - base) / span - 1.0, hi)
    r_tol = 2.0 * math.ulp(total)
    for _ in range(nm.NEWTON_CAP):
        p, slope = scalar_polynomial(cq._poly[j], t)
        r = base + p - v
        if r > 0.0:
            hi = t
        else:
            lo = t
        nxt = t - r / slope
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        step, t = nxt - t, nxt
        if abs(step) <= nm.NEWTON_STEP_TOL or abs(r) <= r_tol:
            break
    x = lo_end + half * (t + 1.0)
    if i == 0:
        return cq.lower + x * x
    if i == nm.QUAD_CELLS - 1:
        return cq.upper - x * x
    return x


REFERENCE_LOGGER = "reference.numerics"


def gk_panel(f_vec, a, b):
    """One 15-point Kronrod panel of a vectorized integrand: (value,
    Gauss/Kronrod discrepancy, the 15 samples in ascending order)."""
    from biconsurf import numerics as nm
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * nm._GK_NODES
    y = np.asarray(f_vec(x), dtype=float)
    k15 = half * float(np.dot(nm._GK_WEIGHTS, y))
    g7 = half * float(np.dot(nm._G7_WEIGHTS, y[1::2]))
    return k15, abs(k15 - g7), y


class Leaves:
    """Accepted panels in the order they are added: the left end, right
    end, K15 value and 15 samples of each."""

    def __init__(self):
        self.rows = []

    def add(self, a, b, value, samples):
        self.rows.append((a, b, value, samples))


def gk_adaptive(f_vec, a, b, tol_abs, leaves, rel=1e-13, depth=0, max_depth=8):
    """Adaptive bisection of GK15 panels, depth first; returns (value,
    error_estimate) and adds the accepted panels to `leaves` left to
    right.  A panel accepted unconverged, at the depth limit or the width
    floor, is logged at DEBUG level on REFERENCE_LOGGER."""
    val, err, y = gk_panel(f_vec, a, b)
    converged = err <= tol_abs + rel * abs(val)
    floor = 64.0 * float(np.finfo(float).eps) * max(1.0, abs(a), abs(b))
    if converged or depth >= max_depth or (b - a) < floor:
        if not converged:
            logging.getLogger(REFERENCE_LOGGER).debug(
                "GK panel [%r, %r] unconverged at depth %d, error %r", a, b, depth, err)
        leaves.add(a, b, val, y)
        return val, err
    m = 0.5 * (a + b)
    v1, e1 = gk_adaptive(f_vec, a, m, 0.5 * tol_abs, leaves, rel, depth + 1, max_depth)
    v2, e2 = gk_adaptive(f_vec, m, b, 0.5 * tol_abs, leaves, rel, depth + 1, max_depth)
    return v1 + v2, e1 + e2


def reference_build(cq):
    """`table`, `cell`, `leaves`, `poly`, `x_keys` and `y_keys` of a
    cumulative quadrature with the nodes, cell tolerance and integrands of
    `cq`, and `cheb`, the leaves' Chebyshev antiderivatives, in the order
    of `leaves`.  Each cell is integrated by `gk_adaptive` in turn, and the
    cell sums, leaf bases, leaf integrals and leaf starts accumulate one
    Python float at a time; the coefficient maps are the package's
    products on the whole table."""
    from biconsurf import numerics as nm
    n = nm.QUAD_CELLS
    cum, leaves, cell = [0.0], Leaves(), []
    for i in range(n):
        start = len(leaves.rows)
        a, b = cq.nodes[i], cq.nodes[i + 1]
        if i == 0:
            v, _ = gk_adaptive(cq.left_sub, 0.0, math.sqrt(b - a), cq._cell_tol, leaves)
        elif i == n - 1:
            v, _ = gk_adaptive(cq.right_sub, 0.0, math.sqrt(b - a), cq._cell_tol, leaves)
        else:
            v, _ = gk_adaptive(cq.f, a, b, cq._cell_tol, leaves)
        cum.append(cum[-1] + v)
        cell += [i] * (len(leaves.rows) - start)
    rows = []
    for (a, b, value, _), i, prev in zip(leaves.rows, cell, [None] + cell[:-1]):
        if i != prev:
            base = cum[i] if 0 < i < n - 1 else 0.0
        rows.append([a, 0.5 * (b - a), base, 0.0])
        base += value
    rows = np.array(rows)
    # starts in x and in the integral; the last cell's leaves, counted from
    # `upper`, go in reverse, each starting where the next one in s ends
    end = cell.index(n - 1)
    x_keys = [cq.lower + lo * lo if c == 0 else lo for (lo, *_), c in zip(rows.tolist(), cell)]
    y_keys = rows[:, nm._BASE].tolist()
    for j in range(end, len(rows)):
        nxt = rows[j + 1].tolist() if j + 1 < len(rows) else None
        x_keys[j] = cq.upper - nxt[nm._LO] * nxt[nm._LO] if nxt else float(cq.nodes[-2])
        y_keys[j] = cum[-1] - nxt[nm._BASE] if nxt else cum[-2]
    flip = list(range(end)) + list(range(len(rows) - 1, end - 1, -1))
    rows = rows[flip]
    samples = np.array([leaves.rows[j][3] for j in flip])
    cheb = samples @ nm._ANTIDERIVATIVE.T * rows[:, nm._HALF:nm._HALF + 1]
    for row, coef in zip(rows, cheb.tolist()):
        span = coef[0]
        for c in coef[1:]:
            span += c
        row[nm._SPAN] = span
    return SimpleNamespace(table=np.array(cum), cell=np.array(cell)[flip], leaves=rows,
                           poly=(cheb @ nm._TO_POWER).reshape(len(rows), -1, 2),
                           x_keys=np.array(x_keys)[flip], y_keys=np.array(y_keys)[flip],
                           cheb=cheb)


@dataclass
class OdeState:
    """One accepted point of a reference trajectory: time, state as a tuple
    of floats, step used."""

    t: float
    y: tuple[float, ...]
    step: float

    def __post_init__(self):
        self.y = tuple(map(float, self.y))
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if not all(map(math.isfinite, self.y)):
            raise ValueError("state vector must be finite")


def _reference_hermite(t, t0, y0, f0, t1, y1, f1):
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return tuple(h00 * a + h10 * h * fa + h01 * b + h11 * h * fb
                 for a, fa, b, fb in zip(y0, f0, y1, f1))


def reference_solve_ode(rhs, y0, t_end, tol=1e-10, event=None, max_events=None):
    """A generic Dormand-Prince 5(4) stepper of y' = rhs(t, y) on a state of
    any length, component by component, with the tableau and step
    controller of `biconsurf.numerics.solve_ode` and a check of every stage
    point for non-finite values; an event is refined by 80 bisections on
    the step's Hermite interpolant, whatever the float resolution.  Returns
    the accepted states and the events as lists of `OdeState`."""
    from biconsurf import numerics as nm
    from biconsurf.numerics import (
        _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64,
        _A65, _A71, _A73, _A74, _A75, _A76, _B1, _B3, _B4, _B5, _B6, _B7)
    _C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
    t = float(y0.t)
    y = y0.y
    direction = 1.0 if t_end >= t else -1.0
    h = min(abs(y0.step), abs(t_end - t)) * direction
    sol = SimpleNamespace(states=[], events=[])
    if h == 0.0:
        sol.states.append(OdeState(t, y, max(abs(y0.step), nm._EPS)))
        return sol

    class NonFinite(Exception):
        pass

    def stage(c, yc):
        if not all(map(math.isfinite, yc)):
            raise NonFinite
        return tuple(map(float, rhs(t + c * h, yc)))

    sol.states.append(OdeState(t, y, abs(h)))
    k1 = tuple(map(float, rhs(t, y)))
    e_prev = event(t, y) if event is not None else None
    for _ in range(nm.ODE_MAX_STEPS):
        if direction * (t - t_end) >= 0.0:
            break
        if direction * (t + h - t_end) > 0.0:
            h = t_end - t
        if abs(h) < 32.0 * nm._EPS * max(1.0, abs(t)):
            raise nm.StepUnderflow(f"step collapsed at t={t}")
        try:
            k2 = stage(_C2, [a + h * (_A21 * p) for a, p in zip(y, k1)])
            k3 = stage(_C3, [a + h * (_A31 * p + _A32 * q) for a, p, q in zip(y, k1, k2)])
            k4 = stage(_C4, [a + h * (_A41 * p + _A42 * q + _A43 * r)
                             for a, p, q, r in zip(y, k1, k2, k3)])
            k5 = stage(_C5, [a + h * (_A51 * p + _A52 * q + _A53 * r + _A54 * w)
                             for a, p, q, r, w in zip(y, k1, k2, k3, k4)])
            k6 = stage(1.0, [a + h * (_A61 * p + _A62 * q + _A63 * r + _A64 * w + _A65 * x)
                             for a, p, q, r, w, x in zip(y, k1, k2, k3, k4, k5)])
            y5 = tuple([a + h * (_A71 * p + _A73 * r + _A74 * w + _A75 * x + _A76 * z)
                        for a, p, r, w, x, z in zip(y, k1, k3, k4, k5, k6)])
            k7 = stage(1.0, y5)
        except NonFinite:
            h *= 0.5
            continue
        y4 = [a + h * (_B1 * p + _B3 * r + _B4 * w + _B5 * x + _B6 * z + _B7 * f)
              for a, p, r, w, x, z, f in zip(y, k1, k3, k4, k5, k6, k7)]
        err = math.sqrt(sum(((a - b) / (tol + tol * max(abs(c), abs(a)))) ** 2
                            for a, b, c in zip(y5, y4, y)) / len(y))
        if err <= 1.0:
            t_new = t + h
            if event is not None:
                e_new = event(t_new, y5)
                if e_prev is not None and nm._opposite_signs(e_prev, e_new):
                    ta, tb, ea = t, t_new, e_prev
                    for _ in range(80):
                        tm = 0.5 * (ta + tb)
                        em = event(tm, _reference_hermite(tm, t, y, k1, t_new, y5, k7))
                        if nm._opposite_signs(ea, em) or em == 0.0:
                            tb = tm
                        else:
                            ta, ea = tm, em
                    tm = 0.5 * (ta + tb)
                    ym = _reference_hermite(tm, t, y, k1, t_new, y5, k7)
                    sol.events.append(OdeState(tm, ym, abs(h)))
                    if max_events is not None and len(sol.events) >= max_events:
                        sol.states.append(OdeState(t_new, y5, abs(h)))
                        return sol
                e_prev = e_new
            t, y, k1 = t_new, y5, k7
            sol.states.append(OdeState(t, y, abs(h)))
            h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
    else:
        raise nm.MaxIterations("step budget exhausted before t_end")
    return sol


def reference_second_order(f, k, kp, t_end, step, tol=1e-10):
    """`reference_solve_ode` on (k, k')' = (k', f(k)) from t = 0 with k' as
    the event, up to its first turning point: the run of
    `solve_ode(f, k, kp, t_end, step, tol)`.  Returns the
    `biconsurf.numerics.OdeSolution` that call should give, or raises its
    `NoTurningPoint`."""
    from biconsurf import numerics as nm
    ref = reference_solve_ode(lambda t, y: (y[1], f(y[0])), OdeState(0.0, (k, kp), step), t_end,
                              tol, event=lambda t, y: y[1], max_events=1)
    if not ref.events:
        raise nm.NoTurningPoint(f"no turning point by t = {t_end}")
    turn = ref.events[0]
    return nm.OdeSolution([x for s in ref.states for x in (s.t, *s.y, s.step)],
                          (turn.t, *turn.y, turn.step))


def curvature_L(C1, k):
    """L(k) = -16/9 - 16 k^2 + C1 k^{3/2}: the profile-curvature ODE conserves
    P = (k')^2 - k^2 L(k), and the roots of L are k01 and k02."""
    return -16.0 / 9.0 - 16.0 * k * k + C1 * k ** 1.5


def curvature_f(C1):
    """The right side f of the profile-curvature equation k'' = f(k), NaN
    below k = 0, where k^{5/2} is undefined."""
    def f(k):
        if k < 0.0:
            return math.nan
        return -16.0 / 9.0 * k - 32.0 * k ** 3 + 1.75 * C1 * k ** 2.5
    return f


@pytest.fixture(scope="session")
def oracle_roots_C1():
    """Bisection roots of -xi^{8/3} + 3 xi^2 - 3 (the C = 1 strip)."""
    T = lambda x: -x ** (8.0 / 3.0) + 3.0 * x * x - 3.0
    lo = bisect_root(T, 1e-9, 3.375)
    hi = bisect_root(T, 3.375, 10.0)
    return lo, hi


class ScalarOracle:
    """The oracle point by point, with second partials by central
    differences of the first: the independent finite-difference route that
    the batched oracle, which reads the patch's closed-form second
    partials, is checked against.

    Each point is its own one-point call of the patch's jet, with one jet
    call per stencil point, of which it reads the first partials only (5
    per shape operator, 25 per residual), and the positions at the point
    for the normal on the sphere.  Both its steps are diffgeo's step rule,
    `diffgeo.jet_steps` of the lengths of the jet at the point, read from
    one more call: the partials steps at PARTIALS_FRACTION of the shortest
    length, which shrinks with the distance to a root where a strip's
    partials blow up, and the curvature steps at diffgeo's own fraction.
    The per-point rules are diffgeo's, and the determinants are numpy's LU
    ones.
    """

    PARTIALS_FRACTION = 2e-5

    def __init__(self, patch):
        from biconsurf import diffgeo
        self.dg = diffgeo
        self.patch = patch

    def _call(self, fun, u, v):
        return [np.asarray(x, dtype=float)[0] for x in fun(np.array([u]), np.array([v]))]

    def _tangents(self, u, v):
        """(X_u, X_v) at one point."""
        return self._call(self.patch.jet, u, v)[1:3]

    def _partials_steps(self, u, v):
        """(hu, hv) of the differenced second partials at (u, v)."""
        dg = self.dg
        steps = dg.jet_steps("jet", self.patch, jet_lengths_at(self.patch, u, v))
        hu, hv = (float(h[0]) * self.PARTIALS_FRACTION / dg.FD_FRACTION["jet"] for h in steps)
        return hu, hv

    def _normal(self, p, xu, xv):
        if self.patch.ambient == self.dg.EUCLIDEAN3:
            n = np.cross(xu, xv)
        else:
            m = np.vstack([p, xu, xv])
            cols = np.arange(4)
            n = np.array([(-1.0) ** i * np.linalg.det(m[:, cols != i]) for i in range(4)])
        return n / np.linalg.norm(n)

    def shape_operator(self, u, v):
        """(E, F, G, normal, shape, f, K) at one point."""
        patch, dg = self.patch, self.dg
        p, xu, xv = self._call(patch.jet, u, v)[:3]
        E, F, G = float(xu @ xu), float(xu @ xv), float(xv @ xv)
        det_g = E * G - F * F
        assert det_g > 0.0
        n = self._normal(p, xu, xv)
        hu, hv = self._partials_steps(u, v)
        up, um = self._tangents(u + hu, v), self._tangents(u - hu, v)
        vp, vm = self._tangents(u, v + hv), self._tangents(u, v - hv)
        h = np.array([(up[0] - um[0]) / (2 * hu) @ n, (vp[0] - vm[0]) / (2 * hv) @ n,
                      (vp[1] - vm[1]) / (2 * hv) @ n])
        H = np.array([[h[0], h[1]], [h[1], h[2]]])
        A = np.array([[G, -F], [-F, E]]) / det_g @ H
        if np.trace(A) < -dg.ORIENT_TOL:
            n, A = -n, -A
        K = float(np.linalg.det(A)) + (1.0 if patch.ambient == dg.SPHERE3 else 0.0)
        return {"E": E, "F": F, "G": G, "normal": n, "shape": A, "f": float(np.trace(A)), "K": K}

    def biconservativity_residual(self, u, v):
        patch, dg = self.patch, self.dg
        d = self.shape_operator(u, v)
        steps = dg.jet_steps("curvature", patch, jet_lengths_at(patch, u, v))
        hu, hv = (float(h[0]) for h in steps)
        up, um = self.shape_operator(u + hu, v), self.shape_operator(u - hu, v)
        vp, vm = self.shape_operator(u, v + hv), self.shape_operator(u, v - hv)
        g = np.array([[d["E"], d["F"]], [d["F"], d["G"]]])
        g_inv = np.array([[d["G"], -d["F"]], [-d["F"], d["E"]]]) / (d["E"] * d["G"] - d["F"] ** 2)
        grad_f = g_inv @ np.array([(up["f"] - um["f"]) / (2 * hu), (vp["f"] - vm["f"]) / (2 * hv)])
        res_vec = d["shape"] @ grad_f + 0.5 * d["f"] * grad_f
        res_norm = math.sqrt(max(0.0, float(res_vec @ g @ res_vec)))
        grad_norm = math.sqrt(max(0.0, float(grad_f @ g @ grad_f)))
        if grad_norm <= dg.GRADIENT_THRESHOLD:
            return res_norm
        return res_norm / max(grad_norm * abs(d["f"]) / 2.0, dg.RESIDUAL_FLOOR)


FIELDS = ("E", "F", "G", "normal", "shape", "f", "K")


def assert_matches_reference(patch, us, vs, data, residual=None, rel=1e-9, residual_tol=None):
    """The batched data at the points (us, vs) against the point-by-point
    oracle: every shape-operator field to `rel` of 1 + its size, and the
    residual, which is scale-free, to `residual_tol` (by default `rel`)."""
    residual_tol = rel if residual_tol is None else residual_tol
    ref = ScalarOracle(patch)
    for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        want = ref.shape_operator(u, v)
        for name in FIELDS:
            got, exp = getattr(data, name)[i], want[name]
            assert np.all(np.abs(got - exp) <= rel * (1.0 + np.abs(exp))), (name, u, v, got, exp)
        if residual is not None:
            exp = ref.biconservativity_residual(u, v)
            assert abs(residual[i] - exp) <= residual_tol, (u, v, residual[i], exp)


def jet_lengths_at(patch, u, v):
    """`diffgeo.jet_lengths` (5, n) of the patch's jet at the broadcast
    points (u, v), from one call of its own."""
    from biconsurf import diffgeo
    us, vs = np.broadcast_arrays(np.atleast_1d(u).astype(float), np.atleast_1d(v).astype(float))
    return diffgeo.jet_lengths(np.asarray(patch.jet(us, vs)))


def residual(patch, u, v):
    """The oracle's biconservativity residual at the points (u, v), its
    stencils sized from the patch's own jet there."""
    from biconsurf import diffgeo
    return diffgeo.biconservativity_residual(patch, u, v, jet_lengths_at(patch, u, v))[0]


@np.errstate(over="ignore", invalid="ignore")
def curvatures(patch, u, v):
    """Mean curvature, Gauss curvature and their metric gradients at one
    point, from the oracle's shape operators on its curvature stencil.

    Gradients are coordinate components of grad = g^{-1} d(scalar); their
    lengths in the induced metric are sqrt(d . g^{-1} . d).
    """
    from biconsurf import diffgeo
    data, grad_f, grad_k, _ = diffgeo._curvature_gradients(
        patch, np.array([u], dtype=float), np.array([v], dtype=float),
        jet_lengths_at(patch, u, v))
    return data.f[0], data.K[0], grad_f[0], grad_k[0]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def validate_patch(patch, position, n=5, rel_tol=1e-6):
    """Spot-check patch invariants on an n x n interior sample.

    The positions that the patch's jet evaluator returns must be those of
    `position`, the family's position evaluator that mesh and export
    read: bit for bit on the sphere, where both read one formula, and to
    1e-13 relative in R^3, where the two may be written apart; on the
    sphere they must be unit vectors.  The first partials must match
    fourth-order differences of `position`, and the second partials
    fourth-order differences of the first partials, with the oracle's
    steps, `diffgeo.jet_steps` of the jets' lengths.  The normal must be
    orthogonal to the tangents (and the position).  Returns the worst
    deviations found; a NaN deviation is the worst, so it fails.
    """
    from biconsurf import diffgeo as dg
    us, vs = (a.ravel() for a in np.meshgrid(*patch.grid(n, n, margin=5e-2), indexing="ij"))
    pos = position(us, vs)
    jet = np.asarray(patch.jet(us, vs))
    p, xu, xv, xuu, xuv, xvv = jet
    length = lambda x: np.linalg.norm(x, axis=1)
    hu, hv = dg.jet_steps("jet", patch, dg.jet_lengths(jet))
    d_u = lambda f: dg._fd4(lambda uu: np.transpose(f(uu, vs)), us, hu).T
    d_v = lambda f: dg._fd4(lambda vv: np.transpose(f(us, vv)), vs, hv).T
    entry = lambda i: lambda u, v: patch.jet(u, v)[i]
    gap = lambda fd, x: length(fd - x) / np.maximum(1.0, length(x))
    partial = np.concatenate([gap(d_u(position), xu), gap(d_v(position), xv)])
    second = np.concatenate([gap(d_u(entry(1)), xuu), gap(d_v(entry(1)), xuv),
                             gap(d_v(entry(2)), xvv)])
    nrm = dg._normal(us, vs, p if patch.ambient == dg.SPHERE3 else None, xu, xv)
    orth = [dg._dot(nrm, xu), dg._dot(nrm, xv)]
    norm = np.zeros(1)
    if patch.ambient == dg.SPHERE3:
        norm = np.abs(length(pos) - 1.0)
        orth.append(dg._dot(nrm, pos))
        same_positions = pos.tobytes() == p.tobytes()
    else:
        same_positions = bool(np.max(gap(p, pos)) <= 1e-13)
    # np.max propagates a NaN
    worst_norm, worst_partial, worst_second, worst_orth = (
        float(np.max(np.abs(xs))) for xs in (norm, partial, second, np.concatenate(orth)))
    return {
        "position_norm_defect": worst_norm,
        "partials_vs_fd": worst_partial,
        "second_vs_fd": worst_second,
        "normal_orthogonality": worst_orth,
        "same_positions": same_positions,
        "ok": (worst_partial <= rel_tol and worst_second <= rel_tol and worst_norm <= 1e-10
               and worst_orth <= 1e-8 and same_positions),
    }


def isothermal_quadrature(fam):
    """Strip quadrature of sqrt(3/T), the isothermal coordinate density of
    a sphere family's strip."""
    from biconsurf import spherical
    return spherical.strip_quadrature(fam.roots,
                                      lambda tau, t: np.full_like(tau, math.sqrt(3.0)))


def phi_coordinate_bridge(a, b, phi):
    """Isothermal coordinate u(phi) of the conformal-exponent route, plus C.

    Requires a > 0, b < 0 and a positive radicand at phi.  The base point
    of the quadrature maps to xi00 under xi = (-b)^{3/8} e^{-phi}, which
    keeps the convention aligned with the strip quadratures.  The induced
    strip constant is C = a (-b)^{-3/4}.  Under that map the radicand is
    (-b)^{3/4} T(xi) / (3 xi^2), so du = dphi / sqrt(radicand) turns into
    u = -(-b)^{-3/8} times the integral of sqrt(3/T) from xi00 to xi, a
    strip quadrature that stays accurate up to the band edges.
    """
    from biconsurf import spherical
    from biconsurf.numerics import DegenerateDomain, OutOfDomain
    if a <= 0.0 or b >= 0.0:
        raise OutOfDomain("need a > 0 and b < 0")
    C = a * (-b) ** -0.75
    if C <= spherical.C_MIN:
        raise DegenerateDomain(f"induced C = {C} <= {spherical.C_MIN}")
    rad = float(spherical._bridge_radicand(a, b, phi))
    if rad <= 0.0:
        raise OutOfDomain(f"radicand {rad} <= 0 at phi = {phi}")
    fam = spherical.family(C)
    xi00 = fam.roots.xi00
    scale38 = (-b) ** 0.375
    if phi == math.log(scale38 / xi00):
        return 0.0, C
    quad = isothermal_quadrature(fam)
    return -(quad.value(scale38 * math.exp(-phi)) - quad.value(xi00)) / scale38, C
