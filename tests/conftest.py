"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own quadrature/root
machinery: plain bisection for roots, Richardson-refined composite
midpoint for integrals (with the square-root substitution applied at the
code level, not through the package helpers), and Richardson-extrapolated
one-sided stencils for derivatives.  Expected values frozen in
the tests were produced by these.
"""

import math

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


@pytest.fixture(scope="session")
def oracle_roots_C1():
    """Bisection roots of -xi^{8/3} + 3 xi^2 - 3 (the C = 1 strip)."""
    T = lambda x: -x ** (8.0 / 3.0) + 3.0 * x * x - 3.0
    lo = bisect_root(T, 1e-9, 3.375)
    hi = bisect_root(T, 3.375, 10.0)
    return lo, hi
