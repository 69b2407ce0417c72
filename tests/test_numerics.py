"""Numerical kernel: roots, quadrature and ODE; and the
one-sided stencil oracle of conftest that the jet tests compare against."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biconsurf import numerics as nm
from conftest import one_sided_derivative, reference_second_order, scalar_polynomial


def _rows(xs):
    """(t, k, k', step) rows of an `OdeSolution`'s flat list of states."""
    return [tuple(xs[i:i + 4]) for i in range(0, len(xs), 4)]


def T1(x):
    return -x ** (8.0 / 3.0) + 3.0 * x * x - 3.0


# ----------------------------------------------------------------------
# find_root
# ----------------------------------------------------------------------

class TestFindRoot:
    def test_exact_quadratic(self):
        b = nm.Bracket.from_function(lambda x: x * x - 4.0, 0.0, 3.0)
        assert nm.find_root(lambda x: x * x - 4.0, b) == pytest.approx(2.0, abs=1e-12)

    def test_strip_lower_root(self, oracle_roots_C1):
        b = nm.Bracket.from_function(T1, 1e-6, 3.375)
        x = nm.find_root(T1, b)
        assert x == pytest.approx(oracle_roots_C1[0], abs=1e-11)
        assert x == pytest.approx(1.284454528326454, abs=1e-9)

    def test_strip_upper_root(self, oracle_roots_C1):
        b = nm.Bracket.from_function(T1, 3.375, 10.0)
        x = nm.find_root(T1, b)
        assert x == pytest.approx(oracle_roots_C1[1], abs=1e-11)
        assert x == pytest.approx(4.871158179284799, abs=1e-9)

    def test_rejects_no_sign_change(self):
        with pytest.raises(nm.NoSignChange):
            nm.Bracket.from_function(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_rejects_reversed_interval(self):
        with pytest.raises(nm.NoSignChange):
            nm.Bracket(2.0, 1.0, -1.0, 1.0)

    @given(root=st.floats(-50.0, 50.0), spread=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_recovers_planted_cubic_root(self, root, spread):
        f = lambda x: (x - root) * (1.0 + (x - root) ** 2)
        b = nm.Bracket.from_function(f, root - spread, root + 0.7 * spread)
        x = nm.find_root(f, b, tol=1e-12)
        assert abs(x - root) <= 1e-10 + 1e-10 * abs(root)

    def test_expand_bracket_growth(self):
        f = lambda x: x - 100.0
        b = nm.expand_bracket(f, 0.0, 1.0)
        assert b.lo < 100.0 < b.hi


def _counted(f):
    """f, and the list that each of its calls appends its argument to."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


def _bisections(lo, hi, tol):
    """The evaluations bisection takes to close [lo, hi] to width tol."""
    return max(1, math.ceil(math.log2((hi - lo) / tol)))


# monotone shapes of steepness k through a root r, each keeping the sign
# of x - r in floats so that the bracket holds r exactly, and the factor of
# the bisection count its evaluations may reach: about twice at a simple
# root, up to four times at a near-triple one (slope 1e-3 at r), where the
# interpolation crawls and every fourth step bisects
SHAPES = {
    "cubic": (lambda x, r, k: (x - r) * (1.0 + k * (x - r) ** 2), 2),
    "exp": (lambda x, r, k: math.expm1(min(k, 50.0) * (x - r)), 2),
    "tanh": (lambda x, r, k: math.tanh(k * (x - r)), 2),
    "near-triple": (lambda x, r, k: k * (x - r) ** 3 + 1e-3 * (x - r), 4),
}


class TestFindRootWork:
    """Illinois false position stays inside its bracket's tolerance and
    takes at most about twice the evaluations of bisection, far fewer on
    most smooth f, and no runaway where plain false position stalls;
    beside a near-multiple root, where every fourth step bisects, at most
    four times."""

    @given(shape=st.sampled_from(sorted(SHAPES)), sign=st.sampled_from([-1.0, 1.0]),
           root=st.floats(-50.0, 50.0), below=st.floats(1e-3, 10.0),
           above=st.floats(1e-3, 10.0), log_k=st.floats(-2.0, 3.0),
           log_tol=st.floats(-14.0, -6.0))
    @settings(max_examples=200, deadline=None)
    def test_sampled_brackets(self, shape, sign, root, below, above, log_k, log_tol):
        k, tol = 10.0 ** log_k, 10.0 ** log_tol
        fn, factor = SHAPES[shape]
        f, calls = _counted(lambda x: sign * fn(x, root, k))
        lo, hi = root - below, root + above
        x = nm.find_root(f, nm.Bracket.from_function(f, lo, hi), tol=tol)
        assert abs(x - root) <= tol + 4.0 * nm._EPS * max(abs(lo), abs(hi))
        assert len(calls) - 2 <= factor * _bisections(lo, hi, tol) + 2

    @pytest.mark.parametrize("tol", [1e-12, 1e-8])
    def test_step_where_false_position_stalls(self, tol):
        # flat at -1 left of 0.3 and rising 1e3 per unit right of it: plain
        # false position keeps the right end for 266 steps at tol = 1e-12,
        # each moving the left end by a sliver; a step onto the flat part
        # now bisects next
        step = lambda x: -1.0 if x < 0.3 else 1e3 * (x - 0.3)
        f, calls = _counted(step)
        x = nm.find_root(f, nm.Bracket.from_function(f, 0.0, 1.0), tol=tol)
        assert 0.3 <= x <= 0.3 + tol + 4.0 * nm._EPS
        assert len(calls) - 2 <= 2 * _bisections(0.0, 1.0, tol)

    @pytest.mark.parametrize("tol", [1e-12, 1e-8])
    def test_near_double_root_bisects(self, tol):
        # (x - 1)^2 - 1e-12 on [0, 1], roots 1 -+ 1e-6: beside a near-double
        # root the interpolation crawls, as for the strip roots of T near
        # C_MIN, and the step after three slow ones bisects; 82 and 79
        # evaluations against bisection's 40 and 27
        f, calls = _counted(lambda x: (x - 1.0) ** 2 - 1e-12)
        x = nm.find_root(f, nm.Bracket.from_function(f, 0.0, 1.0), tol=tol)
        assert abs(x - (1.0 - 1e-6)) <= tol + 4.0 * nm._EPS
        assert len(calls) - 2 <= 4 * _bisections(0.0, 1.0, tol)


# ----------------------------------------------------------------------
# CumulativeQuadrature
# ----------------------------------------------------------------------

class TestCumulativeQuadrature:
    def test_single_singular_end(self):
        # 1/sqrt(x): 2 s f(s^2) = 2 at the singular end, smooth at the other;
        # counted from 1/4, value(x) = 2 sqrt(x) - 1
        cq = nm.CumulativeQuadrature(
            lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300)), 0.0, 0.25, 1.0,
            left_sub=lambda s: np.full_like(s, 2.0),
            right_sub=lambda s: 2.0 * s / np.sqrt(1.0 - s * s))
        assert cq.total == pytest.approx(2.0, abs=1e-12)
        assert cq.value(0.25) == 0.0
        assert cq.value(0.0) == pytest.approx(-1.0, abs=1e-12)
        assert cq.value(0.64) == pytest.approx(0.6, abs=1e-12)

    def test_double_singular_with_stable_subs(self):
        f = lambda x: 1.0 / np.sqrt(np.maximum(x * (1.0 - x), 1e-300))
        cq = nm.CumulativeQuadrature(
            f, 0.0, 0.5, 1.0,
            left_sub=lambda s: 2.0 / np.sqrt(1.0 - s * s),
            right_sub=lambda s: 2.0 / np.sqrt(1.0 - s * s))
        assert cq.total == pytest.approx(math.pi, abs=1e-12)
        for x in (0.1, 0.5, 0.9, 1.0 - 1e-9):
            assert cq.value(x) == pytest.approx(2.0 * math.asin(math.sqrt(x)) - 0.5 * math.pi,
                                                abs=1e-11)

    def test_out_of_domain(self):
        cq = nm.CumulativeQuadrature(lambda x: x, 0.0, 0.5, 1.0,
                                     left_sub=lambda s: 2.0 * s ** 3,
                                     right_sub=lambda s: 2.0 * s * (1.0 - s * s))
        assert cq.total == pytest.approx(0.5, abs=1e-13)
        with pytest.raises(nm.OutOfDomain):
            cq.value(1.5)
        # the origin must lie strictly inside the interval
        for ends in ((1.0, 0.5, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 1.0), (0.0, 1.5, 1.0)):
            with pytest.raises(nm.InvalidSpec):
                nm.CumulativeQuadrature(lambda x: x, *ends, cq.left_sub, cq.right_sub)


@pytest.fixture(scope="module")
def arcsine():
    """The table of 1/sqrt(x (1 - x)) on (0, 1) counted from 1/2:
    value(x) = 2 asin(sqrt(x)) - pi/2."""
    return nm.CumulativeQuadrature(
        lambda x: 1.0 / np.sqrt(np.maximum(x * (1.0 - x), 1e-300)), 0.0, 0.5, 1.0,
        left_sub=lambda s: 2.0 / np.sqrt(1.0 - s * s),
        right_sub=lambda s: 2.0 / np.sqrt(1.0 - s * s))


class TestChebyshevTable:
    def test_matrix_integrates_polynomials_exactly(self):
        cheb = pytest.importorskip("numpy.polynomial.chebyshev")
        t = np.linspace(-1.0, 1.0, 21)
        for k in range(15):
            coef = nm._ANTIDERIVATIVE @ nm._GK_NODES ** k
            exact = (t ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            assert np.max(np.abs(cheb.chebval(t, coef) - exact)) <= 1e-15

    def test_full_panel_is_the_kronrod_sum(self):
        # the weights are tabulated to 15 digits, the matrix is exact
        full = np.sum(nm._ANTIDERIVATIVE, axis=0)     # T_k(1) = 1
        assert np.max(np.abs(full - nm._GK_WEIGHTS)) <= 2e-15

    def test_power_matrix_is_exact(self):
        # row k: the power-basis coefficients of T_k and of T_k', interleaved
        cheb = pytest.importorskip("numpy.polynomial.chebyshev")
        poly = pytest.importorskip("numpy.polynomial.polynomial")
        n = len(nm._TO_POWER)
        for k, row in enumerate(nm._TO_POWER):
            power = cheb.cheb2poly(np.eye(n)[k])
            for got, want in ((row[0::2], power), (row[1::2], poly.polyder(power))):
                assert np.array_equal(got, np.pad(want, (0, n - len(want)))), k

    def test_a_leaf_alone_and_in_a_batch(self, arcsine):
        # each entry's sum is one BLAS product of its own row, so the bits of
        # a leaf's polynomial, and of its derivative beside it, do not depend
        # on the other entries, and match the one-float reference
        rng = np.random.default_rng(3)
        leaf = rng.integers(0, len(arcsine._poly), 256)
        t = rng.uniform(-1.0, 1.0, 256)
        for cols in (slice(0, 1), slice(0, 2)):
            batch = nm._polynomial(arcsine._poly[leaf, :, cols], t)
            for n in range(len(t)):
                alone = nm._polynomial(arcsine._poly[leaf[n:n + 1], :, cols], t[n:n + 1])
                assert alone.tobytes() == batch[n:n + 1].tobytes()
                assert scalar_polynomial(arcsine._poly[leaf[n], :, cols], float(t[n])) \
                    == batch[n].tolist()

    def test_value_dense_against_closed_form(self, arcsine):
        d = np.geomspace(1e-12, 0.5, 400)
        xs = np.concatenate([d, 1.0 - d])
        exact = [2.0 * math.asin(math.sqrt(x)) - 0.5 * math.pi if x <= 0.5 else
                 0.5 * math.pi - 2.0 * math.asin(math.sqrt(1.0 - x)) for x in xs.tolist()]
        assert np.max(np.abs(arcsine.value(xs) - exact)) <= 1e-13

    def test_inverse_dense_against_closed_form(self, arcsine):
        # inverse(y) = sin^2(y / 2 + pi / 4); measured within 1.0e-15
        d = math.pi * np.geomspace(1e-12, 0.5, 400)
        ys = np.concatenate([d - 0.5 * math.pi, 0.5 * math.pi - d])
        exact = [math.sin(0.5 * y + 0.25 * math.pi) ** 2 for y in ys.tolist()]
        assert np.max(np.abs(arcsine.inverse(ys) - exact)) <= 1e-14

    def test_inverse_ends_are_exact(self, arcsine):
        bottom, top = arcsine.table[[0, -1]].tolist()
        assert arcsine.inverse(bottom) == arcsine.lower
        assert arcsine.inverse(top) == arcsine.upper
        assert arcsine.inverse(0.0) == arcsine.origin

    def test_inverse_is_monotone(self, arcsine):
        xs = arcsine.inverse(np.linspace(*arcsine.table[[0, -1]], 5001))
        assert np.all(np.diff(xs) >= 0.0)

    def test_inverse_out_of_domain(self, arcsine):
        slack = 1e-12 * arcsine.total
        bottom, top = arcsine.table[[0, -1]].tolist()
        assert arcsine.inverse(bottom - 0.5 * slack) == arcsine.lower
        assert arcsine.inverse(top + 0.5 * slack) == arcsine.upper
        for y in (bottom - 2.0 * slack, top + 2.0 * slack, math.nan):
            with pytest.raises(nm.OutOfDomain):
                arcsine.inverse(y)


class TestGaussKronrodPanel:
    """Each panel's sums are one dot product of its own row: a matrix-vector
    product over the batch rounds about two rows in three differently."""

    def test_sums_are_one_dot_per_row(self):
        rng = np.random.default_rng(20240)
        rows = rng.standard_normal((2000, 15)) * 10.0 ** rng.uniform(-8.0, 8.0, (2000, 1))
        ends = np.ones(len(rows))
        # panels on [-1, 1] have half-width 1, so the sums come back unscaled
        k15, err, y = nm.gauss_kronrod_panel(lambda x: rows.ravel(), -ends, ends)
        assert np.array_equal(y, rows)
        k15_dot = np.array([nm._GK_WEIGHTS.dot(row) for row in rows])
        g7_dot = np.array([nm._G7_WEIGHTS.dot(row[1::2]) for row in rows])
        assert np.array_equal(k15, k15_dot)
        assert np.array_equal(err, np.abs(k15_dot - g7_dot))

    def test_panel_alone_and_in_a_batch(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-3.0, 3.0, 500)
        b = a + 10.0 ** rng.uniform(-6.0, 0.5, 500)
        f = lambda x: np.exp(np.sin(3.0 * x)) / (1.0 + x * x)
        batch = nm.gauss_kronrod_panel(f, a, b)
        for i in range(len(a)):
            alone = nm.gauss_kronrod_panel(f, a[i:i + 1], b[i:i + 1])
            assert all(np.array_equal(one, many[i:i + 1]) for one, many in zip(alone, batch))


# ----------------------------------------------------------------------
# solve_ode
# ----------------------------------------------------------------------

class TestSolveOde:
    """k'' = f(k) from (k, k') at t = 0 up to its first turning point; the
    states come as a flat list of (t, k, k', step), the turn as one such row."""

    def test_exponential(self):
        # k'' = k from (1, -1/2) is k = cosh(t - ln(3)/2) / cosh(ln(3)/2):
        # it turns once, at its minimum sqrt(3)/2
        sol = nm.solve_ode(lambda k: k, 1.0, -0.5, 10.0, 0.05)
        t, k, kp, _ = sol.turn
        assert t == pytest.approx(0.5 * math.log(3.0), abs=1e-9)
        assert k == pytest.approx(0.5 * math.sqrt(3.0), abs=1e-9) and abs(kp) < 1e-9

    def test_harmonic_period_return(self):
        # k = cos t: k' = 0 at the start is no turn; k comes to rest again
        # after half a period, at t = pi and k = -1
        sol = nm.solve_ode(lambda k: -k, 1.0, 0.0, 10.0, 0.05, tol=1e-11)
        t, k, kp, _ = sol.turn
        assert t == pytest.approx(math.pi, abs=1e-8)
        assert k == pytest.approx(-1.0, abs=1e-8) and abs(kp) < 1e-8

    def test_event_detection_zero_crossings(self):
        # k = sin t turns first at pi/2, at k = 1
        sol = nm.solve_ode(lambda k: -k, 0.0, 1.0, 10.0, 0.05)
        t, k, kp, _ = sol.turn
        assert t == pytest.approx(math.pi / 2, abs=1e-6)
        assert k == pytest.approx(1.0, abs=1e-6) and abs(kp) < 1e-9

    def test_stops_at_its_first_turn(self):
        # however far t_end lies, the last state is the end of the step
        # across the first turn
        sol = nm.solve_ode(lambda k: -k, 0.0, 1.0, 100.0, 0.05)
        t, step = sol.turn[0], sol.turn[3]
        assert sol.states[-8] < t <= sol.states[-4] == sol.states[-8] + step
        assert sol.states[-4] < 2.0

    def test_drift_decreases_with_tolerance(self):
        # energy of the cubic oscillator k'' = -k^3 over its half period
        def drift(tol):
            sol = nm.solve_ode(lambda k: -k ** 3, 1.0, 0.0, 20.0, 0.05, tol=tol)
            e = [0.5 * kp ** 2 + 0.25 * k ** 4 for _, k, kp, _ in _rows(sol.states)]
            return max(abs(x - e[0]) for x in e)
        assert drift(1e-11) < drift(1e-7)

    def test_six_rhs_calls_per_accepted_step(self):
        # FSAL: the last stage of a step is the first stage of the next, and
        # the k-part of a stage's derivative is its k', so f is the only call
        calls = []
        def f(k):
            calls.append(k)
            return -k
        sol = nm.solve_ode(f, 1.0, 0.0, 10.0, 0.01)
        assert sol.turn[0] == pytest.approx(math.pi, abs=1e-8)
        assert len(calls) == 1 + 6 * (len(sol) - 1)

    def test_nan_trial_stage_halves_the_step(self):
        calls = []
        def f(k):
            calls.append(k)
            return math.nan if len(calls) == 2 else -k
        sol = nm.solve_ode(f, 0.0, 1.0, 10.0, 0.02)
        assert sol.states[4 + 3] == 0.01
        assert sol.turn[:2] == pytest.approx((math.pi / 2, 1.0), abs=1e-6)

    def test_invariants_of_state(self):
        # a finite start, a positive first step, t_end and tol
        for k, kp, t_end, step, tol in [
                (math.nan, 0.0, 1.0, 0.1, 1e-10), (1.0, math.inf, 1.0, 0.1, 1e-10),
                (1.0, 0.0, 1.0, 0.0, 1e-10), (1.0, 0.0, 1.0, -0.1, 1e-10),
                (1.0, 0.0, 0.0, 0.1, 1e-10), (1.0, 0.0, 1.0, 0.1, 0.0)]:
            with pytest.raises(ValueError):
                nm.solve_ode(lambda k: -k, k, kp, t_end, step, tol=tol)

    @pytest.mark.parametrize("f, k, kp", [
        (lambda k: -k, 1.0, 0.0),
        (lambda k: -k, 0.0, 1.0),
        (lambda k: -k ** 3, 1.0, 0.0),
    ], ids=["harmonic", "harmonic-rising", "cubic"])
    def test_matches_the_reference_stepper(self, f, k, kp):
        got, want = (solve(f, k, kp, 20.0, 0.05, tol=1e-10)
                     for solve in (nm.solve_ode, reference_second_order))
        assert len(got) > 10
        assert (got.states, got.turn) == (want.states, want.turn)

    @pytest.mark.parametrize("f, k, kp, t_end", [
        (lambda k: k, 1.0, 1.0, 1.0),
        # the turn is at pi/2: the last step is clipped to end on t_end,
        # short of it, rather than stepping across it
        (lambda k: -k, 0.0, 1.0, math.pi / 2 - 1e-6),
    ], ids=["exponential", "harmonic-short"])
    def test_no_turn_by_t_end_raises(self, f, k, kp, t_end):
        for solve in (nm.solve_ode, reference_second_order):
            with pytest.raises(nm.NoTurningPoint, match=f"no turning point by t = {t_end}$"):
                solve(f, k, kp, t_end, 0.05)

    def test_event_refinement_stops_at_float_resolution(self, monkeypatch):
        # the bisection ends once its midpoint is an end of the bracket,
        # well short of the reference's 80 halvings, at the same turning
        # point: each halving reads k' on the step's interpolant once, and
        # the turning point reads k and k' on it
        steps, nm_hermite = [], nm._hermite
        def hermite(t, t0, *args):
            steps.append(t0)
            return nm_hermite(t, t0, *args)
        monkeypatch.setattr(nm, "_hermite", hermite)
        sol = nm.solve_ode(lambda k: -k, 0.0, 1.0, 10.0, 0.05)
        ref = reference_second_order(lambda k: -k, 0.0, 1.0, 10.0, 0.05)
        assert sol.turn == ref.turn
        halvings = [steps.count(t0) - 2 for t0 in dict.fromkeys(steps)]
        assert len(halvings) == 1 and 40 <= halvings[0] < 60


# ----------------------------------------------------------------------
# one-sided stencil oracle (conftest)
# ----------------------------------------------------------------------

_CUBIC = (lambda x: 2.0 * x ** 3 - x * x + 3.0 * x - 1.0,
          {1: lambda x: 6.0 * x * x - 2.0 * x + 3.0, 2: lambda x: 12.0 * x - 2.0,
           3: lambda x: 12.0})


class TestOneSidedDerivative:
    # measured at step 1e-2: 2.8e-11, 1.9e-10 and 3.6e-7
    @pytest.mark.parametrize("order, bound", [(1, 1e-9), (2, 1e-8), (3, 1e-5)])
    @pytest.mark.parametrize("forward", [True, False])
    def test_exp(self, order, bound, forward):
        val = one_sided_derivative(math.exp, 0.3, order, 1e-2, forward)
        assert abs(val - math.exp(0.3)) <= bound

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("forward", [True, False])
    def test_cubic(self, order, forward):
        f, derivs = _CUBIC
        val = one_sided_derivative(f, 0.7, order, 0.1, forward)
        assert abs(val - derivs[order](0.7)) <= 1e-9

    def test_order_four_rejected(self):
        with pytest.raises(ValueError):
            one_sided_derivative(math.exp, 0.3, 4, 1e-2, True)
