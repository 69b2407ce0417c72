"""Check power: each mutant is one defect, monkeypatched in, and the test
names the report rows that must fail on it.  A check that cannot fail
proves nothing.

The first mutants are those of the s3-local curvature-ODE rows.  The
report integrates one half period of k'' = f(k), from k01 at rest up to
its turn, and reads three rows from it: `prime_integral_drift`,
`k_confinement` and `half_period_length`.  It used to integrate seven
turns from the middle of [k01, k02] and read two one-sided rows; that
run and its rows are rebuilt here, and only here, on the reference
stepper of conftest (the package's stepper stops at its first turn), so
that the new rows can be shown to fail wherever the old ones did.

The next mutant is a turning-angle drift: the numerator g_zeta of the
zeta table's integrand, which the glued immersion's rates read too.

The last is a root solver that answers its root plus 1e-9 of its
bracket's width.
"""

import math

import numpy as np
import pytest

from biconsurf import checks, euclidean, gluing, numerics, spherical
from biconsurf.numerics import NumericsError
from conftest import curvature_L, reference_second_order

ODE_ROWS = ("prime_integral_drift", "k_confinement", "half_period_length")


def curvature_f(C1):
    """The right side f of k'' = f(k), NaN below k = 0."""
    def f(k):
        if k < 0.0:
            return math.nan
        return -16.0 / 9.0 * k - 32.0 * k ** 3 + 1.75 * C1 * k ** 2.5
    return f


def seven_turns(C, solve=reference_second_order):
    """The run the report made before its half period, by `solve`, the
    reference stepper or a mutant of it: seven turning points from the
    midpoint of [k01, k02], with k' >= 0 from P = 0 there."""
    r = spherical.domain_roots(C)
    C1 = spherical.FamilyParamsS3(C).C1
    k0 = 0.5 * (r.k01 + r.k02)
    return solve(curvature_f(C1), k0, k0 * math.sqrt(curvature_L(C1, k0)),
                 spherical.ODE_T_END, 1e-3, tol=1e-10, max_turns=7)


def seven_turn_rows(C, sol):
    """The names of the old rows that fail on a seven-turn run: its drift
    was the largest |P| over the largest sum of P's terms along the run
    (bound 1e-8), its confinement the larger of k01 - min k and
    max k - k02 (bound 1e-6)."""
    r = spherical.domain_roots(C)
    C1 = spherical.FamilyParamsS3(C).C1
    k, kp = np.array(sol.states[1::4]), np.array(sol.states[2::4])
    drift = (np.max(np.abs(kp * kp + 16.0 / 9.0 * k * k + 16.0 * k ** 4 - C1 * k ** 3.5))
             / np.max(kp * kp + 16.0 / 9.0 * k * k + 16.0 * k ** 4 + C1 * k ** 3.5))
    confinement = max(r.k01 - np.min(k), np.max(k) - r.k02, 0.0)
    return ({"prime_integral_drift"} if drift > 1e-8 else set()) | (
        {"k_confinement"} if confinement > 1e-6 else set())


def half_period_rows(C):
    """The names of the report's curvature-ODE rows that fail."""
    res = checks.s3_local_checks(C, grid=10, seed=12345)
    return {name for name in ODE_ROWS if not res[name].passed}


# each mutant rewrites a call solve(f, k, k', ...) of the curvature ODE:
# f's C1 term or its k^3 coefficient times 1 + 1e-6, or the start's k
# times 1 + 1e-6, which moves it off the level set P = 0.  The seven-turn
# run takes it on the reference stepper, the report on its own stepper
MUTANTS = {
    "none": lambda C1, f, k: (f, k),
    "c1-term": lambda C1, f, k: (lambda x: f(x) + 1.75e-6 * C1 * max(x, 0.0) ** 2.5, k),
    "k3-coefficient": lambda C1, f, k: (lambda x: f(x) - 32e-6 * x ** 3, k),
    "start-off-level-set": lambda C1, f, k: (f, k * (1.0 + 1e-6)),
}

# (mutant, C): the failing old rows, then the failing new rows.  A run
# that raises fails the report, which then exits 2: at C = 20 the k^3
# mutant sends the seven-turn run over the potential's barrier below k01
# and on to k = 0, where its step collapses
OLD_ROWS = {"prime_integral_drift", "k_confinement"}
POWER = {
    ("none", 1.0): (set(), set()),
    ("c1-term", 1.0): (OLD_ROWS, set(ODE_ROWS)),
    ("k3-coefficient", 1.0): (OLD_ROWS, set(ODE_ROWS)),
    ("start-off-level-set", 1.0): ({"prime_integral_drift"},
                                   {"prime_integral_drift", "half_period_length"}),
    ("none", 20.0): (set(), set()),
    ("c1-term", 20.0): (OLD_ROWS, set(ODE_ROWS)),
    ("k3-coefficient", 20.0): ({"StepUnderflow"}, {"prime_integral_drift", "k_confinement"}),
    ("start-off-level-set", 20.0): ({"prime_integral_drift"},
                                    {"prime_integral_drift", "half_period_length"}),
}


@pytest.mark.parametrize("mutant, C", list(POWER))
def test_curvature_ode_mutants(mutant, C, monkeypatch):
    C1 = spherical.FamilyParamsS3(C).C1

    def mutated(solve):
        def run(f, k, kp, *rest, **kw):
            g, k = MUTANTS[mutant](C1, f, k)
            return solve(g, k, kp, *rest, **kw)
        return run

    try:
        old = seven_turn_rows(C, seven_turns(C, mutated(reference_second_order)))
    except NumericsError as exc:
        old = {type(exc).__name__}
    monkeypatch.setattr(spherical, "solve_ode", mutated(numerics.solve_ode))
    new = half_period_rows(C)
    assert (old, new) == POWER[mutant, C]
    # the half period may replace the seven turns: it misses no mutant they catch
    assert new or not old


def test_curvature_f_is_the_reports():
    # the old run above uses the report's own equation: the half period
    # with this f is the report's, state for state
    par = spherical.FamilyParamsS3(1.0)
    r = spherical.domain_roots(1.0)
    want = spherical.curvature_ode_k(par, r)["states"]
    got = numerics.solve_ode(curvature_f(par.C1), r.k01, 0.0, spherical.ODE_T_END, 1e-3)
    assert np.reshape(got.states, (-1, 4)).tolist() == want.tolist()


def test_seven_turn_run_at_C20_misses_k01():
    # the seven-turn run at C = 20: both of its rows passed, yet its lower
    # turns stop at k = 0.41-0.55, where k01 = 0.026; the two-sided arrival
    # measure of the half period, the distance of a turn to its root
    # relative to the root, fails each of them
    r = spherical.domain_roots(20.0)
    sol = seven_turns(20.0)
    assert seven_turn_rows(20.0, sol) == set()
    turns = np.reshape(sol.turns, (-1, 4))[:, 1]
    lower, upper = turns[turns < r.k01 + 1.0], turns[turns > r.k02 - 1.0]
    assert len(lower) == 3 and len(upper) == 4
    assert np.all(np.abs(lower - r.k01) / r.k01 > 10.0)  # the bound is 1e-6
    assert np.all(np.abs(upper - r.k02) / r.k02 <= 1e-6)


# g_zeta = sqrt(C) tau^{4/3} / (C tau^2 - 1) times 1 + 1e-6: zeta0 and zeta0'
# and the glued immersion's d zeta/dh drift together, with C* at 50% of its
# range.  (family, C): the failing rows without the mutant, then with it.
# The revolution surface is a blind spot: Psi = (C*/F cos, C*/F sin, h)
# does not read zeta, so no row of its report can see the mutant
ZETA_POWER = {
    ("s3-local", 1.0): (set(), {"gauss_curvature_identity", "metric_pullback"}),
    ("s3-complete", 1.0): (set(), {"metric_pullback"}),
    ("s3-local", 20.0): (set(), {"gauss_curvature_identity", "metric_pullback"}),
    ("s3-complete", 20.0): ({"profile_junction_values", "junction_negative_control"},
                            {"profile_junction_values", "junction_negative_control",
                             "metric_pullback", "biconservativity_residual"}),
}
ZETA_BLIND_SPOTS = ("revolution",)


def mutate_zeta_numerator(monkeypatch):
    """Every family built from here on, the caches emptied, has g_zeta
    times 1 + 1e-6, in its zeta table, which reads g_zeta through
    `strip_quadrature`, and in `_zeta_g`, which `zeta0_deriv` and the
    atlas's rates read."""
    init, quadrature = spherical.SphereFamily.__init__, spherical.strip_quadrature
    scaled = lambda g: lambda tau, t: g(tau, t) * (1.0 + 1e-6)

    def mutated_init(self, C):
        with monkeypatch.context() as m:
            m.setattr(spherical, "strip_quadrature", lambda roots, g: quadrature(roots, scaled(g)))
            init(self, C)
        self._zeta_g = scaled(self._zeta_g)

    monkeypatch.setattr(spherical.SphereFamily, "__init__", mutated_init)
    spherical.family.cache_clear()
    gluing.atlas.cache_clear()


@pytest.fixture
def fresh_caches():
    """No family, atlas or strip roots built before the test are reused in
    it, nor ones built in it afterwards."""
    for cached in (spherical.family, gluing.atlas, checks._fixed_roots):
        cached.cache_clear()
    yield
    for cached in (spherical.family, gluing.atlas, checks._fixed_roots):
        cached.cache_clear()


def report_at_half(family, C):
    """The report's values by row, a glued family's with C* at 50% of its
    range."""
    cstar = None if family in ("r3", "s3-local") else 0.5 * gluing.cstar_range(C).upper
    rep, _ = checks.build_report(family, C, cstar)
    return rep["checks"]


def failing(report):
    return {name for name, row in report.items() if not row["pass"]}


@pytest.mark.parametrize("family, C", list(ZETA_POWER))
def test_zeta_numerator_mutant(family, C, monkeypatch, fresh_caches):
    before = failing(report_at_half(family, C))
    mutate_zeta_numerator(monkeypatch)
    assert (before, failing(report_at_half(family, C))) == ZETA_POWER[family, C]


@pytest.mark.parametrize("family", ZETA_BLIND_SPOTS)
@pytest.mark.parametrize("C", [1.0, 20.0])
def test_zeta_numerator_blind_spot(family, C, monkeypatch, fresh_caches):
    # not one value of the report moves, so no tolerance could catch it
    before = report_at_half(family, C)
    mutate_zeta_numerator(monkeypatch)
    assert report_at_half(family, C) == before


def offset_root(f, bracket, tol=numerics.ROOT_TOL):
    """find_root, off its root by 1e-9 of the bracket's width."""
    return numerics.find_root(f, bracket, tol) + 1e-9 * (bracket.hi - bracket.lo)


# (family, C): the rows that fail with find_root off by offset_root, in the
# module whose solves the family reads.  The r3 profile x(t) is the solve
# itself, and its round trip t(x(t)) - t reads 3.8e-9 against 1e-10.  The
# s3-local strip roots are a blind spot: `spherical._polish_root` takes
# Newton steps from the solve's answer, which erase the offset, so only
# `curvature_c_independent` moves, at 1e-11 against its tolerance of 1e-6
ROOT_POWER = {
    ("r3", 1.0): (euclidean, {"profile_roundtrip"}),
    ("r3", 20.0): (euclidean, {"profile_roundtrip"}),
}
ROOT_BLIND_SPOTS = (("s3-local", spherical),)


@pytest.mark.parametrize("family, C", list(ROOT_POWER))
def test_root_offset_mutant(family, C, monkeypatch):
    module, rows = ROOT_POWER[family, C]
    assert failing(report_at_half(family, C)) == set()
    monkeypatch.setattr(module, "find_root", offset_root)
    assert failing(report_at_half(family, C)) == rows


@pytest.mark.parametrize("family, module", ROOT_BLIND_SPOTS)
@pytest.mark.parametrize("C", [1.0, 20.0])
def test_root_offset_blind_spot(family, module, C, monkeypatch, fresh_caches):
    before = report_at_half(family, C)
    spherical.family.cache_clear()
    checks._fixed_roots.cache_clear()
    monkeypatch.setattr(module, "find_root", offset_root)
    after = report_at_half(family, C)
    assert failing(before) == failing(after) == set()
    moved = {name for name, row in before.items() if after[name]["value"] != row["value"]}
    assert moved <= {"curvature_c_independent"}
