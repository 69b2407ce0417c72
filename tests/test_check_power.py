"""Check power: each mutant is one defect, monkeypatched in, and the test
names the report rows that must fail on it.  A check that cannot fail
proves nothing.

The first mutants are those of the s3-local curvature-equation rows.  The
report reads the profile curvature's equation in closed form, in its two
forms: `prime_integral`, P = 0 at strip points, `curvature_equation`,
k'' = f(k) at the same points, and `prime_integral_at_roots`, P = 0 at
rest at k01 and k02.

The next mutant is a turning-angle drift: the numerator g_zeta of the
zeta table's integrand, which the glued immersion's rates read too.

Then comes a root solver that answers its root plus 1e-9 of its
bracket's width.

Then come two defects of the glued profile: an off-by-one phase c_k,
and Phi2's sign on odd strips dropped.

Then come the rows that read their first forms from a merged oracle
call: a tangent scaled by 1 + 1e-6 in an evaluator, and a wrong C* in the
closed-form mean curvature of Psi.

Then come the closed-form jets, which the oracle reads where it once
differenced the partials: a second partial X_uu scaled by 1 + 1e-6 in
each family's evaluator (a blind spot for Psi at small C*), and a turning
angle zeta0 + 1e-6 sin(xi) whose derivatives do not follow.  Only the
consistency rows, which difference the jets, can see either.

The last are the junction jets' shared coefficients, a blind spot of the
report that only the one-sided stencils of the tests see.
"""

import copy

import numpy as np
import pytest

from biconsurf import checks, euclidean, gluing, numerics, spherical
from conftest import curvature_f, junction_stencil_cases, junction_stencil_gaps

CURVATURE_ROWS = {"prime_integral", "curvature_equation", "prime_integral_at_roots"}


def mutate_curvature_equation(monkeypatch, mutant):
    """The C1 term of both forms of the equation, the k^3 coefficient of f,
    or k01, the start at rest on P = 0, times 1 + 1e-6."""
    if mutant == "c1-term":
        for name in ("prime_integral_residual", "curvature_equation_residual"):
            residual = getattr(spherical, name)
            monkeypatch.setattr(spherical, name, lambda C1, *args, residual=residual:
                                residual(C1 * (1.0 + 1e-6), *args))
    elif mutant == "k3-coefficient":
        # f(k) - 32e-6 k^3 moves k'' - f(k) by +32e-6 k^3
        residual = spherical.curvature_equation_residual
        monkeypatch.setattr(spherical, "curvature_equation_residual",
                            lambda C1, k, kpp: residual(C1, k, [*kpp, 32e-6 * k ** 3]))
    elif mutant == "start-off-level-set":
        k01 = spherical.DomainRoots.k01
        monkeypatch.setattr(spherical.DomainRoots, "k01",
                            property(lambda self: k01.fget(self) * (1.0 + 1e-6)))


# (mutant, C): the failing rows of the s3-local report
POWER = {
    ("none", 1.0): set(),
    ("c1-term", 1.0): CURVATURE_ROWS,
    ("k3-coefficient", 1.0): {"curvature_equation"},
    ("start-off-level-set", 1.0): {"prime_integral_at_roots"},
    ("none", 20.0): set(),
    ("c1-term", 20.0): CURVATURE_ROWS,
    ("k3-coefficient", 20.0): {"curvature_equation"},
    ("start-off-level-set", 20.0): {"prime_integral_at_roots"},
}


@pytest.mark.parametrize("mutant, C", list(POWER))
def test_curvature_ode_mutants(mutant, C, monkeypatch):
    mutate_curvature_equation(monkeypatch, mutant)
    assert failing(report_at_half("s3-local", C)) == POWER[mutant, C]


def test_start_off_level_set_blind_spot_near_C_MIN(monkeypatch):
    # P'(k01) -> 0 at the double root, so k01 off by 1e-6 moves P at k01
    # by ever less: 2e-8 at 1.001 C_MIN, 6e-9 at 1.0001 C_MIN, under the
    # 1e-8 bound, where no row of the report fails
    C = 1.0001 * spherical.C_MIN
    mutate_curvature_equation(monkeypatch, "start-off-level-set")
    report = report_at_half("s3-local", C)
    assert 1e-9 < report["prime_integral_at_roots"]["value"] < 1e-8
    assert failing(report) == set()


def test_curvature_f_is_the_reports():
    # the reference stepper's equation, which the trajectory tests
    # integrate, is the report's: k'' = f(k) reads roundoff on the strip
    C1 = spherical.FamilyParamsS3(1.0).C1
    r = spherical.domain_roots(1.0)
    f = curvature_f(C1)
    k = np.linspace(r.k01, r.k02, 101)
    residual = spherical.curvature_equation_residual(C1, k, [np.array([f(x) for x in k])])
    assert np.max(residual) < 1e-15


# g_zeta = sqrt(C) tau^{4/3} / (C tau^2 - 1) times 1 + 1e-6: zeta0 and zeta0'
# and the glued immersion's d zeta/dh drift together, with C* at 50% of its
# range.  (family, C): the failing rows without the mutant, then with it.
# The revolution surface is a blind spot: Psi = (C*/F cos, C*/F sin, h)
# does not read zeta, so no row of its report can see the mutant
ZETA_POWER = {
    ("s3-local", 1.0): (set(), {"gauss_curvature_identity", "metric_pullback"}),
    ("s3-complete", 1.0): (set(), {"metric_pullback"}),
    ("s3-local", 20.0): (set(), {"gauss_curvature_identity", "metric_pullback"}),
    ("s3-complete", 20.0): ({"junction_negative_control"},
                            {"junction_negative_control", "metric_pullback",
                             "biconservativity_residual"}),
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


def mutate_glued_profile(monkeypatch, mutant):
    """An off-by-one phase, `GluingAtlas.phase(k)` answering c_{k+1}, or
    Phi2's sign on odd strips dropped from `_profile_at`."""
    if mutant == "phase-off-by-one":
        phase = gluing.GluingAtlas.phase
        monkeypatch.setattr(gluing.GluingAtlas, "phase", lambda self, k: phase(self, k + 1))
    elif mutant == "odd-strip-sign":
        profile_at = gluing.GluingAtlas._profile_at

        def unsigned(self, h):
            k, (xi, zeta, c, s) = profile_at(self, h)
            return k, (xi, zeta, c, np.ones_like(s))
        monkeypatch.setattr(gluing.GluingAtlas, "_profile_at", unsigned)


CONSISTENCY_ROWS = {"partials_vs_positions", "second_vs_first"}


# (mutant, C): the failing rows of the s3-complete report without the
# mutant, then with it, C* at 50% of its range.  The phase rows compare
# `phase` with its recursion, and the junction rows compose each side's
# jets with that side's phase, so a shifted c_k breaks both
PHASE_POWER = {
    ("phase-off-by-one", 1.0): (set(), {"phase_recursion_vs_closed_form", "junction_continuity",
                                        "junction_smoothness"} | CONSISTENCY_ROWS),
    ("phase-off-by-one", 20.0): ({"junction_negative_control"},
                                 {"junction_negative_control", "phase_recursion_vs_closed_form",
                                  "junction_continuity", "junction_smoothness"}
                                 | CONSISTENCY_ROWS),
    ("odd-strip-sign", 1.0): (set(), CONSISTENCY_ROWS),
    ("odd-strip-sign", 20.0): ({"junction_negative_control"},
                               {"junction_negative_control"} | CONSISTENCY_ROWS),
}
# Phi2 -> -Phi2 on odd strips is a reflection of S^3, an isometry: the
# metric, the sphere norm and the biconservativity residual read the same
# bits at every sample, and the junction rows take their sign from
# `junction_jets`'s own `sgn`, not from `_profile_at`.  The consistency
# rows difference Phi across the junctions -2 to 2, where it now jumps.
# (mutant, family): blind spots, where not one value of the report moves.
# Psi = (C*/F cos, C*/F sin, h) reads neither the phase nor Phi2
GLUED_BLIND_SPOTS = (("odd-strip-sign", "revolution"), ("phase-off-by-one", "revolution"))


@pytest.mark.parametrize("mutant, C", list(PHASE_POWER))
def test_glued_profile_mutant(mutant, C, monkeypatch, fresh_caches):
    before = failing(report_at_half("s3-complete", C))
    mutate_glued_profile(monkeypatch, mutant)
    assert (before, failing(report_at_half("s3-complete", C))) == PHASE_POWER[mutant, C]


@pytest.mark.parametrize("mutant, family", GLUED_BLIND_SPOTS)
@pytest.mark.parametrize("C", [1.0, 20.0])
def test_glued_profile_blind_spot(mutant, family, C, monkeypatch, fresh_caches):
    before = report_at_half(family, C)
    at = gluing.atlas(C, 0.5 * gluing.cstar_range(C).upper)
    h = 0.5 * (at.grid[1] + at.grid[2])   # inside strip 1, an odd strip
    phi = at.immersion_phi(h, 0.3)
    mutate_glued_profile(monkeypatch, mutant)
    # the mutant is live: Phi moves on the odd strip
    assert not np.array_equal(at.immersion_phi(h, 0.3), phi)
    gluing.atlas.cache_clear()
    assert report_at_half(family, C) == before


def scale_jet(monkeypatch, owner, name, order):
    """Entry `order` of the (6, n, d) jets that owner.name returns times
    1 + 1e-6; a call that returns (n, d) positions alone is left alone."""
    evaluate = getattr(owner, name)

    def scaled(*args, **kwargs):
        out = evaluate(*args, **kwargs)
        if np.ndim(out) != 3:
            return out
        out = out.copy()
        out[order] *= 1.0 + 1e-6
        return out
    monkeypatch.setattr(owner, name, scaled)


def mutate_tangent(monkeypatch, mutant):
    """Psi_h in `immersion_psi_partials`, or X_u in the jet of
    `SphereFamily.point` (which the strip and the glued evaluator both
    read), times 1 + 1e-6."""
    owner, name = {"psi-h": (gluing.GluingAtlas, "immersion_psi_partials"),
                   "x-xi": (spherical.SphereFamily, "point")}[mutant]
    scale_jet(monkeypatch, owner, name, 1)


# C* of the first-form mutants: C = C* = 1, and C = 20 with C* at 1% of its range
FORM_CSTAR = {1.0: 1.0, 20.0: 0.01 * gluing.cstar_range(20.0).upper}


def report_at(family, C):
    rep, _ = checks.build_report(family, C, None if family == "s3-local" else FORM_CSTAR[C])
    return rep["checks"]


# (mutant, family, C): the failing rows without the mutant, then with it.
# A tangent scaled by 1 + 1e-6 scales E by 1 + 2e-6, and `metric_pullback`
# reads 2.0e-6 against 1e-6 in each report, whether its E comes from the
# revolution report's shape-operator call or from the ride points of the
# residual's call (s3-local, s3-complete).  The first partials drift 1e-6
# off the differences of the positions, so `partials_vs_positions` fails
# too, and `second_vs_first` wherever X_uu sets the step's length scale
# (not for Psi at C = 20, C* at 1%, where |X_v| / |X_uv| is shorter).
# The K identity, which reads the closed-form X_uu against the scaled
# tangent, fails in s3-local and in revolution at C = 1
JUNCTION_ROWS = {"junction_negative_control"}
FORM_POWER = {
    ("psi-h", "revolution", 1.0): (set(), {"metric_pullback", "gauss_curvature_identity"}
                                   | CONSISTENCY_ROWS),
    ("psi-h", "revolution", 20.0): (set(), {"metric_pullback", "partials_vs_positions"}),
    ("x-xi", "s3-local", 1.0): (set(), {"metric_pullback", "gauss_curvature_identity"}
                                | CONSISTENCY_ROWS),
    ("x-xi", "s3-local", 20.0): (set(), {"metric_pullback", "gauss_curvature_identity"}
                                 | CONSISTENCY_ROWS),
    ("x-xi", "s3-complete", 1.0): (set(), {"metric_pullback"} | CONSISTENCY_ROWS),
    ("x-xi", "s3-complete", 20.0): (JUNCTION_ROWS,
                                    JUNCTION_ROWS | {"metric_pullback"} | CONSISTENCY_ROWS),
}


@pytest.mark.parametrize("mutant, family, C", list(FORM_POWER))
def test_tangent_mutant(mutant, family, C, monkeypatch):
    before = failing(report_at(family, C))
    mutate_tangent(monkeypatch, mutant)
    assert (before, failing(report_at(family, C))) == FORM_POWER[mutant, family, C]


@pytest.mark.parametrize("C", [1.0, 20.0])
def test_mean_curvature_cstar_blind_spot(C, monkeypatch):
    # C* times 1 + 1e-6 in the closed form moves its mean curvature by
    # about 1e-6 relative: `mean_curvature_closed_form` reads 1.4e-6 at
    # C = 1 and 1.0e-6 at C = 20, under its 1e-5, which sits above the
    # oracle's truncation floor there (5e-5 near C_MIN)
    before = report_at("revolution", C)
    mean = gluing.GluingAtlas.mean_curvature_psi

    def wrong_cstar(self, xi):
        other = copy.copy(self)
        other.Cstar = self.Cstar * (1.0 + 1e-6)
        return mean(other, xi)
    monkeypatch.setattr(gluing.GluingAtlas, "mean_curvature_psi", wrong_cstar)
    after = report_at("revolution", C)
    assert failing(before) == failing(after) == set()
    assert before["mean_curvature_closed_form"]["value"] < 1e-7
    assert 5e-7 < after["mean_curvature_closed_form"]["value"] < 1e-5


# X_uu times 1 + 1e-6 in each family's evaluator (the spherical families
# through the jet of `SphereFamily.point`), with C* at 50% of its range:
# second_vs_first reads 1.0e-6 against its 2e-7 wherever X_uu sets the
# step's length scale.  (family, C): the failing rows with the mutant
JET_EVALUATORS = {"r3": (euclidean, "immersion_XC_partials"),
                  "s3-local": (spherical.SphereFamily, "point"),
                  "s3-complete": (spherical.SphereFamily, "point"),
                  "revolution": (gluing.GluingAtlas, "immersion_psi_partials")}
SECOND_POWER = {
    ("r3", 1.0): {"second_vs_first"}, ("r3", 20.0): {"second_vs_first"},
    ("s3-local", 1.0): {"second_vs_first", "gauss_curvature_identity"},
    ("s3-local", 20.0): {"second_vs_first", "gauss_curvature_identity"},
    ("s3-complete", 1.0): {"second_vs_first"}, ("s3-complete", 20.0): {"second_vs_first"},
    ("revolution", 1.0): {"second_vs_first"}, ("revolution", 20.0): {"second_vs_first"},
}


@pytest.mark.parametrize("family, C", list(SECOND_POWER))
def test_second_partial_mutant(family, C, monkeypatch):
    before = failing(report_at_half(family, C))
    scale_jet(monkeypatch, *JET_EVALUATORS[family], 3)
    assert failing(report_at_half(family, C)) - before == SECOND_POWER[family, C]


# The same mutant of Psi with C* at 1% of its range is a blind spot: no
# row of the revolution report fails.  The u-step's length scale there is
# |X_v|/|X_uv| = r/|r'|, far below |X_u|/|X_uu|, and `second_vs_first`
# measures X_uu's error in units of |X_u| over that scale, where
# Psi_hh = r'' (cos, sin, 0) is small: it reads 7.0e-8 at C = 1 and 4.8e-8
# at C = 20 (1.5e-12 and 7.1e-12 without the mutant), under its 2e-7,
# where C* at 50% reads 1.0e-6 and fails (SECOND_POWER)
@pytest.mark.parametrize("C, value", [(1.0, 7.0e-8), (20.0, 4.8e-8)])
def test_second_partial_blind_spot_at_small_cstar(C, value, monkeypatch):
    scale_jet(monkeypatch, *JET_EVALUATORS["revolution"], 3)
    rep, _ = checks.build_report("revolution", C, 0.01 * gluing.cstar_range(C).upper)
    assert failing(rep["checks"]) == set()
    assert rep["checks"]["second_vs_first"]["value"] == pytest.approx(value, rel=0.02)
    assert report_at_half("revolution", C)["second_vs_first"]["value"] == \
        pytest.approx(1.0e-6, rel=0.02)


# zeta0 + 1e-6 sin(xi): the positions of the strip and of the glued
# immersion drift off their partials, which read zeta0' and the h-rates
# from g_zeta.  (family, C): the failing rows with the mutant, C* at 50%
# of its range.  Psi does not read zeta: revolution is a blind spot, as for
# the numerator mutant
DRIFT_POWER = {
    ("s3-local", 1.0): CONSISTENCY_ROWS, ("s3-local", 20.0): CONSISTENCY_ROWS,
    ("s3-complete", 1.0): CONSISTENCY_ROWS, ("s3-complete", 20.0): CONSISTENCY_ROWS,
}


@pytest.mark.parametrize("family, C", list(DRIFT_POWER))
def test_zeta_drift_mutant(family, C, monkeypatch, fresh_caches):
    before = failing(report_at_half(family, C))
    zeta0 = spherical.SphereFamily.zeta0
    monkeypatch.setattr(spherical.SphereFamily, "zeta0",
                        lambda self, xi: zeta0(self, xi) + 1e-6 * np.sin(xi))
    gluing.atlas.cache_clear()
    assert failing(report_at_half(family, C)) - before == DRIFT_POWER[family, C]


def junction_coefficients(mutant):
    """`GluingAtlas._junction_coefficients`, the h-derivatives of order 0
    to 3 over e^{i psi} that both sides of a junction share, with the
    psi''' term times 1.1, psi' times 1.1 wherever it is read, or the sign of
    psi'^2 R in order 2 flipped; "none" is the package's, bit for bit."""
    def coefficients(self):
        xi = np.array([self.roots.xi01, self.roots.xi02])
        _, d2F, dpsi, log_rates = self._rate_terms(xi, True)
        dpsi = dpsi * (1.1 if mutant == "psi1" else 1.0)
        d3psi = dpsi * d2F * log_rates * (1.1 if mutant == "psi3-term" else 1.0)
        sign = -1.0 if mutant == "psi1-squared-R-sign" else 1.0
        R = np.sqrt(1.0 - 1.0 / (self.C * xi * xi))
        d2R = 1.0 / (self.C * xi ** 3 * R) * d2F
        return np.stack([R, 1j * dpsi * R, d2R - sign * R * dpsi * dpsi,
                         1j * (3.0 * dpsi * d2R + R * (d3psi - dpsi ** 3))], 1)
    return coefficients


def flags(report):
    return {name: row["pass"] for name, row in report.items()}


# Blind spots: `junction_smoothness` and `junction_continuity` compare two
# sides built from one coefficient vector, and the negative control only
# moves (0.661 -> 0.727 at C = 1 with psi' times 1.1), so no flag of the
# s3-complete report moves at C = 1 or 20.  The one-sided stencils on the
# evaluator (`TestJunctionSmoothness::test_jets_match_stencils_on_the_evaluator`)
# fail on each, at 9 to 2e9 times their bounds
JUNCTION_COEFFICIENT_BLIND_SPOTS = ("psi3-term", "psi1", "psi1-squared-R-sign")


@pytest.mark.parametrize("mutant", JUNCTION_COEFFICIENT_BLIND_SPOTS)
def test_junction_coefficient_blind_spot(mutant, monkeypatch, fresh_caches):
    at = gluing.GluingAtlas(1.0, 1.0)
    assert np.array_equal(junction_coefficients("none")(at), at._junction_coefficients)
    before = {C: flags(report_at_half("s3-complete", C)) for C in (1.0, 20.0)}
    monkeypatch.setattr(gluing.GluingAtlas, "_junction_coefficients",
                        property(junction_coefficients(mutant)))
    gluing.atlas.cache_clear()
    assert {C: flags(report_at_half("s3-complete", C)) for C in (1.0, 20.0)} == before
    for C, cstar, junctions, scale, bounds in junction_stencil_cases():
        if C in (1.0, 20.0):
            gaps = junction_stencil_gaps(gluing.GluingAtlas(C, cstar), junctions, scale)
            assert any(gap > bounds[order - 1] for _, _, order, _, gap in gaps), (C, junctions)
