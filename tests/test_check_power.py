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

The last is a root solver that answers its root plus 1e-9 of its
bracket's width.
"""

import numpy as np
import pytest

from biconsurf import checks, euclidean, gluing, numerics, spherical
from conftest import curvature_f

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
