"""Reports against frozen values.

`frozen_reports.json` holds the reports of the four families at
C = C* = 1 and at the verify-sweep's edges: r3 and s3-local at
C = 1.001 C_MIN and C = 20, revolution at both of those C and
s3-complete at C = 20, each glued pair with C* at 1% and 99% of its
range.  They were computed with the oracle's one step rule (see the
fixture's "about").  A change to the quadrature or the oracle moves
values near the oracle's floor in their last digits, so the reports are
compared against a floor tied to each check's tolerance rather than
bytewise; a change that moves values on purpose refreezes the fixture.
"""

import json
import math
from pathlib import Path

import pytest

from biconsurf import checks

FROZEN = json.loads((Path(__file__).with_name("frozen_reports.json")).read_text())

# a value may move by this fraction of its check's tolerance
MOVE = 1e-3


def _key(report):
    return f"{report['family']}-C{report['C']:g}-Cstar{report['Cstar']}"


@pytest.mark.parametrize("frozen", FROZEN["reports"], ids=_key)
def test_report_matches_frozen(frozen):
    rep = checks.build_report(frozen["family"], frozen["C"], frozen["Cstar"],
                              tols=checks.Tolerances())
    assert set(rep["checks"]) == set(frozen["checks"])
    for name, old in frozen["checks"].items():
        new = rep["checks"][name]
        assert new["pass"] == old["pass"], name
        tol = old["tolerance"]
        assert new["tolerance"] == tol, name
        if math.isinf(tol):
            continue
        # a sign check (tolerance 0) has no tolerance to scale by; its
        # frozen value is the margin by which the sign holds
        bound = MOVE * (tol if tol > 0.0 else abs(old["value"]))
        assert abs(new["value"] - old["value"]) <= bound, (name, old["value"], new["value"])
