"""Reports against values frozen before the Chebyshev quadrature tables.

`frozen_reports.json` holds the reports of the four families at
C = C* = 1, and of s3-complete and revolution at C = 20 with C* at 1% and
99% of its range, as computed when `CumulativeQuadrature.value` still ran
one adaptive Gauss-Kronrod integral per call.  The tables change heights
and turning angles in their last digits, and values near the oracle's
floor follow, so the reports are compared against a floor tied to each
check's tolerance rather than bytewise.
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
