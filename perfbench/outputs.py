"""Correctness checks on the files each op writes.

Each checker returns a `Verdict`: the problems found (empty when the
output is correct), the number of checks evaluated and passed, and for
verify reports the failing report checks.  Only properties that hold for
every correct output are checked, so nothing here pins a digest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

SPHERE_NORM_TOL = 1e-10
REPORT_KEYS = {"config", "checks", "overall_pass"}
CHECK_KEYS = {"value", "tolerance", "comparison", "informational", "pass"}


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    checks: int = 0
    passed: int = 0
    failing: list[tuple[str, float, float]] = field(default_factory=list)

    def expect(self, ok: bool, problem: str) -> None:
        self.checks += 1
        if ok:
            self.passed += 1
        else:
            self.problems.append(problem)


def check_report(op, text: str, rc: int, stderr: str) -> Verdict:
    """A verify report: schema, echoed configuration, self-consistent
    pass flags, exit code and the PASS/FAIL lines on stderr.

    Report checks count towards `checks`/`passed` (informational rows
    excluded); schema problems make the op fail.
    """
    v = Verdict()
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        v.problems.append(f"report is not JSON: {exc}")
        return v
    if not isinstance(report, dict) or set(report) != REPORT_KEYS:
        v.problems.append("report keys are not config/checks/overall_pass")
        return v
    cfg = report["config"]
    # the CLI parses repr(C), so the echo is exact
    if (cfg.get("family"), cfg.get("C"), cfg.get("Cstar"), cfg.get("seed")) != (
            op.target, op.C, op.Cstar, op.seed):
        v.problems.append(f"config echo {cfg.get('family')} C={cfg.get('C')} "
                          f"C*={cfg.get('Cstar')} seed={cfg.get('seed')} != op")
    checks = report["checks"]
    if not checks:
        v.problems.append("report holds no checks")
    all_pass = True
    lines = []
    for name, res in sorted(checks.items()):
        if not isinstance(res, dict) or set(res) != CHECK_KEYS:
            v.problems.append(f"check {name}: malformed entry")
            continue
        value, tol = res["value"], res["tolerance"]
        if res["informational"]:
            expected = True
        elif res["comparison"] == "le":
            expected = value <= tol
        else:
            expected = value >= tol
        if res["pass"] != expected:
            v.problems.append(f"check {name}: pass={res['pass']} but value={value} tol={tol}")
        all_pass = all_pass and bool(res["pass"])
        lines.append(f"{'PASS' if res['pass'] else 'FAIL'} {name}:")
        if not res["informational"]:
            v.checks += 1
            if res["pass"]:
                v.passed += 1
            else:
                v.failing.append((name, value, tol))
    if report["overall_pass"] != all_pass:
        v.problems.append("overall_pass disagrees with the checks")
    want_rc = 0 if report["overall_pass"] else 1
    if rc != want_rc:
        v.problems.append(f"exit code {rc}, report says {want_rc}")
    if op.expect_pass and rc != 0:
        v.problems.append("expected every check to pass")
    got = [ln.split(" value=")[0] for ln in stderr.splitlines()
           if ln.startswith(("PASS ", "FAIL "))]
    if got != lines:
        v.problems.append("stderr PASS/FAIL lines do not match the report")
    return v


def _floats_finite(fields: list[str]) -> bool:
    try:
        return all(math.isfinite(float(x)) for x in fields)
    except ValueError:
        return False


def check_mesh(op, path: Path, nu: int, nv: int, wrap: bool, spherical: bool) -> Verdict:
    """An OBJ mesh: vertex and face counts from the grid, finite
    coordinates, face indices in range; for the sphere families the raw
    4-vector CSV written next to it holds unit vectors."""
    v = Verdict()
    n_vert = n_face = 0
    bad_coord = bad_face = bad_line = 0
    n_expected = nu * nv
    with open(path) as fh:
        header = fh.readline()
        for line in fh:
            parts = line.split()
            if not parts:
                bad_line += 1
            elif parts[0] == "v":
                n_vert += 1
                bad_coord += len(parts) != 4 or not _floats_finite(parts[1:])
            elif parts[0] == "f":
                n_face += 1
                ok = len(parts) == 4 and all(p.isdigit() and 1 <= int(p) <= n_expected
                                             for p in parts[1:])
                bad_face += not ok
            else:
                bad_line += 1
    cols = nv if wrap else nv - 1
    v.expect(header.startswith(f"# biconsurf mesh: {nu} x {nv}"), "OBJ header missing")
    v.expect(n_vert == n_expected, f"{n_vert} vertices, grid needs {n_expected}")
    v.expect(n_face == 2 * (nu - 1) * cols, f"{n_face} faces, grid needs {2 * (nu - 1) * cols}")
    v.expect(bad_coord == 0, f"{bad_coord} vertices not three finite coordinates")
    v.expect(bad_face == 0 and bad_line == 0,
             f"{bad_face} bad faces, {bad_line} unrecognized lines")
    if spherical:
        raw = path.with_suffix(".raw.csv")
        rows = worst = 0
        bad = False
        with open(raw) as fh:
            fh.readline()
            for line in fh:
                parts = line.split(",")
                if len(parts) != 4 or not _floats_finite(parts):
                    bad = True
                    continue
                rows += 1
                worst = max(worst, abs(math.sqrt(sum(float(x) ** 2 for x in parts)) - 1.0))
        v.expect(rows == n_expected and not bad, f"raw CSV has {rows} valid rows of {n_expected}")
        v.expect(worst <= SPHERE_NORM_TOL, f"raw | |x| - 1 | = {worst:.3g} > {SPHERE_NORM_TOL}")
    return v


def check_curves(op, path: Path, samples: int) -> Verdict:
    """A figure CSV: header, row count (fig6 adds the base point) and
    finite values."""
    v = Verdict()
    lines = path.read_text().splitlines()
    want_rows = samples + 1 if op.target == "fig6" else samples
    header = lines[0].split(",") if lines else []
    rows = lines[1:]
    v.expect(len(header) >= 2, "CSV header missing")
    v.expect(len(rows) == want_rows, f"{len(rows)} rows, want {want_rows}")
    v.expect(all(len(r.split(",")) == len(header) and _floats_finite(r.split(","))
                 for r in rows), "CSV rows not all finite with the header's width")
    return v
