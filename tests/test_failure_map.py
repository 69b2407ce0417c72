"""The failure map: pass flags across the admissible range, as a fixture.

`failure_map.json` holds, for every configuration of the map, each report
row's pass flag, or the class of the error where the report raises, and
for every CLI run past the map its exit code.  The values of failing rows
are stored for reading only: they move in low digits with any numerics
change, so they are not compared.  Each C* is stored as the float that
ran, a fraction of `gluing.cstar_range(C).upper`.

The map: r3 and s3-local at the 13 C of MAP_C, s3-complete and
revolution there with C* at 0.1%, 50% and 99.9% of its range; past it,
`verify` and `mesh` of the three sphere families at C* = 50% for the C of
CLI_C.  A change that flips a flag, an error class or an exit code fails
here; it must regenerate the fixture and list the old and new flag in
CHANGES.md.  Regenerate it with

    PYTHONPATH=src python tests/test_failure_map.py

which also prints every report flag, error class and CLI exit code that
moved against the fixture it replaces, one line each (old -> new).
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from biconsurf import checks, cli, gluing, spherical

FIXTURE = Path(__file__).with_name("failure_map.json")

C_MIN = spherical.C_MIN
MAP_C = (1.00000001 * C_MIN, 1.0000001 * C_MIN, 1.000001 * C_MIN, 1.0001 * C_MIN,
         1.001 * C_MIN, 1.0, 3.0, 20.0, 100.0, 1e3, 1e4, 1e5, 1e6)
MAP_FRACTIONS = (1e-3, 0.5, 0.999)
CLI_C = (1e8, 1e12, 1e16, 1e18, 1e19, 1e20, 1e24, 1e30)
CLI_FAMILIES = ("s3-local", "s3-complete", "revolution")


def _cstar(family, C, fraction):
    return None if fraction is None else fraction * gluing.cstar_range(C).upper


def configurations():
    """(family, C, C* fraction or None) of every report of the map."""
    out = []
    for C in MAP_C:
        out += [("r3", C, None), ("s3-local", C, None)]
        out += [(f, C, x) for x in MAP_FRACTIONS for f in ("s3-complete", "revolution")]
    return out


def cli_runs():
    """(command, family, C, C* fraction or None) of every CLI run past the map."""
    return [(cmd, f, C, None if f == "s3-local" else 0.5)
            for C in CLI_C for f in CLI_FAMILIES for cmd in ("verify", "mesh")]


def report_entry(family, C, Cstar):
    """The pass flags of the report's rows and the failing rows' values, or
    the class of the error it raises."""
    try:
        report, _ = checks.build_report(family, C, Cstar)
    except Exception as exc:  # the class is what the map records
        return {"error": type(exc).__name__}
    rows = report["checks"]
    return {"pass": {name: row["pass"] for name, row in rows.items()},
            "failing_values": {name: row["value"] for name, row in rows.items()
                               if not row["pass"]}}


def cli_exit(command, family, C, Cstar, out):
    """The exit code of one CLI run, with its output and messages discarded."""
    argv = [command, "--family", family, "--C", repr(C)]
    if Cstar is not None:
        argv += ["--cstar", repr(Cstar)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv + ["--out", str(out)])


def generate(out_dir):
    """The fixture's content, with CLI outputs written under out_dir."""
    reports = []
    for family, C, fraction in configurations():
        Cstar = _cstar(family, C, fraction)
        reports.append({"family": family, "C": C, "cstar_fraction": fraction, "Cstar": Cstar,
                        **report_entry(family, C, Cstar)})
    runs = []
    for i, (command, family, C, fraction) in enumerate(cli_runs()):
        Cstar = _cstar(family, C, fraction)
        runs.append({"command": command, "family": family, "C": C,
                     "cstar_fraction": fraction, "Cstar": Cstar,
                     "exit": cli_exit(command, family, C, Cstar, Path(out_dir) / f"run{i}")})
    return {"about": __doc__.split("\n\n")[1].replace("\n", " "),
            "reports": reports, "cli": runs}


FROZEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {"reports": [], "cli": []}


def _report_id(entry):
    fraction = "" if entry["cstar_fraction"] is None else f"-f{entry['cstar_fraction']:g}"
    return f"{entry['family']}-C{entry['C']!r}{fraction}"


def test_fixture_is_complete():
    # every configuration of the map, none left out for failing, each C*
    # the float that the current admissible range gives
    assert [(e["family"], e["C"], e["cstar_fraction"]) for e in FROZEN["reports"]] == \
        configurations()
    assert [(e["command"], e["family"], e["C"], e["cstar_fraction"]) for e in FROZEN["cli"]] == \
        cli_runs()
    for entry in FROZEN["reports"] + FROZEN["cli"]:
        assert entry["Cstar"] == _cstar(entry["family"], entry["C"], entry["cstar_fraction"])
    for entry in FROZEN["reports"]:
        assert ("error" in entry) != ("pass" in entry)
        if "pass" in entry:
            assert set(entry["failing_values"]) == {k for k, ok in entry["pass"].items() if not ok}


@pytest.mark.parametrize("entry", FROZEN["reports"], ids=_report_id)
def test_report_flags(entry):
    got = report_entry(entry["family"], entry["C"], entry["Cstar"])
    assert got.get("error") == entry.get("error")
    assert got.get("pass") == entry.get("pass")


@pytest.mark.parametrize("entry", FROZEN["cli"],
                         ids=lambda e: f"{e['command']}-{e['family']}-C{e['C']:g}")
def test_cli_exit_codes(entry, tmp_path):
    code = cli_exit(entry["command"], entry["family"], entry["C"], entry["Cstar"],
                    tmp_path / "out")
    assert code == entry["exit"]


def moves(old, new):
    """One line per report flag, error class or CLI exit code of `new` that
    differs from `old` (old -> new), in the order of the map; a row missing
    on one side, as in a report that raises, reads None there."""
    lines = []
    for before, after in zip(old["reports"], new["reports"]):
        a, b = ({"error": e["error"]} if "error" in e else e["pass"] for e in (before, after))
        lines += [f"{_report_id(after)} {name}: {a.get(name)} -> {b.get(name)}"
                  for name in {**a, **b} if a.get(name) != b.get(name)]
    lines += [f"{e['command']}-{e['family']}-C{e['C']:g} exit: {d['exit']} -> {e['exit']}"
              for d, e in zip(old["cli"], new["cli"]) if d["exit"] != e["exit"]]
    return lines


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        content = generate(tmp)
    print("\n".join(moves(FROZEN, content)) or "no flag, error class or exit code moved")
    FIXTURE.write_text(json.dumps(content, indent=1) + "\n")
    print(f"wrote {FIXTURE}: {len(content['reports'])} reports, {len(content['cli'])} CLI runs",
          file=sys.stderr)
