"""Command-line surface: parameter validation, CSV/OBJ emission,
verification reports, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biconsurf import checks, cli, diffgeo, gluing, numerics, numtext, spherical
from biconsurf.euclidean import FamilyParamsR3, immersion_XC
from biconsurf.numerics import OutOfDomain


def run(argv):
    return cli.main(argv)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestParams:
    def test_prints_roots(self, capsys):
        assert run(["params", "--C", "1"]) == 0
        out = capsys.readouterr().out
        assert "1.2844545283264" in out
        assert "4.8711581792847" in out
        assert "3.375" in out
        assert "2.0842397718205" in out

    def test_rejects_small_C(self, capsys):
        assert run(["params", "--C", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_rejects_large_cstar(self, capsys):
        assert run(["params", "--C", "1", "--cstar", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_with_cstar_prints_heights(self, capsys):
        assert run(["params", "--C", "1", "--cstar", "1"]) == 0
        out = capsys.readouterr().out
        assert "-1.359894422" in out
        assert "0.3816241" in out

    def test_missing_C(self, capsys):
        assert run(["params"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCurves:
    def test_fig1_axis_value(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run(["curves", "--figure", "fig1", "--C", "1",
                    "--samples", "41", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["u", "x", "z"]
        mid = data[20]  # u = 0 row
        assert mid[0] == pytest.approx(0.0, abs=1e-12)
        assert mid[1] == pytest.approx(math.sqrt(1.0) / 3.0, rel=1e-12)
        assert mid[2] == pytest.approx(0.0, abs=1e-12)

    def test_fig2_heights_bounded_by_limits(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run(["curves", "--figure", "fig2", "--C", "1", "--cstar", "1",
                    "--samples", "200", "--out", str(out)]) == 0
        header, data = read_csv(out)
        at = gluing.atlas(1.0, 1.0)
        assert header == ["xi", "h0"]
        assert np.all(data[:, 1] > at.h_limits[0])
        assert np.all(data[:, 1] < at.h_limits[1])
        # endpoints approach the finite limits
        assert data[0, 1] == pytest.approx(at.h_limits[0], abs=5e-2)
        assert data[-1, 1] == pytest.approx(at.h_limits[1], abs=5e-2)

    def test_fig5_reflections(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert run(["curves", "--figure", "fig5", "--C", "1", "--cstar", "1",
                    "--samples", "50", "--out", str(out)]) == 0
        header, data = read_csv(out)
        at = gluing.atlas(1.0, 1.0)
        m1, p1 = at.h_limits
        assert header == ["f", "h0", "h1", "hm1"]
        assert np.allclose(data[:, 2], 2 * p1 - data[:, 1])
        assert np.allclose(data[:, 3], 2 * m1 - data[:, 1])

    def test_fig6_base_point_row(self, tmp_path):
        out = tmp_path / "fig6.csv"
        assert run(["curves", "--figure", "fig6", "--C", "1", "--cstar", "1",
                    "--samples", "101", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["h", "x1", "x2"]
        i = int(np.argmin(np.abs(data[:, 0])))
        assert data[i, 0] == 0.0  # the h = 0 sample is always included
        xi00 = 3.375
        assert data[i, 1] == pytest.approx(math.sqrt(1 - 1 / xi00 ** 2), rel=1e-12)
        assert data[i, 2] == pytest.approx(0.0, abs=1e-12)
        at = gluing.atlas(1.0, 1.0)
        assert data[0, 0] == pytest.approx(at.grid[-11], rel=1e-12)
        assert data[-1, 0] == pytest.approx(at.grid[11], rel=1e-12)

    def test_fig_requires_cstar(self, capsys, tmp_path):
        assert run(["curves", "--figure", "fig2", "--C", "1",
                    "--out", str(tmp_path / "x.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("C", ["0", "-1"])
    def test_fig1_needs_positive_C(self, capsys, tmp_path, C):
        out = tmp_path / "fig1.csv"
        assert run(["curves", "--figure", "fig1", "--C=" + C, "--out", str(out)]) == 2
        assert _one_error_line(capsys)
        assert not out.exists()


class TestMesh:
    def test_r3_wrapped_mesh(self, tmp_path):
        out = tmp_path / "r3.obj"
        assert run(["mesh", "--family", "r3", "--C", "1", "--grid", "16", "12",
                    "--wrap-v", "--out", str(out)]) == 0
        text = out.read_text().splitlines()
        vs = [l for l in text if l.startswith("v ")]
        fs = [l for l in text if l.startswith("f ")]
        assert len(vs) == 16 * 12
        assert len(fs) == 2 * 15 * 12  # wrapped: every column pairs up
        # angular period: wrap seam is geometrically closed
        par = FamilyParamsR3.from_C(1.0)
        a = immersion_XC(par, 0.3, 0.1)
        b = immersion_XC(par, 0.3, 0.1 + 2 * math.pi / 3)
        assert np.max(np.abs(a - b)) < 1e-14

    def test_unwrapped_face_count(self, tmp_path):
        out = tmp_path / "r3.obj"
        assert run(["mesh", "--family", "r3", "--C", "1", "--grid", "8", "5",
                    "--out", str(out)]) == 0
        fs = [l for l in out.read_text().splitlines() if l.startswith("f ")]
        assert len(fs) == 2 * 7 * 4

    def test_s3_complete_mesh_counts_and_finiteness(self, tmp_path):
        out = tmp_path / "phi.obj"
        assert run(["mesh", "--family", "s3-complete", "--C", "1", "--cstar", "1",
                    "--grid", "24", "8", "--out", str(out)]) == 0
        raw = tmp_path / "phi.raw.csv"
        header, data = read_csv(raw)
        assert header == ["x1", "x2", "x3", "x4"]
        assert data.shape == (24 * 8, 4)
        assert np.allclose(np.linalg.norm(data, axis=1), 1.0, atol=1e-10)
        verts = np.array([[float(x) for x in l.split()[1:]]
                          for l in out.read_text().splitlines() if l.startswith("v ")])
        assert np.all(np.isfinite(verts))

    def test_s3_local_csv_format(self, tmp_path):
        out = tmp_path / "phic.csv"
        assert run(["mesh", "--family", "s3-local", "--C", "1", "--grid", "6", "6",
                    "--format", "csv", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["x", "y", "z"]
        assert data.shape == (36, 3)

    @pytest.mark.parametrize("family", ["s3-local", "s3-complete"])
    def test_sphere_families_wrap(self, tmp_path, family):
        # their default v-range is one full theta turn, as for r3 and
        # revolution, so --wrap-v closes the mesh: 12 faces on a 3 x 3 grid
        out = tmp_path / "m.obj"
        assert run(["mesh", "--family", family, "--C", "1", "--cstar", "1", "--grid", "3", "3",
                    "--wrap-v", "--out", str(out)]) == 0
        fs = [l for l in out.read_text().splitlines() if l.startswith("f ")]
        assert len(fs) == 2 * 2 * 3

    def test_wrap_needs_one_period(self, tmp_path, capsys):
        # a seam face from theta = 2/3 back to 0 would cut across a surface
        # of period 2 pi
        out = tmp_path / "m.obj"
        assert run(["mesh", "--family", "s3-local", "--C", "1", "--grid", "3", "3", "--wrap-v",
                    "--v-range", "0", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --wrap-v needs a --v-range that spans one period, "
            f"{cli._fmt(2.0 * math.pi)}, of the s3-local family\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("ends", [("1", repr(1.0 + 2.0 * math.pi / 3.0)),
                                      (repr(2.0 * math.pi / 3.0), "0")])
    def test_wrap_takes_a_shifted_or_reversed_period(self, tmp_path, ends):
        out = tmp_path / "m.obj"
        assert run(["mesh", "--family", "r3", "--C", "1", "--grid", "3", "3", "--wrap-v",
                    "--v-range", *ends, "--out", str(out)]) == 0
        fs = [l for l in out.read_text().splitlines() if l.startswith("f ")]
        assert len(fs) == 2 * 2 * 3

    def test_revolution_mesh(self, tmp_path):
        out = tmp_path / "psi.obj"
        assert run(["mesh", "--family", "revolution", "--C", "1", "--cstar", "1",
                    "--grid", "10", "9", "--wrap-v", "--out", str(out)]) == 0
        vs = [l for l in out.read_text().splitlines() if l.startswith("v ")]
        assert len(vs) == 90

    def test_bad_pole_rejected(self, tmp_path, capsys):
        assert run(["mesh", "--family", "s3-local", "--C", "1", "--grid", "4", "4",
                    "--pole", "1,0,0", "--out", str(tmp_path / "m.obj")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unparsable_pole_rejected(self, tmp_path, capsys):
        out = tmp_path / "m.obj"
        assert run(["mesh", "--family", "s3-local", "--C", "1", "--grid", "4", "4",
                    "--pole", "a,b", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists() and not out.with_suffix(".raw.csv").exists()

    @pytest.mark.parametrize("grid", [("0", "5"), ("4", "1")])
    def test_grid_below_two_rejected(self, tmp_path, capsys, grid):
        out = tmp_path / "r3.obj"
        assert run(["mesh", "--family", "r3", "--C", "1", "--grid", *grid,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("family", ["s3-complete", "revolution"])
    def test_rows_match_per_point_evaluation(self, tmp_path, family):
        # each mesh row inverts the profile once; the values stay those of
        # evaluating every grid point on its own
        out = tmp_path / "m.csv"
        assert run(["mesh", "--family", family, "--C", "1", "--cstar", "1",
                    "--grid", "7", "5", "--format", "csv", "--out", str(out)]) == 0
        at = gluing.atlas(1.0, 1.0)
        hs = np.linspace(at.grid[-2], at.grid[2], 7)
        if family == "s3-complete":
            _, data = read_csv(out.with_suffix(".raw.csv"))
            ts = np.linspace(0.0, 2.0 * math.pi, 5)
            expected = [at.immersion_phi(float(h), float(t)) for h in hs for t in ts]
        else:
            _, data = read_csv(out)
            ts = np.linspace(0.0, 2.0 * math.pi * at.Cstar, 5)
            expected = [at.immersion_psi(float(h), float(t)) for h in hs for t in ts]
        assert np.array_equal(data, np.array(expected))


    @pytest.mark.parametrize("argv", [
        ["--family", "s3-local", "--C", "1", "--u-range", "0", "1"],
        ["--family", "s3-local", "--C", "1", "--u-range", "0.6", "3.0"],
        ["--family", "r3", "--C", "1", "--u-range", "0", "1000"],
        ["--family", "r3", "--C", "1e300", "--u-range", "0", "200"],
        ["--family", "s3-complete", "--C", "1", "--cstar", "1",
         "--u-range", "0", "1e300"],
    ])
    def test_out_of_domain_range_rejected(self, tmp_path, capsys, argv):
        # outside the strip, past float overflow, non-finite positions, and
        # heights beyond the atlas: one error line, and no file opened
        out = tmp_path / "m.obj"
        assert run(["mesh", *argv, "--grid", "4", "4", "--out", str(out)]) == 2
        assert _one_error_line(capsys)
        assert list(tmp_path.iterdir()) == []

    def test_u_range_on_a_strip_end_rejected(self, tmp_path, capsys):
        # DomainRoots.contains decides, for both ends of the range at once
        r = spherical.family(1.0).roots
        for u_range in ([r.xi01, r.xi00], [r.xi00, r.xi02]):
            assert run(["mesh", "--family", "s3-local", "--C", "1", "--grid", "4", "4",
                        "--u-range", *map(repr, u_range), "--out", str(tmp_path / "m.obj")]) == 2
            assert capsys.readouterr().err == (
                f"error: u-range must lie inside the open strip ({cli._fmt(r.xi01)}, "
                f"{cli._fmt(r.xi02)}) for the s3-local family\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["--family", "s3-local", "--C", "1", "--u-range", "2", "2"], "--u-range"),
        (["--family", "r3", "--C", "1", "--v-range", "1", "1"], "--v-range"),
        (["--family", "revolution", "--C", "1", "--cstar", "1",
          "--u-range", "-0", "0"], "--u-range"),
    ])
    def test_empty_range_rejected(self, tmp_path, capsys, argv, flag):
        # a range with equal ends meshes zero-area triangles
        out = tmp_path / "m.obj"
        assert run(["mesh", *argv, "--grid", "4", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} is empty")
        assert list(tmp_path.iterdir()) == []

    def test_empty_range_from_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"v_range": [0.5, 0.5]}))
        out = tmp_path / "m.obj"
        assert run(["mesh", "--family", "r3", "--C", "1", "--config", str(cfg),
                    "--out", str(out)]) == 2
        assert _one_error_line(capsys)
        assert not out.exists()

    def test_reversed_range_allowed(self, tmp_path):
        meshes = [tmp_path / "up.csv", tmp_path / "down.csv"]
        for out, ends in zip(meshes, (["0", "1"], ["1", "0"])):
            assert run(["mesh", "--family", "r3", "--C", "1", "--grid", "2", "3",
                        "--format", "csv", "--v-range", *ends, "--out", str(out)]) == 0
        up, down = read_csv(meshes[0])[1], read_csv(meshes[1])[1]
        assert np.array_equal(up.reshape(2, 3, 3)[:, ::-1], down.reshape(2, 3, 3))


class TestParserReuse:
    """One parser serves every `main` call of a process; each call still
    parses its argv into a fresh Namespace."""

    def test_parser_built_once_per_process(self, tmp_path, monkeypatch, capsys):
        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        monkeypatch.setattr(cli._Parser, "__init__", counted)
        cli.build_parser.cache_clear()
        for _ in range(3):
            assert run(["params", "--C", "1"]) == 0
            assert run(["verify", "--family", "nope", "--C", "1"]) == 2
            assert run(["curves", "--figure", "fig1", "--C", "1", "--samples", "3",
                        "--out", str(tmp_path / "f.csv")]) == 0
        # the root parser and one per subcommand
        assert len(built) == 5
        capsys.readouterr()

    def test_usage_error_leaves_next_parse_intact(self, capsys):
        assert run(["verify", "--family", "nope", "--C", "1", "--seed", "7"]) == 2
        assert _one_error_line(capsys)
        args = cli.build_parser().parse_args(["verify", "--family", "r3", "--C", "2"])
        assert (args.command, args.family, args.C, args.seed) == ("verify", "r3", 2.0, None)
        args = cli.build_parser().parse_args(["params", "--C", "3"])
        assert vars(args) == {"command": "params", "C": 3.0, "Cstar": None, "c0": None,
                              "config": None}
        assert run(["params", "--C", "1"]) == 0

    def test_parses_share_no_state(self, tmp_path):
        ap = cli.build_parser()
        first = ap.parse_args(["mesh", "--family", "r3", "--C", "1", "--grid", "3", "3",
                               "--out", "m.obj"])
        cli._resolve_args(first)
        second = ap.parse_args(["mesh", "--family", "r3", "--C", "1", "--out", "m.obj"])
        assert second is not first and second.grid is None and second.format is None
        assert first.grid == [3, 3] and first.format == "obj"

    def test_help_leaves_the_parser_usable(self, capsys):
        for argv in (["--help"], ["mesh", "--help"]):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 0
        capsys.readouterr()
        assert run(["params", "--C", "1"]) == 0
        assert "1.2844545283264" in capsys.readouterr().out


class TestTableBuilds:
    """A cold command builds only the quadrature tables it reads: the zeta
    table on first use, so the revolution surface, which is built from the
    height profile alone, builds the height table only."""

    GLUED = ["--C", "1", "--cstar", "1"]

    @pytest.mark.parametrize("argv, builds", [
        (["verify", "--family", "revolution", *GLUED], 1),
        (["verify", "--family", "s3-complete", *GLUED], 2),
        (["verify", "--family", "s3-local", "--C", "1"], 1),
        (["verify", "--family", "r3", "--C", "1"], 0),
        (["mesh", "--family", "revolution", *GLUED, "--grid", "8", "8"], 1),
        (["curves", "--figure", "fig2", *GLUED, "--samples", "41"], 1),
        (["params", "--C", "1"], 1),  # it prints the zeta limits
    ], ids=["verify-revolution", "verify-s3-complete", "verify-s3-local", "verify-r3",
            "mesh-revolution", "curves-fig2", "params"])
    def test_tables_per_cold_command(self, tmp_path, monkeypatch, capsys, argv, builds):
        built = []
        init = numerics.CumulativeQuadrature.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)
        monkeypatch.setattr(numerics.CumulativeQuadrature, "__init__", counted)
        spherical.family.cache_clear()
        gluing.atlas.cache_clear()
        out = [] if argv[0] == "params" else ["--out", str(tmp_path / "out")]
        assert run(argv + out) == 0
        assert len(built) == builds
        capsys.readouterr()


class TestVerify:
    def test_r3_passes(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["verify", "--family", "r3", "--C", "1", "--grid-n", "6",
                    "--out", str(out)])
        rep = json.loads(out.read_text())
        assert code == 0
        assert rep["overall_pass"] is True
        assert rep["config"]["family"] == "r3"
        for name, res in rep["checks"].items():
            assert res["pass"], name

    def test_lines_name_samples_and_worst_point(self, tmp_path, capsys):
        assert run(["verify", "--family", "r3", "--C", "1", "--grid-n", "6",
                    "--out", str(tmp_path / "rep.json")]) == 0
        lines = {ln.split(":")[0]: ln for ln in capsys.readouterr().err.splitlines()}
        assert " n=16 at=(" in lines["PASS homothety"]
        assert lines["PASS mirror_gluing"].endswith(" n=1 at=()")

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert run(["verify", "--family", "s3-local", "--C", "1",
                        "--grid-n", "5", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("c0", ["1e4", "1e8"])
    def test_large_c0_keeps_the_phases(self, tmp_path, capsys, c0):
        # the atlas reduces c0 mod 2 pi once: added raw to the sums of
        # turning angles, its last digit would swamp theirs
        out = tmp_path / "rep.json"
        code = run(["verify", "--family", "s3-complete", "--C", "1", "--cstar", "1",
                    "--c0", c0, "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        rep = json.loads(out.read_text())
        assert rep["config"]["c0"] == float(c0)
        assert rep["checks"]["phase_recursion_vs_closed_form"]["pass"]
        assert rep["checks"]["junction_continuity"]["pass"]

    def test_inadmissible_parameters_exit_2(self, tmp_path, capsys):
        assert run(["verify", "--family", "s3-complete", "--C", "1",
                    "--cstar", "9", "--out", str(tmp_path / "x.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_cstar_exit_2(self, tmp_path, capsys):
        assert run(["verify", "--family", "revolution", "--C", "1",
                    "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "cstar" in err

    def test_unknown_family_usage_error(self, capsys):
        assert run(["verify", "--family", "nope", "--C", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument --family: invalid choice: 'nope'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, names", [
        (["verify", "--C", "1"], "required: --family"),
        (["params", "--C"], "argument --C: expected one argument"),
        (["params", "--C", "1", "--bogus"], "unrecognized arguments: --bogus"),
        (["bogus"], "invalid choice: 'bogus'"),
    ])
    def test_usage_error_is_one_line(self, argv, names, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert names in captured.err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--help"])
        assert exc.value.code == 0
        assert "--family" in capsys.readouterr().out

    def test_negative_numbers_in_exponent_notation(self, tmp_path, capsys):
        # argparse's own pattern for a negative number has no exponent: it
        # took -1e-3 for an unknown option and stopped on a usage error
        out = tmp_path / "rep.json"
        assert run(["verify", "--family", "s3-complete", "--C", "1", "--cstar", "1",
                    "--c0", "-1e-3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["c0"] == -1e-3
        capsys.readouterr()
        for argv, text in ((["--C", "-1E+2"], "C=-100 inadmissible"),
                           (["--C", "1", "--cstar", "-.5e1"], "C*=-5 inadmissible")):
            assert run(["params", *argv]) == 2
            assert capsys.readouterr().err.startswith(f"error: {text}")
        meshes = []
        for ranges in (["-1e-1", "1e-1", "-2e-1", "0"], ["-0.1", "0.1", "-0.2", "0"]):
            meshes.append(tmp_path / f"m{len(meshes)}.csv")
            assert run(["mesh", "--family", "r3", "--C", "1", "--grid", "2", "2",
                        "--format", "csv", "--u-range", *ranges[:2], "--v-range", *ranges[2:],
                        "--out", str(meshes[-1])]) == 0
        assert meshes[0].read_bytes() == meshes[1].read_bytes()


class TestMeshDeterminism:
    def test_obj_bit_identical(self, tmp_path):
        blobs = []
        for name in ("a.obj", "b.obj"):
            out = tmp_path / name
            assert run(["mesh", "--family", "s3-local", "--C", "1",
                        "--grid", "8", "8", "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_pole_hit_rejected(self, tmp_path, capsys):
        # aim the projection pole at an actual surface sample
        fam = spherical.family(1.0)
        r = fam.roots
        margin = 1e-3 * (r.xi02 - r.xi01)
        p = fam.immersion(r.xi01 + margin, 0.0)
        pole = ",".join(repr(float(x)) for x in p)
        code = run(["mesh", "--family", "s3-local", "--C", "1", "--grid", "4", "4",
                    "--pole=" + pole, "--out", str(tmp_path / "m.obj")])
        assert code == 2
        assert "pole" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # not even the raw CSV


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"C": 1.0, "cstar": 1.0}))
        assert run(["params", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "-1.359894422" in out  # the C* block got printed

    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"C": 0.5}))
        assert run(["params", "--C", "1", "--config", str(cfg)]) == 0

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["params", "--C", "1", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err


class TestConfigKeys:
    def _report(self, tmp_path, cfg, *flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "rep.json"
        assert run(["verify", "--family", "r3", "--C", "1", "--config", str(path),
                    *flags, "--out", str(out)]) == 0
        return json.loads(out.read_text())["config"]

    def test_config_keys_with_defaults_apply(self, tmp_path):
        rep = self._report(tmp_path, {"c0": 0.5, "grid_n": 3, "seed": 7})
        assert (rep["c0"], rep["grid"], rep["seed"]) == (0.5, 3, 7)

    def test_flags_still_win(self, tmp_path):
        rep = self._report(tmp_path, {"c0": 0.5, "grid_n": 3}, "--c0", "0.25")
        assert (rep["c0"], rep["grid"]) == (0.25, 3)

    def test_mesh_keys_apply(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": [4, 3], "format": "csv", "wrap_v": True}))
        out = tmp_path / "m.csv"
        assert run(["mesh", "--family", "r3", "--C", "1", "--config", str(cfg),
                    "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["x", "y", "z"] and data.shape == (12, 3)

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid-n": 3, "cstr": 0.5}))
        out = tmp_path / "rep.json"
        assert run(["verify", "--family", "r3", "--C", "1", "--config", str(cfg),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'grid-n'" in err and "'cstr'" in err
        assert not out.exists()

    def test_keys_of_other_subcommands_allowed(self, tmp_path):
        # one config file may serve several subcommands
        rep = self._report(tmp_path, {"grid_n": 3, "grid": [4, 4], "samples": 5,
                                      "format": "csv", "cstar": 1.0})
        assert rep["grid"] == 3

    def test_curves_samples_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 5}))
        out = tmp_path / "fig1.csv"
        assert run(["curves", "--figure", "fig1", "--C", "1", "--config", str(cfg),
                    "--out", str(out)]) == 0
        assert read_csv(out)[1].shape == (5, 3)


def _one_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("error:") and err.count("\n") == 1


class TestBadValues:
    @pytest.mark.parametrize("flags", [
        ["--C", "nan"], ["--C", "inf"], ["--C=-inf"],
        ["--C", "1", "--cstar", "nan"], ["--C", "1", "--cstar", "inf"],
        ["--C", "1", "--c0", "nan"], ["--C", "1", "--c0=-inf"],
    ])
    def test_non_finite_flag(self, capsys, flags):
        assert run(["params", *flags]) == 2
        assert _one_error_line(capsys)

    @pytest.mark.parametrize("text", [
        '{"C": "one"}', '{"C": NaN}', '{"C": Infinity}', '{"C": true}', '{"C": [1]}',
        '{"C": 1, "cstar": "one"}', '{"C": 1, "cstar": NaN}',
        '{"C": 1, "c0": "zero"}', '{"C": 1, "c0": -Infinity}',
    ])
    def test_bad_config_value(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run(["params", "--config", str(cfg)]) == 2
        assert _one_error_line(capsys)

    def test_bad_config_value_for_a_defaulted_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_n": "ten"}))
        out = tmp_path / "rep.json"
        assert run(["verify", "--family", "r3", "--C", "1", "--config", str(cfg),
                    "--out", str(out)]) == 2
        assert _one_error_line(capsys)
        assert not out.exists()


class TestR3ExtremeC:
    """r3 far from C = 1: verify passes while the closed forms stay in the
    float range; where they or the checks leave it, exit 2 with one error
    line, never a traceback."""

    # every r3 check is measured in the units of the homothety law
    @pytest.mark.parametrize("C", ["1e-100", "1e100"])
    def test_verify_passes(self, tmp_path, capsys, C):
        out = tmp_path / "rep.json"
        assert run(["verify", "--family", "r3", "--C", C, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["overall_pass"]
        assert "error:" not in capsys.readouterr().err

    # C1 = (9/C)^(1/3) overflows; a degenerate first form; an overflowing
    # residual at both large C
    @pytest.mark.parametrize("C", ["1e-320", "1e-300", "1e200", "1e308"])
    def test_verify(self, tmp_path, capsys, C):
        out = tmp_path / "rep.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["verify", "--family", "r3", "--C", C, "--out", str(out)]) == 2
        assert _one_error_line(capsys)
        assert not caught  # a warning would print more lines on stderr
        assert not out.exists()

    # the outcomes at the edges of the float range: an overflowing residual
    # fails its check, an underflowing or overflowing first form cannot be
    # evaluated; the library stays as quiet as the CLI
    @pytest.mark.parametrize("C, code, name", [
        ("1e-150", 1, "biconservativity_residual"), ("1e-300", 2, "DegenerateMetric"),
        ("1e200", 2, "OverflowError")])
    def test_verify_outcome(self, tmp_path, capsys, C, code, name):
        out = tmp_path / "rep.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["verify", "--family", "r3", "--C", C, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert not caught and "Traceback" not in err
        if code == 1:
            assert f"FAIL {name}:" in err and "error:" not in err
            assert not checks.build_report("r3", float(C))[0]["checks"][name]["pass"]
        else:
            assert err.startswith("error:") and err.count("\n") == 1 and f" {name}: " in err
            with pytest.raises(getattr(diffgeo, name, OverflowError)):
                checks.build_report("r3", float(C))

    def test_mesh(self, tmp_path, capsys):
        out = tmp_path / "r3.obj"
        assert run(["mesh", "--family", "r3", "--C", "1e-320", "--out", str(out)]) == 2
        assert _one_error_line(capsys)
        assert not out.exists()

    def test_curves(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        assert run(["curves", "--figure", "fig1", "--C", "1e-320", "--out", str(out)]) == 2
        assert _one_error_line(capsys)
        assert not out.exists()

    def test_failing_check_still_exits_1(self, tmp_path, capsys, monkeypatch):
        # at C = 1e-4 the checks run; a default curvature bound below the
        # oracle's floor makes gauss_curvature_identity fail: with the
        # closed-form second partials it reads 1.2e-16
        defaults = checks.Tolerances
        monkeypatch.setattr(checks, "Tolerances", lambda: defaults(curvature=1e-17))
        out = tmp_path / "rep.json"
        assert run(["verify", "--family", "r3", "--C", "1e-4", "--out", str(out)]) == 1
        assert not json.loads(out.read_text())["checks"]["gauss_curvature_identity"]["pass"]
        assert "error:" not in capsys.readouterr().err


HUGE_C = [("1e60", "1e-31"), ("1e80", "1e-41"), ("1e100", "1e-51"), ("1e300", "1e-160")]
HUGE_C_COMMANDS = [
    ["params"],
    ["curves", "--figure", "fig3"], ["curves", "--figure", "fig4"],
    ["curves", "--figure", "fig6"],
    ["mesh", "--family", "s3-local"], ["mesh", "--family", "s3-complete"],
    ["verify", "--family", "s3-local"], ["verify", "--family", "revolution"],
]
# what needs no more than the strip's roots and quadratures still runs at C = 1e60
STRIP_ONLY = (["params"], ["curves", "--figure", "fig3"], ["curves", "--figure", "fig4"],
              ["mesh", "--family", "s3-local"])


def _huge_c_argv(tmp_path, command, C, cstar):
    argv = [*command, "--C", C]
    if command[0] != "params" and command[-1] != "s3-local":
        argv += ["--cstar", cstar]
    if command[0] != "params":
        argv += ["--out", str(tmp_path / "out.txt")]
    return argv


class TestHugeC:
    """Admissible C where double precision cannot evaluate the sphere
    families: 1 - 1/(C xi01^2) rounds to 0 at the junctions and the
    strip metric degenerates (1e60), T overflows (1e80, 1e100), or
    (9C/4)^(3/2) does (1e300).  Every command exits 2 with one error line."""

    @pytest.mark.parametrize("C, cstar, command", [
        pytest.param(C, cstar, command, id="-".join([*command[::2], C, cstar]))
        for C, cstar in HUGE_C for command in HUGE_C_COMMANDS
        if not (C == "1e60" and command in STRIP_ONLY)])
    def test_one_error_line(self, tmp_path, capsys, C, cstar, command):
        assert run(_huge_c_argv(tmp_path, command, C, cstar)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "out.txt").exists()

    def test_s3_local_step_underflow(self, tmp_path, capsys):
        # at C = 1e6 an integrated half period of the profile curvature stops
        # with StepUnderflow; the report checks the equation in closed form,
        # which takes no step: it is written, its curvature rows pass, and
        # other rows fail
        out = tmp_path / "rep.json"
        assert run(["verify", "--family", "s3-local", "--C", "1e6", "--out", str(out)]) == 1
        assert "error:" not in capsys.readouterr().err
        rows = json.loads(out.read_text())["checks"]
        assert all(rows[name]["pass"] for name in
                   ("prime_integral", "curvature_equation", "prime_integral_at_roots"))

    @pytest.mark.parametrize("C, code, error", [
        ("1e20", 2, " OutOfDomain: C xi^2 <= 1"), ("1e24", 1, None),
        ("1e57", 2, " OutOfDomain: height nan cannot be reduced onto the base strip")],
        ids=("1e20", "1e24", "1e57"))
    def test_glued_junction_rates(self, tmp_path, capsys, C, code, error):
        # the junction jets at C* = 50% read the strip rates at the roots: at
        # 1e20 1 - 1/(C xi01^2) rounds to 0 there, and the rates refuse the
        # root; at 1e24 it does not, and the report is written, as revolution's
        # is (ROADMAP item 7 owns that precision limit); at 1e57 the height
        # table's unresolved lower end (ROADMAP item 2) leaves a strip height
        # of 3.5e-100, the oracle's stencil heights come out NaN from jets
        # past the float range, and the strip reduction refuses them
        out = tmp_path / "rep.json"
        cstar = repr(0.5 * gluing.cstar_range(float(C)).upper)
        assert run(["verify", "--family", "s3-complete", "--C", C, "--cstar", cstar,
                    "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if error:
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert error in err and not out.exists()
        else:
            assert "error:" not in err
            assert "junction_smoothness" in json.loads(out.read_text())["checks"]

    @pytest.mark.parametrize("C", ["1e19", "1e30"])
    def test_strip_roots(self, capsys, C):
        # the lower root is bracketed in units of C^(-1/2), where it sits
        assert run(["params", "--C", C]) == 0
        assert "error:" not in capsys.readouterr().err
        xi01 = spherical.domain_roots(float(C)).xi01
        assert xi01 == pytest.approx(float(C) ** -0.5, rel=1e-6)

    @pytest.mark.parametrize("command", STRIP_ONLY, ids=lambda c: "-".join(c[::2]))
    def test_strip_commands_run(self, tmp_path, capsys, command):
        assert run(_huge_c_argv(tmp_path, command, "1e60", "1e-31")) == 0
        assert "error:" not in capsys.readouterr().err


# the exit contract over each family's whole admissible range: log10 C
# from 1.00000001 C_MIN to 1e300 for the sphere families, and for r3 from
# the smallest C whose C1 = (9/C)^(1/3) is finite to 1e308; C* a fraction
# of its admissible range
SPHERE_LOG_C = (math.log10(1.00000001 * spherical.C_MIN), 300.0)
R3_LOG_C = (-307.0, 308.0)


@given(family=st.sampled_from(checks.FAMILIES), position=st.floats(0.0, 1.0),
       cstar_fraction=st.floats(1e-3, 0.999), figure=st.sampled_from(cli.FIGURES))
@settings(max_examples=200, deadline=None)
def test_exit_contract_over_the_admissible_range(family, position, cstar_fraction, figure):
    # verify, mesh and curves each exit 0, 1 or 2 with no traceback and no
    # warning; 0 prints no FAIL line, 1 at least one, and 2 exactly one
    # `error:` line and nothing else
    lo, hi = R3_LOG_C if family == "r3" else SPHERE_LOG_C
    C = 10.0 ** (lo + position * (hi - lo))
    cstar = cstar_fraction * (gluing.cstar_range(C).upper if C > spherical.C_MIN else 1.0)
    with tempfile.TemporaryDirectory() as tmp:
        for command in (["verify", "--family", family, "--grid-n", "2"],
                        ["mesh", "--family", family, "--grid", "3", "3"],
                        ["curves", "--figure", figure, "--samples", "5"]):
            argv = [*command, "--C", repr(C), "--cstar", repr(cstar), "--out", f"{tmp}/out"]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(argv)
            err = err.getvalue()
            assert not caught, (argv, [str(w.message) for w in caught])
            assert "Traceback" not in err, argv
            if code == 2:
                assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
            else:
                assert code in (0, 1) and "error:" not in err, (argv, code, err)
                assert ("\nFAIL " in "\n" + err) == (code == 1), (argv, code, err)


class TestNearCMin:
    """s3-local verify where the strip is at most 1.8e-3 wide: its samples
    keep inside the strip, so the report is complete and any failure is a
    named check."""

    @pytest.mark.parametrize("factor", [1.0000001, 1.00000001])
    def test_s3_local_verify_reports(self, tmp_path, capsys, factor):
        code = run(["verify", "--family", "s3-local", "--C", repr(factor * spherical.C_MIN),
                    "--out", str(tmp_path / "rep.json")])
        err = capsys.readouterr().err
        assert code in (0, 1), err
        assert "Traceback" not in err and "error:" not in err, err
        assert len(json.loads((tmp_path / "rep.json").read_text())["checks"]) == 18


class TestEmptyRunsAndOutputs:
    def test_verify_grid_n_zero(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert run(["verify", "--family", "r3", "--C", "1", "--grid-n", "0",
                    "--out", str(out)]) == 2
        assert _one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_curves_without_samples(self, tmp_path, capsys, samples):
        out = tmp_path / "fig1.csv"
        assert run(["curves", "--figure", "fig1", "--C", "1", "--samples", samples,
                    "--out", str(out)]) == 2
        assert _one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "r3", "--C", "1"],
        ["curves", "--figure", "fig1", "--C", "1"],
        ["mesh", "--family", "s3-local", "--C", "1", "--grid", "4", "4"],
    ])
    def test_out_in_missing_directory(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "x.out"
        assert run([*argv, "--out", str(out)]) == 2
        assert _one_error_line(capsys)
        assert not out.parent.exists()

    def test_out_is_a_directory(self, tmp_path, capsys):
        assert run(["curves", "--figure", "fig1", "--C", "1", "--out", str(tmp_path)]) == 2
        assert _one_error_line(capsys)


# ----------------------------------------------------------------------
# Byte parity.  The reference below writes one value at a time and
# evaluates one grid point at a time, as the CLI did before it streamed
# blocks of rows and evaluated the grids a row at a time; every output
# must keep the reference's bytes.
# ----------------------------------------------------------------------

def _ref_fmt(x):
    return format(float(x), ".17g")


def _ref_write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_ref_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _ref_obj_lines(vertices, nu, nv, wrap_v):
    lines = [f"# biconsurf mesh: {nu} x {nv} row-major grid"]
    for p in vertices:
        lines.append("v " + " ".join(_ref_fmt(x) for x in p))
    cols = nv if wrap_v else nv - 1
    for i in range(nu - 1):
        for j in range(cols):
            jn = (j + 1) % nv
            a = i * nv + j + 1
            b = i * nv + jn + 1
            c = (i + 1) * nv + jn + 1
            d = (i + 1) * nv + j + 1
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    return lines


def _ref_xc(par, u, v):
    s = math.sqrt(par.C)
    ch = math.cosh(u)
    return np.array([
        s / 3.0 * ch ** 3 * math.cos(3.0 * v),
        s / 3.0 * ch ** 3 * math.sin(3.0 * v),
        s / 2.0 * (0.5 * math.sinh(2.0 * u) + u),
    ])


def _ref_phic(fam, xi, theta, z=None):
    """The strip point at (xi, theta); z, when given, is zeta0(xi)."""
    if not fam.roots.contains(xi):
        raise OutOfDomain(f"xi = {xi} outside the open strip")
    R = math.sqrt(1.0 - 1.0 / (fam.C * xi * xi))
    z = fam.zeta0(xi) if z is None else z
    sc = math.sqrt(fam.C)
    return np.array([
        R * math.cos(z),
        R * math.sin(z),
        math.cos(sc * theta) / (sc * xi),
        math.sin(sc * theta) / (sc * xi),
    ])


def _ref_phi(at, h, theta):
    k, xi = (x.item() for x in at._strip_points(np.array(h)))
    R = math.sqrt(1.0 - 1.0 / (at.C * xi * xi))
    ang = at.family.zeta0(xi) + at.phase(k)
    s = -1.0 if k % 2 else 1.0
    sc = math.sqrt(at.C)
    return np.array([
        R * math.cos(ang),
        s * R * math.sin(ang),
        math.cos(sc * theta) / (sc * xi),
        math.sin(sc * theta) / (sc * xi),
    ])


def _ref_psi(at, h, theta):
    r = at.Cstar / at.F(h)
    return np.array([r * math.cos(theta / at.Cstar), r * math.sin(theta / at.Cstar), h])


def _ref_grid(family, nu, nv, wrap_v):
    """Default-range grid at C = C* = 1, one point at a time: (points,
    is_spherical)."""
    if family == "r3":
        par = FamilyParamsR3.from_C(1.0)
        us = np.linspace(-1.5, 1.5, nu)
        vs = np.linspace(0.0, 2.0 * math.pi / 3.0, nv, endpoint=not wrap_v)
        return np.array([_ref_xc(par, float(u), float(v)) for u in us for v in vs]), False
    if family == "s3-local":
        fam = spherical.family(1.0)
        r = fam.roots
        margin = 1e-3 * (r.xi02 - r.xi01)
        xs = np.linspace(r.xi01 + margin, r.xi02 - margin, nu).tolist()
        zs = [fam.zeta0(x) for x in xs]  # once per grid row
        pts = np.array([_ref_phic(fam, x, float(t), z) for x, z in zip(xs, zs)
                        for t in np.linspace(0.0, 2.0 * math.pi, nv, endpoint=not wrap_v)])
        return pts, True
    at = gluing.atlas(1.0, 1.0)
    hs = np.linspace(at.grid[-2], at.grid[2], nu)
    if family == "revolution":
        ts = np.linspace(0.0, 2.0 * math.pi, nv, endpoint=not wrap_v)
        return np.array([at.immersion_psi(float(h), float(t)) for h in hs for t in ts]), False
    ts = np.linspace(0.0, 2.0 * math.pi, nv, endpoint=not wrap_v)
    return np.array([at.immersion_phi(float(h), float(t)) for h in hs for t in ts]), True


def _ref_mesh(family, nu, nv, wrap_v, fmt, out):
    pts, is_spherical = _ref_grid(family, nu, nv, wrap_v)
    verts = pts
    if is_spherical:
        _ref_write_csv(out.with_suffix(".raw.csv"), ["x1", "x2", "x3", "x4"], pts)
        verts = cli._stereographic(pts, np.array([0.0, 0.0, 0.0, -1.0]))
    if fmt == "csv":
        _ref_write_csv(out, ["x", "y", "z"], verts)
    else:
        out.write_text("\n".join(_ref_obj_lines(verts, nu, nv, wrap_v)) + "\n")


def _ref_curve(fig, n, out):
    if fig == "fig1":
        par = FamilyParamsR3.from_C(1.0)
        rows = []
        for u in np.linspace(-2.2, 2.2, n):
            p = _ref_xc(par, float(u), 0.0)
            rows.append((u, p[0], p[2]))
        _ref_write_csv(out, ["u", "x", "z"], rows)
        return
    at = gluing.atlas(1.0, 1.0)
    m1, p1 = at.h_limits
    if fig == "fig6":
        hs = np.sort(np.append(np.linspace(at.grid[-11], at.grid[11], n), 0.0))
        rows = [(h, *at.immersion_phi(float(h), 0.0)[:2]) for h in hs]
        _ref_write_csv(out, ["h", "x1", "x2"], rows)
        return
    xis = cli._clustered_strip_samples(at.roots, n)
    h0 = np.array([at.h0(float(x)) for x in xis])
    first = xis if fig in ("fig2", "fig3") else at.Cstar / xis
    name = "xi" if fig in ("fig2", "fig3") else "f"
    if fig in ("fig2", "fig4"):
        _ref_write_csv(out, [name, "h0"], zip(first, h0))
    else:
        _ref_write_csv(out, [name, "h0", "h1", "hm1"],
                       zip(first, h0, 2.0 * p1 - h0, 2.0 * m1 - h0))


def _assert_same_files(got, want):
    names = sorted(p.name for p in got.iterdir())
    assert names == sorted(p.name for p in want.iterdir())
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


class TestByteParity:
    @pytest.mark.parametrize("fmt", ["obj", "csv"])
    @pytest.mark.parametrize("wrap_v", [False, True])
    @pytest.mark.parametrize("family", ["r3", "s3-local", "s3-complete", "revolution"])
    def test_mesh(self, tmp_path, family, wrap_v, fmt):
        got, want = tmp_path / "got", tmp_path / "want"
        got.mkdir()
        want.mkdir()
        argv = ["mesh", "--family", family, "--C", "1", "--cstar", "1", "--grid", "5", "4",
                "--format", fmt, "--out", str(got / f"m.{fmt}")]
        assert run(argv + (["--wrap-v"] if wrap_v else [])) == 0
        _ref_mesh(family, 5, 4, wrap_v, fmt, want / f"m.{fmt}")
        _assert_same_files(got, want)

    @pytest.mark.parametrize("family, fmt", [("r3", "obj"), ("s3-local", "csv")])
    def test_mesh_across_blocks(self, tmp_path, family, fmt):
        nu, nv = 70, 64
        assert nu * nv > cli.BLOCK_ROWS
        got, want = tmp_path / "got", tmp_path / "want"
        got.mkdir()
        want.mkdir()
        assert run(["mesh", "--family", family, "--C", "1", "--grid", str(nu), str(nv),
                    "--wrap-v", "--format", fmt, "--out", str(got / f"m.{fmt}")]) == 0
        _ref_mesh(family, nu, nv, True, fmt, want / f"m.{fmt}")
        _assert_same_files(got, want)

    @pytest.mark.parametrize("fig", cli.FIGURES)
    def test_curves(self, tmp_path, fig):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        assert run(["curves", "--figure", fig, "--C", "1", "--cstar", "1",
                    "--samples", "7", "--out", str(got)]) == 0
        _ref_curve(fig, 7, want)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("C", [0.01, 1.0, 100.0])
    def test_xc_rows_equal_points(self, C):
        par = FamilyParamsR3.from_C(C)
        vs = np.linspace(-1.0, 7.0, 23)
        us = (-2.5, -0.3, 0.0, 1e-9, 1.7)
        for u in us:
            ref = np.array([_ref_xc(par, u, float(v)) for v in vs])
            assert immersion_XC(par, u, vs).tobytes() == ref.tobytes()
            assert immersion_XC(par, u, float(vs[3])).tobytes() == ref[3].tobytes()
        # one call over distinct u, each with its own v
        ref = np.array([_ref_xc(par, u, float(v)) for u, v in zip(us, vs)])
        assert immersion_XC(par, np.array(us), vs[:len(us)]).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("C", [0.8, 1.0, 20.0])
    def test_strip_rows_equal_points(self, C):
        fam = spherical.family(C)
        r = fam.roots
        ts = np.linspace(-1.0, 7.0, 23)
        xis = np.linspace(r.xi01, r.xi02, 9)[1:-1]
        for xi in xis:
            ref = np.array([_ref_phic(fam, float(xi), float(t)) for t in ts])
            assert fam.immersion(float(xi), ts).tobytes() == ref.tobytes()
            assert fam.immersion(float(xi), float(ts[3])).tobytes() == ref[3].tobytes()
        ref = np.array([_ref_phic(fam, float(xi), float(t)) for xi, t in zip(xis, ts)])
        assert fam.immersion(xis, ts[:len(xis)]).tobytes() == ref.tobytes()
        with pytest.raises(OutOfDomain):
            fam.immersion(r.xi01, ts)
        with pytest.raises(OutOfDomain):
            fam.immersion(np.append(xis, r.xi02), 0.5)

    @pytest.mark.parametrize("C, Cstar", [(1.0, 1.0), (20.0, 0.01 * gluing.cstar_range(20.0).upper)])
    @pytest.mark.parametrize("name", ["phi", "psi"])
    def test_glued_rows_equal_points(self, C, Cstar, name):
        at = gluing.atlas(C, Cstar)
        evaluate, ref_point = {"phi": (at.immersion_phi, _ref_phi),
                               "psi": (at.immersion_psi, _ref_psi)}[name]
        delta = at.h_limits[1] - at.h_limits[0]
        # the junctions h_{0,-2} .. h_{0,3}, the base point and points inside strips
        hs = np.array([at.grid[-2], -0.7 * delta, at.grid[-1], 0.0, 0.3 * delta, at.grid[1],
                       at.grid[1] + 0.45 * delta, at.grid[2], at.grid[3] - 1e-3 * delta, at.grid[3]])
        ts = np.linspace(-1.0, 7.0, len(hs))
        for h in hs:
            ref = np.array([ref_point(at, float(h), float(t)) for t in ts])
            assert evaluate(float(h), ts).tobytes() == ref.tobytes()
            assert evaluate(float(h), float(ts[3])).tobytes() == ref[3].tobytes()
        ref = np.array([ref_point(at, float(h), float(t)) for h, t in zip(hs, ts)])
        assert evaluate(hs, ts).tobytes() == ref.tobytes()


# values whose "%.17g" texts are awkward: a signed zero, NaN with and
# without its sign bit, infinities, the extreme doubles and a 24-character text
AWKWARD = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
           1e308, -1.7976931348623157e308, -1.2345678901234567e-300, 0.1, -1.0, 2.0 ** 60]


def _assert_texts(x):
    """The writers' texts of the float array `x` are format(v, ".17g")."""
    cells = np.zeros(x.shape + (numtext.TEXT_WIDTH + 1,), np.uint8)
    cells[..., -1] = ord("\n")
    numtext.float_texts(x, cells[..., :-1])
    got = cells.tobytes().translate(None, b"\0").decode().splitlines()
    want = [_ref_fmt(v) for v in x.ravel().tolist()]
    assert got == want, [(v, g, w) for v, g, w in zip(x.ravel(), got, want) if g != w][:5]


class TestWriters:
    """The writers against the one-value-at-a-time reference above."""

    def _awkward_rows(self, n, ncols):
        # few distinct values, so that equal values recur in blocks far
        # apart, beside columns of distinct ones
        rng = np.random.default_rng(5)
        cols = [rng.choice(np.array(AWKWARD), n) if j % 2 == 0 else rng.standard_normal(n)
                for j in range(ncols)]
        return np.column_stack(cols)

    @pytest.mark.parametrize("n", [1, len(AWKWARD), 3 * cli.BLOCK_ROWS + 17])
    def test_csv_awkward_columns(self, tmp_path, n):
        rows = self._awkward_rows(n, 4)
        # every awkward value, the 24-character text among them
        rows[:len(AWKWARD), 0] = AWKWARD[:n]
        # one value in rows more than BLOCK_ROWS apart
        rows[::cli.BLOCK_ROWS + 1, 1] = -0.0
        cli._write_csv(tmp_path / "got.csv", ["a", "b", "c", "d"], rows)
        _ref_write_csv(tmp_path / "want.csv", ["a", "b", "c", "d"], rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("nu, nv", [(50, 97), (3, 2500)])
    @pytest.mark.parametrize("wrap_v", [False, True])
    def test_obj_across_blocks(self, tmp_path, nu, nv, wrap_v):
        # nu nv > BLOCK_ROWS, nv does not divide BLOCK_ROWS, and vertex
        # numbers of one to four digits; at nv = 2500 a grid row alone has
        # more than BLOCK_ROWS faces
        assert nu * nv > cli.BLOCK_ROWS and cli.BLOCK_ROWS % nv
        verts = self._awkward_rows(nu * nv, 3)
        cli._write_obj(tmp_path / "m.obj", verts, nu, nv, wrap_v)
        want = "\n".join(_ref_obj_lines(verts, nu, nv, wrap_v)) + "\n"
        assert (tmp_path / "m.obj").read_bytes() == want.encode()

    @pytest.mark.parametrize("nu, nv", [(40, 256), (100, 100), (10, 10), (2, 2)])
    @pytest.mark.parametrize("wrap_v", [False, True])
    def test_obj_band_edges(self, tmp_path, nu, nv, wrap_v):
        # face bands at the edges of the vertex numbers' width: at (40, 256)
        # vertex 10,000 falls inside the band that starts at grid row 32;
        # at (100, 100) only the last number has full width, so no band is
        # written without its NUL pass; (2, 2) is one band, and wrapped, the
        # two triangles of column 1 close onto column 0
        verts = self._awkward_rows(nu * nv, 3)
        cli._write_obj(tmp_path / "m.obj", verts, nu, nv, wrap_v)
        want = "\n".join(_ref_obj_lines(verts, nu, nv, wrap_v)) + "\n"
        assert (tmp_path / "m.obj").read_bytes() == want.encode()

    def _r3_mesh(self, tmp_path):
        """The vertices of the 256 x 256 wrapped r3 mesh at C = 1: (vertices,
        nu, nv, wrap_v)."""
        args = cli.build_parser().parse_args(
            ["mesh", "--family", "r3", "--C", "1", "--grid", "256", "256", "--wrap-v",
             "--out", str(tmp_path / "m.obj")])
        cli._resolve_args(args)
        verts, nu, nv, _ = cli._grid_positions(args)
        return verts, nu, nv, args.wrap_v

    def test_obj_nul_passes(self, tmp_path, monkeypatch):
        # every write that drops NULs goes through _write_lines: one per
        # block of vertex lines, and one per face band whose first vertex
        # number is shorter than the last.  A band of full-width numbers
        # holds no NUL and is written as it is
        verts, nu, nv, wrap_v = self._r3_mesh(tmp_path)
        calls = []
        write_lines = cli._write_lines
        monkeypatch.setattr(cli, "_write_lines",
                            lambda fh, lines: (calls.append(fh), write_lines(fh, lines)))
        cli._write_obj(tmp_path / "m.obj", verts, nu, nv, wrap_v)
        band = cli.BLOCK_ROWS // (2 * nv)
        short = [i for i in range(0, nu - 1, band) if i * nv + 1 < 10 ** 4]
        assert (band, len(short), len(range(0, nu - 1, band))) == (8, 5, 32)
        assert len(calls) == -(-nu * nv // cli.BLOCK_ROWS) + len(short) == 21
        text = (tmp_path / "m.obj").read_bytes()
        assert b"\0" not in text and text.count(b"\nf ") == 2 * (nu - 1) * nv == 130560

    def test_obj_writer_memory(self, tmp_path):
        # the writer holds one block at a time.  A vertex block is its
        # lines, their bytes with and without the NULs, and the formatting
        # temporaries of its 12,288 values, 0.81 times the vertex array of
        # the 256 x 256 r3 mesh (the bound leaves a fifth more), where one
        # string of the whole file would be 4.2 times it.  A face band is
        # its 4,096 lines, their bytes with and without the NULs, and the
        # texts of its nine grid rows of vertex numbers with their column
        # roll, 0.17 times it.  The first write also loads the formatting module and
        # builds its tables, 0.1 times it
        verts, nu, nv, wrap_v = self._r3_mesh(tmp_path)
        cli._write_obj(tmp_path / "m.obj", verts, nu, nv, wrap_v)
        tracemalloc.start()
        try:
            cli._write_obj(tmp_path / "m.obj", verts, nu, nv, wrap_v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * verts.nbytes

    def test_float_texts_corpus(self):
        # a seeded corpus of 10^6 doubles: random bit patterns (subnormals
        # and NaN payloads among them), and with both signs the special
        # values, powers of ten and their neighbours, integers of 16 to 18
        # digits, and exact ties of the 17-digit rounding, q / 2^j with q
        # odd and 18 digits
        rng = np.random.default_rng(23)
        powers = 10.0 ** np.arange(-300, 301)
        ties = []
        for j in range(1, 60):
            lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
            if lo < hi:
                q = rng.integers(lo, hi, 8000) | 1
                ties.append(np.ldexp(q[q < hi].astype(np.float64), -j))
        chosen = np.concatenate([
            [0.0, math.inf, 5e-324, sys.float_info.max],
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf),
            rng.integers(10 ** 15, 10 ** 18, 150_000).astype(np.float64), *ties])
        x = np.concatenate([
            rng.integers(0, 2 ** 64, 500_000, dtype=np.uint64).view(np.float64), chosen, -chosen])
        assert len(x) >= 10 ** 6 and sum(map(len, ties)) > 150_000
        for start in range(0, len(x), 1 << 16):
            _assert_texts(x[start:start + (1 << 16)])

    @given(st.lists(st.floats(), min_size=1, max_size=64))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_float_texts_property(self, values):
        _assert_texts(np.array(values).reshape(-1, 1))

    @pytest.mark.parametrize("width", range(1, 9))
    def test_vertex_number_texts(self, width):
        rng = np.random.default_rng(width)
        numbers = np.unique(np.concatenate([
            np.arange(1, min(10 ** width, 20_001)), rng.integers(1, 10 ** width, 5000),
            [10 ** (width - 1), 10 ** width - 1]]))
        table = numtext.int_texts(numbers, width)
        assert table.shape == (len(numbers), width)
        assert [row[row != 0].tobytes().decode() for row in table] == list(map(str, numbers.tolist()))


def test_import_leaves_scipy_interpolate_unloaded():
    # the package needs only numpy: no scipy module may load with the CLI
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, biconsurf.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    res = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120, check=True)
    assert res.stdout.strip() == "[]"


def test_python_m_biconsurf_runs_the_cli_quietly():
    # `python -m biconsurf` goes through __main__: stderr holds the report
    # lines only, no runpy warning about a module imported by the package
    src = str(Path(cli.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-m", "biconsurf", "verify", "--family", "r3",
                          "--C", "1"], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0
    lines = res.stderr.splitlines()
    assert lines and all(ln.startswith(("PASS ", "FAIL ")) for ln in lines)


@pytest.mark.parametrize("module", ["biconsurf.cli", "biconsurf"])
def test_python_m_leaves_stderr_empty(module):
    # the package does not import the CLI, so runpy has nothing to warn about
    src = str(Path(cli.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-m", module, "params", "--C", "1"],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0
    assert "xi01" in res.stdout
    assert res.stderr == ""
