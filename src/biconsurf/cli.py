"""Command-line front end: parameter summaries, figure-data CSV emission,
OBJ mesh export (with stereographic projection for sphere-ambient
surfaces), and machine-readable verification reports.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
or inadmissible parameters.  Every failure path, a usage error too, prints
one machine-parsable line `error: <constraint>` to stderr.  Output is
deterministic for a fixed configuration: fixed seeds, sorted JSON keys,
17-significant-digit text floats, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import checks, euclidean, gluing, spherical
from .diffgeo import DegenerateMetric
from .numerics import DegenerateDomain, NumericsError, OutOfDomain

__all__ = ["main"]

# each figure and the family whose parameters it needs
FIGURE_FAMILIES = {"fig1": "r3", "fig2": "revolution", "fig3": "revolution",
                   "fig4": "revolution", "fig5": "revolution", "fig6": "s3-complete"}
FIGURES = tuple(FIGURE_FAMILIES)
MESH_FORMATS = ("obj", "csv")


class UsageError(Exception):
    pass


# text lines per write, rows per formatting call (all their columns in one
# call), and grid points per evaluator call.  A block's lines are one
# (rows x line length) byte matrix with a NUL-padded cell per text; for the
# 256 x 256 r3 OBJ a block of 4096 vertex lines is 0.3 MB, where the whole
# file as one string would be 6.6 MB
BLOCK_ROWS = 4096


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _line_cells(n: int, head: str, sep: str, ncols: int,
                width: int) -> tuple[np.ndarray, np.ndarray]:
    """n lines, each `head`, then `ncols` cells of `width` NULs joined by
    `sep`, and a newline, as an (n, line length) byte matrix; returns it
    and the (n, ncols, width) view of its cells."""
    step = width + len(sep)
    lines = np.empty((n, len(head) + ncols * step - len(sep) + 1), np.uint8)
    lines[:] = np.frombuffer((head + sep.join(["\0" * width] * ncols) + "\n").encode(), np.uint8)
    # `sep` has one character at most: the newline takes the last cell's sep
    cells = lines[:, len(head):len(head) + ncols * step].reshape(n, ncols, step)
    return lines, cells[:, :, :width]


def _write_lines(fh, lines: np.ndarray) -> None:
    # the padding NULs drop out; no text has a NUL of its own
    fh.write(lines.tobytes().translate(None, b"\0"))


def _write_rows(fh, head: str, sep: str, rows: np.ndarray) -> None:
    """Write each row of a 2-D float array as one line of "%.17g" texts,
    formatting the values of a block of rows in one call."""
    # loaded on the first write: verify and params never compile it
    from . import numtext
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start:start + BLOCK_ROWS]
        lines, cells = _line_cells(len(block), head, sep, block.shape[1], numtext.TEXT_WIDTH)
        numtext.float_texts(block, cells)
        _write_lines(fh, lines)


def _write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        _write_rows(fh, "", ",", rows)


def _write_obj(path: Path, vertices: np.ndarray, nu: int, nv: int, wrap_v: bool) -> None:
    """Vertices of a row-major nu x nv grid and two triangles per cell; the
    faces are made and written a band of grid rows at a time.  The numbers
    of the band + 1 grid rows its faces use are formatted once, and each
    triangle corner is a slice copy of that table or of its next column,
    the column roll.  A band whose first number has full width holds no
    NUL, so it is written as it is."""
    cols = nv if wrap_v else nv - 1
    band = max(1, BLOCK_ROWS // (2 * cols))
    width = len(str(nu * nv))
    text = f"V{width}"   # a text as one void item: a copy moves it whole
    from . import numtext   # loaded on the first write, as in _write_rows
    with path.open("wb") as fh:
        fh.write(f"# biconsurf mesh: {nu} x {nv} row-major grid\n".encode())
        _write_rows(fh, "v ", " ", vertices)
        for i in range(0, nu - 1, band):
            rows, first = min(band, nu - 1 - i), i * nv + 1
            cur = numtext.int_texts(np.arange(first, first + (rows + 1) * nv), width)
            cur = cur.view(text).reshape(rows + 1, nv)
            nxt, cur = np.roll(cur, -1, axis=1)[:, :cols], cur[:, :cols]
            lines, cells = _line_cells(2 * rows * cols, "f ", " ", 3, width)
            tri = cells.view(text)[..., 0].reshape(rows, cols, 2, 3)
            tri[:, :, 0, 0], tri[:, :, 0, 1], tri[:, :, 0, 2] = cur[:-1], nxt[:-1], nxt[1:]
            tri[:, :, 1, 0], tri[:, :, 1, 1], tri[:, :, 1, 2] = cur[:-1], nxt[1:], cur[1:]
            if first < 10 ** (width - 1):
                _write_lines(fh, lines)
            else:
                fh.write(lines)


def _require_admissible(family: str, C: float, cstar: float | None) -> None:
    """Check C, and C* where `family` needs it, before anything is built:
    r3 needs C > 0 with C1 = (9/C)^(1/3) finite, the sphere families need
    C > 4/3^(3/2), and s3-complete and revolution need 0 < C* <
    (C - 4/3^(3/2))^(-1/2)."""
    if family == "r3":
        if C <= 0.0:
            raise UsageError("C must be positive for the r3 family")
        if not math.isfinite(9.0 / C):
            raise UsageError(f"C={_fmt(C)} inadmissible: C1 = (9/C)^(1/3) overflows "
                             f"for the r3 family")
        return
    if C <= spherical.C_MIN:
        raise UsageError(
            f"C={_fmt(C)} inadmissible: need C > 4/3^(3/2) = {_fmt(spherical.C_MIN)}")
    if family in ("s3-complete", "revolution"):
        if cstar is None:
            raise UsageError(f"family {family!r} requires --cstar")
        rng = gluing.cstar_range(C)
        if not rng.contains(cstar):
            raise UsageError(
                f"C*={_fmt(cstar)} inadmissible: need 0 < C* < {_fmt(rng.upper)}")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_params(args) -> int:
    C = args.C
    _require_admissible("s3-local" if args.Cstar is None else "revolution", C, args.Cstar)
    fam = spherical.family(C)
    r = fam.roots
    zm, zp = fam.zeta_limits
    rng = gluing.cstar_range(C)
    print(f"family constant            C    = {_fmt(C)}")
    print(f"curvature-route constant   C1   = {_fmt(fam.params.C1)}")
    print(f"strip roots                xi01 = {_fmt(r.xi01)}")
    print(f"                           xi00 = {_fmt(r.xi00)}")
    print(f"                           xi02 = {_fmt(r.xi02)}")
    print(f"curvature roots            k01  = {_fmt(r.k01)}")
    print(f"                           k02  = {_fmt(r.k02)}")
    print(f"turning-angle limits       zeta-1 = {_fmt(zm)}")
    print(f"                           zeta+1 = {_fmt(zp)}")
    print(f"admissible C* interval     (0, {_fmt(rng.upper)})")
    if args.Cstar is not None:
        at = gluing.atlas(C, args.Cstar)
        m1, p1 = at.h_limits
        print(f"height limits              h-1  = {_fmt(m1)}")
        print(f"                           h+1  = {_fmt(p1)}")
        print(f"profile period             {_fmt(at.period)}")
    return 0


def _clustered_strip_samples(roots, n):
    j = np.arange(1, n + 1)
    return roots.xi01 + (roots.xi02 - roots.xi01) * 0.5 * (
        1.0 - np.cos(math.pi * j / (n + 1)))


def cmd_curves(args) -> int:
    out = Path(args.out)
    n = args.samples
    fig = args.figure
    _require_admissible(FIGURE_FAMILIES[fig], args.C, args.Cstar)
    if fig == "fig1":
        par = euclidean.FamilyParamsR3.from_C(args.C)
        us = np.linspace(-2.2, 2.2, n)
        pts = euclidean.immersion_XC(par, us, 0.0)
        _write_csv(out, ["u", "x", "z"], np.column_stack([us, pts[:, 0], pts[:, 2]]))
        return 0
    at = gluing.atlas(args.C, args.Cstar, c0=args.c0)
    m1, p1 = at.h_limits
    if fig in ("fig2", "fig3", "fig4", "fig5"):
        xis = _clustered_strip_samples(at.roots, n)
        h0 = at.h0(xis)
        if fig == "fig2":
            _write_csv(out, ["xi", "h0"], np.column_stack([xis, h0]))
        elif fig == "fig3":
            _write_csv(out, ["xi", "h0", "h1", "hm1"],
                       np.column_stack([xis, h0, 2.0 * p1 - h0, 2.0 * m1 - h0]))
        elif fig == "fig4":
            _write_csv(out, ["f", "h0"], np.column_stack([at.Cstar / xis, h0]))
        else:
            _write_csv(out, ["f", "h0", "h1", "hm1"],
                       np.column_stack([at.Cstar / xis, h0, 2.0 * p1 - h0, 2.0 * m1 - h0]))
        return 0
    # fig6: the glued profile from h_{0,-11} to h_{0,11}, base point always present
    hs = np.sort(np.append(np.linspace(at.grid[-11], at.grid[11], n), 0.0))
    _write_csv(out, ["h", "x1", "x2"], np.column_stack([hs, at.immersion_phi(hs, 0.0)[:, :2]]))
    return 0


def _stereographic(points: np.ndarray, pole: np.ndarray) -> np.ndarray:
    """Project unit 4-vectors from `pole` onto the equatorial 3-space."""
    pole = pole / np.linalg.norm(pole)
    target = np.array([0.0, 0.0, 0.0, -1.0])
    v = pole - target
    if np.linalg.norm(v) < 1e-12:
        rotated = points
    else:
        v = v / np.linalg.norm(v)
        rotated = points - 2.0 * np.outer(points @ v, v)
    denom = 1.0 + rotated[:, 3]
    if np.any(np.abs(denom) < 1e-12):
        raise UsageError("a mesh sample coincides with the projection pole")
    return rotated[:, :3] / denom[:, None]


def _grid_positions(args):
    """Evaluate the requested family on its row-major grid, a block of grid
    rows of at most BLOCK_ROWS points per evaluator call; returns (points,
    nu, nv, is_spherical)."""
    nu, nv = args.grid
    family = args.family
    _require_admissible(family, args.C, args.Cstar)
    if family == "r3":
        par = euclidean.FamilyParamsR3.from_C(args.C)
        patch, evaluate = euclidean.xc_patch(par), lambda u, v: euclidean.immersion_XC(par, u, v)
        u_default, v_default = patch.u_range, patch.v_range
    elif family == "s3-local":
        fam = spherical.family(args.C)
        r = fam.roots
        evaluate = fam.immersion
        u_default = fam.patch().u_range
        v_default = (0.0, 2.0 * math.pi / math.sqrt(args.C))
        if args.u_range and not r.contains(np.array(args.u_range)).all():
            raise UsageError(f"u-range must lie inside the open strip "
                             f"({_fmt(r.xi01)}, {_fmt(r.xi02)}) for the s3-local family")
    else:
        at = gluing.atlas(args.C, args.Cstar, c0=args.c0)
        u_default = (at.grid[-2], at.grid[2])
        if family == "revolution":
            evaluate = at.immersion_psi
            v_default = (0.0, 2.0 * math.pi * at.Cstar)
        else:
            evaluate = at.immersion_phi
            v_default = (0.0, 2.0 * math.pi / math.sqrt(args.C))
    u0, u1 = args.u_range or u_default
    v0, v1 = args.v_range or v_default
    # the wrap faces join the last column to the first: one period apart
    period = v_default[1] - v_default[0]
    if args.wrap_v and not math.isclose(abs(v1 - v0), period, rel_tol=1e-12):
        raise UsageError(f"--wrap-v needs a --v-range that spans one period, "
                         f"{_fmt(period)}, of the {family} family")
    us = np.linspace(u0, u1, nu)[:, None]
    vs = np.linspace(v0, v1, nv, endpoint=not args.wrap_v)
    band = max(1, BLOCK_ROWS // nv)
    is_spherical = family in ("s3-local", "s3-complete")
    pts = np.empty((nu, nv, 4 if is_spherical else 3))
    try:
        for i in range(0, nu, band):
            pts[i:i + band] = evaluate(us[i:i + band], vs)
    except (OverflowError, OutOfDomain) as exc:
        raise UsageError(f"the {family} grid leaves the surface's domain: {exc}") from exc
    pts = pts.reshape(nu * nv, -1)
    if not np.isfinite(pts).all():
        raise UsageError(f"the {family} grid has non-finite positions; "
                         f"narrow --u-range or change --C")
    return pts, nu, nv, is_spherical


def cmd_mesh(args) -> int:
    try:
        pole = np.array([float(x) for x in args.pole.split(",")])
    except ValueError:
        pole = np.zeros(0)
    if pole.shape != (4,) or not np.isfinite(pole).all() or not pole.any():
        raise UsageError("pole must be four finite comma-separated components, not all zero")
    pts, nu, nv, is_spherical = _grid_positions(args)
    out = Path(args.out)
    verts = pts
    if is_spherical:
        # project first: a pole on the surface must stop the run before any file is written
        verts = _stereographic(pts, pole)
        _write_csv(out.with_suffix(".raw.csv"), ["x1", "x2", "x3", "x4"], pts)
    if args.format == "csv":
        _write_csv(out, ["x", "y", "z"], verts)
    else:
        _write_obj(out, verts, nu, nv, args.wrap_v)
    return 0


def cmd_verify(args) -> int:
    _require_admissible(args.family, args.C, args.Cstar)
    report, results = checks.build_report(
        args.family, args.C, Cstar=args.Cstar, c0=args.c0, grid=args.grid_n, seed=args.seed)
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    for name, res in sorted(results.items()):
        at = ",".join(_fmt(x) for x in res.worst_at)
        print(f"{'PASS' if res.passed else 'FAIL'} {name}: value={_fmt(res.value)} "
              f"tol={_fmt(res.tolerance)} n={res.n_samples} at=({at})", file=sys.stderr)
    return 0 if report["overall_pass"] else 1


# ----------------------------------------------------------------------
# Argument plumbing
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors on one `error:` line, and -1e-3 read as a number, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise UsageError(message)


def _add_common(p):
    p.add_argument("--C", type=float, help="family constant")
    p.add_argument("--cstar", dest="Cstar", type=float,
                   help="revolution-radius constant")
    p.add_argument("--c0", type=float, help="base phase constant")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with defaults; explicit flags win")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; options a config file
    may set default to None here and take their defaults from _ARGUMENTS.
    Each `parse_args` call returns a fresh Namespace and nothing writes to
    the parser, so every `main` call shares it."""
    ap = _Parser(
        prog="biconsurf",
        description="Construct, verify and export the complete biconservative "
                    "surfaces of revolution in R^3 and the unit 3-sphere.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="print family constants, roots and limits")
    _add_common(p)

    p = sub.add_parser("curves", help="emit figure data as CSV")
    _add_common(p)
    p.add_argument("--figure", choices=FIGURES, required=True)
    p.add_argument("--samples", type=int)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("mesh", help="export a surface mesh (OBJ or CSV)")
    _add_common(p)
    p.add_argument("--family", choices=checks.FAMILIES, required=True)
    p.add_argument("--grid", type=int, nargs=2, metavar=("NU", "NV"))
    p.add_argument("--u-range", type=float, nargs=2)
    p.add_argument("--v-range", type=float, nargs=2)
    p.add_argument("--wrap-v", action="store_true", default=None,
                   help="close the mesh in the angular direction")
    p.add_argument("--pole", type=str,
                   help="stereographic projection pole (4 components)")
    p.add_argument("--format", choices=MESH_FORMATS)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("verify", help="run the verification suite, emit JSON")
    _add_common(p)
    p.add_argument("--family", choices=checks.FAMILIES, required=True)
    p.add_argument("--grid-n", type=int,
                   help="per-strip sample count for grid checks")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=str, default=None)

    return ap


def _real(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise UsageError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integer(minimum):
    def check(name, value):
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise UsageError(f"{name} must be an integer >= {minimum}, got {value!r}")
        return value
    return check


def _pair(check_one):
    def check(name, value):
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise UsageError(f"{name} must be a list of two values, got {value!r}")
        return [check_one(name, x) for x in value]
    return check


def _span(name, value):
    # an empty range would mesh zero-area triangles; a reversed one is allowed
    ends = _pair(_real)(name, value)
    if ends[0] == ends[1]:
        raise UsageError(f"{name} is empty: both ends are {_fmt(ends[0])}")
    return ends


def _of_type(kind):
    def check(name, value):
        if not isinstance(value, kind):
            raise UsageError(f"{name} must be a {kind.__name__}, got {value!r}")
        return value
    return check


def _one_of(choices):
    def check(name, value):
        if value not in choices:
            raise UsageError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
        return value
    return check


# attribute -> (default, check) for every option a config file may set.
# Precedence: explicit flag, then config file, then this default; the
# check runs on the value from whichever source won.
_ARGUMENTS = {
    "C": (None, _real),
    "Cstar": (None, _real),
    "c0": (0.0, _real),
    "samples": (400, _integer(1)),
    "grid": ([64, 64], _pair(_integer(2))),
    "u_range": (None, _span),
    "v_range": (None, _span),
    "wrap_v": (False, _of_type(bool)),
    "pole": ("0,0,0,-1", _of_type(str)),
    "format": ("obj", _one_of(MESH_FORMATS)),
    "grid_n": (10, _integer(1)),
    "seed": (12345, _integer(0)),
    "out": (None, _of_type(str)),
}


def _read_config(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise UsageError(f"config file unreadable: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    cfg = {{"cstar": "Cstar"}.get(key, key): value for key, value in cfg.items()}
    unknown = sorted(set(cfg) - set(_ARGUMENTS))
    if unknown:
        raise UsageError(f"unknown config key {', '.join(map(repr, unknown))}")
    return cfg


def _resolve_args(args) -> None:
    """Give every option its value from the flag, the config file or its
    default, in that order, and check it; then check the output path, so
    that a bad argument stops the run before any file is written."""
    cfg = _read_config(args.config) if args.config is not None else {}
    for attr, (default, check) in _ARGUMENTS.items():
        if not hasattr(args, attr):
            continue
        value = getattr(args, attr)
        if value is None:
            value = cfg.get(attr)
        if value is None:
            value = default
        if value is not None:
            value = check("--" + {"Cstar": "cstar"}.get(attr, attr).replace("_", "-"), value)
        setattr(args, attr, value)
    out = getattr(args, "out", None)
    if out is not None:
        if not Path(out).parent.is_dir():
            raise UsageError(f"cannot write {out}: directory {Path(out).parent} does not exist")
        if Path(out).is_dir():
            raise UsageError(f"cannot write {out}: it is a directory")


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        _resolve_args(args)
        if args.C is None:
            ap.error("--C is required (flag or config file)")
        handler = {
            "params": cmd_params,
            "curves": cmd_curves,
            "mesh": cmd_mesh,
            "verify": cmd_verify,
        }[args.command]
        # numpy stays quiet: a run that leaves the float range ends in a FAIL
        # or in one error line (r3 verify at C = 1e-300, s3-local at C = 1e100)
        with np.errstate(all="ignore"):
            return handler(args)
    except (UsageError, gluing.InvalidC) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateDomain as exc:
        print(f"error: degenerate domain: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, DegenerateMetric, OverflowError) as exc:
        # parameters the CLI accepts but double precision cannot evaluate
        print(f"error: {args.command} cannot be evaluated at C={_fmt(args.C)}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
