"""Spans around biconsurf's public entry points, installed from outside.

`Tracer` replaces each entry point below on its module or class with a
wrapper that records a span (name, start, end, parent span, op id) in
memory, and puts the original objects back when it is closed.  Nothing
under `src/` is edited.  Three facts about the package make this enough:

- `_gk_adaptive` and `biconservativity_residual` look up
  `gauss_kronrod_panel` and `shape_operator` through their module globals,
  so a module-attribute wrapper also catches the nested calls;
- `spherical` imports `find_root` and `solve_ode` by name, and
  `euclidean` imports `find_root`, so a module-level function is replaced
  on every package module that holds the same object;
- `gluing` and `spherical` import `SphereFamily` and
  `CumulativeQuadrature` by name, so methods are wrapped on the class.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

PACKAGE = "biconsurf"
MODULES = ("numerics", "diffgeo", "euclidean", "spherical", "gluing", "checks", "cli")

# (span name, owner "module" or "module.Class", attribute)
TARGETS = (
    ("numerics.gk_panel", "numerics", "gauss_kronrod_panel"),
    ("numerics.cumq_build", "numerics.CumulativeQuadrature", "__init__"),
    ("numerics.cumq_value", "numerics.CumulativeQuadrature", "value"),
    ("numerics.find_root", "numerics", "find_root"),
    ("numerics.ode_solve", "numerics", "solve_ode"),
    ("spherical.family_build", "spherical.SphereFamily", "__init__"),
    ("spherical.zeta0", "spherical.SphereFamily", "zeta0"),
    ("spherical.immersion", "spherical.SphereFamily", "immersion"),
    ("spherical.partials", "spherical.SphereFamily", "immersion_partials"),
    ("gluing.atlas_build", "gluing.GluingAtlas", "__init__"),
    ("gluing.h0_inverse", "gluing.GluingAtlas", "h0_inverse"),
    ("gluing.h0", "gluing.GluingAtlas", "h0"),
    ("gluing.position", "gluing.GluingAtlas", "immersion_phi"),
    ("gluing.position", "gluing.GluingAtlas", "immersion_psi"),
    ("gluing.partials", "gluing.GluingAtlas", "immersion_phi_partials"),
    ("gluing.partials", "gluing.GluingAtlas", "immersion_psi_partials"),
    ("euclidean.immersion", "euclidean", "immersion_XC"),
    ("euclidean.partials", "euclidean", "immersion_XC_partials"),
    ("diffgeo.fundamental_forms", "diffgeo", "fundamental_forms"),
    ("diffgeo.shape_operator", "diffgeo", "shape_operator"),
    ("diffgeo.residual", "diffgeo", "biconservativity_residual"),
    ("checks.build_report", "checks", "build_report"),
    ("cli.main", "cli", "main"),
)

PARTIALS = ("spherical.partials", "gluing.partials", "euclidean.partials")


def _resolve(owner: str):
    mod_name, _, cls_name = owner.partition(".")
    mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
    return getattr(mod, cls_name) if cls_name else mod


class Tracer:
    """Record spans of the wrapped entry points while installed.

    Use as a context manager; `op` is set by the caller before each op.
    `spans` holds tuples (name, start, end, parent index, op id); a span
    is appended when its call starts, so a parent always precedes its
    children.  `heights` holds (op id, argument) of every `h0_inverse`
    call and `ode_steps` the summed lengths of returned ODE solutions.
    """

    def __init__(self):
        self.spans: list = []
        self.heights: list = []
        self.ode_steps = 0
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, on_args=None, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if on_args is not None:
                on_args(args)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_height(self, args):
        self.heights.append((self.op, args[1]))

    def _on_ode(self, result):
        self.ode_steps += len(result)

    def install(self) -> None:
        modules = [_resolve(m) for m in MODULES]
        for name, owner_path, attr in TARGETS:
            owner = _resolve(owner_path)
            hooks = {}
            if name == "gluing.h0_inverse":
                hooks["on_args"] = self._on_height
            elif name == "numerics.ode_solve":
                hooks["on_result"] = self._on_ode
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, **hooks))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, **hooks)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times of everything the tracer recorded.

    Self time is a span's duration minus the durations of its direct
    children; `*_build_s` and `spherical.zeta0_s` are inclusive.
    """
    spans = tracer.spans
    n = len(spans)
    child = [0.0] * n
    in_residual = [False] * n
    count: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    partials_in_res = 0
    inverses_in_res = 0
    for i, (name, t0, t1, parent, _op) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            in_residual[i] = in_residual[parent] or spans[parent][0] == "diffgeo.residual"
        count[name] = count.get(name, 0) + 1
        incl_s[name] = incl_s.get(name, 0.0) + (t1 - t0)
        if in_residual[i]:
            partials_in_res += name in PARTIALS
            inverses_in_res += name == "gluing.h0_inverse"
    for i, (name, t0, t1, _p, _op) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]

    per_op: dict[int, list] = {}
    for op, y in tracer.heights:
        per_op.setdefault(op, []).append(y)
    calls = sum(len(ys) for ys in per_op.values())
    repeats = sum(len(ys) - len(set(ys)) for ys in per_op.values())

    def c(name):
        return count.get(name, 0)

    residuals = c("diffgeo.residual")
    return {
        "numerics.gk_panels": c("numerics.gk_panel"),
        "numerics.gk_panel_s": self_s.get("numerics.gk_panel", 0.0),
        "numerics.cumq_value_calls": c("numerics.cumq_value"),
        "numerics.cumq_builds": c("numerics.cumq_build"),
        "numerics.cumq_build_s": incl_s.get("numerics.cumq_build", 0.0),
        "numerics.find_root_calls": c("numerics.find_root"),
        "numerics.ode_solves": c("numerics.ode_solve"),
        "numerics.ode_steps": tracer.ode_steps,
        "spherical.family_builds": c("spherical.family_build"),
        "spherical.family_build_s": incl_s.get("spherical.family_build", 0.0),
        "spherical.zeta0_calls": c("spherical.zeta0"),
        "spherical.zeta0_s": incl_s.get("spherical.zeta0", 0.0),
        "spherical.immersion_calls": c("spherical.immersion"),
        "gluing.atlas_builds": c("gluing.atlas_build"),
        "gluing.atlas_build_s": incl_s.get("gluing.atlas_build", 0.0),
        "gluing.h0_inverse_calls": c("gluing.h0_inverse"),
        "gluing.h0_inverse_s": self_s.get("gluing.h0_inverse", 0.0),
        "gluing.h0_calls": c("gluing.h0"),
        "gluing.position_calls": c("gluing.position"),
        "gluing.partials_calls": c("gluing.partials"),
        "gluing.repeat_height_share": repeats / calls if calls else 0.0,
        "euclidean.immersion_calls": c("euclidean.immersion"),
        "euclidean.immersion_s": self_s.get("euclidean.immersion", 0.0),
        "diffgeo.shape_operator_calls": c("diffgeo.shape_operator"),
        "diffgeo.shape_operator_s": self_s.get("diffgeo.shape_operator", 0.0),
        "diffgeo.residual_calls": residuals,
        "diffgeo.residual_s": self_s.get("diffgeo.residual", 0.0),
        "diffgeo.fundamental_forms_calls": c("diffgeo.fundamental_forms"),
        "diffgeo.partials_per_residual": partials_in_res / residuals if residuals else 0.0,
        "diffgeo.h0_inverse_per_residual": inverses_in_res / residuals if residuals else 0.0,
        "checks.report_self_s": self_s.get("checks.build_report", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }


def op_counts(tracer: Tracer) -> dict[int, dict[str, int]]:
    """Span counts per op id, for the per-op table of a traced run."""
    out: dict[int, dict[str, int]] = {}
    for name, _t0, _t1, _parent, op in tracer.spans:
        row = out.setdefault(op, {})
        row[name] = row.get(name, 0) + 1
    return out
