"""Tests of the benchmark's own machinery: tracer wrappers, the sweep
list and the output checks."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import outputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from biconsurf import cli, gluing, spherical  # noqa: E402


def _wrapped_attributes():
    """Every (owner, attribute) the tracer replaces, with its object."""
    modules = [tracing._resolve(m) for m in tracing.MODULES]
    seen = {}
    for _name, owner_path, attr in tracing.TARGETS:
        owner = tracing._resolve(owner_path)
        if isinstance(owner, type):
            seen[(owner, attr)] = owner.__dict__[attr]
            continue
        original = getattr(owner, attr)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                seen[(mod, attr)] = original
    return seen


def _verify_r3(tmp_path):
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["verify", "--family", "r3", "--C", "1.0",
                         "--out", str(tmp_path / "r3.json")])


def test_tracer_restores_originals(tmp_path):
    before = _wrapped_attributes()
    # find_root is bound by name in spherical and euclidean too
    assert sum(attr == "find_root" for _owner, attr in before) >= 3
    tracer = tracing.Tracer()
    with tracer:
        assert spherical.find_root is not before[(spherical, "find_root")]
        assert _verify_r3(tmp_path) == 0
    for (owner, attr), original in before.items():
        assert (owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)) is original
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("op failed mid-trace")
    assert _wrapped_attributes() == before


def test_tracer_catches_nested_calls(tmp_path):
    tracer = tracing.Tracer()
    with tracer:
        _verify_r3(tmp_path)
    layer = tracing.summarize(tracer)
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "checks.build_report", "diffgeo.residual"} <= names
    # biconservativity_residual reaches shape_operator through its globals
    assert layer["diffgeo.shape_operator_calls"] > layer["diffgeo.residual_calls"] > 0
    assert layer["diffgeo.partials_per_residual"] > 0
    assert layer["cli.self_s"] >= 0.0
    assert all(parent < i for i, (_n, _a, _b, parent, _op) in enumerate(tracer.spans))
    run.write_spans(tmp_path / "spans.jsonl", tracer)
    rows = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(rows) == len(tracer.spans)
    assert all(set(r) == {"name", "start", "end", "parent", "op"} and r["end"] >= r["start"]
               for r in rows)


def test_traced_report_bytes_match_untraced(tmp_path):
    _verify_r3(tmp_path)
    plain = (tmp_path / "r3.json").read_bytes()
    with tracing.Tracer():
        _verify_r3(tmp_path)
    assert (tmp_path / "r3.json").read_bytes() == plain


def test_sweep_list_is_seeded_and_keeps_edge_points():
    edges = [(C, f * wl.cstar_upper(C)) for C in (1.001 * spherical.C_MIN, 20.0)
             for f in (0.01, 0.99)]
    assert wl.C_MIN == spherical.C_MIN
    lists = {}
    for seed in range(12):
        pairs = wl.sweep_pairs(seed)
        assert pairs == wl.sweep_pairs(seed)
        assert [(C, cs) for C, cs, edge in pairs if edge] == edges
        for C, cs, _edge in pairs:
            assert C > spherical.C_MIN
            assert gluing.cstar_range(C).contains(cs)
        lists[seed] = pairs
        # the sweep's own ops are the cold ones; it warms up on verify-fixed
        ops = [op for op in wl.warmup_for("verify-sweep", seed)
               + wl.ops_for("verify-sweep", seed) if op.cold]
        for family in ("s3-complete", "revolution"):
            pairs_run = {(op.C, op.Cstar) for op in ops if op.target == family}
            assert pairs_run == {(C, cs) for C, cs, _edge in pairs
                                 if family == "revolution" or C != edges[0][0]}
        assert {(op.C, op.Cstar) for op in wl.ops_for("verify-sweep", seed)
                if op.Cstar is not None} <= set(edges)
        assert {op.seed for op in wl.ops_for("verify-sweep", seed)} == {wl.SWEEP_EDGE_REPORT_SEED}
    assert len({tuple(p) for p in lists.values()}) == len(lists)


def _small_mesh(tmp_path):
    path = tmp_path / "xc.obj"
    assert cli.main(["mesh", "--family", "r3", "--C", "1.0", "--grid", "6", "5",
                     "--wrap-v", "--out", str(path)]) == 0
    return path


def test_mesh_check_accepts_full_obj_and_catches_truncation(tmp_path):
    path = _small_mesh(tmp_path)
    op = wl.Op("mesh", "r3", 1.0)
    assert outputs.check_mesh(op, path, 6, 5, True, False).problems == []
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-7]) + "\n")
    assert outputs.check_mesh(op, path, 6, 5, True, False).problems
    path.write_text("\n".join(lines[:10]) + "\nv 0.1 0.2")
    assert outputs.check_mesh(op, path, 6, 5, True, False).problems


def test_report_check_catches_inconsistent_pass_flag(tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["verify", "--family", "r3", "--C", "1.0", "--seed", "7",
                       "--out", str(tmp_path / "r.json")])
    op = wl.Op("verify", "r3", 1.0, seed=7, expect_pass=True)
    text = (tmp_path / "r.json").read_text()
    good = outputs.check_report(op, text, rc, err.getvalue())
    assert good.problems == [] and good.checks == good.passed > 0
    report = json.loads(text)
    report["checks"]["homothety"]["pass"] = False
    bad = outputs.check_report(op, json.dumps(report), rc, err.getvalue())
    assert bad.problems


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = set(tracing.summarize(tracing.Tracer())) | set(run.EXTRA_PER_LAYER)
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_family_time_is_mean_of_scaled_op_medians():
    """op_s.<family> scales each op by the reference time around it, takes
    each distinct op's median and averages those over the family."""
    ref = run.REFERENCE_S

    def results(op, seconds, ref_seconds):
        out = [run.Result(op, 0.0, s, outputs.Verdict(), 0) for s in seconds]
        for r in out:
            r.ref_seconds = ref_seconds
        return out

    timed = (results(wl.Op("verify", "r3", 1.0), [1.0, 2.0, 9.0], ref)
             + results(wl.Op("verify", "r3", 20.0), [8.0, 12.0, 16.0], 2 * ref)
             + [r for f in wl.FAMILIES[1:] for r in results(wl.Op("verify", f, 1.0), [3.0], ref)])
    metrics = run.end_to_end([], [timed], setup_s=1.0)
    assert metrics["op_s.r3"] == pytest.approx((2.0 + 6.0) / 2)
    assert metrics["op_s.s3-local"] == pytest.approx(3.0)
    assert metrics["ops_per_s"] == pytest.approx(len(timed) / (12.0 + 18.0 + 9.0))
    assert run.reference_kernel() > 0.0


def test_reference_time_is_mean_over_window_around_op(tmp_path):
    runner = run.Runner(tmp_path)
    runner.kernels = [(0.0, 1.0), (5.0, 3.0), (5.6, 5.0), (20.0, 7.0)]
    short = run.Result(wl.Op("verify", "r3", 1.0), 5.1, 0.4, outputs.Verdict(), 0)
    long = run.Result(wl.Op("verify", "r3", 1.0), 5.1, 10.0, outputs.Verdict(), 0)
    runner.assign_reference([short, long])
    assert short.ref_seconds == pytest.approx(4.0)     # within 1 s of the op
    assert long.ref_seconds == pytest.approx(5.0)      # within 5 s of the op
