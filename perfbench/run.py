"""Benchmark of the biconsurf command line, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-fixed --seed 1 --seconds 30 --trace 0

One process and one thread run the ops of a workload one after another
through `biconsurf.cli.main` (a closed loop with one caller); a fresh
interpreter started a few times beforehand measures the set-up time.
A fixed reference computation, timed just before and after every op,
scales each op's time to a reference host speed (see REFERENCE_S).
Every op's output is checked.  With `--trace 0` the last line of stdout is
a JSON object with the end-to-end metrics; with `--trace 1` untraced and
traced passes alternate and the JSON holds the per-layer metrics of the
traced passes.  README.md in this directory describes the workloads and
metrics.  Outputs go to a temporary directory in the checkout, removed at
exit.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# one process, one thread: keep BLAS from starting a thread pool; set
# before numpy is imported here or in the set-up probe
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import outputs  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5

# The host's speed changes from one second to the next and from one minute
# to the next (on a shared 2-vCPU Intel Xeon VM, by up to 1.8x).  A fixed
# reference computation, timed just before and just after every op,
# measures it: each op's time is scaled by REFERENCE_S over the mean time
# of the reference runs within REFERENCE_WINDOW_S of the op (or within
# half the op's time, if that is longer), so that op_s.* and ops_per_s
# read as seconds on a host where the reference takes REFERENCE_S, about
# its mean on that VM.
REFERENCE_S = 0.02
REFERENCE_WINDOW_S = 1.0
_REF_NODES = np.linspace(-1.0, 1.0, 15)
_REF_X = np.linspace(0.1, 3.0, 4000)


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of what the ops do: float formatting
    (the CLI writers) and numpy on 15-point panels (the quadrature)."""
    t0 = perf_counter()
    rows = zip(_REF_X, np.sin(_REF_X), np.cos(_REF_X))
    "\n".join(" ".join(format(float(v), ".17g") for v in row) for row in rows)
    acc = 0.0
    for i in range(1000):
        acc += float(np.dot(_REF_NODES, np.exp(-_REF_NODES * (1.0 + 1e-3 * i))))
    return perf_counter() - t0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_ok_ratio": "ratio",
    "check_pass_ratio": "ratio",
    **{f"op_s.{f}": "s" for f in wl.FAMILIES},
}

# per-layer hit ratios of the lru caches of spherical.family and gluing.atlas
CACHES = ("spherical.family_cache_hit_ratio", "gluing.atlas_cache_hit_ratio")
# per-layer metrics the runner adds to those of tracing.summarize
EXTRA_PER_LAYER = CACHES + ("cli.bytes_written", "setup.import_s", "trace.overhead_ratio")


SETUP_PROBE = """
import json, time
t0 = time.perf_counter()
from biconsurf import cli, gluing, spherical
t1 = time.perf_counter()
{setup}
t2 = time.perf_counter()
print(json.dumps({{"import_s": t1 - t0, "setup_s": t2 - t0}}))
"""


def per_layer_unit(name: str) -> str:
    if name == "cli.bytes_written":
        return "B"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def measure_setup(workload: str) -> tuple[float, float]:
    """Median (setup_s, import_s) over fresh interpreters."""
    code = SETUP_PROBE.format(setup=wl.SETUP_CODE[workload])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    setups, imports = [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(probe["setup_s"])
        imports.append(probe["import_s"])
    return statistics.median(setups), statistics.median(imports)


class Result:
    __slots__ = ("op", "start", "seconds", "verdict", "bytes", "ok", "ref_seconds")

    def __init__(self, op, start, seconds, verdict, nbytes):
        self.op, self.start, self.seconds = op, start, seconds
        self.verdict, self.bytes = verdict, nbytes
        self.ok = not verdict.problems
        self.ref_seconds = None     # set by Runner.assign_reference

    @property
    def scaled(self) -> float:
        """The op's time at the reference host speed (see REFERENCE_S)."""
        return self.seconds * REFERENCE_S / self.ref_seconds


class Runner:
    """Runs ops through the CLI, checks every output and keeps the first
    digest of each op's output to hold later passes to it."""

    def __init__(self, workdir: Path):
        from biconsurf import cli, gluing, spherical
        self.cli, self.gluing, self.spherical = cli, gluing, spherical
        self.workdir = workdir
        self.digests: dict[tuple, str] = {}
        self.kernels: list[tuple[float, float]] = []    # (midpoint, seconds)
        self.reset_cache_counts()

    def _reference(self) -> None:
        t = perf_counter()
        seconds = reference_kernel()
        self.kernels.append((t + 0.5 * seconds, seconds))

    def assign_reference(self, results) -> None:
        """Set each result's reference time: the mean over the reference
        runs within REFERENCE_WINDOW_S of the op, or within half the op's
        time if that is longer; at least the two around the op itself."""
        mids = [m for m, _ in self.kernels]
        for r in results:
            margin = max(REFERENCE_WINDOW_S, 0.5 * r.seconds)
            lo = bisect.bisect_left(mids, r.start - margin)
            hi = bisect.bisect_right(mids, r.start + r.seconds + margin)
            r.ref_seconds = statistics.fmean(s for _, s in self.kernels[lo:hi])

    def reset_cache_counts(self) -> None:
        self.cache_counts = {name: [0, 0] for name in CACHES}   # [hits, misses]

    def _files(self, i, op) -> list[Path]:
        out = self.workdir / f"op{i}{op.suffix}"
        if op.command == "mesh" and op.target in ("s3-local", "s3-complete"):
            return [out, out.with_suffix(".raw.csv")]
        return [out]

    def run(self, i, op, tracer=None) -> Result:
        files = self._files(i, op)
        for f in files:
            f.unlink(missing_ok=True)
        if op.cold:
            self.spherical.family.cache_clear()
            self.gluing.atlas.cache_clear()
        caches = (self.spherical.family, self.gluing.atlas)
        before = [c.cache_info() for c in caches]
        if tracer is not None:
            tracer.op = i
        err, out = io.StringIO(), io.StringIO()
        argv = op.argv(str(files[0]))
        exc = None
        self._reference()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as e:  # an op that raises is counted as failed
            exc, rc = e, None
        seconds = perf_counter() - t0
        self._reference()
        for name, cache, b in zip(CACHES, caches, before):
            a = cache.cache_info()
            self.cache_counts[name][0] += a.hits - b.hits
            self.cache_counts[name][1] += a.misses - b.misses
        verdict = self._check(op, files, rc, err.getvalue(), exc)
        data = b"".join(f.read_bytes() for f in files if f.exists())
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(tuple(op.argv("")), digest) != digest:
            verdict.problems.append("output bytes differ from the op's first run")
        return Result(op, t0, seconds, verdict, len(data))

    def _check(self, op, files, rc, stderr, exc) -> outputs.Verdict:
        if exc is not None:
            return outputs.Verdict(problems=[f"raised {type(exc).__name__}: {exc}"])
        if not files[0].exists():
            return outputs.Verdict(problems=[f"exit code {rc}, no output written"])
        if op.command == "verify":
            return outputs.check_report(op, files[0].read_text(), rc, stderr)
        verdict = outputs.Verdict()
        verdict.expect(rc == 0, f"exit code {rc}")
        if op.command == "mesh":
            nu, nv, wrap = wl.MESH_GRIDS[op.target]
            sub = outputs.check_mesh(op, files[0], nu, nv, wrap, len(files) == 2)
        else:
            sub = outputs.check_curves(op, files[0], wl.CURVE_SAMPLES)
        verdict.problems += sub.problems
        verdict.checks += sub.checks
        verdict.passed += sub.passed
        return verdict

    def run_pass(self, ops, tracer=None) -> list[Result]:
        return [self.run(i, op, tracer) for i, op in enumerate(ops)]


def tail(values):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def environment() -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    deps = None
    try:
        import tomllib
        with open(ROOT / "pyproject.toml", "rb") as fh:
            deps = len(tomllib.load(fh)["project"].get("dependencies", []))
    except (ImportError, OSError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_sha": sha,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "biconsurf").rglob("*.py"))),
        "runtime_dependencies": deps,
    }


def by_label(results) -> dict[str, list]:
    rows: dict[str, list] = {}
    for r in results:
        rows.setdefault(r.op.label, []).append(r)
    return rows


def print_table(title, results):
    print(title)
    for name, rs in by_label(results).items():
        line = f"  {name:<44}"
        for kind, values in (("wall", [r.seconds for r in rs]), ("scaled", [r.scaled for r in rs])):
            t = tail(values)
            extra = f" p{t[0]}={t[1]:.6g}" if t else ""
            line += f"  {kind} median={statistics.median(values):.6g}{extra}"
        print(f"{line} s  n={len(rs)}")


def print_failures(results):
    failing = {}
    for r in results:
        for name, value, tol in r.verdict.failing:
            failing.setdefault((r.op.label, name, value, tol), 0)
            failing[(r.op.label, name, value, tol)] += 1
        for problem in r.verdict.problems:
            print(f"op failed: {r.op.label}: {problem}")
    for (label, name, value, tol), n in failing.items():
        print(f"failing check: {label}: {name} value={value:.6g} tol={tol:.6g} (x{n})")


def another_fits(t_start, done, seconds) -> bool:
    """Whether one more pass, as long as the mean so far, ends within
    `seconds` of `t_start`; always true before the first pass."""
    elapsed = perf_counter() - t_start
    return done == 0 or elapsed + elapsed / done <= seconds


def run_untraced(runner, ops, warmup, seconds) -> tuple[list, list]:
    warm = runner.run_pass(warmup)
    passes = []
    t_start = perf_counter()
    while another_fits(t_start, len(passes), seconds):
        passes.append(runner.run_pass(ops))
    runner.assign_reference([r for p in passes for r in p])
    return warm, passes


def end_to_end(warm, passes, setup_s) -> dict[str, float]:
    timed = [r for p in passes for r in p]
    every = warm + [r for p in passes for r in p]
    checks = sum(r.verdict.checks for r in timed)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": len(timed) / sum(r.scaled for r in timed),
        "op_ok_ratio": sum(r.ok for r in every) / len(every),
        "check_pass_ratio": sum(r.verdict.passed for r in timed) / checks if checks else 1.0,
    }
    for fam in wl.FAMILIES:
        # the mean over the family's distinct ops (several on the sweep)
        # of each op's median scaled time
        metrics[f"op_s.{fam}"] = statistics.fmean(
            statistics.median(r.scaled for r in rs)
            for rs in by_label(timed).values() if rs[0].op.target == fam)
    return metrics


def run_traced(runner, ops, warmup, seconds, spans_out):
    """Alternate untraced and traced passes; per-layer metrics of the
    traced ones.  Counts come from the first traced pass and are compared
    with later ones; times are medians over traced passes."""
    warm = runner.run_pass(warmup)
    untraced_walls, traced_walls, summaries = [], [], []
    every = list(warm)
    t_start = perf_counter()
    while another_fits(t_start, len(summaries), seconds):
        res = runner.run_pass(ops)
        untraced_walls.append(sum(r.seconds for r in res))
        every += res
        runner.reset_cache_counts()
        tracer = tracing.Tracer()
        with tracer:
            res = runner.run_pass(ops, tracer)
        traced_walls.append(sum(r.seconds for r in res))
        every += res
        summary = tracing.summarize(tracer)
        for name, (hits, misses) in runner.cache_counts.items():
            summary[name] = hits / (hits + misses) if hits + misses else 0.0
        summary["cli.bytes_written"] = sum(r.bytes for r in res)
        if not summaries:
            if spans_out:
                write_spans(spans_out, tracer)
            print_op_counts(ops, tracer)
        summaries.append(summary)
    layer = {}
    repeat = True
    for key, value in summaries[0].items():
        if key.endswith("_s"):
            layer[key] = statistics.median(s[key] for s in summaries)
        else:
            layer[key] = value
            repeat = repeat and all(s[key] == value for s in summaries)
    layer["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                     / statistics.median(untraced_walls) - 1.0)
    print(f"traced passes: {len(summaries)}; counts repeat across traced passes: {repeat}")
    print(f"pass wall: untraced median {statistics.median(untraced_walls):.6g} s, "
          f"traced median {statistics.median(traced_walls):.6g} s")
    return every, layer


def print_op_counts(ops, tracer):
    names = ("numerics.gk_panel", "gluing.h0_inverse", "gluing.h0", "spherical.zeta0",
             "diffgeo.shape_operator", "diffgeo.residual")
    print("per-op span counts (first traced pass): " + ", ".join(names))
    for op_id, row in sorted(tracing.op_counts(tracer).items()):
        print(f"  {ops[op_id].label:<44} " + " ".join(str(row.get(n, 0)) for n in names))


def write_spans(path, tracer):
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w") as fh:
        for name, start, end, parent, op in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                 "parent": parent, "op": op}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None,
                    help="with --trace 1, write the first traced pass's spans here (JSON lines)")
    args = ap.parse_args(argv)

    if not (SRC / "biconsurf" / "__init__.py").is_file():
        print(f"error: no biconsurf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        setup_s, import_s = measure_setup(args.workload)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up probe failed: {exc}", file=sys.stderr)
        return 2
    from biconsurf import gluing, spherical
    exec(wl.SETUP_CODE[args.workload], {"gluing": gluing, "spherical": spherical})

    ops = wl.ops_for(args.workload, args.seed)
    warmup = wl.warmup_for(args.workload, args.seed)
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workdir)
        if args.trace:
            every, layer = run_traced(runner, ops, warmup, args.seconds, args.spans)
            layer["setup.import_s"] = import_s
            metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layer.items()}
            print_failures(every)
        else:
            warm, passes = run_untraced(runner, ops, warmup, args.seconds)
            timed = [r for p in passes for r in p]
            every = warm + timed
            values = end_to_end(warm, passes, setup_s)
            print(f"passes: {len(passes)}")
            print_table("per-op seconds (measured passes), as measured and scaled:", timed)
            print_failures(every)
            refs = [k for _, k in runner.kernels]
            print(f"reference kernel: median {statistics.median(refs):.6g} s, range "
                  f"{min(refs):.6g}-{max(refs):.6g} s over {len(refs)} runs "
                  f"(REFERENCE_S = {REFERENCE_S:g} s)")
            print("end-to-end metrics:")
            for k, v in values.items():
                print(f"  {k:<24} {v:.6g} {END_TO_END[k]}")
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r.ok for r in every)
    print(json.dumps({"correct": failed == 0, "attempted": len(every), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
