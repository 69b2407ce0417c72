"""The benchmark's workloads: seeded lists of CLI invocations.

Each op is one `biconsurf` command run through `cli.main`.  Why each
workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

FAMILIES = ("r3", "s3-local", "s3-complete", "revolution")
FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")
WORKLOADS = ("verify-fixed", "verify-sweep", "export")

# strict lower bound of the sphere families, 4 / 3^(3/2) (spherical.C_MIN)
C_MIN = 4.0 / 3.0 ** 1.5
SWEEP_EDGE_C = (1.001 * C_MIN, 20.0)
SWEEP_EDGE_CSTAR_FRACTIONS = (0.01, 0.99)
SWEEP_SEEDED_PAIRS = 1
# report seed of the edge ops (the CLI's default).  The report seed picks
# the sample points, and with them up to a fifth of a revolution op's
# quadrature panels; the edge ops are the timed ones, so like their pairs
# they do not depend on the workload seed
SWEEP_EDGE_REPORT_SEED = 12345
# seeded interior points: C log-uniform on this range, C* fraction uniform
SWEEP_SEEDED_C = (0.8, 20.0)
SWEEP_SEEDED_FRACTIONS = (0.05, 0.95)
# an r3 verify takes about 35 ms, a sweep pass about 9 s: repeat it so that
# its median rests on more than the three or four passes of a run
SWEEP_R3_REPEATS = 4
CURVE_SAMPLES = 400

# mesh grids of the export workload: family -> (nu, nv, --wrap-v)
MESH_GRIDS = {
    "r3": (256, 256, True),
    "s3-local": (64, 64, False),
    "s3-complete": (64, 64, False),
    "revolution": (64, 64, True),
}


def cstar_upper(C: float) -> float:
    """Upper end of the admissible C* interval (gluing.cstar_range)."""
    return (C - C_MIN) ** -0.5


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the benchmark expects of it.

    `cold` ops run after the family and atlas caches are cleared;
    `expect_pass` requires a verify report whose checks all pass (exit
    code 0).
    """

    command: str                  # verify | mesh | curves
    target: str                   # family, or figure for curves
    C: float
    Cstar: float | None = None
    seed: int | None = None
    cold: bool = False
    expect_pass: bool = False

    @property
    def label(self) -> str:
        cs = "" if self.Cstar is None else f" C*={self.Cstar:.6g}"
        return f"{self.command} {self.target} C={self.C:.6g}{cs}"

    @property
    def suffix(self) -> str:
        return {"verify": ".json", "mesh": ".obj", "curves": ".csv"}[self.command]

    def argv(self, out: str) -> list[str]:
        args = [self.command]
        if self.command == "curves":
            args += ["--figure", self.target, "--samples", str(CURVE_SAMPLES)]
        else:
            args += ["--family", self.target]
        args += ["--C", repr(self.C)]
        if self.Cstar is not None:
            args += ["--cstar", repr(self.Cstar)]
        if self.command == "verify":
            args += ["--seed", str(self.seed)]
        if self.command == "mesh":
            nu, nv, wrap = MESH_GRIDS[self.target]
            args += ["--grid", str(nu), str(nv)] + (["--wrap-v"] if wrap else [])
        return args + ["--out", out]


def sweep_pairs(seed: int) -> list[tuple[float, float, bool]]:
    """(C, C*, is_edge) for verify-sweep.

    The four edge pairs come first and never depend on the seed: C just
    above the threshold and C = 20, each with C* at 1% and 99% of its
    admissible range.  Seeded interior pairs follow.  No pair is dropped
    for failing a check: those failures are what this workload shows.
    """
    pairs = [(C, f * cstar_upper(C), True)
             for C in SWEEP_EDGE_C for f in SWEEP_EDGE_CSTAR_FRACTIONS]
    rng = random.Random(seed)
    lo, hi = (math.log(c) for c in SWEEP_SEEDED_C)
    for _ in range(SWEEP_SEEDED_PAIRS):
        C = math.exp(rng.uniform(lo, hi))
        pairs.append((C, rng.uniform(*SWEEP_SEEDED_FRACTIONS) * cstar_upper(C), False))
    return pairs


def _sweep_ops(pairs, seed: int) -> list[Op]:
    ops = []
    seen_c = set()
    for C, Cstar, _edge in pairs:
        if C not in seen_c:
            seen_c.add(C)
            ops += [Op("verify", "r3", C, seed=seed, cold=True)] * SWEEP_R3_REPEATS
            ops.append(Op("verify", "s3-local", C, seed=seed, cold=True))
        # near the threshold s3-complete costs 5-10 s an op; revolution at
        # the same pairs builds the same atlas and runs the same psi checks
        glued = ("s3-complete", "revolution") if C != SWEEP_EDGE_C[0] else ("revolution",)
        ops += [Op("verify", f, C, Cstar, seed=seed, cold=True) for f in glued]
    return ops


def ops_for(workload: str, seed: int) -> list[Op]:
    """The ops of one measured pass."""
    if workload == "verify-fixed":
        return [Op("verify", f, 1.0, 1.0 if f in ("s3-complete", "revolution") else None,
                   seed=seed, expect_pass=True) for f in FAMILIES]
    if workload == "verify-sweep":
        return _sweep_ops([p for p in sweep_pairs(seed) if p[2]], SWEEP_EDGE_REPORT_SEED)
    if workload == "export":
        ops = [Op("mesh", f, 1.0, 1.0 if f in ("s3-complete", "revolution") else None)
               for f in FAMILIES]
        ops += [Op("curves", fig, 1.0, 1.0) for fig in FIGURES]
        # no random inputs here: the seed only fixes the order within a pass
        random.Random(seed).shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def warmup_for(workload: str, seed: int) -> list[Op]:
    """The untimed, checked ops run once before the measured passes.

    The sweep's own ops are cold by design, so it warms up on the fixed
    verify ops.  Its seeded pairs run here too, once per run: their cost
    depends on where the seed puts them, so they stay out of the timings.
    """
    if workload == "verify-sweep":
        return ops_for("verify-fixed", seed) + _sweep_ops(
            [p for p in sweep_pairs(seed) if not p[2]], seed)
    return ops_for(workload, seed)


# set-up that the timed process and the fresh interpreter both run: the
# objects the workload reuses from warm caches (none for the cold sweep)
SETUP_CODE = {
    "verify-fixed": "spherical.family(1.0); gluing.atlas(1.0, 1.0, c0=0.0); "
                    "gluing.atlas(1.0, 1.0)",
    "verify-sweep": "",
    "export": "spherical.family(1.0); gluing.atlas(1.0, 1.0, c0=0.0)",
}
