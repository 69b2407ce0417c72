#!/usr/bin/env bash
# Smoke runs of the installed `biconsurf` console script; outputs go to the
# directory given as the first argument (default: $RUNNER_TEMP).
#   bash .github/scripts/console_script.sh /tmp/smoke
set -euo pipefail
out="${1:-$RUNNER_TEMP}"
mkdir -p "$out"

biconsurf params --C 1
biconsurf verify --family r3 --C 1 --out "$out/r3.json"
biconsurf verify --family revolution --C 1 --cstar 1 --out "$out/rev.json"
biconsurf verify --family s3-local --C 1 --out "$out/s3l.json"
biconsurf verify --family s3-complete --C 1 --cstar 1 --out "$out/s3c.json"
# the closed-form junction rows at a second C, C* at 49% of its range
biconsurf verify --family s3-complete --C 3 --cstar 0.33 --out "$out/s3c3.json"
# Psi at C = 20, C* at 99% of its range: its mean curvature reads the
# closed-form second partials, where differenced ones put it past 1e-5
biconsurf verify --family revolution --C 20 --cstar 0.2257 --out "$out/rev20.json"
# the residual next to the strip's singular ends, near C_MIN: its
# stencils are sized from the jets' length scale there
biconsurf verify --family s3-local --C 0.77057 --out "$out/s3l-edge.json"
biconsurf verify --family s3-complete --C 0.77057 --cstar 18 --out "$out/s3c-edge.json"
python -c 'import json, sys; sys.exit(not all(json.load(open(p))["overall_pass"] for p in sys.argv[1:]))' \
  "$out/s3l.json" "$out/s3c.json" "$out/s3c3.json" "$out/rev20.json"
biconsurf mesh --family r3 --C 1 --grid 256 256 --wrap-v --out "$out/r3.obj"
test "$(grep -c '^f ' "$out/r3.obj")" = 130560
biconsurf params --C 1 --cstar 1
# the glued immersion across its 22 junctions
biconsurf curves --figure fig6 --C 1 --cstar 1 --out "$out/fig6.csv"
test "$(wc -l < "$out/fig6.csv")" = 402
