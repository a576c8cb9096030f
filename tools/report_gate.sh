#!/bin/sh
# Write the reports that a no-output-change commit must leave byte-identical.
#
#   tools/report_gate.sh SRC OUT
#
# SRC is a checkout's src/ directory and OUT a fresh output root.  Each run
# goes through `python -m dirlap.cli` with PYTHONPATH=SRC, so two checkouts
# can be compared without installing either.  Runs start inside OUT, so the
# relative input path of the fit-decay run makes its spec the same under any
# root; each run's exit code is written to OUT/<run>/exit_code.  Last, every
# *.json report under OUT is parsed with NaN and Infinity rejected: the paths
# of those that fail go to OUT/nonstrict_json.  The run sim-lat-cfg reads
# sim-lat's experiment from a config file, and those of its reports that
# differ from sim-lat's go to OUT/config_mismatch.  The run sim-adv-sym-wide
# starts sim-adv-sym's experiment on a ball past its Krylov reach; its
# trajectory.csv goes to OUT/radius_mismatch if it differs from
# sim-adv-sym's, since a report must not depend on the ball.  The script
# exits non-zero if any of the three lists is not empty.  Compare two checkouts with
#
#   tools/report_gate.sh parent/src /tmp/gate-a
#   tools/report_gate.sh src /tmp/gate-b
#   diff -r /tmp/gate-a /tmp/gate-b
set -u
if [ "$#" -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 1
fi
mkdir -p "$2" || exit 1
SRC=$(cd "$1" && pwd) || exit 1
OUT=$(cd "$2" && pwd) || exit 1
export OPENBLAS_NUM_THREADS=1
export PYTHONPATH="$SRC"

run() {
    name=$1
    shift
    mkdir -p "$OUT/$name"
    (cd "$OUT" && python -m dirlap.cli "$@" --out "$name" > /dev/null)
    echo $? > "$OUT/$name/exit_code"
}

run ch-ex22 check-hypotheses --graph example-2.2
run ch-adv check-hypotheses --graph z2-advection --shells 40
run ch-skew check-hypotheses --graph z2-skew-perturbed
# other fit centers, (0, 1) and (1, -2): a cut ball at distance 1
run ch-skew-s3 check-hypotheses --graph z2-skew-perturbed --seed 3
run ch-lat check-hypotheses --graph z-lattice --d 2
# the plane lattice's sym run: radius 64, its Krylov reach
run sim-lat simulate --graph z-lattice --d 2 --part sym --t-max 20
# the same experiment from a config file: the same reports
mkdir -p "$OUT/sim-lat-cfg"
printf 'graph = z-lattice\nd = 2\npart = sym\nt_max = 20\n' > "$OUT/sim-lat-cfg/exp.cfg"
run sim-lat-cfg simulate --config sim-lat-cfg/exp.cfg
run sim-skew simulate --graph z2-skew-perturbed --t-max 20
# an undersized first radius: two retries, radius 33
run sim-retry simulate --graph z-lattice --d 1 --part full --t-max 6 --c-speed 0.05
# its sym twin: the ball starts at radius 9 and grows with the Krylov reach to 32
run sim-sym-retry simulate --graph z-lattice --d 1 --part sym --t-max 6 --c-speed 0.05
# the 3-axis lattice: shells of 3-axis keys read in batch
run sim-lat3 simulate --graph z-lattice --d 3 --part sym --t-max 4
# the 4-axis lattice: vertices without a key, so interned ids grow the ball (radius 16)
run sim-lat4 simulate --graph z-lattice --d 4 --part sym --t-max 0.5
# the one run whose Lanczos basis restarts at its dimension cap (488 vectors):
# the ball grows across the restart to radius 487
run sim-sym-long simulate --graph z-lattice --d 1 --part sym --t-max 2000
# sym runs on non-uniform weights: radius 64 and radius 48, their Krylov reach
run sim-skew-sym simulate --graph z2-skew-perturbed --part sym --t-max 20
run sim-ex22-sym simulate --graph example-2.2 --part sym --t-max 20
# sym on a skew graph: the ball ends at the Krylov reach, radius 48
run sim-adv-sym simulate --graph z2-advection --part sym --t-max 20
# the same from radius 88, past the reach: the same trajectory
run sim-adv-sym-wide simulate --graph z2-advection --part sym --t-max 20 --c-speed 4
# its full twin: an uneven diagonal, so the series' rate is a true maximum
run sim-ex22-full simulate --graph example-2.2 --part full --t-max 20
run osc oscillate --t-max 10
# the negative-bias coupling
run osc-neg oscillate --a -0.9 --t-max 10
run cex counterexample --t-max 20
run val-ex22 validate --graph example-2.2
run val-skew validate --graph z2-skew-perturbed
# 3-axis lattice vertices fit the int64 key (377 vertices), 4-axis ones do not (1,289)
run val-lat3 validate --graph z-lattice --d 3 --radius 6
run val-lat4 validate --graph z-lattice --d 4 --radius 6
# the linf series of sim-lat, one series as fit-decay reads it
mkdir -p "$OUT/fit"
grep -e '^t,' -e ',linf,' "$OUT/sim-lat/trajectory.csv" > "$OUT/fit/linf.csv"
run fit fit-decay --csv fit/linf.csv --window 5 20
for f in simulate.json trajectory.csv; do
    cmp -s "$OUT/sim-lat/$f" "$OUT/sim-lat-cfg/$f" || echo "sim-lat-cfg/$f"
done > "$OUT/config_mismatch"
{ cmp -s "$OUT/sim-adv-sym/trajectory.csv" "$OUT/sim-adv-sym-wide/trajectory.csv" ||
    echo "sim-adv-sym-wide/trajectory.csv"; } > "$OUT/radius_mismatch"
# Every report must be strict JSON: NaN and Infinity are not JSON.  The
# offending paths go to OUT/nonstrict_json (empty when there are none).
cd "$OUT" && python - <<'PY'
import json
import pathlib
import sys


def reject(token):
    raise ValueError(token)


bad = []
for path in sorted(pathlib.Path(".").rglob("*.json")):
    try:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    except ValueError:
        bad.append(f"{path}\n")
pathlib.Path("nonstrict_json").write_text("".join(bad))
sys.exit(1 if bad else 0)
PY
strict=$?
[ "$strict" -eq 0 ] && [ ! -s "$OUT/config_mismatch" ] && [ ! -s "$OUT/radius_mismatch" ]
