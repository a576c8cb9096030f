#!/bin/sh
# Benchmark a change against its parent in alternating pairs of timed runs.
#
#   tools/bench_pair.sh PARENT WORKLOAD PAIRS OUT [SEED]
#
# PARENT is a checkout of the parent commit (for example from `git clone`),
# WORKLOAD one of perfbench/run.py's workloads, PAIRS the number of pairs and
# OUT the JSON file to write, e.g. BENCH_11.json.  SEED defaults to 0.  Each
# pair runs `python3 PARENT/perfbench/run.py` and this checkout's
# `perfbench/run.py` with `--seed SEED --seconds 30 --trace 0`, one after the
# other; even pairs start with the parent, odd pairs with the change.
#
# Every output line of every run is kept.  For each end-to-end metric the
# file gives both sides' medians and quartiles over the pairs, the number of
# pairs in which the change read better, and "gain_resolved": whether the
# change was better in at least nine tenths of the pairs (ties count for
# neither) and its median beat the parent's by more than the parent's
# interquartile range.  "within_bound": whether the change's median is no
# worse than the parent's by more than the metric's relative "bound".
# "unresolved": whether the parent's interquartile range exceeds "bound" times
# its median, so that the runs spread too widely to tell.  Which direction is
# better, and each bound, come from BENCHMARK.json.  Both sides' failed and
# attempted solves are printed with the medians.  An OUT that exists already
# gets this run appended to its "runs" list, so one file can hold several
# seeds; runs written before a field existed are kept as they are.
set -eu
if [ "$#" -lt 4 ] || [ "$#" -gt 5 ]; then
    echo "usage: $0 PARENT WORKLOAD PAIRS OUT [SEED]" >&2
    exit 1
fi
PARENT=$1
WORKLOAD=$2
PAIRS=$3
OUT=$4
SEED=${5:-0}
case $PAIRS in
    ''|*[!0-9]*|0|1) echo "$0: PAIRS must be an integer >= 2 (quartiles need two runs)" >&2
                     exit 1 ;;
esac
CHANGE=$(cd "$(dirname "$0")/.." && pwd)
LOGS=$(mktemp -d)
trap 'rm -rf "$LOGS"' EXIT

side() {
    # side NAME ROOT PAIR: one timed run, its output kept as LOGS/NAME.PAIR
    python3 "$2/perfbench/run.py" --workload "$WORKLOAD" --seed "$SEED" \
        --seconds 30 --trace 0 > "$LOGS/$1.$3"
}

i=0
while [ "$i" -lt "$PAIRS" ]; do
    if [ $((i % 2)) -eq 0 ]; then
        side parent "$PARENT" "$i"
        side change "$CHANGE" "$i"
    else
        side change "$CHANGE" "$i"
        side parent "$PARENT" "$i"
    fi
    echo "pair $i done: parent $(tail -n 1 "$LOGS/parent.$i")" >&2
    echo "              change $(tail -n 1 "$LOGS/change.$i")" >&2
    i=$((i + 1))
done

python3 - "$LOGS" "$PARENT" "$CHANGE" "$WORKLOAD" "$SEED" "$PAIRS" "$OUT" <<'EOF'
import json
import os
import platform
import statistics
import subprocess
import sys

logs, parent, change, workload, seed, pairs, out = sys.argv[1:]
seed, pairs = int(seed), int(pairs)


def revision(root):
    try:
        return subprocess.run(["git", "-C", root, "describe", "--always", "--dirty"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def lines(name, i):
    with open(os.path.join(logs, f"{name}.{i}"), encoding="utf-8") as f:
        return f.read().splitlines()


sides = {name: [lines(name, i) for i in range(pairs)] for name in ("parent", "change")}
results = {name: [json.loads(run[-1]) for run in runs] for name, runs in sides.items()}
machine = json.loads(sides["change"][0][0].removeprefix("machine: "))
machine["platform"] = platform.platform()
machine["python"] = platform.python_version()


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as f:
    declared = {m["name"]: m for m in json.load(f)["end_to_end"]}

metrics = {}
for name in results["change"][0]["metrics"]:
    value = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in results.items()}
    spec = declared.get(name, {})
    sign = -1.0 if spec.get("better") == "higher" else 1.0
    lower = sum(c < p for p, c in zip(value["parent"], value["change"]))
    wins = sum(sign * c < sign * p for p, c in zip(value["parent"], value["change"]))
    spread = {s: quartiles(v) for s, v in value.items()}
    parent_median, bound = spread["parent"]["median"], spec.get("bound")
    metrics[name] = {
        "unit": results["change"][0]["metrics"][name]["unit"],
        "parent": spread["parent"],
        "change": spread["change"],
        "change_lower_in": f"change lower in {lower} of {pairs} pairs",
        "gain_resolved": 10 * wins >= 9 * pairs and sign * (
            parent_median - spread["change"]["median"]) > spread["parent"]["iqr"],
        "within_bound": None if bound is None else sign * (
            spread["change"]["median"] - parent_median) <= bound * abs(parent_median),
        "unresolved": None if bound is None else spread["parent"]["iqr"] > bound * abs(
            parent_median),
    }

command = f"perfbench/run.py --workload {workload} --seed {seed} --seconds 30 --trace 0"
run = {
    "workload": workload,
    "seed": seed,
    "pairs": pairs,
    "order": "pair i runs the parent first for even i, the change first for odd i",
    "commands": {"parent": f"python3 PARENT/{command}", "change": f"python3 {command}"},
    "revisions": {"parent": revision(parent), "change": revision(change)},
    "machine": machine,
    "failed": {side: sum(r["failed"] for r in rs) for side, rs in results.items()},
    "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in results.items()},
    "metrics": metrics,
    "result_lines": sides,
}
doc = {"runs": []}
if os.path.exists(out):
    with open(out, encoding="utf-8") as f:
        doc = json.load(f)
doc["runs"].append(run)
with open(out, "w", encoding="utf-8") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"failed/attempted solves: parent {run['failed']['parent']}/{run['attempted']['parent']}, "
      f"change {run['failed']['change']}/{run['attempted']['change']}")
yes = {True: "yes", False: "no", None: "no bound"}
for name, m in metrics.items():
    print(f"{name}: parent median {m['parent']['median']:.4g} (IQR {m['parent']['iqr']:.3g}), "
          f"change median {m['change']['median']:.4g} (IQR {m['change']['iqr']:.3g}); "
          f"{m['change_lower_in']}; gain resolved: {yes[m['gain_resolved']]}; "
          f"within bound: {yes[m['within_bound']]}; unresolved: {yes[m['unresolved']]}")
EOF
