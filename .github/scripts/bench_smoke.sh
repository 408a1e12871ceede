#!/usr/bin/env bash
# Bench smoke: run each workload for 2 s at seed 1 and fail if its run is not
# correct, has a failed op, or reaches fewer digits than its min_digits floor.
# Each workload's end-to-end figures go to a table on the run's summary page,
# as information and not a gate, so that a time or memory trade shows.
#
# usage: GITHUB_STEP_SUMMARY=<file> bash .github/scripts/bench_smoke.sh "<summary title>"
# Writes bench-smoke-<workload>.txt in the working directory.
set -euo pipefail

{
  echo "Bench smoke, seed 1, 2 s, $1:"
  echo
  echo "| workload | setup_s | ops_per_s | min_digits | peak_rss_mb |"
  echo "|---|---|---|---|---|"
} >> "$GITHUB_STEP_SUMMARY"
for pair in green:4.176 toroidal:5.532 dirichlet:3.752; do
  workload=${pair%%:*} floor=${pair#*:}
  python3 bench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 0 > "bench-smoke-$workload.txt"
  tail -n 1 "bench-smoke-$workload.txt" | python3 -c 'import json, sys; m = json.loads(sys.stdin.read())["metrics"]; print("|", sys.argv[1], "|", " | ".join(format(m[k]["value"], ".6g") for k in ("setup_s", "ops_per_s", "min_digits", "peak_rss_mb")), "|")' "$workload" >> "$GITHUB_STEP_SUMMARY" || true
  tail -n 1 "bench-smoke-$workload.txt" | python3 -c 'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(0 if r["correct"] is True and r["failed"] == 0 and r["metrics"]["min_digits"]["value"] >= float(sys.argv[1]) else 1)' "$floor"
done
