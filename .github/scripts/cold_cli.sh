#!/usr/bin/env bash
# Cold CLI times: the median wall time of 3 fresh processes for each workload
# command and for a bare `import flatring.cli`, as a table on the run's
# summary page. Information, not a gate: no bench setup_s sees the imports.
#
# usage: GITHUB_STEP_SUMMARY=<file> bash .github/scripts/cold_cli.sh "<summary title>"
set -euo pipefail

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
{
  echo "Cold CLI, median of 3 fresh processes, $1:"
  echo
  echo "| command | wall s |"
  echo "|---|---|"
} >> "$GITHUB_STEP_SUMMARY"
for cmd in "green" "green --toroidal" "dirichlet" "eigen" "coords inverse" "import flatring.cli"; do
  if [ "$cmd" = "import flatring.cli" ]; then
    argv=(python3 -c "$cmd")
  else
    read -ra words <<< "$cmd"
    argv=(python3 -m flatring.cli "${words[@]}")
  fi
  python3 - "$cmd" "${argv[@]}" >> "$GITHUB_STEP_SUMMARY" <<'EOF'
import statistics, subprocess, sys, time

times = []
for _ in range(3):
    start = time.perf_counter()
    subprocess.run(sys.argv[2:], check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    times.append(time.perf_counter() - start)
print(f"| `{sys.argv[1]}` | {statistics.median(times):.3f} |")
EOF
done
