#!/usr/bin/env bash
# Append BENCH_*.json reports to the perf trajectory under bench/history/.
#
# Each report becomes one JSON line in bench/history/<stem>.jsonl (stem =
# basename without the BENCH_ prefix and .json suffix), stamped with the
# UTC time and the current commit so perf trends stay queryable across
# PRs:
#
#   tools/bench_history.sh BENCH_sweep.json [BENCH_decisions.json ...]
#
# Re-appending the same report at the same commit, host timing aside, is a
# no-op (check.sh re-runs must not grow the files), and a missing python3
# degrades to a skip with a warning instead of failing the calling check —
# the history is an accumulation step, never a gate. See docs/BENCHMARKS.md.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
history_dir="${AUTOPIPE_BENCH_HISTORY_DIR:-$repo/bench/history}"

if [[ $# -lt 1 ]]; then
  echo "usage: tools/bench_history.sh BENCH_report.json ..." >&2
  exit 2
fi

if ! command -v python3 > /dev/null 2>&1; then
  echo "bench_history: python3 not found; skipping history append" >&2
  exit 0
fi

commit="$(git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo unknown)"
mkdir -p "$history_dir"

for report in "$@"; do
  if [[ ! -f "$report" ]]; then
    echo "bench_history: no such report '$report'; skipping" >&2
    continue
  fi
  HIST_DIR="$history_dir" COMMIT="$commit" python3 - "$report" <<'PY'
import json, os, sys, datetime

report = sys.argv[1]
stem = os.path.basename(report)
if stem.startswith("BENCH_"):
    stem = stem[len("BENCH_"):]
if stem.endswith(".json"):
    stem = stem[: -len(".json")]
out = os.path.join(os.environ["HIST_DIR"], stem + ".jsonl")

try:
    with open(report) as f:
        data = json.load(f)
except (OSError, ValueError) as e:
    print(f"bench_history: cannot parse '{report}': {e}", file=sys.stderr)
    sys.exit(0)  # accumulation step, never a gate

commit = os.environ["COMMIT"]
entry = {
    "schema": "autopipe-bench-history-v1",
    "commit": commit,
    "utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "report": os.path.basename(report),
    "data": data,
}

def simulated(d):
    """The report without its host timing (the sweep's `--timing` section),
    which differs on every run of the same commit."""
    return {k: v for k, v in d.items() if k != "timing"} \
        if isinstance(d, dict) else d

# Same report at the same commit: replace nothing, append nothing.
try:
    with open(out) as f:
        lines = f.readlines()
    if lines:
        last = json.loads(lines[-1])
        if last.get("commit") == commit and \
                simulated(last.get("data")) == simulated(data):
            print(f"bench_history: {stem} already recorded at {commit}")
            sys.exit(0)
except FileNotFoundError:
    pass
except ValueError:
    pass  # corrupt tail: append a fresh, well-formed line after it

with open(out, "a") as f:
    f.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
print(f"bench_history: appended {stem} at {commit} -> {out}")
PY
done
