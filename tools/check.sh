#!/usr/bin/env bash
# One-shot health check, and the one definition of every check CI runs:
# configure, build, run the full test suite, then one smoke per subsystem
# (the chaos harnesses, the trace analyzer, the decision ledger with every
# figure and ablation bench, the gated sweep, heap-vs-wheel parity,
# telemetry, the co-tenant fleet and causal blame). .github/workflows/ci.yml
# runs it three ways: plain, with CMAKE_BUILD_TYPE=Debug and with
# --sanitize. Run from anywhere; exits non-zero on the first failure.
#
# Each smoke writes its files to $build/check-out/<smoke>/, recreated when
# the smoke starts and kept afterwards for inspection.
#
#   tools/check.sh                # plain RelWithDebInfo build, -Werror as CI
#   CMAKE_BUILD_TYPE=Debug tools/check.sh  # Debug, if build/ is new
#   tools/check.sh --sanitize     # ASan+UBSan build in build-asan/
#   tools/check.sh --ledger-smoke # build + ledger & bench smoke only
#   tools/check.sh --sweep-smoke  # build + baseline-gated sweep only (fast)
#   tools/check.sh --parity       # build + heap-vs-wheel differential only
#   tools/check.sh --telemetry    # build + time-series/profiler smoke only
#   tools/check.sh --chaos-switch # build + mid-switch crash-point matrix only
#   tools/check.sh --causal       # build + causal blame & overhead gate only
#   tools/check.sh --cotenancy    # build + baseline-gated co-tenant fleet only
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${BUILD_DIR:-$repo/build}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake_args=(-DAUTOPIPE_WERROR=ON)
only=""  # the one smoke a mode flag runs instead of the whole check
case "${1:-}" in
  "") ;;
  --sanitize)
    build="${BUILD_DIR:-$repo/build-asan}"
    cmake_args=(-DAUTOPIPE_SANITIZE=ON)
    export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
    ;;
  --ledger-smoke) only=ledger_smoke ;;
  --sweep-smoke) only=sweep_smoke ;;
  --parity) only=parity_smoke ;;
  --telemetry) only=telemetry_smoke ;;
  --chaos-switch) only=chaos_switch_smoke ;;
  --causal) only=causal_smoke ;;
  --cotenancy) only=cotenancy_smoke ;;
  *)
    echo "usage: tools/check.sh [--sanitize|--ledger-smoke|--sweep-smoke|--parity|--telemetry|--chaos-switch|--causal|--cotenancy]" >&2
    exit 2
    ;;
esac

# Recreate the directory one smoke writes its files to, and print it.
smoke_dir() {
  local dir="$build/check-out/$1"
  rm -rf "$dir"
  mkdir -p "$dir"
  echo "$dir"
}

# A host-time gate measures the program only in an optimized build. In a
# Debug or sanitized build tree (as its CMakeCache.txt records it) print
# `skipped in <kind> build: <gate>` and succeed; otherwise fail, so that
# `skip_host_time_gate GATE && return` runs the gate.
skip_host_time_gate() {
  local cache="$build/CMakeCache.txt" kind=""
  if grep -q '^AUTOPIPE_SANITIZE:[A-Z]*=ON$' "$cache"; then
    kind=sanitized
  elif grep -qi '^CMAKE_BUILD_TYPE:STRING=Debug$' "$cache"; then
    kind=Debug
  fi
  [[ -n "$kind" ]] || return 1
  echo "skipped in $kind build: $1"
}

# Decision ledger and bench smoke. A deterministic controller scenario runs
# with the ledger on; its calibration report is the one source of
# bench/history/decisions.jsonl. Every figure and ablation bench then runs
# with --trace, --ledger and --profile: no bench may write one file twice,
# each must write a profile and, if it simulates, a ledger (fig12_solver_time
# only times the planner). Every ledger must reach a terminal outcome per
# record and round-trip through the reader byte for byte
# (autopipe_trace decisions --check). Last, one full micro-benchmark run.
ledger_smoke() {
  echo "== ledger smoke =="
  local out b name repeated ledger status=0
  out="$(smoke_dir ledger)"
  "$build/tools/autopipe_sim" --model vgg16 --iterations 150 \
      --bw-drop-iter 60 --bw-drop-gbps 5 \
      --trace "$out/autopipe_sim.trace" --ledger "$out/autopipe_sim.ledger" \
      > /dev/null
  "$build/tools/autopipe_trace" calibration "$out/autopipe_sim.ledger" \
      "$out/autopipe_sim.trace" --json > "$out/BENCH_decisions.json"

  for b in "$build"/bench/fig* "$build"/bench/ablation_*; do
    name="$(basename "$b")"
    "$b" --trace="$out/$name.trace" --ledger="$out/$name.ledger" \
        --profile="$out/$name.prof" > "$out/$name.log"
    # Every run is labelled, so each trace and ledger path a bench prints
    # names a file no other run of that bench writes.
    repeated="$(sed -nE 's/^(trace|ledger): .* -> //p' "$out/$name.log" |
                sort | uniq -d)"
    if [[ -n "$repeated" ]]; then
      printf '%s wrote these files more than once:\n%s\n' "$name" "$repeated"
      status=1
    fi
    if [[ ! -s "$out/$name.prof" ]]; then
      echo "$name wrote no --profile file"
      status=1
    fi
    if [[ "$name" != fig12_solver_time ]] &&
       ! compgen -G "$out/$name.*ledger" > /dev/null; then
      echo "$name wrote no --ledger file"
      status=1
    fi
  done
  [[ "$status" == 0 ]] || exit 1
  for ledger in "$out"/*.ledger; do
    "$build/tools/autopipe_trace" decisions "$ledger" --check
  done > "$out/decisions_check.log"
  echo "$(wc -l < "$out/decisions_check.log") ledgers round-trip"
  "$build/tools/autopipe_trace" calibration \
      "$out/fig9_dynamic_bandwidth.autopipe.ledger" \
      > "$out/fig9_dynamic_bandwidth.calibration.txt"
  "$build/tools/autopipe_trace" calibration \
      "$out/fig9_dynamic_bandwidth.autopipe.ledger" \
      "$out/fig9_dynamic_bandwidth.autopipe.trace" --json \
      > "$out/fig9_dynamic_bandwidth.calibration.json"
  "$build/bench/micro_benchmarks" > "$out/micro_benchmarks.log"
  "$repo/tools/bench_history.sh" "$out/BENCH_decisions.json"
}

# Heap-vs-wheel differential: the same chaos scenarios through the binary
# heap (reference) and the timing wheel (candidate) must produce
# byte-identical traces, ledgers, metrics and iteration timelines. On
# divergence the harness drops per-seed artifacts in the smoke's directory
# (see docs/SIMULATOR.md).
parity_smoke() {
  echo "== parity smoke =="
  local out
  out="$(smoke_dir parity)"
  "$build/bench/parity_harness" --seeds=12 --jobs=4 --artifacts="$out"
}

# The committed smoke sweep, with host timing and every scenario's
# artifacts, gated against its committed baseline,
# bench/baselines/sweep_smoke_baseline.json (the bound and how to regenerate
# the baseline: docs/BENCHMARKS.md, "Gates").
sweep_smoke() {
  echo "== sweep smoke =="
  local out
  out="$(smoke_dir sweep)"
  "$build/tools/autopipe_sweep" --spec="@$repo/bench/sweeps/smoke.sweep" \
      --jobs=4 --out="$out/BENCH_sweep.json" --timing --artifacts="$out"
  "$build/tools/autopipe_trace" gate "$out/BENCH_sweep.json" \
      "$repo/bench/baselines/sweep_smoke_baseline.json"
  "$repo/tools/bench_history.sh" "$out/BENCH_sweep.json"
}

# Co-tenant fleet smoke: the 4-job mixed-model fleets with one injected
# preemption must commit exactly one winning reconfiguration for the
# preempted GPU under every arbiter policy (the bench exits non-zero
# otherwise), and fleet throughput is gated against the committed
# bench/baselines/cotenancy_baseline.json (docs/BENCHMARKS.md, "Gates").
# The ctest invariant suite behind the same subsystem carries the label
# `cotenancy` (ctest -L cotenancy).
cotenancy_smoke() {
  echo "== cotenancy smoke =="
  local out
  out="$(smoke_dir cotenancy)"
  "$build/bench/cotenancy_fleet" --out="$out/BENCH_cotenancy.json"
  "$build/tools/autopipe_trace" gate "$out/BENCH_cotenancy.json" \
      "$repo/bench/baselines/cotenancy_baseline.json"
  "$repo/tools/bench_history.sh" "$out/BENCH_cotenancy.json"
}

# Mid-switch crash-point matrix: every (switch mode x protocol phase x
# fault kind) cell gets a deterministic fault fired at that phase boundary;
# each run must conserve per-layer weights across abort/rollback/retry,
# land in a consistent layout, resolve every attempt in the ledger, and
# replay byte-identically heap-vs-wheel (see docs/FAULTS.md). Violating
# cells leave their artifacts in the smoke's directory.
chaos_switch_smoke() {
  echo "== chaos-switch smoke =="
  local out
  out="$(smoke_dir chaos-switch)"
  "$build/bench/chaos_switch" --seeds=10 --artifacts="$out" \
      > "$out/chaos_switch.log"
}

# Telemetry smoke: a churny run with the metric time-series sampler and the
# host self-profiler on, every `autopipe_trace timeseries`/`profile` surface
# exercised (the folded stacks kept), and planner decide-round time gated
# against the committed bench/baselines/telemetry_planner_baseline.json
# (docs/BENCHMARKS.md, "Gates").
telemetry_smoke() {
  echo "== telemetry smoke =="
  local out
  out="$(smoke_dir telemetry)"
  "$build/tools/autopipe_sim" --model vgg16 --iterations 120 \
      --bw-drop-iter 30 --bw-drop-gbps 10 \
      --timeseries "$out/run.ts:0.5" --profile "$out/run.prof" \
      > "$out/run.log"
  "$build/tools/autopipe_trace" timeseries "$out/run.ts"
  "$build/tools/autopipe_trace" timeseries "$out/run.ts" --json \
      > "$out/BENCH_timeseries.json"
  "$repo/tools/bench_history.sh" "$out/BENCH_timeseries.json"
  "$build/tools/autopipe_trace" profile "$out/run.prof" --top=10
  "$build/tools/autopipe_trace" profile "$out/run.prof" --flame \
      > "$out/run.folded"
  "$build/tools/autopipe_trace" profile "$out/run.prof" --json \
      > "$out/profile.json"
  skip_host_time_gate "planner per-round gate" && return
  "$build/tools/autopipe_trace" gate "$out/profile.json" \
      "$repo/bench/baselines/telemetry_planner_baseline.json"
}

# Wall time in ns of one run of the fat-capture churn micro-benchmark, the
# simulator hot path the causal bookkeeping rides on. The arguments run the
# micro_benchmarks binary.
churn_ns() {
  "$@" --benchmark_filter='^BM_SimulatorFatCaptureChurn$' 2> /dev/null |
    awk '/^BM_SimulatorFatCaptureChurn /{print $2}'
}

# Causality smoke: `autopipe_trace blame` must walk the event DAG from a
# slow window back to the injected disturbance, and the causal bookkeeping
# must stay off the hot path — the churn bench with tracing compiled in
# (but runtime-disabled) is gated within AUTOPIPE_CAUSAL_TOL (default 10%)
# of an AUTOPIPE_TRACING=OFF build, where the eid/cause fields do not
# exist at all (the 0%-when-off half of the contract). See docs/TRACING.md.
causal_smoke() {
  echo "== causal smoke =="
  local out
  out="$(smoke_dir causal)"

  # The committed golden bandwidth-drop scenario: the injected NIC
  # bandwidth cut must root the dominant delay chain.
  "$build/tools/autopipe_trace" blame \
      "$repo/tests/golden/bandwidth_drop.trace" > "$out/golden.blame"
  grep -q "root cause: resource:resource_event" "$out/golden.blame"

  # A live instrumented vgg16 bandwidth-drop run with a hard link outage
  # at t=5..7: blame on the recovery window must name the injected link
  # fault and charge the outage in the stall ledger.
  "$build/tools/autopipe_sim" --model vgg16 --system even --iterations 40 \
      --bw-drop-iter 30 --bw-drop-gbps 10 \
      --faults "5.0 link_down 1;7.0 link_up 1" \
      --trace "$out/run.trace" > /dev/null
  "$build/tools/autopipe_trace" blame "$out/run.trace" --window=7.0..8.5 \
      | tee "$out/run.blame"
  grep -q "root cause: fault:link_down" "$out/run.blame"
  grep -q "link_outage" "$out/run.blame"
  "$build/tools/autopipe_trace" blame "$out/run.trace" --iteration=2 \
      > /dev/null
  "$build/tools/autopipe_trace" blame "$out/run.trace" --json > /dev/null

  skip_host_time_gate "causal overhead gate" && return
  echo "== causal overhead gate =="
  local notrace="${NOTRACE_BUILD_DIR:-$repo/build-notrace}"
  cmake -B "$notrace" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DAUTOPIPE_TRACING=OFF > /dev/null
  cmake --build "$notrace" -j "$jobs" --target micro_benchmarks > /dev/null
  # Host noise moves single readings by ±20%, so the gate reads the median
  # traced / compiled-out ratio of 11 pairs run back to back, alternating
  # which binary goes first, on one pinned CPU where taskset can pin.
  local on="$build/bench/micro_benchmarks" off="$notrace/bench/micro_benchmarks"
  local tol="${AUTOPIPE_CAUSAL_TOL:-0.10}" pin=() i on_ns off_ns
  if command -v taskset > /dev/null && taskset -c 2 true 2> /dev/null; then
    pin=(taskset -c 2)
  fi
  echo "fat-capture churn, traced vs compiled-out, 11 pairs" \
       "${pin[*]:-(not pinned)}:"
  for i in 1 2 3 4 5 6 7 8 9 10 11; do
    if (( i % 2 )); then
      on_ns="$(churn_ns "${pin[@]}" "$on")"
      off_ns="$(churn_ns "${pin[@]}" "$off")"
    else
      off_ns="$(churn_ns "${pin[@]}" "$off")"
      on_ns="$(churn_ns "${pin[@]}" "$on")"
    fi
    echo "$on_ns $off_ns"
  done | tee "$out/churn_pairs.txt" | awk -v tol="$tol" '
    { printf "  %s vs %s ns\n", $1, $2 }
    NF == 2 && $2 > 0 { r[++n] = $1 / $2 }
    END {
      if (n != 11) {
        print "causal overhead gate: missing benchmark readings"; exit 1
      }
      for (i = 2; i <= n; i++)
        for (j = i; j > 1 && r[j - 1] > r[j]; j--) {
          t = r[j]; r[j] = r[j - 1]; r[j - 1] = t
        }
      printf "median ratio %.3f (pairs %.3f..%.3f), tolerance %s\n",
             r[6], r[1], r[n], tol
      if (r[6] > 1 + tol) {
        printf "causal overhead gate: %.1f%% over compiled out, bound %.0f%%\n",
               (r[6] - 1) * 100, tol * 100
        exit 1
      }
    }'
}

echo "== configure =="
cmake -B "$build" -S "$repo" "${cmake_args[@]}"

echo "== build =="
cmake --build "$build" -j "$jobs"

if [[ -n "$only" ]]; then
  "$only"
  echo "OK"
  exit 0
fi

echo "== test =="
ctest --test-dir "$build" --output-on-failure -j "$jobs"

echo "== chaos smoke =="
chaos_out="$(smoke_dir chaos)"
"$build/bench/chaos_faults" --seeds=10 > "$chaos_out/chaos_faults.log"

chaos_switch_smoke

echo "== analyzer smoke =="
# Every trace subcommand on the golden trace, plain and --json where it
# takes it.
for sub in summary bubbles critical-path switches gantt blame; do
  "$build/tools/autopipe_trace" "$sub" \
      "$repo/tests/golden/bandwidth_drop.trace" > /dev/null
  [[ "$sub" == gantt ]] ||
    "$build/tools/autopipe_trace" "$sub" \
        "$repo/tests/golden/bandwidth_drop.trace" --json > /dev/null
done
# A trace without causal ids cannot be blamed: exit 1 and one line why.
status=0
err="$("$build/tools/autopipe_trace" blame \
    "$repo/tests/golden/bandwidth_drop_precausal.trace" 2>&1 > /dev/null)" ||
  status=$?
[[ "$status" == 1 && "$err" == *"carries no causal ids"* &&
   "$(wc -l <<< "$err")" == 1 ]] ||
  { echo "analyzer smoke: pre-causal blame exited $status: $err" >&2; exit 1; }
"$build/tools/autopipe_trace" diff \
    "$repo/tests/golden/bandwidth_drop.trace" \
    "$repo/tests/golden/bandwidth_drop.trace" --json > /dev/null
# A malformed or non-finite option value is a usage error (exit 2), not a
# silent zero or a tolerance that every difference meets.
for bad in --top=abc --tolerance=nan; do
  status=0
  "$build/tools/autopipe_trace" diff "$bad" \
      "$repo/tests/golden/bandwidth_drop.trace" \
      "$repo/tests/golden/replicated_ring.trace" 2> /dev/null || status=$?
  [[ "$status" == 2 ]] ||
    { echo "analyzer smoke: $bad exited $status" >&2; exit 1; }
done
# An unknown subcommand is a usage error before any file is opened.
status=0
err="$("$build/tools/autopipe_trace" bogus /nonexistent.trace 2>&1)" ||
  status=$?
[[ "$status" == 2 && "$err" == "unknown subcommand 'bogus'"* ]] ||
  { echo "analyzer smoke: unknown subcommand exited $status: $err" >&2
    exit 1; }
# A run that fails (here a pipeline deadlock behind a link that never comes
# back) exits 1 with one autopipe_sim: line, not through terminate.
status=0
err="$("$build/tools/autopipe_sim" --model alexnet --servers 2 \
    --gpus-per-server 1 --iterations 20 --warmup 5 --system pipedream \
    --faults "1.0 link_down 0" 2>&1 > /dev/null)" || status=$?
[[ "$status" == 1 && "$err" == "autopipe_sim: "* &&
   "$(wc -l <<< "$err")" == 1 ]] ||
  { echo "analyzer smoke: failed run exited $status: $err" >&2; exit 1; }

ledger_smoke

sweep_smoke

parity_smoke

telemetry_smoke

cotenancy_smoke

causal_smoke

echo "OK"
