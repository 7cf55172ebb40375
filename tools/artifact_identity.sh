#!/usr/bin/env bash
# Artifact identity between two builds: runs a fixed scenario list through
# both builds' autopipe_sim and requires every artifact — text trace, Chrome
# trace, decision ledger, time series and metrics — to be byte-identical.
# A change that must leave simulated results untouched (a host-side speed-up,
# a refactor) runs it against a build of its parent commit:
#
#   tools/artifact_identity.sh PARENT_BUILD CHANGE_BUILD
#
# Both arguments are CMake build directories holding tools/autopipe_sim.
# Prints one line per scenario and exits 0 when everything matches;
# otherwise names the first file that differs, keeps all artifacts for
# inspection and exits 1.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: tools/artifact_identity.sh PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent_bin="$1/tools/autopipe_sim"
change_bin="$2/tools/autopipe_sim"
for bin in "$parent_bin" "$change_bin"; do
  if [[ ! -x "$bin" ]]; then
    echo "artifact_identity: no autopipe_sim at $bin" >&2
    exit 2
  fi
done

out="$(mktemp -d)"
mkdir -p "$out/parent" "$out/change"
printf '%s\n' 'arbiter = auction' \
    'job = model=alexnet iterations=40' \
    'job = model=vgg16 iterations=20' > "$out/fleet.jobs"

scenarios=(vgg16-5x2-drop10 vgg16-3x2-drop2 resnet50-4x2-churn-faults
           vgg16-ps-dapple fleet-auction-churn-faults)

# Sets `args` to the autopipe_sim options of scenario $1.
scenario_args() {
  case "$1" in
    vgg16-5x2-drop10)
      args=(--model vgg16 --servers 5 --gpus-per-server 2 --bandwidth 25
            --iterations 300 --warmup 20 --bw-drop-iter 150
            --bw-drop-gbps 10) ;;
    vgg16-3x2-drop2)
      args=(--model vgg16 --servers 3 --gpus-per-server 2 --bandwidth 25
            --iterations 200 --warmup 20 --bw-drop-iter 100
            --bw-drop-gbps 2) ;;
    resnet50-4x2-churn-faults)
      args=(--model resnet50 --servers 4 --gpus-per-server 2
            --iterations 200 --warmup 20 --churn --faults random:seed=7) ;;
    vgg16-ps-dapple)
      args=(--model vgg16 --servers 3 --gpus-per-server 2 --scheme ps
            --schedule dapple --iterations 100 --warmup 10) ;;
    fleet-auction-churn-faults)
      args=(--servers 4 --gpus-per-server 2 "--jobs-spec=@$out/fleet.jobs"
            --churn --faults random:seed=7) ;;
  esac
}

for name in "${scenarios[@]}"; do
  scenario_args "$name"
  for side in parent change; do
    bin="$parent_bin"
    [[ "$side" == change ]] && bin="$change_bin"
    dir="$out/$side"
    "$bin" "${args[@]}" --trace "$dir/$name.trace" \
        --ledger "$dir/$name.ledger" --timeseries "$dir/$name.ts:0.1" \
        --metrics "$dir/$name.metrics.json" > "$dir/$name.log"
    "$bin" "${args[@]}" --trace "$dir/$name.trace.json" >> "$dir/$name.log"
  done
  for file in "$name.trace" "$name.trace.json" "$name.ledger" "$name.ts" \
              "$name.metrics.json"; do
    if ! cmp "$out/parent/$file" "$out/change/$file"; then
      echo "artifact_identity: $name: $file differs; artifacts kept in $out"
      exit 1
    fi
  done
  echo "identical  $name"
done
rm -rf "$out"
