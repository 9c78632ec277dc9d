#!/usr/bin/env bash
# End-to-end time-to-answer benchmark (README.md in this directory).
#
# One workload run (what BENCHMARK.json's command does):
#   bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--label NAME]
# Every workload, K seeds each, into one result set:
#   bench/e2e/run.sh [--seed N] [--seconds S] [--runs K] [--label NAME] [--trace]
#
# Workloads: paper_scale toy_campaign mlecd_mix ec_rebuild.
#
# It first builds bench/e2e as a standalone Release project into build-e2e/
# at the repository root (incremental after the first run); build output
# goes to stderr. A single run's last stdout line is its JSON result. Result
# files land in build-e2e/results/<label>/<workload>-seed<N>.json (label
# "single" for a single run without --label), traces in build-e2e/traces/.
# With --trace, the all-workloads mode reruns each workload traced after its
# untraced runs and prints the per-layer table and the tracing overhead
# (traced minus untraced, same seed).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"
all_workloads=(paper_scale toy_campaign mlecd_mix ec_rebuild)

usage() { sed -n '2,18p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'; }

workload="" seed=1 seconds=20 trace="" runs=1 label=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ $# -gt 1 && "$2" =~ ^[01]$ ]]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --runs) runs="$2"; shift 2 ;;
    --label) label="$2"; shift 2 ;;
    -h|--help) usage; exit 0 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; usage >&2; exit 2 ;;
  esac
done

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: $root holds no mlec++ sources (CMakeLists.txt, src/) to benchmark" >&2
  exit 2
fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target bench_e2e -j "$(nproc)" >&2

commit=unknown
if [[ -e "$root/.git" ]]; then
  commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi

# run_one WORKLOAD SEED TRACE RESULT_DIR [BASELINE_RESULT]
#
# A process that hangs past its time limit or dies by a signal is run once
# more with the same arguments, because of the ThreadPool defect described
# in README.md ("Known defect"); a run whose answers fail their checks
# (exit 1) is never rerun.
run_one() {
  local args=(--workload "$1" --seed "$2" --seconds "$seconds" --trace "$3"
              --repo-root "$root" --work-dir "$build/work" --commit "$commit"
              --out "$4/$1-seed$2.json")
  mkdir -p "$4" "$build/traces"
  if [[ "$3" == 1 ]]; then args+=(--trace-out "$build/traces/$1-seed$2.json"); fi
  if [[ $# -ge 5 ]]; then args+=(--baseline "$5"); fi
  local limit=$(( ${seconds%.*} + 40 )) status=0 attempt
  for attempt in 1 2; do
    status=0
    timeout -k 5 "$limit" "$build/bench_e2e" "${args[@]}" || status=$?
    if (( status < 124 )); then return "$status"; fi
    echo "run.sh: bench_e2e $1 seed $2 hung or died (status $status), attempt $attempt of 2" >&2
  done
  return "$status"
}

if [[ -n "$workload" ]]; then
  run_one "$workload" "$seed" "${trace:-0}" "$build/results/${label:-single}"
  exit
fi

label="${label:-$(date +%Y%m%d-%H%M%S)}"
out="$build/results/$label"
status=0
for w in "${all_workloads[@]}"; do
  for ((r = 0; r < runs; r++)); do
    run_one "$w" $((seed + r)) 0 "$out" || status=1
    echo
  done
  if [[ "$trace" == 1 ]]; then
    run_one "$w" "$seed" 1 "$out-traced" "$out/$w-seed$seed.json" || status=1
    echo
  fi
done
echo "result set: $out"
if [[ "$trace" == 1 ]]; then echo "traced results: $out-traced, traces: $build/traces"; fi
exit "$status"
