#!/usr/bin/env bash
# Checks that the multi-threaded sweeps write byte-identical output at
# --threads 1 and --threads 4, and that the --threads 4 run leaves its
# heartbeat file (--progress):
#
#   sweep    replicated mra_scenarios runs of paper-phi4, once with LASS and
#            once with LASS-with-loan (the loan path shares each ask's
#            missing set between its ReqLoan records);
#   explore  the wave-sharded mra_explore fuzz sweep over the whole scenario
#            registry and every algorithm (the default), the three mutex
#            protocols (--mutex all) and the Chandy-Misra ring (--cm-ring).
#
# Usage: scripts/check_thread_invariance.sh BUILD_DIR OUT_DIR PART...
#   PART is sweep or explore. Outputs land in OUT_DIR.
# Under a -DMRA_SANITIZE=thread build, with TSAN_OPTIONS=halt_on_error=1,
# the same runs double as the race check of the thread pool and heartbeat.
set -euo pipefail

usage() {
  echo "usage: $0 BUILD_DIR OUT_DIR {sweep|explore}..." >&2
  exit 2
}
[ "$#" -ge 3 ] || usage
build="$1"
out="$2"
shift 2
mkdir -p "$out"

check_sweep() {
  local algo
  for algo in lass lass-loan; do
    "$build/mra_scenarios" --scenario paper-phi4 --algo "$algo" --quick \
      --reps 4 --ci --threads 4 --progress "$out/hb_sweep_$algo.json" \
      --json "$out/reps_${algo}_t4.json"
    "$build/mra_scenarios" --scenario paper-phi4 --algo "$algo" --quick \
      --reps 4 --ci --threads 1 --json "$out/reps_${algo}_t1.json"
    cmp "$out/reps_${algo}_t1.json" "$out/reps_${algo}_t4.json"
    test -f "$out/hb_sweep_$algo.json"
  done
}

check_explore() {
  "$build/mra_explore" --mutex all --cm-ring --seeds 4 --threads 4 \
    --progress "$out/hb_explore.json" --json "$out/sweep_t4.json"
  "$build/mra_explore" --mutex all --cm-ring --seeds 4 --threads 1 \
    --json "$out/sweep_t1.json"
  cmp "$out/sweep_t1.json" "$out/sweep_t4.json"
  test -f "$out/hb_explore.json"
}

for part in "$@"; do
  case "$part" in
    sweep) check_sweep ;;
    explore) check_explore ;;
    *) usage ;;
  esac
  echo "thread-count invariant: $part"
done
