#!/usr/bin/env sh
# Golden-digest gate: every virtual-time output the repository publishes
# must stay byte-identical across host-side optimizations. Runs the figure
# benches, the ablations, sec33_corewaste and app_hybrid at their default
# configuration, every figure bench on the multi-endpoint and multi-queue
# paths, each figure bench partitioned with simsan on, and the three
# hook-progress figures (fig6, fig7, fig9) partitioned with no timeline and
# no simsan -- the runs where the scheduler's dry idle-poll fast-forward is
# active; hashes stdout, CSV, metrics JSON and the Chrome-trace JSON of
# every run; and compares the hashes with the committed
# bench/golden_digests.txt.
#
# The .trace.bin of partitioned runs is not hashed: its ring packing and
# string-intern order depend on host thread interleaving (see
# bench/check_parallel.sh). Single-partition .trace.bin files are hashed.
#
# Usage: bench/check_golden.sh [build-dir] [--write]
#   --write   regenerate bench/golden_digests.txt instead of comparing.
#             Only do this for a change that is *meant* to move virtual
#             results, and say so in the change description.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build"
write=0
for a in "$@"; do
  case "$a" in
    --write) write=1 ;;
    *) build_dir=$a ;;
  esac
done
build_dir=$(CDPATH= cd -- "$build_dir" && pwd)
golden="$repo_root/bench/golden_digests.txt"
jobs=4  # runs executing at once

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

figs="fig3_locking fig5_concurrent fig6_pioman fig7_waiting fig8_affinity
      fig9_offload"
stdout_only="ablate_strategy ablate_spin_budget ablate_rdv_threshold
             ablate_collectives sec33_corewaste app_hybrid"

# One run: <name> <bench> [args...], executed in its own directory. Output
# file names are fixed because the benches echo the CSV path to stdout.
launched=0
run() {
  name=$1
  bench=$2
  shift 2
  mkdir -p "$tmp/$name"
  (cd "$tmp/$name" && "$build_dir/bench/$bench" "$@" > out.txt ||
     echo "$bench $*: exit $?" > "$tmp/$name.failed") &
  launched=$((launched + 1))
  if [ $((launched % jobs)) -eq 0 ]; then wait; fi
}
# Left unquoted where used: it splits into two arguments.
files="--csv=out.csv --metrics-out=metrics.json"

for b in $figs; do
  run "$b" "$b" $files
done
for b in $stdout_only; do
  run "$b" "$b"
done
# Multi-endpoint progress at N = 4 over one shared RX queue and over four
# per-endpoint rings: the blocking/stealing pass (fig3, fig5), PIOMan hook
# polls (fig6), passive and fixed-spin waits (fig7), per-endpoint poll
# threads (fig8) and the submission-only tasklet (fig9).
for b in $figs; do
  run "$b.ep4" "$b" --endpoints=4 $files
  run "$b.ep4.rxq4" "$b" --endpoints=4 --rx-queues=4 $files
done
for b in $figs; do
  run "$b.p2w2.simsan" "$b" --partitions=2 --workers=2 --simsan=on $files
done
# No --metrics-out (it attaches a timeline) and no simsan: both observers
# turn the idle fast-forward off, so these three runs are where it is gated.
for b in fig6_pioman fig7_waiting fig9_offload; do
  run "$b.p2w2" "$b" --partitions=2 --workers=2 --csv=out.csv
done
wait

if ls "$tmp"/*.failed > /dev/null 2>&1; then
  cat "$tmp"/*.failed >&2
  echo "check_golden: a run failed" >&2
  exit 1
fi

# Partitioned runs drop their .trace.bin before hashing (see header).
find "$tmp" -path '*.p2w2*' -name '*.trace.bin' -exec rm -f {} +
digests="$tmp/digests.txt"
(cd "$tmp" && find . -mindepth 2 -type f | sed 's|^\./||' | LC_ALL=C sort |
   xargs sha256sum) > "$digests"

if [ "$write" -eq 1 ]; then
  cp "$digests" "$golden"
  echo "check_golden: wrote $(wc -l < "$golden") digests to $golden"
  exit 0
fi
if ! diff -u "$golden" "$digests"; then
  echo "check_golden: outputs differ from bench/golden_digests.txt" >&2
  exit 1
fi
echo "check_golden: $(wc -l < "$golden") outputs match the golden digests"
