#!/usr/bin/env sh
# One-command pre-merge gate: build + tests + sanitizers + lint + simsan
# selfcheck, in that order (fastest signal first, most expensive last).
#
#   1. regular build + full ctest suite        (./build)
#   2. golden digests + simsan selfcheck + construction-work gate + fig3
#      analysis check (same tree; published outputs byte-identical to
#      bench/golden_digests.txt, seeded racy / deadlocky scenarios caught,
#      no per-instrument string work on a world re-build, kNone must race,
#      kCoarse clean)
#   3. clang-tidy lint                          (skips if not installed)
#   4. ASan/UBSan + TSan suites                 (separate build trees)
#
# Usage: bench/check_all.sh [build-dir]   (default: ./build)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

echo "== [1/4] build + ctest =="
cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j"$(nproc)"
ctest --test-dir "$build_dir" -j"$(nproc)" --output-on-failure

echo "== [2/4] golden digests + simsan selfcheck + construction work + parallel smoke + trace + explore gates =="
# Every figure/ablation/app output must hash to the committed digests:
# host-side optimizations may not move a virtual-time byte.
ctest --test-dir "$build_dir" -R '^golden_digest$' --output-on-failure
ctest --test-dir "$build_dir" -R simsan_selfcheck --output-on-failure
# Construction-work gate: a second world build registers nothing new and
# hashes at most one label string per node (its machine name).
ctest --test-dir "$build_dir" -R '^construction_work$' --output-on-failure
"$build_dir"/bench/fig3_locking --iters=5 --warmup=1 --simsan=on > /dev/null
# Partitioned engine smoke: two partitions on two host workers must run the
# same bench clean (the byte-identity gate proper is ctest
# `parallel_byte_identity`, part of stage 1).
"$build_dir"/bench/fig3_locking --iters=5 --warmup=1 --simsan=on \
  --partitions=2 --workers=2 > /dev/null
# Binary-telemetry hot-path gate (traced pingpong must stay within 3% of
# untraced) and converter smoke: a figure bench writes the binary trace log,
# trace2json converts it offline, and the result must be byte-identical to
# the JSON the run rendered online.
ctest --test-dir "$build_dir" -R '^trace_overhead$' --output-on-failure
trace_tmp=$(mktemp -d)
trap 'rm -rf "$trace_tmp"' EXIT INT TERM
"$build_dir"/bench/fig3_locking --iters=5 --warmup=1 \
  --metrics-out="$trace_tmp/metrics.json" > /dev/null
"$build_dir"/tools/trace2json "$trace_tmp/metrics.json.trace.bin" \
  "$trace_tmp/converted.trace.json"
cmp "$trace_tmp/metrics.json.trace.json" "$trace_tmp/converted.trace.json" || {
  echo "check_all: trace2json output differs from online .trace.json" >&2
  exit 1
}
# Schedule-exploration gate: the explore_selfcheck ctest (injected race,
# baseline containment, livelock certification) plus a budgeted fig3 sweep
# at preemption bound 2 -- kNone must keep its race sites across the
# explored space, the locked modes must stay clean -- summarized offline
# by tools/explore_report from the emitted JSON.
ctest --test-dir "$build_dir" -R '^explore_selfcheck$' --output-on-failure
"$build_dir"/bench/fig3_locking --iters=5 --warmup=1 --explore=2 \
  --explore-budget=12 --explore-out="$trace_tmp/explore.json" > /dev/null
"$build_dir"/tools/explore_report "$trace_tmp/explore.json"

echo "== [3/4] lint =="
"$repo_root"/bench/check_lint.sh

echo "== [4/4] sanitizers =="
"$repo_root"/bench/check_sanitize.sh

echo "check_all: all gates clean"
