#!/usr/bin/env bash
# Single entry point for the correctness tooling gate.
#
# Runs, in order:
#   1. tools/lint.py + tools/analyze.py       (project lint + lock analyzer)
#   2. plain build + ctest                    (tier-1)
#   3. bench_micro smoke                      (one short pass, JSON discarded)
#   4. paperbench Release smoke               (each workload's answer checks)
#   5. clang -Wthread-safety -Werror build    (skipped if clang++ missing)
#   6. clang-tidy over src/                   (skipped if clang-tidy missing)
#   7. ctest under SPHERE_DEADLOCK=ON         (runtime lockdep; any rank or
#      lock-order violation aborts the offending test)
#   8. ctest under ASan, UBSan, TSan          (SPHERE_SANITIZE matrix)
#
# Usage: tools/check.sh [--fast]
#   --fast   lint + plain build/test only (skip paperbench, lockdep and the
#            sanitizer matrix)
#
# Each stage builds into its own tree under build-check/ so repeated runs are
# incremental. Exits non-zero on the first failing stage.

set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
FAST=0
[ "${1:-}" = "--fast" ] && FAST=1

failures=0
skipped=()

note()  { printf '\n==== %s ====\n' "$*"; }
fail()  { printf 'FAILED: %s\n' "$*" >&2; failures=$((failures + 1)); }

run_ctest_tree() {
  # $1 = build dir, $2.. = extra cmake args
  local dir="$1"; shift
  cmake -S "$ROOT" -B "$dir" "$@" > "$dir-configure.log" 2>&1 \
    || { fail "configure $dir (see $dir-configure.log)"; return 1; }
  cmake --build "$dir" -j "$JOBS" > "$dir-build.log" 2>&1 \
    || { fail "build $dir (see $dir-build.log)"; return 1; }
  (cd "$dir" && ctest --output-on-failure -j "$JOBS") > "$dir-ctest.log" 2>&1 \
    || { fail "ctest $dir (see $dir-ctest.log)"; return 1; }
  echo "OK: $dir"
}

mkdir -p "$ROOT/build-check"

note "1/8 project lint + analyzer"
python3 "$ROOT/tools/lint.py" || fail "tools/lint.py"
python3 "$ROOT/tools/analyze.py" || fail "tools/analyze.py"

note "2/8 tier-1 build + tests"
run_ctest_tree "$ROOT/build-check/plain"

note "3/8 bench_micro smoke"
# One abbreviated pass over every benchmark so a bench that crashes or aborts
# (e.g. a pipeline regression tripping its result check) fails the gate. The
# JSON goes into build-check/ so the committed BENCH_micro.json is untouched;
# bench_check.py then diffs the two and fails if any committed ablation has
# regressed by more than 2x in the current tree.
if [ -x "$ROOT/build-check/plain/bench/bench_micro" ]; then
  "$ROOT/build-check/plain/bench/bench_micro" \
    --benchmark_min_time=0.01 \
    --benchmark_out="$ROOT/build-check/BENCH_micro.smoke.json" \
    > "$ROOT/build-check/bench-smoke.log" 2>&1 \
    || fail "bench_micro smoke (see build-check/bench-smoke.log)"
  python3 "$ROOT/tools/bench_check.py" "$ROOT/BENCH_micro.json" \
    "$ROOT/build-check/BENCH_micro.smoke.json" \
    || fail "bench_check.py: committed BENCH_micro.json regressed >2x"
else
  note "3/8 bench_micro smoke (skipped: binary not built)"
  skipped+=("bench-smoke")
fi

# MaxCon front-end gate: the committed BENCH_maxcon.json must show the
# event-driven proxy holding >= 80% of peak throughput at 8 x workers
# sessions, with session rejections observable past MaxCon. A short smoke run
# also proves the bench itself still completes (it deadlocked once).
if [ -f "$ROOT/BENCH_maxcon.json" ]; then
  python3 "$ROOT/tools/bench_check.py" --maxcon "$ROOT/BENCH_maxcon.json" \
    || fail "bench_check.py --maxcon: committed BENCH_maxcon.json fails the C10K gate"
else
  note "3/8 maxcon gate (skipped: BENCH_maxcon.json not committed)"
  skipped+=("maxcon-gate")
fi
if [ -x "$ROOT/build-check/plain/bench/bench_fig15_maxcon" ]; then
  SPHERE_BENCH_FAST=1 timeout 600 "$ROOT/build-check/plain/bench/bench_fig15_maxcon" \
    "$ROOT/build-check/BENCH_maxcon.smoke.json" \
    > "$ROOT/build-check/maxcon-smoke.log" 2>&1 \
    || fail "bench_fig15_maxcon smoke (see build-check/maxcon-smoke.log)"
fi

# MVCC read/write-mix gate: the committed BENCH_rwmix.json must show mvcc
# readers at 8 writers holding >= 3x the latch lane's throughput and >= 90%
# of their own 0-writer baseline, with an allocation-free read path. A short
# smoke run proves the bench still completes (its latch lane deliberately
# convoys readers behind writer durability windows — a lock bug here hangs).
if [ -f "$ROOT/BENCH_rwmix.json" ]; then
  python3 "$ROOT/tools/bench_check.py" --rwmix "$ROOT/BENCH_rwmix.json" \
    || fail "bench_check.py --rwmix: committed BENCH_rwmix.json fails the snapshot-read gate"
else
  note "3/8 rwmix gate (skipped: BENCH_rwmix.json not committed)"
  skipped+=("rwmix-gate")
fi
if [ -x "$ROOT/build-check/plain/bench/bench_fig_rwmix" ]; then
  SPHERE_BENCH_FAST=1 timeout 600 "$ROOT/build-check/plain/bench/bench_fig_rwmix" \
    "$ROOT/build-check/BENCH_rwmix.smoke.json" \
    > "$ROOT/build-check/rwmix-smoke.log" 2>&1 \
    || fail "bench_fig_rwmix smoke (see build-check/rwmix-smoke.log)"
fi

if [ "$FAST" -eq 1 ]; then
  note "4/8 paperbench Release smoke (skipped: --fast)"
  skipped+=("paperbench")
else
  # End-to-end transparency check: run.py builds the paper-scenario benchmark
  # in Release under .bench_build/ and every workload checks its answers
  # (exact rows, sums, order). Exit 3 means too few samples in the short
  # window: reported as skipped, never as passed. The proxy workload runs
  # about 150 ops/s, so it gets 10 s to collect the ~1000 samples its p99
  # guard needs.
  note "4/8 paperbench Release smoke"
  for w in read_only_cpu write_only_cpu read_write_proxy_lan; do
    log="$ROOT/build-check/paperbench-$w.log"
    seconds=5
    [ "$w" = read_write_proxy_lan ] && seconds=10
    python3 "$ROOT/paperbench/run.py" --workload "$w" --seed 1 \
      --seconds "$seconds" --trace 0 > "$log" 2>&1
    rc=$?
    if grep -q '"correct": false' "$log"; then
      fail "paperbench $w: wrong answer (see $log)"
    elif [ "$rc" -eq 3 ]; then
      echo "paperbench $w: too few samples (exit 3), skipped"
      skipped+=("paperbench-$w")
    elif [ "$rc" -ne 0 ]; then
      fail "paperbench $w: exit $rc (see $log)"
    else
      echo "OK: paperbench $w"
    fi
  done
fi

if command -v clang++ >/dev/null 2>&1; then
  note "5/8 clang -Wthread-safety -Werror"
  run_ctest_tree "$ROOT/build-check/thread-safety" \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_CXX_FLAGS="-Wthread-safety -Werror=thread-safety"
else
  note "5/8 clang -Wthread-safety (skipped: clang++ not installed)"
  skipped+=("thread-safety")
fi

if command -v clang-tidy >/dev/null 2>&1; then
  note "6/8 clang-tidy"
  find "$ROOT/src" -name '*.cc' -print0 \
    | xargs -0 -P "$JOBS" -n 1 clang-tidy -p "$ROOT/build-check/plain" \
    || fail "clang-tidy"
  # Header-only templates get no TU of their own; tidy them standalone so the
  # template bodies are analyzed even where no src/*.cc instantiates a path.
  for hdr in src/common/lru_cache.h \
             src/core/param_slice.h \
             src/engine/scan_cursor.h \
             src/engine/topk.h \
             src/engine/row_dedup.h; do
    clang-tidy "$ROOT/$hdr" -- -std=c++20 -I"$ROOT/src" -I"$ROOT" \
      || fail "clang-tidy $hdr"
  done
else
  note "6/8 clang-tidy (skipped: clang-tidy not installed)"
  skipped+=("clang-tidy")
fi

if [ "$FAST" -eq 1 ]; then
  note "7/8 lockdep (skipped: --fast)"
  skipped+=("lockdep")
else
  # The default violation handler aborts, so a rank inversion or lock-order
  # cycle anywhere in the suite turns its test red here.
  note "7/8 lockdep (SPHERE_DEADLOCK=ON)"
  run_ctest_tree "$ROOT/build-check/lockdep" -DSPHERE_DEADLOCK=ON
  # Focused re-run of the proxy front-end stress tests: the reactor/worker
  # hand-off is the newest cross-thread surface, so give the lock-order
  # detector a second pass over it.
  (cd "$ROOT/build-check/lockdep" && ctest -R ProxySessionStress \
      --output-on-failure) > "$ROOT/build-check/lockdep-proxy.log" 2>&1 \
    || fail "lockdep ProxySessionStress (see build-check/lockdep-proxy.log)"
  # Same treatment for the MVCC read/write stress tests: concurrent snapshot
  # scans against committing/aborting writers exercise the commit-epoch
  # ordering (commit_mu_ -> table latch) and the writer-preferring latch.
  (cd "$ROOT/build-check/lockdep" && ctest -R MvccStress \
      --output-on-failure) > "$ROOT/build-check/lockdep-mvcc.log" 2>&1 \
    || fail "lockdep MvccStress (see build-check/lockdep-mvcc.log)"
fi

if [ "$FAST" -eq 1 ]; then
  note "8/8 sanitizer matrix (skipped: --fast)"
  skipped+=("sanitizers")
else
  for san in address undefined thread; do
    note "8/8 sanitizer: $san"
    run_ctest_tree "$ROOT/build-check/$san" -DSPHERE_SANITIZE="$san"
  done
  # Same focused proxy stress pass under TSan, where a missing happens-before
  # edge in the session hand-off reports as a race instead of a flaky count.
  if [ -d "$ROOT/build-check/thread" ]; then
    (cd "$ROOT/build-check/thread" && ctest -R ProxySessionStress \
        --output-on-failure) > "$ROOT/build-check/tsan-proxy.log" 2>&1 \
      || fail "TSan ProxySessionStress (see build-check/tsan-proxy.log)"
    # MVCC read/write stress under TSan: version-chain restamps race against
    # snapshot scans by design; a missing acquire/release on a stamp or the
    # visible epoch reports here as a data race, not a flaky assertion.
    (cd "$ROOT/build-check/thread" && ctest -R MvccStress \
        --output-on-failure) > "$ROOT/build-check/tsan-mvcc.log" 2>&1 \
      || fail "TSan MvccStress (see build-check/tsan-mvcc.log)"
  fi
fi

note "summary"
[ "${#skipped[@]}" -gt 0 ] && echo "skipped: ${skipped[*]}"
if [ "$failures" -gt 0 ]; then
  echo "check.sh: $failures stage(s) FAILED"
  exit 1
fi
echo "check.sh: all stages passed"
