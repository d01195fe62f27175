#!/usr/bin/env python3
"""Guards committed benchmark results against silent regressions.

Compares the committed BENCH_micro.json (the numbers DESIGN.md cites) against
a fresh smoke run, on two axes:

  - throughput: if any benchmark's committed ops/sec is more than FACTOR
    times the smoke run's, the current tree has regressed that ablation and
    the gate fails. The wide default factor absorbs smoke-run noise
    (--benchmark_min_time=0.01) and machine variance; a real fast-lane or
    streaming regression is typically 2x-1000x, not 20%.
  - allocations: benchmarks that report an `allocs_per_query` counter are
    lower-is-better; if the smoke run allocates more than FACTOR times the
    committed count (plus a small absolute slack for counter noise), the
    memory-discipline layer has regressed and the gate fails.
  - observability overhead: within the committed baseline itself,
    BM_ObservabilityOverhead/1 (tracing on, default sampling) must stay
    within OBS_OVERHEAD_LIMIT of BM_ObservabilityOverhead/0 (sampling interval 0).
    This is deterministic — both numbers come from the same committed run on
    the same machine — so a chatty span or an always-on sampler cannot land
    behind smoke-run variance.

Build-type hygiene: the committed file must carry
`context.project_build_type == "release"` — a debug baseline would let real
regressions hide inside the debug slowdown, so anything else is refused.
A debug `library_build_type` (Debian ships google-benchmark's debug build)
only warns: the library's own overhead is identical in both files.

MaxCon mode (`bench_check.py --maxcon <file.json>`) instead gates the
committed BENCH_maxcon.json from bench_fig15_maxcon — the event-driven proxy
front end's C10K sweep. The gate is judged entirely inside the one committed
file (all points ran back-to-back on the same machine), so it is
deterministic:

  - multiplexing efficiency: at sessions == MAXCON_SATURATION_MULTIPLE x
    context.workers, reactor-lane throughput must hold at least
    MAXCON_TPS_FLOOR of the sweep's peak — the C10K claim is that session
    count well past the worker pool does not collapse throughput;
  - admission control: summed rejected_sessions across reactor points must
    be positive — the sweep's over-MaxCon point proves rejections are
    actually observable (proxy.sessions.rejected), not silently absorbed.

Build-type hygiene applies the same way: a non-release committed file is
refused.

Read/write-mix mode (`bench_check.py --rwmix <file.json>`) gates the
committed BENCH_rwmix.json from bench_fig_rwmix — the MVCC snapshot-read
sweep (reader throughput as writer threads go 0 -> 8, latch vs mvcc lanes).
Judged inside the one committed file, so it is deterministic:

  - readers never block on writers: mvcc reader throughput at
    RWMIX_GATE_WRITERS writers must be at least RWMIX_SPEEDUP_FLOOR x the
    latch lane's at the same writer count, and at least RWMIX_FLATNESS_FLOOR
    of the mvcc lane's own 0-writer baseline;
  - allocation-free read path: the 0-writer points' allocs_per_query must
    stay under RWMIX_ALLOC_CEILING (the read path's O(1)-per-statement
    footprint — anything per-row scales to thousands);
  - self-check hygiene: no reader_errors anywhere in the sweep (a torn
    snapshot would surface as a COUNT mismatch and count as an error).

Usage: bench_check.py <committed.json> <smoke.json> [factor]
       bench_check.py --maxcon <committed_maxcon.json>
       bench_check.py --rwmix <committed_rwmix.json>
"""

import json
import sys

# MaxCon gate thresholds (see bench/bench_fig15_maxcon.cc).
MAXCON_SATURATION_MULTIPLE = 8
MAXCON_TPS_FLOOR = 0.80

# Read/write-mix gate thresholds (see bench/bench_fig_rwmix.cc).
RWMIX_GATE_WRITERS = 8       # the sweep point the ratio gates judge
RWMIX_SPEEDUP_FLOOR = 3.0    # mvcc readers vs latch readers at that point
RWMIX_FLATNESS_FLOOR = 0.90  # mvcc readers at that point vs their 0-writer tps
RWMIX_ALLOC_CEILING = 16.0   # allocs/query on the 0-writer (pure read) points

# Allocation counts below this are treated as equal: a pooled path that does
# 0.2 allocs/query vs a committed 0.05 is noise, not a leak.
ALLOC_SLACK = 4.0

# Observability gate: tracing at the default sampling interval may cost at
# most this fraction of the sampling-interval-0 throughput (DESIGN.md §13).
OBS_OFF = "BM_ObservabilityOverhead/0"
OBS_ON = "BM_ObservabilityOverhead/1"
OBS_OVERHEAD_LIMIT = 0.05


def ops_per_second(entry):
    """Throughput for one benchmark entry (items/sec, falling back to 1/t)."""
    if "items_per_second" in entry:
        return float(entry["items_per_second"])
    scale = {"ns": 1e9, "us": 1e6, "ms": 1e3, "s": 1.0}[entry.get("time_unit", "ns")]
    real = float(entry["real_time"])
    return scale / real if real > 0 else 0.0


def load_file(path):
    with open(path) as f:
        data = json.load(f)
    ops, allocs = {}, {}
    for b in data.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # skip aggregate rows (mean/median/stddev)
        ops[b["name"]] = ops_per_second(b)
        if "allocs_per_query" in b:
            allocs[b["name"]] = float(b["allocs_per_query"])
    return data.get("context", {}), ops, allocs


def check_maxcon(path):
    """Gates the committed C10K MaxCon sweep (see module docstring)."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_check: cannot read maxcon results {path}: {e}")
        print("bench_check: regenerate with a Release build of "
              "bench_fig15_maxcon from the repo root")
        return 1

    ctx = data.get("context", {})
    build_type = ctx.get("project_build_type")
    if build_type != "release":
        print(f"bench_check: REFUSED: {path} has "
              f"project_build_type={build_type!r} (need \"release\")")
        print("bench_check: rebuild with -DCMAKE_BUILD_TYPE=Release and "
              "rerun bench_fig15_maxcon to regenerate the baseline")
        return 1
    workers = int(ctx.get("workers", 0))
    if workers <= 0:
        print(f"bench_check: REFUSED: {path} lacks context.workers")
        return 1

    reactor = [b for b in data.get("benchmarks", [])
               if b.get("lane") == "reactor"]
    if not reactor:
        print(f"bench_check: REFUSED: {path} has no reactor-lane entries")
        return 1

    peak = max(float(b["tps"]) for b in reactor)
    gate_sessions = MAXCON_SATURATION_MULTIPLE * workers
    gated = [b for b in reactor if int(b.get("sessions", -1)) == gate_sessions]
    if not gated:
        print(f"bench_check: REFUSED: no reactor point at sessions="
              f"{gate_sessions} ({MAXCON_SATURATION_MULTIPLE} x "
              f"{workers} workers); rerun bench_fig15_maxcon")
        return 1
    gated_tps = float(gated[0]["tps"])
    if peak <= 0 or gated_tps < MAXCON_TPS_FLOOR * peak:
        pct = 100.0 * gated_tps / peak if peak > 0 else 0.0
        print(f"bench_check: MAXCON REGRESSION: {gated_tps:.0f} tps at "
              f"{gate_sessions} sessions is {pct:.0f}% of the sweep peak "
              f"{peak:.0f} tps (floor {100 * MAXCON_TPS_FLOOR:.0f}%) — the "
              f"multiplexed front end no longer sustains saturation")
        return 1

    rejected = sum(int(b.get("rejected_sessions", 0)) for b in reactor)
    if rejected <= 0:
        print("bench_check: MAXCON GATE FAILED: no session rejections "
              "observed anywhere in the sweep — the over-MaxCon point must "
              "drive proxy.sessions.rejected above zero")
        return 1

    print(f"bench_check: maxcon gate OK: {gated_tps:.0f} tps at "
          f"{gate_sessions} sessions = {100.0 * gated_tps / peak:.0f}% of "
          f"peak {peak:.0f} tps; {rejected} sessions rejected past MaxCon")
    return 0


def check_rwmix(path):
    """Gates the committed MVCC read/write-mix sweep (see module docstring)."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_check: cannot read rwmix results {path}: {e}")
        print("bench_check: regenerate with a Release build of "
              "bench_fig_rwmix from the repo root")
        return 1

    ctx = data.get("context", {})
    build_type = ctx.get("project_build_type")
    if build_type != "release":
        print(f"bench_check: REFUSED: {path} has "
              f"project_build_type={build_type!r} (need \"release\")")
        print("bench_check: rebuild with -DCMAKE_BUILD_TYPE=Release and "
              "rerun bench_fig_rwmix to regenerate the baseline")
        return 1

    points = data.get("benchmarks", [])

    def find(lane, writers):
        for b in points:
            if b.get("lane") == lane and int(b.get("writers", -1)) == writers:
                return b
        return None

    mvcc_base = find("mvcc", 0)
    mvcc_gate = find("mvcc", RWMIX_GATE_WRITERS)
    latch_gate = find("latch", RWMIX_GATE_WRITERS)
    if mvcc_base is None or mvcc_gate is None or latch_gate is None:
        print(f"bench_check: REFUSED: {path} lacks the mvcc@0, "
              f"mvcc@{RWMIX_GATE_WRITERS} or latch@{RWMIX_GATE_WRITERS} "
              f"sweep points; rerun bench_fig_rwmix")
        return 1

    errors = sum(int(b.get("reader_errors", 0)) for b in points)
    if errors > 0:
        print(f"bench_check: RWMIX GATE FAILED: {errors} reader self-check "
              f"errors in the sweep — a scan observed a torn or short "
              f"snapshot")
        return 1

    mvcc_tps = float(mvcc_gate["reader_tps"])
    latch_tps = float(latch_gate["reader_tps"])
    base_tps = float(mvcc_base["reader_tps"])
    if base_tps <= 0 or mvcc_tps < RWMIX_SPEEDUP_FLOOR * latch_tps:
        ratio = mvcc_tps / latch_tps if latch_tps > 0 else float("inf")
        print(f"bench_check: RWMIX REGRESSION: mvcc readers at "
              f"{RWMIX_GATE_WRITERS} writers run {mvcc_tps:.0f} tps vs latch "
              f"{latch_tps:.0f} tps ({ratio:.2f}x, floor "
              f"{RWMIX_SPEEDUP_FLOOR}x) — snapshot reads no longer dodge "
              f"writer durability windows")
        return 1
    if mvcc_tps < RWMIX_FLATNESS_FLOOR * base_tps:
        print(f"bench_check: RWMIX REGRESSION: mvcc readers at "
              f"{RWMIX_GATE_WRITERS} writers run {mvcc_tps:.0f} tps, "
              f"{100.0 * mvcc_tps / base_tps:.0f}% of their 0-writer "
              f"{base_tps:.0f} tps (floor "
              f"{100 * RWMIX_FLATNESS_FLOOR:.0f}%) — readers are blocking "
              f"on writers again")
        return 1

    for b in (mvcc_base, find("latch", 0)):
        if b is None:
            continue
        apq = float(b.get("allocs_per_query", 0.0))
        if apq > RWMIX_ALLOC_CEILING:
            print(f"bench_check: RWMIX ALLOC REGRESSION: {b.get('name')} "
                  f"runs {apq:.1f} allocs/query (ceiling "
                  f"{RWMIX_ALLOC_CEILING}) — the read path is allocating "
                  f"per row again")
            return 1

    ratio = mvcc_tps / latch_tps if latch_tps > 0 else float("inf")
    print(f"bench_check: rwmix gate OK: mvcc {mvcc_tps:.0f} tps at "
          f"{RWMIX_GATE_WRITERS} writers = {ratio:.2f}x latch "
          f"{latch_tps:.0f} tps and {100.0 * mvcc_tps / base_tps:.0f}% of "
          f"its 0-writer baseline; read path "
          f"{float(mvcc_base.get('allocs_per_query', 0.0)):.1f} allocs/query")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--rwmix":
        if len(argv) != 3:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        return check_rwmix(argv[2])
    if len(argv) >= 2 and argv[1] == "--maxcon":
        if len(argv) != 3:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        return check_maxcon(argv[2])
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    committed_path, smoke_path = argv[1], argv[2]
    factor = float(argv[3]) if len(argv) > 3 else 2.0

    try:
        committed_ctx, committed, committed_allocs = load_file(committed_path)
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_check: cannot read committed {committed_path}: {e}")
        print("bench_check: regenerate it by running bench_micro from the repo root")
        return 1
    try:
        _, smoke, smoke_allocs = load_file(smoke_path)
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_check: cannot read smoke run {smoke_path}: {e}")
        return 1

    # Refuse a non-release committed baseline outright.
    build_type = committed_ctx.get("project_build_type")
    if build_type != "release":
        print(f"bench_check: REFUSED: committed {committed_path} has "
              f"project_build_type={build_type!r} (need \"release\")")
        print("bench_check: rebuild with -DCMAKE_BUILD_TYPE=Release and "
              "rerun bench_micro to regenerate the baseline")
        return 1
    if committed_ctx.get("library_build_type") == "debug":
        print("bench_check: WARNING: committed baseline links google-benchmark's "
              "debug build (harness overhead only; numbers remain comparable)")

    # Observability overhead is judged inside the committed file: both
    # variants ran back-to-back on the same machine, so the ratio is real.
    if OBS_OFF not in committed or OBS_ON not in committed:
        print(f"bench_check: REFUSED: committed {committed_path} lacks "
              f"{OBS_OFF} / {OBS_ON}; rerun bench_micro to regenerate")
        return 1
    obs_off, obs_on = committed[OBS_OFF], committed[OBS_ON]
    if obs_off <= 0 or obs_on < obs_off * (1.0 - OBS_OVERHEAD_LIMIT):
        overhead = (100.0 * (1.0 - obs_on / obs_off)) if obs_off > 0 else 100.0
        print(f"bench_check: OBSERVABILITY REGRESSION: tracing on costs "
              f"{overhead:.1f}% of sampling-interval-0 throughput "
              f"({obs_on:.3g} vs {obs_off:.3g} ops/s, "
              f"limit {100 * OBS_OVERHEAD_LIMIT:.0f}%)")
        return 1

    failures = []
    for name, committed_ops in sorted(committed.items()):
        if name not in smoke:
            # Renamed or removed benchmark: the committed file is stale but
            # the tree didn't regress. Surface it without failing.
            print(f"bench_check: note: '{name}' in committed results but not "
                  f"in smoke run (stale committed entry?)")
            continue
        smoke_ops = smoke[name]
        if smoke_ops <= 0 or committed_ops > factor * smoke_ops:
            failures.append(("time", name, committed_ops, smoke_ops))

    # Allocation gate: lower is better, so the comparison flips.
    for name, committed_n in sorted(committed_allocs.items()):
        if name not in smoke_allocs:
            continue
        smoke_n = smoke_allocs[name]
        if smoke_n > factor * committed_n + ALLOC_SLACK:
            failures.append(("alloc", name, committed_n, smoke_n))

    for kind, name, committed_v, smoke_v in failures:
        if kind == "time":
            ratio = committed_v / smoke_v if smoke_v > 0 else float("inf")
            print(f"bench_check: REGRESSION {name}: committed {committed_v:.3g} "
                  f"ops/s vs smoke {smoke_v:.3g} ops/s ({ratio:.1f}x slower "
                  f"than committed, limit {factor}x)")
        else:
            print(f"bench_check: ALLOC REGRESSION {name}: committed "
                  f"{committed_v:.3g} allocs/query vs smoke {smoke_v:.3g} "
                  f"(limit {factor}x + {ALLOC_SLACK})")
    if failures:
        return 1
    print(f"bench_check: {len(committed)} committed benchmarks within "
          f"{factor}x of the smoke run "
          f"({len(committed_allocs)} with allocation gates)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
