#!/usr/bin/env bash
# Full verification sweep: builds the tree in three configurations and runs
# the complete test suite in each.
#
#   1. Release          — the shipping configuration
#   2. ASan + UBSan     — memory and UB errors (fiber unwinding, wire decoding)
#   3. TSan             — the race- and engine-labelled slices (ChamRace
#                         analyzer tests, the ChamShard sharded scheduler)
#                         under ThreadSanitizer; CHAM_TSAN also enables the
#                         __tsan_* fiber-switch hooks (docs/RACE.md)
#   4. Werror           — warning-clean build enforced
#
# On top of the per-configuration suites it runs targeted smokes: the fault
# matrix, the ChamShard engine slice, and the ChamDurable corruption matrix
# under the sanitizers, and the bench/ChamScope/ChamProf/ChamRace/
# kill-resume/sharded determinism smokes against the release binaries. The
# ChamProf leg also builds a -DCHAMELEON_PROF=OFF tree and gates the
# shipping (hooks-in, profiler-off) wall time against it. Last, the
# repository benchmark (perfbench/) runs every workload once and must pass
# its output checks.
#
# Usage: tools/check.sh [jobs]
# Build trees live under build-check/ (gitignored).

set -euo pipefail

jobs=${1:-2}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

run_config() {
  local name=$1
  shift
  local dir="build-check/$name"
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S . "$@" >/dev/null
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$jobs"
  echo "=== [$name] test ==="
  (cd "$dir" && ctest --output-on-failure -j "$jobs")
}

run_config release -DCMAKE_BUILD_TYPE=Release
run_config sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCHAMELEON_ASAN=ON -DCHAMELEON_UBSAN=ON

# Fault matrix: replay the fault-labelled slice (injected crashes, drops,
# failover, the chamlint smoke) under ASan+UBSan with rotating base seeds —
# fiber cancellation and the salvage/retry paths are exactly where memory
# bugs would hide. Override the seed list with CHAMELEON_FAULT_SEEDS.
for seed in ${CHAMELEON_FAULT_SEEDS:-1 11 29}; do
  echo "=== [sanitize] fault matrix, seed $seed ==="
  (cd build-check/sanitize &&
    CHAMELEON_FAULT_SEED="$seed" ctest -L fault --output-on-failure -j "$jobs")
done

# ChamShard sanitizer leg: the engine-labelled slice (sharded scheduler
# unit tests, cross-thread determinism matrix, the multi-threaded
# kill/resume smoke) plus a 4-thread CLI run under ASan+UBSan.
echo "=== [sanitize] engine slice ==="
(cd build-check/sanitize && ctest -L engine --output-on-failure -j "$jobs")

# ChamScale sanitizer leg: the ranklist property suite and the frozen-digest
# protocol suite under ASan+UBSan — the intern table, the arena, and the
# run-level decode fast path are exactly where an out-of-bounds run index
# or a dangling interned pointer would hide.
echo "=== [sanitize] scale slice ==="
(cd build-check/sanitize && ctest -L scale --output-on-failure -j "$jobs")
echo "=== [sanitize] sharded run smoke ==="
build-check/sanitize/tools/chamtrace run --workload lu --procs 16 \
  --steps 8 --freq 1 --threads 4 >/dev/null

# ChamRace/ChamShard TSan leg: the race- and engine-labelled slices — the
# full suite under TSan is minutes of fiber-hook overhead for no extra
# thread coverage; these are the slices with real threads in them.
echo "=== [tsan] configure ==="
cmake -B build-check/tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCHAM_TSAN=ON >/dev/null
echo "=== [tsan] build ==="
cmake --build build-check/tsan -j "$jobs"
echo "=== [tsan] race+engine slice ==="
(cd build-check/tsan && ctest -L 'race|engine' --output-on-failure -j "$jobs")

run_config werror -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCHAMELEON_WERROR=ON

# ChamShard engine bench smoke (release build): the thread matrix must
# produce identical digests at every thread count, and the committed
# bench_results/BENCH_engine.json must carry the documented schema. The
# >=3x speedup acceptance (4k fibers, 8 threads) is only meaningful on a
# host that actually has 8 cores — gate it on nproc so the 1-core CI box
# checks correctness while a workstation run checks the scaling claim too.
echo "=== [release] bench_engine smoke ==="
engine_json="build-check/release/bench_engine_smoke.json"
build-check/release/bench/bench_engine --smoke --out "$engine_json" \
  >/dev/null 2>&1
for key in '"schema": "chameleon.bench_engine.v1"' '"results"' \
           '"hardware_concurrency"' '"deterministic": true'; do
  grep -qF "$key" "$engine_json" ||
    { echo "bench_engine smoke: missing $key in $engine_json" >&2; exit 1; }
done
for key in '"schema": "chameleon.bench_engine.v1"' '"deterministic": true'; do
  grep -qF "$key" bench_results/BENCH_engine.json ||
    { echo "BENCH_engine.json: missing $key" >&2; exit 1; }
done
if [ "$(nproc)" -ge 8 ]; then
  echo "=== [release] bench_engine full matrix (>=3x gate) ==="
  full_json="build-check/release/bench_engine_full.json"
  build-check/release/bench/bench_engine --out "$full_json" >/dev/null 2>&1
  python3 - "$full_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
cell = [r for r in doc["results"] if r["fibers"] == 4096 and r["threads"] == 8]
speedup = float(cell[0]["speedup_vs_1thread"])
if speedup < 3.0:
    sys.exit(f"bench_engine: 4k fibers / 8 threads speedup {speedup} < 3.0")
print(f"bench_engine: 4k fibers / 8 threads speedup {speedup}")
EOF
else
  echo "bench_engine: $(nproc) core(s) — skipping the >=3x speedup gate"
fi

# ChamScale weak-scaling gate (release build): the documented schema at
# smoke scale, the schema and per-rank memory budget in the committed
# bench_results/BENCH_scale.json (rows at 1k/4k/16k/64k), and a fresh
# 16k-rank sharded row whose cluster-table and structure digests must equal
# the committed 16k row's and whose peak RSS per rank may exceed the
# committed row's by at most 5% (repeats on one host vary by under 0.2%). The full 64k row is a multi-GB measurement —
# re-run `bench_scale` without --smoke on a big host to refresh it
# (docs/PERF.md "64k memory budget").
echo "=== [release] bench_scale smoke ==="
scale_json="build-check/release/bench_scale_smoke.json"
build-check/release/bench/bench_scale --smoke --out "$scale_json" >/dev/null
for key in '"schema": "chameleon.bench_scale.v1"' '"rows"'; do
  grep -qF "$key" "$scale_json" ||
    { echo "bench_scale smoke: missing $key in $scale_json" >&2; exit 1; }
done
python3 - bench_results/BENCH_scale.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc.get("schema") != "chameleon.bench_scale.v1":
    sys.exit("BENCH_scale.json: wrong schema")
rows = {int(r["nprocs"]): r for r in doc["rows"]}
for p in (1024, 4096, 16384, 65536):
    if p not in rows:
        sys.exit(f"BENCH_scale.json: missing {p}-rank row")
    per_rank = float(rows[p]["rss_bytes_per_rank"])
    if per_rank > 128 * 1024:
        sys.exit(f"BENCH_scale.json: {p}-rank row spends {per_rank:.0f} "
                 "bytes/rank, over the 128 KiB weak-scaling budget")
print(f"BENCH_scale.json: 64k ranks in {rows[65536]['wall_seconds']}s at "
      f"{float(rows[65536]['rss_bytes_per_rank']) / 1024:.1f} KiB/rank")
EOF
echo "=== [release] bench_scale 16k-rank digest and memory gate ==="
scale_16k="build-check/release/scale_16k_row.json"
build-check/release/bench/bench_scale --row 16384 --threads 4 > "$scale_16k"
python3 - "$scale_16k" bench_results/BENCH_scale.json <<'EOF'
import json, sys
row = json.load(open(sys.argv[1]))
committed = {int(r["nprocs"]): r for r in json.load(open(sys.argv[2]))["rows"]}
if int(row["nprocs"]) != 16384 or int(row["clusters"]) < 1:
    sys.exit("bench_scale: 16k-rank smoke row malformed")
for key in ("table_digest", "structure_digest"):
    if row[key] != committed[16384][key]:
        sys.exit(f"bench_scale: 16k-rank {key} {row[key]} != committed "
                 f"{committed[16384][key]}")
per_rank = int(row["max_rss_kb"]) * 1024 / int(row["nprocs"])
budget = 1.05 * float(committed[16384]["rss_bytes_per_rank"])
if per_rank > budget:
    sys.exit(f"bench_scale: 16k ranks spend {per_rank:.0f} bytes/rank, over "
             f"1.05 x the committed row ({budget:.0f})")
print(f"bench_scale: 16k ranks / 4 threads in {row['wall_seconds']}s "
      f"({int(row['max_rss_kb']) // 1024} MB peak, {per_rank:.0f} B/rank "
      f"<= {budget:.0f}), digests match")
EOF

# Release multi-thread determinism: the same workload at --threads 1 and
# --threads 4 must write byte-identical trace and cluster-table files.
echo "=== [release] sharded determinism compare ==="
shard_dir="build-check/release/shard-smoke"
mkdir -p "$shard_dir"
chamtrace=build-check/release/tools/chamtrace
"$chamtrace" run --workload lu --procs 16 --steps 8 --freq 1 \
  --clusters-out "$shard_dir/c1.bin" >/dev/null
"$chamtrace" run --workload lu --procs 16 --steps 8 --freq 1 --threads 4 \
  --clusters-out "$shard_dir/c4.bin" >/dev/null
cmp -s "$shard_dir/c1.bin" "$shard_dir/c4.bin" ||
  { echo "sharded determinism: cluster tables differ across thread counts" >&2
    exit 1; }

# ChamScope smoke (release build): a real workload run with the timeline
# tracer and metrics registry enabled must produce documents that the
# bundled validators accept, and the cluster-evolution report must render.
echo "=== [release] chamscope smoke ==="
obs_dir="build-check/release/obs-smoke"
mkdir -p "$obs_dir"
chamtrace=build-check/release/tools/chamtrace
"$chamtrace" run --workload lu --procs 16 --steps 8 --freq 1 \
  --timeline "$obs_dir/timeline.json" \
  --metrics-out "$obs_dir/metrics.json" >/dev/null
"$chamtrace" validate --timeline "$obs_dir/timeline.json" \
  --metrics "$obs_dir/metrics.json"
"$chamtrace" report --workload lu --procs 16 --steps 8 --freq 1 \
  --format json --out "$obs_dir/report.json" >/dev/null
grep -qF '"schema": "chameleon.report.v1"' "$obs_dir/report.json" ||
  { echo "chamscope smoke: bad report schema in $obs_dir/report.json" >&2
    exit 1; }

# ChamProf smoke (release build): a profiled sharded run must produce a
# chameleon.prof.v1 document the validator accepts, with non-empty
# barrier-wait / lock-contention / phase-attribution telemetry, counter
# tracks merged into the timeline, and a summary `chamtrace profile`
# renders. A second run checks the --timeline-flush streaming mode.
echo "=== [release] champrof smoke ==="
prof_dir="build-check/release/prof-smoke"
mkdir -p "$prof_dir"
"$chamtrace" run --workload lu --procs 16 --threads 4 \
  --profile="$prof_dir/prof.json" \
  --timeline "$prof_dir/timeline.json" >/dev/null
"$chamtrace" validate --prof "$prof_dir/prof.json" \
  --timeline "$prof_dir/timeline.json"
"$chamtrace" profile "$prof_dir/prof.json" > "$prof_dir/summary.out"
for want in "barrier_wait" "phase breakdown" "busiest locks" "sampler:"; do
  grep -qF "$want" "$prof_dir/summary.out" ||
    { echo "champrof smoke: missing \"$want\" in profile summary" >&2; exit 1; }
done
python3 - "$prof_dir/prof.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
shards = doc["shards"]
if len(shards) != 4:
    sys.exit(f"champrof: expected 4 shards, got {len(shards)}")
if sum(s["barrier_wait_seconds"] for s in shards) <= 0:
    sys.exit("champrof: no barrier wait recorded")
if not any(lk["acquisitions"] > 0 for lk in doc["locks"]):
    sys.exit("champrof: no lock acquisitions recorded")
if not doc["phases"]:
    sys.exit("champrof: empty phase attribution")
if doc["overhead"]["profiling_seconds"] < 0:
    sys.exit("champrof: negative self-measured cost")
print(f"champrof: {len(shards)} shards, "
      f"{doc['samples']['total']} samples, "
      f"self cost {doc['overhead']['profiling_seconds'] * 1e3:.2f} ms")
EOF
grep -qF '"ph": "C"' "$prof_dir/timeline.json" ||
  grep -qF '"ph":"C"' "$prof_dir/timeline.json" ||
  { echo "champrof smoke: no counter tracks merged into timeline" >&2
    exit 1; }
"$chamtrace" run --workload lu --procs 16 --steps 8 --freq 1 \
  --timeline "$prof_dir/streamed.json" --timeline-flush 256 >/dev/null
"$chamtrace" validate --timeline "$prof_dir/streamed.json"

# ChamProf overhead bench (release build): profiled and unprofiled engine
# digests must match at smoke scale, and the committed
# bench_results/BENCH_profiler.json must carry the documented schema and a
# host block.
echo "=== [release] bench_profiler smoke ==="
profbench_json="build-check/release/bench_profiler_smoke.json"
build-check/release/bench/bench_profiler --smoke --out "$profbench_json" \
  >/dev/null 2>&1
for key in '"schema": "chameleon.bench_profiler.v1"' '"results"' \
           '"digests_match": true'; do
  grep -qF "$key" "$profbench_json" ||
    { echo "bench_profiler smoke: missing $key in $profbench_json" >&2
      exit 1; }
done
for key in '"schema": "chameleon.bench_profiler.v1"' '"host"' \
           '"overhead_ratio"' '"digests_match": true'; do
  grep -qF "$key" bench_results/BENCH_profiler.json ||
    { echo "BENCH_profiler.json: missing $key" >&2; exit 1; }
done

# Disabled-profiler overhead gate: the shipping configuration compiles the
# hooks in but never installs a profiler, so its wall time must stay within
# noise of a -DCHAMELEON_PROF=OFF build that compiles them out entirely.
# Min-of-N on both sides keeps the comparison robust on a loaded box; the
# 1.35x tolerance is generous because each run is only a fraction of a
# second of which process startup is a sizable share.
echo "=== [noprof] disabled-profiler overhead gate ==="
cmake -B build-check/noprof -S . -DCMAKE_BUILD_TYPE=Release \
  -DCHAMELEON_PROF=OFF >/dev/null
cmake --build build-check/noprof -j "$jobs" --target chamtrace
python3 - "$chamtrace" build-check/noprof/tools/chamtrace <<'EOF'
import subprocess, sys, time
def best(binary, n=4):
    args = [binary, "run", "--workload", "lu", "--procs", "16",
            "--threads", "2"]
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(args, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return min(times)
hooks_in = best(sys.argv[1])
compiled_out = best(sys.argv[2])
ratio = hooks_in / compiled_out
print(f"disabled-profiler overhead: hooks-in {hooks_in:.4f}s vs "
      f"compiled-out {compiled_out:.4f}s (ratio {ratio:.3f})")
if ratio > 1.35:
    sys.exit(f"disabled-profiler overhead ratio {ratio:.3f} exceeds 1.35x")
EOF

# ChamRace smoke (release build): the seeded racefix fixture must fail the
# gate with its known conflicts, and a clean workload must produce a race
# report (with determinism audit) that the bundled validator accepts.
echo "=== [release] chamrace smoke ==="
race_dir="build-check/release/race-smoke"
mkdir -p "$race_dir"
if "$chamtrace" race --workload racefix --procs 8 --steps 4 --seeds 3 \
     > "$race_dir/racefix.out"; then
  echo "chamrace smoke: racefix unexpectedly clean" >&2
  exit 1
fi
for want in "write-write on racefix.shared_counter" \
            "racefix.config" "epochs deterministic"; do
  grep -qF "$want" "$race_dir/racefix.out" ||
    { echo "chamrace smoke: missing \"$want\" in racefix output" >&2; exit 1; }
done
"$chamtrace" race --workload lu --procs 8 --steps 6 --seeds 3 \
  --json "$race_dir/race.json" >/dev/null
"$chamtrace" validate --race "$race_dir/race.json"

# ChamDurable kill/resume smoke (release build): for each scheduler seed, a
# reference checkpointed run and a --kill-at-epoch SIGKILL'd run that is
# then resumed must produce byte-identical final cluster tables
# (docs/DURABILITY.md). Override the seed list with CHAMELEON_DURABLE_SEEDS.
echo "=== [release] chamdurable kill/resume smoke ==="
dur_dir="build-check/release/durable-smoke"
rm -rf "$dur_dir"
mkdir -p "$dur_dir"
for seed in ${CHAMELEON_DURABLE_SEEDS:-0 7 13 29 42}; do
  "$chamtrace" run --workload lu --procs 8 --class S --sched-seed "$seed" \
    --checkpoint-dir "$dur_dir/ref-$seed" \
    --clusters-out "$dur_dir/ref-$seed.bin" >/dev/null
  rc=0
  "$chamtrace" run --workload lu --procs 8 --class S --sched-seed "$seed" \
    --checkpoint-dir "$dur_dir/kill-$seed" --kill-at-epoch 4 \
    >/dev/null 2>&1 || rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "chamdurable smoke: --kill-at-epoch run survived (seed $seed)" >&2
    exit 1
  fi
  "$chamtrace" run --resume "$dur_dir/kill-$seed" \
    --clusters-out "$dur_dir/res-$seed.bin" >/dev/null
  cmp -s "$dur_dir/ref-$seed.bin" "$dur_dir/res-$seed.bin" ||
    { echo "chamdurable smoke: resumed clusterset differs (seed $seed)" >&2
      exit 1; }
done

# Corruption matrix at full depth under ASan+UBSan: >=1000 deterministic
# mutations across the manifest/snapshot/journal decoders plus the
# directory-level recover() sweep — every mutation must be rejected with a
# typed error (or land on tolerated slack), never crash or overallocate.
echo "=== [sanitize] chamdurable corruption matrix ==="
(cd build-check/sanitize &&
  CHAM_CORRUPT_ITERS="${CHAM_CORRUPT_ITERS:-1000}" \
  ctest -L durable --output-on-failure -j "$jobs")

# Repository benchmark output gate: one short untraced run per workload.
# Each run checks its digests and exact counts against
# perfbench/expected.json; timing bounds are a quiet-host, paired
# measurement for `perfbench/run.py --compare`, not a CI gate.
echo "=== [perfbench] output checks ==="
for workload in lu16k lu16k_t4 lu16k_scalatrace lumod2k; do
  bench_out="build-check/perfbench-$workload.out"
  python3 perfbench/run.py --workload "$workload" --seconds 1 --trace 0 \
    --out build-check/perfbench > "$bench_out" ||
    { cat "$bench_out" >&2; echo "perfbench $workload: run failed" >&2
      exit 1; }
  python3 - "$bench_out" "$workload" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
if doc.get("correct") is not True or doc.get("failed") != 0:
    sys.exit(f"perfbench {sys.argv[2]}: correct={doc.get('correct')} "
             f"failed={doc.get('failed')}")
print(f"perfbench {sys.argv[2]}: {doc['attempted']} runs, outputs correct")
EOF
done

echo "=== all configurations green ==="
