#!/bin/sh
# Smoke test of the figure-bench harnesses: every binary must run, exit 0,
# and emit the expected CSV header under --csv (bit-stable output is a
# documented property; the header is its anchor).
#
# Usage: bench_smoke.sh [bench-binary-dir] [tools-binary-dir]
# ctest passes the directories via $<TARGET_FILE_DIR:...>, which resolves
# for any CMake generator (Makefiles, Ninja, multi-config).  When run by
# hand with no argument, the script locates the binaries itself.
set -eu

if [ "$#" -ge 1 ]; then
  BIN_DIR="$1"
else
  # Auto-detect: newest bench_fig9 under any build*/ next to this script.
  repo_root=$(cd "$(dirname "$0")/.." && pwd)
  BIN_DIR=""
  for candidate in "$repo_root"/build*/bench "$repo_root"/build*/*/bench; do
    [ -x "$candidate/bench_fig9" ] && BIN_DIR="$candidate"
  done
  if [ -z "$BIN_DIR" ]; then
    echo "cannot find bench binaries; build first or pass the directory"
    exit 1
  fi
fi

check() {
  bin="$1"; expect="$2"; shift 2
  out=$("$BIN_DIR/$bin" --csv "$@")
  echo "$out" | grep -q "$expect" || {
    echo "$bin: missing '$expect' in output"; exit 1;
  }
}

check bench_fig8a  "series,size,partitioned (s)"
check bench_fig8b  "size,Duo partitioned,Quad partitioned"
check bench_fig8c  "size,Duo partitioned,Quad partitioned"
check bench_fig9   "(a) host-only x"
check bench_fig10  "(a) host-only x"

# Option plumbing: a different partition size must change Fig. 9's rows.
base=$("$BIN_DIR/bench_fig9" --csv)
alt=$("$BIN_DIR/bench_fig9" --csv --partition=300M)
[ "$base" != "$alt" ] || { echo "--partition had no effect"; exit 1; }

# Determinism: two runs are byte-identical.
again=$("$BIN_DIR/bench_fig9" --csv)
[ "$base" = "$again" ] || { echo "bench_fig9 output not deterministic"; exit 1; }

# Non-figure harnesses just need to run cleanly.
"$BIN_DIR/bench_table1" > /dev/null
"$BIN_DIR/bench_ablation_partition_size" > /dev/null
"$BIN_DIR/bench_ablation_scheduling" > /dev/null
"$BIN_DIR/bench_ablation_offload" > /dev/null
"$BIN_DIR/bench_des_validation" > /dev/null

# bench_record out-of-core A/B: a tiny run must produce a trajectory file
# carrying both arms, the residency bound and the integrity-check scan
# evidence.  CI uploads the JSON as an artifact.
TOOLS_DIR="${2:-$BIN_DIR/../tools}"
if [ -x "$TOOLS_DIR/bench_record" ]; then
  "$TOOLS_DIR/bench_record" --suite outofcore --bytes 1M --reps 2 \
      --workers 2 --label smoke --out BENCH_outofcore.json > /dev/null
  for needle in outofcore_serial outofcore_pipelined \
      peak_resident_fragment_bytes pipelined_speedup \
      integrity_scan_bytes_max integrity_checks; do
    grep -q "$needle" BENCH_outofcore.json || {
      echo "BENCH_outofcore.json: missing '$needle'"; exit 1;
    }
  done
else
  echo "bench_record not found in $TOOLS_DIR; skipping outofcore smoke"
  exit 1
fi

# bench_record storage: a small cold-vs-warm run through the buffer pool
# must record the warm-rerun speedup, hit rates for the fitting and
# overflow pools, the warm arm's I/O wait, and the byte-identity +
# residency gates.  Appends to the same out-of-core trajectory file
# checked above.  4M is the smallest corpus whose overflow pool (1/4 of
# it: sixteen 64 KiB frames) holds the source's pin window (a quarter of
# the pool) plus its read-ahead cap (half) and still keeps a few of the
# cold run's pages for the rerun.
"$TOOLS_DIR/bench_record" --suite storage --bytes 4M --reps 2 \
    --workers 2 --label smoke --out BENCH_outofcore.json > /dev/null
for needle in storage_cold storage_warm warm_rerun_speedup hit_rate \
    warm_rerun_speedup_overflow hit_rate_overflow \
    read_amplification_overflow warm_io_wait_ms \
    output_identical_warm_cold peak_resident_within_pool pool_bytes; do
  grep -q "$needle" BENCH_outofcore.json || {
    echo "BENCH_outofcore.json: missing '$needle'"; exit 1;
  }
done
grep -q '"output_identical_warm_cold": true' BENCH_outofcore.json || {
  echo "storage suite: warm output diverged from cold"; exit 1;
}
# The overflow rerun loads each page at most once and keeps some of the
# cold run's pages: a deterministic page count, unlike a timing ratio.
grep '"read_amplification_overflow"' BENCH_outofcore.json | tail -1 |
    grep -Eq '"read_amplification_overflow": 0\.' || {
  echo "storage suite: overflow rerun read amplification >= 1.0"; exit 1;
}

# bench_record cache: a tiny run against a live daemon must record the
# cold / warm-miss / hit latency split, the zipf-trace hit rate, and the
# hit-equals-cold byte-identity probe.  CI uploads BENCH_fam.json as an
# artifact.
"$TOOLS_DIR/bench_record" --suite cache --bytes 256K --reps 2 \
    --workers 2 --label smoke --out BENCH_fam.json > /dev/null
for needle in cold_p50_ms warm_miss_p50_ms hit_p50_ms hit_p99_ms \
    hit_over_cold_p50 zipf_hit_rate zipf_hit_p50_ms \
    output_identical_hit_cold cache_entries cache_evictions; do
  grep -q "$needle" BENCH_fam.json || {
    echo "BENCH_fam.json: missing '$needle'"; exit 1;
  }
done
grep -q '"output_identical_hit_cold": true' BENCH_fam.json || {
  echo "cache suite: hit payload diverged from cold"; exit 1;
}
grep -q '"hit_phase_all_hits": true' BENCH_fam.json || {
  echo "cache suite: identical re-ask missed the result cache"; exit 1;
}

# bench_record serve: a tiny 64-client run over the sharded mailbox
# channel must record throughput and tail latency, the coalesce rate, the
# backpressure phase, and — non-negotiably — an exactly-once ledger of
# zero lost and zero duplicated responses.
"$TOOLS_DIR/bench_record" --suite serve --bytes 64K --reps 1 \
    --workers 2 --label smoke --out BENCH_fam.json > /dev/null
for needle in throughput_rps serve_p50_ms serve_p99_ms coalesce_rate \
    backpressure_p99_ms backpressure_retries; do
  grep -q "$needle" BENCH_fam.json || {
    echo "BENCH_fam.json: missing '$needle'"; exit 1;
  }
done
grep -q '"responses_lost": 0' BENCH_fam.json || {
  echo "serve suite: lost responses (exactly-once broken)"; exit 1;
}
grep -q '"responses_duplicated": 0' BENCH_fam.json || {
  echo "serve suite: duplicated responses (exactly-once broken)"; exit 1;
}
grep -q '"backpressure_failures": 0' BENCH_fam.json || {
  echo "serve suite: invokes failed under backpressure"; exit 1;
}

# bench_record cluster: a small-cluster run of the DES scheduling
# simulator must record makespan/utilization/slowdown for all three
# placement policies, a positive makespan, and digest-identical repeats
# (policies_deterministic) — and the recorded ranking itself must be
# byte-identical across two invocations under the fixed seed.  CI
# uploads BENCH_cluster.json as an artifact.
"$TOOLS_DIR/bench_record" --suite cluster --nodes 40 --jobs 400 \
    --label smoke --out BENCH_cluster.json > /dev/null
for needle in makespan_s_random makespan_s_greedy makespan_s_contention \
    cpu_utilization_contention fabric_utilization_greedy \
    slowdown_p50_contention slowdown_p99_random policy_ranking \
    contention_beats_greedy cluster_fluid_bound_s \
    makespan_s_bursty_contention makespan_s_zipf_contention; do
  grep -q "$needle" BENCH_cluster.json || {
    echo "BENCH_cluster.json: missing '$needle'"; exit 1;
  }
done
grep -q '"policies_deterministic": true' BENCH_cluster.json || {
  echo "cluster suite: repeat run diverged under the fixed seed"; exit 1;
}
grep -Eq '"makespan_s_contention": [0-9]*[1-9]' BENCH_cluster.json || {
  echo "cluster suite: contention makespan not positive"; exit 1;
}
rank_a=$(grep '"policy_ranking"' BENCH_cluster.json | tail -1)
"$TOOLS_DIR/bench_record" --suite cluster --nodes 40 --jobs 400 \
    --label smoke2 --out BENCH_cluster.json > /dev/null
rank_b=$(grep '"policy_ranking"' BENCH_cluster.json | tail -1)
[ "$rank_a" = "$rank_b" ] || {
  echo "cluster suite: policy ranking not deterministic"; exit 1;
}

# bench_record mapreduce: a tiny run must record the per-phase breakdown,
# scaling efficiency, and the worker-state-reuse A/B.  CI uploads the
# JSON as an artifact.
"$TOOLS_DIR/bench_record" --suite mapreduce --bytes 1M --reps 2 \
    --workers 1,2 --label smoke --out BENCH_mapreduce.json > /dev/null
for needle in wordcount_engine wordcount_map_ms wordcount_reduce_ms \
    wordcount_merge_ms scaling_efficiency fragment_setup_cold_us \
    fragment_setup_warm_us setup_overhead_reduction_pct; do
  grep -q "$needle" BENCH_mapreduce.json || {
    echo "BENCH_mapreduce.json: missing '$needle'"; exit 1;
  }
done

# bench_record obs: the obs on/off engine A/B and the per-op hot-path
# costs (bench_record is the only harness that measures them).
"$TOOLS_DIR/bench_record" --suite obs --bytes 1M --reps 2 \
    --workers 1 --label smoke --out BENCH_obs.json > /dev/null
for needle in obs_overhead_pct obs_counter_ns obs_span_ns; do
  grep -q "$needle" BENCH_obs.json || {
    echo "BENCH_obs.json: missing '$needle'"; exit 1;
  }
done

# An unknown suite is a usage error (exit 2) and writes nothing.
rc=0
"$TOOLS_DIR/bench_record" --suite nosuch --out nosuch.json \
    > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "--suite nosuch exited $rc, want 2"; exit 1; }
[ ! -e nosuch.json ] || { echo "--suite nosuch wrote a trajectory"; exit 1; }

echo "bench smoke test passed"
