// bench_record: measures a benchmark suite and appends the numbers to a
// JSON trajectory file, so successive PRs accumulate a perf history to
// regress against (the append/splice machinery lives in trajectory.hpp).
//
// The suites, the trajectory file each appends to and each one's default
// --io-throttle are the rows of kSuites at the bottom of this file.
//
// Suite `mapreduce`, all on a generated corpus of --bytes:
//   * wordcount_sequential  — the single-thread hash-map reference;
//   * wordcount_engine/N    — the full engine at each worker count;
//   * stringmatch_engine/N  — the identity-reduce path, planted uppercase
//     keys over a line file;
//   * stringmatch_corpus_engine/N — the same path with 4 corpus words of
//     >= 5 letters as keys over the corpus;
//   * combine_ratio         — raw emits per surviving key (emit-time
//                             combining effectiveness);
//   * wordcount_{map,reduce,merge}_ms/N — per-phase engine seconds at
//     each worker count (where the time goes as parallelism scales);
//   * wordcount_map_mb_s/N, map_cpu_ms/N, map_steals/N — map-phase
//     throughput, summed per-worker thread-CPU time, and locality-
//     scheduler steal count at each worker count;
//   * wordcount_{tokenize,hash,probe,claim}_ms/N — map cycle attribution
//     from a separate instrumented pass (the timed reps run with
//     attribution off);
//   * host_cores            — hardware_concurrency of the recording host;
//   * scaling_efficiency/N  — throughput(N) / (min(N, host_cores) x
//     throughput(1)): parallel efficiency against the cores actually
//     available, so an oversubscribed CI runner measures the engine, not
//     the host;
//   * wall_scaling_efficiency/N — the raw throughput(N) / (N x
//     throughput(1)) (the pre-host-aware series, kept for continuity);
//   * output_identical_across_workers — engine output compared pairwise
//     across the measured worker counts;
//   * fragment_{run,setup}_{cold,warm}_us, setup_overhead_reduction_pct
//     — engine worker-state reuse A/B on a fragment-sized input: "cold"
//     releases the cached emitters/arenas before every run, "warm"
//     reuses them (the out-of-core driver's regime).
//
// Suite `obs` records what the observability layer costs:
//   * wordcount_obs_on/N, wordcount_obs_off/N — the instrumented engine
//     with obs runtime-enabled vs -disabled;
//   * obs_overhead_pct      — the on/off throughput delta (the budget in
//     DESIGN.md section 8 is <= 2%);
//   * obs_counter_ns, obs_span_ns — per-op hot-path costs.
//
// Suite `outofcore` A/Bs the out-of-core driver on a file-backed word
// count (the paper's Fig. 6/7 workload):
//   * outofcore_serial/N     — read the whole file, then run fragments
//     one at a time with a terminal concat+sort merge (the pre-pipeline
//     serial chain);
//   * outofcore_pipelined/N  — stream fragments with prefetch (fragment
//     N+1 reads while N computes) and incremental merge;
//   * pipelined_speedup/N    — pipelined over serial throughput;
//   * peak_resident_fragment_bytes — private input bytes: the records
//     of one batch stitched across frame boundaries; the engine maps
//     everything else in place in pool frames;
//   * integrity_scan_bytes_max, integrity_checks — the longest forward
//     scan any record-aligned cut needed and how many cuts were checked
//     (obs `part.integrity_scan_bytes` / `part.integrity_checks`): the
//     integrity check costs O(record length), not O(fragment).  Only the
//     serial arm's in-memory partitioner runs the check; the pipelined
//     arm's streaming source aligns its cuts as it walks the frames.
// Both arms read cold-cache and padded to --io-throttle MiB/s (default:
// the Table-I disk model's 150 MiB/s seq_read), so the I/O:compute ratio
// matches the storage node being modelled rather than this host's page
// cache; the throttle used is recorded as io_throttle_mibps.
//
// Suite `storage` measures the buffer-pool tier itself: the same
// pipelined job cold (pool dropped + page cache evicted per rep) vs
// warm (pool kept hot across reruns — the daemon-resident regime):
//   * storage_cold / storage_warm — MB/s of each regime;
//   * warm_rerun_speedup, hit_rate — the headline numbers (corpus fits
//     the pool: speedup target >= 3x, hit_rate 1.0);
//   * warm_rerun_speedup_overflow, hit_rate_overflow — the same rerun
//     against a pool ~4x smaller than the corpus: the scan recycles a
//     few frames of its own, so the rerun still hits the pages the cold
//     run left behind (speedup > 1, not a cliff);
//   * read_amplification_overflow — page loads x frame bytes / bytes
//     scanned on that warm overflow rerun: < 1.0 when no page loads
//     twice and earlier pages survive (deterministic, unlike timings);
//     readahead_evicted_overflow (should be 0) and ring_recycles_overflow
//     are the pool counters behind it;
//   * warm_io_wait_ms — the fitting pool's warm rerun's io_wait_seconds:
//     the consumer's wait for its batches when every page is a pool hit
//     (pinning and stitching only — nothing is copied out of frames);
//   * output_identical_warm_cold, peak_resident_within_pool — safety
//     gates recorded as fields.
// The emulated device for this suite defaults to 40 MiB/s (a busy
// shared disk) rather than 150: the suite exists to show what DRAM
// residency buys, so the cold arm must pay a disk-shaped cost.
//
// Suite `cache` measures the serving tier end to end: a live in-process
// daemon + client on the real log-file channel, --bytes per corpus file
// over a universe of distinct queries, three regimes per rep:
//   * cold      — result cache cleared, buffer pool dropped, page cache
//                 evicted: the first-ever ask; pays the emulated disk
//                 (storage-suite default 40 MiB/s) plus the pipeline;
//   * warm_miss — a params nonce busts the cache while engine state and
//                 pool pages stay resident: pays compute only;
//   * hit       — the identical re-ask: pays the channel only, the
//                 daemon writes the cached response without dispatch.
// Recorded: p50/p99 ms per regime, hit_over_cold_p50,
// output_identical_hit_cold (byte equality of a hit against the miss
// that populated it), and hit_rate over a zipf(1.0) trace in a fresh
// key-space (first touch per rank is an honest in-trace miss).
//
// Suite `cluster` runs the DES cluster scheduling simulator (virtual
// time — no wall clocks, byte-identical across machines): a --jobs
// Poisson trace over --nodes nodes (4:1 SD:host), all three placement
// policies head-to-head, each run twice to assert digest-identical
// determinism.  Recorded per policy: makespan_s_<p>, cpu/fabric
// utilisation, slowdown p50/p99, remote reads; plus policy_ranking,
// contention_beats_greedy, policies_deterministic, the fluid
// lower bound, and contention-policy arms on the bursty and zipf-mix
// traces.
//
// Each series reports the best-of --reps wall-clock MB/s (best, not mean:
// the minimum over repetitions is the standard low-noise estimator for
// microbenchmarks on a shared machine).  `--label` names the run (e.g.
// "seed", "pr1-hash-combine").
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "apps/datagen.hpp"
#include "cluster/cluster_sim.hpp"
#include "cluster/placement.hpp"
#include "cluster/trace.hpp"
#include "apps/modules.hpp"
#include "apps/stringmatch.hpp"
#include "apps/wordcount.hpp"
#include "core/cli.hpp"
#include "core/io.hpp"
#include "core/random.hpp"
#include "core/stats.hpp"
#include "core/stopwatch.hpp"
#include "core/strings.hpp"
#include "fam/client.hpp"
#include "fam/daemon.hpp"
#include "mapreduce/engine.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "partition/outofcore.hpp"
#include "storage/buffer_manager.hpp"
#include "trajectory.hpp"

namespace {

using namespace mcsd;

// Keeps measured results observable so the runs are not optimised away.
volatile std::uint64_t g_sink = 0;

/// Best-of-reps wall-clock throughput of `fn` over `bytes` of input.
template <typename Fn>
double measure_mb_s(std::uint64_t bytes, int reps, Fn fn) {
  double best_seconds = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    const double s = watch.elapsed_seconds();
    if (r == 0 || s < best_seconds) best_seconds = s;
  }
  if (best_seconds <= 0.0) return 0.0;
  return static_cast<double>(bytes) / (1024.0 * 1024.0) / best_seconds;
}

/// Best-of-reps per-iteration cost of `fn` run `iters` times.
template <typename Fn>
double measure_ns_per_op(int reps, std::uint64_t iters, Fn fn) {
  double best_seconds = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    for (std::uint64_t i = 0; i < iters; ++i) fn();
    const double s = watch.elapsed_seconds();
    if (r == 0 || s < best_seconds) best_seconds = s;
  }
  return best_seconds * 1e9 / static_cast<double>(iters);
}

/// Drops `path` from the OS page cache so the next read pays real I/O.
/// Both out-of-core arms call this per rep: the regime being modelled is
/// an input far too large to stay cached, which a freshly written
/// benchmark file would otherwise fake out of the page cache.  No-op off
/// Linux (numbers there measure the cached regime).
void evict_from_page_cache(const std::filesystem::path& path) {
#if defined(__linux__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);  // dirty pages are pinned; flush so DONTNEED can drop them
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
#else
  (void)path;
#endif
}

std::vector<std::size_t> parse_worker_counts(const std::string& spec) {
  std::vector<std::size_t> counts;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    counts.push_back(
        static_cast<std::size_t>(std::stoul(spec.substr(pos, comma - pos))));
    pos = comma + 1;
  }
  return counts;
}

void run_mapreduce_suite(bench::TrajectoryEntry& entry,
                         const std::vector<std::size_t>& worker_counts,
                         std::uint64_t bytes, int reps) {
  apps::CorpusOptions corpus;
  corpus.bytes = bytes;
  corpus.vocabulary = 5'000;
  const std::string text = apps::generate_corpus(corpus);

  double combine_ratio = 1.0;
  entry.add_series("wordcount_sequential",
                   measure_mb_s(text.size(), reps, [&] {
                     g_sink = g_sink + apps::wordcount_sequential(text).size();
                   }));

  const std::size_t host_cores =
      std::max(1u, std::thread::hardware_concurrency());
  entry.add_field("host_cores", std::to_string(host_cores));

  double single_worker_mb_s = 0.0;
  std::vector<apps::WordCount> reference_output;
  bool outputs_identical = true;
  for (std::size_t workers : worker_counts) {
    mr::Options opts;
    opts.num_workers = workers;
    mr::Engine<apps::WordCountSpec> engine{opts};
    const auto chunks = mr::split_text(text, 64 * 1024);
    mr::Metrics metrics;
    const double mb_s = measure_mb_s(text.size(), reps, [&] {
      g_sink = g_sink +
               engine.run(apps::WordCountSpec{}, chunks, 0, &metrics).size();
    });
    entry.add_series("wordcount_engine/" + std::to_string(workers), mb_s);
    // Per-phase breakdown of the last measured run: where engine time
    // goes as workers scale (map+combine vs gather/sort/reduce vs merge).
    const std::string n = std::to_string(workers);
    entry.add_number("wordcount_map_ms/" + n, metrics.map_seconds * 1e3);
    entry.add_number("wordcount_reduce_ms/" + n,
                     metrics.reduce_seconds * 1e3);
    entry.add_number("wordcount_merge_ms/" + n, metrics.merge_seconds * 1e3);
    if (metrics.map_seconds > 0.0) {
      entry.add_number("wordcount_map_mb_s/" + n,
                       static_cast<double>(text.size()) / (1024.0 * 1024.0) /
                           metrics.map_seconds);
    }
    // Thread-CPU time across map workers vs the phase's wall clock: when
    // the host has fewer cores than workers, CPU stays flat while wall
    // time does not — the divergence that makes wall-only scaling numbers
    // lie on oversubscribed runners.
    entry.add_number("map_cpu_ms/" + n, metrics.map_cpu_seconds() * 1e3);
    entry.add_number("map_steals/" + n,
                     static_cast<double>(metrics.map_steals()), 0);
    if (workers == 1) single_worker_mb_s = mb_s;
    if (single_worker_mb_s > 0.0) {
      // Parallel efficiency against the cores actually available:
      // throughput(N) / (min(N, host_cores) x throughput(1)).  The raw
      // wall ratio is recorded alongside for continuity with entries
      // written before the host-aware definition.
      const double effective = static_cast<double>(
          std::min<std::size_t>(workers, host_cores));
      entry.add_number("scaling_efficiency/" + n,
                       mb_s / (effective * single_worker_mb_s));
      entry.add_number("wall_scaling_efficiency/" + n,
                       mb_s / (static_cast<double>(workers) *
                               single_worker_mb_s));
    }
    if (metrics.unique_keys != 0) {
      combine_ratio = static_cast<double>(metrics.map_emits) /
                      static_cast<double>(metrics.unique_keys);
    }

    // Cycle-attribution pass on a separate instrumented engine (the timed
    // reps above run uninstrumented); its output doubles as the
    // determinism probe across worker counts.  On this pass Word Count
    // stages its fused per-token loop in 64-key batches so hashing and
    // probing get clocks of their own (see mr::EmitAttribution), so the
    // tokenize/hash/probe fields sum to a little more than a plain map.
    mr::Options attr_opts = opts;
    attr_opts.attribute_map_cycles = true;
    mr::Engine<apps::WordCountSpec> attr_engine{attr_opts};
    mr::Metrics attr_metrics;
    auto output =
        attr_engine.run(apps::WordCountSpec{}, chunks, 0, &attr_metrics);
    double tokenize_s = 0.0, hash_s = 0.0, probe_s = 0.0, claim_s = 0.0;
    for (const auto& wstats : attr_metrics.map_workers) {
      tokenize_s += wstats.tokenize_seconds;
      hash_s += wstats.hash_seconds;
      probe_s += wstats.probe_seconds;
      claim_s += wstats.claim_seconds;
    }
    entry.add_number("wordcount_tokenize_ms/" + n, tokenize_s * 1e3);
    entry.add_number("wordcount_hash_ms/" + n, hash_s * 1e3);
    entry.add_number("wordcount_probe_ms/" + n, probe_s * 1e3);
    entry.add_number("wordcount_claim_ms/" + n, claim_s * 1e3);
    if (workers == worker_counts.front()) {
      reference_output = std::move(output);
    } else if (output != reference_output) {
      outputs_identical = false;
    }
  }
  entry.add_field("output_identical_across_workers",
                  outputs_identical ? "true" : "false");

  // Engine worker-state reuse A/B on a fragment-sized input: arm "cold"
  // drops the cached emitters/arenas/gather buffers before every run
  // (the pre-reuse per-fragment construction cost); arm "warm" reuses
  // them, as the out-of-core driver does.  Both arms run the identical
  // input, so the cold arm's extra per-run time IS the state rebuild
  // cost — it cannot be read off the phase clocks alone, because lazy
  // vector/arena regrowth lands inside the map phase.  Setup overhead is
  // therefore estimated as (cold - warm median run time) plus the warm
  // arm's residue outside the phase clocks (worker-state reset, output
  // bookkeeping).  Measured at one worker: run() then executes inline,
  // so the estimate is free of thread-dispatch jitter — which on a
  // core-constrained runner is far larger than the quantity measured.
  {
    apps::CorpusOptions frag_corpus;
    frag_corpus.bytes = std::max<std::uint64_t>(bytes / 32, 64 * 1024);
    frag_corpus.vocabulary = 5'000;
    const std::string fragment = apps::generate_corpus(frag_corpus);
    const auto frag_chunks = mr::split_text(fragment, 64 * 1024);
    mr::Options opts;
    opts.num_workers = 1;
    mr::Engine<apps::WordCountSpec> engine{opts};
    const int runs = std::max(64, 32 * reps);

    // Median per-run total and residue (total minus the engine's own
    // phase clocks); medians, not best-of, so neither arm wins by the
    // luckiest scheduling slice.
    const auto measure_arm = [&](bool cold) {
      std::vector<double> totals(static_cast<std::size_t>(runs));
      std::vector<double> residues(static_cast<std::size_t>(runs));
      mr::Metrics m;
      for (int i = 0; i < runs; ++i) {
        if (cold) engine.release_worker_state();
        Stopwatch watch;
        g_sink = g_sink +
                 engine.run(apps::WordCountSpec{}, frag_chunks, 0, &m).size();
        const double total = watch.elapsed_seconds();
        totals[static_cast<std::size_t>(i)] = total;
        residues[static_cast<std::size_t>(i)] =
            total - (m.map_seconds + m.reduce_seconds + m.merge_seconds);
      }
      std::sort(totals.begin(), totals.end());
      std::sort(residues.begin(), residues.end());
      const auto mid = static_cast<std::size_t>(runs) / 2;
      return std::pair{totals[mid], residues[mid]};
    };

    g_sink = g_sink +
             engine.run(apps::WordCountSpec{}, frag_chunks).size();  // warmup
    const auto [cold_run_s, cold_residue_s] = measure_arm(true);
    const auto [warm_run_s, warm_residue_s] = measure_arm(false);
    const double warm_setup_s = std::max(0.0, warm_residue_s);
    const double cold_setup_s =
        warm_setup_s + std::max(0.0, cold_run_s - warm_run_s);
    entry.add_field("reuse_fragment_bytes", std::to_string(fragment.size()));
    entry.add_number("fragment_run_cold_us", cold_run_s * 1e6, 1);
    entry.add_number("fragment_run_warm_us", warm_run_s * 1e6, 1);
    entry.add_number("fragment_setup_cold_us", cold_setup_s * 1e6, 1);
    entry.add_number("fragment_setup_warm_us", warm_setup_s * 1e6, 1);
    entry.add_number("setup_overhead_reduction_pct",
                     cold_setup_s > 0.0
                         ? (cold_setup_s - warm_setup_s) / cold_setup_s * 100.0
                         : 0.0,
                     1);
    (void)cold_residue_s;  // folded into cold_setup via the run-time delta
  }

  {
    // Lowercase corpus words, as perfbench's scan_warm asks for: they hit
    // on most lines, so the per-key chunk scan, not memchr, sets the pace.
    apps::StringMatchSpec spec;
    Rng rng{19};
    for (int attempt = 0; spec.keys.size() < 4 && attempt < 10'000;
         ++attempt) {
      std::size_t pos = static_cast<std::size_t>(rng.next_below(text.size()));
      while (pos < text.size() && is_word_char(text[pos])) ++pos;
      while (pos < text.size() && !is_word_char(text[pos])) ++pos;
      std::size_t end = pos;
      while (end < text.size() && is_word_char(text[end])) ++end;
      const std::string word = text.substr(pos, end - pos);
      if (word.size() >= 5 && std::find(spec.keys.begin(), spec.keys.end(),
                                        word) == spec.keys.end()) {
        spec.keys.push_back(word);
      }
    }
    const auto chunks = mr::split_lines(text, 64 * 1024);
    for (std::size_t workers : worker_counts) {
      mr::Options opts;
      opts.num_workers = workers;
      mr::Engine<apps::StringMatchSpec> engine{opts};
      entry.add_series("stringmatch_corpus_engine/" + std::to_string(workers),
                       measure_mb_s(text.size(), reps, [&] {
                         g_sink = g_sink + engine.run(spec, chunks).size();
                       }));
    }
  }

  {
    // Planted uppercase keys over the line file: the case memchr skips.
    apps::LineFileOptions lf;
    lf.bytes = bytes;
    std::string sm_text = apps::generate_line_file(lf);
    apps::KeysOptions ko;
    ko.count = 8;
    apps::StringMatchSpec spec;
    spec.keys = apps::generate_and_plant_keys(sm_text, ko);
    for (std::size_t workers : worker_counts) {
      mr::Options opts;
      opts.num_workers = workers;
      mr::Engine<apps::StringMatchSpec> engine{opts};
      const auto chunks = mr::split_lines(sm_text, 64 * 1024);
      entry.add_series("stringmatch_engine/" + std::to_string(workers),
                       measure_mb_s(sm_text.size(), reps, [&] {
                         g_sink = g_sink + engine.run(spec, chunks).size();
                       }));
    }
  }
  entry.add_number("wordcount_combine_ratio", combine_ratio);
}

void run_obs_suite(bench::TrajectoryEntry& entry,
                   const std::vector<std::size_t>& worker_counts,
                   std::uint64_t bytes, int reps) {
  apps::CorpusOptions corpus;
  corpus.bytes = bytes;
  corpus.vocabulary = 5'000;
  const std::string text = apps::generate_corpus(corpus);
  const auto chunks = mr::split_text(text, 64 * 1024);

  const bool was_enabled = obs::enabled();
  double on_sum = 0.0, off_sum = 0.0;
  for (std::size_t workers : worker_counts) {
    mr::Options opts;
    opts.num_workers = workers;
    mr::Engine<apps::WordCountSpec> engine{opts};
    // Warmup pass so the A/B comparison is not skewed by first-touch
    // page faults and allocator growth landing on whichever side runs
    // first.
    g_sink = g_sink + engine.run(apps::WordCountSpec{}, chunks).size();
    obs::set_enabled(true);
    const double on = measure_mb_s(text.size(), reps, [&] {
      g_sink = g_sink + engine.run(apps::WordCountSpec{}, chunks).size();
    });
    obs::set_enabled(false);
    const double off = measure_mb_s(text.size(), reps, [&] {
      g_sink = g_sink + engine.run(apps::WordCountSpec{}, chunks).size();
    });
    entry.add_series("wordcount_obs_on/" + std::to_string(workers), on);
    entry.add_series("wordcount_obs_off/" + std::to_string(workers), off);
    on_sum += on;
    off_sum += off;
  }

  // Hot-path per-op costs, measured on this thread's shard/ring.
  obs::set_enabled(true);
  obs::Counter& counter =
      obs::Registry::instance().counter("bench.counter_probe");
  entry.add_number("obs_counter_ns",
                   measure_ns_per_op(reps, 2'000'000, [&] {
                     counter.add(1);
                   }),
                   1);
  entry.add_number("obs_span_ns", measure_ns_per_op(reps, 200'000, [] {
                     MCSD_OBS_SPAN("bench", "bench.span_probe");
                   }),
                   1);
  obs::set_enabled(was_enabled);

  const double overhead_pct =
      off_sum > 0.0 ? (off_sum - on_sum) / off_sum * 100.0 : 0.0;
  entry.add_number("obs_overhead_pct", overhead_pct);
#if !MCSD_OBS_ENABLED
  entry.add_field("obs_compiled_out", "true");
#endif
}

void run_outofcore_suite(bench::TrajectoryEntry& entry,
                         const std::vector<std::size_t>& worker_counts,
                         std::uint64_t bytes, int reps,
                         double io_throttle_mibps) {
  apps::CorpusOptions corpus;
  corpus.bytes = bytes;
  corpus.vocabulary = 5'000;
  const std::string text = apps::generate_corpus(corpus);
  TempDir dir{"bench-outofcore"};
  const auto path = dir / "corpus.txt";
  if (Status s = write_file(path, text); !s) {
    std::fprintf(stderr, "cannot stage corpus: %s\n", s.to_string().c_str());
    return;
  }
  // Eight-ish fragments: enough pipeline depth that the first (exposed)
  // read is a small fraction of total I/O.
  const std::uint64_t fragment_bytes =
      std::max<std::uint64_t>(bytes / 8, 64 * 1024);

  part::TextJob<apps::WordCountSpec> serial_job;
  serial_job.merge = [](auto outputs) {
    return part::sum_merge<std::string, std::uint64_t>(std::move(outputs));
  };
  part::TextJob<apps::WordCountSpec> pipelined_job;
  pipelined_job.incremental_merge =
      part::sum_incremental<std::string, std::uint64_t>();

  part::OutOfCoreMetrics metrics;
  for (std::size_t workers : worker_counts) {
    mr::Options opts;
    opts.num_workers = workers;
    mr::Engine<apps::WordCountSpec> engine{opts};

    // The arms are interleaved rep by rep (serial, pipelined, serial, ...)
    // so machine drift — page cache state, background load, turbo — hits
    // both equally; best-of-reps per arm as everywhere else.
    part::PartitionOptions popts;
    popts.partition_size = fragment_bytes;
    part::PipelineOptions stream;
    stream.partition_size = fragment_bytes;
    stream.prefetch = true;
    stream.read_throttle_mibps = io_throttle_mibps;
    // The pipelined arm reads through a buffer pool; give the suite its
    // own and drop it per rep, else rep 2+ would be served warm out of
    // frames and the serial/pipelined A/B would stop comparing drivers.
    // Warm re-runs are suite `storage`'s story, not this one's.
    stream.pool = std::make_shared<storage::BufferManager>();
    double serial_best = 0.0;
    double pipelined_best = 0.0;
    for (int r = 0; r < reps; ++r) {
      // Serial chain: materialise the whole file, fragment in memory, run
      // fragments back to back, terminal merge — the pre-pipeline driver.
      // The whole-file read is padded to the same emulated disk rate the
      // streaming arm reads at, so the A/B compares drivers, not caches.
      evict_from_page_cache(path);
      Stopwatch watch;
      auto contents = read_file(path);
      if (io_throttle_mibps > 0.0) {
        const double modelled = static_cast<double>(contents.value().size()) /
                                (io_throttle_mibps * 1024.0 * 1024.0);
        const double pad = modelled - watch.elapsed_seconds();
        if (pad > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(pad));
        }
      }
      g_sink = g_sink + part::run_partitioned(engine, apps::WordCountSpec{},
                                              contents.value(), popts,
                                              serial_job)
                            .size();
      const double serial_s = watch.elapsed_seconds();
      std::string{}.swap(contents.value());  // release before the other arm

      // Pipelined: pool read-ahead + incremental merge, the engine
      // mapping pool frames in place.
      if (Status s = stream.pool->drop_cached(); !s) {
        std::fprintf(stderr, "pool drop_cached failed: %s\n",
                     s.to_string().c_str());
      }
      evict_from_page_cache(path);
      watch.restart();
      g_sink = g_sink + part::run_partitioned_file(engine,
                                                   apps::WordCountSpec{}, path,
                                                   stream, pipelined_job,
                                                   &metrics)
                            .value()
                            .size();
      const double pipelined_s = watch.elapsed_seconds();

      if (r == 0 || serial_s < serial_best) serial_best = serial_s;
      if (r == 0 || pipelined_s < pipelined_best) pipelined_best = pipelined_s;
    }
    const double mb = static_cast<double>(text.size()) / (1024.0 * 1024.0);
    const double serial = serial_best > 0.0 ? mb / serial_best : 0.0;
    const double pipelined = pipelined_best > 0.0 ? mb / pipelined_best : 0.0;

    entry.add_series("outofcore_serial/" + std::to_string(workers), serial);
    entry.add_series("outofcore_pipelined/" + std::to_string(workers),
                     pipelined);
    entry.add_number("pipelined_speedup/" + std::to_string(workers),
                     serial > 0.0 ? pipelined / serial : 0.0);
  }

  entry.add_number("io_throttle_mibps", io_throttle_mibps);
  entry.add_field("fragment_bytes", std::to_string(fragment_bytes));
  entry.add_field("fragments", std::to_string(metrics.fragments));
  entry.add_field("peak_resident_fragment_bytes",
                  std::to_string(metrics.peak_resident_fragment_bytes));
  entry.add_number("peak_resident_fragments",
                   fragment_bytes != 0
                       ? static_cast<double>(
                             metrics.peak_resident_fragment_bytes) /
                             static_cast<double>(fragment_bytes)
                       : 0.0);
  entry.add_number("pipelined_io_wait_ms", metrics.io_wait_seconds * 1e3);

  std::uint64_t integrity_scan_bytes_max = 0;
  std::uint64_t integrity_checks = 0;
  const obs::MetricsSnapshot snapshot = obs::Registry::instance().snapshot();
  for (const auto& h : snapshot.histograms) {
    if (h.name == "part.integrity_scan_bytes") {
      integrity_scan_bytes_max = h.data.max;
    }
  }
  for (const auto& c : snapshot.counters) {
    if (c.name == "part.integrity_checks") integrity_checks = c.value;
  }
  entry.add_field("integrity_scan_bytes_max",
                  std::to_string(integrity_scan_bytes_max));
  entry.add_field("integrity_checks", std::to_string(integrity_checks));
}

void run_storage_suite(bench::TrajectoryEntry& entry,
                       const std::vector<std::size_t>& worker_counts,
                       std::uint64_t bytes, int reps,
                       double io_throttle_mibps) {
  apps::CorpusOptions corpus;
  corpus.bytes = bytes;
  corpus.vocabulary = 5'000;
  const std::string text = apps::generate_corpus(corpus);
  TempDir dir{"bench-storage"};
  const auto path = dir / "corpus.txt";
  if (Status s = write_file(path, text); !s) {
    std::fprintf(stderr, "cannot stage corpus: %s\n", s.to_string().c_str());
    return;
  }
  const std::uint64_t fragment_bytes =
      std::max<std::uint64_t>(bytes / 8, 64 * 1024);

  // One worker count: this suite measures the storage tier, not engine
  // scaling, so take the largest requested count and hold it fixed.
  const std::size_t workers = worker_counts.empty() ? 2 : worker_counts.back();
  mr::Options opts;
  opts.num_workers = workers;
  mr::Engine<apps::WordCountSpec> engine{opts};
  part::TextJob<apps::WordCountSpec> job;
  job.incremental_merge =
      part::sum_incremental<std::string, std::uint64_t>();

  part::PipelineOptions stream;
  stream.partition_size = fragment_bytes;
  stream.prefetch = true;
  stream.read_throttle_mibps = io_throttle_mibps;

  // Two pools: one the corpus fits with room to spare (the provisioned
  // daemon), one ~4x smaller than the corpus (the oversubscribed one).
  // 64 KiB frames keep even a smoke-sized corpus many pages long, so
  // the overflow pool genuinely overflows at any --bytes.
  storage::PoolOptions fit_opts;
  fit_opts.frame_bytes = 64 * 1024;
  fit_opts.pool_bytes = std::max<std::size_t>(
      2 * static_cast<std::size_t>(bytes), 16 * fit_opts.frame_bytes);
  const auto fitting = std::make_shared<storage::BufferManager>(fit_opts);
  storage::PoolOptions over_opts;
  over_opts.frame_bytes = fit_opts.frame_bytes;
  over_opts.pool_bytes = std::max<std::size_t>(
      static_cast<std::size_t>(bytes) / 4, 4 * over_opts.frame_bytes);
  const auto overflow = std::make_shared<storage::BufferManager>(over_opts);

  using Output = std::vector<mr::KV<std::string, std::uint64_t>>;
  Output reference;
  bool have_reference = false;
  bool output_identical = true;
  const auto run_once = [&](const std::shared_ptr<storage::BufferManager>&
                                pool,
                            part::OutOfCoreMetrics* metrics,
                            double* seconds) -> bool {
    stream.pool = pool;
    Stopwatch watch;
    auto result = part::run_partitioned_file(engine, apps::WordCountSpec{},
                                             path, stream, job, metrics);
    *seconds = watch.elapsed_seconds();
    if (!result) {
      std::fprintf(stderr, "storage suite run failed: %s\n",
                   result.error().to_string().c_str());
      return false;
    }
    g_sink = g_sink + result.value().size();
    if (!have_reference) {
      reference = std::move(result).value();
      have_reference = true;
    } else if (result.value() != reference) {
      output_identical = false;
    }
    return true;
  };

  // Each rep pairs a cold run (pool dropped + page cache evicted: every
  // page pays the emulated disk) with an immediate warm rerun of the
  // identical job against the pool the cold run just primed — the
  // daemon-resident regime.  Interleaved so machine drift hits both.
  const auto measure_pair =
      [&](const std::shared_ptr<storage::BufferManager>& pool,
          part::OutOfCoreMetrics* cold_metrics,
          part::OutOfCoreMetrics* warm_metrics, double* cold_best,
          double* warm_best) -> bool {
    for (int r = 0; r < reps; ++r) {
      if (Status s = pool->drop_cached(); !s) {
        std::fprintf(stderr, "pool drop_cached failed: %s\n",
                     s.to_string().c_str());
      }
      evict_from_page_cache(path);
      double cold_s = 0.0;
      *cold_metrics = {};
      if (!run_once(pool, cold_metrics, &cold_s)) return false;
      double warm_s = 0.0;
      *warm_metrics = {};
      if (!run_once(pool, warm_metrics, &warm_s)) return false;
      if (r == 0 || cold_s < *cold_best) *cold_best = cold_s;
      if (r == 0 || warm_s < *warm_best) *warm_best = warm_s;
    }
    return true;
  };

  part::OutOfCoreMetrics cold_metrics, warm_metrics;
  double cold_best = 0.0, warm_best = 0.0;
  if (!measure_pair(fitting, &cold_metrics, &warm_metrics, &cold_best,
                    &warm_best)) {
    return;
  }
  part::OutOfCoreMetrics over_cold_metrics, over_warm_metrics;
  double over_cold_best = 0.0, over_warm_best = 0.0;
  if (!measure_pair(overflow, &over_cold_metrics, &over_warm_metrics,
                    &over_cold_best, &over_warm_best)) {
    return;
  }

  const double mb = static_cast<double>(text.size()) / (1024.0 * 1024.0);
  entry.add_series("storage_cold", cold_best > 0.0 ? mb / cold_best : 0.0);
  entry.add_series("storage_warm", warm_best > 0.0 ? mb / warm_best : 0.0);
  entry.add_number("warm_rerun_speedup",
                   warm_best > 0.0 ? cold_best / warm_best : 0.0);
  entry.add_number("hit_rate", warm_metrics.storage_hit_rate());
  entry.add_series("storage_warm_overflow",
                   over_warm_best > 0.0 ? mb / over_warm_best : 0.0);
  entry.add_number("warm_rerun_speedup_overflow",
                   over_warm_best > 0.0 ? over_cold_best / over_warm_best
                                        : 0.0);
  entry.add_number("hit_rate_overflow",
                   over_warm_metrics.storage_hit_rate());
  entry.add_number(
      "read_amplification_overflow",
      over_warm_metrics.bytes_streamed == 0
          ? 0.0
          : static_cast<double>(over_warm_metrics.storage_misses *
                                overflow->frame_bytes()) /
                static_cast<double>(over_warm_metrics.bytes_streamed));
  entry.add_field("output_identical_warm_cold",
                  output_identical ? "true" : "false");
  // The private input bytes (stitched records) must stay a sliver next
  // to the pool — the frames hold the data.
  entry.add_field("peak_resident_fragment_bytes",
                  std::to_string(cold_metrics.peak_resident_fragment_bytes));
  entry.add_number("warm_io_wait_ms", warm_metrics.io_wait_seconds * 1e3);
  entry.add_field(
      "peak_resident_within_pool",
      cold_metrics.peak_resident_fragment_bytes <= fitting->capacity_bytes()
          ? "true"
          : "false");
  entry.add_field("storage_evictions_overflow",
                  std::to_string(over_warm_metrics.storage_evictions));
  // Totals over every overflow-pool run: the obs counters
  // storage.readahead_evicted (should stay 0) and storage.ring_recycles
  // that explain read_amplification_overflow.
  const storage::PoolStats over_stats = overflow->stats();
  entry.add_field("readahead_evicted_overflow",
                  std::to_string(over_stats.readahead_evicted));
  entry.add_field("ring_recycles_overflow",
                  std::to_string(over_stats.ring_recycles));
  entry.add_field("pool_bytes", std::to_string(fitting->capacity_bytes()));
  entry.add_field("overflow_pool_bytes",
                  std::to_string(overflow->capacity_bytes()));
  entry.add_field("frame_bytes", std::to_string(fitting->frame_bytes()));
  entry.add_field("fragment_bytes", std::to_string(fragment_bytes));
  entry.add_field("storage_workers", std::to_string(workers));
  entry.add_number("io_throttle_mibps", io_throttle_mibps);
}

/// p-th percentile of `samples_seconds` in milliseconds; 0 when there is
/// no sample (every ask of the arm failed).
double percentile_ms(const std::vector<double>& samples_seconds, double pct) {
  if (samples_seconds.empty()) return 0.0;
  return mcsd::percentile(samples_seconds, pct / 100.0) * 1e3;
}

void run_cache_suite(bench::TrajectoryEntry& entry,
                     const std::vector<std::size_t>& worker_counts,
                     std::uint64_t bytes, int reps,
                     double io_throttle_mibps) {
  constexpr std::size_t kUniverse = 8;
  const std::size_t workers = worker_counts.empty() ? 2 : worker_counts.back();

  TempDir dir{"bench-cache"};
  const auto data_dir = dir / "data";
  const auto log_dir = dir / "logs";
  std::filesystem::create_directories(data_dir);
  std::vector<std::filesystem::path> inputs;
  for (std::size_t j = 0; j < kUniverse; ++j) {
    apps::CorpusOptions corpus;
    corpus.bytes = bytes;
    corpus.vocabulary = 5'000;
    corpus.seed = 42 + j;  // distinct corpora: distinct fingerprints
    const auto path = data_dir / ("corpus_" + std::to_string(j) + ".txt");
    if (Status s = write_file(path, apps::generate_corpus(corpus)); !s) {
      std::fprintf(stderr, "cannot stage corpus: %s\n", s.to_string().c_str());
      return;
    }
    inputs.push_back(path);
  }

  fam::DaemonOptions daemon_options;
  daemon_options.log_dir = log_dir;
  daemon_options.dispatch_threads = 2;
  // Pool sized to hold the whole universe: warm misses must pay compute,
  // not eviction-induced reloads.
  daemon_options.pool_bytes = std::max<std::size_t>(
      2 * kUniverse * static_cast<std::size_t>(bytes), 32ull << 20);
  fam::Daemon daemon{daemon_options};
  if (Status s =
          daemon.preload(apps::make_wordcount_module(workers,
                                                     daemon.buffer_pool()));
      !s) {
    std::fprintf(stderr, "preload failed: %s\n", s.to_string().c_str());
    return;
  }
  daemon.start();

  fam::ClientOptions client_options;
  client_options.log_dir = log_dir;
  client_options.poll_interval = std::chrono::milliseconds{1};
  client_options.timeout = std::chrono::milliseconds{120'000};
  fam::Client client{client_options};

  const auto base_params = [&](std::size_t rank) {
    KeyValueMap params;
    params.set("input", inputs[rank].string());
    params.set_uint("workers", workers);
    params.set_bool("full_counts", true);
    if (io_throttle_mibps > 0.0) {
      params.set_double("read_throttle_mibps", io_throttle_mibps);
    }
    return params;
  };
  const auto invoke = [&](const KeyValueMap& params, fam::InvokeInfo& info)
      -> Result<KeyValueMap> {
    auto result = client.invoke("wordcount", params, &info);
    if (!result) {
      std::fprintf(stderr, "cache suite invoke failed: %s\n",
                   result.error().to_string().c_str());
    }
    return result;
  };

  std::vector<double> cold_s, miss_s, hit_s;
  std::string cold_payload;
  bool identical = true;
  bool hit_phase_all_hits = true;
  for (int r = 0; r < reps; ++r) {
    // Cold: the first-ever ask of each query.  Nothing is resident —
    // not the result cache, not the pool frames, not the page cache.
    daemon.result_cache()->clear();
    if (Status s = daemon.buffer_pool()->drop_cached(); !s) {
      std::fprintf(stderr, "pool drop_cached failed: %s\n",
                   s.to_string().c_str());
    }
    for (const auto& path : inputs) evict_from_page_cache(path);
    for (std::size_t j = 0; j < kUniverse; ++j) {
      fam::InvokeInfo info;
      auto result = invoke(base_params(j), info);
      if (!result) return;
      cold_s.push_back(info.round_trip_seconds);
      if (r == 0 && j == 0) cold_payload = result.value().serialize();
    }
    // Warm miss: a nonce parameter (ignored by the module, part of the
    // cache key) forces a recompute while engine state and pool pages
    // stay resident.  Pool hits are never throttled, so this arm pays
    // compute + channel, not the emulated disk.
    for (std::size_t j = 0; j < kUniverse; ++j) {
      auto params = base_params(j);
      params.set_uint("nonce",
                      static_cast<std::uint64_t>(r) * kUniverse + j);
      fam::InvokeInfo info;
      auto result = invoke(params, info);
      if (!result) return;
      miss_s.push_back(info.round_trip_seconds);
    }
    // Hit: the identical re-ask of the cold-phase queries.
    for (std::size_t j = 0; j < kUniverse; ++j) {
      fam::InvokeInfo info;
      auto result = invoke(base_params(j), info);
      if (!result) return;
      if (info.cache != fam::CacheState::kHit) {
        hit_phase_all_hits = false;
        continue;
      }
      hit_s.push_back(info.round_trip_seconds);
      if (r == 0 && j == 0 && result.value().serialize() != cold_payload) {
        identical = false;
      }
    }
  }

  // Zipf(1.0) serving trace in a fresh key-space (trace=1 marks the
  // params): the first ask per rank is an honest in-trace miss, repeats
  // hit — the hit_rate is the trace's own temporal locality, not an
  // artefact of pre-warming.
  ZipfSampler sampler{kUniverse, 1.0};
  Rng rng{0xBE7C};
  const int trace_len = 100;
  std::uint64_t trace_hits = 0;
  std::vector<double> trace_hit_s;
  for (int t = 0; t < trace_len; ++t) {
    auto params = base_params(sampler.sample(rng));
    params.set_uint("trace", 1);
    fam::InvokeInfo info;
    auto result = invoke(params, info);
    if (!result) return;
    if (info.cache == fam::CacheState::kHit) {
      ++trace_hits;
      trace_hit_s.push_back(info.round_trip_seconds);
    }
  }

  const auto cache_stats = daemon.result_cache()->stats();
  daemon.stop();

  const double cold_p50 = percentile_ms(cold_s, 50.0);
  const double hit_p50 = percentile_ms(hit_s, 50.0);
  entry.add_number("cold_p50_ms", cold_p50, 3);
  entry.add_number("cold_p99_ms", percentile_ms(cold_s, 99.0), 3);
  entry.add_number("warm_miss_p50_ms", percentile_ms(miss_s, 50.0), 3);
  entry.add_number("warm_miss_p99_ms", percentile_ms(miss_s, 99.0), 3);
  entry.add_number("hit_p50_ms", hit_p50, 3);
  entry.add_number("hit_p99_ms", percentile_ms(hit_s, 99.0), 3);
  entry.add_number("hit_over_cold_p50",
                   hit_p50 > 0.0 ? cold_p50 / hit_p50 : 0.0, 1);
  entry.add_number("zipf_hit_rate",
                   static_cast<double>(trace_hits) / trace_len, 3);
  entry.add_number("zipf_hit_p50_ms", percentile_ms(trace_hit_s, 50.0), 3);
  entry.add_field("zipf_trace_len", std::to_string(trace_len));
  entry.add_field("universe", std::to_string(kUniverse));
  entry.add_field("output_identical_hit_cold", identical ? "true" : "false");
  entry.add_field("hit_phase_all_hits",
                  hit_phase_all_hits ? "true" : "false");
  entry.add_field("cache_entries", std::to_string(cache_stats.entries));
  entry.add_field("cache_bytes", std::to_string(cache_stats.bytes));
  entry.add_field("cache_evictions", std::to_string(cache_stats.evictions));
  entry.add_number("io_throttle_mibps", io_throttle_mibps);
}


/// One serving arm for the `serve` suite: `clients` threads share one
/// fam::Client and hammer the daemon with cacheable wordcount asks drawn
/// round-robin over the corpus universe.
struct ServeArmResult {
  double wall_seconds = 0.0;
  std::vector<double> latencies_s;
  std::uint64_t invokes = 0;
  std::uint64_t successes = 0;
  std::uint64_t coalesced_responses = 0;
  std::uint64_t backpressure_retries = 0;
};

ServeArmResult run_serve_arm(fam::Client& client,
                             const std::vector<std::filesystem::path>& inputs,
                             std::size_t workers, int clients,
                             int invokes_per_client) {
  ServeArmResult arm;
  // Warm the daemon first — one solo ask per corpus populates the result
  // cache, so the timed storm measures steady-state serving throughput
  // rather than the cold-start herd (the cache suite owns the cold /
  // warm / hit split).
  for (const auto& input : inputs) {
    KeyValueMap params;
    params.set("input", input.string());
    params.set_uint("workers", workers);
    if (auto warm = client.invoke("wordcount", params); !warm) {
      std::fprintf(stderr, "serve suite warmup failed: %s\n",
                   warm.error().to_string().c_str());
    }
  }
  std::mutex agg;
  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < invokes_per_client; ++i) {
        KeyValueMap params;
        params.set("input",
                   inputs[static_cast<std::size_t>(c + i) % inputs.size()]
                       .string());
        params.set_uint("workers", workers);
        fam::InvokeInfo info;
        auto result = client.invoke("wordcount", params, &info);
        std::lock_guard lock{agg};
        ++arm.invokes;
        if (!result) {
          std::fprintf(stderr, "serve suite invoke failed: %s\n",
                       result.error().to_string().c_str());
          continue;
        }
        ++arm.successes;
        arm.latencies_s.push_back(info.round_trip_seconds);
        if (info.waiters > 1) ++arm.coalesced_responses;
        arm.backpressure_retries +=
            static_cast<std::uint64_t>(info.backpressure_retries);
      }
    });
  }
  for (auto& t : threads) t.join();
  arm.wall_seconds = wall.elapsed_seconds();
  return arm;
}

// Suite `serve` measures the sharded mailbox channel at high client
// concurrency: 64 client threads sending the same cacheable wordcount
// asks.  The headline is invoke throughput (rps) plus p50/p99, coalesce
// rate, and the exactly-once ledger (responses_lost /
// responses_duplicated must both be 0).  A second phase points the
// clients at a daemon with a tiny admission bound so every client eats
// typed backpressure — its p99 shows the retry-after + jittered backoff
// keeping tail latency bounded rather than collapsing into timeouts.
void run_serve_suite(bench::TrajectoryEntry& entry,
                     const std::vector<std::size_t>& worker_counts,
                     std::uint64_t bytes, int reps) {
  constexpr int kClients = 64;
  constexpr std::size_t kUniverse = 4;
  const std::size_t workers = worker_counts.empty() ? 2 : worker_counts.back();
  const int invokes = std::max(reps, 1) * 25;

  TempDir dir{"bench-serve"};
  const auto data_dir = dir / "data";
  std::filesystem::create_directories(data_dir);
  std::vector<std::filesystem::path> inputs;
  for (std::size_t j = 0; j < kUniverse; ++j) {
    apps::CorpusOptions corpus;
    corpus.bytes = bytes;
    corpus.vocabulary = 5'000;
    corpus.seed = 7 + j;
    const auto path = data_dir / ("corpus_" + std::to_string(j) + ".txt");
    if (Status s = write_file(path, apps::generate_corpus(corpus)); !s) {
      std::fprintf(stderr, "cannot stage corpus: %s\n", s.to_string().c_str());
      return;
    }
    inputs.push_back(path);
  }

  const auto make_daemon = [&](const std::filesystem::path& log_dir,
                               std::size_t shards, std::size_t queue_limit)
      -> std::unique_ptr<fam::Daemon> {
    fam::DaemonOptions options;
    options.log_dir = log_dir;
    options.dispatch_threads = 4;
    options.channel_shards = shards;
    options.admission_queue_limit = queue_limit;
    auto daemon = std::make_unique<fam::Daemon>(options);
    if (Status s = daemon->preload(
            apps::make_wordcount_module(workers, daemon->buffer_pool()));
        !s) {
      std::fprintf(stderr, "preload failed: %s\n", s.to_string().c_str());
      return nullptr;
    }
    daemon->start();
    return daemon;
  };
  const auto make_client = [&](const std::filesystem::path& log_dir) {
    fam::ClientOptions options;
    options.log_dir = log_dir;
    options.poll_interval = std::chrono::milliseconds{1};
    options.timeout = std::chrono::milliseconds{120'000};
    return fam::Client{options};
  };

  // Phase 1: the mailbox channel at 64 clients.
  {
    auto daemon = make_daemon(dir / "logs-sharded", 8, 256);
    if (!daemon) return;
    auto client = make_client(dir / "logs-sharded");
    ServeArmResult arm =
        run_serve_arm(client, inputs, workers, kClients, invokes);
    daemon->stop();
    const double rps =
        arm.wall_seconds > 0.0
            ? static_cast<double>(arm.successes) / arm.wall_seconds
            : 0.0;
    entry.add_field("clients", std::to_string(kClients));
    entry.add_number("throughput_rps", rps, 1);
    entry.add_number("serve_p50_ms", percentile_ms(arm.latencies_s, 50.0), 3);
    entry.add_number("serve_p99_ms", percentile_ms(arm.latencies_s, 99.0), 3);
    entry.add_number("coalesce_rate",
                     arm.successes != 0
                         ? static_cast<double>(arm.coalesced_responses) /
                               static_cast<double>(arm.successes)
                         : 0.0,
                     3);
    entry.add_field("responses_lost",
                    std::to_string(arm.invokes - arm.successes));
    entry.add_field("responses_duplicated",
                    std::to_string(daemon->reply_conflicts()));
    entry.add_field("coalesced_total", std::to_string(daemon->coalesced()));
    entry.add_field("batches_run", std::to_string(daemon->batches_run()));
    entry.add_field("channel", "\"sharded\"");
  }

  // Phase 2: backpressure.  A daemon with a 2-batch admission bound and
  // an uncacheable module (every ask is its own batch: no coalescing to
  // absorb the herd) forces typed retry-after rejections; the clients'
  // jittered exponential backoff must keep the tail bounded and every
  // invoke must still finish exactly once.
  {
    fam::DaemonOptions options;
    options.log_dir = dir / "logs-bp";
    options.dispatch_threads = 2;
    options.channel_shards = 8;
    options.admission_queue_limit = 2;
    fam::Daemon daemon{options};
    if (Status s = daemon.preload(std::make_shared<fam::FunctionModule>(
            "spin", [](const KeyValueMap& params) -> Result<KeyValueMap> {
              std::this_thread::sleep_for(std::chrono::microseconds{500});
              KeyValueMap out = params;
              return out;
            }));
        !s) {
      std::fprintf(stderr, "preload failed: %s\n", s.to_string().c_str());
      return;
    }
    daemon.start();
    auto client = make_client(options.log_dir);
    std::mutex agg;
    std::vector<double> latencies_s;
    std::uint64_t retries = 0;
    std::uint64_t failures = 0;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (int i = 0; i < 4; ++i) {
          KeyValueMap params;
          params.set_uint("who", static_cast<std::uint64_t>(c * 1000 + i));
          fam::InvokeInfo info;
          auto result = client.invoke("spin", params, &info);
          std::lock_guard lock{agg};
          if (!result) {
            ++failures;
            continue;
          }
          latencies_s.push_back(info.round_trip_seconds);
          retries += static_cast<std::uint64_t>(info.backpressure_retries);
        }
      });
    }
    for (auto& t : threads) t.join();
    daemon.stop();
    entry.add_number("backpressure_p50_ms",
                     percentile_ms(latencies_s, 50.0), 3);
    entry.add_number("backpressure_p99_ms",
                     percentile_ms(latencies_s, 99.0), 3);
    entry.add_field("backpressure_retries", std::to_string(retries));
    entry.add_field("backpressure_rejected",
                    std::to_string(daemon.rejected()));
    entry.add_field("backpressure_failures", std::to_string(failures));
  }
}

/// Suite `cluster`: the DES scheduling simulator, three placement
/// policies over the same trace.  Pure virtual time — numbers depend
/// only on (nodes, jobs, seed), never on the recording host.
void run_cluster_suite(bench::TrajectoryEntry& entry, std::size_t nodes,
                       std::size_t jobs) {
  using namespace mcsd::sim;
  const std::size_t host_nodes = nodes / 5;
  const std::size_t sd_nodes = nodes - host_nodes;

  ClusterSpec spec;
  spec.sd_nodes = sd_nodes;
  spec.host_nodes = host_nodes;

  TraceOptions topt;
  topt.jobs = jobs;
  topt.horizon_seconds = 600.0;
  topt.seed = 1;
  const std::vector<TraceJob> trace = generate_trace(topt, sd_nodes);

  entry.add_field("cluster_sd_nodes", std::to_string(sd_nodes));
  entry.add_field("cluster_host_nodes", std::to_string(host_nodes));
  entry.add_field("cluster_trace_jobs", std::to_string(trace.size()));
  entry.add_number("cluster_fluid_bound_s",
                   fluid_makespan_lower_bound(spec, trace), 3);

  struct Row {
    std::string name;
    double makespan = 0.0;
  };
  std::vector<Row> rows;
  bool deterministic = true;
  double greedy_makespan = 0.0;
  double contention_makespan = 0.0;
  for (const char* name : {"random", "greedy", "contention"}) {
    const auto policy = make_policy(name);
    const auto policy_again = make_policy(name);
    const ClusterSimResult r = run_cluster_sim(spec, trace, *policy, 1);
    const ClusterSimResult rerun =
        run_cluster_sim(spec, trace, *policy_again, 1);
    deterministic = deterministic && r.digest() == rerun.digest();

    const std::string p = name;
    entry.add_number("makespan_s_" + p, r.makespan_seconds, 3);
    entry.add_number("cpu_utilization_" + p, r.cpu_utilization, 4);
    entry.add_number("fabric_utilization_" + p, r.fabric_utilization, 4);
    entry.add_number("slowdown_p50_" + p, r.slowdown_p50, 3);
    entry.add_number("slowdown_p99_" + p, r.slowdown_p99, 3);
    entry.add_field("remote_reads_" + p, std::to_string(r.remote_reads));
    if (p == "greedy") greedy_makespan = r.makespan_seconds;
    if (p == "contention") contention_makespan = r.makespan_seconds;
    rows.push_back(Row{p, r.makespan_seconds});
  }

  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) {
                     return a.makespan < b.makespan;
                   });
  std::string ranking;
  for (const Row& row : rows) {
    if (!ranking.empty()) ranking += " < ";
    ranking += row.name;
  }
  entry.add_field("policy_ranking", "\"" + bench::json_escape(ranking) + "\"");
  entry.add_field("contention_beats_greedy",
                  contention_makespan < greedy_makespan ? "true" : "false");
  entry.add_field("policies_deterministic",
                  deterministic ? "true" : "false");

  // The contention policy against the nastier traffic shapes: MMPP
  // bursts and the zipf mice-and-elephants size mix.
  const struct {
    TraceKind kind;
    const char* tag;
  } arms[] = {{TraceKind::kBursty, "bursty"}, {TraceKind::kZipfMix, "zipf"}};
  for (const auto& arm : arms) {
    topt.kind = arm.kind;
    const std::vector<TraceJob> t = generate_trace(topt, sd_nodes);
    const auto policy = make_policy("contention");
    const ClusterSimResult r = run_cluster_sim(spec, t, *policy, 1);
    const std::string tag = arm.tag;
    entry.add_number("makespan_s_" + tag + "_contention",
                     r.makespan_seconds, 3);
    entry.add_number("slowdown_p99_" + tag + "_contention", r.slowdown_p99,
                     3);
  }
}

/// Everything a suite's run function may read from the command line.
struct SuiteArgs {
  std::vector<std::size_t> worker_counts;
  std::uint64_t bytes = 0;
  int reps = 1;
  double io_throttle_mibps = 0.0;
  std::size_t nodes = 0;
  std::size_t jobs = 0;
};

/// One benchmark suite: its --suite name, the trajectory file it appends
/// to when --out is not given, and the emulated disk MiB/s its
/// file-reading arms use when --io-throttle is not given (0 for suites
/// that read no throttled file).
struct Suite {
  const char* name;
  const char* trajectory;
  double default_io_throttle_mibps;
  void (*run)(bench::TrajectoryEntry&, const SuiteArgs&);
};

// outofcore models the Table-I disk's 150 MiB/s seq_read.  storage and
// cache model a busy shared disk (40 MiB/s): their cold arms must pay a
// disk-shaped cost for the warm tiers to rescue.  storage appends to the
// out-of-core trajectory (warm re-runs are the next chapter of the same
// I/O story); cache and serve record under fam, the channel's story.
constexpr Suite kSuites[] = {
    {"mapreduce", "BENCH_mapreduce.json", 0.0,
     [](bench::TrajectoryEntry& e, const SuiteArgs& a) {
       run_mapreduce_suite(e, a.worker_counts, a.bytes, a.reps);
     }},
    {"obs", "BENCH_obs.json", 0.0,
     [](bench::TrajectoryEntry& e, const SuiteArgs& a) {
       run_obs_suite(e, a.worker_counts, a.bytes, a.reps);
     }},
    {"outofcore", "BENCH_outofcore.json", 150.0,
     [](bench::TrajectoryEntry& e, const SuiteArgs& a) {
       run_outofcore_suite(e, a.worker_counts, a.bytes, a.reps,
                           a.io_throttle_mibps);
     }},
    {"storage", "BENCH_outofcore.json", 40.0,
     [](bench::TrajectoryEntry& e, const SuiteArgs& a) {
       run_storage_suite(e, a.worker_counts, a.bytes, a.reps,
                         a.io_throttle_mibps);
     }},
    {"cache", "BENCH_fam.json", 40.0,
     [](bench::TrajectoryEntry& e, const SuiteArgs& a) {
       run_cache_suite(e, a.worker_counts, a.bytes, a.reps,
                       a.io_throttle_mibps);
     }},
    {"serve", "BENCH_fam.json", 0.0,
     [](bench::TrajectoryEntry& e, const SuiteArgs& a) {
       run_serve_suite(e, a.worker_counts, a.bytes, a.reps);
     }},
    {"cluster", "BENCH_cluster.json", 0.0,
     [](bench::TrajectoryEntry& e, const SuiteArgs& a) {
       run_cluster_suite(e, a.nodes, a.jobs);
     }},
};

}  // namespace

int main(int argc, char** argv) {
  std::string suite_names;
  for (const Suite& s : kSuites) {
    suite_names += (suite_names.empty() ? "" : " | ") + std::string{s.name};
  }
  CliParser cli;
  cli.add_option("suite", kSuites[0].name,
                 "benchmark suite: " + suite_names);
  cli.add_option("nodes", "200",
                 "cluster suite: total node count (4:1 SD:host split)");
  cli.add_option("jobs", "5000", "cluster suite: arrival-trace job count");
  cli.add_option("out", "", "trajectory file (default BENCH_<suite>.json)");
  cli.add_option("label", "dev", "name for this run in the trajectory");
  cli.add_option("bytes", "8M", "corpus size");
  cli.add_option("reps", "5", "repetitions per series (best is recorded)");
  cli.add_option("workers", "1,2,4", "comma-separated engine worker counts");
  cli.add_option("io-throttle", "",
                 "emulated disk MiB/s for file-reading arms (default 150 "
                 "for outofcore — the Table-I disk model's seq_read — and "
                 "40 for storage — a busy shared disk; 0 = raw device)");
  const auto status = cli.parse(argc, argv);
  if (!status.is_ok()) {
    std::fprintf(stderr, "%s\n", status.to_string().c_str());
    return 2;
  }

  const std::string suite_name = cli.option("suite");
  const Suite* suite = nullptr;
  for (const Suite& s : kSuites) {
    if (suite_name == s.name) suite = &s;
  }
  if (suite == nullptr) {
    std::fprintf(stderr, "unknown --suite '%s' (%s)\n", suite_name.c_str(),
                 suite_names.c_str());
    return 2;
  }
  const auto bytes = cli.option_bytes("bytes");
  const auto reps64 = cli.option_int("reps");
  if (!bytes.is_ok() || !reps64.is_ok() || reps64.value() < 1) {
    std::fprintf(stderr, "bad --bytes or --reps\n");
    return 2;
  }
  const auto nodes = cli.option_int("nodes");
  const auto jobs = cli.option_int("jobs");
  if (!nodes.is_ok() || !jobs.is_ok() || nodes.value() < 2 ||
      jobs.value() < 1) {
    std::fprintf(stderr, "bad --nodes or --jobs\n");
    return 2;
  }
  const std::string throttle_spec = cli.option("io-throttle");
  SuiteArgs args;
  args.worker_counts = parse_worker_counts(cli.option("workers"));
  args.bytes = bytes.value();
  args.reps = static_cast<int>(reps64.value());
  args.io_throttle_mibps =
      throttle_spec.empty() ? suite->default_io_throttle_mibps
                            : std::strtod(throttle_spec.c_str(), nullptr);
  args.nodes = static_cast<std::size_t>(nodes.value());
  args.jobs = static_cast<std::size_t>(jobs.value());
  std::string path = cli.option("out");
  if (path.empty()) path = suite->trajectory;

  bench::TrajectoryEntry entry;
  entry.label = cli.option("label");
  entry.add_field("suite", "\"" + bench::json_escape(suite_name) + "\"");
  entry.add_field("corpus_bytes", std::to_string(args.bytes));
  entry.add_field("reps", std::to_string(args.reps));
  suite->run(entry, args);

  if (const auto write = bench::append_trajectory(path, entry); !write) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 write.to_string().c_str());
    return 1;
  }

  for (const auto& [name, mb_s] : entry.throughput_mb_s) {
    std::printf("%-26s %10.2f MB/s\n", name.c_str(), mb_s);
  }
  for (const auto& [key, value] : entry.fields) {
    if (key == "suite" || key == "corpus_bytes" || key == "reps") continue;
    std::printf("%-26s %10s\n", key.c_str(), value.c_str());
  }
  std::printf("recorded '%s' -> %s\n", entry.label.c_str(), path.c_str());
  return 0;
}
