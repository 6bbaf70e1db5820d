// mcsd_soak — deterministic fault-injection soak of the smartFAM channel.
//
// Stands up a live in-process daemon on a scratch folder, then hammers it
// with N concurrent Client::invoke workers *and* a pipelined out-of-core
// job while core/fault injects EIO, torn/short writes, delayed renames,
// ENOSPC and suppressed watcher events on a seed-scheduled plan.  Three
// invariants are asserted, per the channel's fault model (DESIGN.md):
//
//   1. Every accepted invoke finishes with exactly one response — a
//      payload matching the fault-free run — or a clean typed error
//      (kTimeout / kIoError / kUnavailable / kProtocolError / module
//      error).  Anything else (wrong payload, kNotFound, ...) fails.
//   2. No invoke outlives its budget of timeout x max_attempts (+slack);
//      a watchdog aborts the whole soak if the process wedges.
//   3. The out-of-core job's merged output stays byte-identical to the
//      fault-free baseline (ChunkedFileReader's refill retry at work).
//
//   mcsd_soak --seed 1..5 --faults default --backend both
//             [--clients 4] [--invokes 6] [--timeout-ms 300]
//             [--attempts 5] [--poll-ms 2] [--ooc-bytes 256K]
//             [--reinvoke N] [--zipf N] [--report soak.json] [--verbose]
//
// `--reinvoke N` adds a storage-tier phase: the same out-of-core
// wordcount job is invoked N+1 times against the live daemon (whose
// modules share its long-lived buffer pool), still under the fault
// plan.  Run 1 is cold, runs 2..N+1 are warm — served either from the
// daemon's result cache (a hit never touches the pool) or from pool
// pages; the full count table must stay byte-identical either way.
//
// `--zipf N` adds a serving-tier phase: N invokes drawn zipf(1.0) over
// several distinct corpus files, still under the fault plan.  Every
// result-cache hit must be byte-identical to the miss that populated its
// entry (same epoch), and after the trace one corpus file is mutated and
// re-asked: the response must NOT be a hit on the old entry — the
// identity change must have invalidated it.
//
// Exit status: 0 when every run of every seed/backend held all three
// invariants, 1 otherwise (violations are listed on stderr and in the
// --report JSON).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/modules.hpp"
#include "apps/wordcount.hpp"
#include "core/cli.hpp"
#include "core/fault.hpp"
#include "core/io.hpp"
#include "core/log.hpp"
#include "core/random.hpp"
#include "core/strings.hpp"
#include "fam/client.hpp"
#include "fam/daemon.hpp"
#include "partition/outofcore.hpp"

using namespace mcsd;

namespace {

struct SoakConfig {
  std::vector<std::uint64_t> seeds;
  std::string faults_spec = "default";
  int clients = 4;
  int invokes = 6;
  std::vector<fam::WatcherBackend> backends;
  std::chrono::milliseconds timeout{300};
  int attempts = 5;
  std::chrono::milliseconds daemon_poll{2};
  std::uint64_t ooc_bytes = 256 * 1024;
  int reinvoke = 0;
  int zipf = 0;
  /// Sharded mailbox count for the daemon (0 pins the rev-1 channel).
  int shards = 8;
  std::string report_path;
  bool verbose = false;
};

struct RunStats {
  std::uint64_t seed = 0;
  std::string backend;
  std::uint64_t invokes_total = 0;
  std::uint64_t successes = 0;
  std::map<std::string, std::uint64_t> error_codes;
  std::uint64_t daemon_requests = 0;
  std::uint64_t daemon_errors = 0;
  std::uint64_t response_conflicts = 0;
  std::uint64_t stale_replies = 0;
  std::uint64_t dropped_on_shutdown = 0;
  std::uint64_t faults_injected = 0;
  std::vector<std::pair<std::string, std::string>> fault_detail;
  std::uint64_t ooc_runs = 0;
  std::uint64_t reinvokes = 0;
  std::uint64_t reinvoke_pool_hits = 0;
  std::uint64_t reinvoke_cache_hits = 0;
  std::uint64_t zipf_invokes = 0;
  std::uint64_t zipf_hits = 0;
  std::uint64_t zipf_hits_verified = 0;
  bool zipf_invalidation_observed = false;
  double wall_seconds = 0.0;
  // Rev-2 serving-tier counters (all 0 when --shards 0).
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t superseded = 0;
  std::uint64_t batches_run = 0;
  std::uint64_t deadline_shed = 0;
  std::uint64_t reply_conflicts = 0;
  std::uint64_t shard_frames_drained = 0;
  std::uint64_t shard_frames_corrupt = 0;
  /// Client-observed typed backpressure rejections absorbed (and retried).
  std::uint64_t backpressure_retries = 0;
  /// Successful invokes that shared a coalesced module run (waiters > 1).
  std::uint64_t coalesced_responses = 0;
  std::vector<std::string> violations;
};

/// Deterministic filler text: seeded LCG over a small vocabulary, one
/// sentence per line (stringmatch needs line records).
std::string make_text(std::uint64_t seed, std::uint64_t target_bytes) {
  static constexpr const char* kVocab[] = {
      "storage", "node",  "module", "log",    "record", "invoke",
      "fault",   "merge", "stream", "daemon", "core",   "channel"};
  constexpr std::size_t kVocabSize = sizeof(kVocab) / sizeof(kVocab[0]);
  std::uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  std::string text;
  text.reserve(target_bytes + 64);
  int words_in_line = 0;
  while (text.size() < target_bytes) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    text += kVocab[(state >> 33) % kVocabSize];
    if (++words_in_line == 8) {
      text += '\n';
      words_in_line = 0;
    } else {
      text += ' ';
    }
  }
  if (text.empty() || text.back() != '\n') text += '\n';
  return text;
}

/// One module workload: what to send and which result keys must match
/// the fault-free capture (only timing-independent keys qualify —
/// peak_resident_bytes and friends vary run to run).
struct Workload {
  std::string module;
  KeyValueMap params;
  std::vector<std::string> stable_keys;
};

std::vector<Workload> make_workloads(const std::filesystem::path& input) {
  std::vector<Workload> loads;
  {
    Workload wc;
    wc.module = "wordcount";
    wc.params.set("input", input.string());
    wc.params.set_uint("workers", 2);
    wc.stable_keys = {"unique", "total", "fragments"};
    loads.push_back(std::move(wc));
  }
  {
    Workload sm;
    sm.module = "stringmatch";
    sm.params.set("input", input.string());
    sm.params.set("keys", "storage,fault,missingword");
    sm.params.set_uint("workers", 2);
    sm.stable_keys = {"matches", "fragments"};
    loads.push_back(std::move(sm));
  }
  return loads;
}

/// The pipelined out-of-core job the soak runs alongside the invokes.
/// Returns the merged word counts serialised to one canonical string so
/// "byte-identical to the fault-free run" is literal.
Result<std::string> run_ooc_job(const std::filesystem::path& input) {
  mr::Options mr_opts;
  mr_opts.num_workers = 2;
  mr::Engine<apps::WordCountSpec> engine{mr_opts};
  part::PipelineOptions popts;
  popts.partition_size = 32 * 1024;  // several fragments => several refills
  part::TextJob<apps::WordCountSpec> job;
  job.incremental_merge = part::sum_incremental<std::string, std::uint64_t>();
  auto merged =
      part::run_partitioned_file(engine, apps::WordCountSpec{}, input, popts,
                                 job);
  if (!merged) return merged.error();
  auto counts = std::move(merged).value();
  std::sort(counts.begin(), counts.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  std::string out;
  for (const auto& [word, count] : counts) {
    out += word;
    out += '\t';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

bool allowed_error(ErrorCode code) {
  switch (code) {
    case ErrorCode::kTimeout:
    case ErrorCode::kIoError:
    case ErrorCode::kUnavailable:
    case ErrorCode::kProtocolError:
    case ErrorCode::kInternal:  // "module error: ..." (module saw a fault)
      return true;
    default:
      return false;
  }
}

const char* backend_name(fam::WatcherBackend backend) {
  return backend == fam::WatcherBackend::kInotify ? "inotify" : "polling";
}

RunStats run_soak(std::uint64_t seed, fam::WatcherBackend backend,
                  const SoakConfig& config) {
  RunStats stats;
  stats.seed = seed;
  stats.backend = backend_name(backend);
  std::mutex stats_mutex;
  const auto violation = [&](std::string what) {
    std::lock_guard lock{stats_mutex};
    std::fprintf(stderr, "[soak seed=%llu %s] VIOLATION: %s\n",
                 static_cast<unsigned long long>(seed),
                 stats.backend.c_str(), what.c_str());
    stats.violations.push_back(std::move(what));
  };

  TempDir dir{"mcsd-soak"};
  const auto data_dir = dir / "data";
  const auto log_dir = dir / "logs";
  std::filesystem::create_directories(data_dir);
  const auto module_input = data_dir / "module_input.txt";
  const auto ooc_input = data_dir / "ooc_input.txt";
  if (!write_file(module_input, make_text(seed, 64 * 1024)) ||
      !write_file(ooc_input, make_text(seed + 1, config.ooc_bytes))) {
    violation("cannot write soak inputs");
    return stats;
  }

  fam::DaemonOptions daemon_options;
  daemon_options.log_dir = log_dir;
  daemon_options.poll_interval = config.daemon_poll;
  daemon_options.dispatch_threads = 2;
  daemon_options.backend = backend;
  daemon_options.channel_shards = static_cast<std::size_t>(config.shards);
  fam::Daemon daemon{daemon_options};
  stats.backend = backend_name(daemon.active_backend());  // may have fallen back
  // Modules share the daemon's pool, exactly as the deployable daemon
  // wires them — repeat invocations over one corpus run warm.
  for (auto module :
       {apps::make_wordcount_module(2, daemon.buffer_pool()),
        apps::make_stringmatch_module(2, daemon.buffer_pool())}) {
    if (Status s = daemon.preload(std::move(module)); !s) {
      violation("preload failed: " + s.to_string());
      return stats;
    }
  }
  daemon.start();

  fam::ClientOptions client_options;
  client_options.log_dir = log_dir;
  client_options.poll_interval = std::chrono::milliseconds{1};
  client_options.timeout = config.timeout;
  client_options.max_attempts = config.attempts;
  // Two Client instances sharing the module logs: their per-module
  // serialisation is process-local, so cross-client seq collisions (the
  // multi-host scenario) happen naturally under load.
  fam::Client client_a{client_options};
  fam::Client client_b{client_options};
  fam::Client* const client_pool[2] = {&client_a, &client_b};

  // Fault-free capture: expected stable results per workload, and the
  // out-of-core baseline, both before any plan is installed.
  auto workloads = make_workloads(module_input);
  for (auto& load : workloads) {
    auto result = client_a.invoke(load.module, load.params);
    if (!result) {
      violation("fault-free " + load.module +
                " invoke failed: " + result.error().to_string());
      return stats;
    }
    // Rewrite stable_keys into "key=expected" pairs for the workers.
    std::vector<std::string> expected;
    expected.reserve(load.stable_keys.size());
    for (const auto& key : load.stable_keys) {
      expected.push_back(key + "=" + result.value().get_or(key, "<missing>"));
    }
    load.stable_keys = std::move(expected);
  }
  auto baseline = run_ooc_job(ooc_input);
  if (!baseline) {
    violation("fault-free out-of-core run failed: " +
              baseline.error().to_string());
    return stats;
  }

  auto plan_result = fault::FaultPlan::from_spec(config.faults_spec);
  if (!plan_result) {
    violation("bad fault plan: " + plan_result.error().to_string());
    return stats;
  }
  fault::FaultPlan plan = std::move(plan_result).value();
  plan.seed = seed;

  const Stopwatch wall;
  std::atomic<bool> done{false};
  // Per-invoke budget (invariant 2): every attempt may burn the full
  // timeout plus channel I/O; anything past that with slack is a hang.
  // The slack scales with client count — at N threads on few cores a
  // runnable client waits O(N) timeslices between poll wakeups, so wall
  // time legitimately stretches far past the client-side timeout a
  // thousand concurrent clients share (measured: ~2.5x at N=1000 on one
  // core).  The watchdog below still bounds the whole soak.
  const auto invoke_budget =
      config.attempts * (config.timeout + std::chrono::milliseconds{200}) +
      std::chrono::seconds{2} +
      std::chrono::milliseconds{15} * config.clients;
  // Whole-soak watchdog: workers of one client serialise per module, so
  // the worst honest case is every invoke timing out back to back.
  const auto global_budget =
      static_cast<std::uint64_t>(config.clients) * config.invokes *
          static_cast<std::uint64_t>(invoke_budget.count()) +
      60'000;
  std::thread watchdog{[&] {
    Stopwatch elapsed;
    while (!done.load(std::memory_order_relaxed)) {
      if (elapsed.elapsed() > std::chrono::milliseconds{global_budget}) {
        std::fprintf(stderr,
                     "[soak seed=%llu %s] WEDGED: still running after %llu "
                     "ms; aborting\n",
                     static_cast<unsigned long long>(seed),
                     stats.backend.c_str(),
                     static_cast<unsigned long long>(global_budget));
        std::_Exit(3);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds{100});
    }
  }};

  {
    fault::FaultScope scope{plan};

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(config.clients));
    for (int w = 0; w < config.clients; ++w) {
      workers.emplace_back([&, w] {
        fam::Client& client = *client_pool[w % 2];
        for (int i = 0; i < config.invokes; ++i) {
          const Workload& load = workloads[static_cast<std::size_t>(w + i) %
                                           workloads.size()];
          Stopwatch one;
          fam::InvokeInfo info;
          auto result = client.invoke(load.module, load.params, &info);
          const auto took =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  one.elapsed());
          {
            std::lock_guard lock{stats_mutex};
            ++stats.invokes_total;
          }
          if (took > invoke_budget) {
            violation("invoke of " + load.module + " took " +
                      std::to_string(took.count()) + " ms (budget " +
                      std::to_string(invoke_budget.count()) + " ms)");
          }
          if (result) {
            std::lock_guard lock{stats_mutex};
            ++stats.successes;
            stats.backpressure_retries +=
                static_cast<std::uint64_t>(info.backpressure_retries);
            if (info.waiters > 1) ++stats.coalesced_responses;
            for (const auto& key_equals_value : load.stable_keys) {
              const auto eq = key_equals_value.find('=');
              const std::string key = key_equals_value.substr(0, eq);
              const std::string want = key_equals_value.substr(eq + 1);
              const std::string got =
                  result.value().get_or(key, "<missing>");
              if (got != want) {
                stats.violations.push_back(
                    load.module + " payload mismatch: " + key + "=" + got +
                    ", fault-free run said " + want);
                std::fprintf(stderr, "[soak seed=%llu %s] VIOLATION: %s\n",
                             static_cast<unsigned long long>(seed),
                             stats.backend.c_str(),
                             stats.violations.back().c_str());
              }
            }
          } else {
            const ErrorCode code = result.error().code();
            {
              std::lock_guard lock{stats_mutex};
              ++stats.error_codes[std::string{to_string(code)}];
            }
            if (!allowed_error(code)) {
              violation(load.module + " returned a non-channel error: " +
                        result.error().to_string());
            }
            if (config.verbose) {
              std::fprintf(stderr, "[soak] %s attempt error: %s\n",
                           load.module.c_str(),
                           result.error().to_string().c_str());
            }
          }
        }
      });
    }

    // The out-of-core job runs concurrently with the invoke storm and
    // must reproduce the baseline bytes every time (invariant 3).
    std::atomic<bool> workers_done{false};
    std::thread ooc{[&] {
      do {
        auto faulted = run_ooc_job(ooc_input);
        {
          std::lock_guard lock{stats_mutex};
          ++stats.ooc_runs;
        }
        if (!faulted) {
          violation("out-of-core run failed under faults: " +
                    faulted.error().to_string());
        } else if (faulted.value() != baseline.value()) {
          violation("out-of-core output diverged from fault-free baseline (" +
                    std::to_string(faulted.value().size()) + " vs " +
                    std::to_string(baseline.value().size()) + " bytes)");
        }
      } while (!workers_done.load(std::memory_order_relaxed));
    }};

    for (auto& worker : workers) worker.join();
    workers_done.store(true, std::memory_order_relaxed);
    ooc.join();

    if (config.reinvoke > 0) {
      // Storage-tier phase: the identical out-of-core job, N+1 times,
      // through the real channel, still under the fault plan.  The
      // daemon's pool keeps the corpus resident between invocations, so
      // the first run is cold and the rest are warm — with byte-for-byte
      // identical results, or the tier is serving corrupt pages.
      KeyValueMap params;
      params.set("input", ooc_input.string());
      params.set_uint("partition_size", 32 * 1024);
      params.set_uint("workers", 2);
      params.set_bool("full_counts", true);
      std::string cold_counts;
      bool have_cold = false;
      storage::PoolStats after_cold;
      std::uint64_t warm_successes = 0;
      for (int i = 0; i <= config.reinvoke; ++i) {
        fam::InvokeInfo info;
        auto result = client_a.invoke("wordcount", params, &info);
        {
          std::lock_guard lock{stats_mutex};
          ++stats.reinvokes;
          if (result && info.cache == fam::CacheState::kHit) {
            ++stats.reinvoke_cache_hits;
          }
        }
        if (!result) {
          // Channel errors are legitimate under faults; anything else
          // is a soak failure like everywhere else.
          if (!allowed_error(result.error().code())) {
            violation("reinvoke returned a non-channel error: " +
                      result.error().to_string());
          }
          continue;
        }
        const std::string counts = result.value().get_or("counts", "");
        if (counts.empty()) {
          violation("reinvoke response carried no full_counts table");
          continue;
        }
        if (!have_cold) {
          have_cold = true;
          cold_counts = counts;
          after_cold = daemon.buffer_pool()->stats();
        } else {
          ++warm_successes;
          if (counts != cold_counts) {
            violation("reinvoke " + std::to_string(i) +
                      ": warm output diverged from cold run (" +
                      std::to_string(counts.size()) + " vs " +
                      std::to_string(cold_counts.size()) + " bytes)");
          }
        }
      }
      if (warm_successes > 0) {
        const storage::PoolStats after_warm = daemon.buffer_pool()->stats();
        stats.reinvoke_pool_hits = after_warm.hits - after_cold.hits;
        // A warm reinvoke must be served warm somewhere: either the
        // result cache answered it outright (never touching the pool),
        // or the module re-ran against pool-resident pages.
        if (stats.reinvoke_pool_hits == 0 && stats.reinvoke_cache_hits == 0) {
          violation("warm reinvokes hit neither the result cache nor the "
                    "daemon's buffer pool");
        }
      }
    }

    if (config.zipf > 0) {
      // Serving-tier phase: a zipf(1.0)-skewed repeat-traffic trace over
      // several distinct corpus files, still under the fault plan.
      // Assertions: (1) every result-cache hit whose epoch matches a miss
      // we observed is byte-identical to that miss's full payload — the
      // cache must replay, not approximate; (2) mutating a corpus file
      // afterwards invalidates its entry — the re-ask must not be served
      // from the old cached result.
      constexpr std::size_t kZipfFiles = 4;
      std::vector<std::filesystem::path> zipf_inputs;
      bool zipf_ready = true;
      for (std::size_t j = 0; j < kZipfFiles; ++j) {
        const auto path =
            data_dir / ("zipf_" + std::to_string(j) + ".txt");
        // Written under the fault plan; write_file retries are the
        // caller's job, so fall back to skipping the phase on failure.
        if (!write_file(path, make_text(seed * 31 + j, 16 * 1024))) {
          zipf_ready = false;
          break;
        }
        zipf_inputs.push_back(path);
      }
      if (!zipf_ready) {
        violation("cannot write zipf corpus files");
      } else {
        ZipfSampler zipf_ranks{kZipfFiles, 1.0};
        Rng zipf_rng{seed ^ 0x5A1Fu};
        // Per rank: the payload + epoch of the last observed miss.
        std::vector<std::string> miss_payload(kZipfFiles);
        std::vector<std::uint64_t> miss_epoch(kZipfFiles, 0);
        const auto invoke_rank = [&](std::size_t rank, fam::InvokeInfo& info)
            -> Result<KeyValueMap> {
          KeyValueMap params;
          params.set("input", zipf_inputs[rank].string());
          params.set_uint("workers", 2);
          params.set_bool("full_counts", true);
          return client_a.invoke("wordcount", params, &info);
        };
        for (int i = 0; i < config.zipf; ++i) {
          const std::size_t rank = zipf_ranks.sample(zipf_rng);
          fam::InvokeInfo info;
          auto result = invoke_rank(rank, info);
          {
            std::lock_guard lock{stats_mutex};
            ++stats.zipf_invokes;
          }
          if (!result) {
            if (!allowed_error(result.error().code())) {
              violation("zipf invoke returned a non-channel error: " +
                        result.error().to_string());
            }
            continue;
          }
          const std::string payload = result.value().serialize();
          if (info.cache == fam::CacheState::kMiss) {
            miss_payload[rank] = payload;
            miss_epoch[rank] = info.cache_epoch;
          } else if (info.cache == fam::CacheState::kHit) {
            std::lock_guard lock{stats_mutex};
            ++stats.zipf_hits;
            if (info.cache_epoch == miss_epoch[rank] &&
                !miss_payload[rank].empty()) {
              ++stats.zipf_hits_verified;
              if (payload != miss_payload[rank]) {
                stats.violations.push_back(
                    "zipf hit diverged from the miss that populated it "
                    "(rank " + std::to_string(rank) + ", epoch " +
                    std::to_string(info.cache_epoch) + ")");
                std::fprintf(stderr, "[soak seed=%llu %s] VIOLATION: %s\n",
                             static_cast<unsigned long long>(seed),
                             stats.backend.c_str(),
                             stats.violations.back().c_str());
              }
            }
          }
        }
        // Mutation check: grow rank 0's file (identity change: size and
        // mtime move) and re-ask.  A response served as a hit on the old
        // epoch means invalidation failed.
        const std::uint64_t old_epoch = miss_epoch[0];
        if (auto grown = read_file(zipf_inputs[0])) {
          std::string mutated = std::move(grown).value();
          mutated += "mutation sentinel words appended by the soak\n";
          if (write_file(zipf_inputs[0], mutated)) {
            for (int attempt = 0; attempt < 5; ++attempt) {
              fam::InvokeInfo info;
              auto result = invoke_rank(0, info);
              if (!result) {
                if (!allowed_error(result.error().code())) {
                  violation("post-mutation invoke returned a non-channel "
                            "error: " + result.error().to_string());
                  break;
                }
                continue;
              }
              if (info.cache == fam::CacheState::kHit &&
                  info.cache_epoch == old_epoch && old_epoch != 0) {
                violation("mutated corpus file was served from its stale "
                          "cache entry (epoch " + std::to_string(old_epoch) +
                          ")");
              } else {
                std::lock_guard lock{stats_mutex};
                stats.zipf_invalidation_observed = true;
              }
              break;
            }
            if (!stats.zipf_invalidation_observed &&
                stats.violations.empty()) {
              // Every post-mutation attempt drowned in channel faults —
              // rare, but not an invalidation failure.
              std::fprintf(stderr,
                           "[soak seed=%llu %s] note: mutation check "
                           "inconclusive (channel faults)\n",
                           static_cast<unsigned long long>(seed),
                           stats.backend.c_str());
            }
          }
        }
      }
    }

    const auto& injector = fault::Injector::instance();
    stats.faults_injected = injector.total_injected();
    const KeyValueMap report = injector.injected_report();
    for (const auto& [key, value] : report.entries()) {
      stats.fault_detail.emplace_back(key, value);
    }
  }

  done.store(true, std::memory_order_relaxed);
  watchdog.join();
  daemon.stop();
  stats.daemon_requests = daemon.requests_handled();
  stats.daemon_errors = daemon.errors_returned();
  stats.response_conflicts = daemon.response_conflicts();
  stats.stale_replies = daemon.stale_replies();
  stats.dropped_on_shutdown = daemon.dropped_on_shutdown();
  stats.accepted = daemon.accepted();
  stats.rejected = daemon.rejected();
  stats.coalesced = daemon.coalesced();
  stats.superseded = daemon.superseded();
  stats.batches_run = daemon.batches_run();
  stats.deadline_shed = daemon.deadline_shed();
  stats.reply_conflicts = daemon.reply_conflicts();
  for (const auto& shard : daemon.shard_stats()) {
    stats.shard_frames_drained += shard.drained;
    stats.shard_frames_corrupt += shard.corrupt;
  }
  stats.wall_seconds = wall.elapsed_seconds();
  return stats;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string report_json(const std::vector<RunStats>& runs,
                        const SoakConfig& config) {
  std::string json = "{\n  \"faults\": \"" + json_escape(config.faults_spec) +
                     "\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunStats& r = runs[i];
    json += "    {\"seed\": " + std::to_string(r.seed) + ", \"backend\": \"" +
            r.backend + "\", \"invokes\": " + std::to_string(r.invokes_total) +
            ", \"successes\": " + std::to_string(r.successes) +
            ", \"ooc_runs\": " + std::to_string(r.ooc_runs) +
            ", \"reinvokes\": " + std::to_string(r.reinvokes) +
            ", \"reinvoke_pool_hits\": " +
            std::to_string(r.reinvoke_pool_hits) +
            ", \"reinvoke_cache_hits\": " +
            std::to_string(r.reinvoke_cache_hits) +
            ", \"zipf_invokes\": " + std::to_string(r.zipf_invokes) +
            ", \"zipf_hits\": " + std::to_string(r.zipf_hits) +
            ", \"zipf_hits_verified\": " +
            std::to_string(r.zipf_hits_verified) +
            ", \"zipf_invalidation_observed\": " +
            (r.zipf_invalidation_observed ? "true" : "false") +
            ", \"daemon_requests\": " + std::to_string(r.daemon_requests) +
            ", \"daemon_errors\": " + std::to_string(r.daemon_errors) +
            ", \"response_conflicts\": " +
            std::to_string(r.response_conflicts) +
            ", \"stale_replies\": " + std::to_string(r.stale_replies) +
            ", \"dropped_on_shutdown\": " +
            std::to_string(r.dropped_on_shutdown) +
            ", \"faults_injected\": " + std::to_string(r.faults_injected) +
            ", \"accepted\": " + std::to_string(r.accepted) +
            ", \"rejected\": " + std::to_string(r.rejected) +
            ", \"coalesced\": " + std::to_string(r.coalesced) +
            ", \"superseded\": " + std::to_string(r.superseded) +
            ", \"batches_run\": " + std::to_string(r.batches_run) +
            ", \"deadline_shed\": " + std::to_string(r.deadline_shed) +
            ", \"reply_conflicts\": " + std::to_string(r.reply_conflicts) +
            ", \"shard_frames_drained\": " +
            std::to_string(r.shard_frames_drained) +
            ", \"shard_frames_corrupt\": " +
            std::to_string(r.shard_frames_corrupt) +
            ", \"backpressure_retries\": " +
            std::to_string(r.backpressure_retries) +
            ", \"coalesced_responses\": " +
            std::to_string(r.coalesced_responses) +
            ", \"wall_seconds\": " + std::to_string(r.wall_seconds);
    json += ", \"errors\": {";
    bool first = true;
    for (const auto& [code, count] : r.error_codes) {
      if (!first) json += ", ";
      first = false;
      json += "\"" + json_escape(code) + "\": " + std::to_string(count);
    }
    json += "}, \"fault_detail\": {";
    first = true;
    for (const auto& [key, value] : r.fault_detail) {
      if (!first) json += ", ";
      first = false;
      json += "\"" + json_escape(key) + "\": " + value;
    }
    json += "}, \"violations\": [";
    first = true;
    for (const auto& v : r.violations) {
      if (!first) json += ", ";
      first = false;
      json += "\"" + json_escape(v) + "\"";
    }
    json += "]}";
    json += i + 1 < runs.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  return json;
}

Result<std::vector<std::uint64_t>> parse_seeds(std::string_view spec) {
  std::vector<std::uint64_t> seeds;
  for (const auto part : split(spec, ',')) {
    const auto dots = part.find("..");
    if (dots == std::string_view::npos) {
      seeds.push_back(std::strtoull(std::string{part}.c_str(), nullptr, 10));
      continue;
    }
    const auto lo =
        std::strtoull(std::string{part.substr(0, dots)}.c_str(), nullptr, 10);
    const auto hi =
        std::strtoull(std::string{part.substr(dots + 2)}.c_str(), nullptr, 10);
    if (hi < lo || hi - lo > 10'000) {
      return Error{ErrorCode::kInvalidArgument,
                   "bad seed range: " + std::string{part}};
    }
    for (std::uint64_t s = lo; s <= hi; ++s) seeds.push_back(s);
  }
  if (seeds.empty()) {
    return Error{ErrorCode::kInvalidArgument, "no seeds given"};
  }
  return seeds;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  cli.add_option("seed", "1..3", "seed or range, e.g. 7 or 1..5 or 1,4,9");
  cli.add_option("faults", "default",
                 "fault plan: default, none, inline spec, or a plan file");
  cli.add_option("clients", "4", "concurrent invoke workers");
  cli.add_option("invokes", "6", "invokes per worker");
  cli.add_option("backend", "both", "polling, inotify, or both");
  cli.add_option("timeout-ms", "300", "per-attempt invoke timeout");
  cli.add_option("attempts", "5", "invoke attempts before a typed failure");
  cli.add_option("poll-ms", "2", "daemon watcher poll interval");
  cli.add_option("ooc-bytes", "256K", "out-of-core input size");
  cli.add_option("reinvoke", "0",
                 "re-run the same out-of-core job N more times against the "
                 "live daemon (cold-vs-warm storage-tier check)");
  cli.add_option("zipf", "0",
                 "run N zipf(1.0)-skewed repeated invokes over distinct "
                 "corpus files (result-cache identity + invalidation check)");
  cli.add_option("shards", "8",
                 "daemon mailbox shards (0 pins the rev-1 channel)");
  cli.add_option("report", "", "write a JSON soak report here");
  cli.add_flag("verbose", "log every failed attempt");
  if (Status s = cli.parse(argc, argv); !s) {
    std::fprintf(stderr, "%s\n", s.error().message().c_str());
    return s.error().code() == ErrorCode::kUnavailable ? 0 : 2;
  }

  SoakConfig config;
  auto seeds = parse_seeds(cli.option("seed"));
  if (!seeds) {
    std::fprintf(stderr, "%s\n", seeds.error().to_string().c_str());
    return 2;
  }
  config.seeds = std::move(seeds).value();
  config.faults_spec = cli.option("faults");
  // The spec may be a plan file (as MCSD_FAULTS allows): inline it.
  if (std::filesystem::exists(config.faults_spec)) {
    if (auto contents = read_file(config.faults_spec)) {
      config.faults_spec = contents.value();
    }
  }
  config.clients =
      static_cast<int>(std::max<std::int64_t>(
          cli.option_int("clients").value_or(4), 1));
  config.invokes =
      static_cast<int>(std::max<std::int64_t>(
          cli.option_int("invokes").value_or(6), 1));
  config.timeout = std::chrono::milliseconds{
      std::max<std::int64_t>(cli.option_int("timeout-ms").value_or(300), 10)};
  config.attempts = static_cast<int>(
      std::max<std::int64_t>(cli.option_int("attempts").value_or(5), 1));
  config.daemon_poll = std::chrono::milliseconds{
      std::max<std::int64_t>(cli.option_int("poll-ms").value_or(2), 1)};
  config.ooc_bytes =
      std::max<std::uint64_t>(cli.option_bytes("ooc-bytes").value_or(256 * 1024),
                              4 * 1024);
  config.reinvoke = static_cast<int>(
      std::max<std::int64_t>(cli.option_int("reinvoke").value_or(0), 0));
  config.zipf = static_cast<int>(
      std::max<std::int64_t>(cli.option_int("zipf").value_or(0), 0));
  config.shards = static_cast<int>(
      std::max<std::int64_t>(cli.option_int("shards").value_or(8), 0));
  config.report_path = cli.option("report");
  config.verbose = cli.flag("verbose");
  const std::string backend = cli.option("backend");
  if (backend == "both") {
    config.backends = {fam::WatcherBackend::kPolling,
                       fam::WatcherBackend::kInotify};
  } else if (backend == "polling") {
    config.backends = {fam::WatcherBackend::kPolling};
  } else if (backend == "inotify") {
    config.backends = {fam::WatcherBackend::kInotify};
  } else {
    std::fprintf(stderr, "--backend must be polling, inotify or both\n");
    return 2;
  }
  // Sanity-check the plan up front so a typo fails fast, not mid-soak.
  if (auto plan = fault::FaultPlan::from_spec(config.faults_spec); !plan) {
    std::fprintf(stderr, "bad --faults: %s\n",
                 plan.error().to_string().c_str());
    return 2;
  }
  Logger::instance().set_level(config.verbose ? LogLevel::kInfo
                                              : LogLevel::kError);

  std::vector<RunStats> runs;
  std::size_t total_violations = 0;
  for (const std::uint64_t seed : config.seeds) {
    for (const fam::WatcherBackend be : config.backends) {
      RunStats stats = run_soak(seed, be, config);
      std::printf(
          "seed=%llu backend=%s: %llu invokes (%llu ok), %llu faults "
          "injected, %llu conflicts, %llu stale replies, %llu ooc runs, "
          "%llu reinvokes (%llu pool hits, %llu cache hits), %llu zipf "
          "(%llu hits, %llu verified), serve[acc=%llu rej=%llu coal=%llu "
          "bp=%llu shed=%llu], %.1fs — %s\n",
          static_cast<unsigned long long>(stats.seed), stats.backend.c_str(),
          static_cast<unsigned long long>(stats.invokes_total),
          static_cast<unsigned long long>(stats.successes),
          static_cast<unsigned long long>(stats.faults_injected),
          static_cast<unsigned long long>(stats.response_conflicts),
          static_cast<unsigned long long>(stats.stale_replies),
          static_cast<unsigned long long>(stats.ooc_runs),
          static_cast<unsigned long long>(stats.reinvokes),
          static_cast<unsigned long long>(stats.reinvoke_pool_hits),
          static_cast<unsigned long long>(stats.reinvoke_cache_hits),
          static_cast<unsigned long long>(stats.zipf_invokes),
          static_cast<unsigned long long>(stats.zipf_hits),
          static_cast<unsigned long long>(stats.zipf_hits_verified),
          static_cast<unsigned long long>(stats.accepted),
          static_cast<unsigned long long>(stats.rejected),
          static_cast<unsigned long long>(stats.coalesced),
          static_cast<unsigned long long>(stats.backpressure_retries),
          static_cast<unsigned long long>(stats.deadline_shed),
          stats.wall_seconds,
          stats.violations.empty() ? "OK" : "VIOLATIONS");
      total_violations += stats.violations.size();
      runs.push_back(std::move(stats));
    }
  }

  if (!config.report_path.empty()) {
    if (Status s = write_file(config.report_path, report_json(runs, config));
        !s) {
      std::fprintf(stderr, "cannot write --report: %s\n",
                   s.to_string().c_str());
      return 2;
    }
  }
  if (total_violations != 0) {
    std::fprintf(stderr, "soak FAILED: %zu violation(s)\n", total_violations);
    return 1;
  }
  std::printf("soak passed: %zu run(s) clean\n", runs.size());
  return 0;
}
