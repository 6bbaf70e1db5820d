#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "apps/modules.hpp"
#include "apps/stringmatch.hpp"
#include "apps/wordcount.hpp"
#include "cache/result_cache.hpp"
#include "core/io.hpp"
#include "core/random.hpp"
#include "core/stopwatch.hpp"
#include "core/strings.hpp"
#include "dataset.hpp"
#include "fam/client.hpp"
#include "fam/daemon.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "mapreduce/engine.hpp"
#include "partition/outofcore.hpp"
#include "storage/buffer_manager.hpp"

namespace mcsd::perfbench {

namespace {

namespace fs = std::filesystem;

/// Independent daemon set-ups per run; setup_s is their median, which
/// discards the first set-ups' wait for idle vCPUs to be scheduled again.
constexpr int kSetups = 5;
/// Equal time slices of the window; see end_to_end_metrics.
constexpr std::size_t kSlices = 10;
/// Traced runs: pipeline replays and cache-hit probes after the window.
constexpr std::size_t kMaxReplays = 8;
constexpr int kHitProbes = 20;
/// Attempts per ask while the daemon answers "unavailable" (see ask()).
constexpr int kAskAttempts = 3;

/// A stood-up daemon with its client and, in traced runs, the module
/// decorators wrapped around its preloaded modules.
struct Stack {
  std::unique_ptr<fam::Daemon> daemon;
  std::unique_ptr<fam::Client> client;
  std::map<std::string, std::shared_ptr<TimedModule>, std::less<>> timed;
};

Stack stand_up(const Shape& shape, const fs::path& log_dir, bool trace,
               const TraceSchedule& schedule, SpanRecorder& spans) {
  Stack stack;
  fam::DaemonOptions options;
  options.log_dir = log_dir;
  options.dispatch_threads = shape.dispatch_threads;
  if (shape.pool_bytes != 0) options.pool_bytes = shape.pool_bytes;
  stack.daemon = std::make_unique<fam::Daemon>(options);
  const auto& pool = stack.daemon->buffer_pool();
  for (auto module : {apps::make_wordcount_module(kWorkers, pool),
                      apps::make_stringmatch_module(kWorkers, pool)}) {
    if (trace) {
      auto timed = std::make_shared<TimedModule>(module, schedule, spans);
      stack.timed.emplace(std::string{module->name()}, timed);
      module = timed;
    }
    if (Status s = stack.daemon->preload(module); !s) {
      throw std::runtime_error("preload failed: " + s.to_string());
    }
  }
  stack.daemon->start();
  fam::ClientOptions client_options;
  client_options.log_dir = log_dir;
  client_options.timeout = std::chrono::milliseconds{30'000};
  stack.client = std::make_unique<fam::Client>(client_options);
  return stack;
}

/// Asks that bring a fresh daemon to its serving steady state.
std::vector<std::size_t> warm_up_kinds(const Shape& shape,
                                       const Dataset& data) {
  if (shape.versions) {
    // serve_zipf: every distinct ask once, so the result cache holds
    // the whole working set before timing starts.
    std::vector<std::size_t> all(data.kinds.size());
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  // Scan workloads: each corpus once (primes the pool where it fits)
  // plus one stringmatch, so both modules' engines are resident.
  std::vector<std::size_t> kinds = data.wordcount_kinds;
  kinds.push_back(data.stringmatch_kinds.front());
  return kinds;
}

void warm_up(Stack& stack, const Shape& shape, const Dataset& data,
             int setup) {
  int i = 0;
  for (std::size_t k : warm_up_kinds(shape, data)) {
    const AskKind& kind = data.kinds[k];
    KeyValueMap params = kind.params;
    if (shape.nonce) {
      params.set("nonce", "warm" + std::to_string(setup) + "-" +
                              std::to_string(i++));
    }
    auto reply = stack.client->invoke(kind.module, params);
    if (!reply) {
      throw std::runtime_error("warm-up ask failed: " +
                               reply.error().to_string());
    }
    if (match_version(kind, *data.inputs[kind.input], reply.value(), 0, 0) <
        0) {
      throw std::runtime_error("warm-up reply of " + kind.module +
                               " does not match the reference");
    }
  }
}

/// Daemon-side counters, sampled at both ends of the window.
struct Counters {
  std::uint64_t handled = 0;
  std::uint64_t batches = 0;
  std::uint64_t rejected = 0;
  std::uint64_t superseded = 0;
  std::uint64_t reply_conflicts = 0;
  std::uint64_t corrupt_frames = 0;
  cache::CacheStats cache;
  storage::PoolStats pool;
};

Counters snapshot(const fam::Daemon& daemon) {
  Counters c;
  c.handled = daemon.requests_handled();
  c.batches = daemon.batches_run();
  c.rejected = daemon.rejected();
  c.superseded = daemon.superseded();
  c.reply_conflicts = daemon.reply_conflicts();
  for (const auto& shard : daemon.shard_stats()) {
    c.corrupt_frames += shard.corrupt;
  }
  if (daemon.result_cache() != nullptr) {
    c.cache = daemon.result_cache()->stats();
  }
  c.pool = daemon.buffer_pool()->stats();
  return c;
}

/// One ask as the caller saw it.
struct Sample {
  Clock::time_point start;
  double rtt_s = 0.0;
  double cycle_s = 0.0;  ///< this ask's start to the caller's next start
  /// Traced runs: time of the module run that answered (-1 if none).
  double module_s = -1.0;
  std::size_t kind = 0;
  fam::CacheState cache = fam::CacheState::kNone;
  std::uint64_t waiters = 0;
  int backpressure_retries = 0;
  /// Re-sends after the daemon answered "unavailable".
  int unavailable_retries = 0;
  bool ok = false;
  bool correct = false;
  bool traced = false;
  /// Input bytes a module run scanned for this ask (shared evenly among
  /// coalesced waiters; 0 for cache hits).
  double scanned_bytes = 0.0;
};

struct Picker {
  const Shape& shape;
  const Dataset& data;
  ZipfSampler zipf;

  std::size_t pick(Rng& rng, std::uint64_t op) const {
    if (shape.versions) {
      // serve_zipf: corpus by zipf(1.0) rank, wordcount:stringmatch 3:1.
      const std::size_t corpus = zipf.sample(rng);
      const auto& pool = rng.next_below(4) == 0 ? data.stringmatch_kinds
                                                : data.wordcount_kinds;
      return pool[corpus % pool.size()];
    }
    // Scan workloads: the same 3:1 mix as a fixed cycle, so every run
    // asks exactly that mix (an even mix would put the median on the gap
    // between the two modules' latency clusters, where it is unstable).
    // Corpus and key set are uniform.
    const auto& pool =
        op % 4 == 0 ? data.stringmatch_kinds : data.wordcount_kinds;
    return pool[rng.next_below(pool.size())];
  }
};

struct Window {
  std::vector<Sample> samples;
  Clock::time_point start;
  double wall_s = 0.0;
  /// Host CPU steal (percent) during each of the kSlices time slices.
  std::vector<double> slice_steal_pct;
};

/// Issues one ask and checks its reply against the versions of its input
/// that were current while it was in flight.
Sample ask(std::size_t kind_index, const Dataset& data, KeyValueMap params,
           Stack& stack, bool trace, const TraceSchedule& schedule,
           SpanRecorder& spans) {
  Sample s;
  s.kind = kind_index;
  const AskKind& kind = data.kinds[kind_index];
  const Input& input = *data.inputs[kind.input];
  const std::uint64_t g0 = input.generation.load();
  s.start = Clock::now();
  s.traced = schedule.active(s.start);
  fam::InvokeInfo info;
  auto reply = stack.client->invoke(kind.module, params, &info);
  // A run can find its input replaced while a concurrent run still pins
  // the old version's pages; the storage layer then answers
  // "unavailable", and a host retries.  The retries are counted.
  while (!reply && s.unavailable_retries + 1 < kAskAttempts &&
         reply.error().message().find("unavailable") != std::string::npos) {
    ++s.unavailable_retries;
    reply = stack.client->invoke(kind.module, params, &info);
  }
  const auto end = Clock::now();
  const std::uint64_t g1 = input.generation.load();
  s.rtt_s = std::chrono::duration<double>(end - s.start).count();
  if (trace) {
    const std::string key = params.serialize();
    if (s.traced) {
      spans.record("fam", "fam.invoke:" + kind.module, s.start, end,
                   run_id(key));
    }
    if (reply && info.cache != fam::CacheState::kHit) {
      if (auto t = stack.timed.at(kind.module)->seconds_for(key)) {
        s.module_s = *t;
      }
    }
  }
  if (!reply) {
    std::fprintf(stderr, "ask failed: %s\n", reply.error().to_string().c_str());
    return s;
  }
  s.ok = true;
  s.cache = info.cache;
  s.waiters = info.waiters;
  s.backpressure_retries = info.backpressure_retries;
  const int v = match_version(kind, input, reply.value(), g0, g1);
  s.correct = v >= 0;
  if (s.correct && info.cache != fam::CacheState::kHit) {
    s.scanned_bytes =
        static_cast<double>(input.bytes[static_cast<std::size_t>(v)]) /
        static_cast<double>(std::max<std::uint64_t>(info.waiters, 1));
  }
  return s;
}

Window run_window(const Shape& shape, Dataset& data, Stack& stack,
                  std::uint64_t seed, double seconds, bool trace,
                  const TraceSchedule& schedule, SpanRecorder& spans) {
  const Picker picker{shape, data, ZipfSampler{shape.corpora, 1.0}};
  std::atomic<std::uint64_t> next_nonce{1};
  std::vector<std::vector<Sample>> per_caller(
      static_cast<std::size_t>(shape.callers));
  std::mutex error_mutex;
  std::string error;
  Window window;
  window.start = Clock::now();
  const auto deadline =
      window.start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  const auto caller = [&](std::size_t c) {
    Rng rng{mix(seed, 1000 + c)};
    std::uint64_t op = 0;
    do {
      ++op;
      if (shape.write_every != 0 && op % shape.write_every == 0) {
        swap_version(*data.inputs[rng.next_below(data.inputs.size())]);
        continue;
      }
      const std::size_t kind = picker.pick(rng, op);
      KeyValueMap params = data.kinds[kind].params;
      if (shape.nonce) params.set_uint("nonce", next_nonce.fetch_add(1));
      per_caller[c].push_back(
          ask(kind, data, std::move(params), stack, trace, schedule, spans));
    } while (Clock::now() < deadline);
  };
  // Samples host CPU counters at every slice boundary.
  std::vector<CpuTicks> boundary_ticks(kSlices + 1);
  std::thread ticker{[&] {
    for (std::size_t i = 0; i <= kSlices; ++i) {
      std::this_thread::sleep_until(
          window.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 seconds * static_cast<double>(i) / kSlices)));
      boundary_ticks[i] = cpu_ticks();
    }
  }};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < per_caller.size(); ++c) {
    callers.emplace_back([&, c] {
      try {
        caller(c);
      } catch (const std::exception& e) {
        std::lock_guard lock{error_mutex};
        error = e.what();
      }
    });
  }
  for (auto& t : callers) t.join();
  ticker.join();
  if (!error.empty()) throw std::runtime_error("caller failed: " + error);
  for (std::size_t i = 0; i < kSlices; ++i) {
    window.slice_steal_pct.push_back(
        steal_pct(boundary_ticks[i], boundary_ticks[i + 1]));
  }
  window.wall_s =
      std::chrono::duration<double>(Clock::now() - window.start).count();
  for (auto& samples : per_caller) {
    for (std::size_t i = 0; i < samples.size(); ++i) {
      samples[i].cycle_s =
          i + 1 < samples.size()
              ? std::chrono::duration<double>(samples[i + 1].start -
                                              samples[i].start)
                    .count()
              : samples[i].rtt_s;
    }
    window.samples.insert(window.samples.end(), samples.begin(),
                          samples.end());
  }
  return window;
}

// --- Traced-run extras ----------------------------------------------------

/// Benchmark-owned engines for pipeline replays and the map-CPU runs.
struct Engines {
  mr::Engine<apps::WordCountSpec> wordcount{engine_options()};
  mr::Engine<apps::StringMatchSpec> stringmatch{engine_options()};

  static mr::Options engine_options() {
    mr::Options options;
    options.num_workers = kWorkers;
    return options;
  }
};

apps::StringMatchSpec stringmatch_spec(const KeyValueMap& params) {
  apps::StringMatchSpec spec;
  const std::string csv = params.get_or("keys", "");
  for (const auto key : split(csv, ',')) {
    if (!key.empty()) spec.keys.emplace_back(key);
  }
  return spec;
}

std::vector<mr::TextChunk> stringmatch_chunks(std::string_view text) {
  return mr::split_lines(text, 64 * 1024);
}

/// Re-runs one ask's pipeline outside the daemon, with the options the
/// module derives from the same params and the daemon's own pool, so the
/// partition, storage and engine phases can be read off its metrics.
part::OutOfCoreMetrics replay(
    const AskKind& kind, const std::shared_ptr<storage::BufferManager>& pool,
    Engines& engines) {
  part::PipelineOptions options;
  options.partition_size =
      static_cast<std::uint64_t>(kind.params.get_int_or("partition_size", 0));
  options.read_throttle_mibps =
      kind.params.get_double("read_throttle_mibps").value_or(0.0);
  options.pool = pool;
  const fs::path input = kind.params.get_or("input", "");
  part::OutOfCoreMetrics metrics;
  Status status = Status::ok();
  if (kind.module == "wordcount") {
    part::TextJob<apps::WordCountSpec> job;
    job.incremental_merge = part::sum_incremental<std::string, std::uint64_t>();
    status = part::run_partitioned_file(engines.wordcount,
                                        apps::WordCountSpec{}, input, options,
                                        job, &metrics)
                 .status();
  } else {
    options.is_delimiter = part::newline_delimiter();
    part::TextJob<apps::StringMatchSpec> job;
    job.chunker = stringmatch_chunks;
    job.incremental_merge =
        part::concat_incremental<std::uint64_t, std::uint32_t>();
    status = part::run_partitioned_file(engines.stringmatch,
                                        stringmatch_spec(kind.params), input,
                                        options, job, &metrics)
                 .status();
  }
  if (!status) throw std::runtime_error("replay failed: " + status.to_string());
  return metrics;
}

/// Summed map-phase thread-CPU seconds of one in-memory engine run over
/// the kind's input.
double map_cpu_seconds(const AskKind& kind, Engines& engines) {
  auto text = read_file(kind.params.get_or("input", ""));
  if (!text) {
    throw std::runtime_error("cannot read input: " + text.error().to_string());
  }
  mr::Metrics metrics;
  if (kind.module == "wordcount") {
    engines.wordcount.run(apps::WordCountSpec{},
                          mr::split_text(text.value(), 256 * 1024), 0,
                          &metrics);
  } else {
    engines.stringmatch.run(stringmatch_spec(kind.params),
                            stringmatch_chunks(text.value()), 0, &metrics);
  }
  return metrics.map_cpu_seconds();
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string format(const char* fmt, double a, double b = 0.0,
                   double c = 0.0) {
  char line[256];
  std::snprintf(line, sizeof line, fmt, a, b, c);
  return line;
}

/// Round trips of the first ask kind repeated until the cache answers:
/// the channel floor of every workload, not only the one with hits.
std::vector<double> probe_hits(const Dataset& data, Stack& stack,
                               SpanRecorder& spans) {
  const AskKind& kind = data.kinds.front();
  std::vector<double> hits;
  for (int i = 0; i <= kHitProbes; ++i) {
    fam::InvokeInfo info;
    const auto start = Clock::now();
    auto reply = stack.client->invoke(kind.module, kind.params, &info);
    const auto end = Clock::now();
    if (!reply) throw std::runtime_error("hit probe failed");
    spans.record("fam", "fam.invoke:" + kind.module, start, end,
                 run_id(kind.params.serialize()));
    if (info.cache == fam::CacheState::kHit) {
      hits.push_back(std::chrono::duration<double>(end - start).count());
    }
  }
  return hits;
}

struct Replayed {
  part::OutOfCoreMetrics metrics;
  /// The daemon-side module time of the replayed ask minus the replay's
  /// pipeline total: module work outside the pipeline.
  double apps_unattributed_s = 0.0;
  /// Weight in replay means: the module's share of the traced module
  /// runs over its number of replays, so the evenly split replays stand
  /// for the workload's actual module mix.  Weights sum to 1.
  double weight = 1.0;
};

/// Replays up to kMaxReplays traced module runs, split evenly between the
/// two modules and evenly spaced in time within each.
std::vector<Replayed> replay_module_runs(
    const std::vector<const Sample*>& traced, const Dataset& data,
    Stack& stack, Engines& engines, SpanRecorder& spans) {
  std::map<std::string, std::vector<const Sample*>> by_module;
  for (const Sample* s : traced) {
    if (s->cache != fam::CacheState::kHit && s->module_s >= 0.0) {
      by_module[data.kinds[s->kind].module].push_back(s);
    }
  }
  double total_runs = 0.0;
  for (const auto& [module, runs] : by_module) total_runs += runs.size();
  std::vector<Replayed> out;
  for (const auto& [module, runs] : by_module) {
    const std::size_t n = std::min(kMaxReplays / 2, runs.size());
    const double weight = static_cast<double>(runs.size()) / total_runs /
                          static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Sample* s = runs[i * runs.size() / n];
      const AskKind& kind = data.kinds[s->kind];
      const auto start = Clock::now();
      Replayed r{replay(kind, stack.daemon->buffer_pool(), engines), 0.0,
                 weight};
      spans.record("part", "part.replay:" + module, start, Clock::now(),
                   run_id(kind.params.serialize()));
      r.apps_unattributed_s = s->module_s - r.metrics.total_seconds();
      out.push_back(r);
    }
  }
  if (out.empty()) {
    // No traced module run to replay (a tiny quick-mode window): replay
    // the first ask so the pipeline layers still report.
    out.push_back({replay(data.kinds.front(), stack.daemon->buffer_pool(),
                          engines),
                   0.0, 1.0});
  }
  return out;
}

/// Everything a traced run adds after its window: hit probes, pipeline
/// replays and the map-CPU runs, folded into the per-layer metrics and
/// the layer table.
void per_layer_metrics(const Shape& shape, const Dataset& data, Stack& stack,
                       const Window& window, const Counters& before,
                       const Counters& after, TraceSchedule& schedule,
                       SpanRecorder& spans, RunReport& report) {
  std::vector<const Sample*> traced;
  for (const Sample& s : window.samples) {
    if (s.traced && s.ok) traced.push_back(&s);
  }

  // Module runs the decorators saw inside the window, split by the
  // window's traced blocks before the schedule traces everything after.
  const auto window_end =
      window.start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(window.wall_s));
  std::vector<double> module_traced;
  double module_busy = 0.0;
  for (const auto& [name, timed] : stack.timed) {
    for (const ModuleRun& run : timed->runs()) {
      if (run.start < window.start || run.start > window_end) continue;
      module_busy += run.seconds;
      if (schedule.active(run.start)) module_traced.push_back(run.seconds);
    }
  }
  schedule.set(TraceSchedule::Mode::kOn);

  std::vector<double> hit_rtt = probe_hits(data, stack, spans);
  std::vector<double> overhead;
  for (const Sample* s : traced) {
    if (s->cache == fam::CacheState::kHit) {
      hit_rtt.push_back(s->rtt_s);
    } else if (s->module_s >= 0.0) {
      overhead.push_back(s->rtt_s - s->module_s);
    }
  }

  Engines engines;
  const std::vector<Replayed> replays =
      replay_module_runs(traced, data, stack, engines, spans);
  std::vector<double> map_cpu;
  for (const auto& kinds : {data.wordcount_kinds, data.stringmatch_kinds}) {
    const AskKind& kind = data.kinds[kinds.front()];
    const auto start = Clock::now();
    map_cpu.push_back(map_cpu_seconds(kind, engines));
    spans.record("mr", "mr.run:" + kind.module, start, Clock::now());
  }

  // Per-run pipeline quantities, averaged over the replays in the
  // workload's module mix.
  using Pipeline = part::OutOfCoreMetrics;
  const auto replay_mean = [&](auto value) {
    double sum = 0.0;
    for (const Replayed& r : replays) sum += r.weight * value(r.metrics);
    return sum;
  };
  double apps_unattributed = 0.0;
  double peak_resident = 0.0;
  double emits = 0.0;
  double unique_keys = 0.0;
  for (const Replayed& r : replays) {
    apps_unattributed += r.weight * r.apps_unattributed_s;
    peak_resident =
        std::max(peak_resident,
                 static_cast<double>(r.metrics.peak_resident_fragment_bytes));
    emits += static_cast<double>(r.metrics.map_emits);
    unique_keys += static_cast<double>(r.metrics.unique_keys);
  }
  const double part_self = replay_mean([](const Pipeline& m) {
    return m.partition_seconds + m.io_wait_seconds + m.merge_seconds;
  });
  const double mr_self =
      replay_mean([](const Pipeline& m) { return m.mapreduce_seconds; });

  // Tracing overhead: closed-loop throughput is callers / mean cycle, so
  // comparing mean cycle times of asks started in traced and untraced
  // blocks compares the two modes' invokes_per_s.
  std::vector<double> cycle_on, cycle_off;
  double scanned = 0.0;
  double ok = 0.0;
  double backpressure = 0.0;
  double unavailable = 0.0;
  for (const Sample& s : window.samples) {
    (s.traced ? cycle_on : cycle_off).push_back(s.cycle_s);
    scanned += s.scanned_bytes;
    ok += s.ok ? 1.0 : 0.0;
    backpressure += s.backpressure_retries;
    unavailable += s.unavailable_retries;
  }
  const double ips_off = ratio(shape.callers, mean(cycle_off));
  const double ips_on = ratio(shape.callers, mean(cycle_on));

  const double asks = static_cast<double>(window.samples.size());
  const auto per_ask = [&](std::uint64_t a, std::uint64_t b) {
    return ratio(static_cast<double>(b - a), asks);
  };
  const auto hit_ratio = [](std::uint64_t hits, std::uint64_t misses) {
    return ratio(static_cast<double>(hits),
                 static_cast<double>(hits + misses));
  };
  const auto& cb = before.cache;
  const auto& ca = after.cache;
  const auto& pb = before.pool;
  const auto& pa = after.pool;
  const double frame_bytes =
      static_cast<double>(stack.daemon->buffer_pool()->frame_bytes());

  report.metrics = {
      {"fam.hit_rtt_p50_ms", percentile(hit_rtt, 50) * 1e3, "ms"},
      {"fam.overhead_p50_ms", percentile(overhead, 50) * 1e3, "ms"},
      {"fam.daemon.asks_per_run",
       ratio(ok, static_cast<double>(after.batches - before.batches)),
       "ratio"},
      {"fam.daemon.rejected", per_ask(before.rejected, after.rejected),
       "count/ask"},
      {"fam.daemon.superseded", per_ask(before.superseded, after.superseded),
       "count/ask"},
      {"fam.daemon.reply_conflicts",
       per_ask(before.reply_conflicts, after.reply_conflicts), "count/ask"},
      {"fam.daemon.corrupt_frames",
       per_ask(before.corrupt_frames, after.corrupt_frames), "count/ask"},
      {"fam.client.backpressure_retries", ratio(backpressure, asks),
       "count/ask"},
      {"fam.client.unavailable_retries", ratio(unavailable, asks),
       "count/ask"},
      {"cache.hit_ratio",
       hit_ratio(ca.hits - cb.hits, ca.misses - cb.misses), "ratio"},
      {"cache.invalidations", per_ask(cb.invalidations, ca.invalidations),
       "count/ask"},
      {"cache.evictions", per_ask(cb.evictions, ca.evictions), "count/ask"},
      {"cache.inserts", per_ask(cb.inserts, ca.inserts), "count/ask"},
      {"apps.module_p50_ms", percentile(module_traced, 50) * 1e3, "ms"},
      {"apps.module_p90_ms", percentile(module_traced, 90) * 1e3, "ms"},
      {"apps.module_busy_ratio", ratio(module_busy, window.wall_s), "ratio"},
      {"apps.unattributed_ms", apps_unattributed * 1e3, "ms"},
      {"part.io_wait_ms",
       replay_mean([](const Pipeline& m) { return m.io_wait_seconds; }) * 1e3,
       "ms"},
      {"part.merge_ms",
       replay_mean([](const Pipeline& m) { return m.merge_seconds; }) * 1e3,
       "ms"},
      {"part.fragments", replay_mean([](const Pipeline& m) {
         return static_cast<double>(m.fragments);
       }),
       "count/run"},
      {"part.peak_resident_mb", peak_resident / kMiB, "MiB"},
      {"storage.hit_ratio",
       hit_ratio(pa.hits - pb.hits, pa.misses - pb.misses), "ratio"},
      {"storage.read_amplification",
       ratio(static_cast<double>(pa.misses - pb.misses) * frame_bytes,
             scanned),
       "ratio"},
      {"storage.evictions", per_ask(pb.evictions, pa.evictions), "count/ask"},
      {"storage.read_retries", per_ask(pb.read_retries, pa.read_retries),
       "count/ask"},
      {"mr.map_ms",
       replay_mean([](const Pipeline& m) { return m.engine_map_seconds; }) *
           1e3,
       "ms"},
      {"mr.reduce_ms",
       replay_mean([](const Pipeline& m) { return m.engine_reduce_seconds; }) *
           1e3,
       "ms"},
      {"mr.merge_ms",
       replay_mean([](const Pipeline& m) { return m.engine_merge_seconds; }) *
           1e3,
       "ms"},
      {"mr.setup_ms", replay_mean([](const Pipeline& m) {
         return m.mapreduce_seconds - m.engine_map_seconds -
                m.engine_reduce_seconds - m.engine_merge_seconds;
       }) * 1e3,
       "ms"},
      {"mr.map_cpu_ms", mean(map_cpu) * 1e3, "ms"},
      {"mr.combine_ratio", ratio(emits, unique_keys), "ratio"},
      {"obs.trace_overhead_pct", ratio(ips_off - ips_on, ips_off) * 100.0,
       "%"},
  };

  // Layer table at the median ask: the channel's share is measured per
  // ask; module layers are per module run, scaled by runs per ask.
  std::vector<double> rtt, channel;
  double runs = 0.0;
  for (const Sample* s : traced) {
    const bool ran = s->cache != fam::CacheState::kHit;
    rtt.push_back(s->rtt_s);
    channel.push_back(s->rtt_s - (ran ? std::max(s->module_s, 0.0) : 0.0));
    if (ran) runs += ratio(1.0, std::max<double>(s->waiters, 1.0));
  }
  const double runs_per_ask = ratio(runs, static_cast<double>(traced.size()));
  const std::array<std::pair<const char*, double>, 4> layers{{
      {"fam (channel + cache)", percentile(channel, 50) * 1e3},
      {"apps (module outside pipeline)",
       runs_per_ask * apps_unattributed * 1e3},
      {"part + storage (io wait, merge)", runs_per_ask * part_self * 1e3},
      {"mr (engine phases)", runs_per_ask * mr_self * 1e3},
  }};
  const auto row = [](const char* name, double ms) {
    char line[96];
    std::snprintf(line, sizeof line, "  %-34s %12.4f", name, ms);
    return std::string{line};
  };
  report.notes.push_back("  layer                                ms per ask");
  double sum = 0.0;
  for (const auto& [name, ms] : layers) {
    sum += ms;
    report.notes.push_back(row(name, ms));
  }
  const double p50 = percentile(rtt, 50) * 1e3;
  report.notes.push_back(row("sum of layers", sum));
  report.notes.push_back(row("invoke_p50_ms (traced asks)", p50));
  report.notes.push_back(row("unattributed", p50 - sum));
  report.metrics.push_back({"layers.unattributed_ms", p50 - sum, "ms"});
  report.notes.push_back(
      format("  module runs per ask %.4f over %.0f traced asks, %.0f replays",
             runs_per_ask, static_cast<double>(traced.size()),
             static_cast<double>(replays.size())));
}

/// The end-to-end metrics of `window`.  Each is computed per time slice
/// and reported as the median over the slices in which the hypervisor
/// stole no more host CPU than in the median slice.  On a shared VM the
/// steal comes in bursts of seconds and slows every CPU-bound layer; the
/// calmer half of a run's slices measures the program, the other half
/// the neighbours.  With no steal at all every slice counts.  Rates use
/// the closed-loop identity that each caller's cycle times add up to the
/// time it spent asking, so a slice's rate is
/// callers x (sum of x) / (sum of cycles), free of edge effects.
std::vector<Metric> end_to_end_metrics(const Window& window, int callers,
                                       double seconds, double setup_s) {
  struct Slice {
    std::vector<double> rtt;
    double cycles = 0.0;
    double ok = 0.0;
    double scanned = 0.0;
  };
  std::vector<Slice> slices(kSlices);
  for (const Sample& s : window.samples) {
    const double at =
        std::chrono::duration<double>(s.start - window.start).count();
    Slice& slice = slices[std::min(
        kSlices - 1, static_cast<std::size_t>(at / seconds * kSlices))];
    slice.rtt.push_back(s.rtt_s);
    slice.cycles += s.cycle_s;
    slice.ok += s.ok ? 1.0 : 0.0;
    slice.scanned += s.scanned_bytes;
  }
  const double steal_cut = percentile(window.slice_steal_pct, 50);
  std::vector<double> p50, p99, ips, mib_s;
  for (std::size_t i = 0; i < kSlices; ++i) {
    const Slice& slice = slices[i];
    if (slice.rtt.empty() || slice.cycles <= 0.0) continue;
    if (window.slice_steal_pct[i] > steal_cut) continue;
    p50.push_back(percentile(slice.rtt, 50) * 1e3);
    p99.push_back(percentile(slice.rtt, 99) * 1e3);
    ips.push_back(callers * slice.ok / slice.cycles);
    mib_s.push_back(callers * slice.scanned / kMiB / slice.cycles);
  }
  return {
      {"invoke_p50_ms", percentile(p50, 50), "ms"},
      {"invoke_p99_ms", percentile(p99, 50), "ms"},
      {"invokes_per_s", percentile(ips, 50), "1/s"},
      {"scan_mb_s", percentile(mib_s, 50), "MiB/s"},
      {"setup_s", setup_s, "s"},
  };
}

/// Removes the run's work directory (inputs and channels) on every exit.
struct WorkDir {
  fs::path path;
  explicit WorkDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
};

}  // namespace

RunReport run_workload(const RunConfig& config) {
  const Shape shape = shape_for(config.workload, config.quick);
  const WorkDir work{config.work_dir};
  Dataset data = generate(shape, config.seed, work.path / "data");

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double parallelism_before = effective_parallelism(nproc);

  TraceSchedule schedule;
  SpanRecorder spans{Clock::now()};
  std::vector<double> setup_s;
  Stack stack;
  for (int i = 0; i < kSetups; ++i) {
    stack = Stack{};  // the previous set-up's daemon stops here
    Stopwatch watch;
    stack = stand_up(shape, work.path / ("channel-" + std::to_string(i)),
                     config.trace, schedule, spans);
    warm_up(stack, shape, data, i);
    setup_s.push_back(watch.elapsed_seconds());
  }

#if defined(__GLIBC__)
  // Drop what earlier set-ups' threads freed but their arenas kept, so
  // the window's peak is the serving daemon's own footprint.
  malloc_trim(0);
#endif
  RssSampler rss;
  const CpuTicks ticks_before = cpu_ticks();
  const Counters before = snapshot(*stack.daemon);
  if (config.trace) schedule.set(TraceSchedule::Mode::kAlternate);
  const Window window = run_window(shape, data, stack, config.seed,
                                   config.seconds, config.trace, schedule,
                                   spans);
  const Counters after = snapshot(*stack.daemon);
  const double window_steal_pct = steal_pct(ticks_before, cpu_ticks());
  const double peak_rss_mb = rss.stop();

  RunReport report;
  report.notes.push_back(
      format("host: effective_parallelism %.2f before the workload, %.2f "
             "after; %.1f%% of host CPU time stolen during the window",
             parallelism_before, effective_parallelism(nproc),
             window_steal_pct));
  report.attempted = window.samples.size();
  double hits = 0.0;
  std::uint64_t requests = 0;
  for (const Sample& s : window.samples) {
    hits += s.cache == fam::CacheState::kHit ? 1.0 : 0.0;
    requests += 1 + static_cast<std::uint64_t>(s.unavailable_retries);
    if (!s.ok) {
      ++report.lost;
    } else if (!s.correct) {
      ++report.wrong;
    }
  }
  // Exactly once: every request gets one reply.  A suppressed second
  // reply or more replies than requests is a duplicate.
  const std::uint64_t handled = after.handled - before.handled;
  report.duplicated = (after.reply_conflicts - before.reply_conflicts) +
                      (handled > requests ? handled - requests : 0);
  const double ok = static_cast<double>(report.attempted - report.lost);
  const std::vector<Metric> end_to_end = end_to_end_metrics(
      window, shape.callers, config.seconds, percentile(setup_s, 50));
  const double error_rate =
      report.attempted == 0
          ? 0.0
          : static_cast<double>(report.failed()) /
                static_cast<double>(report.attempted);
  report.notes.push_back(
      "workload " + config.workload + ": " + std::to_string(shape.callers) +
      " closed-loop caller(s), " + std::to_string(report.attempted) +
      " asks in " + format("%.2f s", window.wall_s) +
      format(", cache-hit share %.4f", hits / std::max(1.0, ok)));
  const auto metric_line = [&](const Metric& metric) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-32s %14.4f %s%s",
                  metric.name.c_str(), metric.value, metric.unit.c_str(),
                  config.trace ? " (traced run)" : "");
    return std::string{line};
  };
  report.notes.push_back(metric_line({"asks", ok, "count"}));
  report.notes.push_back(metric_line({"error_rate", error_rate, "ratio"}) +
                         " lost " + std::to_string(report.lost) + ", wrong " +
                         std::to_string(report.wrong) + ", duplicated " +
                         std::to_string(report.duplicated) + "; " +
                         std::to_string(requests - report.attempted) +
                         " re-sends after \"unavailable\"");
  for (const Metric& metric : end_to_end) {
    report.notes.push_back(metric_line(metric));
  }
  // Reported, not gated.  On serve_zipf the 90th percentile sits on the
  // step between hits answered in two and in three 1 ms channel ticks, so
  // it jumps between runs.  glibc's per-thread arenas keep a varying
  // share of the workers' freed memory, so peak RSS reads up to ~30%
  // apart between runs.
  std::vector<double> rtt;
  for (const Sample& s : window.samples) rtt.push_back(s.rtt_s);
  report.notes.push_back(
      metric_line({"invoke_p90_ms", percentile(rtt, 90) * 1e3, "ms"}));
  report.notes.push_back(metric_line({"peak_rss_mb", peak_rss_mb, "MiB"}));

  if (!config.trace) {
    report.metrics = end_to_end;
  } else {
    per_layer_metrics(shape, data, stack, window, before, after, schedule,
                      spans, report);
    report.notes.push_back("per-layer metrics:");
    for (const Metric& metric : report.metrics) {
      report.notes.push_back(metric_line(metric));
    }
    if (Status s = spans.write_chrome_trace(config.trace_out); !s) {
      throw std::runtime_error("cannot write trace: " + s.to_string());
    }
    report.notes.push_back("spans: " + std::to_string(spans.size()) +
                           " written to " + config.trace_out.string());
  }
  stack.daemon->stop();
  return report;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"serve_zipf", "scan_warm",
                                              "scan_ooc"};
  return names;
}

}  // namespace mcsd::perfbench
