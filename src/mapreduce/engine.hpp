// The MapReduce engine: map+combine -> sort/group -> reduce -> merge.
//
// Mirrors Phoenix's runtime structure (paper Fig. 1):
//
//   chunks ── locality scheduler ──> map workers ──> per-worker, per-bucket
//   hash-combined intermediate stores ──> per-bucket cross-worker fold (or
//   gather + hash-then-key sort) + group ──> reduce workers ──> merge
//   (parallel bucket placement, optional global key sort).
//
// Map-phase handoff is locality-aware (scheduler.hpp): each worker streams
// a contiguous slab of the chunk index space on a private cursor and only
// touches another worker's slab to steal from its back once its own runs
// dry.  Each worker's wall time, thread CPU time, chunk/steal counts and
// (opt-in) tokenize/hash/probe cycle split land in Metrics::map_workers,
// so scaling regressions decompose into "which stage, which worker" —
// and host oversubscription (CPU << wall) is visible rather than silently
// eaten into throughput numbers.
//
// Reduce: for specs with both combine and reduce, bucket b is built by
// *folding* workers 1..N-1's pairs into worker 0's open-addressing bucket
// index (one O(1) probe per pair, reusing the cached hash) instead of
// gathering and sorting every worker's pairs; only surviving unique pairs
// are sorted.  Valid because the combiner contract already requires
// reduce(k, vs) == reduce(k, [combine-fold(vs)]).  Per-bucket reduce work
// therefore stops growing with worker count.
//
// Threading: one ThreadPool sized to Options.num_workers — the emulated
// core count of the storage node.  Map-side data is strictly
// worker-private; the only cross-thread handoff is the bucket gather at
// the map/reduce barrier, exactly as in Phoenix.
//
// Combining: specs with a `combine` hook fold duplicate keys *at emit
// time* through the emitter's per-bucket open-addressing tables (see
// emitter.hpp), so intermediate volume tracks unique keys rather than raw
// emits and no sort-based fold pass ever runs on the map path.  The
// 64-bit key hash computed for bucket routing is cached in every stored
// pair and reused for combiner probes and reduce-phase grouping.
//
// Worker-state reuse: emitters (bucket tables + key arenas) and the
// reduce-phase gather buffers live on the Engine, padded to cache-line
// boundaries, and are *reset* between run() calls instead of constructed
// and destroyed per run.  An out-of-core driver calling run() once per
// fragment therefore stops paying workers x buckets vector construction
// (and a heap free per unique key) for every fragment; fragment teardown
// is one arena rewind per worker.  release_worker_state() drops the
// cached state — the pre-reuse behaviour — for drivers that want the
// memory back between jobs (and for A/B-measuring the reuse win).
//
// Observability: run() opens obs spans per phase (mr.map / mr.reduce /
// mr.merge, plus per-worker and per-bucket child spans) and publishes
// each worker's emitter counters (emits, combine hits, bytes) into
// obs::Registry once at map-phase end, so the emit hot path itself stays
// uninstrumented.  Metrics keeps the per-run report; the obs registry
// accumulates across runs.
//
// Memory model: when Options.memory_budget_bytes > 0, the engine meters
// input + intermediate bytes and throws MemoryOverflowError once they
// exceed usable_memory_fraction (default 60%) of the budget, reproducing
// the stock-Phoenix failure the paper's partition extension works around.
// Because combining happens at emit time, the budget check always
// observes *combined* volume.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "core/log.hpp"
#include "core/stopwatch.hpp"
#include "core/thread_pool.hpp"
#include "mapreduce/emitter.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "mapreduce/scheduler.hpp"
#include "mapreduce/sorter.hpp"
#include "mapreduce/splitter.hpp"
#include "mapreduce/types.hpp"

namespace mcsd::mr {

/// Detects an optional `reduce` member.  Specs without one (String Match)
/// run the identity reduce: every emitted pair passes straight through —
/// "Neither sort or the reduce stage is required" (paper Section V-A).
template <typename S>
concept HasReduce = requires(const S& s, const typename S::Key& k,
                             std::span<const typename S::Value> vs) {
  { s.reduce(k, vs) } -> std::convertible_to<typename S::Value>;
};

/// A Spec maps chunks of type C.
template <typename S, typename C>
concept MapsChunk =
    requires(const S& s, const C& c,
             Emitter<typename S::Key, typename S::Value>& e) { s.map(c, e); };

/// Detects a `combine` that accepts the emitter's KeyView of a stored key
/// (a string_view for string keys) directly — the allocation-free fast
/// path.  Specs whose combine insists on `const
/// Key&` still work; the engine materialises a temporary key per fold.
template <typename S, typename SK>
concept CombinesKeyView =
    requires(const S& s, const SK& k,
             std::span<const typename S::Value> vs) {
      { s.combine(k, vs) } -> std::convertible_to<typename S::Value>;
    };

namespace detail {
inline std::uint64_t chunk_input_bytes(const TextChunk& c) noexcept {
  return c.text.size();
}
inline std::uint64_t chunk_input_bytes(const IndexChunk&) noexcept {
  return 0;  // index chunks carry no payload; pass input_bytes explicitly
}

/// Adds the signed difference `now - reported` to `total`.  Emit-time
/// combining never shrinks emitter bytes, but the accounting stays
/// signed-safe so a future in-place compaction cannot silently wrap the
/// meter; debug builds assert the monotone invariant.
inline void apply_bytes_delta(std::atomic<std::uint64_t>& total,
                              std::uint64_t reported,
                              std::uint64_t now) noexcept {
  assert(now >= reported &&
         "emitter bytes must be monotone under emit-time combining");
  if (now >= reported) {
    total.fetch_add(now - reported, std::memory_order_relaxed);
  } else {
    total.fetch_sub(reported - now, std::memory_order_relaxed);
  }
}
}  // namespace detail

template <MapReduceSpec Spec>
class Engine {
 public:
  using Key = typename Spec::Key;
  using Value = typename Spec::Value;
  using Pair = KV<Key, Value>;
  /// Intermediate pairs as the emitter stores them: cached key hash plus
  /// the stored key representation (a StringKey for string keys).
  using StoredPair = typename Emitter<Key, Value>::Pair;
  using KeyView = typename Emitter<Key, Value>::KeyView;
  using Output = std::vector<Pair>;

  explicit Engine(Options options)
      : options_(options), pool_(std::make_unique<ThreadPool>(
                               (options.validate(), options.num_workers))) {}

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Drops the reusable per-worker state (emitters, key arenas, gather
  /// buffers).  The next run() rebuilds it from scratch — the per-run
  /// cost the reuse path exists to avoid; kept callable so drivers can
  /// return memory between jobs and benches can A/B the reuse win.
  void release_worker_state() noexcept {
    worker_state_.clear();
    worker_state_.shrink_to_fit();
  }

  /// Runs the full pipeline over `chunks`.  `input_bytes` is the job's
  /// input size for the memory model; pass 0 to derive it from text
  /// chunks.  `metrics`, when non-null, receives phase timings.
  template <typename Chunk>
    requires MapsChunk<Spec, Chunk>
  Output run(const Spec& spec, const std::vector<Chunk>& chunks,
             std::uint64_t input_bytes = 0, Metrics* metrics = nullptr) {
    Metrics local;
    Metrics& m = metrics ? *metrics : local;
    m = Metrics{};
    m.chunks = chunks.size();

    if (input_bytes == 0) {
      for (const auto& c : chunks) {
        input_bytes += detail::chunk_input_bytes(c);
      }
    }

    MCSD_OBS_SPAN("mr", "mr.run");
    MCSD_OBS_COUNT("mr.jobs", 1);
    MCSD_OBS_COUNT("mr.chunks", chunks.size());
    MCSD_OBS_COUNT("mr.input_bytes", input_bytes);

    const std::size_t workers = options_.num_workers;
    const std::size_t buckets = options_.effective_reduce_buckets();
    const std::uint64_t usable = options_.usable_budget();
    if (usable != 0 && input_bytes > usable) {
      // Even the raw input does not fit the usable budget: fail up front,
      // as Phoenix does when it cannot mmap + mirror the input.
      throw MemoryOverflowError(input_bytes, usable);
    }
    if (input_bytes == 0 && !chunks.empty()) {
      // Index chunks carry no payload, so a derived byte count of zero
      // almost always means the caller forgot to pass input_bytes.  With
      // the memory model armed that silently disables input metering —
      // warn loudly (and trip debug builds) instead of under-counting.
      MCSD_OBS_COUNT("mr.zero_input_byte_jobs", 1);
      if (usable != 0) {
        MCSD_LOG(kWarn, "mr")
            << "memory-budgeted job derived 0 input bytes over "
            << chunks.size()
            << " chunks; pass input_bytes explicitly for index chunks";
        assert(false && "memory model saw 0 input bytes for a non-empty job");
      }
    }

    // ----- map phase (combining happens inside emit) ----------------------
    Stopwatch phase;
    prepare_worker_state(spec, workers, buckets);

    LocalityScheduler scheduler{chunks.size(), workers};
    const std::size_t batch =
        LocalityScheduler::suggested_batch(chunks.size(), workers);
    std::atomic<std::uint64_t> intermediate_bytes{0};
    std::atomic<bool> cancelled{false};
    m.map_workers.assign(workers, MapWorkerStats{});

    {
      MCSD_OBS_SPAN("mr", "mr.map");
      pool_->parallel_for_workers(workers, [&](std::size_t w) {
        MCSD_OBS_SPAN("mr", "mr.map.worker");
        WorkerState& ws = worker_state_[w];
        auto& emitter = ws.emitter;
        MapWorkerStats& stats = m.map_workers[w];
        const bool attribute = options_.attribute_map_cycles;
        Stopwatch wall;
        const double cpu_start = thread_cpu_seconds();
        std::uint64_t reported = 0;
        Stopwatch claim_watch;
        bool stolen = false;
        while (true) {
          if (attribute) claim_watch.restart();
          const auto claimed = scheduler.claim(w, batch, &stolen);
          if (attribute) stats.claim_seconds += claim_watch.elapsed_seconds();
          if (!claimed) break;
          if (stolen) ++stats.steals;
          stats.chunks += claimed->end - claimed->begin;
          for (std::size_t idx = claimed->begin; idx != claimed->end; ++idx) {
            if (cancelled.load(std::memory_order_relaxed)) return;
            spec.map(chunks[idx], emitter);

            const std::uint64_t now = emitter.bytes();
            detail::apply_bytes_delta(intermediate_bytes, reported, now);
            reported = now;
            if (usable != 0 &&
                input_bytes +
                        intermediate_bytes.load(std::memory_order_relaxed) >
                    usable) {
              cancelled.store(true, std::memory_order_relaxed);
              throw MemoryOverflowError(
                  input_bytes +
                      intermediate_bytes.load(std::memory_order_relaxed),
                  usable);
            }
          }
        }
        stats.emits = emitter.count();
        stats.cpu_seconds = thread_cpu_seconds() - cpu_start;
        stats.wall_seconds = wall.elapsed_seconds();
        stats.tokenize_seconds =
            static_cast<double>(ws.attribution.tokenize_ns) * 1e-9;
        stats.hash_seconds =
            static_cast<double>(ws.attribution.hash_ns) * 1e-9;
        stats.probe_seconds =
            static_cast<double>(ws.attribution.probe_ns) * 1e-9;
        // Publish this worker's emitter counters: the emitter itself is
        // the thread-local shard, so the emit hot path never touches obs.
        MCSD_OBS_COUNT("mr.map_emits", emitter.count());
        MCSD_OBS_COUNT("mr.combine_hits", emitter.combine_hits());
        MCSD_OBS_COUNT("mr.intermediate_bytes", emitter.bytes());
        MCSD_OBS_COUNT("mr.map_steals", stats.steals);
        MCSD_OBS_HIST("mr.map_worker_cpu_us", "us",
                      static_cast<std::uint64_t>(stats.cpu_seconds * 1e6));
      });
    }
    m.map_seconds = phase.elapsed_seconds();
    m.peak_intermediate_bytes =
        input_bytes + intermediate_bytes.load(std::memory_order_relaxed);
    for (const auto& ws : worker_state_) {
      m.map_emits += ws.emitter.count();
      m.map_stored_pairs += ws.emitter.stored();
      m.map_combine_hits += ws.emitter.combine_hits();
      m.map_intermediate_bytes += ws.emitter.bytes();
    }
    MCSD_OBS_HIST("mr.map_phase_us", "us",
                  static_cast<std::uint64_t>(m.map_seconds * 1e6));

    // ----- reduce phase (per-bucket gather + sort + group + reduce) -------
    phase.restart();
    std::vector<Output> bucket_outputs(buckets);
    std::atomic<std::size_t> unique_keys{0};
    DynamicScheduler reduce_sched{buckets};

    {
      MCSD_OBS_SPAN("mr", "mr.reduce");
      pool_->parallel_for_workers(workers, [&](std::size_t w) {
        // One gather buffer per worker, reused across every bucket this
        // worker claims (and across runs): no per-bucket construction,
        // no shrink_to_fit churn inside the scheduler loop.
        [[maybe_unused]] std::vector<StoredPair>& gathered =
            worker_state_[w].gather;
        while (auto b = reduce_sched.next()) {
          MCSD_OBS_SPAN("mr", "mr.reduce.bucket");
          if constexpr (kFoldReduce) {
            // Cross-worker fold: absorb every other worker's pairs for
            // this bucket into worker 0's combiner index — O(1) probe per
            // pair on the cached hash — then sort only the surviving
            // unique pairs.  Each value is already the combine-fold of
            // its key's emits, so reduce runs on singleton spans (the
            // combiner contract guarantees the same result).  Worker 0's
            // buckets are disjoint across reduce workers (one claimant
            // per bucket index) and cache-line padded, so concurrent
            // absorbs into different buckets never contend.
            Emitter<Key, Value>& base = worker_state_.front().emitter;
            for (std::size_t src = 1; src < worker_state_.size(); ++src) {
              base.absorb_bucket(*b, worker_state_[src].emitter);
            }
            auto& pairs = base.bucket(*b);
            std::sort(pairs.begin(), pairs.end(), HashThenKeyLess{});
            Output& out = bucket_outputs[*b];
            out.reserve(pairs.size());
            for (auto& p : pairs) {
              Key key{p.key};
              const Value folded = std::move(p.value);
              Value reduced =
                  spec.reduce(key, std::span<const Value>{&folded, 1});
              out.push_back(Pair{std::move(key), std::move(reduced)});
            }
            unique_keys.fetch_add(pairs.size(), std::memory_order_relaxed);
            for (auto& ws : worker_state_) {
              ws.emitter.release_index(*b);
              ws.emitter.bucket(*b).clear();  // keep capacity for next run
            }
          } else {
            gathered.clear();
            std::size_t total = 0;
            for (const auto& ws : worker_state_) {
              total += ws.emitter.bucket(*b).size();
            }
            gathered.reserve(total);
            for (auto& ws : worker_state_) {
              ws.emitter.release_index(*b);
              auto& src = ws.emitter.bucket(*b);
              std::move(src.begin(), src.end(), std::back_inserter(gathered));
              src.clear();  // keep capacity: refilled next run
            }
            if constexpr (HasReduce<Spec>) {
              bucket_outputs[*b] = reduce_bucket(spec, gathered, unique_keys);
            } else {
              unique_keys.fetch_add(gathered.size(),
                                    std::memory_order_relaxed);
              Output& out = bucket_outputs[*b];
              out.reserve(gathered.size());
              for (auto& p : gathered) {
                // Stored keys may point into an arena; the output owns its
                // keys.
                out.push_back(Pair{Key(p.key), std::move(p.value)});
              }
            }
          }
        }
      });
    }
    m.reduce_seconds = phase.elapsed_seconds();
    m.unique_keys = unique_keys.load(std::memory_order_relaxed);
    MCSD_OBS_COUNT("mr.unique_keys", m.unique_keys);
    MCSD_OBS_HIST("mr.reduce_phase_us", "us",
                  static_cast<std::uint64_t>(m.reduce_seconds * 1e6));

    // ----- merge phase ----------------------------------------------------
    phase.restart();
    Output merged;
    {
      MCSD_OBS_SPAN("mr", "mr.merge");
      std::vector<std::size_t> offsets(bucket_outputs.size() + 1, 0);
      for (std::size_t b = 0; b < bucket_outputs.size(); ++b) {
        offsets[b + 1] = offsets[b] + bucket_outputs[b].size();
      }
      const std::size_t total = offsets.back();
      // Bucket placement offsets are known up front, so large merges
      // resize the output once and move buckets into place in parallel —
      // the serial append only survives for small outputs (and pair types
      // that cannot be default-constructed for resize()).
      constexpr std::size_t kParallelMergeMin = std::size_t{1} << 15;
      bool merged_parallel = false;
      if constexpr (std::is_default_constructible_v<Pair>) {
        if (workers > 1 && total >= kParallelMergeMin) {
          merged.resize(total);
          DynamicScheduler merge_sched{bucket_outputs.size()};
          pool_->parallel_for_workers(workers, [&](std::size_t) {
            while (auto b = merge_sched.next()) {
              auto& src = bucket_outputs[*b];
              std::move(src.begin(), src.end(), merged.begin() + offsets[*b]);
            }
          });
          merged_parallel = true;
        }
      }
      if (!merged_parallel) {
        merged.reserve(total);
        for (auto& out : bucket_outputs) {
          std::move(out.begin(), out.end(), std::back_inserter(merged));
        }
      }
      if (options_.sort_output_by_key) {
        parallel_sort(merged, *pool_, [](const Pair& a, const Pair& b) {
          return a.key < b.key;
        });
      }
    }
    m.merge_seconds = phase.elapsed_seconds();
    return merged;
  }

 private:
  /// The cross-worker fold reduce applies when the spec has both hooks
  /// (the combiner contract makes singleton-span reduce valid) and values
  /// are copyable (absorb copies first-seen pairs between emitters).
  static constexpr bool kFoldReduce =
      HasReduce<Spec> && HasCombine<Spec> &&
      std::is_copy_constructible_v<Value>;

  /// Per-worker hot state, cache-line padded: worker_state_ is a
  /// contiguous vector, and without the alignas adjacent workers' emit
  /// counters (bumped every emit) would false-share a line.
  struct alignas(64) WorkerState {
    explicit WorkerState(std::size_t buckets) : emitter(buckets) {}
    Emitter<Key, Value> emitter;
    std::vector<StoredPair> gather;  ///< reduce-phase gather buffer
    EmitAttribution attribution;     ///< map-phase cycle sink (opt-in)
  };

  /// Builds or resets the reusable per-worker state and binds `spec`'s
  /// combiner.  Reuse path: every emitter is rewound (arena reset, bucket
  /// capacity kept); rebuild happens only on first use or when the
  /// worker/bucket geometry changed.
  void prepare_worker_state(const Spec& spec, std::size_t workers,
                            std::size_t buckets) {
    const bool geometry_matches =
        worker_state_.size() == workers &&
        (workers == 0 || worker_state_.front().emitter.bucket_count() == buckets);
    if (geometry_matches) {
      for (auto& ws : worker_state_) ws.emitter.reset();
    } else {
      worker_state_.clear();
      worker_state_.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        worker_state_.emplace_back(buckets);
      }
    }
    for (auto& ws : worker_state_) {
      ws.attribution = EmitAttribution{};
      ws.emitter.set_attribution(
          options_.attribute_map_cycles ? &ws.attribution : nullptr);
    }
    if constexpr (HasCombine<Spec>) {
      for (auto& ws : worker_state_) {
        ws.emitter.set_combiner(
            &spec, [](const void* ctx, const KeyView& key, const Value& acc,
                      const Value& incoming) {
              const Value pairwise[2] = {acc, incoming};
              const auto* s = static_cast<const Spec*>(ctx);
              if constexpr (CombinesKeyView<Spec, KeyView>) {
                return s->combine(key, std::span<const Value>{pairwise});
              } else {
                // Fold hook insists on an owned key: materialise one per
                // fold (slow path; string-keyed specs should accept a
                // view, see apps/wordcount.hpp).
                return s->combine(Key(key), std::span<const Value>{pairwise});
              }
            });
      }
    }
  }

  static Output reduce_bucket(const Spec& spec,
                              std::vector<StoredPair>& gathered,
                              std::atomic<std::size_t>& unique_keys)
    requires HasReduce<Spec>
  {
    // Hash-then-key order groups equal keys while replacing nearly every
    // key comparison with one integer compare on the cached hash.
    std::sort(gathered.begin(), gathered.end(), HashThenKeyLess{});
    Output out;
    std::vector<Value> scratch;
    std::size_t i = 0;
    while (i < gathered.size()) {
      std::size_t j = i + 1;
      while (j < gathered.size() && gathered[j].hash == gathered[i].hash &&
             gathered[j].key == gathered[i].key) {
        ++j;
      }
      scratch.clear();
      scratch.reserve(j - i);
      for (std::size_t k = i; k < j; ++k) {
        scratch.push_back(std::move(gathered[k].value));
      }
      // Materialise the owned output key first and hand *it* to the
      // user's reduce: specs keep their `const Key&` signature, and the
      // stored key is copied exactly once, into the output pair.
      Key key{gathered[i].key};
      Value reduced = spec.reduce(key, std::span<const Value>{scratch});
      out.push_back(Pair{std::move(key), std::move(reduced)});
      i = j;
    }
    unique_keys.fetch_add(out.size(), std::memory_order_relaxed);
    return out;
  }

  Options options_;
  std::unique_ptr<ThreadPool> pool_;
  /// Reusable per-worker state; persists across run() calls.
  std::vector<WorkerState> worker_state_;
};

}  // namespace mcsd::mr
