// Fundamental types of the Phoenix-style MapReduce runtime.
//
// The runtime reimplements, in C++20, the programming model of Phoenix
// (Ranger et al., HPCA'07) that the paper embeds in the McSD storage
// node: user code supplies map / reduce (and optionally combine)
// callbacks; the runtime owns threading, dynamic task scheduling,
// keyspace partitioning, sorting and merging.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mcsd::mr {

/// One intermediate or final key/value pair.
template <typename K, typename V>
struct KV {
  K key;
  V value;

  friend bool operator==(const KV&, const KV&) = default;
};

/// An intermediate pair carrying its cached 64-bit key hash.  The map
/// phase computes the hash once per emit (it already needs it for bucket
/// routing); the reduce phase reuses it for open-addressing probes and a
/// hash-then-key sort that avoids most full key comparisons.
template <typename K, typename V>
struct HKV {
  K key;
  V value;
  std::uint64_t hash = 0;

  friend bool operator==(const HKV&, const HKV&) = default;
};

/// Thrown when a job's estimated or observed memory footprint exceeds the
/// configured budget.  This reproduces the behaviour the paper reports for
/// stock Phoenix: "the Phoenix runtime system does not support any
/// application whose required data size exceeds approximately 60% of a
/// computing node's memory size" (Section IV-B).  The partition module
/// exists to catch exactly this error and fall back to out-of-core
/// processing.
class MemoryOverflowError : public std::runtime_error {
 public:
  MemoryOverflowError(std::uint64_t required_bytes, std::uint64_t budget_bytes)
      : std::runtime_error(
            "MapReduce memory overflow: footprint " +
            std::to_string(required_bytes) + " bytes exceeds usable budget " +
            std::to_string(budget_bytes) + " bytes"),
        required_bytes_(required_bytes),
        budget_bytes_(budget_bytes) {}

  [[nodiscard]] std::uint64_t required_bytes() const noexcept {
    return required_bytes_;
  }
  [[nodiscard]] std::uint64_t budget_bytes() const noexcept {
    return budget_bytes_;
  }

 private:
  std::uint64_t required_bytes_;
  std::uint64_t budget_bytes_;
};

/// Engine configuration.  Worker count is always explicit: the paper's
/// experiments hinge on "duo-core vs quad-core storage node", so core
/// count is an input, never divined from the machine.
struct Options {
  /// Number of map/reduce worker threads (the emulated core count).
  std::size_t num_workers = 2;

  /// Reduce-side keyspace buckets.  0 selects kDefaultReduceBuckets — a
  /// constant, deliberately *independent of worker count*: with a fixed
  /// keyspace split, bucket geometry (and therefore bucket-order output)
  /// is identical at any parallelism level, and per-bucket reduce work
  /// stops growing as workers are added.  32 buckets leave ample dynamic
  /// load-balancing slack up to 8 workers.
  std::size_t num_reduce_buckets = 0;

  static constexpr std::size_t kDefaultReduceBuckets = 32;

  /// Map-side memory budget in bytes; 0 disables enforcement.  Models the
  /// RAM of the storage node running the job.
  std::uint64_t memory_budget_bytes = 0;

  /// Fraction of the budget usable before MemoryOverflowError — the
  /// paper's ~60% observation for Phoenix.
  double usable_memory_fraction = 0.6;

  /// If true the final output is sorted by key; if false, output order is
  /// bucket order (deterministic for a fixed bucket count).  For a spec
  /// with a reduce hook that is ascending (key hash, key), the order
  /// part::sum_merge_into folds without sorting.
  bool sort_output_by_key = false;

  /// When true the map phase attributes cycles per worker: tokenize vs
  /// hash vs combine-probe (reported by the emitter's batched emit path)
  /// plus chunk-claim/steal time, into Metrics::map_workers.  Costs a few
  /// steady_clock reads per emit batch — off by default so throughput
  /// runs measure the uninstrumented loop; benches flip it on for one
  /// attribution pass.
  bool attribute_map_cycles = false;

  [[nodiscard]] std::size_t effective_reduce_buckets() const noexcept {
    return num_reduce_buckets != 0 ? num_reduce_buckets : kDefaultReduceBuckets;
  }

  [[nodiscard]] std::uint64_t usable_budget() const noexcept {
    if (memory_budget_bytes == 0) return 0;
    return static_cast<std::uint64_t>(
        usable_memory_fraction * static_cast<double>(memory_budget_bytes));
  }

  void validate() const {
    if (num_workers == 0) {
      throw std::invalid_argument("Options.num_workers must be >= 1");
    }
    if (usable_memory_fraction <= 0.0 || usable_memory_fraction > 1.0) {
      throw std::invalid_argument(
          "Options.usable_memory_fraction must be in (0, 1]");
    }
  }
};

/// Per-worker map-phase attribution.  Wall vs CPU seconds separate "the
/// worker was slow" from "the worker was descheduled" (on a host with
/// fewer cores than workers the two diverge wildly — the whole point of
/// recording both).  The tokenize/hash/probe/claim timing split is filled
/// only when Options.attribute_map_cycles is set; chunk/steal/emit counts
/// are always on (they cost one addition per scheduler round).
struct MapWorkerStats {
  double wall_seconds = 0.0;      ///< worker body wall time
  double cpu_seconds = 0.0;       ///< worker body thread CPU time
  double tokenize_seconds = 0.0;  ///< map fn outside the emitter (attribution)
  double hash_seconds = 0.0;      ///< batched key hashing (attribution)
  double probe_seconds = 0.0;     ///< combiner probe/insert (attribution)
  double claim_seconds = 0.0;     ///< scheduler claims incl. steal scans
  std::size_t chunks = 0;         ///< chunks this worker mapped
  std::size_t steals = 0;         ///< batches taken from another slab
  std::size_t emits = 0;          ///< raw emits from this worker
};

/// Per-phase wall-clock timings and volume counters, filled by the engine.
struct Metrics {
  double split_seconds = 0.0;
  double map_seconds = 0.0;
  double reduce_seconds = 0.0;   ///< includes per-bucket sort/group
  double merge_seconds = 0.0;
  std::size_t chunks = 0;
  std::size_t map_emits = 0;    ///< raw emit calls, before map-side combining
  std::size_t map_stored_pairs = 0;  ///< pairs surviving emit-time combining
  std::size_t map_combine_hits = 0;  ///< emits folded into an existing pair
  std::size_t unique_keys = 0;
  std::uint64_t peak_intermediate_bytes = 0;
  /// Post-combine emitter bytes summed over workers (excludes input).
  std::uint64_t map_intermediate_bytes = 0;
  /// Per-worker map-phase attribution (size == num_workers after run()).
  std::vector<MapWorkerStats> map_workers;

  [[nodiscard]] double map_cpu_seconds() const noexcept {
    double total = 0.0;
    for (const auto& w : map_workers) total += w.cpu_seconds;
    return total;
  }
  [[nodiscard]] std::size_t map_steals() const noexcept {
    std::size_t total = 0;
    for (const auto& w : map_workers) total += w.steals;
    return total;
  }

  [[nodiscard]] double total_seconds() const noexcept {
    return split_seconds + map_seconds + reduce_seconds + merge_seconds;
  }
};

// ---------------------------------------------------------------------------
// Spec concepts.  A Spec binds the user callbacks; see apps/ for the three
// benchmark specs (word count, string match, matrix multiplication).
// ---------------------------------------------------------------------------

template <typename S>
concept MapReduceSpec = requires {
  typename S::Key;
  typename S::Value;
  requires std::totally_ordered<typename S::Key>;
};

/// Detects an optional `combine` member: combine(key, span<Value>) -> Value,
/// applied map-side per worker to shrink intermediate data (a standard
/// MapReduce optimisation; Phoenix exposes the same hook).
template <typename S>
concept HasCombine = requires(const S& s, const typename S::Key& k,
                              std::span<const typename S::Value> vs) {
  { s.combine(k, vs) } -> std::convertible_to<typename S::Value>;
};

}  // namespace mcsd::mr
