// The out-of-core driver: the extended Phoenix workflow of paper Fig. 6.
//
//   Partition -> { MapReduce per fragment } -> Merge
//
// Stock Phoenix fails when a job's footprint exceeds ~60% of node memory;
// this driver runs each memory-fitting fragment through the engine and
// folds each fragment's output into the running result as it retires,
// with the job's merge (job.incremental_merge, see merger.hpp).  No
// driver buffers fragment outputs for a merge at the end, so memory
// tracks the merged result and there is no merge tail.
// `run_adaptive` implements the McSD runtime behaviour end to end: try
// native first, and on MemoryOverflowError fall back to automatic
// partitioning.
//
// Two execution shapes:
//  * `run_partitioned` — in-memory input (string_view), fragments are
//    views produced by partition(); the classic serial chain.
//  * `run_partitioned_file` — file-backed input streamed through
//    StreamingFragmentSource: the engine maps views straight into pinned
//    buffer-pool frames (only records crossing a frame boundary are
//    copied, into a small stitch buffer), and the pages of the next batch
//    are read ahead into frames by the pool's I/O threads while this one
//    runs, so there is no whole-input materialisation up front.  A
//    fragment spanning more frames than the pin window (a quarter of the
//    pool) runs as several engine batches, each folded in turn.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "core/stopwatch.hpp"
#include "mapreduce/engine.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "partition/merger.hpp"
#include "partition/partitioner.hpp"
#include "partition/streaming.hpp"

namespace mcsd::part {

/// Aggregated metrics over a partitioned run.
struct OutOfCoreMetrics {
  std::size_t fragments = 0;
  double partition_seconds = 0.0;  ///< fragmenting (integrity checks)
  double mapreduce_seconds = 0.0;  ///< sum of per-fragment engine time
  double merge_seconds = 0.0;      ///< cross-fragment merge (summed
                                   ///< incremental folds)
  // Per-phase attribution of mapreduce_seconds, summed over fragments
  // from the engine's own Metrics: where engine time actually goes
  // (map+combine vs gather/sort/reduce vs intra-fragment merge).  The
  // residue mapreduce_seconds - (map+reduce+merge) is per-fragment setup
  // (chunking, worker-state preparation).
  double engine_map_seconds = 0.0;
  double engine_reduce_seconds = 0.0;
  double engine_merge_seconds = 0.0;
  double io_wait_seconds = 0.0;    ///< file path: consumer stalls waiting on
                                   ///< fragment I/O (reads hidden behind
                                   ///< compute do not show up here)
  std::uint64_t peak_fragment_footprint_bytes = 0;
  /// File path: peak bytes of *private* input resident at once — the
  /// stitched records of one batch (the engine maps everything else in
  /// place).  Pool-frame residency is accounted by the buffer pool,
  /// bounded by its capacity.
  std::uint64_t peak_resident_fragment_bytes = 0;
  /// File path: engine runs; equals `fragments` unless the pin window
  /// split a fragment into several batches.
  std::size_t engine_batches = 0;
  std::uint64_t bytes_streamed = 0;  ///< file path: input bytes delivered
  // Storage-tier activity attributable to this run (file path only):
  // pins served without new disk I/O vs page loads initiated, and frames
  // recycled.  A warm re-run over a daemon-resident pool shows
  // storage_misses == 0 and storage_hit_rate() == 1.
  std::uint64_t storage_hits = 0;
  std::uint64_t storage_misses = 0;
  std::uint64_t storage_evictions = 0;
  std::size_t map_emits = 0;    ///< raw emits summed over fragments
  std::size_t unique_keys = 0;  ///< post-combine keys summed over fragments
  bool fell_back_to_partitioning = false;  ///< set by run_adaptive
  bool pipelined = false;  ///< true when fragments were prefetched

  [[nodiscard]] double total_seconds() const noexcept {
    return partition_seconds + mapreduce_seconds + merge_seconds +
           io_wait_seconds;
  }

  /// Emit-time combining effectiveness: raw emits per surviving key
  /// (1.0 means combining bought nothing).
  [[nodiscard]] double combine_ratio() const noexcept {
    return unique_keys == 0 ? 1.0
                            : static_cast<double>(map_emits) /
                                  static_cast<double>(unique_keys);
  }

  /// Fraction of page accesses served without initiating disk I/O.
  [[nodiscard]] double storage_hit_rate() const noexcept {
    const std::uint64_t total = storage_hits + storage_misses;
    return total == 0 ? 0.0 : static_cast<double>(storage_hits) /
                                  static_cast<double>(total);
  }
};

/// A partitioned job's two user hooks: how a fragment's text splits into
/// map chunks (callers choose the granularity via the engine spec's
/// natural splitter) and how fragment outputs merge.  Both drivers take
/// it.
template <mr::MapReduceSpec Spec>
struct TextJob {
  /// Chunker: record-aligned text -> map chunks (defaults to
  /// whitespace-aligned 256 KiB chunks).  run_partitioned applies it to
  /// each fragment, run_partitioned_file to each pinned span.  Chunk
  /// offsets are relative to the text; the drivers rebase them to file
  /// offsets so specs keyed on absolute positions (String Match) stay
  /// correct across fragments.
  std::function<std::vector<mr::TextChunk>(std::string_view)> chunker =
      [](std::string_view text) { return mr::split_text(text, 256 * 1024); };

  /// Cross-fragment merge: folds each retiring fragment's output into
  /// the running result.  Defaults to concatenation in fragment order;
  /// see sum_incremental() / concat_incremental().
  IncrementalMerge<typename Spec::Key, typename Spec::Value>
      incremental_merge =
          concat_incremental<typename Spec::Key, typename Spec::Value>();
};

namespace detail {

/// Runs one fragment (or one batch of it) through the engine and folds
/// its output into the running result.  Shared by the in-memory and
/// streaming drivers; `chunks` carry file offsets.
template <mr::MapReduceSpec Spec>
void run_fragment(
    mr::Engine<Spec>& engine, const Spec& spec, const TextJob<Spec>& job,
    const std::vector<mr::TextChunk>& chunks, std::uint64_t input_bytes,
    std::vector<mr::KV<typename Spec::Key, typename Spec::Value>>& running,
    OutOfCoreMetrics& m) {
  Stopwatch watch;
  // Fixed span name: per-fragment names ("part.fragment-<N>") would give
  // the trace one series per fragment and wreck aggregation; the ordinal
  // lives in the part.fragments counter and part.fragment_us histogram.
  MCSD_OBS_SPAN("part", "part.fragment");
  mr::Metrics frag_metrics;
  auto output = engine.run(spec, chunks, input_bytes, &frag_metrics);
  const double fragment_seconds = watch.elapsed_seconds();
  m.mapreduce_seconds += fragment_seconds;
  MCSD_OBS_HIST("part.fragment_us", "us",
                static_cast<std::uint64_t>(fragment_seconds * 1e6));
  m.peak_fragment_footprint_bytes =
      std::max(m.peak_fragment_footprint_bytes,
               frag_metrics.peak_intermediate_bytes);
  m.map_emits += frag_metrics.map_emits;
  m.unique_keys += frag_metrics.unique_keys;
  m.engine_map_seconds += frag_metrics.map_seconds;
  m.engine_reduce_seconds += frag_metrics.reduce_seconds;
  m.engine_merge_seconds += frag_metrics.merge_seconds;

  watch.restart();
  MCSD_OBS_SPAN("part", "part.merge.incremental");
  job.incremental_merge(running, std::move(output));
  m.merge_seconds += watch.elapsed_seconds();
}

/// Appends `text`'s map chunks to `chunks`, rebased to file offset
/// `offset`.
template <mr::MapReduceSpec Spec>
void append_chunks(const TextJob<Spec>& job, std::string_view text,
                   std::uint64_t offset, std::vector<mr::TextChunk>& chunks) {
  for (mr::TextChunk chunk : job.chunker(text)) {
    chunk.offset += static_cast<std::size_t>(offset);
    chunks.push_back(chunk);
  }
}

}  // namespace detail

/// Runs `spec` over `input` fragment by fragment.  The engine's memory
/// budget applies *per fragment*; a fragment that still overflows
/// propagates MemoryOverflowError (the partition size was too large).
template <mr::MapReduceSpec Spec>
std::vector<mr::KV<typename Spec::Key, typename Spec::Value>> run_partitioned(
    mr::Engine<Spec>& engine, const Spec& spec, std::string_view input,
    const PartitionOptions& partition_options, const TextJob<Spec>& job,
    OutOfCoreMetrics* metrics = nullptr) {
  using Pair = mr::KV<typename Spec::Key, typename Spec::Value>;
  OutOfCoreMetrics local;
  OutOfCoreMetrics& m = metrics ? *metrics : local;
  m = OutOfCoreMetrics{};

  MCSD_OBS_SPAN("part", "part.run");
  Stopwatch watch;
  std::vector<Fragment> fragments;
  {
    MCSD_OBS_SPAN("part", "part.partition");
    fragments = partition(input, partition_options);
  }
  m.partition_seconds = watch.elapsed_seconds();
  m.fragments = fragments.size();
  MCSD_OBS_COUNT("part.fragments", fragments.size());

  std::vector<Pair> running;
  std::vector<mr::TextChunk> chunks;
  for (const Fragment& fragment : fragments) {
    chunks.clear();
    detail::append_chunks(job, fragment.text, fragment.offset, chunks);
    detail::run_fragment(engine, spec, job, chunks, fragment.text.size(),
                         running, m);
  }
  return running;
}

/// Pipelined out-of-core run over a file: the engine maps pinned pool
/// frames in place, batch by batch, with read-ahead (see
/// StreamingFragmentSource), and each batch folds into the running result
/// through the job's merge.  The engine's memory budget applies per batch.
/// Returns kNotFound / kIoError for file problems; MemoryOverflowError
/// still propagates as an exception, exactly like run_partitioned, and
/// unwinding releases every pin.
template <mr::MapReduceSpec Spec>
Result<std::vector<mr::KV<typename Spec::Key, typename Spec::Value>>>
run_partitioned_file(mr::Engine<Spec>& engine, const Spec& spec,
                     const std::filesystem::path& path,
                     const PipelineOptions& options, const TextJob<Spec>& job,
                     OutOfCoreMetrics* metrics = nullptr) {
  using Pair = mr::KV<typename Spec::Key, typename Spec::Value>;
  OutOfCoreMetrics local;
  OutOfCoreMetrics& m = metrics ? *metrics : local;
  m = OutOfCoreMetrics{};
  m.pipelined = options.prefetch;

  MCSD_OBS_SPAN("part", "part.run");
  auto source = StreamingFragmentSource::open(path, options);
  if (!source.is_ok()) return source.error();

  std::vector<Pair> running;
  FragmentBatch batch;
  std::vector<mr::TextChunk> chunks;
  Stopwatch wait;
  for (;;) {
    wait.restart();
    const auto got = source.value().next(batch);
    m.io_wait_seconds += wait.elapsed_seconds();
    if (!got.is_ok()) return got.error();
    if (!got.value()) break;
    chunks.clear();
    for (const FragmentSpan& span : batch.spans) {
      if (span.stitched) {
        chunks.push_back(
            mr::TextChunk{span.text, static_cast<std::size_t>(span.offset)});
      } else {
        detail::append_chunks(job, span.text, span.offset, chunks);
      }
    }
    MCSD_OBS_COUNT("part.engine_batches", 1);
    detail::run_fragment(engine, spec, job, chunks, batch.bytes, running, m);
  }
  m.fragments = source.value().fragments_produced();
  m.engine_batches = source.value().batches_produced();
  m.bytes_streamed = source.value().bytes_streamed();
  m.peak_resident_fragment_bytes =
      source.value().peak_resident_fragment_bytes();
  const storage::PoolStats pool_stats = source.value().pool_stats_delta();
  m.storage_hits = pool_stats.hits;
  m.storage_misses = pool_stats.misses;
  m.storage_evictions = pool_stats.evictions;
  MCSD_OBS_COUNT("part.fragments", m.fragments);
  return running;
}

/// The McSD runtime path: attempt a native (single-fragment) run; if the
/// engine reports memory overflow, derive a partition size from the
/// observed requirement and re-run partitioned.  `footprint_factor` is the
/// application's memory blow-up over input size (WC ~3x, SM ~2x).
template <mr::MapReduceSpec Spec>
std::vector<mr::KV<typename Spec::Key, typename Spec::Value>> run_adaptive(
    mr::Engine<Spec>& engine, const Spec& spec, std::string_view input,
    double footprint_factor, const TextJob<Spec>& job,
    DelimiterPred is_delimiter = default_delimiters(),
    OutOfCoreMetrics* metrics = nullptr) {
  OutOfCoreMetrics local;
  OutOfCoreMetrics& m = metrics ? *metrics : local;

  try {
    PartitionOptions native;
    native.partition_size = 0;
    native.is_delimiter = is_delimiter;
    return run_partitioned(engine, spec, input, native, job, &m);
  } catch (const mr::MemoryOverflowError&) {
    // Fall through to partitioned mode.
    MCSD_OBS_COUNT("part.adaptive_fallbacks", 1);
  }

  PartitionOptions opts;
  opts.is_delimiter = is_delimiter;
  opts.partition_size = auto_partition_size(
      input.size(), engine.options().memory_budget_bytes, footprint_factor,
      engine.options().usable_memory_fraction);
  if (opts.partition_size == 0 || opts.partition_size >= input.size()) {
    // auto sizing says "fits", yet the native run overflowed: the
    // footprint factor underestimates this workload.  Halve until usable.
    opts.partition_size = input.size() / 2 + 1;
  }
  auto merged = run_partitioned(engine, spec, input, opts, job, &m);
  m.fell_back_to_partitioning = true;
  if (metrics) *metrics = m;
  return merged;
}

}  // namespace mcsd::part
