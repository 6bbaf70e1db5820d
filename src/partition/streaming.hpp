// Streaming fragment source: the I/O side of the pipelined out-of-core
// driver, mapped in place over storage buffer-pool frames.
//
// The serial driver materialises the whole input, partitions it, then
// runs fragments one at a time — the storage node's cores idle during
// every read, and the input exists twice (page cache and a private
// string).  This source walks the file's pages through a
// storage::PooledFileSource and hands the engine *views into the pinned
// frames*: no fragment text is copied.
//
// Fragments: boundaries are exactly part::partition()'s.  The cut at the
// draft size is aligned with the integrity-check rules (walk to the end
// of the record in progress, then absorb the trailing delimiter run) as
// the walk over the frames reaches it.
//
// Pinned spans and stitching: a fragment arrives as spans in file order.
// A span is either a view into one pinned frame that starts and ends on
// a record boundary, or a *stitched* record: a record whose bytes reach
// a frame boundary is copied into a small owned buffer and handed out as
// its own span, so no view ever splits a record.  Those records are the
// only bytes copied (obs histogram part.stitch_bytes).
//
// Pin window: a stream pins at most capacity_frames / 4 frames (the
// window), plus read-ahead past them, so a quarter of the pool keeps
// pages for the next run — the earlier pages of a file larger than the
// pool survive the scan ring — and for other readers.  A batch also
// ends early rather than wait for a frame while other readers pin all
// the rest, so concurrent streams cannot wedge a shared pool.  A
// fragment spanning more frames than the window arrives as several
// batches with the same index, each its own engine run.  A frame is
// unpinned once every span over it has been handed out and the consumer
// asks for the next batch; the frame the next batch starts in stays
// pinned.  Pins are RAII guards: destroying the source on any path (an
// exception out of the engine included) releases every one.
//
// Overlap model: read-ahead.  In prefetch mode the source keeps about a
// fragment's worth of upcoming pages (at most capacity_frames / 2 - 1)
// queued past the last pinned page to the pool's I/O threads, so while
// the engine maps batch N the pages of batch N+1 land in frames.
//
// Residency: the only private input bytes are the stitched records of
// the current batch; everything else lives in pool frames, bounded by
// the pool's capacity and still resident for the *next* run over the
// same file when the pool outlives this source (the FAM daemon's
// long-lived pool).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string_view>
#include <vector>

#include "core/result.hpp"
#include "partition/integrity.hpp"
#include "storage/buffer_manager.hpp"

namespace mcsd::part {

/// A contiguous run of fragment bytes that starts and ends on a record
/// boundary.
struct FragmentSpan {
  std::string_view text;
  std::uint64_t offset = 0;  ///< file offset of text[0]
  bool stitched = false;     ///< a copied record: map it as one chunk
};

/// One engine batch: the part of a fragment that fits the pin window.
/// The views stay valid until the next StreamingFragmentSource::next()
/// call or the source's destruction.
struct FragmentBatch {
  std::vector<FragmentSpan> spans;  ///< in file order
  std::size_t index = 0;            ///< fragment number, as partition()'s
  std::uint64_t offset = 0;         ///< file offset of the fragment
  std::uint64_t bytes = 0;          ///< bytes the spans cover
};

/// Streaming knobs, shared by StreamingFragmentSource::open and
/// run_partitioned_file.
struct PipelineOptions {
  /// The paper's [partition-size] in bytes (the draft fragment size);
  /// 0 = whole file, one fragment.
  std::uint64_t partition_size = 0;

  /// Record delimiter; defaults to whitespace (word records).  Must match
  /// the job's records (newline for line-oriented jobs) so no record is
  /// ever cut across fragments.
  DelimiterPred is_delimiter = default_delimiters();

  /// True: keep ~1 fragment of pages queued as pool read-ahead so reads
  /// overlap compute.  False: no read-ahead — every page load happens
  /// inside next() (the serial A/B baseline).
  bool prefetch = true;

  /// Emulated sequential-read rate in MiB/s applied to page *loads*;
  /// 0 = the raw device.  Pool hits are never throttled — they model
  /// DRAM-resident data, which is exactly the warm-re-run effect the
  /// storage tier exists to produce.  Benchmarks set this so the
  /// I/O:compute ratio matches the paper's hardware instead of a host
  /// whose page-cache-warm reads are two orders faster than the storage
  /// node being modelled.
  double read_throttle_mibps = 0.0;

  /// Pool to serve pages from; null uses storage::process_pool().  The
  /// FAM daemon passes its own long-lived pool here so fragments stay
  /// hot across module invocations.
  std::shared_ptr<storage::BufferManager> pool;
};

/// Pull-based fragment stream over a file.  Not thread-safe: one consumer.
class StreamingFragmentSource {
 public:
  /// Attempts per frame pin.  A transient failure (an NFS hiccup, or an
  /// injected Site::kRefill fault) is retried before the error
  /// propagates, so a run survives sporadic EIO with byte-identical
  /// output.
  static constexpr int kReadAttempts = 4;

  static Result<StreamingFragmentSource> open(
      const std::filesystem::path& path, PipelineOptions options);

  StreamingFragmentSource(StreamingFragmentSource&&) noexcept;
  StreamingFragmentSource& operator=(StreamingFragmentSource&&) noexcept;
  ~StreamingFragmentSource();  ///< unpins every frame; in-flight
                               ///< read-ahead completes into the pool
                               ///< and is simply left cached

  /// Unpins the frames the stream has moved past and assembles the next
  /// batch (with read-ahead the wait is only the part of the page loads
  /// not hidden behind compute).  Returns true and fills `out`, false on
  /// clean end-of-file, or the first error encountered.
  Result<bool> next(FragmentBatch& out);

  /// Peak bytes of stitched records held at once — the only private copy
  /// of input (frames are accounted by the pool, bounded by capacity).
  [[nodiscard]] std::uint64_t peak_resident_fragment_bytes() const;

  /// Fragments completed so far.
  [[nodiscard]] std::size_t fragments_produced() const;

  /// Batches handed out so far: one per fragment unless the pin window
  /// split a fragment.
  [[nodiscard]] std::size_t batches_produced() const;

  /// File bytes delivered so far (sums batch sizes).
  [[nodiscard]] std::uint64_t bytes_streamed() const;

  /// The pool serving this stream (for capacity/stat assertions).
  [[nodiscard]] const std::shared_ptr<storage::BufferManager>& pool() const;

  /// Pool activity attributable to this stream: stats() deltas since
  /// open().  Approximate when the pool is shared with concurrent users.
  [[nodiscard]] storage::PoolStats pool_stats_delta() const;

 private:
  struct State;
  explicit StreamingFragmentSource(std::unique_ptr<State> state);

  std::unique_ptr<State> state_;
};

}  // namespace mcsd::part
