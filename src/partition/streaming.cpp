#include "partition/streaming.hpp"

#include <algorithm>
#include <deque>
#include <string>
#include <utility>

#include "core/fault.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "storage/file_source.hpp"

namespace mcsd::part {

namespace {

/// A walk along the integrity-check rule: the rest of a record, then
/// its delimiter run, ending on the next record byte.  Used for the cut
/// after a fragment's draft point and for a record being stitched.
enum class Walk : std::uint8_t {
  kBeforeDraft,  ///< (cut walk only) the draft point is still ahead
  kRecord,       ///< in the record
  kDelims,       ///< in the delimiter run after it
  kDone,         ///< finished (cut walk: `cut` is the fragment's end)
};

}  // namespace

// Single-consumer by contract, and the pool's I/O threads never touch
// this state — so no locking here at all.
struct StreamingFragmentSource::State {
  storage::PooledFileSource source;
  PipelineOptions options;
  std::string path;  ///< as given: fault filtering and error messages
  storage::PoolStats base;  ///< pool stats at open(), for deltas
  std::uint64_t file_size = 0;
  std::uint64_t frame_bytes = 0;
  std::size_t window_frames = 1;

  /// Pinned frames of pages [first_page, first_page + window.size()).
  std::deque<storage::FrameGuard> window;
  std::uint64_t first_page = 0;

  std::uint64_t cursor = 0;  ///< next file byte not yet handed out

  // The fragment in progress.
  bool in_fragment = false;
  std::size_t next_index = 0;
  std::uint64_t fragment_offset = 0;
  std::uint64_t draft = 0;
  Walk seek = Walk::kDone;
  std::uint64_t seek_pos = 0;
  std::uint64_t cut = 0;

  // Stitching: `pending` holds the record crossing the last frame
  // boundary, with its delimiter run, so every span starts on a record
  // byte; finished records move to `stitched` (stable addresses for the
  // batch's views) until the next batch.
  Walk stitch = Walk::kDone;
  std::uint64_t stitch_offset = 0;
  std::string pending;
  std::deque<std::string> stitched;
  std::uint64_t stitched_bytes = 0;
  bool batch_views = false;  ///< the batch holds views into the window

  std::size_t produced = 0;
  std::size_t batches = 0;
  std::uint64_t bytes_streamed = 0;
  std::uint64_t peak_resident_bytes = 0;

  State(storage::PooledFileSource s, PipelineOptions o, std::string p,
        std::size_t window)
      : source(std::move(s)), options(std::move(o)), path(std::move(p)),
        base(source.pool()->stats()), file_size(source.file()->size()),
        frame_bytes(source.pool()->frame_bytes()), window_frames(window) {}

  [[nodiscard]] bool is_delim(char c) const { return options.is_delimiter(c); }

  void begin_fragment() {
    in_fragment = true;
    fragment_offset = cursor;
    const std::uint64_t remaining = file_size - cursor;
    const std::uint64_t target = options.partition_size;
    draft = cursor + (target == 0 ? remaining : std::min(target, remaining));
    if (draft >= file_size) {
      // The remainder is at most one fragment: it becomes the tail
      // fragment verbatim (partition()'s final-fragment behaviour).
      seek = Walk::kDone;
      cut = file_size;
    } else {
      seek = Walk::kBeforeDraft;
    }
  }

  /// Unpins every frame wholly before `offset`.
  void release_before(std::uint64_t offset) {
    while (!window.empty() && (first_page + 1) * frame_bytes <= offset) {
      window.pop_front();
      ++first_page;
    }
  }

  /// One frame pin with the refill fault site and its bounded retry.
  Result<storage::FrameGuard> pin(std::uint64_t page) {
    Error last{ErrorCode::kIoError, "cannot pin page of " + path};
    for (int attempt = 0; attempt < kReadAttempts; ++attempt) {
      if (fault::check(fault::Site::kRefill, path).kind == fault::Kind::kEio) {
        last = Error{ErrorCode::kIoError, "injected EIO on " + path};
        continue;
      }
      auto guard = source.pin(page);
      if (guard.is_ok() || guard.error().code() != ErrorCode::kIoError) {
        return guard;
      }
      last = guard.error();
    }
    return last;
  }

  /// Makes `page` (the one holding `cursor`) resident in the window.
  /// False: the batch must end first — its views hold the window full,
  /// or other readers hold every other frame of the pool.
  Result<bool> reach(std::uint64_t page) {
    if (!window.empty() && page < first_page + window.size()) return true;
    if (batch_views) {
      if (window.size() >= window_frames) return false;
      const storage::PoolStats now = source.pool()->stats();
      if (now.pinned_frames >= now.capacity_frames) return false;
    } else {
      // Nothing handed out in this batch maps the frames behind the
      // cursor (stitched bytes are copies).
      window.clear();
    }
    if (window.empty()) first_page = page;
    auto guard = pin(page);
    if (!guard.is_ok()) return guard.error();
    const std::uint64_t start = page * frame_bytes;
    const std::uint64_t expected =
        std::min<std::uint64_t>(frame_bytes, file_size - start);
    if (guard.value().bytes().size() < expected) {
      return Error{ErrorCode::kIoError, path + " shrank while streaming"};
    }
    window.push_back(std::move(guard).value());
    return true;
  }

  /// Walks `phase` over frame bytes [pos, end) (`bytes` starts at file
  /// offset `start`); returns where it stopped — `end`, or the first
  /// record byte after the delimiter run (phase kDone).
  std::uint64_t walk(std::string_view bytes, std::uint64_t start,
                     std::uint64_t pos, std::uint64_t end, Walk& phase) const {
    for (; pos < end; ++pos) {
      const bool delim = is_delim(bytes[pos - start]);
      if (phase == Walk::kRecord) {
        if (delim) phase = Walk::kDelims;
      } else if (!delim) {
        phase = Walk::kDone;
        break;
      }
    }
    return pos;
  }

  /// Moves the cut walk forward over one frame's bytes.
  void advance_seek(std::string_view bytes, std::uint64_t start) {
    const std::uint64_t end = start + bytes.size();
    if (seek == Walk::kBeforeDraft && draft - 1 < end) {
      // Fig. 7: a clean draft cut only absorbs the delimiter run; any
      // other walks to the end of the record first.
      seek = is_delim(bytes[draft - 1 - start]) ? Walk::kDelims
                                                 : Walk::kRecord;
      seek_pos = draft;
    }
    if (seek != Walk::kRecord && seek != Walk::kDelims) return;
    seek_pos = walk(bytes, start, seek_pos, end, seek);
    if (seek == Walk::kDone) {
      cut = seek_pos;
    } else if (seek_pos >= file_size) {
      seek = Walk::kDone;
      cut = file_size;
    }
  }

  void emit_view(std::string_view bytes, std::uint64_t start,
                 std::uint64_t from, std::uint64_t to, FragmentBatch& out) {
    if (from == to) return;
    batch_views = true;
    out.spans.push_back(
        FragmentSpan{bytes.substr(from - start, to - from), from, false});
  }

  void finish_stitch(FragmentBatch& out) {
    MCSD_OBS_HIST("part.stitch_bytes", "bytes", pending.size());
    stitched_bytes += pending.size();
    stitched.push_back(std::move(pending));
    pending.clear();
    stitch = Walk::kDone;
    out.spans.push_back(FragmentSpan{stitched.back(), stitch_offset, true});
  }

  /// Hands out the fragment's bytes in `page` from the cursor on.
  void map_frame(std::uint64_t page, FragmentBatch& out) {
    const std::uint64_t start = page * frame_bytes;
    const std::string_view bytes =
        window[page - first_page].bytes().substr(
            0, static_cast<std::size_t>(
                   std::min<std::uint64_t>(frame_bytes, file_size - start)));
    advance_seek(bytes, start);
    std::uint64_t end = start + bytes.size();
    if (seek == Walk::kDone) end = std::min(end, cut);
    const bool fragment_ends = seek == Walk::kDone && end == cut;

    std::uint64_t from = cursor;
    if (stitch != Walk::kDone) {
      const std::uint64_t stop = walk(bytes, start, from, end, stitch);
      pending.append(bytes.substr(from - start, stop - from));
      from = stop;
      if (stitch != Walk::kDone && !fragment_ends) {
        cursor = end;  // the record goes on into the next frame
        return;
      }
      finish_stitch(out);
    }
    if (fragment_ends) {
      emit_view(bytes, start, from, end, out);
      cursor = end;
      return;
    }
    // A frame boundary inside the fragment: the view ends after the last
    // delimiter, and a record reaching the boundary is stitched.
    std::uint64_t split = end;
    while (split > from && !is_delim(bytes[split - 1 - start])) --split;
    emit_view(bytes, start, from, split, out);
    if (split < end) {
      stitch = Walk::kRecord;
      stitch_offset = split;
      pending.assign(bytes.substr(split - start, end - split));
    }
    cursor = end;
  }
};

StreamingFragmentSource::StreamingFragmentSource(std::unique_ptr<State> state)
    : state_(std::move(state)) {}

StreamingFragmentSource::StreamingFragmentSource(
    StreamingFragmentSource&&) noexcept = default;
StreamingFragmentSource& StreamingFragmentSource::operator=(
    StreamingFragmentSource&&) noexcept = default;

StreamingFragmentSource::~StreamingFragmentSource() = default;

Result<StreamingFragmentSource> StreamingFragmentSource::open(
    const std::filesystem::path& path, PipelineOptions options) {
  std::shared_ptr<storage::BufferManager> pool =
      options.pool ? options.pool : storage::process_pool();

  // The pin window is a quarter of the pool; read-ahead past it stays
  // within PooledFileSource's cap (half the pool), so a quarter is left
  // for pages kept for the next run and for other readers.
  const std::size_t window =
      std::max<std::size_t>(1, pool->capacity_frames() / 4);
  storage::SourceOptions source_options;
  source_options.read_throttle_mibps = options.read_throttle_mibps;
  source_options.hint = storage::AccessHint::kSequential;
  if (options.prefetch) {
    // Read about one fragment ahead — the pool analogue of the old
    // double-buffering prefetch thread.
    const std::size_t frame = pool->frame_bytes();
    const std::uint64_t target =
        options.partition_size == 0
            ? 2 * frame  // whole-file fragment: modest pipelining
            : options.partition_size;
    source_options.readahead_pages = std::max<std::size_t>(
        1, static_cast<std::size_t>((target + frame - 1) / frame));
  }
  auto source =
      storage::PooledFileSource::open(std::move(pool), path, source_options);
  if (!source.is_ok()) return source.error();

  return StreamingFragmentSource{std::make_unique<State>(
      std::move(source).value(), std::move(options), path.string(), window)};
}

Result<bool> StreamingFragmentSource::next(FragmentBatch& out) {
  State& s = *state_;
  MCSD_OBS_SPAN("part", "part.fragment_read");
  out.spans.clear();
  s.stitched.clear();
  s.stitched_bytes = 0;
  s.batch_views = false;
  s.release_before(s.cursor);
  for (;;) {
    if (!s.in_fragment) {
      if (s.cursor >= s.file_size) {
        s.window.clear();
        return false;  // clean end-of-file
      }
      s.begin_fragment();
    }
    out.index = s.next_index;
    out.offset = s.fragment_offset;
    while (!(s.seek == Walk::kDone && s.cursor == s.cut)) {
      const std::uint64_t page = s.cursor / s.frame_bytes;
      const auto reached = s.reach(page);
      if (!reached.is_ok()) return reached.error();
      if (!reached.value()) break;
      s.map_frame(page, out);
    }
    if (s.seek == Walk::kDone && s.cursor == s.cut) {
      s.in_fragment = false;
      ++s.next_index;
      ++s.produced;
      MCSD_OBS_COUNT("part.fragments_streamed", 1);
    }
    // An empty batch means the previous one already held the rest of its
    // fragment (the cut sat on the window's edge): go on to the next.
    if (!out.spans.empty()) break;
  }
  out.bytes = 0;
  for (const FragmentSpan& span : out.spans) out.bytes += span.text.size();
  ++s.batches;
  s.bytes_streamed += out.bytes;
  s.peak_resident_bytes = std::max(s.peak_resident_bytes,
                                   s.stitched_bytes + s.pending.size());
  return true;
}

std::uint64_t StreamingFragmentSource::peak_resident_fragment_bytes() const {
  return state_->peak_resident_bytes;
}

std::size_t StreamingFragmentSource::fragments_produced() const {
  return state_->produced;
}

std::size_t StreamingFragmentSource::batches_produced() const {
  return state_->batches;
}

std::uint64_t StreamingFragmentSource::bytes_streamed() const {
  return state_->bytes_streamed;
}

const std::shared_ptr<storage::BufferManager>& StreamingFragmentSource::pool()
    const {
  return state_->source.pool();
}

storage::PoolStats StreamingFragmentSource::pool_stats_delta() const {
  const storage::PoolStats now = state_->source.pool()->stats();
  const storage::PoolStats& base = state_->base;
  storage::PoolStats delta = now;
  delta.hits = now.hits - base.hits;
  delta.misses = now.misses - base.misses;
  delta.evictions = now.evictions - base.evictions;
  delta.writebacks = now.writebacks - base.writebacks;
  delta.prefetches = now.prefetches - base.prefetches;
  delta.read_retries = now.read_retries - base.read_retries;
  delta.write_retries = now.write_retries - base.write_retries;
  delta.read_errors = now.read_errors - base.read_errors;
  delta.write_errors = now.write_errors - base.write_errors;
  delta.readahead_evicted = now.readahead_evicted - base.readahead_evicted;
  delta.ring_recycles = now.ring_recycles - base.ring_recycles;
  return delta;
}

}  // namespace mcsd::part
