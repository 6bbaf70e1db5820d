#include "partition/streaming.hpp"

#include <algorithm>
#include <utility>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "storage/file_source.hpp"

namespace mcsd::part {

// Single-consumer by contract, and the pool's I/O threads never touch
// this state — so no locking here at all.
struct StreamingFragmentSource::State {
  ChunkedFileReader reader;
  StreamOptions options;
  std::shared_ptr<storage::BufferManager> pool;
  storage::PoolStats base;  ///< pool stats at open(), for deltas

  std::size_t next_index = 0;
  std::size_t produced = 0;
  std::uint64_t bytes_streamed = 0;
  std::uint64_t peak_resident_bytes = 0;

  State(ChunkedFileReader r, StreamOptions o,
        std::shared_ptr<storage::BufferManager> p)
      : reader(std::move(r)), options(std::move(o)), pool(std::move(p)),
        base(pool->stats()) {}
};

StreamingFragmentSource::StreamingFragmentSource(std::unique_ptr<State> state)
    : state_(std::move(state)) {}

StreamingFragmentSource::StreamingFragmentSource(
    StreamingFragmentSource&&) noexcept = default;
StreamingFragmentSource& StreamingFragmentSource::operator=(
    StreamingFragmentSource&&) noexcept = default;

StreamingFragmentSource::~StreamingFragmentSource() = default;

Result<StreamingFragmentSource> StreamingFragmentSource::open(
    const std::filesystem::path& path, StreamOptions options) {
  std::shared_ptr<storage::BufferManager> pool =
      options.pool ? options.pool : storage::process_pool();

  storage::SourceOptions source_options;
  source_options.read_throttle_mibps = options.read_throttle_mibps;
  source_options.hint = storage::AccessHint::kSequential;
  if (options.prefetch) {
    // Read about one fragment ahead — the pool analogue of the old
    // double-buffering prefetch thread.
    const std::size_t frame = pool->frame_bytes();
    const std::uint64_t target =
        options.fragment_bytes == 0
            ? 2 * frame  // whole-file fragment: modest pipelining
            : options.fragment_bytes;
    source_options.readahead_pages = std::max<std::size_t>(
        1, static_cast<std::size_t>((target + frame - 1) / frame));
  }
  auto source = storage::PooledFileSource::open(pool, path, source_options);
  if (!source.is_ok()) return source.error();

  auto reader = ChunkedFileReader::open_with_source(
      std::move(source).value(), path.string(), options.io_buffer_bytes);
  if (!reader.is_ok()) return reader.error();

  auto state = std::make_unique<State>(std::move(reader).value(),
                                       std::move(options), std::move(pool));
  return StreamingFragmentSource{std::move(state)};
}

Result<bool> StreamingFragmentSource::next(OwnedFragment& out) {
  State& s = *state_;
  out.text.clear();
  out.index = s.next_index;
  out.offset = s.reader.next_fragment_offset();
  bool have = false;
  {
    MCSD_OBS_SPAN("part", "part.fragment_read");
    const auto got = s.reader.next_fragment(s.options.fragment_bytes,
                                            s.options.is_delimiter, out.text);
    if (!got.is_ok()) return got.error();
    have = got.value();
  }
  if (!have) return false;
  ++s.next_index;
  ++s.produced;
  s.bytes_streamed += out.text.size();
  // The only fragment text living outside pool frames: the consumer's
  // fragment plus whatever the reader carried past its cut.
  s.peak_resident_bytes =
      std::max(s.peak_resident_bytes,
               static_cast<std::uint64_t>(out.text.size()) +
                   s.reader.carry_bytes());
  MCSD_OBS_COUNT("part.fragments_streamed", 1);
  return true;
}

std::uint64_t StreamingFragmentSource::peak_resident_fragment_bytes() const {
  return state_->peak_resident_bytes;
}

std::size_t StreamingFragmentSource::fragments_produced() const {
  return state_->produced;
}

std::uint64_t StreamingFragmentSource::bytes_streamed() const {
  return state_->bytes_streamed;
}

const std::shared_ptr<storage::BufferManager>& StreamingFragmentSource::pool()
    const {
  return state_->pool;
}

storage::PoolStats StreamingFragmentSource::pool_stats_delta() const {
  const storage::PoolStats now = state_->pool->stats();
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
