// Pool-backed access paths for the layers above the buffer manager.
//
//  * PooledFileSource — one sequential reader's view of a file: pin()
//    hands out a page *in place* (a FrameGuard over the pool frame, no
//    copy) after queueing read-ahead to the pool's I/O threads, so the
//    next pages load while the caller computes on this one, and every
//    page it loads *stays* loaded for the next run.  The streaming
//    fragment source (partition/streaming.hpp) maps the engine straight
//    over these pinned frames.
//  * SpillWriter — append-only writer that fills pool frames and lets
//    eviction / flush() write them back: spill data transits the same
//    frames and fault sites as everything else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>

#include "core/result.hpp"
#include "storage/buffer_manager.hpp"

namespace mcsd::storage {

struct SourceOptions {
  /// Pages queued ahead of the highest page pinned so far.  0 disables
  /// read-ahead (the serial A/B baseline).
  std::size_t readahead_pages = 0;

  /// Emulated device rate applied to page *loads* (see
  /// BufferManager::pin); hits are never throttled.
  double read_throttle_mibps = 0.0;

  /// Eviction hint for the pages this source touches.
  AccessHint hint = AccessHint::kSequential;
};

class PooledFileSource {
 public:
  /// Registers `path` with `pool` (kNotFound if absent).  Read-ahead is
  /// capped at capacity_frames() / 2 - 1 pages, so a deep request can
  /// never consume the pool.
  static Result<PooledFileSource> open(std::shared_ptr<BufferManager> pool,
                                       const std::filesystem::path& path,
                                       SourceOptions options = {});

  /// Queues read-ahead up to `page_no + readahead_pages`, then pins page
  /// `page_no`.  The guard's bytes() are the page in place; a page
  /// shorter than frame_bytes() is the file's last, and a page past
  /// end-of-file is empty.
  Result<FrameGuard> pin(std::uint64_t page_no);

  [[nodiscard]] const std::shared_ptr<File>& file() const noexcept {
    return file_;
  }
  [[nodiscard]] const std::shared_ptr<BufferManager>& pool() const noexcept {
    return pool_;
  }

 private:
  PooledFileSource(std::shared_ptr<BufferManager> pool,
                   std::shared_ptr<File> file, SourceOptions options)
      : pool_(std::move(pool)), file_(std::move(file)), options_(options) {}

  std::shared_ptr<BufferManager> pool_;
  std::shared_ptr<File> file_;
  SourceOptions options_;
  std::uint64_t prefetch_cursor_ = 0;  ///< next page to queue read-ahead for
};

/// Append-only spill writer over pool frames.  Not thread-safe.  Pages
/// are pinned one at a time, filled via mark_dirty, and released at each
/// page boundary, so at most one frame is pinned per writer; finish()
/// flushes everything dirty to disk.
class SpillWriter {
 public:
  static Result<SpillWriter> create(std::shared_ptr<BufferManager> pool,
                                    const std::filesystem::path& path);

  SpillWriter(SpillWriter&&) noexcept = default;
  SpillWriter& operator=(SpillWriter&&) noexcept = default;
  ~SpillWriter() = default;  ///< dropping without finish() leaves dirty
                             ///< frames to write back lazily at eviction

  Status append(std::string_view bytes);

  /// Releases the current frame and writes every dirty page back — the
  /// durability point.
  Status finish();

  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return size_; }
  [[nodiscard]] const std::shared_ptr<File>& file() const noexcept {
    return file_;
  }

 private:
  SpillWriter(std::shared_ptr<BufferManager> pool, std::shared_ptr<File> file)
      : pool_(std::move(pool)), file_(std::move(file)) {}

  std::shared_ptr<BufferManager> pool_;
  std::shared_ptr<File> file_;
  FrameGuard current_;
  std::uint64_t size_ = 0;
};

}  // namespace mcsd::storage
