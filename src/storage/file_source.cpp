#include "storage/file_source.hpp"

#include <algorithm>
#include <cstring>

namespace mcsd::storage {

Result<PooledFileSource> PooledFileSource::open(
    std::shared_ptr<BufferManager> pool, const std::filesystem::path& path,
    SourceOptions options) {
  if (!pool) {
    return Error{ErrorCode::kInvalidArgument, "PooledFileSource: null pool"};
  }
  auto file = pool->open_file(path);
  if (!file.is_ok()) return file.error();
  // Cap read-ahead so a deep request can never consume the pool: the
  // consumer's pinned pages plus in-flight loads must leave room.
  options.readahead_pages =
      std::min(options.readahead_pages,
               std::max<std::size_t>(1, pool->capacity_frames() / 2) - 1);
  return PooledFileSource{std::move(pool), std::move(file).value(), options};
}

Result<FrameGuard> PooledFileSource::pin(std::uint64_t page_no) {
  const std::uint64_t file_size = file_->size();
  if (options_.readahead_pages > 0 && file_size > 0) {
    // Keep the read-ahead window queued past this page; the pool skips
    // pages already resident or in flight.
    const std::uint64_t last_page = (file_size - 1) / pool_->frame_bytes();
    const std::uint64_t target =
        std::min(page_no + options_.readahead_pages, last_page);
    if (prefetch_cursor_ <= page_no) prefetch_cursor_ = page_no + 1;
    for (; prefetch_cursor_ <= target; ++prefetch_cursor_) {
      pool_->prefetch(file_, prefetch_cursor_, options_.hint,
                      options_.read_throttle_mibps);
    }
  }
  return pool_->pin(file_, page_no, options_.hint,
                    options_.read_throttle_mibps);
}

Result<SpillWriter> SpillWriter::create(std::shared_ptr<BufferManager> pool,
                                        const std::filesystem::path& path) {
  if (!pool) {
    return Error{ErrorCode::kInvalidArgument, "SpillWriter: null pool"};
  }
  auto file = pool->create_file(path);
  if (!file.is_ok()) return file.error();
  return SpillWriter{std::move(pool), std::move(file).value()};
}

Status SpillWriter::append(std::string_view bytes) {
  const std::size_t frame_bytes = pool_->frame_bytes();
  while (!bytes.empty()) {
    const std::size_t in_page = static_cast<std::size_t>(size_ % frame_bytes);
    if (!current_) {
      auto guard = pool_->pin_write(file_, size_ / frame_bytes);
      if (!guard.is_ok()) {
        return Status{guard.error().code(), guard.error().message()};
      }
      current_ = std::move(guard).value();
    }
    const std::size_t take = std::min(bytes.size(), frame_bytes - in_page);
    std::memcpy(current_.data() + in_page, bytes.data(), take);
    current_.mark_dirty(in_page + take);
    size_ += take;
    bytes.remove_prefix(take);
    if (in_page + take == frame_bytes) current_.release();
  }
  return Status::ok();
}

Status SpillWriter::finish() {
  current_.release();
  return pool_->flush(file_);
}

}  // namespace mcsd::storage
