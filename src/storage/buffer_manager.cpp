#include "storage/buffer_manager.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

#include "core/fault.hpp"
#include "storage/identity.hpp"
#include "core/stopwatch.hpp"
#include "core/units.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace mcsd::storage {

namespace {

using std::chrono::steady_clock;

/// Pins and pool-exhaustion waits give up after this long — a wedged
/// pool surfaces as kUnavailable instead of a hang.
constexpr std::chrono::seconds kWaitDeadline{10};
/// Poll tick for waits whose wakeup (unpin) happens outside the mutex.
constexpr std::chrono::milliseconds kWaitTick{10};

std::string normalize_path(const std::filesystem::path& path) {
  std::error_code ec;
  auto abs = std::filesystem::absolute(path, ec);
  if (ec) return path.string();
  return abs.lexically_normal().string();
}

}  // namespace

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

// ---------------------------------------------------------------------------
// FrameGuard

std::string_view FrameGuard::bytes() const noexcept {
  return mgr_ == nullptr ? std::string_view{} : mgr_->frame_bytes_view(frame_);
}

char* FrameGuard::data() noexcept {
  return mgr_ == nullptr ? nullptr : mgr_->frames_[frame_].data;
}

std::size_t FrameGuard::capacity() const noexcept {
  return mgr_ == nullptr ? 0 : mgr_->options_.frame_bytes;
}

void FrameGuard::mark_dirty(std::size_t valid_bytes) noexcept {
  if (mgr_ != nullptr) mgr_->guard_mark_dirty(frame_, valid_bytes);
}

void FrameGuard::release() noexcept {
  if (mgr_ != nullptr) {
    mgr_->unpin(frame_);
    mgr_ = nullptr;
  }
}

// ---------------------------------------------------------------------------
// BufferManager

BufferManager::BufferManager(PoolOptions options) : options_(options) {
  if (options_.frame_bytes == 0) options_.frame_bytes = 256 * 1024;
  if (options_.io_threads == 0) options_.io_threads = 1;
  std::size_t count = options_.pool_bytes / options_.frame_bytes;
  if (count == 0) count = 1;

  void* mem = nullptr;
  if (::posix_memalign(&mem, 4096, count * options_.frame_bytes) != 0) {
    throw std::bad_alloc{};
  }
  pool_ = static_cast<char*>(mem);

  frames_ = std::vector<Frame>(count);
  free_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    frames_[i].data = pool_ + i * options_.frame_bytes;
    // LIFO free list: hand frames out from index 0 upward so eviction
    // order (and the tests that rely on it) is deterministic.
    free_.push_back(static_cast<std::uint32_t>(count - 1 - i));
  }

  io_threads_.reserve(options_.io_threads);
  for (std::size_t i = 0; i < options_.io_threads; ++i) {
    io_threads_.emplace_back([this] { io_loop(); });
  }
}

BufferManager::~BufferManager() {
  requests_.close();
  for (auto& thread : io_threads_) {
    if (thread.joinable()) thread.join();
  }
  std::free(pool_);
}

Result<std::shared_ptr<File>> BufferManager::open_file(
    const std::filesystem::path& path) {
  const std::string key = normalize_path(path);
  const int fd = ::open(key.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Error{ErrorCode::kNotFound,
                 "cannot open " + key + ": " + std::strerror(errno)};
  }
  const FileIdentity now = identity_of_fd(fd);

  std::lock_guard lock{mutex_};
  auto it = files_.find(key);
  if (it != files_.end()) {
    File& cached = *it->second;
    if (cached.writable_) {
      // The pool is the source of truth for a spill file it wrote; the
      // registered File already sees both resident and flushed pages.
      ::close(fd);
      return it->second;
    }
    if (cached.inode_ == now.inode && cached.mtime_ns_ == now.mtime_ns &&
        cached.disk_size_ == now.size) {
      ::close(fd);
      return it->second;  // unchanged: same id, cached pages stay hot
    }
    // Replaced on disk: stale pages must not serve.  The new version
    // gets a fresh id, so no lookup reaches an old page again; pages a
    // concurrent reader still pins stay valid for it (their frames hold
    // the old File) and are reclaimed by eviction once released.
    drop_file_pages_locked(cached.id_);
    files_.erase(it);
  }

  auto file = std::shared_ptr<File>(new File());
  file->id_ = next_file_id_++;
  file->fd_ = fd;
  file->path_ = key;
  file->writable_ = false;
  file->size_.store(now.size, std::memory_order_release);
  file->inode_ = now.inode;
  file->mtime_ns_ = now.mtime_ns;
  file->disk_size_ = now.size;
  files_[key] = file;
  return file;
}

Result<std::shared_ptr<File>> BufferManager::create_file(
    const std::filesystem::path& path) {
  const std::string key = normalize_path(path);
  const int fd = ::open(key.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    return Error{ErrorCode::kIoError,
                 "cannot create " + key + ": " + std::strerror(errno)};
  }

  std::lock_guard lock{mutex_};
  auto it = files_.find(key);
  if (it != files_.end()) {
    // Truncated: a previous incarnation's pages are garbage — discard
    // (never write back) rather than resurrect.
    if (file_pages_pinned_locked(it->second->id_)) {
      ::close(fd);
      return Error{ErrorCode::kUnavailable,
                   "spill file recreated while pages are pinned: " + key};
    }
    drop_file_pages_locked(it->second->id_);
    files_.erase(it);
  }

  auto file = std::shared_ptr<File>(new File());
  file->id_ = next_file_id_++;
  file->fd_ = fd;
  file->path_ = key;
  file->writable_ = true;
  const FileIdentity now = identity_of_fd(fd);
  file->inode_ = now.inode;
  file->mtime_ns_ = now.mtime_ns;
  file->disk_size_ = 0;
  files_[key] = file;
  return file;
}

Result<FrameGuard> BufferManager::pin(const std::shared_ptr<File>& file,
                                      std::uint64_t page_no, AccessHint hint,
                                      double throttle_mibps) {
  if (!file) {
    return Error{ErrorCode::kInvalidArgument, "pin: null file"};
  }
  const auto deadline = steady_clock::now() + kWaitDeadline;
  const PageId page{file->id(), page_no};
  const bool overflowing = overflowing_scan(*file, hint);
  int load_attempts = 0;
  bool miss_counted = false;

  std::unique_lock lock{mutex_};
  for (;;) {
    auto it = table_.find(page);
    if (it != table_.end()) {
      const std::uint32_t idx = it->second;
      Frame& frame = frames_[idx];
      switch (frame.state) {
        case FrameState::kReady: {
          if (!miss_counted) {
            ++hits_;
            MCSD_OBS_COUNT("storage.hits", 1);
          }
          if (hint != AccessHint::kSequential) {
            // A caller that may come back, even for a page a scan read
            // ahead: shield it like any re-referenced page.
            frame.unconsumed = false;
            frame.referenced = true;
          } else if (frame.unconsumed) {
            // A scan consuming its own load (read-ahead or miss): the
            // page is done with and stays first-out.  An overflowing
            // scan makes it its own next victim.
            frame.unconsumed = false;
            if (overflowing) ring_push_locked(idx);
          } else if (!miss_counted) {
            // Only a re-access of a page resident before this pin's
            // scan shields it — genuinely hot pages survive scans.
            frame.referenced = true;
          }
          frame.pins.fetch_add(1, std::memory_order_acq_rel);
          return FrameGuard{this, idx};
        }
        case FrameState::kLoading:
        case FrameState::kWriting: {
          if (frame_done_.wait_until(lock, deadline) ==
              std::cv_status::timeout) {
            return Error{ErrorCode::kTimeout,
                         "pin: page I/O did not complete in time for " +
                             file->path()};
          }
          continue;  // re-look-up: the frame may have been remapped
        }
        case FrameState::kFailed: {
          if (++load_attempts >= kLoadAttempts) {
            Error why{ErrorCode::kIoError, frame.error};
            if (frame.pins.load(std::memory_order_acquire) == 0) {
              // Reclaim the dead frame so a bad page can't wedge it.
              unmap_locked(idx);
              free_.push_back(idx);
            }
            return why;
          }
          // Transient (likely injected) load failure: retry in place.
          ++read_retries_;
          frame.state = FrameState::kLoading;
          lock.unlock();
          requests_.push(IoRequest{idx, throttle_mibps});
          lock.lock();
          continue;
        }
        case FrameState::kFree:
          // Defensive: a free frame must never stay mapped.
          table_.erase(it);
          continue;
      }
    }

    // Miss: take a frame, map it, and queue the load.
    auto acquired = acquire_frame_locked(lock, /*allow_writeback=*/true,
                                         /*allow_wait=*/true, overflowing);
    if (!acquired.is_ok()) return acquired.error();
    if (table_.contains(page)) {
      // Someone mapped the page while the lock was dropped for a
      // write-back: give the frame straight back and use theirs.
      frames_[acquired.value()].state = FrameState::kFree;
      free_.push_back(acquired.value());
      continue;
    }
    if (!miss_counted) {
      ++misses_;
      miss_counted = true;
      MCSD_OBS_COUNT("storage.misses", 1);
    }
    const std::uint32_t idx = acquired.value();
    map_for_load_locked(idx, page, file, hint);
    lock.unlock();
    requests_.push(IoRequest{idx, throttle_mibps});
    lock.lock();
    // Loop back into the kLoading wait.
  }
}

Result<FrameGuard> BufferManager::pin_write(const std::shared_ptr<File>& file,
                                            std::uint64_t page_no) {
  if (!file || !file->writable()) {
    return Error{ErrorCode::kInvalidArgument,
                 "pin_write needs a file from create_file()"};
  }
  const auto deadline = steady_clock::now() + kWaitDeadline;
  const PageId page{file->id(), page_no};

  std::unique_lock lock{mutex_};
  for (;;) {
    auto it = table_.find(page);
    if (it != table_.end()) {
      const std::uint32_t idx = it->second;
      Frame& frame = frames_[idx];
      if (frame.state == FrameState::kReady) {
        ++hits_;
        frame.referenced = true;
        frame.pins.fetch_add(1, std::memory_order_acq_rel);
        return FrameGuard{this, idx};
      }
      if (frame.state == FrameState::kLoading ||
          frame.state == FrameState::kWriting) {
        if (frame_done_.wait_until(lock, deadline) == std::cv_status::timeout) {
          return Error{ErrorCode::kTimeout,
                       "pin_write: page I/O did not complete in time"};
        }
        continue;
      }
      // kFailed: reclaim and fall through to a fresh mapping.
      unmap_locked(idx);
      free_.push_back(idx);
      continue;
    }

    auto acquired = acquire_frame_locked(lock, /*allow_writeback=*/true,
                                         /*allow_wait=*/true,
                                         /*from_ring=*/false);
    if (!acquired.is_ok()) return acquired.error();
    if (table_.contains(page)) {
      frames_[acquired.value()].state = FrameState::kFree;
      free_.push_back(acquired.value());
      continue;
    }
    const std::uint32_t idx = acquired.value();
    Frame& frame = frames_[idx];
    frame.page = page;
    frame.file = file;
    frame.state = FrameState::kReady;  // no read: starts zero-length
    frame.dirty = false;
    frame.referenced = true;
    frame.valid_bytes = 0;
    frame.error.clear();
    frame.pins.store(1, std::memory_order_release);
    table_[page] = idx;
    return FrameGuard{this, idx};
  }
}

void BufferManager::prefetch(const std::shared_ptr<File>& file,
                             std::uint64_t page_no, AccessHint hint,
                             double throttle_mibps) {
  if (!file) return;
  const PageId page{file->id(), page_no};
  std::uint32_t idx = 0;
  {
    std::unique_lock lock{mutex_};
    if (table_.contains(page)) return;  // resident or already in flight
    // Opportunistic only: never write back, never wait — a prefetch that
    // would stall the consumer defeats its purpose.
    auto acquired = acquire_frame_locked(lock, /*allow_writeback=*/false,
                                         /*allow_wait=*/false,
                                         overflowing_scan(*file, hint));
    if (!acquired.is_ok()) return;
    idx = acquired.value();
    map_for_load_locked(idx, page, file, hint);
    ++misses_;  // a prefetch *is* the I/O initiation for this page
    ++prefetches_;
  }
  MCSD_OBS_COUNT("storage.prefetches", 1);
  requests_.push(IoRequest{idx, throttle_mibps});
}

Status BufferManager::flush(const std::shared_ptr<File>& file) {
  if (!file) {
    return Status{ErrorCode::kInvalidArgument, "flush: null file"};
  }
  std::unique_lock lock{mutex_};
  for (std::uint32_t i = 0; i < frames_.size(); ++i) {
    Frame& frame = frames_[i];
    if (frame.state != FrameState::kReady) continue;
    if (frame.page.file_id != file->id()) continue;
    if (frame.pins.load(std::memory_order_acquire) != 0) continue;
    if (!frame.dirty) continue;
    frame.state = FrameState::kWriting;
    ++writebacks_;
    const std::uint64_t page_no = frame.page.page_no;
    const std::size_t len = frame.valid_bytes;
    lock.unlock();
    Status wrote = write_frame(file, page_no, frame.data, len);
    lock.lock();
    frame.state = FrameState::kReady;
    frame_done_.notify_all();
    if (!wrote.is_ok()) {
      ++write_errors_;
      return wrote;
    }
    frame.dirty = false;
  }
  return Status::ok();
}

Status BufferManager::drop_cached() {
  std::unique_lock lock{mutex_};
  const auto deadline = steady_clock::now() + kWaitDeadline;
  for (;;) {
    bool busy = false;
    for (const Frame& frame : frames_) {
      if (frame.state == FrameState::kLoading ||
          frame.state == FrameState::kWriting) {
        busy = true;
        break;
      }
    }
    if (!busy) break;
    if (steady_clock::now() > deadline) {
      return Status{ErrorCode::kTimeout, "drop_cached: I/O still in flight"};
    }
    frame_done_.wait_for(lock, kWaitTick);
  }

  std::uint64_t pinned = 0;
  for (const Frame& frame : frames_) {
    if (frame.state == FrameState::kReady &&
        frame.pins.load(std::memory_order_acquire) != 0) {
      ++pinned;
    }
  }
  if (pinned != 0) {
    return Status{ErrorCode::kUnavailable,
                  "drop_cached: " + std::to_string(pinned) +
                      " frame(s) still pinned"};
  }

  for (std::uint32_t i = 0; i < frames_.size(); ++i) {
    Frame& frame = frames_[i];
    if (frame.state != FrameState::kReady &&
        frame.state != FrameState::kFailed) {
      continue;
    }
    if (frame.state == FrameState::kReady && frame.dirty) {
      frame.state = FrameState::kWriting;
      ++writebacks_;
      auto file = frame.file;
      const std::uint64_t page_no = frame.page.page_no;
      const std::size_t len = frame.valid_bytes;
      lock.unlock();
      Status wrote = write_frame(file, page_no, frame.data, len);
      lock.lock();
      frame_done_.notify_all();
      if (!wrote.is_ok()) {
        ++write_errors_;
        frame.state = FrameState::kReady;
        return wrote;
      }
      frame.dirty = false;
    }
    unmap_locked(i);
    free_.push_back(i);
    ++evictions_;
  }
  return Status::ok();
}

PoolStats BufferManager::stats() const {
  std::lock_guard lock{mutex_};
  PoolStats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.writebacks = writebacks_;
  out.prefetches = prefetches_;
  out.read_retries = read_retries_;
  out.write_retries = write_retries_;
  out.read_errors = read_errors_;
  out.write_errors = write_errors_;
  out.readahead_evicted = readahead_evicted_;
  out.ring_recycles = ring_recycles_;
  out.capacity_frames = frames_.size();
  for (const Frame& frame : frames_) {
    if (frame.state == FrameState::kReady ||
        frame.state == FrameState::kLoading ||
        frame.state == FrameState::kWriting) {
      ++out.resident_frames;
    }
    if (frame.pins.load(std::memory_order_acquire) != 0) {
      ++out.pinned_frames;
    }
  }
  return out;
}

void BufferManager::unpin(std::uint32_t frame) noexcept {
  if (frames_[frame].pins.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Lock-free notify; acquire_frame's timed wait tick covers the
    // (benign) lost-wakeup window this leaves open.
    frame_done_.notify_all();
  }
}

void BufferManager::guard_mark_dirty(std::uint32_t frame,
                                     std::size_t valid_bytes) noexcept {
  Frame& f = frames_[frame];
  // Single writer per page (caller contract); eviction/flush only read
  // these after observing pins == 0 with acquire ordering, which the
  // unpin release pairs with.
  const auto clamped = static_cast<std::uint32_t>(
      std::min(valid_bytes, options_.frame_bytes));
  if (clamped > f.valid_bytes) f.valid_bytes = clamped;
  f.dirty = true;
  if (f.file) {
    f.file->note_extent(f.page.page_no * options_.frame_bytes + clamped);
  }
}

std::string_view BufferManager::frame_bytes_view(
    std::uint32_t frame) const noexcept {
  const Frame& f = frames_[frame];
  return std::string_view{f.data, f.valid_bytes};
}

Result<std::uint32_t> BufferManager::acquire_frame_locked(
    std::unique_lock<std::mutex>& lock, bool allow_writeback, bool allow_wait,
    bool from_ring) {
  const auto deadline = steady_clock::now() + kWaitDeadline;
  for (;;) {
    if (!free_.empty()) {
      const std::uint32_t idx = free_.back();
      free_.pop_back();
      return idx;
    }
    if (from_ring) {
      if (const std::uint32_t idx = take_ring_frame_locked(); idx != kNoFrame) {
        return idx;
      }
    }

    // CLOCK sweep: up to two revolutions.  The first may only clear
    // reference bits, and passes over unconsumed read-ahead; the second
    // lets a demand pin take that too, so a stream abandoned mid-file
    // cannot wedge the pool.  A prefetch never does: evicting one scan's
    // read-ahead to queue another's gains nothing.
    const std::size_t n = frames_.size();
    for (std::size_t step = 0; step < 2 * n; ++step) {
      const auto idx = static_cast<std::uint32_t>(clock_hand_);
      Frame& frame = frames_[clock_hand_];
      clock_hand_ = (clock_hand_ + 1) % n;
      if (frame.pins.load(std::memory_order_acquire) != 0) continue;
      if (frame.state == FrameState::kFailed) {
        // A load result nobody claimed: reclaim without ceremony.
        unmap_locked(idx);
        return idx;
      }
      if (frame.state != FrameState::kReady) continue;
      if (frame.unconsumed && (step < n || !allow_wait)) continue;
      if (frame.referenced) {
        frame.referenced = false;
        continue;
      }
      if (!frame.dirty) {
        if (frame.unconsumed) {
          ++readahead_evicted_;
          MCSD_OBS_COUNT("storage.readahead_evicted", 1);
        }
        unmap_locked(idx);
        ++evictions_;
        MCSD_OBS_COUNT("storage.evictions", 1);
        return idx;
      }
      if (!allow_writeback) continue;
      // Dirty victim: unpinned dirty frames are written back before
      // reuse.  The lock drops around the pwrite; kWriting keeps pinners
      // waiting and other sweeps away.
      frame.state = FrameState::kWriting;
      ++writebacks_;
      MCSD_OBS_COUNT("storage.writebacks", 1);
      auto file = frame.file;
      const std::uint64_t page_no = frame.page.page_no;
      const std::size_t len = frame.valid_bytes;
      lock.unlock();
      Status wrote = write_frame(file, page_no, frame.data, len);
      lock.lock();
      frame_done_.notify_all();
      if (wrote.is_ok()) {
        frame.dirty = false;
        unmap_locked(idx);
        ++evictions_;
        MCSD_OBS_COUNT("storage.evictions", 1);
        return idx;
      }
      // Write-back failed for good: keep the data (it exists nowhere
      // else), shield it for a revolution, and hunt another victim.
      ++write_errors_;
      frame.state = FrameState::kReady;
      frame.referenced = true;
    }

    if (!allow_wait) {
      return Error{ErrorCode::kUnavailable,
                   "buffer pool has no evictable frame"};
    }
    if (steady_clock::now() > deadline) {
      return Error{ErrorCode::kUnavailable,
                   "buffer pool exhausted: all " +
                       std::to_string(frames_.size()) + " frames pinned"};
    }
    frame_done_.wait_for(lock, kWaitTick);
  }
}

void BufferManager::map_for_load_locked(std::uint32_t idx, const PageId& page,
                                        const std::shared_ptr<File>& file,
                                        AccessHint hint) {
  Frame& frame = frames_[idx];
  frame.page = page;
  frame.file = file;
  frame.state = FrameState::kLoading;
  frame.dirty = false;
  frame.referenced = hint != AccessHint::kSequential;
  frame.unconsumed = hint == AccessHint::kSequential;
  frame.valid_bytes = 0;
  frame.error.clear();
  table_[page] = idx;
}

void BufferManager::unmap_locked(std::uint32_t idx) {
  Frame& frame = frames_[idx];
  ring_unlink_locked(idx);
  table_.erase(frame.page);
  frame.file.reset();
  frame.unconsumed = false;
  frame.state = FrameState::kFree;
}

void BufferManager::ring_push_locked(std::uint32_t idx) {
  Frame& frame = frames_[idx];
  ring_unlink_locked(idx);
  frame.in_ring = true;
  frame.ring_prev = ring_newest_;
  frame.ring_next = kNoFrame;
  if (ring_newest_ != kNoFrame) frames_[ring_newest_].ring_next = idx;
  ring_newest_ = idx;
}

void BufferManager::ring_unlink_locked(std::uint32_t idx) {
  Frame& frame = frames_[idx];
  if (!frame.in_ring) return;
  if (frame.ring_prev != kNoFrame) {
    frames_[frame.ring_prev].ring_next = frame.ring_next;
  }
  if (frame.ring_next != kNoFrame) {
    frames_[frame.ring_next].ring_prev = frame.ring_prev;
  } else {
    ring_newest_ = frame.ring_prev;
  }
  frame.in_ring = false;
  frame.ring_prev = kNoFrame;
  frame.ring_next = kNoFrame;
}

std::uint32_t BufferManager::take_ring_frame_locked() {
  std::uint32_t idx = ring_newest_;
  while (idx != kNoFrame) {
    Frame& frame = frames_[idx];
    const std::uint32_t older = frame.ring_prev;
    if (frame.pins.load(std::memory_order_acquire) != 0) {
      idx = older;  // still being read: stays in line for later
      continue;
    }
    ring_unlink_locked(idx);
    if (frame.state != FrameState::kReady || frame.dirty ||
        frame.referenced || frame.unconsumed) {
      // Re-accessed or rewritten since it was consumed: no longer a
      // one-touch scan page, so CLOCK manages it from here on.
      idx = older;
      continue;
    }
    unmap_locked(idx);
    ++evictions_;
    ++ring_recycles_;
    MCSD_OBS_COUNT("storage.evictions", 1);
    MCSD_OBS_COUNT("storage.ring_recycles", 1);
    return idx;
  }
  return kNoFrame;
}

Status BufferManager::write_frame(const std::shared_ptr<File>& file,
                                  std::uint64_t page_no, const char* data,
                                  std::size_t len) {
  MCSD_OBS_SPAN("storage", "storage.writeback");
  Stopwatch watch;
  const std::uint64_t offset = page_no * options_.frame_bytes;
  Status last = Status::ok();
  for (int attempt = 0; attempt < kWriteAttempts; ++attempt) {
    if (attempt > 0) {
      std::lock_guard lock{mutex_};
      ++write_retries_;
    }
    const fault::Decision injected =
        fault::check(fault::Site::kStorageWrite, file->path());
    if (injected.kind == fault::Kind::kEio) {
      last = Status{ErrorCode::kIoError,
                    "injected EIO writing back " + file->path()};
      continue;
    }
    if (injected.kind == fault::Kind::kEnospc) {
      last = Status{ErrorCode::kIoError,
                    "injected ENOSPC writing back " + file->path()};
      continue;
    }
    std::size_t done = 0;
    bool failed = false;
    while (done < len) {
      const ssize_t wrote =
          ::pwrite(file->fd_, data + done, len - done,
                   static_cast<off_t>(offset + done));
      if (wrote < 0) {
        if (errno == EINTR) continue;
        last = Status{ErrorCode::kIoError,
                      "pwrite failed on " + file->path() + ": " +
                          std::strerror(errno)};
        failed = true;
        break;
      }
      done += static_cast<std::size_t>(wrote);
    }
    if (!failed) {
      MCSD_OBS_HIST("storage.writeback_us", "us",
                    static_cast<std::uint64_t>(watch.elapsed_seconds() * 1e6));
      return Status::ok();
    }
  }
  return last;
}

bool BufferManager::file_pages_pinned_locked(std::uint64_t file_id) const {
  for (const Frame& frame : frames_) {
    if (frame.state == FrameState::kFree) continue;
    if (frame.page.file_id != file_id) continue;
    if (frame.state != FrameState::kReady &&
        frame.state != FrameState::kFailed) {
      return true;
    }
    if (frame.pins.load(std::memory_order_acquire) != 0) return true;
  }
  return false;
}

void BufferManager::drop_file_pages_locked(std::uint64_t file_id) {
  for (std::uint32_t i = 0; i < frames_.size(); ++i) {
    Frame& frame = frames_[i];
    if (frame.page.file_id != file_id) continue;
    if (frame.state != FrameState::kReady &&
        frame.state != FrameState::kFailed) {
      continue;
    }
    if (frame.pins.load(std::memory_order_acquire) != 0) continue;
    unmap_locked(i);
    frame.dirty = false;  // stale content: discard, never write back
    free_.push_back(i);
    ++evictions_;
  }
}

void BufferManager::io_loop() {
  while (auto request = requests_.pop()) {
    Frame& frame = frames_[request->frame];
    std::shared_ptr<File> file;
    std::uint64_t page_no = 0;
    {
      std::lock_guard lock{mutex_};
      file = frame.file;
      page_no = frame.page.page_no;
    }
    if (!file) continue;  // defensive: request outlived its mapping

    Stopwatch watch;
    Status status = Status::ok();
    std::size_t got = 0;
    const fault::Decision injected =
        fault::check(fault::Site::kStorageRead, file->path());
    if (injected.kind == fault::Kind::kEio) {
      status = Status{ErrorCode::kIoError,
                      "injected EIO loading page " + std::to_string(page_no) +
                          " of " + file->path()};
    } else {
      MCSD_OBS_SPAN("storage", "storage.read");
      const std::uint64_t offset = page_no * options_.frame_bytes;
      const std::size_t want = options_.frame_bytes;
      while (got < want) {
        const ssize_t n = ::pread(file->fd_, frame.data + got, want - got,
                                  static_cast<off_t>(offset + got));
        if (n < 0) {
          if (errno == EINTR) continue;
          status = Status{ErrorCode::kIoError,
                          "pread failed on " + file->path() + ": " +
                              std::strerror(errno)};
          break;
        }
        if (n == 0) break;  // end of file
        got += static_cast<std::size_t>(n);
      }
    }

    if (status.is_ok() && request->throttle_mibps > 0.0 && got > 0) {
      // Emulated device: loads pay a *serialised* transfer cost (one
      // device, however many I/O threads), so pool throughput cannot
      // exceed the modelled rate on misses while hits stay DRAM-fast.
      const auto cost = std::chrono::duration<double>(
          static_cast<double>(got) /
          (request->throttle_mibps * 1024.0 * 1024.0));
      steady_clock::time_point until;
      {
        std::lock_guard lock{mutex_};
        const auto now = steady_clock::now();
        if (device_free_at_ < now) device_free_at_ = now;
        device_free_at_ +=
            std::chrono::duration_cast<steady_clock::duration>(cost);
        until = device_free_at_;
      }
      std::this_thread::sleep_until(until);
    }

    {
      std::lock_guard lock{mutex_};
      if (status.is_ok()) {
        frame.valid_bytes = static_cast<std::uint32_t>(got);
        frame.state = FrameState::kReady;
      } else {
        frame.error = status.error().message();
        frame.state = FrameState::kFailed;
        ++read_errors_;
      }
    }
    MCSD_OBS_HIST("storage.fill_us", "us",
                  static_cast<std::uint64_t>(watch.elapsed_seconds() * 1e6));
    frame_done_.notify_all();
  }
}

std::shared_ptr<BufferManager> process_pool() {
  static std::shared_ptr<BufferManager> pool = [] {
    PoolOptions options;
    if (const char* env = std::getenv("MCSD_POOL_BYTES")) {
      if (auto parsed = parse_bytes(env);
          parsed.is_ok() && parsed.value() > 0) {
        options.pool_bytes = static_cast<std::size_t>(parsed.value());
      }
    }
    return std::make_shared<BufferManager>(options);
  }();
  return pool;
}

}  // namespace mcsd::storage
