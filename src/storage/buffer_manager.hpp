// The mcsd buffer manager: a fixed pool of page-aligned frames under the
// partition layer (ROADMAP item 3).
//
// The out-of-core path used to stream fragments through a throwaway
// 2-slot prefetcher and forget every byte between runs; a smart-storage
// node re-serving the same corpus re-paid full disk I/O per invocation.
// This pool is the fix: file pages live in pinned-frame DRAM, survive
// across module invocations (the FAM daemon owns a long-lived instance),
// and are replaced by a workload-aware CLOCK sweep.
//
// Shape (after ScaleStore's buffer manager, scaled down to one node):
//   * a fixed frame pool, page-aligned, sized at construction;
//   * a page table (file_id, page_no) -> frame;
//   * RAII pin/unpin FrameGuards — a pinned frame is never evicted and
//     never moves, so guard.bytes() stays valid without copies;
//   * an async read backend: pin() and prefetch() enqueue loads to
//     background I/O threads and completion is signalled per frame, so
//     read-ahead overlaps compute without a per-consumer thread;
//   * a write-back path for spill data: dirty frames are flushed before
//     reuse (pwrite at eviction), with flush() for durability points;
//   * CLOCK eviction honouring pin counts, plus scan-aware replacement
//     for AccessHint::kSequential pages: read-ahead is protected until
//     its first pin, and a scan of a file larger than the pool recycles
//     its own consumed frames (most recently consumed first) so the rest
//     of the pool keeps the file's earlier pages for the next run.  A
//     scan of a file that fits stays on plain CLOCK.
//
// Fault injection: page loads check fault::Site::kStorageRead and dirty
// write-back checks kStorageWrite; transient injections are retried
// (kLoadAttempts / kWriteAttempts) so a soak under the default plan
// still produces byte-identical output.
//
// Thread safety: every public method is safe to call from any thread.
// One mutex guards the page table, frame states, and the CLOCK hand; pin
// counts are atomics so unpin (the hottest call) stays lock-free.  Frame
// *contents* follow the pin: concurrent read pins may share a page, but
// at most one writer (pin_write / mark_dirty) per page at a time.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/mpmc_queue.hpp"
#include "core/result.hpp"
#include "storage/page.hpp"

namespace mcsd::storage {

class BufferManager;
class FrameGuard;

struct PoolOptions {
  /// Frame (page) size: the unit the streaming fragment source maps in
  /// place and stitches records across.
  std::size_t frame_bytes = 256 * 1024;

  /// Total pool capacity; rounded down to whole frames (at least one).
  std::size_t pool_bytes = 64ull << 20;

  /// Background read threads feeding the pool.
  std::size_t io_threads = 2;
};

/// Monotonic pool statistics.  hits = pins served without initiating
/// disk I/O (resident or already in flight); misses = page loads
/// enqueued, whether pin- or prefetch-initiated — so a fully warm run
/// scores hit_rate() 1.0 and a cold one ~0.5 with read-ahead.
struct PoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t prefetches = 0;
  std::uint64_t read_retries = 0;
  std::uint64_t write_retries = 0;
  std::uint64_t read_errors = 0;
  std::uint64_t write_errors = 0;
  /// Scan pages evicted before their first pin — read-ahead loaded for
  /// nothing.  0 unless the pool is too small for the scans running.
  std::uint64_t readahead_evicted = 0;
  /// Evictions served from the scan ring (a consumed scan frame reused
  /// for the next load) instead of the CLOCK sweep.
  std::uint64_t ring_recycles = 0;
  std::uint64_t resident_frames = 0;
  std::uint64_t pinned_frames = 0;
  std::uint64_t capacity_frames = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// A file registered with the pool.  Holds the fd; identity (id) is
/// stable across open_file() calls while the on-disk file is unchanged,
/// which is what lets a daemon-resident pool serve warm re-runs.
class File {
 public:
  ~File();
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] bool writable() const noexcept { return writable_; }
  /// Logical size: on-disk size at registration, extended by spill
  /// writes (mark_dirty) as they land.
  [[nodiscard]] std::uint64_t size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }

 private:
  friend class BufferManager;
  File() = default;
  void note_extent(std::uint64_t end) noexcept {
    std::uint64_t cur = size_.load(std::memory_order_relaxed);
    while (cur < end &&
           !size_.compare_exchange_weak(cur, end, std::memory_order_acq_rel)) {
    }
  }

  std::uint64_t id_ = 0;
  int fd_ = -1;
  std::string path_;
  bool writable_ = false;
  std::atomic<std::uint64_t> size_{0};
  // On-disk identity at registration time, for staleness revalidation.
  std::uint64_t inode_ = 0;
  std::uint64_t mtime_ns_ = 0;
  std::uint64_t disk_size_ = 0;
};

/// RAII pin.  While alive the frame cannot be evicted and its bytes are
/// stable.  Default-constructed guards are empty.
class FrameGuard {
 public:
  FrameGuard() noexcept = default;
  FrameGuard(FrameGuard&& other) noexcept
      : mgr_(other.mgr_), frame_(other.frame_) {
    other.mgr_ = nullptr;
  }
  FrameGuard& operator=(FrameGuard&& other) noexcept {
    if (this != &other) {
      release();
      mgr_ = other.mgr_;
      frame_ = other.frame_;
      other.mgr_ = nullptr;
    }
    return *this;
  }
  ~FrameGuard() { release(); }

  FrameGuard(const FrameGuard&) = delete;
  FrameGuard& operator=(const FrameGuard&) = delete;

  [[nodiscard]] explicit operator bool() const noexcept {
    return mgr_ != nullptr;
  }

  /// The valid bytes of the page (file data, or spill data written so
  /// far).  Stable until release().
  [[nodiscard]] std::string_view bytes() const noexcept;

  /// Raw frame storage (capacity() bytes) for spill writers.
  [[nodiscard]] char* data() noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept;

  /// Marks the page dirty with `valid_bytes` of meaningful content; the
  /// pool writes it back before the frame is reused (and on flush()).
  /// Caller contract: one writer per page at a time.
  void mark_dirty(std::size_t valid_bytes) noexcept;

  /// Unpins now (idempotent).
  void release() noexcept;

 private:
  friend class BufferManager;
  FrameGuard(BufferManager* mgr, std::uint32_t frame) noexcept
      : mgr_(mgr), frame_(frame) {}

  BufferManager* mgr_ = nullptr;
  std::uint32_t frame_ = 0;
};

class BufferManager {
 public:
  /// Load / write-back attempts per page before the error surfaces —
  /// mirrors StreamingFragmentSource::kReadAttempts so injected transients
  /// never change observable output.
  static constexpr int kLoadAttempts = 4;
  static constexpr int kWriteAttempts = 4;

  explicit BufferManager(PoolOptions options = {});
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Registers `path` for reading (kNotFound if absent).  Re-opening an
  /// unchanged path returns the same File (same id — cached pages hit);
  /// a changed one (size/mtime/inode) gets a fresh File with a new id.
  /// The old version's unpinned pages are dropped; pages a reader still
  /// pins stay valid for that reader and are evicted once released.
  Result<std::shared_ptr<File>> open_file(const std::filesystem::path& path);

  /// Creates/truncates `path` as a writable spill target.  Any cached
  /// pages of a previous incarnation are discarded, not written back.
  Result<std::shared_ptr<File>> create_file(const std::filesystem::path& path);

  /// Pins a page, loading it (via the I/O threads) on a miss.  Blocks
  /// until the page is resident; kUnavailable when every frame stays
  /// pinned past a deadline, kIoError after kLoadAttempts failed loads.
  /// `throttle_mibps` > 0 pads the *load* to an emulated device rate —
  /// hits are never throttled (they model DRAM).
  Result<FrameGuard> pin(const std::shared_ptr<File>& file,
                         std::uint64_t page_no,
                         AccessHint hint = AccessHint::kNormal,
                         double throttle_mibps = 0.0);

  /// Pins a page of a writable file for filling, without reading disk:
  /// the frame starts zero-length and the caller appends via data() +
  /// mark_dirty().  For fresh spill pages only — prior on-disk content
  /// of the page is not loaded.
  Result<FrameGuard> pin_write(const std::shared_ptr<File>& file,
                               std::uint64_t page_no);

  /// What prefetch() did with a page.
  enum class Prefetch : std::uint8_t {
    kQueued,   ///< a background load was queued
    kMapped,   ///< nothing to do: the page is resident or in flight
    kNoFrame,  ///< absent, but no frame was free without write-back or
               ///< waiting: nothing queued
  };

  /// Queues a background load if the page is absent and a frame is
  /// available without write-back or waiting; otherwise does nothing.
  /// Read-ahead counts its loads by the result.
  Prefetch prefetch(const std::shared_ptr<File>& file, std::uint64_t page_no,
                    AccessHint hint = AccessHint::kSequential,
                    double throttle_mibps = 0.0);

  /// Writes back every unpinned dirty page of `file` (frames stay
  /// resident).  The durability point for spill data.
  Status flush(const std::shared_ptr<File>& file);

  /// Evicts every frame (writing dirty ones back) — a cold-start reset
  /// for A/B benchmarks.  kUnavailable if any frame is pinned.
  Status drop_cached();

  [[nodiscard]] PoolStats stats() const;
  [[nodiscard]] std::size_t frame_bytes() const noexcept {
    return options_.frame_bytes;
  }
  [[nodiscard]] std::size_t capacity_frames() const noexcept {
    return frames_.size();
  }
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return frames_.size() * options_.frame_bytes;
  }

 private:
  friend class FrameGuard;

  enum class FrameState : std::uint8_t {
    kFree,     ///< on the free list, unmapped
    kLoading,  ///< owned by an I/O thread, contents undefined
    kReady,    ///< mapped, contents valid (dirty flag may be set)
    kWriting,  ///< write-back in progress; contents valid but frame is
               ///< about to be reused — pinners wait and re-look-up
    kFailed,   ///< load failed; error holds why.  Reclaimable.
  };

  static constexpr std::uint32_t kNoFrame = UINT32_MAX;

  struct Frame {
    PageId page;                      // guarded by mutex_
    FrameState state = FrameState::kFree;  // guarded by mutex_
    bool dirty = false;               // guarded by mutex_ / pin ordering
    bool referenced = false;          // CLOCK bit, guarded by mutex_
    // Loaded for a scan and not pinned yet: the CLOCK sweep passes over
    // it once, so a scan's next read-ahead cannot evict its last one.
    bool unconsumed = false;          // guarded by mutex_
    // Scan-ring links (consumed scan frames, oldest to newest); kNoFrame
    // ends the list.  Guarded by mutex_.
    bool in_ring = false;
    std::uint32_t ring_prev = kNoFrame;
    std::uint32_t ring_next = kNoFrame;
    std::shared_ptr<File> file;       // set while mapped, guarded by mutex_
    std::uint32_t valid_bytes = 0;    // written before kReady / by the
                                      // (single) pinned writer
    std::atomic<std::uint32_t> pins{0};
    std::string error;                // load failure, guarded by mutex_
    char* data = nullptr;             // fixed at construction
  };

  struct IoRequest {
    std::uint32_t frame = 0;
    double throttle_mibps = 0.0;
  };

  // FrameGuard backing calls.
  void unpin(std::uint32_t frame) noexcept;
  void guard_mark_dirty(std::uint32_t frame, std::size_t valid_bytes) noexcept;
  [[nodiscard]] std::string_view frame_bytes_view(
      std::uint32_t frame) const noexcept;

  /// Takes a frame off the free list, the scan ring (only when
  /// `from_ring`), or the CLOCK sweep (possibly writing a victim back
  /// with the lock dropped).  On return the lock is held and the frame
  /// is unmapped.  kUnavailable when everything stays pinned.
  /// `allow_wait` marks a demand acquisition: only those may evict
  /// unconsumed read-ahead.
  Result<std::uint32_t> acquire_frame_locked(std::unique_lock<std::mutex>& lock,
                                             bool allow_writeback,
                                             bool allow_wait, bool from_ring);

  /// A scan of a file larger than the pool — the only loads that use
  /// the scan ring.  A file that fits is left to CLOCK, which evicts
  /// stale pages of other files and keeps the whole file for a rerun.
  [[nodiscard]] bool overflowing_scan(const File& file,
                                      AccessHint hint) const noexcept {
    return hint == AccessHint::kSequential && file.size() > capacity_bytes();
  }

  /// Maps a frame fresh from acquire_frame_locked to `page` for a load.
  void map_for_load_locked(std::uint32_t idx, const PageId& page,
                           const std::shared_ptr<File>& file, AccessHint hint);

  /// Unmaps a frame (page table entry, file ref, scan-ring link) and
  /// marks it kFree; the caller decides whether it goes on the free list.
  void unmap_locked(std::uint32_t idx);

  /// Scan ring: consumed frames of overflowing scans, newest last.  Once
  /// the free list is empty, such a scan's next victim is the newest
  /// unpinned, clean, unreferenced one, so the scan streams through a
  /// few frames of its own instead of flushing everything older (MRU
  /// replacement).
  void ring_push_locked(std::uint32_t idx);
  void ring_unlink_locked(std::uint32_t idx);
  /// Unmaps and returns the ring's victim, or kNoFrame.
  std::uint32_t take_ring_frame_locked();

  /// One pwrite of a dirty frame with fault injection + retries.  Called
  /// with the lock *dropped*; the frame must be in kWriting.
  Status write_frame(const std::shared_ptr<File>& file, std::uint64_t page_no,
                     const char* data, std::size_t len);

  /// True if a page of `file_id` is pinned or has I/O in flight.
  /// Caller holds the lock.
  bool file_pages_pinned_locked(std::uint64_t file_id) const;
  /// Drops every cached page of `file_id` that is neither pinned nor in
  /// flight; dirty pages are discarded.  Caller holds the lock.
  void drop_file_pages_locked(std::uint64_t file_id);

  void io_loop();

  PoolOptions options_;
  char* pool_ = nullptr;  // page-aligned backing store for all frames
  std::vector<Frame> frames_;

  mutable std::mutex mutex_;
  std::condition_variable frame_done_;  ///< load / write-back completions
  std::unordered_map<PageId, std::uint32_t, PageIdHash> table_;
  std::vector<std::uint32_t> free_;
  std::size_t clock_hand_ = 0;
  std::uint32_t ring_newest_ = kNoFrame;  ///< scan ring's tail

  // Stats (guarded by mutex_).
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t writebacks_ = 0;
  std::uint64_t prefetches_ = 0;
  std::uint64_t read_retries_ = 0;
  std::uint64_t write_retries_ = 0;
  std::uint64_t read_errors_ = 0;
  std::uint64_t write_errors_ = 0;
  std::uint64_t readahead_evicted_ = 0;
  std::uint64_t ring_recycles_ = 0;

  /// Emulated-device time cursor for throttled loads: transfer costs are
  /// serialised through this so N I/O threads still model one device.
  std::chrono::steady_clock::time_point device_free_at_{};

  // File registry (guarded by mutex_): normalised path -> File.  Holds
  // strong refs so page identity survives callers dropping theirs —
  // that persistence *is* the warm-re-run feature.  Bounded by the set
  // of distinct files a daemon serves.
  std::unordered_map<std::string, std::shared_ptr<File>> files_;
  std::uint64_t next_file_id_ = 1;

  MpmcQueue<IoRequest> requests_;
  std::vector<std::thread> io_threads_;
};

/// The process-wide default pool, built lazily on first use.  Size comes
/// from MCSD_POOL_BYTES (units accepted, e.g. "128MiB") or
/// PoolOptions{}.pool_bytes.  Tools that want isolation (benchmarks,
/// soaks) construct their own BufferManager instead.
std::shared_ptr<BufferManager> process_pool();

}  // namespace mcsd::storage
