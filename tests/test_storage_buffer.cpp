// Property tests for the storage buffer pool (ISSUE 7): pinned frames
// are never evicted, unpinned dirty frames are written back before
// reuse, and concurrent pin/unpin from many threads is race-free (this
// binary runs under TSan in CI).  Plus the supporting contracts: warm
// re-pins are hits, the sequential hint keeps scans from flushing hot
// pages, read-ahead survives until consumed and a scan larger than the
// pool recycles its own frames, injected read/write faults are retried
// deterministically, and a file replaced on disk never serves stale
// pages, even while a reader still pins the old version.
#include "storage/buffer_manager.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "core/io.hpp"
#include "storage/file_source.hpp"

namespace mcsd::storage {
namespace {

constexpr std::size_t kFrame = 4 * 1024;

PoolOptions tiny_pool(std::size_t frames, std::size_t io_threads = 1) {
  PoolOptions options;
  options.frame_bytes = kFrame;
  options.pool_bytes = frames * kFrame;
  options.io_threads = io_threads;
  return options;
}

/// `pages` full pages where page p is filled with a distinct byte.
std::string patterned(std::size_t pages, std::size_t tail = 0,
                      char first = 'a') {
  std::string out;
  for (std::size_t p = 0; p < pages; ++p) {
    out.append(kFrame, static_cast<char>(first + (p % 26)));
  }
  out.append(tail, '!');
  return out;
}

/// Reads `path` front to back through a fresh PooledFileSource with the
/// largest read-ahead the pool allows — the access pattern of one
/// streaming out-of-core run.  Pages are pinned `window` at a time and
/// released together, as the streaming source's pin window does;
/// `compute` is spent after each window, as an engine would, so the
/// read-ahead lands first.
Result<std::string> scan(const std::shared_ptr<BufferManager>& pool,
                         const std::filesystem::path& path,
                         std::size_t window = 1,
                         std::chrono::microseconds compute = {}) {
  SourceOptions options;
  options.readahead_pages = 1'000;  // open() caps it to the pool
  auto source = PooledFileSource::open(pool, path, options);
  if (!source.is_ok()) return source.error();
  const std::uint64_t pages =
      (source.value().file()->size() + kFrame - 1) / kFrame;
  std::string out;
  std::vector<FrameGuard> pinned;
  for (std::uint64_t page = 0; page < pages; ++page) {
    auto guard = source.value().pin(page);
    if (!guard.is_ok()) return guard.error();
    pinned.push_back(std::move(guard).value());
    if (pinned.size() == window || page + 1 == pages) {
      for (const FrameGuard& held : pinned) out.append(held.bytes());
      pinned.clear();
      std::this_thread::sleep_for(compute);
    }
  }
  return out;
}

TEST(BufferManager, RoundTripReadAndWarmRepin) {
  TempDir dir{"storage"};
  const auto path = dir / "corpus.bin";
  const std::string data = patterned(3, 512);  // 3.5 pages
  ASSERT_TRUE(write_file(path, data).is_ok());

  BufferManager pool{tiny_pool(8)};
  auto file = pool.open_file(path);
  ASSERT_TRUE(file.is_ok());
  EXPECT_EQ(file.value()->size(), data.size());

  std::string assembled;
  for (std::uint64_t page = 0; page < 4; ++page) {
    auto guard = pool.pin(file.value(), page);
    ASSERT_TRUE(guard.is_ok());
    assembled.append(guard.value().bytes());
  }
  EXPECT_EQ(assembled, data);

  const PoolStats cold = pool.stats();
  EXPECT_EQ(cold.misses, 4u);
  EXPECT_EQ(cold.hits, 0u);

  // Warm re-pin: every page is resident, zero further I/O.
  for (std::uint64_t page = 0; page < 4; ++page) {
    auto guard = pool.pin(file.value(), page);
    ASSERT_TRUE(guard.is_ok());
  }
  const PoolStats warm = pool.stats();
  EXPECT_EQ(warm.misses, 4u);
  EXPECT_EQ(warm.hits, 4u);
  EXPECT_DOUBLE_EQ(warm.hit_rate(), 0.5);
}

TEST(BufferManager, ReopeningUnchangedFileKeepsIdentity) {
  TempDir dir{"storage"};
  const auto path = dir / "same.bin";
  ASSERT_TRUE(write_file(path, patterned(1)).is_ok());

  BufferManager pool{tiny_pool(4)};
  auto first = pool.open_file(path);
  ASSERT_TRUE(first.is_ok());
  auto second = pool.open_file(path);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(first.value()->id(), second.value()->id());
}

TEST(BufferManager, PinReadsPastEofAreEmpty) {
  TempDir dir{"storage"};
  const auto path = dir / "short.bin";
  ASSERT_TRUE(write_file(path, std::string(100, 'x')).is_ok());

  BufferManager pool{tiny_pool(2)};
  auto file = pool.open_file(path);
  ASSERT_TRUE(file.is_ok());
  auto guard = pool.pin(file.value(), 7);
  ASSERT_TRUE(guard.is_ok());
  EXPECT_TRUE(guard.value().bytes().empty());
}

// Property: a pinned frame is never evicted and its bytes never move,
// however much traffic churns through the rest of the pool.
TEST(BufferManager, PinnedFramesAreNeverEvicted) {
  TempDir dir{"storage"};
  const auto hot_path = dir / "hot.bin";
  const auto churn_path = dir / "churn.bin";
  ASSERT_TRUE(write_file(hot_path, patterned(3)).is_ok());
  ASSERT_TRUE(write_file(churn_path, patterned(20)).is_ok());

  BufferManager pool{tiny_pool(4)};
  auto hot = pool.open_file(hot_path);
  auto churn = pool.open_file(churn_path);
  ASSERT_TRUE(hot.is_ok());
  ASSERT_TRUE(churn.is_ok());

  std::vector<FrameGuard> held;
  std::vector<const char*> addresses;
  for (std::uint64_t page = 0; page < 3; ++page) {
    auto guard = pool.pin(hot.value(), page);
    ASSERT_TRUE(guard.is_ok());
    addresses.push_back(guard.value().bytes().data());
    held.push_back(std::move(guard).value());
  }

  // 20 pages through the single remaining frame: every one evicts its
  // predecessor, yet the pinned three must stay put.
  for (std::uint64_t page = 0; page < 20; ++page) {
    auto guard = pool.pin(churn.value(), page);
    ASSERT_TRUE(guard.is_ok());
    EXPECT_EQ(guard.value().bytes().front(),
              static_cast<char>('a' + (page % 26)));
  }
  EXPECT_GE(pool.stats().evictions, 19u);

  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i].bytes().data(), addresses[i]) << "frame " << i
                                                    << " moved while pinned";
    EXPECT_EQ(held[i].bytes().front(), static_cast<char>('a' + i));
    EXPECT_EQ(held[i].bytes().size(), kFrame);
  }
  EXPECT_EQ(pool.stats().pinned_frames, 3u);
}

// Property: an unpinned dirty frame is written back to disk before its
// frame is reused — spill data survives eviction without an explicit
// flush.
TEST(BufferManager, DirtyFramesAreWrittenBackBeforeReuse) {
  TempDir dir{"storage"};
  const auto spill_path = dir / "spill.bin";
  const auto churn_path = dir / "churn.bin";
  ASSERT_TRUE(write_file(churn_path, patterned(4)).is_ok());

  BufferManager pool{tiny_pool(2)};
  auto spill = pool.create_file(spill_path);
  ASSERT_TRUE(spill.is_ok());

  for (std::uint64_t page = 0; page < 2; ++page) {
    auto guard = pool.pin_write(spill.value(), page);
    ASSERT_TRUE(guard.is_ok());
    std::memset(guard.value().data(), static_cast<int>('A' + page), kFrame);
    guard.value().mark_dirty(kFrame);
  }
  EXPECT_EQ(spill.value()->size(), 2 * kFrame);
  // Nothing flushed yet: the on-disk file is still empty.
  EXPECT_EQ(mcsd::file_size(spill_path).value(), 0u);

  // Fill the whole pool with another file's pages, forcing both dirty
  // frames through the write-back path.
  for (std::uint64_t page = 0; page < 4; ++page) {
    auto guard = pool.pin(pool.open_file(churn_path).value(), page);
    ASSERT_TRUE(guard.is_ok());
  }
  EXPECT_GE(pool.stats().writebacks, 2u);

  auto on_disk = read_file(spill_path);
  ASSERT_TRUE(on_disk.is_ok());
  EXPECT_EQ(on_disk.value(),
            std::string(kFrame, 'A') + std::string(kFrame, 'B'));
}

TEST(BufferManager, FlushIsTheDurabilityPoint) {
  TempDir dir{"storage"};
  const auto path = dir / "spill.bin";
  BufferManager pool{tiny_pool(4)};
  auto spill = pool.create_file(path);
  ASSERT_TRUE(spill.is_ok());

  {
    auto guard = pool.pin_write(spill.value(), 0);
    ASSERT_TRUE(guard.is_ok());
    std::memcpy(guard.value().data(), "durable", 7);
    guard.value().mark_dirty(7);
  }
  ASSERT_TRUE(pool.flush(spill.value()).is_ok());
  EXPECT_EQ(read_file(path).value(), "durable");

  // The page stays resident after flush — a re-pin is a hit.
  const std::uint64_t hits_before = pool.stats().hits;
  auto again = pool.pin(spill.value(), 0);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().bytes(), "durable");
  EXPECT_EQ(pool.stats().hits, hits_before + 1);
}

TEST(BufferManager, DropCachedRefusesWhilePinnedThenResets) {
  TempDir dir{"storage"};
  const auto path = dir / "corpus.bin";
  ASSERT_TRUE(write_file(path, patterned(2)).is_ok());

  BufferManager pool{tiny_pool(4)};
  auto file = pool.open_file(path);
  ASSERT_TRUE(file.is_ok());
  auto guard = pool.pin(file.value(), 0);
  ASSERT_TRUE(guard.is_ok());

  Status refused = pool.drop_cached();
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.error().code(), ErrorCode::kUnavailable);

  guard.value().release();
  ASSERT_TRUE(pool.drop_cached().is_ok());
  EXPECT_EQ(pool.stats().resident_frames, 0u);

  // Cold again: the next pin is a miss even though the File is cached.
  const std::uint64_t misses_before = pool.stats().misses;
  ASSERT_TRUE(pool.pin(file.value(), 0).is_ok());
  EXPECT_EQ(pool.stats().misses, misses_before + 1);
}

TEST(BufferManager, PrefetchedPageIsAHitWhenPinned) {
  TempDir dir{"storage"};
  const auto path = dir / "corpus.bin";
  ASSERT_TRUE(write_file(path, patterned(2)).is_ok());

  BufferManager pool{tiny_pool(4)};
  auto file = pool.open_file(path);
  ASSERT_TRUE(file.is_ok());

  pool.prefetch(file.value(), 1);
  // Whether the load has landed or is still in flight, the pin never
  // initiates new I/O — by definition a hit.
  auto guard = pool.pin(file.value(), 1);
  ASSERT_TRUE(guard.is_ok());
  EXPECT_EQ(guard.value().bytes().front(), 'b');

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.prefetches, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(BufferManager, PrefetchIsDroppedWhenPoolIsPinnedFull) {
  TempDir dir{"storage"};
  const auto path = dir / "corpus.bin";
  ASSERT_TRUE(write_file(path, patterned(3)).is_ok());

  BufferManager pool{tiny_pool(2)};
  auto file = pool.open_file(path);
  ASSERT_TRUE(file.is_ok());
  auto a = pool.pin(file.value(), 0);
  auto b = pool.pin(file.value(), 1);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());

  pool.prefetch(file.value(), 2);  // no free frame: silently skipped
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.prefetches, 0u);
  EXPECT_EQ(stats.misses, 2u);
}

// Scan resistance: sequentially-hinted pages stream through the pool
// without flushing a periodically re-referenced hot page, even when the
// scan is twice the pool size.
TEST(BufferManager, SequentialScanDoesNotEvictHotPage) {
  TempDir dir{"storage"};
  const auto hot_path = dir / "hot.bin";
  const auto scan_path = dir / "scan.bin";
  ASSERT_TRUE(write_file(hot_path, patterned(1)).is_ok());
  ASSERT_TRUE(write_file(scan_path, patterned(16)).is_ok());

  BufferManager pool{tiny_pool(8)};
  auto hot = pool.open_file(hot_path);
  auto scan = pool.open_file(scan_path);
  ASSERT_TRUE(hot.is_ok());
  ASSERT_TRUE(scan.is_ok());

  ASSERT_TRUE(pool.pin(hot.value(), 0, AccessHint::kNormal).is_ok());
  for (std::uint64_t page = 0; page < 16; ++page) {
    auto guard = pool.pin(scan.value(), page, AccessHint::kSequential);
    ASSERT_TRUE(guard.is_ok());
    if ((page + 1) % 4 == 0) {
      // The workload keeps coming back to the hot page.
      ASSERT_TRUE(pool.pin(hot.value(), 0, AccessHint::kNormal).is_ok());
    }
  }

  const std::uint64_t misses_before = pool.stats().misses;
  auto final_pin = pool.pin(hot.value(), 0, AccessHint::kNormal);
  ASSERT_TRUE(final_pin.is_ok());
  EXPECT_EQ(final_pin.value().bytes().front(), 'a');
  EXPECT_EQ(pool.stats().misses, misses_before)
      << "hot page was evicted by a sequential scan";
}

// Read-ahead is protected until the scan pins it: a scan four times the
// pool loads every page exactly once, however the CLOCK hand falls.
TEST(BufferManager, ReadAheadSurvivesUntilConsumed) {
  TempDir dir{"storage"};
  const auto path = dir / "scan.bin";
  constexpr std::size_t kPool = 8;
  constexpr std::size_t kPages = 4 * kPool;
  const std::string data = patterned(kPages);
  ASSERT_TRUE(write_file(path, data).is_ok());

  auto pool = std::make_shared<BufferManager>(tiny_pool(kPool));
  auto got = scan(pool, path, 1, std::chrono::milliseconds{1});
  ASSERT_TRUE(got.is_ok()) << got.error().to_string();
  EXPECT_EQ(got.value(), data);

  const PoolStats stats = pool->stats();
  EXPECT_EQ(stats.misses, kPages) << "a read-ahead page was loaded twice";
  EXPECT_EQ(stats.readahead_evicted, 0u);
  EXPECT_GT(stats.ring_recycles, 0u);
}

// A re-scan of a file larger than the pool finds the pages the first
// scan left behind: the scan recycled a few frames of its own instead of
// flushing the whole pool (LRU flooding would leave zero hits).
TEST(BufferManager, LoopingScanLargerThanPoolKeepsEarlierPages) {
  TempDir dir{"storage"};
  const auto path = dir / "scan.bin";
  constexpr std::size_t kPool = 8;
  constexpr std::size_t kPages = 4 * kPool;
  // PooledFileSource's cap for a file larger than the pool.
  constexpr std::size_t kReadahead = kPool / 8 > 0 ? kPool / 8 : 1;
  const std::string data = patterned(kPages);
  ASSERT_TRUE(write_file(path, data).is_ok());

  auto pool = std::make_shared<BufferManager>(tiny_pool(kPool));
  ASSERT_TRUE(scan(pool, path).is_ok());
  const PoolStats first = pool->stats();

  auto again = scan(pool, path);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value(), data);
  const std::uint64_t loads = pool->stats().misses - first.misses;
  ASSERT_LE(loads, kPages);
  EXPECT_GE(kPages - loads, kPool - (kReadahead + 2))
      << "second scan found none of the first scan's pages resident";
}

// The streaming source's footprint over a file larger than the pool: a
// pin window of an eighth of the pool and read-ahead of another eighth.
// Every other frame keeps a page of the previous pass, so passes 2-4
// re-read at most the pages the footprint cannot keep, plus a little.
TEST(BufferManager, LoopingScanRereadsOnlyWhatItsFootprintDisplaces) {
  TempDir dir{"storage"};
  const auto path = dir / "scan.bin";
  constexpr std::size_t kPool = 32;
  constexpr std::size_t kPages = 4 * kPool;
  constexpr std::size_t kWindow = kPool / 8;
  constexpr std::size_t kFootprint = kWindow + kPool / 8;
  constexpr std::size_t kSlack = 2;
  const std::string data = patterned(kPages);
  ASSERT_TRUE(write_file(path, data).is_ok());

  auto pool = std::make_shared<BufferManager>(tiny_pool(kPool));
  ASSERT_TRUE(
      scan(pool, path, kWindow, std::chrono::microseconds{200}).is_ok());
  for (int pass = 2; pass <= 4; ++pass) {
    SCOPED_TRACE(pass);
    const std::uint64_t before = pool->stats().misses;
    auto again = scan(pool, path, kWindow, std::chrono::microseconds{200});
    ASSERT_TRUE(again.is_ok()) << again.error().to_string();
    EXPECT_EQ(again.value(), data);
    EXPECT_LE(pool->stats().misses - before,
              kPages - (kPool - kFootprint) + kSlack);
  }
  EXPECT_EQ(pool->stats().readahead_evicted, 0u);
}

// Read-ahead is counted in loads: pages an earlier run left resident are
// skipped, and the loads go to the first pages past them.
TEST(PooledFileSource, ReadAheadQueuesLoadsPastResidentPages) {
  TempDir dir{"storage"};
  const auto path = dir / "scan.bin";
  constexpr std::size_t kPool = 16;
  const std::string data = patterned(4 * kPool);
  ASSERT_TRUE(write_file(path, data).is_ok());

  auto pool = std::make_shared<BufferManager>(tiny_pool(kPool));
  auto file = pool->open_file(path);
  ASSERT_TRUE(file.is_ok());
  for (std::uint64_t page = 1; page <= 6; ++page) {
    ASSERT_TRUE(pool->pin(file.value(), page).is_ok());
  }
  ASSERT_EQ(pool->stats().misses, 6u);

  SourceOptions options;
  options.readahead_pages = 2;  // the cap for this file: kPool / 8
  auto source = PooledFileSource::open(pool, path, options);
  ASSERT_TRUE(source.is_ok());
  ASSERT_TRUE(source.value().pin(0).is_ok());
  // Page 0 on demand, then pages 7 and 8 ahead; 1-6 are skipped.
  EXPECT_EQ(pool->stats().prefetches, 2u);
  EXPECT_EQ(pool->stats().misses, 9u);
  for (std::uint64_t page = 1; page <= 6; ++page) {
    ASSERT_TRUE(source.value().pin(page).is_ok());
  }
  EXPECT_EQ(pool->stats().prefetches, 2u) << "queued past its two loads";
  for (std::uint64_t page = 7; page <= 8; ++page) {
    auto guard = source.value().pin(page);
    ASSERT_TRUE(guard.is_ok());
    EXPECT_EQ(guard.value().bytes().front(), static_cast<char>('a' + page));
  }
  // Pins of pages 7 and 8 were hits; each topped read-ahead back up.
  EXPECT_EQ(pool->stats().misses, 9u + 2u);
  EXPECT_EQ(pool->stats().prefetches, 4u);
}

// A long-lived pool's steady state: already full of other files' pages.
// A scan of a file that fits the pool displaces those stale pages (plain
// CLOCK) rather than recycling its own frames, so its rerun loads
// nothing.  The scan ring is only for files larger than the pool.
TEST(BufferManager, FittingScanIntoFullPoolStaysResidentForRerun) {
  TempDir dir{"storage"};
  constexpr std::size_t kPool = 16;
  // Well past PooledFileSource's read-ahead cap (kPool / 2 - 1), so the
  // scan keeps loading after its first pages are consumed.
  const auto fitting_path = dir / "fitting.bin";
  const std::string fitting = patterned(kPool * 3 / 4, 0, 'A');
  ASSERT_TRUE(write_file(fitting_path, fitting).is_ok());

  // The earlier traffic either exactly fills the pool or overflows it.
  for (const std::size_t filler_pages : {kPool, 2 * kPool}) {
    SCOPED_TRACE(filler_pages);
    const auto filler_path =
        dir / ("filler-" + std::to_string(filler_pages) + ".bin");
    ASSERT_TRUE(write_file(filler_path, patterned(filler_pages)).is_ok());

    auto pool = std::make_shared<BufferManager>(tiny_pool(kPool));
    ASSERT_TRUE(scan(pool, filler_path).is_ok());
    ASSERT_EQ(pool->stats().resident_frames, kPool);
    ASSERT_TRUE(scan(pool, fitting_path).is_ok());

    const std::uint64_t loads_before = pool->stats().misses;
    auto again = scan(pool, fitting_path);
    ASSERT_TRUE(again.is_ok());
    EXPECT_EQ(again.value(), fitting);
    EXPECT_EQ(pool->stats().misses, loads_before)
        << "rerun of a file that fits the pool loaded pages again";
  }
}

// A kNormal pin of a page a scan read ahead is a caller that may come
// back: the page gets the reference bit instead of being queued as a
// scan's next victim.
TEST(BufferManager, NormalPinOfReadAheadShieldsPage) {
  TempDir dir{"storage"};
  const auto hot_path = dir / "hot.bin";
  const auto scan_path = dir / "scan.bin";
  ASSERT_TRUE(write_file(hot_path, patterned(1, 0, 'A')).is_ok());
  ASSERT_TRUE(write_file(scan_path, patterned(4)).is_ok());

  BufferManager pool{tiny_pool(2)};
  auto hot = pool.open_file(hot_path);
  auto scan_file = pool.open_file(scan_path);
  ASSERT_TRUE(hot.is_ok());
  ASSERT_TRUE(scan_file.is_ok());

  ASSERT_TRUE(pool.pin(scan_file.value(), 0, AccessHint::kSequential).is_ok());
  pool.prefetch(hot.value(), 0, AccessHint::kSequential);
  ASSERT_TRUE(pool.pin(hot.value(), 0, AccessHint::kNormal).is_ok());
  // The pool is full: the scan's next page must displace its own page 0.
  ASSERT_TRUE(pool.pin(scan_file.value(), 1, AccessHint::kSequential).is_ok());

  const std::uint64_t misses_before = pool.stats().misses;
  auto again = pool.pin(hot.value(), 0, AccessHint::kNormal);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().bytes().front(), 'A');
  EXPECT_EQ(pool.stats().misses, misses_before)
      << "a kNormal-pinned read-ahead page was evicted by a scan";
}

// The read-ahead shield is one CLOCK revolution, not forever: when every
// unpinned frame is unconsumed read-ahead, a demand pin still gets one.
TEST(BufferManager, UnconsumedReadAheadNeverWedgesPool) {
  TempDir dir{"storage"};
  const auto scan_path = dir / "scan.bin";
  const auto other_path = dir / "other.bin";
  ASSERT_TRUE(write_file(scan_path, patterned(8)).is_ok());
  ASSERT_TRUE(write_file(other_path, patterned(2, 0, 'A')).is_ok());

  BufferManager pool{tiny_pool(4)};
  auto scan_file = pool.open_file(scan_path);
  auto other = pool.open_file(other_path);
  ASSERT_TRUE(scan_file.is_ok());
  ASSERT_TRUE(other.is_ok());

  auto held = pool.pin(other.value(), 0);
  ASSERT_TRUE(held.is_ok());
  for (std::uint64_t page = 0; page < 3; ++page) {
    pool.prefetch(scan_file.value(), page, AccessHint::kSequential);
  }
  ASSERT_EQ(pool.stats().prefetches, 3u);

  auto guard = pool.pin(other.value(), 1);
  ASSERT_TRUE(guard.is_ok()) << guard.error().to_string();
  EXPECT_EQ(guard.value().bytes().front(), 'B');
  EXPECT_EQ(pool.stats().readahead_evicted, 1u);
}

TEST(BufferManager, ChangedFileOnDiskNeverServesStalePages) {
  TempDir dir{"storage"};
  const auto path = dir / "mutable.bin";
  ASSERT_TRUE(write_file(path, std::string(kFrame, 'o')).is_ok());

  BufferManager pool{tiny_pool(4)};
  auto before = pool.open_file(path);
  ASSERT_TRUE(before.is_ok());
  {
    auto guard = pool.pin(before.value(), 0);
    ASSERT_TRUE(guard.is_ok());
    EXPECT_EQ(guard.value().bytes().front(), 'o');
  }

  // Replace the file (different size so the identity check cannot
  // collide even on filesystems with coarse mtimes).
  ASSERT_TRUE(write_file(path, std::string(2 * kFrame, 'n')).is_ok());

  auto after = pool.open_file(path);
  ASSERT_TRUE(after.is_ok());
  EXPECT_NE(after.value()->id(), before.value()->id());
  auto guard = pool.pin(after.value(), 0);
  ASSERT_TRUE(guard.is_ok());
  EXPECT_EQ(guard.value().bytes().front(), 'n');
  EXPECT_EQ(after.value()->size(), 2 * kFrame);
}

// A file replaced (by rename, as a corpus swap does) while a concurrent
// scan still pins a page of the old version: re-opening must not fail.
// The new version gets a fresh id and its own pages; the old pin keeps
// reading the old bytes; the old version's unpinned pages go at once
// and its pinned one is reclaimed after release.
TEST(BufferManager, ReplacedFileReopensWhileOldPagesArePinned) {
  TempDir dir{"storage"};
  const auto path = dir / "swapped.bin";
  ASSERT_TRUE(write_file(path, patterned(2, 0, 'o')).is_ok());

  BufferManager pool{tiny_pool(4)};
  auto before = pool.open_file(path);
  ASSERT_TRUE(before.is_ok());
  ASSERT_TRUE(pool.pin(before.value(), 1).is_ok());  // resident, unpinned
  auto old_pin = pool.pin(before.value(), 0);
  ASSERT_TRUE(old_pin.is_ok());
  FrameGuard old_guard = std::move(old_pin).value();
  ASSERT_EQ(pool.stats().resident_frames, 2u);

  ASSERT_TRUE(write_file_atomic(path, patterned(2, 0, 'n')).is_ok());

  auto after = pool.open_file(path);
  ASSERT_TRUE(after.is_ok()) << after.error().to_string();
  EXPECT_NE(after.value()->id(), before.value()->id());
  EXPECT_EQ(pool.stats().resident_frames, 1u)
      << "the old version's unpinned page must be dropped at once";
  {
    auto fresh = pool.pin(after.value(), 0);
    ASSERT_TRUE(fresh.is_ok());
    EXPECT_EQ(fresh.value().bytes().front(), 'n');
    EXPECT_EQ(old_guard.bytes().front(), 'o');
    EXPECT_EQ(pool.stats().pinned_frames, 2u);
  }

  // Re-opening the unchanged new version keeps its identity.
  auto again = pool.open_file(path);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value()->id(), after.value()->id());

  // Released, the old page is ordinary eviction fodder: a full pool's
  // worth of new pins reclaims its frame.
  old_guard.release();
  EXPECT_EQ(pool.stats().pinned_frames, 0u);
  ASSERT_TRUE(write_file(dir / "other.bin", patterned(4)).is_ok());
  auto other = pool.open_file(dir / "other.bin");
  ASSERT_TRUE(other.is_ok());
  std::vector<FrameGuard> held;
  for (std::uint64_t p = 0; p < 4; ++p) {
    auto guard = pool.pin(other.value(), p);
    ASSERT_TRUE(guard.is_ok()) << "page " << p;
    held.push_back(std::move(guard).value());
  }
  EXPECT_EQ(pool.stats().pinned_frames, 4u);
}

TEST(BufferManager, InjectedReadFaultsAreRetriedTransparently) {
  TempDir dir{"storage"};
  const auto path = dir / "corpus.bin";
  ASSERT_TRUE(write_file(path, patterned(1)).is_ok());

  auto plan = fault::FaultPlan::from_spec("sread.eio=@1");
  ASSERT_TRUE(plan.is_ok());
  fault::FaultScope scope{std::move(plan).value()};

  BufferManager pool{tiny_pool(2)};
  auto file = pool.open_file(path);
  ASSERT_TRUE(file.is_ok());
  auto guard = pool.pin(file.value(), 0);
  ASSERT_TRUE(guard.is_ok()) << "transient EIO must not surface";
  EXPECT_EQ(guard.value().bytes().front(), 'a');
  const PoolStats stats = pool.stats();
  EXPECT_GE(stats.read_retries, 1u);
  EXPECT_GE(stats.read_errors, 1u);  // the failed first attempt
}

TEST(BufferManager, PersistentReadFaultSurfacesAfterAllAttempts) {
  TempDir dir{"storage"};
  const auto path = dir / "corpus.bin";
  ASSERT_TRUE(write_file(path, patterned(1)).is_ok());

  // Every one of the kLoadAttempts loads fails.
  auto plan = fault::FaultPlan::from_spec("sread.eio=@1+2+3+4");
  ASSERT_TRUE(plan.is_ok());
  fault::FaultScope scope{std::move(plan).value()};

  BufferManager pool{tiny_pool(2)};
  auto file = pool.open_file(path);
  ASSERT_TRUE(file.is_ok());
  auto guard = pool.pin(file.value(), 0);
  ASSERT_FALSE(guard.is_ok());
  EXPECT_EQ(guard.error().code(), ErrorCode::kIoError);

  // The dead frame was reclaimed, not wedged: with the schedule
  // exhausted the same pin now succeeds.
  auto retry = pool.pin(file.value(), 0);
  ASSERT_TRUE(retry.is_ok());
  EXPECT_EQ(retry.value().bytes().front(), 'a');
}

TEST(BufferManager, InjectedWriteBackFaultsAreRetried) {
  TempDir dir{"storage"};
  const auto path = dir / "spill.bin";

  auto plan = fault::FaultPlan::from_spec("swrite.eio=@1");
  ASSERT_TRUE(plan.is_ok());
  fault::FaultScope scope{std::move(plan).value()};

  BufferManager pool{tiny_pool(2)};
  auto spill = pool.create_file(path);
  ASSERT_TRUE(spill.is_ok());
  {
    auto guard = pool.pin_write(spill.value(), 0);
    ASSERT_TRUE(guard.is_ok());
    std::memcpy(guard.value().data(), "survives", 8);
    guard.value().mark_dirty(8);
  }
  ASSERT_TRUE(pool.flush(spill.value()).is_ok());
  EXPECT_GE(pool.stats().write_retries, 1u);
  EXPECT_EQ(read_file(path).value(), "survives");
}

TEST(BufferManager, PersistentWriteBackFaultSurfacesFromFlush) {
  TempDir dir{"storage"};
  const auto path = dir / "spill.bin";

  auto plan = fault::FaultPlan::from_spec("swrite.enospc=@1+2+3+4");
  ASSERT_TRUE(plan.is_ok());
  fault::FaultScope scope{std::move(plan).value()};

  BufferManager pool{tiny_pool(2)};
  auto spill = pool.create_file(path);
  ASSERT_TRUE(spill.is_ok());
  {
    auto guard = pool.pin_write(spill.value(), 0);
    ASSERT_TRUE(guard.is_ok());
    std::memcpy(guard.value().data(), "doomed", 6);
    guard.value().mark_dirty(6);
  }
  Status flushed = pool.flush(spill.value());
  ASSERT_FALSE(flushed.is_ok());
  EXPECT_EQ(flushed.error().code(), ErrorCode::kIoError);
  EXPECT_GE(pool.stats().write_errors, 1u);
  // The data is still resident (dirty) — nothing was lost, only not yet
  // durable.  With the schedule exhausted a second flush succeeds.
  ASSERT_TRUE(pool.flush(spill.value()).is_ok());
  EXPECT_EQ(read_file(path).value(), "doomed");
}

// The TSan target: 8 threads hammer pin/unpin over a file bigger than
// the pool, so hits, misses, evictions, and shared pins all interleave.
TEST(BufferManager, ConcurrentPinUnpinFromEightThreads) {
  TempDir dir{"storage"};
  const auto path = dir / "corpus.bin";
  constexpr std::size_t kPages = 8;
  ASSERT_TRUE(write_file(path, patterned(kPages)).is_ok());

  BufferManager pool{tiny_pool(4, /*io_threads=*/2)};
  auto file = pool.open_file(path);
  ASSERT_TRUE(file.is_ok());

  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const auto page =
            static_cast<std::uint64_t>((t * 7 + i * 3) % kPages);
        auto guard = pool.pin(file.value(), page);
        if (!guard.is_ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const std::string_view bytes = guard.value().bytes();
        if (bytes.size() != kFrame ||
            bytes.front() != static_cast<char>('a' + page) ||
            bytes.back() != static_cast<char>('a' + page)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.pinned_frames, 0u);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
}

// Two scans of two different files at once through a pool smaller than
// either, each caller re-reading its own file three times for every pass
// over the other's (scan_ooc's mix): read-ahead, the scan ring and the
// CLOCK sweep interleave across threads, yet every byte is exact and no
// pin times out.
TEST(BufferManager, ConcurrentScansLargerThanPoolStayByteExact) {
  TempDir dir{"storage"};
  constexpr std::size_t kPages = 24;
  const std::filesystem::path paths[] = {dir / "corpus.bin",
                                         dir / "lines.bin"};
  const std::string contents[] = {patterned(kPages, 100),
                                  patterned(kPages, 100, 'A')};
  for (int f = 0; f < 2; ++f) {
    ASSERT_TRUE(write_file(paths[f], contents[f]).is_ok());
  }

  auto pool = std::make_shared<BufferManager>(tiny_pool(8, /*io_threads=*/2));
  constexpr int kRounds = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const int f = round % 4 == 3 ? 1 - t : t;
        // Each holds a half-pool window of pins, the streaming
        // source's most.
        auto got = scan(pool, paths[f], 4);
        if (!got.is_ok() || got.value() != contents[f]) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  const PoolStats stats = pool->stats();
  EXPECT_EQ(stats.pinned_frames, 0u);
  EXPECT_EQ(stats.read_errors, 0u);
}

TEST(SpillWriter, RoundTripsOddSizedAppends) {
  TempDir dir{"storage"};
  const auto path = dir / "spill.bin";
  BufferManager pool{tiny_pool(4)};
  auto pool_ptr = std::shared_ptr<BufferManager>(&pool, [](BufferManager*) {});

  auto writer = SpillWriter::create(pool_ptr, path);
  ASSERT_TRUE(writer.is_ok());

  // Chunk sizes chosen to straddle page boundaries unevenly.
  std::string expected;
  const std::size_t sizes[] = {1, 733, kFrame - 100, kFrame, 2 * kFrame + 17};
  char fill = 'A';
  for (const std::size_t size : sizes) {
    const std::string chunk(size, fill++);
    ASSERT_TRUE(writer.value().append(chunk).is_ok());
    expected += chunk;
  }
  ASSERT_TRUE(writer.value().finish().is_ok());
  EXPECT_EQ(writer.value().bytes_written(), expected.size());

  auto on_disk = read_file(path);
  ASSERT_TRUE(on_disk.is_ok());
  EXPECT_EQ(on_disk.value(), expected);

  // And the spill reads back warm through the pool-backed source.
  auto through_pool = scan(pool_ptr, path);
  ASSERT_TRUE(through_pool.is_ok());
  EXPECT_EQ(through_pool.value(), expected);
}

TEST(PooledFileSource, ShortReadMeansEof) {
  TempDir dir{"storage"};
  const auto path = dir / "tail.bin";
  const std::string data = patterned(1, 37);  // 1 page + 37 bytes
  ASSERT_TRUE(write_file(path, data).is_ok());

  BufferManager pool{tiny_pool(4)};
  auto pool_ptr = std::shared_ptr<BufferManager>(&pool, [](BufferManager*) {});
  auto source = PooledFileSource::open(pool_ptr, path);
  ASSERT_TRUE(source.is_ok());

  // A short page is the file's last; a page past it is empty.
  auto full = source.value().pin(0);
  ASSERT_TRUE(full.is_ok());
  EXPECT_EQ(full.value().bytes(), std::string_view{data}.substr(0, kFrame));
  auto tail = source.value().pin(1);
  ASSERT_TRUE(tail.is_ok());
  EXPECT_EQ(tail.value().bytes(), std::string_view{data}.substr(kFrame));

  auto past = source.value().pin(10);
  ASSERT_TRUE(past.is_ok());
  EXPECT_TRUE(past.value().bytes().empty());
}

}  // namespace
}  // namespace mcsd::storage
