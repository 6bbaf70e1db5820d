// Page identity for the storage buffer pool.
//
// A page is one fixed-size frame's worth of a registered file:
// (file_id, page_no) with page_no in units of the pool's frame size.
// File ids are issued by the BufferManager's file registry and remain
// stable for the life of the pool (re-opening the same unchanged path
// yields the same id — that is what makes warm re-runs hit).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace mcsd::storage {

struct PageId {
  std::uint64_t file_id = 0;
  std::uint64_t page_no = 0;

  [[nodiscard]] bool operator==(const PageId&) const noexcept = default;
};

struct PageIdHash {
  [[nodiscard]] std::size_t operator()(const PageId& id) const noexcept {
    // SplitMix64 finalizer over the packed pair — cheap and well mixed
    // for the sequential page_no runs a fragment scan produces.
    std::uint64_t x = id.file_id * 0x9E3779B97F4A7C15ULL + id.page_no;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

/// How the caller expects to touch the page; steers eviction.
enum class AccessHint : std::uint8_t {
  kNormal,      ///< may be re-referenced soon: insert with the CLOCK
                ///< reference bit set
  kSequential,  ///< one-touch scan: the page is protected from eviction
                ///< until its first pin, then left unreferenced.  For a
                ///< file larger than the pool it also joins the scan
                ///< ring, so the pass recycles its own frames instead of
                ///< flushing re-referenced residents or its own unread
                ///< read-ahead.  A pin of a page that was already
                ///< resident still sets the reference bit.
};

}  // namespace mcsd::storage
