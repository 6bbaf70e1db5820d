// Hashing used by the MapReduce intermediate store.
//
// String keys hash with `string_hash`, which reads the key a machine word
// at a time and mixes with one 64x64->128 multiply (wyhash-style), plus a
// 64-bit finaliser for integer keys.  Keyspace partitioning across reduce
// workers must be *stable across runs* so tests can assert bucket
// contents; std::hash gives no such guarantee.  FNV-1a stays only as the
// smartFAM frame checksum (fam/protocol.cpp).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace mcsd {

/// FNV-1a 64-bit over an arbitrary byte range.
constexpr std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

namespace detail {
inline std::uint64_t load_u64(const char* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline std::uint64_t load_u32(const char* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
/// Full 64x64->128 product folded to 64 bits (low half xor high half).
inline std::uint64_t mul_fold(std::uint64_t a, std::uint64_t b) noexcept {
  __extension__ using u128 = unsigned __int128;
  const u128 r = static_cast<u128>(a) * b;
  return static_cast<std::uint64_t>(r) ^ static_cast<std::uint64_t>(r >> 64);
}
}  // namespace detail

/// Seeds and multipliers of string_hash / short_key_hash.
inline constexpr std::uint64_t kHashSeed = 0xA0761D6478BD642FULL;
inline constexpr std::uint64_t kHashMulA = 0xE7037ED1A0B428DBULL;
inline constexpr std::uint64_t kHashMulB = 0x8EBC6AF09C88C6E3ULL;

/// Longest key that string_hash takes as two zero-padded words, and that
/// the emitter stores inline.
inline constexpr std::size_t kShortKeyBytes = 16;

/// Hash of a key of n <= 16 bytes given as its bytes zero-padded to 16
/// and read as two host-endian words: one 128-bit multiply.  The length
/// seeds the second word, so "a" and "a\0" differ.  Word Count's map
/// builds the words in registers from its 16-byte token load and calls
/// this directly; string_hash reaches it for every short key.
inline std::uint64_t short_key_hash(std::uint64_t lo, std::uint64_t hi,
                                    std::size_t n) noexcept {
  return detail::mul_fold(lo ^ kHashMulA, hi ^ (kHashSeed ^ n));
}

// The short-key words are built by little-endian shifts, which must agree
// with a memcpy of the zero-padded bytes (what the 16-byte token load
// gives).  The block scans in core/strings.hpp assume the same lane order.
static_assert(std::endian::native == std::endian::little,
              "short-key words assume a little-endian host");

/// The n <= 16 bytes at p, zero-padded to 16, as two host-endian words.
/// Never reads outside [p, p + n): 8-16 bytes take two overlapping 8-byte
/// loads, 4-7 bytes two overlapping 4-byte loads, 1-3 bytes a gather of
/// the first, middle and last byte; the overlapping bytes are shifted
/// out or OR-ed onto themselves.
inline void load_short_key(const char* p, std::size_t n, std::uint64_t& lo,
                           std::uint64_t& hi) noexcept {
  assert(n <= kShortKeyBytes);
  lo = 0;
  hi = 0;
  if (n >= 8) {
    lo = detail::load_u64(p);
    if (n > 8) hi = detail::load_u64(p + n - 8) >> (8 * (16 - n));
  } else if (n >= 4) {
    lo = detail::load_u32(p) | (detail::load_u32(p + n - 4) << (8 * (n - 4)));
  } else if (n > 0) {
    lo = std::uint64_t{static_cast<std::uint8_t>(p[0])} |
         (std::uint64_t{static_cast<std::uint8_t>(p[n >> 1])}
          << (8 * (n >> 1))) |
         (std::uint64_t{static_cast<std::uint8_t>(p[n - 1])} << (8 * (n - 1)));
  }
}

/// String-key hash.  Never reads outside `key`.  Keys of up to 16 bytes
/// hash as short_key_hash over their zero-padded words; longer keys fold
/// one 8-byte word per step until 16 or fewer bytes remain, then the last
/// two (overlapping) words meet in one 128-bit multiply.  The length
/// seeds the state.  Word loads are host-endian: values are stable across
/// runs on one platform, which is all routing and grouping need (nothing
/// persists a hash).
inline std::uint64_t string_hash(std::string_view key) noexcept {
  const char* p = key.data();
  std::size_t n = key.size();
  if (n <= kShortKeyBytes) {
    std::uint64_t lo;
    std::uint64_t hi;
    load_short_key(p, n, lo, hi);
    return short_key_hash(lo, hi, n);
  }
  std::uint64_t state = kHashSeed ^ n;
  for (; n > 16; p += 8, n -= 8) {
    state = detail::mul_fold(detail::load_u64(p) ^ kHashMulA,
                             state ^ kHashMulB);
  }
  return detail::mul_fold(detail::load_u64(p) ^ kHashMulA,
                          detail::load_u64(p + n - 8) ^ state);
}

/// Stafford's Mix13 finaliser: scrambles integer keys so that sequential
/// row/column ids (matrix multiply) spread across reduce buckets.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// KeyHash: customisation point used by the MapReduce engine.  Specialise
/// or overload `mcsd_key_hash` (found by ADL) for user key types.
inline std::uint64_t mcsd_key_hash(std::string_view key) noexcept {
  return string_hash(key);
}
inline std::uint64_t mcsd_key_hash(const std::string& key) noexcept {
  return string_hash(key);
}
constexpr std::uint64_t mcsd_key_hash(std::uint64_t key) noexcept {
  return mix64(key);
}
constexpr std::uint64_t mcsd_key_hash(std::int64_t key) noexcept {
  return mix64(static_cast<std::uint64_t>(key));
}
constexpr std::uint64_t mcsd_key_hash(std::uint32_t key) noexcept {
  return mix64(key);
}
constexpr std::uint64_t mcsd_key_hash(std::int32_t key) noexcept {
  return mix64(static_cast<std::uint64_t>(static_cast<std::int64_t>(key)));
}

template <typename K>
struct KeyHash {
  std::uint64_t operator()(const K& key) const noexcept {
    return mcsd_key_hash(key);
  }
};

/// Transparent for string keys: a std::string_view probe hashes without
/// materialising a std::string, and hashes identically to the owned key —
/// the emitter's combiner relies on this to defer key allocation until a
/// pair is actually inserted.
template <>
struct KeyHash<std::string> {
  using is_transparent = void;
  std::uint64_t operator()(std::string_view key) const noexcept {
    return string_hash(key);
  }
};

/// Maps a cached key hash to one of `num_buckets` reduce buckets by
/// multiply-shift range reduction of the hash's high 32 bits: no
/// division, and exact for any bucket count (the product of a 32-bit
/// value and a 64-bit count fits in 128 bits).
inline std::size_t hash_to_bucket(std::uint64_t hash,
                                  std::size_t num_buckets) noexcept {
  __extension__ using u128 = unsigned __int128;
  return static_cast<std::size_t>(
      (static_cast<u128>(hash >> 32) * num_buckets) >> 32);
}

/// Maps a cached key hash to a slot in a power-of-two table of
/// `1 << log2_slots` entries.  Fibonacci hashing of the hash's low 32
/// bits (multiply by 2^32/phi, take the top bits): hash_to_bucket already
/// consumed the high 32 bits, so slot selection must draw on the other
/// half or every pair in a bucket would probe the same run.  Slot indices
/// are 32-bit, so tables never exceed 2^32 entries.
constexpr std::size_t hash_to_slot(std::uint64_t hash,
                                   unsigned log2_slots) noexcept {
  assert(log2_slots >= 1 && log2_slots <= 32);
  return static_cast<std::size_t>(
      static_cast<std::uint32_t>(static_cast<std::uint32_t>(hash) *
                                 0x9E3779B9u) >>
      (32 - log2_slots));
}

}  // namespace mcsd
