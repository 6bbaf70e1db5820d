// Small string utilities shared across McSD modules.
//
// Nothing here allocates unless the return type requires it; inputs are
// std::string_view throughout (C++ Core Guidelines F.15/F.16).
//
// The block-scan helpers (swar::, lower_short_word, for_each_word,
// find_substring) power the map-phase inner loops of Word Count and
// String Match: byte classification, token lower-casing and substring
// candidate tests run 16 bytes per step on a portable byte-vector type,
// with no target-specific intrinsics, and token extraction walks a
// 64-byte bitmask with countr_zero/countr_one instead of a per-byte
// branch.  Property tests (test_core_strings) pin every helper
// byte-identical to its scalar reference over random and adversarial
// inputs, each input in an exact-size allocation so ASan sees over-reads.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace mcsd {

/// Splits `text` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string_view> split(std::string_view text, char sep);

/// Splits on any amount of ASCII whitespace, dropping empty fields.
std::vector<std::string_view> split_whitespace(std::string_view text);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// ASCII lower-casing (the benchmark corpora are ASCII by construction).
std::string to_lower(std::string_view text);

[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view text, std::string_view suffix);

/// Joins `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True for the delimiters the paper's integrity check recognises by
/// default: space, tab, newline, carriage return.
constexpr bool is_default_delimiter(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// True for ASCII alphanumerics (word characters in the WC benchmark).
constexpr bool is_word_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

// ---------------------------------------------------------------------------
// 16-byte block scans (GCC/Clang vector extension, no intrinsics).
// ---------------------------------------------------------------------------

namespace swar {

/// Sixteen byte lanes.  Plain `vector_size` arithmetic and compares, no
/// target intrinsics and no -march: x86-64 lowers it to baseline SSE2,
/// other targets to their own vector unit or to scalar code.
typedef std::uint8_t u8x16 __attribute__((vector_size(16)));

inline constexpr std::uint64_t kHigh = 0x8080808080808080ULL;

/// Unaligned 16-byte load (memcpy compiles to one movdqu).
inline u8x16 load16(const char* p) noexcept {
  u8x16 block;
  std::memcpy(&block, p, sizeof(block));
  return block;
}

/// 0xFF in every lane holding an ASCII uppercase letter.  The subtraction
/// wraps, so one unsigned compare tests the whole range.
inline u8x16 upper_class16(u8x16 v) noexcept {
  return reinterpret_cast<u8x16>(static_cast<u8x16>(v - 'A') < 26);
}

/// 0xFF in every lane holding an ASCII alphanumeric; bytes >= 0x80 (UTF-8
/// continuation etc.) always classify as non-word, same as the scalar
/// is_word_char.  OR-ing 0x20 folds 'A'..'Z' onto 'a'..'z'; no other byte
/// lands in that range.
inline u8x16 word_class16(u8x16 v) noexcept {
  const auto digit = static_cast<u8x16>(v - '0') < 10;
  const auto alpha = static_cast<u8x16>((v | 0x20) - 'a') < 26;
  return reinterpret_cast<u8x16>(digit | alpha);
}

/// Compresses a per-byte-bit-7 mask into 8 low bits (bit i = lane i).
/// The multiplier places each lane's bit at position 56 + i; all 64
/// partial products land on distinct bit positions (8i - 7j is injective
/// over i, j in [0,8)), so no carries corrupt the gather.
constexpr std::uint64_t movemask8(std::uint64_t lane_mask) noexcept {
  return ((lane_mask & kHigh) * 0x0002040810204081ULL) >> 56;
}

/// Bit i set iff bit 7 of lane i is set: two movemask8 gathers.
inline std::uint32_t movemask16(u8x16 lanes) noexcept {
  std::uint64_t half[2];
  std::memcpy(half, &lanes, sizeof(half));
  return static_cast<std::uint32_t>(movemask8(half[0]) |
                                    (movemask8(half[1]) << 8));
}

}  // namespace swar

/// A word token of 1..16 bytes, ASCII-lower-cased and zero-padded to 16
/// bytes, as two host-endian words: the form core/hash.hpp's
/// short_key_hash and the emitter's inline keys take.
struct ShortWord {
  std::uint64_t lo;
  std::uint64_t hi;
};

/// Builds the ShortWord of the token [p, p + n), n <= 16, from one 16-byte
/// load when `readable` (the bytes from p to the end of the caller's
/// view) is at least 16, and otherwise from a bounded n-byte copy, so no
/// byte outside the view is read.  The uppercase lanes' class mask, cut
/// down to 0x20, is OR-ed in; a lane-index compare zeroes lanes >= n.
/// Bytes >= 0x80 pass through untouched, matching std::tolower under the
/// C locale (word tokens never hold them).
inline ShortWord lower_short_word(const char* p, std::size_t n,
                                  std::size_t readable) noexcept {
  static constexpr swar::u8x16 kLane = {0, 1, 2,  3,  4,  5,  6,  7,
                                        8, 9, 10, 11, 12, 13, 14, 15};
  swar::u8x16 v{};
  if (readable >= 16) {
    v = swar::load16(p);
  } else {
    std::memcpy(&v, p, n);
  }
  v |= swar::upper_class16(v) & 0x20;
  v &= reinterpret_cast<swar::u8x16>(kLane < static_cast<std::uint8_t>(n));
  ShortWord w;
  std::memcpy(&w, &v, sizeof(w));
  return w;
}

/// The first position >= `from` where `needle` occurs in `text`, or npos.
/// For a non-empty needle this is exactly `text.find(needle, from)`; an
/// empty needle is found at `from` when from <= text.size().  Each step
/// tests the needle's first and last byte at 16 candidate positions and
/// confirms the survivors with memcmp; a scalar tail covers the last
/// positions, so no byte outside `text` is read.
std::size_t find_substring(std::string_view text, std::string_view needle,
                           std::size_t from = 0) noexcept;

/// Invokes `fn(token)` for every maximal run of ASCII alphanumerics in
/// `text`, in order.  Tokens are views into `text`.  The scan builds a
/// 64-byte word-class bitmask per stripe (4 16-byte blocks + movemask) and
/// extracts runs with countr_zero / countr_one, so cost per byte is a
/// handful of ALU ops instead of two data-dependent branches.
template <typename Fn>
void for_each_word(std::string_view text, Fn&& fn) {
  const char* const data = text.data();
  const std::size_t n = text.size();
  std::size_t pos = 0;
  std::size_t token_start = 0;
  bool open = false;  // a token run extends past the previous stripe

  while (pos + 64 <= n) {
    std::uint64_t mask = 0;
    for (unsigned j = 0; j < 4; ++j) {
      mask |= std::uint64_t{swar::movemask16(
                  swar::word_class16(swar::load16(data + pos + 16 * j)))}
              << (16 * j);
    }
    std::uint64_t m = mask;
    std::size_t base = pos;
    if (open) {
      const unsigned run = static_cast<unsigned>(std::countr_one(m));
      if (run == 64) {
        pos += 64;
        continue;  // token spans the whole stripe; stays open
      }
      fn(std::string_view{data + token_start, base + run - token_start});
      open = false;
      m >>= run;
      base += run;
    }
    while (m != 0) {
      const unsigned skip = static_cast<unsigned>(std::countr_zero(m));
      m >>= skip;
      base += skip;
      const unsigned run = static_cast<unsigned>(std::countr_one(m));
      if (base + run == pos + 64) {
        // Run touches the stripe edge: it may continue into the next
        // stripe (or the tail), so leave it open.
        token_start = base;
        open = true;
        break;
      }
      fn(std::string_view{data + base, run});
      m >>= run;
      base += run;
    }
    pos += 64;
  }

  // Scalar tail (< 64 bytes) plus any still-open token.
  for (; pos < n; ++pos) {
    if (is_word_char(data[pos])) {
      if (!open) {
        token_start = pos;
        open = true;
      }
    } else if (open) {
      fn(std::string_view{data + token_start, pos - token_start});
      open = false;
    }
  }
  if (open) {
    fn(std::string_view{data + token_start, n - token_start});
  }
}

/// Invokes `fn(line, absolute_offset)` for every line in `text`, where
/// `offset_base` is text's position in the whole input.  The final line
/// may lack a trailing newline.  Shared by String Match's map and its
/// sequential reference so both iterate lines identically.
template <typename Fn>
void for_each_line(std::string_view text, std::uint64_t offset_base, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    fn(text.substr(pos, eol - pos), offset_base + pos);
    pos = eol + 1;
  }
}

}  // namespace mcsd
