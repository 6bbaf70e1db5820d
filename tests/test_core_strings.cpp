#include "core/strings.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/hash.hpp"

namespace mcsd {
namespace {

TEST(Split, KeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Split, SingleFieldWithoutSeparator) {
  const auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Split, TrailingSeparatorYieldsTrailingEmpty) {
  const auto parts = split("x,y,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "");
}

TEST(SplitWhitespace, DropsEmptyFields) {
  const auto parts = split_whitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[1], "bar");
  EXPECT_EQ(parts[2], "baz");
}

TEST(SplitWhitespace, AllWhitespaceYieldsNothing) {
  EXPECT_TRUE(split_whitespace(" \t\n ").empty());
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(ToLower, Ascii) {
  EXPECT_EQ(to_lower("HeLLo 123"), "hello 123");
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
  EXPECT_TRUE(starts_with("x", ""));
  EXPECT_TRUE(ends_with("x", ""));
}

TEST(Join, Basics) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(CharClasses, Delimiters) {
  EXPECT_TRUE(is_default_delimiter(' '));
  EXPECT_TRUE(is_default_delimiter('\n'));
  EXPECT_TRUE(is_default_delimiter('\t'));
  EXPECT_TRUE(is_default_delimiter('\r'));
  EXPECT_FALSE(is_default_delimiter('a'));
  EXPECT_FALSE(is_default_delimiter('.'));
}

TEST(CharClasses, WordChars) {
  EXPECT_TRUE(is_word_char('a'));
  EXPECT_TRUE(is_word_char('Z'));
  EXPECT_TRUE(is_word_char('0'));
  EXPECT_FALSE(is_word_char(' '));
  EXPECT_FALSE(is_word_char('-'));
}

// ---------------------------------------------------------------------------
// Block-scan property tests: every vectorised helper byte-identical to
// its scalar reference over random and adversarial inputs.
// ---------------------------------------------------------------------------

std::vector<std::string> words_scalar(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !is_word_char(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && is_word_char(text[i])) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::vector<std::string> words_swar(std::string_view text) {
  std::vector<std::string> out;
  for_each_word(text, [&](std::string_view token) {
    out.emplace_back(token);
  });
  return out;
}

std::string lower_scalar(std::string_view text) {
  std::string out{text};
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c + 0x20);
  }
  return out;
}

TEST(SwarClasses, WordClass16MatchesScalarForEveryByteInEveryLane) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const bool word = is_word_char(c);
    const bool upper = c >= 'A' && c <= 'Z';
    // Place the byte in every lane position; neighbours are 0x00, which
    // is neither class, so the gathered masks hold at most that lane.
    for (unsigned lane = 0; lane < 16; ++lane) {
      char block[16] = {};
      block[lane] = c;
      const swar::u8x16 v = swar::load16(block);
      EXPECT_EQ(swar::movemask16(swar::word_class16(v)),
                word ? 1u << lane : 0u)
          << "byte=" << b << " lane=" << lane;
      EXPECT_EQ(swar::movemask16(swar::upper_class16(v)),
                upper ? 1u << lane : 0u)
          << "byte=" << b << " lane=" << lane;
    }
  }
}

TEST(SwarClasses, Movemask8GathersEveryLaneSubset) {
  for (unsigned subset = 0; subset < 256; ++subset) {
    std::uint64_t lane_mask = 0;
    for (unsigned lane = 0; lane < 8; ++lane) {
      if (subset & (1u << lane)) {
        lane_mask |= std::uint64_t{0x80} << (8 * lane);
      }
    }
    EXPECT_EQ(swar::movemask8(lane_mask), subset);
  }
}

TEST(ForEachWord, MatchesScalarOnRandomByteSoup) {
  // Full byte range (including >= 0x80: UTF-8 continuation bytes must
  // classify as delimiters), lengths straddling the 64-byte stripe size.
  std::mt19937 rng{0xC0FFEEu};
  std::uniform_int_distribution<int> byte_dist{0, 255};
  for (int round = 0; round < 200; ++round) {
    std::uniform_int_distribution<std::size_t> len_dist{0, 300};
    std::string text(len_dist(rng), '\0');
    for (char& c : text) c = static_cast<char>(byte_dist(rng));
    EXPECT_EQ(words_swar(text), words_scalar(text)) << "round=" << round;
  }
}

TEST(ForEachWord, MatchesScalarOnWordLikeCorpus) {
  std::mt19937 rng{1234u};
  std::uniform_int_distribution<int> word_len{1, 20};
  std::uniform_int_distribution<int> ch{0, 25};
  std::string text;
  for (int w = 0; w < 4'000; ++w) {
    const int len = word_len(rng);
    for (int i = 0; i < len; ++i) {
      text += static_cast<char>((w % 3 == 0 ? 'A' : 'a') + ch(rng));
    }
    text += (w % 7 == 0) ? '\n' : ' ';
  }
  EXPECT_EQ(words_swar(text), words_scalar(text));
}

TEST(ForEachWord, TokensSpanningStripeBoundaries) {
  // Adversarial: maximal runs placed so they open, span, and close
  // 64-byte stripes, including runs longer than several stripes.
  for (std::size_t word_len :
       {1u, 7u, 63u, 64u, 65u, 127u, 128u, 129u, 200u, 1000u}) {
    for (std::size_t lead : {0u, 1u, 62u, 63u, 64u, 65u}) {
      std::string text(lead, ' ');
      text += std::string(word_len, 'x');
      text += ' ';
      text += std::string(word_len, 'y');
      EXPECT_EQ(words_swar(text), words_scalar(text))
          << "word_len=" << word_len << " lead=" << lead;
    }
  }
  // No trailing delimiter: the final token must still close.
  const std::string open_tail = std::string(70, ' ') + std::string(130, 'z');
  EXPECT_EQ(words_swar(open_tail), words_scalar(open_tail));
  // Degenerate stripes.
  EXPECT_TRUE(words_swar("").empty());
  EXPECT_TRUE(words_swar(std::string(256, ' ')).empty());
  const std::string all_word(256, 'a');
  EXPECT_EQ(words_swar(all_word), words_scalar(all_word));
}

/// `text` copied into an exact-size heap allocation, so ASan flags any
/// load past its last byte.
std::unique_ptr<char[]> exact_copy(std::string_view text) {
  auto buf = std::make_unique<char[]>(text.size());
  std::memcpy(buf.get(), text.data(), text.size());
  return buf;
}

std::string random_text(std::mt19937& rng, std::string_view alphabet,
                        std::size_t len) {
  std::uniform_int_distribution<std::size_t> pick{0, alphabet.size() - 1};
  std::string text(len, '\0');
  for (char& c : text) c = alphabet[pick(rng)];
  return text;
}

std::string all_bytes() {
  std::string bytes;
  for (int b = 0; b < 256; ++b) bytes += static_cast<char>(b);
  return bytes;
}

TEST(ForEachWord, ExactSizeInputsOfEveryLength) {
  // Word-heavy bytes so runs reach the allocation's last byte.
  std::mt19937 rng{92u};
  const std::string alphabet = "aZ9 \n\x80" + std::string("bcdefgh");
  for (std::size_t len = 0; len <= 200; ++len) {
    const std::string text = random_text(rng, alphabet, len);
    const auto buf = exact_copy(text);
    EXPECT_EQ(words_swar(std::string_view{buf.get(), len}),
              words_scalar(text))
        << "len=" << len;
  }
}

/// Checks find_substring against std::string_view::find for `needle`
/// over every `from` in 0..text.size()+1, text and needle each in an
/// exact-size allocation.
void expect_find_matches_std(std::string_view text, std::string_view needle) {
  const auto text_buf = exact_copy(text);
  const auto needle_buf = exact_copy(needle);
  const std::string_view t{text_buf.get(), text.size()};
  const std::string_view nd{needle_buf.get(), needle.size()};
  for (std::size_t from = 0; from <= text.size() + 1; ++from) {
    ASSERT_EQ(find_substring(t, nd, from), t.find(nd, from))
        << "text=" << testing::PrintToString(std::string{text})
        << " needle=" << testing::PrintToString(std::string{needle})
        << " from=" << from;
  }
}

TEST(FindSubstring, MatchesStdFindOverSmallAndFullAlphabets) {
  std::mt19937 rng{2024u};
  for (const std::string& alphabet :
       {std::string("ab"), std::string("abc"), all_bytes()}) {
    for (int round = 0; round < 24; ++round) {
      const std::size_t len =
          std::uniform_int_distribution<std::size_t>{0, 120}(rng);
      const std::string text = random_text(rng, alphabet, len);
      for (std::size_t m = 1; m <= 40; ++m) {
        // A random needle, and (when the text is long enough) one cut
        // from a random position and one ending at the text's last byte.
        expect_find_matches_std(text, random_text(rng, alphabet, m));
        if (m <= len) {
          const std::size_t at =
              std::uniform_int_distribution<std::size_t>{0, len - m}(rng);
          expect_find_matches_std(text, std::string_view{text}.substr(at, m));
          expect_find_matches_std(text,
                                  std::string_view{text}.substr(len - m));
        }
      }
    }
  }
}

TEST(FindSubstring, SelfOverlappingAndEdgeNeedles) {
  for (const char* text : {"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
                           "abababababababababababababababababababab",
                           "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxab",
                           "abaxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}) {
    for (const char* needle :
         {"a", "aa", "aaa", "ab", "abab", "ababa", "aba", "b", "xab", "abax",
          "xxxxxxxxxxxxxxxxxxxxab", "abaxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}) {
      expect_find_matches_std(text, needle);
    }
  }
  // Needle longer than the text, and an empty text.
  expect_find_matches_std("abc", "abcd");
  expect_find_matches_std("", "a");
  // An empty needle is found at `from` up to the end, as by find.
  EXPECT_EQ(find_substring("abc", "", 2), 2u);
  EXPECT_EQ(find_substring("abc", "", 3), 3u);
  EXPECT_EQ(find_substring("abc", "", 4), std::string_view::npos);
}

TEST(StringHash, ReadsNoByteOutsideTheKey) {
  // Every length 0..80 at every start offset 0..7: each key sits at the
  // end of an exact-size heap allocation, so ASan flags a load past the
  // key's last byte; the bytes before it differ from the reference copy's,
  // so a load before the key's first byte changes the hash.
  std::mt19937 rng{17u};
  std::uniform_int_distribution<int> byte_dist{0, 255};
  for (std::size_t len = 0; len <= 80; ++len) {
    std::string key(len, '\0');
    for (char& c : key) c = static_cast<char>(byte_dist(rng));
    const std::uint64_t expected = string_hash(key);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const auto buf = std::make_unique<char[]>(offset + len);
      for (std::size_t i = 0; i < offset; ++i) {
        buf[i] = static_cast<char>(byte_dist(rng));
      }
      std::memcpy(buf.get() + offset, key.data(), len);
      EXPECT_EQ(string_hash(std::string_view{buf.get() + offset, len}),
                expected)
          << "len=" << len << " offset=" << offset;
    }
  }
}

TEST(StringHash, EqualKeysHashEquallyWhereverTheyLive) {
  // Routing, combiner probes and reduce grouping share one cached hash,
  // so an owned key, a view into a larger buffer and an arena copy of the
  // same bytes must all hash alike.
  const std::string text = "xxthe quick brown fox jumps over the lazy dogxx";
  BumpArena arena;
  for (std::size_t len = 0; len + 4 <= text.size(); ++len) {
    const std::string_view view = std::string_view{text}.substr(2, len);
    const std::string owned{view};
    const std::string_view stored = arena.store(view);
    const std::uint64_t h = KeyHash<std::string>{}(owned);
    EXPECT_EQ(KeyHash<std::string>{}(view), h) << "len=" << len;
    EXPECT_EQ(KeyHash<std::string>{}(stored), h) << "len=" << len;
    EXPECT_EQ(mcsd_key_hash(owned), h) << "len=" << len;
  }
}

TEST(StringHash, ShortKeysHashAsTheirZeroPaddedWords) {
  // Keys of up to 16 bytes hash as short_key_hash over their bytes
  // zero-padded to 16; the length tells keys apart that differ only in
  // trailing NULs.
  std::mt19937 rng{18u};
  const std::string alphabet = all_bytes();
  for (std::size_t len = 0; len <= kShortKeyBytes; ++len) {
    for (int round = 0; round < 20; ++round) {
      const std::string key = random_text(rng, alphabet, len);
      std::uint64_t words[2] = {0, 0};
      std::memcpy(words, key.data(), len);
      EXPECT_EQ(string_hash(key), short_key_hash(words[0], words[1], len))
          << "len=" << len;
      const auto buf = exact_copy(key);
      std::uint64_t lo = 1;
      std::uint64_t hi = 1;
      load_short_key(buf.get(), len, lo, hi);
      EXPECT_EQ(lo, words[0]) << "len=" << len;
      EXPECT_EQ(hi, words[1]) << "len=" << len;
    }
  }
  EXPECT_NE(string_hash(std::string_view{"a", 1}),
            string_hash(std::string_view{"a\0", 2}));
  EXPECT_NE(string_hash(std::string_view{}),
            string_hash(std::string_view{"\0", 1}));
}

// ---------------------------------------------------------------------------
// lower_short_word: Word Count's fused key builder.
// ---------------------------------------------------------------------------

/// Checks lower_short_word on `token` against string_hash of the scalar
/// lower-cased token, with the token at the very end of an exact-size
/// heap allocation (bounded-copy path; ASan flags any over-read) and with
/// garbage bytes after it (16-byte-load path; the padding must hide them).
void expect_short_word_matches(std::string_view token) {
  const std::size_t n = token.size();
  const std::string lowered = lower_scalar(token);
  std::uint64_t words[2] = {0, 0};
  std::memcpy(words, lowered.data(), n);
  const std::uint64_t hash = string_hash(lowered);

  const auto tail = exact_copy(token);
  std::string padded{token};
  padded += "\xff\x41Zz9 garbage bytes";
  const auto wide = exact_copy(padded);
  const ShortWord at_end = lower_short_word(tail.get(), n, n);
  const ShortWord loaded = lower_short_word(wide.get(), n, padded.size());
  for (const ShortWord& w : {at_end, loaded}) {
    EXPECT_EQ(w.lo, words[0]) << testing::PrintToString(std::string{token});
    EXPECT_EQ(w.hi, words[1]) << testing::PrintToString(std::string{token});
    EXPECT_EQ(short_key_hash(w.lo, w.hi, n), hash)
        << testing::PrintToString(std::string{token});
  }
}

TEST(LowerShortWord, MatchesStringHashOfLoweredTokenAtEveryLength) {
  std::mt19937 rng{93u};
  const std::string mixed_case =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  for (std::size_t len = 1; len <= kShortKeyBytes; ++len) {
    for (int round = 0; round < 50; ++round) {
      expect_short_word_matches(random_text(rng, mixed_case, len));
      expect_short_word_matches(random_text(rng, all_bytes(), len));
    }
  }
}

TEST(LowerShortWord, EveryByteValueInEveryLane) {
  for (std::size_t len = 1; len <= kShortKeyBytes; ++len) {
    for (std::size_t lane = 0; lane < len; ++lane) {
      for (int b = 0; b < 256; ++b) {
        std::string token(len, 'Q');
        token[lane] = static_cast<char>(b);
        expect_short_word_matches(token);
      }
    }
  }
}

TEST(LowerShortWord, TokensEndingOnTheLastByteOfTheirAllocation) {
  // The Word Count map's own view: tokens cut from an exact-size buffer
  // by for_each_word, with `readable` running to the buffer's end, so the
  // last tokens take the bounded copy.
  std::mt19937 rng{94u};
  const std::string alphabet = "aZ9 \n" + std::string("bcdXYq");
  for (std::size_t len = 1; len <= 80; ++len) {
    const std::string text = random_text(rng, alphabet, len);
    const auto buf = exact_copy(text);
    const std::string_view view{buf.get(), len};
    for_each_word(view, [&](std::string_view token) {
      if (token.size() > kShortKeyBytes) return;
      const std::size_t readable =
          static_cast<std::size_t>(view.data() + view.size() - token.data());
      const ShortWord w = lower_short_word(token.data(), token.size(),
                                           readable);
      EXPECT_EQ(short_key_hash(w.lo, w.hi, token.size()),
                string_hash(lower_scalar(token)))
          << "len=" << len;
    });
  }
}

TEST(ForEachLine, SharedIteratorReportsAbsoluteOffsets) {
  std::vector<std::pair<std::string, std::uint64_t>> lines;
  for_each_line("ab\nc\n\nlast", 100,
                [&](std::string_view line, std::uint64_t off) {
                  lines.emplace_back(std::string{line}, off);
                });
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], (std::pair<std::string, std::uint64_t>{"ab", 100}));
  EXPECT_EQ(lines[1], (std::pair<std::string, std::uint64_t>{"c", 103}));
  EXPECT_EQ(lines[2], (std::pair<std::string, std::uint64_t>{"", 105}));
  EXPECT_EQ(lines[3], (std::pair<std::string, std::uint64_t>{"last", 106}));
}

}  // namespace
}  // namespace mcsd
