#include "apps/stringmatch.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/datagen.hpp"
#include "core/strings.hpp"
#include "mapreduce/engine.hpp"

namespace mcsd::apps {
namespace {

TEST(StringMatchSequential, FindsPlantedKeys) {
  const std::string text = "nothing here\nthe KEY is here\nKEY again KEY\n";
  const auto matches = stringmatch_sequential(text, {"KEY"});
  // Line-level matching: the third line matches once even with two hits.
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].line_offset, 13u);  // "the KEY is here"
  EXPECT_EQ(matches[1].line_offset, 29u);  // "KEY again KEY"
}

TEST(StringMatchSequential, MultipleKeysPerLine) {
  const std::string text = "ALPHA and BETA\n";
  const auto matches = stringmatch_sequential(text, {"ALPHA", "BETA", "GAMMA"});
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].key_index, 0u);
  EXPECT_EQ(matches[1].key_index, 1u);
}

TEST(StringMatchSequential, NoKeysNoMatches) {
  EXPECT_TRUE(stringmatch_sequential("some text\n", {}).empty());
}

TEST(StringMatchSequential, NoTrailingNewline) {
  const auto matches = stringmatch_sequential("find TOKEN", {"TOKEN"});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].line_offset, 0u);
}

TEST(StringMatchSequential, EmptyText) {
  EXPECT_TRUE(stringmatch_sequential("", {"X"}).empty());
}

TEST(StringMatchSpec, ChunkOffsetsYieldAbsoluteLineOffsets) {
  StringMatchSpec spec;
  spec.keys = {"NEEDLE"};
  mr::Emitter<std::uint64_t, std::uint32_t> emitter{4};
  // Simulate a chunk starting at absolute offset 100.
  spec.map(mr::TextChunk{"no\nNEEDLE here\n", 100}, emitter);
  std::vector<MatchPair> pairs;
  for (std::size_t b = 0; b < emitter.bucket_count(); ++b) {
    for (const auto& kv : emitter.bucket(b)) {
      pairs.push_back(MatchPair{kv.key, kv.value});
    }
  }
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].key, 103u);  // 100 + len("no\n")
}

TEST(StringMatch, EngineMatchesSequentialOnGeneratedData) {
  LineFileOptions lf;
  lf.bytes = 128 * 1024;
  std::string text = generate_line_file(lf);
  KeysOptions ko;
  ko.count = 6;
  ko.plant_rate = 0.03;
  const auto keys = generate_and_plant_keys(text, ko);

  StringMatchSpec spec;
  spec.keys = keys;
  mr::Options opts;
  opts.num_workers = 3;
  mr::Engine<StringMatchSpec> engine{opts};
  const auto pairs = engine.run(spec, mr::split_lines(text, 8 * 1024));

  const auto expected = stringmatch_sequential(text, keys);
  EXPECT_EQ(to_sorted_matches(pairs), expected);
  EXPECT_GT(expected.size(), 10u);  // planting actually planted
}

TEST(StringMatch, NoReduceStageOutputCountEqualsEmitCount) {
  // With the identity reduce, |output| == |emits| — nothing is merged.
  const std::string text = "AA x\nx AA\nnope\n";
  StringMatchSpec spec;
  spec.keys = {"AA"};
  mr::Options opts;
  opts.num_workers = 2;
  mr::Engine<StringMatchSpec> engine{opts};
  mr::Metrics metrics;
  const auto pairs = engine.run(spec, mr::split_lines(text, 6), 0, &metrics);
  EXPECT_EQ(pairs.size(), metrics.map_emits);
  EXPECT_EQ(pairs.size(), 2u);
}

/// Engine matches for `keys` over `text` split into newline-aligned
/// chunks of about `chunk_bytes`, sorted for comparison.
std::vector<Match> engine_matches(std::string_view text,
                                  const std::vector<std::string>& keys,
                                  std::size_t workers,
                                  std::size_t chunk_bytes) {
  StringMatchSpec spec;
  spec.keys = keys;
  mr::Options opts;
  opts.num_workers = workers;
  mr::Engine<StringMatchSpec> engine{opts};
  return to_sorted_matches(
      engine.run(spec, mr::split_lines(text, chunk_bytes)));
}

TEST(StringMatch, EngineMatchesSequentialOnCorpusWordKeys) {
  // Lowercase corpus words hit on most lines, unlike the planted
  // uppercase keys: many candidates per block, many matches per chunk.
  CorpusOptions co;
  co.bytes = 96 * 1024;
  co.vocabulary = 500;
  const std::string text = generate_corpus(co);
  std::vector<std::string> keys;
  std::size_t index = 0;
  for_each_word(text, [&](std::string_view word) {
    if (++index % 97 != 0 || word.size() < 5 || keys.size() == 4) return;
    if (std::find(keys.begin(), keys.end(), word) == keys.end()) {
      keys.emplace_back(word);
    }
  });
  ASSERT_EQ(keys.size(), 4u);
  const auto expected = stringmatch_sequential(text, keys);
  EXPECT_GT(expected.size(), 100u);
  for (std::size_t workers : {1u, 2u, 4u}) {
    for (std::size_t chunk_bytes : {1u, 61u, 997u, 4096u, 64u * 1024u}) {
      EXPECT_EQ(engine_matches(text, keys, workers, chunk_bytes), expected)
          << "workers=" << workers << " chunk_bytes=" << chunk_bytes;
    }
  }
}

/// Checks the engine against the reference at several chunk sizes, and
/// the reference against the offsets a reader expects.
void expect_matches(std::string_view text, const std::vector<std::string>& keys,
                    const std::vector<Match>& expected) {
  EXPECT_EQ(stringmatch_sequential(text, keys), expected);
  for (std::size_t chunk_bytes : {1u, 3u, 8u, 1024u}) {
    EXPECT_EQ(engine_matches(text, keys, 1, chunk_bytes), expected)
        << "chunk_bytes=" << chunk_bytes;
  }
}

TEST(StringMatchEdges, SelfOverlappingKey) {
  expect_matches("aaaa\nxaax\naa\nabababab\n", {"aaa", "abab"},
                 {{0, 0}, {13, 1}});
}

TEST(StringMatchEdges, KeyWithSameFirstAndLastByte) {
  expect_matches("xabcabca\nabc a\naba\n", {"abca", "aba"},
                 {{0, 0}, {15, 1}});
}

TEST(StringMatchEdges, KeyEqualToAWholeLine) {
  expect_matches("KEY\nKEYS\nxKEY\nKE\nKEY\n", {"KEY"},
                 {{0, 0}, {4, 0}, {9, 0}, {17, 0}});
}

TEST(StringMatchEdges, KeyAtChunkStartAndEnd) {
  // Each line is its own chunk at chunk_bytes 1: the key opens one chunk
  // and closes the next, with and without the newline after it.
  expect_matches("NEEDLE x\ny NEEDLE\nNEEDLE", {"NEEDLE"},
                 {{0, 0}, {9, 0}, {18, 0}});
}

TEST(StringMatchEdges, KeyLongerThanEveryLine) {
  expect_matches("abc\ndef\n", {"abcdef", "abc def"}, {});
}

TEST(StringMatchEdges, OneByteKey) {
  expect_matches("q\nxx\nxqx\n\nq", {"q"}, {{0, 0}, {5, 0}, {10, 0}});
}

TEST(StringMatchEdges, DuplicateKeysEachReportTheLine) {
  expect_matches("one two\nthree\n", {"two", "two", "three"},
                 {{0, 0}, {0, 1}, {8, 2}});
}

TEST(StringMatchEdges, EmptyKeyMatchesEveryLine) {
  expect_matches("a\n\nbc\n", {""}, {{0, 0}, {2, 0}, {3, 0}});
  expect_matches("a\n\nbc", {"", "bc"}, {{0, 0}, {2, 0}, {3, 0}, {3, 1}});
}

TEST(StringMatchEdges, KeyContainingNewlineNeverMatches) {
  expect_matches("ab\ncd\n", {"b\nc", "\n", "cd"}, {{3, 2}});
}

TEST(StringMatchEdges, NoTrailingNewline) {
  expect_matches("foo\nbar KEY", {"KEY", "bar"}, {{4, 0}, {4, 1}});
}

TEST(Match, OrderingByOffsetThenKey) {
  const Match a{10, 2};
  const Match b{10, 3};
  const Match c{11, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

}  // namespace
}  // namespace mcsd::apps
