#include "apps/wordcount.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "apps/datagen.hpp"
#include "mapreduce/engine.hpp"

namespace mcsd::apps {
namespace {

std::map<std::string, std::uint64_t> count_map(std::string_view text) {
  std::map<std::string, std::uint64_t> m;
  for (const auto& kv : wordcount_sequential(text)) m[kv.key] = kv.value;
  return m;
}

TEST(WordCountSequential, Basics) {
  const auto m = count_map("the cat and the dog and the bird");
  EXPECT_EQ(m.at("the"), 3u);
  EXPECT_EQ(m.at("and"), 2u);
  EXPECT_EQ(m.at("cat"), 1u);
  EXPECT_EQ(m.size(), 5u);
}

TEST(WordCountSequential, CaseInsensitive) {
  const auto m = count_map("Word word WORD WoRd");
  EXPECT_EQ(m.at("word"), 4u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(WordCountSequential, DigitsAreWordChars) {
  const auto m = count_map("x1 x1 42");
  EXPECT_EQ(m.at("x1"), 2u);
  EXPECT_EQ(m.at("42"), 1u);
}

TEST(WordCountSequential, PunctuationSplitsWords) {
  const auto m = count_map("one,two;three.one!two");
  EXPECT_EQ(m.at("one"), 2u);
  EXPECT_EQ(m.at("two"), 2u);
  EXPECT_EQ(m.at("three"), 1u);
}

TEST(WordCountSequential, EmptyAndDelimiterOnly) {
  EXPECT_TRUE(wordcount_sequential("").empty());
  EXPECT_TRUE(wordcount_sequential("  \n\t ...,;  ").empty());
}

TEST(WordCountSequential, OutputSortedByKey) {
  const auto counts = wordcount_sequential("b a c a");
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0].key, "a");
  EXPECT_EQ(counts[1].key, "b");
  EXPECT_EQ(counts[2].key, "c");
}

TEST(WordCountSpec, MapEmitsOnePairPerWord) {
  WordCountSpec spec;
  mr::Emitter<std::string, std::uint64_t> emitter{4};
  spec.map(mr::TextChunk{"alpha beta alpha", 0}, emitter);
  EXPECT_EQ(emitter.count(), 3u);
}

TEST(WordCountSpec, CombineAndReduceSum) {
  WordCountSpec spec;
  const std::uint64_t values[] = {1, 2, 3};
  EXPECT_EQ(spec.combine("w", values), 6u);
  EXPECT_EQ(spec.reduce("w", values), 6u);
}

TEST(SortByFrequencyDesc, PaperOutputOrder) {
  std::vector<WordCount> counts{{"rare", 1}, {"common", 9}, {"mid", 4},
                                {"alpha", 4}};
  sort_by_frequency_desc(counts);
  EXPECT_EQ(counts[0].key, "common");
  // Ties break by word ascending.
  EXPECT_EQ(counts[1].key, "alpha");
  EXPECT_EQ(counts[2].key, "mid");
  EXPECT_EQ(counts[3].key, "rare");
}

TEST(TotalOccurrences, SumsValues) {
  std::vector<WordCount> counts{{"a", 2}, {"b", 3}};
  EXPECT_EQ(total_occurrences(counts), 5u);
  EXPECT_EQ(total_occurrences({}), 0u);
}

TEST(WordCount, TotalOccurrencesConservedAcrossEngine) {
  // Total word occurrences is an invariant between sequential and
  // MapReduce paths, whatever the worker count.
  CorpusOptions corpus;
  corpus.bytes = 128 * 1024;
  const std::string text = generate_corpus(corpus);
  const auto seq_total = total_occurrences(wordcount_sequential(text));

  mr::Options opts;
  opts.num_workers = 4;
  mr::Engine<WordCountSpec> engine{opts};
  auto out = engine.run(WordCountSpec{}, mr::split_text(text, 8 * 1024));
  std::uint64_t mr_total = 0;
  for (const auto& kv : out) mr_total += kv.value;
  EXPECT_EQ(mr_total, seq_total);
  EXPECT_GT(seq_total, 0u);
}

/// Keys that stress a word-at-a-time hash: every length 1..70, keys that
/// differ only in length or only in their last byte, many keys sharing a
/// 16-byte prefix, and digits.  Returned lower-case (the counted form).
std::vector<std::string> adversarial_vocabulary() {
  std::vector<std::string> keys;
  const std::string alnum = "abcdefghijklmnopqrstuvwxyz0123456789";
  for (std::size_t len = 1; len <= 70; ++len) {
    // Runs of one letter: every overlapping load of two such keys reads
    // the same word, so only the length tells them apart.
    keys.emplace_back(len, 'a');
    std::string cycled;
    for (std::size_t i = 0; i < len; ++i) cycled += alnum[(i * 7) % 36];
    keys.push_back(cycled);
    // Same prefix, last byte differs.
    std::string last_x = std::string(len - 1, 'q') + 'x';
    std::string last_y = std::string(len - 1, 'q') + 'y';
    keys.push_back(std::move(last_x));
    keys.push_back(std::move(last_y));
  }
  const std::string prefix = "sharedprefix0123";
  for (int i = 0; i < 200; ++i) keys.push_back(prefix + std::to_string(i));
  for (int i = 0; i < 50; ++i) keys.push_back(prefix + alnum.substr(i % 36, 1));
  for (const char* k : {"0", "00", "000", "0000", "9z9", "abc123def456",
                        "x1", "x10", "x100", "1x", "10x"}) {
    keys.emplace_back(k);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

TEST(WordCount, AdversarialKeysMatchSequentialAcrossWorkers) {
  const auto keys = adversarial_vocabulary();
  ASSERT_GT(keys.size(), 400u);
  // Each key appears (index % 5) + 1 times, in shuffled order, in mixed
  // case, between assorted delimiters.
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    for (std::size_t r = 0; r <= k % 5; ++r) order.push_back(k);
  }
  std::mt19937 rng{2024u};
  std::shuffle(order.begin(), order.end(), rng);
  const std::string delimiters = " \n\t.,;!-";
  std::string text;
  for (std::size_t n = 0; n < order.size(); ++n) {
    std::string word = keys[order[n]];
    for (char& c : word) {
      if (c >= 'a' && c <= 'z' && (rng() & 1u) != 0) {
        c = static_cast<char>(c - 'a' + 'A');
      }
    }
    text += word;
    text += delimiters[n % delimiters.size()];
  }
  const auto expected = wordcount_sequential(text);
  ASSERT_EQ(expected.size(), keys.size());

  std::vector<WordCount> first_sorted;
  for (const bool sort_by_key : {false, true}) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      mr::Options opts;
      opts.num_workers = workers;
      opts.sort_output_by_key = sort_by_key;
      mr::Engine<WordCountSpec> engine{opts};
      auto out = engine.run(WordCountSpec{}, mr::split_text(text, 512));
      if (sort_by_key) {
        EXPECT_EQ(out, expected) << "workers=" << workers;
      }
      std::sort(out.begin(), out.end(),
                [](const WordCount& a, const WordCount& b) {
                  return a.key < b.key;
                });
      EXPECT_EQ(out, expected)
          << "workers=" << workers << " sort_by_key=" << sort_by_key;
      if (first_sorted.empty()) first_sorted = out;
      EXPECT_EQ(out, first_sorted)
          << "workers=" << workers << " sort_by_key=" << sort_by_key;
    }
  }
}

TEST(PartialSortByFrequencyDesc, PrefixMatchesFullSort) {
  std::vector<WordCount> counts;
  for (int i = 0; i < 300; ++i) {
    counts.push_back(
        {"w" + std::to_string(i), static_cast<std::uint64_t>(i % 17)});
  }
  auto full = counts;
  sort_by_frequency_desc(full);
  for (const std::size_t n : {0u, 1u, 5u, 17u, 300u, 1000u}) {
    auto partial = counts;
    partial_sort_by_frequency_desc(partial, n);
    const std::size_t k = std::min<std::size_t>(n, counts.size());
    EXPECT_TRUE(
        std::equal(partial.begin(), partial.begin() + k, full.begin()))
        << "n=" << n;
  }
}

}  // namespace
}  // namespace mcsd::apps
