#include "partition/outofcore.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "apps/datagen.hpp"
#include "apps/stringmatch.hpp"
#include "apps/wordcount.hpp"
#include "core/random.hpp"
#include "core/units.hpp"

namespace mcsd::part {
namespace {

using apps::StringMatchSpec;
using apps::WordCountSpec;
using namespace mcsd::literals;

std::map<std::string, std::uint64_t> to_map(
    const std::vector<mr::KV<std::string, std::uint64_t>>& pairs) {
  std::map<std::string, std::uint64_t> m;
  for (const auto& kv : pairs) m[kv.key] += kv.value;
  return m;
}

TextJob<WordCountSpec> wordcount_job() {
  TextJob<WordCountSpec> job;
  job.incremental_merge = sum_incremental<std::string, std::uint64_t>();
  return job;
}

TEST(RunPartitioned, MatchesNativeWordCount) {
  apps::CorpusOptions corpus;
  corpus.bytes = 200 * 1024;
  corpus.vocabulary = 400;
  const std::string text = apps::generate_corpus(corpus);

  mr::Options opts;
  opts.num_workers = 2;
  mr::Engine<WordCountSpec> engine{opts};

  PartitionOptions native;
  PartitionOptions fragmented;
  fragmented.partition_size = 20 * 1024;

  const auto job = wordcount_job();
  const auto a = run_partitioned(engine, WordCountSpec{}, text, native, job);
  const auto b =
      run_partitioned(engine, WordCountSpec{}, text, fragmented, job);
  EXPECT_EQ(to_map(a), to_map(b));
  EXPECT_EQ(to_map(a), to_map(apps::wordcount_sequential(text)));
}

TEST(RunPartitioned, MetricsCountFragments) {
  apps::CorpusOptions corpus;
  corpus.bytes = 50 * 1024;
  const std::string text = apps::generate_corpus(corpus);
  mr::Engine<WordCountSpec> engine{mr::Options{}};
  PartitionOptions opts;
  opts.partition_size = 10 * 1024;
  OutOfCoreMetrics metrics;
  run_partitioned(engine, WordCountSpec{}, text, opts, wordcount_job(),
                  &metrics);
  EXPECT_GE(metrics.fragments, 5u);
  EXPECT_GT(metrics.mapreduce_seconds, 0.0);
}

TEST(RunPartitioned, ProcessesInputExceedingBudgetWhenFragmented) {
  // The whole input cannot run natively under this budget, but 32 KiB
  // fragments can — the paper's central claim.
  mr::Options opts;
  opts.num_workers = 2;
  opts.memory_budget_bytes = 512 * 1024;
  opts.usable_memory_fraction = 0.6;
  mr::Engine<WordCountSpec> engine{opts};

  apps::CorpusOptions corpus;
  corpus.bytes = 400 * 1024;  // > 307 KiB usable
  corpus.vocabulary = 150;    // low entropy: combine keeps fragments small
  const std::string text = apps::generate_corpus(corpus);

  PartitionOptions native;
  EXPECT_THROW(run_partitioned(engine, WordCountSpec{}, text, native,
                               wordcount_job()),
               mr::MemoryOverflowError);

  PartitionOptions fragmented;
  fragmented.partition_size = 32 * 1024;
  const auto result = run_partitioned(engine, WordCountSpec{}, text,
                                      fragmented, wordcount_job());
  EXPECT_EQ(to_map(result), to_map(apps::wordcount_sequential(text)));
}

TEST(RunAdaptive, NativeWhenItFits) {
  mr::Options opts;
  opts.num_workers = 2;
  mr::Engine<WordCountSpec> engine{opts};  // no budget
  apps::CorpusOptions corpus;
  corpus.bytes = 64 * 1024;
  const std::string text = apps::generate_corpus(corpus);
  OutOfCoreMetrics metrics;
  const auto result =
      run_adaptive(engine, WordCountSpec{}, text, 3.0, wordcount_job(),
                   default_delimiters(), &metrics);
  EXPECT_FALSE(metrics.fell_back_to_partitioning);
  EXPECT_EQ(metrics.fragments, 1u);
  EXPECT_EQ(to_map(result), to_map(apps::wordcount_sequential(text)));
}

TEST(RunAdaptive, FallsBackToPartitioningOnOverflow) {
  mr::Options opts;
  opts.num_workers = 2;
  opts.memory_budget_bytes = 512 * 1024;
  mr::Engine<WordCountSpec> engine{opts};

  apps::CorpusOptions corpus;
  corpus.bytes = 400 * 1024;
  corpus.vocabulary = 150;
  const std::string text = apps::generate_corpus(corpus);

  OutOfCoreMetrics metrics;
  const auto result =
      run_adaptive(engine, WordCountSpec{}, text, 3.0, wordcount_job(),
                   default_delimiters(), &metrics);
  EXPECT_TRUE(metrics.fell_back_to_partitioning);
  EXPECT_GT(metrics.fragments, 1u);
  EXPECT_EQ(to_map(result), to_map(apps::wordcount_sequential(text)));
}

/// Folds `outputs` fragment by fragment through `merge`.
template <typename K, typename V>
std::vector<mr::KV<K, V>> fold_all(
    std::vector<std::vector<mr::KV<K, V>>> outputs,
    const IncrementalMerge<K, V>& merge) {
  std::vector<mr::KV<K, V>> running;
  for (auto& fresh : outputs) merge(running, std::move(fresh));
  return running;
}

TEST(Mergers, SumMergeAddsAcrossFragments) {
  using Pair = mr::KV<std::string, std::uint64_t>;
  std::vector<std::vector<Pair>> outputs{
      {{"a", 1}, {"b", 2}},
      {{"b", 3}, {"c", 4}},
      {{"a", 5}},
  };
  const auto merged = fold_all(std::move(outputs),
                               sum_incremental<std::string, std::uint64_t>());
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, "a");
  EXPECT_EQ(merged[0].value, 6u);
  EXPECT_EQ(merged[1].key, "b");
  EXPECT_EQ(merged[1].value, 5u);
  EXPECT_EQ(merged[2].key, "c");
  EXPECT_EQ(merged[2].value, 4u);
}

TEST(Mergers, ConcatMergePreservesFragmentOrder) {
  using Pair = mr::KV<std::uint64_t, std::uint32_t>;
  std::vector<std::vector<Pair>> outputs{{{10, 0}}, {{5, 1}}, {{7, 2}}};
  const auto merged = fold_all(
      std::move(outputs), concat_incremental<std::uint64_t, std::uint32_t>());
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, 10u);
  EXPECT_EQ(merged[1].key, 5u);
  EXPECT_EQ(merged[2].key, 7u);
}

TEST(Mergers, EmptyInputs) {
  using Pair = mr::KV<std::string, std::uint64_t>;
  const auto sum = sum_incremental<std::string, std::uint64_t>();
  const auto concat = concat_incremental<std::string, std::uint64_t>();
  EXPECT_TRUE((fold_all<std::string, std::uint64_t>({}, sum).empty()));
  EXPECT_TRUE((fold_all<std::string, std::uint64_t>({}, concat).empty()));
  const std::vector<std::vector<Pair>> empties{{}, {}, {}};
  EXPECT_TRUE(fold_all(empties, sum).empty());
  EXPECT_TRUE(fold_all(empties, concat).empty());
}

TEST(Mergers, SumMergeIntoFoldsFragmentByFragment) {
  using Pair = mr::KV<std::string, std::uint64_t>;
  std::vector<std::vector<Pair>> outputs{
      {{"a", 1}, {"b", 2}},
      {{"c", 4}, {"b", 3}},  // unsorted fresh batch
      {{"a", 5}},
      {},  // empty fragment output
  };
  std::vector<Pair> running;
  for (auto& fresh : outputs) {
    sum_merge_into(running, std::move(fresh));
    EXPECT_TRUE(std::is_sorted(
        running.begin(), running.end(),
        [](const Pair& x, const Pair& y) { return x.key < y.key; }));
  }
  const std::vector<Pair> expected{{"a", 6}, {"b", 5}, {"c", 4}};
  EXPECT_EQ(running, expected);

  // Engine output arrives key-sorted when sort_output_by_key is on, and
  // in any order otherwise: the fold gives the same key-sorted,
  // key-unique result either way, over an odd number of runs with empty
  // ones among them.
  Rng rng{99};
  std::vector<Pair> sorted_running;
  std::vector<Pair> reversed_running;
  std::map<std::string, std::uint64_t> sums;
  for (int run = 0; run < 9; ++run) {
    std::vector<Pair> pairs;
    const std::size_t n = run % 4 == 3 ? 0 : rng.next_below(200);
    for (std::size_t i = 0; i < n; ++i) {
      pairs.push_back({"k" + std::to_string(rng.next_below(300)),
                       1 + rng.next_below(100)});
      sums[pairs.back().key] += pairs.back().value;
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const Pair& a, const Pair& b) { return a.key < b.key; });
    std::vector<Pair> reversed(pairs.rbegin(), pairs.rend());
    sum_merge_into(sorted_running, std::move(pairs));
    sum_merge_into(reversed_running, std::move(reversed));
  }
  EXPECT_EQ(sorted_running, reversed_running);
  EXPECT_EQ(to_map(sorted_running), sums);
  EXPECT_EQ(sorted_running.size(), sums.size());  // keys unique
  EXPECT_TRUE(std::is_sorted(
      sorted_running.begin(), sorted_running.end(),
      [](const Pair& x, const Pair& y) { return x.key < y.key; }));
}

TEST(Mergers, FirstBatchIsMovedNotCopied) {
  // A key-sorted, key-unique first batch becomes the running result as is
  // (same buffer); a sorted batch with a repeated key still gets folded.
  using Pair = mr::KV<std::string, std::uint64_t>;
  std::vector<Pair> fresh{{"a", 1}, {"b", 2}, {"c", 3}};
  const Pair* buffer = fresh.data();
  std::vector<Pair> running;
  sum_merge_into(running, std::move(fresh));
  EXPECT_EQ(running.data(), buffer);
  EXPECT_EQ(running, (std::vector<Pair>{{"a", 1}, {"b", 2}, {"c", 3}}));

  std::vector<Pair> repeated_running;
  sum_merge_into(repeated_running,
                 std::vector<Pair>{{"a", 1}, {"a", 2}, {"b", 1}});
  EXPECT_EQ(repeated_running, (std::vector<Pair>{{"a", 3}, {"b", 1}}));

  auto concat_inc = concat_incremental<std::string, std::uint64_t>();
  std::vector<Pair> batch{{"z", 1}, {"y", 2}};
  buffer = batch.data();
  std::vector<Pair> appended;
  concat_inc(appended, std::move(batch));
  EXPECT_EQ(appended.data(), buffer);
  EXPECT_EQ(appended, (std::vector<Pair>{{"z", 1}, {"y", 2}}));
}

TEST(Mergers, IncrementalHelpersMatchTerminalMergers) {
  using Pair = mr::KV<std::string, std::uint64_t>;
  const std::vector<std::vector<Pair>> outputs{
      {{"x", 1}, {"y", 2}}, {{"x", 3}}, {{"z", 9}, {"y", 1}}};

  // References merge every output at once: a map sum and a plain
  // concatenation.
  std::map<std::string, std::uint64_t> summed;
  std::vector<Pair> concatenated;
  for (const auto& output : outputs) {
    for (const Pair& kv : output) {
      summed[kv.key] += kv.value;
      concatenated.push_back(kv);
    }
  }
  std::vector<Pair> summed_pairs;
  for (const auto& [key, value] : summed) summed_pairs.push_back({key, value});

  EXPECT_EQ(fold_all(outputs, sum_incremental<std::string, std::uint64_t>()),
            summed_pairs);
  EXPECT_EQ(fold_all(outputs, concat_incremental<std::string, std::uint64_t>()),
            concatenated);
}

// Partition-size sweep: result invariant for any fragment size.
class OutOfCoreSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OutOfCoreSweep, WordCountInvariantUnderFragmentSize) {
  apps::CorpusOptions corpus;
  corpus.bytes = 100 * 1024;
  corpus.vocabulary = 250;
  const std::string text = apps::generate_corpus(corpus);
  mr::Engine<WordCountSpec> engine{mr::Options{}};
  PartitionOptions opts;
  opts.partition_size = GetParam();
  const auto result = run_partitioned(engine, WordCountSpec{}, text, opts,
                                      wordcount_job());
  EXPECT_EQ(to_map(result), to_map(apps::wordcount_sequential(text)));
}

INSTANTIATE_TEST_SUITE_P(FragmentBytes, OutOfCoreSweep,
                         ::testing::Values(512, 4096, 16384, 65536, 1 << 20));

}  // namespace
}  // namespace mcsd::part
