#include "partition/outofcore.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "apps/datagen.hpp"
#include "apps/stringmatch.hpp"
#include "apps/wordcount.hpp"
#include "core/random.hpp"
#include "core/thread_pool.hpp"
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
  job.merge = [](auto outputs) {
    return sum_merge<std::string, std::uint64_t>(std::move(outputs));
  };
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

TEST(Mergers, SumMergeAddsAcrossFragments) {
  using Pair = mr::KV<std::string, std::uint64_t>;
  std::vector<std::vector<Pair>> outputs{
      {{"a", 1}, {"b", 2}},
      {{"b", 3}, {"c", 4}},
      {{"a", 5}},
  };
  const auto merged = sum_merge<std::string, std::uint64_t>(std::move(outputs));
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
  const auto merged =
      concat_merge<std::uint64_t, std::uint32_t>(std::move(outputs));
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, 10u);
  EXPECT_EQ(merged[1].key, 5u);
  EXPECT_EQ(merged[2].key, 7u);
}

TEST(Mergers, FoldMergeWithCustomFold) {
  using Pair = mr::KV<std::string, std::uint64_t>;
  std::vector<std::vector<Pair>> outputs{
      {{"x", 10}, {"y", 1}},
      {{"x", 20}},
  };
  const auto merged = fold_merge<std::string, std::uint64_t>(
      std::move(outputs),
      [](const std::string&, std::span<const std::uint64_t> vs) {
        std::uint64_t best = 0;
        for (auto v : vs) best = std::max(best, v);
        return best;
      });
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].key, "x");
  EXPECT_EQ(merged[0].value, 20u);  // max, not sum
}

TEST(Mergers, EmptyInputs) {
  EXPECT_TRUE((sum_merge<std::string, std::uint64_t>({})).empty());
  EXPECT_TRUE((concat_merge<std::string, std::uint64_t>({})).empty());
}

// The engine emits per-fragment outputs already key-sorted when
// sort_output_by_key is on; sum_merge must detect that and k-way merge
// instead of re-sorting, with identical results either way.
TEST(Mergers, SortedRunsMergeSameAsUnsortedRuns) {
  using Pair = mr::KV<std::string, std::uint64_t>;
  Rng rng{99};
  std::vector<std::vector<Pair>> sorted_runs;
  std::vector<std::vector<Pair>> shuffled_runs;
  for (int run = 0; run < 7; ++run) {  // odd count: pairwise-round leftover
    std::vector<Pair> pairs;
    const std::size_t n = rng.next_below(40);  // includes empty runs
    for (std::size_t i = 0; i < n; ++i) {
      pairs.push_back({"k" + std::to_string(rng.next_below(25)),
                       rng.next_below(100)});
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const Pair& a, const Pair& b) { return a.key < b.key; });
    sorted_runs.push_back(pairs);
    std::reverse(pairs.begin(), pairs.end());
    shuffled_runs.push_back(std::move(pairs));
  }
  const auto a = sum_merge<std::string, std::uint64_t>(sorted_runs);
  const auto b = sum_merge<std::string, std::uint64_t>(shuffled_runs);
  EXPECT_EQ(to_map(a), to_map(b));
  EXPECT_TRUE(std::is_sorted(
      a.begin(), a.end(),
      [](const Pair& x, const Pair& y) { return x.key < y.key; }));
  // Keys must be unique after summing.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_NE(a[i - 1].key, a[i].key);
  }
}

TEST(Mergers, ParallelPoolMatchesSerialMerge) {
  using Pair = mr::KV<std::string, std::uint64_t>;
  Rng rng{7};
  std::vector<std::vector<Pair>> runs;
  for (int run = 0; run < 9; ++run) {
    std::vector<Pair> pairs;
    for (std::size_t i = 0; i < 200; ++i) {
      pairs.push_back({"w" + std::to_string(rng.next_below(300)),
                       1 + rng.next_below(5)});
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const Pair& a, const Pair& b) { return a.key < b.key; });
    runs.push_back(std::move(pairs));
  }
  ThreadPool pool{4};
  const auto serial = sum_merge<std::string, std::uint64_t>(runs);
  const auto parallel = sum_merge<std::string, std::uint64_t>(runs, &pool);
  EXPECT_EQ(serial, parallel);
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

  auto sum_inc = sum_incremental<std::string, std::uint64_t>();
  std::vector<Pair> running;
  for (auto copy : outputs) sum_inc(running, std::move(copy));
  EXPECT_EQ(to_map(running),
            to_map(sum_merge<std::string, std::uint64_t>(outputs)));

  auto concat_inc = concat_incremental<std::string, std::uint64_t>();
  std::vector<Pair> appended;
  for (auto copy : outputs) concat_inc(appended, std::move(copy));
  EXPECT_EQ(appended, (concat_merge<std::string, std::uint64_t>(outputs)));
}

TEST(Mergers, FoldMergeSortedRunsKeepsCustomFold) {
  using Pair = mr::KV<std::string, std::uint64_t>;
  std::vector<std::vector<Pair>> outputs{
      {{"x", 10}, {"y", 1}},  // already key-sorted: k-way path
      {{"x", 20}, {"z", 7}},
  };
  ThreadPool pool{2};
  const auto merged = fold_merge<std::string, std::uint64_t>(
      std::move(outputs),
      [](const std::string&, std::span<const std::uint64_t> vs) {
        std::uint64_t best = 0;
        for (auto v : vs) best = std::max(best, v);
        return best;
      },
      &pool);
  const std::vector<Pair> expected{{"x", 20}, {"y", 1}, {"z", 7}};
  EXPECT_EQ(merged, expected);
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
