#include "partition/outofcore.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "apps/datagen.hpp"
#include "apps/stringmatch.hpp"
#include "apps/wordcount.hpp"
#include "core/hash.hpp"
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

using Pair = mr::KV<std::string, std::uint64_t>;

/// sum_merge_into's order: ascending (string_hash(key), key).
bool hash_less(const Pair& a, const Pair& b) {
  const std::uint64_t ha = string_hash(a.key);
  const std::uint64_t hb = string_hash(b.key);
  return ha != hb ? ha < hb : a.key < b.key;
}

/// The pairs of `sums` in sum_merge_into's order.
std::vector<Pair> in_hash_order(
    const std::map<std::string, std::uint64_t>& sums) {
  std::vector<Pair> pairs;
  for (const auto& [key, value] : sums) pairs.push_back({key, value});
  std::sort(pairs.begin(), pairs.end(), hash_less);
  return pairs;
}

TEST(Mergers, SumMergeAddsAcrossFragments) {
  std::vector<std::vector<Pair>> outputs{
      {{"a", 1}, {"b", 2}},
      {{"b", 3}, {"c", 4}},
      {{"a", 5}},
  };
  const auto merged = fold_all(std::move(outputs),
                               sum_incremental<std::string, std::uint64_t>());
  EXPECT_EQ(merged, in_hash_order({{"a", 6}, {"b", 5}, {"c", 4}}));
}

TEST(Mergers, ConcatMergePreservesFragmentOrder) {
  using IdPair = mr::KV<std::uint64_t, std::uint32_t>;
  std::vector<std::vector<IdPair>> outputs{{{10, 0}}, {{5, 1}}, {{7, 2}}};
  const auto merged = fold_all(
      std::move(outputs), concat_incremental<std::uint64_t, std::uint32_t>());
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, 10u);
  EXPECT_EQ(merged[1].key, 5u);
  EXPECT_EQ(merged[2].key, 7u);
}

TEST(Mergers, EmptyInputs) {
  const auto sum = sum_incremental<std::string, std::uint64_t>();
  const auto concat = concat_incremental<std::string, std::uint64_t>();
  EXPECT_TRUE((fold_all<std::string, std::uint64_t>({}, sum).empty()));
  EXPECT_TRUE((fold_all<std::string, std::uint64_t>({}, concat).empty()));
  const std::vector<std::vector<Pair>> empties{{}, {}, {}};
  EXPECT_TRUE(fold_all(empties, sum).empty());
  EXPECT_TRUE(fold_all(empties, concat).empty());
}

TEST(Mergers, SumMergeIntoFoldsFragmentByFragment) {
  std::vector<std::vector<Pair>> outputs{
      {{"a", 1}, {"b", 2}},
      {{"c", 4}, {"b", 3}},  // unsorted fresh batch
      {{"a", 5}},
      {},  // empty fragment output
  };
  std::vector<Pair> running;
  for (auto& fresh : outputs) {
    sum_merge_into(running, std::move(fresh));
    EXPECT_TRUE(std::is_sorted(running.begin(), running.end(), hash_less));
  }
  EXPECT_EQ(running, in_hash_order({{"a", 6}, {"b", 5}, {"c", 4}}));

  // Engine output arrives in hash order unless the engine sorts by key;
  // the fold gives the same hash-ordered, key-unique result either way,
  // over an odd number of runs with empty ones among them.
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
  EXPECT_EQ(sorted_running, in_hash_order(sums));  // summed, keys unique
}

// Batches in key order, in hash order (the engine's), reversed, and with
// repeated keys, folded over a running result that keeps growing and
// one that has every key already: each gives the std::map sum.
TEST(Mergers, SumMergeIntoAnyBatchOrderMatchesMapSum) {
  enum class Order { kKey, kHash, kReversed, kDuplicates };
  for (const Order order :
       {Order::kKey, Order::kHash, Order::kReversed, Order::kDuplicates}) {
    SCOPED_TRACE(static_cast<int>(order));
    Rng rng{7 + static_cast<std::uint64_t>(order)};
    std::vector<Pair> running;
    std::map<std::string, std::uint64_t> sums;
    for (int run = 0; run < 12; ++run) {
      // Early runs bring new keys; later ones mostly keys already held.
      std::map<std::string, std::uint64_t> batch;
      const std::size_t keys = run < 6 ? 40 + 60 * run : 500;
      for (std::size_t i = 0; i < 150; ++i) {
        batch["w" + std::to_string(rng.next_below(keys))] +=
            1 + rng.next_below(9);
      }
      std::vector<Pair> fresh;
      for (const auto& [key, value] : batch) {
        sums[key] += value;
        if (order == Order::kDuplicates && value > 1) {
          // Split the count over two pairs of the same key.
          fresh.push_back({key, 1});
          fresh.push_back({key, value - 1});
        } else {
          fresh.push_back({key, value});
        }
      }
      if (order == Order::kHash) {
        std::sort(fresh.begin(), fresh.end(), hash_less);
      } else if (order == Order::kReversed) {
        std::sort(fresh.begin(), fresh.end(),
                  [](const Pair& a, const Pair& b) { return hash_less(b, a); });
      }
      sum_merge_into(running, std::move(fresh));
      ASSERT_EQ(running, in_hash_order(sums)) << "after run " << run;
    }
  }
}

// The fold's fast path: Word Count engine output, not sorted by key,
// already is in the running result's order at every worker count.
TEST(Mergers, WordCountEngineOutputArrivesInHashOrder) {
  apps::CorpusOptions corpus;
  corpus.bytes = 128 * 1024;
  corpus.vocabulary = 2000;
  const std::string text = apps::generate_corpus(corpus);
  for (const std::size_t workers : {1, 2, 4}) {
    mr::Options opts;
    opts.num_workers = workers;
    mr::Engine<WordCountSpec> engine{opts};
    const auto output =
        engine.run(WordCountSpec{}, mr::split_text(text, 16 * 1024));
    ASSERT_GT(output.size(), 1000u);
    // Strictly ascending: ordered and key-unique.
    EXPECT_EQ(std::adjacent_find(output.begin(), output.end(),
                                 [](const Pair& a, const Pair& b) {
                                   return !hash_less(a, b);
                                 }),
              output.end())
        << "workers=" << workers;
  }
}

TEST(Mergers, FirstBatchIsMovedNotCopied) {
  // A hash-ordered, key-unique first batch becomes the running result as
  // is (same buffer); a batch with a repeated key still gets folded.
  std::vector<Pair> fresh = in_hash_order({{"a", 1}, {"b", 2}, {"c", 3}});
  const std::vector<Pair> first = fresh;
  const Pair* buffer = fresh.data();
  std::vector<Pair> running;
  sum_merge_into(running, std::move(fresh));
  EXPECT_EQ(running.data(), buffer);
  EXPECT_EQ(running, first);

  std::vector<Pair> repeated_running;
  sum_merge_into(repeated_running,
                 std::vector<Pair>{{"a", 1}, {"a", 2}, {"b", 1}});
  EXPECT_EQ(repeated_running, in_hash_order({{"a", 3}, {"b", 1}}));

  auto concat_inc = concat_incremental<std::string, std::uint64_t>();
  std::vector<Pair> batch{{"z", 1}, {"y", 2}};
  buffer = batch.data();
  std::vector<Pair> appended;
  concat_inc(appended, std::move(batch));
  EXPECT_EQ(appended.data(), buffer);
  EXPECT_EQ(appended, (std::vector<Pair>{{"z", 1}, {"y", 2}}));
}

TEST(Mergers, IncrementalHelpersMatchTerminalMergers) {
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

  EXPECT_EQ(fold_all(outputs, sum_incremental<std::string, std::uint64_t>()),
            in_hash_order(summed));
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
