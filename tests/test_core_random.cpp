#include "core/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "apps/datagen.hpp"
#include "core/hash.hpp"
#include "mapreduce/types.hpp"

namespace mcsd {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a{1234};
  SplitMix64 b{1234};
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a{1};
  SplitMix64 b{2};
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, DeterministicForSeed) {
  Rng a{99};
  Rng b{99};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng{7};
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng{7};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1'000; ++i) {
    seen.insert(rng.next_below(8));
  }
  EXPECT_EQ(seen.size(), 8u);  // all buckets hit in 1000 draws
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng{11};
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng{5};
  for (int i = 0; i < 1'000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, RoughUniformity) {
  Rng rng{2026};
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100'000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.next_below(kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets / 5);
  }
}

TEST(ZipfSampler, RankZeroMostFrequent) {
  ZipfSampler zipf{100, 1.1};
  Rng rng{3};
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50'000; ++i) {
    ++counts[zipf.sample(rng)];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(ZipfSampler, AllRanksReachable) {
  ZipfSampler zipf{5, 0.5};
  Rng rng{4};
  std::set<std::size_t> seen;
  for (int i = 0; i < 10'000; ++i) {
    seen.insert(zipf.sample(rng));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Hash, Fnv1aKnownVector) {
  // FNV-1a 64 of empty string is the offset basis.
  EXPECT_EQ(fnv1a(""), 0xCBF29CE484222325ULL);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  EXPECT_EQ(fnv1a("word"), fnv1a("word"));
}

TEST(Hash, Mix64ScramblesSequentialKeys) {
  // Adjacent integers must land in different low bits most of the time —
  // reduce-bucket spread for matrix coordinates depends on it.
  int same_bucket = 0;
  constexpr int kBuckets = 8;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if (mix64(i) % kBuckets == mix64(i + 1) % kBuckets) ++same_bucket;
  }
  EXPECT_LT(same_bucket, 1000 / kBuckets * 2);
}

TEST(Hash, KeyHashDispatch) {
  EXPECT_EQ(KeyHash<std::string>{}(std::string{"abc"}), string_hash("abc"));
  EXPECT_EQ(KeyHash<std::uint64_t>{}(42u), mix64(42u));
}

TEST(Hash, DefaultBucketsBalanceOverVocabulary) {
  // Reduce-bucket routing of a 10k-word vocabulary over the default 32
  // buckets: the fullest bucket stays within 1.5x of the mean.
  constexpr std::size_t kWords = 10'000;
  constexpr std::size_t kBuckets = mr::Options::kDefaultReduceBuckets;
  const auto vocabulary = apps::generate_vocabulary(kWords, 42);
  ASSERT_EQ(vocabulary.size(), kWords);
  std::vector<std::size_t> load(kBuckets, 0);
  for (const auto& word : vocabulary) {
    ++load[hash_to_bucket(KeyHash<std::string>{}(word), kBuckets)];
  }
  const double mean = static_cast<double>(kWords) / kBuckets;
  const std::size_t fullest = *std::max_element(load.begin(), load.end());
  EXPECT_LE(static_cast<double>(fullest), 1.5 * mean);
}

TEST(Hash, BucketRangeReductionCoversEveryBucket) {
  // Multiply-shift routing stays in range for any bucket count, and the
  // ends of the hash range land in the first and last buckets.
  for (std::size_t buckets : {std::size_t{1}, std::size_t{5},
                              std::size_t{32}, std::size_t{1000}}) {
    EXPECT_EQ(hash_to_bucket(0, buckets), 0u);
    EXPECT_EQ(hash_to_bucket(~std::uint64_t{0}, buckets), buckets - 1);
    std::set<std::size_t> seen;
    for (std::uint64_t i = 0; i < 100'000; ++i) {
      const std::size_t b = hash_to_bucket(mix64(i), buckets);
      ASSERT_LT(b, buckets);
      seen.insert(b);
    }
    EXPECT_EQ(seen.size(), buckets);
  }
  const std::size_t huge = std::size_t{1} << 40;
  EXPECT_LT(hash_to_bucket(~std::uint64_t{0}, huge), huge);
}

}  // namespace
}  // namespace mcsd
