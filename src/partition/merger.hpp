// Merge policies for the two-stage MapReduce model (paper Fig. 6).
//
// "The Partition function is provided by the runtime system, while the
// Merge function needs to be programmed by the user to support different
// applications."  A merge here is an incremental fold: the out-of-core
// driver hands it each retiring fragment's output together with the
// running result, so all fragment outputs never sit in memory at once
// and there is no merge tail after the last fragment.  These are the
// folds our benchmarks need: `sum_incremental` (Word Count) and
// `concat_incremental` (String Match, Matrix Multiplication: fragment
// order).
//
// Order contract of the sum fold: the running result is key-unique and
// in *hash order* — ascending (KeyHash<K>(key), key), mr::HashThenKeyLess
// over recomputed hashes.  That is the order the engine already emits
// when it does not sort by key: reduce buckets are a monotone function
// of the hash (hash_to_bucket) and each bucket is sorted with
// HashThenKeyLess.  So engine output folds in one linear merge on 64-bit
// hashes, with no sort per batch on either side — M3R's point about
// avoidable sorting between stages.  Output in any other order is sorted
// into hash order first.  Callers that need key order sort once, after
// the last fold.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "core/hash.hpp"
#include "mapreduce/sorter.hpp"
#include "mapreduce/types.hpp"

namespace mcsd::part {

namespace detail {

/// Puts `pairs` in hash order with equal keys summed, and returns each
/// pair's hash.  Hash-ordered, key-unique input (engine output) costs one
/// hash per key and is left in place.
template <typename K, typename V>
std::vector<std::uint64_t> to_hash_order(std::vector<mr::KV<K, V>>& pairs) {
  std::vector<std::uint64_t> hashes(pairs.size());
  bool ordered = true;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    hashes[i] = KeyHash<K>{}(pairs[i].key);
    if (i > 0 && ordered) {
      ordered = hashes[i - 1] < hashes[i] ||
                (hashes[i - 1] == hashes[i] && pairs[i - 1].key < pairs[i].key);
    }
  }
  if (ordered) return hashes;

  std::vector<mr::HKV<K, V>> hashed;
  hashed.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    hashed.push_back({std::move(pairs[i].key), std::move(pairs[i].value),
                      hashes[i]});
  }
  std::sort(hashed.begin(), hashed.end(), mr::HashThenKeyLess{});
  pairs.clear();
  hashes.clear();
  for (auto& kv : hashed) {
    if (!pairs.empty() && hashes.back() == kv.hash && pairs.back().key == kv.key) {
      pairs.back().value += kv.value;
    } else {
      pairs.push_back({std::move(kv.key), std::move(kv.value)});
      hashes.push_back(kv.hash);
    }
  }
  return hashes;
}

}  // namespace detail

/// Folds one fragment's output into the running hash-ordered, key-unique
/// result, summing equal keys — Word Count: a word's global count is the
/// sum of its per-fragment counts.  `fresh` may arrive in any order.  One
/// pass over both adds the counts of keys already present in place and
/// notes where each new key goes; the new keys are then spliced in from
/// the back, so a batch that brings no new words moves nothing.  The
/// first batch is moved into an empty `running` without a copy.
template <typename K, typename V>
void sum_merge_into(std::vector<mr::KV<K, V>>& running,
                    std::vector<mr::KV<K, V>> fresh) {
  if (fresh.empty()) return;
  const std::vector<std::uint64_t> fresh_hashes = detail::to_hash_order(fresh);
  if (running.empty()) {
    running = std::move(fresh);
    return;
  }

  // (position in running, index in fresh) of each key running lacks.
  std::vector<std::pair<std::size_t, std::size_t>> inserts;
  const std::size_t n = running.size();
  std::size_t i = 0;
  for (std::size_t j = 0; j < fresh.size(); ++j) {
    // Skip the running keys ordered before fresh[j].  Once the vocabulary
    // has been seen, fresh[j]'s key is usually the next one: found by one
    // key comparison, without hashing the running side at all.
    const std::uint64_t h = fresh_hashes[j];
    bool held = false;
    for (; i < n; ++i) {
      if (running[i].key == fresh[j].key) {
        held = true;
        break;
      }
      const std::uint64_t running_hash = KeyHash<K>{}(running[i].key);
      if (running_hash > h ||
          (running_hash == h && fresh[j].key < running[i].key)) {
        break;
      }
    }
    if (held) {
      running[i++].value += fresh[j].value;
    } else {
      inserts.emplace_back(i, j);
    }
  }
  if (inserts.empty()) return;

  running.resize(n + inserts.size());
  auto kept_end = running.begin() + static_cast<std::ptrdiff_t>(n);
  auto out = running.end();
  for (auto it = inserts.rbegin(); it != inserts.rend(); ++it) {
    const auto at = running.begin() + static_cast<std::ptrdiff_t>(it->first);
    out = std::move_backward(at, kept_end, out);
    *--out = std::move(fresh[it->second]);
    kept_end = at;
  }
}

/// The merge hook type used by TextJob (outofcore.hpp): folds one
/// fragment's output into the running result.
template <typename K, typename V>
using IncrementalMerge =
    std::function<void(std::vector<mr::KV<K, V>>&, std::vector<mr::KV<K, V>>&&)>;

/// Sums equal keys across fragments (sum_merge_into); output in hash
/// order.
template <typename K, typename V>
IncrementalMerge<K, V> sum_incremental() {
  return [](std::vector<mr::KV<K, V>>& running,
            std::vector<mr::KV<K, V>>&& fresh) {
    sum_merge_into(running, std::move(fresh));
  };
}

/// Concatenates in fragment order — String Match (each match is
/// independent) and Matrix Multiplication (fragments cover disjoint
/// output rows).  The first batch is moved in whole.
template <typename K, typename V>
IncrementalMerge<K, V> concat_incremental() {
  return [](std::vector<mr::KV<K, V>>& running,
            std::vector<mr::KV<K, V>>&& fresh) {
    if (running.empty()) {
      running = std::move(fresh);
      return;
    }
    running.insert(running.end(), std::make_move_iterator(fresh.begin()),
                   std::make_move_iterator(fresh.end()));
  };
}

}  // namespace mcsd::part
