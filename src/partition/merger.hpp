// Merge policies for the two-stage MapReduce model (paper Fig. 6).
//
// "The Partition function is provided by the runtime system, while the
// Merge function needs to be programmed by the user to support different
// applications."  A merge here is an incremental fold: the out-of-core
// driver hands it each retiring fragment's output together with the
// running result, so all fragment outputs never sit in memory at once
// and there is no merge tail after the last fragment.  These are the
// folds our benchmarks need: `sum_incremental` (Word Count; the running
// result stays key-sorted and key-unique, so key-sorted engine output
// folds in one linear pass with no re-sort — M3R's point about
// avoidable sorting between stages) and `concat_incremental` (String
// Match, Matrix Multiplication: fragment order).
#pragma once

#include <algorithm>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "mapreduce/types.hpp"

namespace mcsd::part {

namespace detail {

/// One pass: true when keys strictly increase — the pairs are sorted *and*
/// key-unique, so there is nothing for sum_adjacent to fold.
template <typename K, typename V>
bool strictly_increasing_by_key(const std::vector<mr::KV<K, V>>& pairs) {
  return std::adjacent_find(pairs.begin(), pairs.end(),
                            [](const auto& a, const auto& b) {
                              return !(a.key < b.key);
                            }) == pairs.end();
}

template <typename K, typename V>
bool sorted_by_key(const std::vector<mr::KV<K, V>>& pairs) {
  return std::is_sorted(
      pairs.begin(), pairs.end(),
      [](const auto& a, const auto& b) { return a.key < b.key; });
}

template <typename K, typename V>
std::vector<mr::KV<K, V>> merge_two_sorted(std::vector<mr::KV<K, V>> a,
                                           std::vector<mr::KV<K, V>> b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  std::vector<mr::KV<K, V>> out;
  out.reserve(a.size() + b.size());
  std::merge(std::make_move_iterator(a.begin()),
             std::make_move_iterator(a.end()),
             std::make_move_iterator(b.begin()),
             std::make_move_iterator(b.end()), std::back_inserter(out),
             [](const auto& x, const auto& y) { return x.key < y.key; });
  return out;
}

/// Collapses adjacent equal-key runs in a key-sorted vector by summing.
template <typename K, typename V>
std::vector<mr::KV<K, V>> sum_adjacent(std::vector<mr::KV<K, V>> sorted) {
  std::vector<mr::KV<K, V>> merged;
  for (auto& kv : sorted) {
    if (!merged.empty() && merged.back().key == kv.key) {
      merged.back().value += kv.value;
    } else {
      merged.push_back(std::move(kv));
    }
  }
  return merged;
}

}  // namespace detail

/// Folds one fragment's output into the running key-sorted, key-unique
/// result, summing equal keys — Word Count: a word's global count is the
/// sum of its per-fragment counts.  `fresh` need not arrive sorted.
/// Key-sorted engine output is already key-unique, so the first batch is
/// moved into an empty `running` without a copy.
template <typename K, typename V>
void sum_merge_into(std::vector<mr::KV<K, V>>& running,
                    std::vector<mr::KV<K, V>> fresh) {
  if (fresh.empty()) return;
  if (!detail::strictly_increasing_by_key(fresh)) {
    if (!detail::sorted_by_key(fresh)) {
      std::sort(fresh.begin(), fresh.end(),
                [](const auto& a, const auto& b) { return a.key < b.key; });
    }
    fresh = detail::sum_adjacent(std::move(fresh));
  }
  if (running.empty()) {
    running = std::move(fresh);
    return;
  }
  running = detail::sum_adjacent(
      detail::merge_two_sorted(std::move(running), std::move(fresh)));
}

/// The merge hook type used by TextJob (outofcore.hpp): folds one
/// fragment's output into the running result.
template <typename K, typename V>
using IncrementalMerge =
    std::function<void(std::vector<mr::KV<K, V>>&, std::vector<mr::KV<K, V>>&&)>;

/// Sums equal keys across fragments (sum_merge_into); output key-sorted.
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
