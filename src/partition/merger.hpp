// Merge policies for the two-stage MapReduce model (paper Fig. 6).
//
// "The Partition function is provided by the runtime system, while the
// Merge function needs to be programmed by the user to support different
// applications."  These are the user-side merge strategies our three
// benchmarks need; `fold_merge` is the generic hook for anything else.
//
// Two performance paths (M3R's observation that MapReduce wall-clock
// hides in avoidable re-sorting between stages):
//  * terminal merges detect already-key-sorted fragment outputs — e.g.
//    when the engine ran with Options.sort_output_by_key — and k-way
//    merge them instead of concatenating and re-sorting from scratch;
//    pass a ThreadPool to run the merge rounds in parallel;
//  * `sum_merge_into` / the *_incremental helpers fold one retiring
//    fragment's output into the running result, so the pipelined
//    out-of-core driver never accumulates all fragment outputs at once
//    and there is no terminal merge tail at all.
#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"
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

/// Flattens fragment outputs into one key-sorted vector.  Already-sorted
/// runs are k-way merged (pairwise rounds); anything else is sorted the
/// hard way.  With a pool, per-run sorts and each round's pair merges run
/// on it; `pool == nullptr` keeps everything on the caller's thread.
template <typename K, typename V>
std::vector<mr::KV<K, V>> gather_sorted(
    std::vector<std::vector<mr::KV<K, V>>> runs, ThreadPool* pool) {
  if (runs.empty()) return {};

  bool all_sorted = true;
  for (const auto& run : runs) all_sorted &= sorted_by_key(run);
  if (!all_sorted) {
    if (pool != nullptr) {
      pool->parallel_for_workers(runs.size(), [&](std::size_t i) {
        std::sort(runs[i].begin(), runs[i].end(),
                  [](const auto& a, const auto& b) { return a.key < b.key; });
      });
    } else {
      for (auto& run : runs) {
        std::sort(run.begin(), run.end(),
                  [](const auto& a, const auto& b) { return a.key < b.key; });
      }
    }
  }

  // Pairwise k-way merge rounds: ceil(log2 k) passes over the data, each
  // pass merging independent pairs (in parallel when a pool is given).
  while (runs.size() > 1) {
    const std::size_t pairs = runs.size() / 2;
    std::vector<std::vector<mr::KV<K, V>>> next(pairs + runs.size() % 2);
    const auto merge_pair = [&](std::size_t p) {
      next[p] = merge_two_sorted(std::move(runs[2 * p]),
                                 std::move(runs[2 * p + 1]));
    };
    if (pool != nullptr && pairs > 1) {
      pool->parallel_for_workers(pairs, merge_pair);
    } else {
      for (std::size_t p = 0; p < pairs; ++p) merge_pair(p);
    }
    if (runs.size() % 2 != 0) next.back() = std::move(runs.back());
    runs = std::move(next);
  }
  return std::move(runs.front());
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

/// Merges per-fragment outputs by summing values of equal keys — Word
/// Count: a word's global count is the sum of its per-fragment counts.
/// Output is sorted by key.  Give the engine's ThreadPool to parallelise
/// the k-way merge rounds.
template <typename K, typename V>
std::vector<mr::KV<K, V>> sum_merge(
    std::vector<std::vector<mr::KV<K, V>>> fragment_outputs,
    ThreadPool* pool = nullptr) {
  return detail::sum_adjacent(
      detail::gather_sorted(std::move(fragment_outputs), pool));
}

/// Merges by concatenation in fragment order — String Match (each match is
/// independent) and Matrix Multiplication (fragments cover disjoint output
/// rows).
template <typename K, typename V>
std::vector<mr::KV<K, V>> concat_merge(
    std::vector<std::vector<mr::KV<K, V>>> fragment_outputs) {
  std::vector<mr::KV<K, V>> merged;
  std::size_t total = 0;
  for (const auto& frag : fragment_outputs) total += frag.size();
  merged.reserve(total);
  for (auto& frag : fragment_outputs) {
    std::move(frag.begin(), frag.end(), std::back_inserter(merged));
  }
  return merged;
}

/// Generic merge: key-sorted gather (k-way when inputs arrive sorted),
/// then fold each equal-key run with `fold(key, span<values>) -> value`.
template <typename K, typename V, typename Fold>
std::vector<mr::KV<K, V>> fold_merge(
    std::vector<std::vector<mr::KV<K, V>>> fragment_outputs, const Fold& fold,
    ThreadPool* pool = nullptr) {
  std::vector<mr::KV<K, V>> all =
      detail::gather_sorted(std::move(fragment_outputs), pool);
  std::vector<mr::KV<K, V>> merged;
  std::vector<V> scratch;
  std::size_t i = 0;
  while (i < all.size()) {
    std::size_t j = i + 1;
    while (j < all.size() && all[j].key == all[i].key) ++j;
    scratch.clear();
    for (std::size_t k = i; k < j; ++k) scratch.push_back(std::move(all[k].value));
    V value = fold(all[i].key, std::span<const V>{scratch});
    merged.push_back(mr::KV<K, V>{std::move(all[i].key), std::move(value)});
    i = j;
  }
  return merged;
}

// ---------------------------------------------------------------------------
// Incremental merging: fold each fragment's output into the running
// result as the fragment retires, instead of accumulating everything for
// a terminal merge.  `running` stays key-sorted and combined throughout,
// so memory tracks unique keys and the merge cost is spread across the
// run (overlapping with the next fragment's prefetch) rather than paid
// as a single-threaded tail.
// ---------------------------------------------------------------------------

/// Folds one fragment's output into the running key-sorted, key-unique
/// result, summing equal keys.  `fresh` need not arrive sorted.  Key-sorted
/// engine output is already key-unique, so the first batch is moved into
/// an empty `running` without a copy.
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

/// The incremental-merge hook type used by TextJob (outofcore.hpp).
template <typename K, typename V>
using IncrementalMerge =
    std::function<void(std::vector<mr::KV<K, V>>&, std::vector<mr::KV<K, V>>&&)>;

/// Incremental form of sum_merge.
template <typename K, typename V>
IncrementalMerge<K, V> sum_incremental() {
  return [](std::vector<mr::KV<K, V>>& running,
            std::vector<mr::KV<K, V>>&& fresh) {
    sum_merge_into(running, std::move(fresh));
  };
}

/// Incremental form of concat_merge: append in fragment order (the first
/// batch is moved in whole).
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
