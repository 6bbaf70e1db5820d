// Word Count (WC) — the paper's first benchmark application.
//
// "It counts the frequency of occurrence for each word in a set of files.
// The Map tasks process different sections of the input files and return
// intermediate data <key, value> that consist of a word and a value of 1.
// Then the Reduce tasks add up the values for each identity word.
// Finally, the words are sorted and printed out in accordance with the
// frequency in decreasing order."  (Section V-A)
//
// A word is a maximal run of ASCII alphanumerics, lower-cased.  The spec
// carries a combine hook (sums map-side) so intermediate volume stays
// bounded; the paper's 3x-of-input footprint estimate is modelled in the
// simulator, while the functional engine enforces whatever budget the
// caller sets.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mapreduce/emitter.hpp"
#include "mapreduce/splitter.hpp"
#include "mapreduce/types.hpp"

namespace mcsd::apps {

using WordCount = mr::KV<std::string, std::uint64_t>;

struct WordCountSpec {
  using Key = std::string;
  using Value = std::uint64_t;

  void map(const mr::TextChunk& chunk, mr::Emitter<Key, Value>& emit) const;

  // Takes the word as a view so emit-time combining can fold against the
  // emitter's arena-stored key without materialising a std::string.
  Value combine(std::string_view /*word*/, std::span<const Value> counts) const {
    Value sum = 0;
    for (Value c : counts) sum += c;
    return sum;
  }

  Value reduce(const Key& word, std::span<const Value> counts) const {
    return combine(word, counts);
  }
};

/// Reference implementation: single-threaded hash-map count.
std::vector<WordCount> wordcount_sequential(std::string_view text);

/// Paper output order: frequency decreasing, ties by word ascending.
void sort_by_frequency_desc(std::vector<WordCount>& counts);

/// Puts the first min(n, size) entries of sort_by_frequency_desc's order
/// at the front of `counts`, in that order; the rest are left unordered.
void partial_sort_by_frequency_desc(std::vector<WordCount>& counts,
                                    std::size_t n);

/// Total number of word occurrences in `counts` (sum of values).
std::uint64_t total_occurrences(const std::vector<WordCount>& counts);

}  // namespace mcsd::apps
