// String Match (SM) — the paper's second benchmark application.
//
// "Each Map searches one line in the 'encrypt' file to check whether the
// target string from a 'keys' file is in the line.  Neither sort or the
// reduce stage is required."  (Section V-A)
//
// The spec has *no* reduce member, so the engine runs its identity path —
// matched pairs stream straight to the output, exercising the runtime's
// reduce-less mode exactly as the paper describes.
//
// A match is encoded as key = absolute byte offset of the matching line,
// value = index of the key string that matched.  One line can match
// several keys (one pair per key).
//
// The map scans each chunk once per key with find_substring (16 candidate
// positions per step) rather than searching each line for each key: a hit
// emits its line once and the scan resumes at the next line.  Pairs come
// out key-major; the multiset equals stringmatch_sequential's, which keeps
// the literal per-line search as the reference.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mapreduce/emitter.hpp"
#include "mapreduce/splitter.hpp"
#include "mapreduce/types.hpp"

namespace mcsd::apps {

/// One match: which line (by byte offset) contained which key.
struct Match {
  std::uint64_t line_offset = 0;
  std::uint32_t key_index = 0;

  friend bool operator==(const Match&, const Match&) = default;
  friend auto operator<=>(const Match&, const Match&) = default;
};

using MatchPair = mr::KV<std::uint64_t, std::uint32_t>;

struct StringMatchSpec {
  using Key = std::uint64_t;    ///< absolute byte offset of the line
  using Value = std::uint32_t;  ///< index into `keys`

  /// Target strings (the "keys" file).  Views must outlive the run.
  std::vector<std::string> keys;

  /// Chunks must be newline-aligned (mr::split_lines) so every line is
  /// seen exactly once.
  void map(const mr::TextChunk& chunk, mr::Emitter<Key, Value>& emit) const;
};

/// Reference implementation: single-threaded line scan.
std::vector<Match> stringmatch_sequential(std::string_view text,
                                          const std::vector<std::string>& keys);

/// Converts engine output pairs into Match records sorted by
/// (line_offset, key_index) for comparison against the reference.
std::vector<Match> to_sorted_matches(const std::vector<MatchPair>& pairs);

}  // namespace mcsd::apps
