#include "apps/stringmatch.hpp"

#include <algorithm>

#include "core/strings.hpp"

namespace mcsd::apps {

void StringMatchSpec::map(const mr::TextChunk& chunk,
                          mr::Emitter<Key, Value>& emit) const {
  const std::string_view text = chunk.text;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const std::string_view key = keys[k];
    const auto index = static_cast<Value>(k);
    // Lines hold no '\n', so such a key matches none of them.
    if (key.find('\n') != std::string_view::npos) continue;
    if (key.empty()) {
      for_each_line(text, chunk.offset, [&](std::string_view, Key offset) {
        emit.emit(offset, index);
      });
      continue;
    }
    // One scan of the whole chunk per key.  A hit lies inside one line
    // (the key has no '\n'): emit that line once, then resume after it.
    std::size_t pos = 0;
    while ((pos = find_substring(text, key, pos)) != std::string_view::npos) {
      const std::size_t prev_eol = text.rfind('\n', pos);
      const std::size_t line_start =
          prev_eol == std::string_view::npos ? 0 : prev_eol + 1;
      emit.emit(chunk.offset + line_start, index);
      const std::size_t eol = text.find('\n', pos + key.size());
      if (eol == std::string_view::npos) break;
      pos = eol + 1;
    }
  }
}

std::vector<Match> stringmatch_sequential(
    std::string_view text, const std::vector<std::string>& keys) {
  std::vector<Match> matches;
  for_each_line(text, 0, [&](std::string_view line, std::uint64_t offset) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (line.find(keys[k]) != std::string_view::npos) {
        matches.push_back(Match{offset, static_cast<std::uint32_t>(k)});
      }
    }
  });
  std::sort(matches.begin(), matches.end());
  return matches;
}

std::vector<Match> to_sorted_matches(const std::vector<MatchPair>& pairs) {
  std::vector<Match> matches;
  matches.reserve(pairs.size());
  for (const auto& kv : pairs) {
    matches.push_back(Match{kv.key, kv.value});
  }
  std::sort(matches.begin(), matches.end());
  return matches;
}

}  // namespace mcsd::apps
