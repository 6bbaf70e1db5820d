#include "apps/wordcount.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <unordered_map>

#include "core/hash.hpp"
#include "core/strings.hpp"

namespace mcsd::apps {

namespace {
inline char lower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

/// The emitter key of a word token of up to 16 bytes, built in registers
/// (lower_short_word); `end` is the end of the chunk's view.
mr::StringKey short_word_key(std::string_view token, const char* end) {
  const ShortWord w = lower_short_word(
      token.data(), token.size(), static_cast<std::size_t>(end - token.data()));
  return mr::StringKey::of_words(w.lo, w.hi, token.size());
}
}  // namespace

// The map reads the raw chunk once; nothing copies or lower-cases it as a
// whole.  for_each_word finds word runs from 64-byte class bitmasks (the
// classifier is case-insensitive), and each token of up to 16 bytes
// becomes its emitter key in registers: one 16-byte load, lower-cased by
// the uppercase-class mask and zero-padded by a lane-index mask into two
// words, which are both the key's hash input and its inline stored form.
// The key is hashed and probed at once, and a combine hit folds through
// this spec inline.  Longer tokens (none in the benchmark corpora) are
// lower-cased into a buffer and emitted through the generic path.  Output
// is byte-identical to the scalar loop wordcount_sequential keeps as the
// reference (pinned by property tests).
void WordCountSpec::map(const mr::TextChunk& chunk,
                        mr::Emitter<Key, Value>& emit) const {
  const char* const end = chunk.text.data() + chunk.text.size();
  thread_local std::string long_word;
  const auto emit_long = [&](std::string_view token) {
    long_word.resize(token.size());
    std::transform(token.begin(), token.end(), long_word.begin(), lower);
    emit.emit(std::string_view{long_word}, 1);
  };

  mr::EmitAttribution* attr = emit.attribution();
  if (attr == nullptr) {
    for_each_word(chunk.text, [&](std::string_view token) {
      if (token.size() > kShortKeyBytes) {
        emit_long(token);
      } else {
        emit.emit(short_word_key(token, end), 1, *this);
      }
    });
    return;
  }

  // Attributed runs (Options.attribute_map_cycles) do the same steps
  // staged in 64-key batches, so the emitter can clock hashing and
  // probing apart; tokenize is the rest of this call (see
  // EmitAttribution).  The staging costs a little over the fused loop
  // above, so the three parts sum to slightly more than a plain run's map.
  using Clock = std::chrono::steady_clock;
  const auto map_start = Clock::now();
  const std::uint64_t emit_ns_before = attr->hash_ns + attr->probe_ns;
  std::array<mr::StringKey, mr::Emitter<Key, Value>::kMaxBatch> batch;
  std::size_t filled = 0;
  for_each_word(chunk.text, [&](std::string_view token) {
    if (token.size() > kShortKeyBytes) {
      emit_long(token);
      return;
    }
    batch[filled++] = short_word_key(token, end);
    if (filled == batch.size()) {
      emit.emit_batch(std::span<const mr::StringKey>{batch.data(), filled}, 1,
                      *this);
      filled = 0;
    }
  });
  if (filled != 0) {
    emit.emit_batch(std::span<const mr::StringKey>{batch.data(), filled}, 1,
                    *this);
  }
  const auto total_ns = static_cast<std::uint64_t>(
      std::chrono::nanoseconds(Clock::now() - map_start).count());
  const std::uint64_t emit_ns = attr->hash_ns + attr->probe_ns - emit_ns_before;
  attr->tokenize_ns += total_ns > emit_ns ? total_ns - emit_ns : 0;
}

std::vector<WordCount> wordcount_sequential(std::string_view text) {
  std::unordered_map<std::string, std::uint64_t> counts;
  std::size_t i = 0;
  std::string word;
  while (i < text.size()) {
    while (i < text.size() && !is_word_char(text[i])) ++i;
    word.clear();
    while (i < text.size() && is_word_char(text[i])) {
      word.push_back(lower(text[i]));
      ++i;
    }
    if (!word.empty()) ++counts[word];
  }
  std::vector<WordCount> out;
  out.reserve(counts.size());
  for (auto& [word_key, count] : counts) {
    out.push_back(WordCount{word_key, count});
  }
  std::sort(out.begin(), out.end(),
            [](const WordCount& a, const WordCount& b) { return a.key < b.key; });
  return out;
}

namespace {
// A total order over key-unique counts, so a partial sort's prefix equals
// the full sort's.
bool frequency_desc_less(const WordCount& a, const WordCount& b) {
  if (a.value != b.value) return a.value > b.value;
  return a.key < b.key;
}
}  // namespace

void sort_by_frequency_desc(std::vector<WordCount>& counts) {
  std::sort(counts.begin(), counts.end(), frequency_desc_less);
}

void partial_sort_by_frequency_desc(std::vector<WordCount>& counts,
                                    std::size_t n) {
  const auto mid = counts.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(n, counts.size()));
  std::partial_sort(counts.begin(), mid, counts.end(), frequency_desc_less);
}

std::uint64_t total_occurrences(const std::vector<WordCount>& counts) {
  std::uint64_t total = 0;
  for (const auto& kv : counts) total += kv.value;
  return total;
}

}  // namespace mcsd::apps
