#include "apps/wordcount.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <unordered_map>

#include "core/strings.hpp"

namespace mcsd::apps {

namespace {
inline char lower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}
}  // namespace

// The map inner loop is fully SWAR/batched: lower-case the chunk once
// (8 bytes per step), extract word runs from 64-byte class bitmasks, and
// hand tokens to the emitter in batches so word-at-a-time key hashes
// overlap across tokens and combiner probes overlap their cache misses.
// The batch carries this spec, so a combine hit folds inline.  Output is
// byte-identical to the scalar loop wordcount_sequential keeps as the
// reference (pinned by property tests).
void WordCountSpec::map(const mr::TextChunk& chunk,
                        mr::Emitter<Key, Value>& emit) const {
  using Clock = std::chrono::steady_clock;
  mr::EmitAttribution* attr = emit.attribution();
  const auto map_start = attr ? Clock::now() : Clock::time_point{};
  const std::uint64_t emit_ns_before =
      attr ? attr->hash_ns + attr->probe_ns : 0;

  // One lower-case pass over the whole chunk instead of per-token case
  // fixing; the buffer is worker-private and reused across chunks.  Views
  // into it only need to live through the emit calls below — the emitter
  // copies first-seen keys into its arena.
  thread_local std::vector<char> lowered;
  to_lower_ascii(chunk.text, lowered);
  const std::string_view text{lowered.data(), lowered.size()};

  std::array<std::string_view, mr::Emitter<Key, Value>::kMaxBatch> batch;
  std::size_t filled = 0;
  for_each_word(text, [&](std::string_view token) {
    batch[filled++] = token;
    if (filled == batch.size()) {
      emit.emit_batch(std::span<const std::string_view>{batch.data(), filled},
                      1, *this);
      filled = 0;
    }
  });
  if (filled != 0) {
    emit.emit_batch(std::span<const std::string_view>{batch.data(), filled},
                    1, *this);
  }

  if (attr != nullptr) {
    // Tokenize time = this call's wall time minus what the emitter just
    // booked to hashing and probing.
    const auto total_ns = static_cast<std::uint64_t>(
        std::chrono::nanoseconds(Clock::now() - map_start).count());
    const std::uint64_t emit_ns =
        attr->hash_ns + attr->probe_ns - emit_ns_before;
    attr->tokenize_ns += total_ns > emit_ns ? total_ns - emit_ns : 0;
  }
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
