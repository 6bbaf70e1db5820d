#include "dataset.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "apps/datagen.hpp"
#include "apps/stringmatch.hpp"
#include "apps/wordcount.hpp"
#include "core/io.hpp"
#include "core/random.hpp"
#include "core/strings.hpp"

namespace mcsd::perfbench {

namespace fs = std::filesystem;

namespace {

bool is_space(char c) { return c == ' ' || c == '\n'; }

/// Whole words of at least five letters drawn at random offsets, so
/// frequent words are likelier keys, as in a real query log.
std::vector<std::string> pick_words(std::string_view text, Rng& rng,
                                    std::size_t count) {
  std::vector<std::string> words;
  for (int attempt = 0; words.size() < count && attempt < 10'000; ++attempt) {
    std::size_t pos = rng.next_below(text.size());
    while (pos < text.size() && !is_space(text[pos])) ++pos;
    while (pos < text.size() && is_space(text[pos])) ++pos;
    std::size_t end = pos;
    while (end < text.size() && !is_space(text[end])) ++end;
    std::string word{text.substr(pos, end - pos)};
    if (word.size() < 5 ||
        std::find(words.begin(), words.end(), word) != words.end()) {
      continue;
    }
    words.push_back(std::move(word));
  }
  if (words.empty()) throw std::runtime_error("corpus too small for keys");
  return words;
}

std::string join_keys(const std::vector<std::string>& keys) {
  std::string csv;
  for (const auto& key : keys) {
    if (!csv.empty()) csv += ',';
    csv += key;
  }
  return csv;
}

KeyValueMap wordcount_expected(std::string_view text) {
  auto counts = apps::wordcount_sequential(text);
  apps::sort_by_frequency_desc(counts);
  KeyValueMap out;
  out.set_uint("unique", counts.size());
  out.set_uint("total", apps::total_occurrences(counts));
  for (std::size_t i = 0; i < std::min<std::size_t>(5, counts.size()); ++i) {
    out.set("top" + std::to_string(i), counts[i].key);
    out.set_uint("top" + std::to_string(i) + "_count", counts[i].value);
  }
  return out;
}

/// Fills expected `matches` for every stringmatch kind in `kinds` over
/// `text` in one reference pass: the key sets are concatenated and each
/// match is credited to the kind owning its key index.
void stringmatch_expected(std::string_view text, std::vector<AskKind*> kinds,
                          std::size_t version) {
  std::vector<std::string> keys;
  std::vector<std::size_t> owner;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const std::string csv = kinds[i]->params.get_or("keys", "");
    for (const auto key : split(csv, ',')) {
      keys.emplace_back(key);
      owner.push_back(i);
    }
  }
  std::vector<std::uint64_t> matches(kinds.size(), 0);
  for (const apps::Match& m : apps::stringmatch_sequential(text, keys)) {
    ++matches[owner[m.key_index]];
  }
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    kinds[i]->expected[version].set_uint("matches", matches[i]);
  }
}

void write_or_throw(const fs::path& path, std::string_view text) {
  if (Status s = write_file(path, text); !s) {
    throw std::runtime_error("cannot write " + path.string() + ": " +
                             s.to_string());
  }
}

KeyValueMap base_params(const Shape& shape, const fs::path& input) {
  KeyValueMap params;
  params.set("input", input.string());
  params.set_uint("workers", kWorkers);
  if (shape.partition_size != 0) {
    params.set_uint("partition_size", shape.partition_size);
  }
  if (shape.throttle_mibps > 0.0) {
    params.set_double("read_throttle_mibps", shape.throttle_mibps);
  }
  return params;
}

/// One generated input file with the ask kinds that read it.
struct Generated {
  std::unique_ptr<Input> input = std::make_unique<Input>();
  std::vector<AskKind> kinds;
};

/// Corpus `j`: a zipf text (two versions when the shape swaps them), a
/// wordcount kind, and `key_sets` stringmatch kinds unless stringmatch
/// scans a separate line file.
Generated generate_corpus(const Shape& shape, std::uint64_t seed,
                          const fs::path& dir, std::size_t j) {
  Generated out;
  Input& input = *out.input;
  input.path = dir / ("corpus_" + std::to_string(j) + ".txt");
  apps::CorpusOptions corpus;
  corpus.bytes = shape.corpus_bytes;
  corpus.seed = mix(seed, 100 + j);
  std::array<std::string, 2> texts{apps::generate_corpus(corpus), ""};
  if (shape.versions) {
    // The revised version appends a copy of its first ~1/16: every count
    // and the file size change, the vocabulary does not.
    const std::size_t cut = texts[0].find('\n', texts[0].size() / 16);
    texts[1] = texts[0] + texts[0].substr(0, cut + 1);
  }

  AskKind wordcount{"wordcount", base_params(shape, input.path), 0, {}};
  wordcount.params.set_uint("top", 5);
  out.kinds.push_back(std::move(wordcount));
  if (shape.line_file_bytes == 0) {
    Rng key_rng{mix(seed, 300 + j)};
    for (std::size_t k = 0; k < shape.key_sets; ++k) {
      AskKind sm{"stringmatch", base_params(shape, input.path), 0, {}};
      sm.params.set("keys", join_keys(pick_words(texts[0], key_rng, 4)));
      out.kinds.push_back(std::move(sm));
    }
  }
  std::vector<AskKind*> sm_kinds;
  for (std::size_t k = 1; k < out.kinds.size(); ++k) {
    sm_kinds.push_back(&out.kinds[k]);
  }
  for (std::size_t v = 0; v < (shape.versions ? 2u : 1u); ++v) {
    out.kinds[0].expected[v] = wordcount_expected(texts[v]);
    if (!sm_kinds.empty()) stringmatch_expected(texts[v], sm_kinds, v);
    input.bytes[v] = texts[v].size();
    if (shape.versions) {
      input.version_paths[v] =
          dir / ("corpus_" + std::to_string(j) + ".v" + std::to_string(v));
      write_or_throw(input.version_paths[v], texts[v]);
    }
  }
  write_or_throw(input.path, texts[0]);
  return out;
}

/// The stringmatch "encrypt" line file with its planted keys.
Generated generate_lines(const Shape& shape, std::uint64_t seed,
                         const fs::path& dir) {
  Generated out;
  out.input->path = dir / "lines.txt";
  apps::LineFileOptions lines;
  lines.bytes = shape.line_file_bytes;
  lines.seed = mix(seed, 200);
  std::string text = apps::generate_line_file(lines);
  apps::KeysOptions keys;
  keys.seed = mix(seed, 201);
  AskKind sm{"stringmatch", base_params(shape, out.input->path), 0, {}};
  sm.params.set("keys", join_keys(apps::generate_and_plant_keys(text, keys)));
  out.kinds.push_back(std::move(sm));
  stringmatch_expected(text, {&out.kinds[0]}, 0);
  out.input->bytes[0] = text.size();
  write_or_throw(out.input->path, text);
  return out;
}

}  // namespace

Shape shape_for(const std::string& name, bool quick) {
  Shape s;
  if (name == "serve_zipf") {
    s.callers = 4;
    s.corpora = 16;
    s.corpus_bytes = quick ? 16 * 1024 : kMiB;
    s.versions = true;
    s.dispatch_threads = 2;
    s.write_every = 50;
  } else if (name == "scan_warm") {
    s.corpora = 4;
    s.corpus_bytes = quick ? 256 * 1024 : 16 * kMiB;
    s.key_sets = 8;
    s.pool_bytes = quick ? 8 * kMiB : 128 * kMiB;
    s.nonce = true;
  } else if (name == "scan_ooc") {
    s.corpora = 1;
    s.corpus_bytes = quick ? kMiB : 32 * kMiB;
    s.line_file_bytes = quick ? kMiB : 32 * kMiB;
    s.pool_bytes = quick ? kMiB : 8 * kMiB;
    s.partition_size = quick ? 256 * 1024 : 4 * kMiB;
    // The Table I disk model (bench_record's out-of-core default).
    s.throttle_mibps = 150.0;
    s.nonce = true;
  } else {
    throw std::runtime_error("unknown workload: " + name);
  }
  return s;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return SplitMix64{seed ^ (salt * 0xD1B54A32D192ED03ULL)}.next();
}

// Inputs are independent, so a few threads generate them side by side.
Dataset generate(const Shape& shape, std::uint64_t seed, const fs::path& dir) {
  fs::create_directories(dir);
  const std::size_t tasks =
      shape.corpora + (shape.line_file_bytes != 0 ? 1 : 0);
  std::vector<Generated> generated(tasks);
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::string error;
  std::vector<std::thread> threads;
  const std::size_t n_threads = std::min<std::size_t>(
      tasks, std::max(1u, std::thread::hardware_concurrency()));
  for (std::size_t t = 0; t < n_threads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < tasks; i = next++) {
        try {
          generated[i] = i < shape.corpora
                             ? generate_corpus(shape, seed, dir, i)
                             : generate_lines(shape, seed, dir);
        } catch (const std::exception& e) {
          std::lock_guard lock{error_mutex};
          error = e.what();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!error.empty()) throw std::runtime_error(error);

  Dataset data;
  for (Generated& g : generated) {
    for (AskKind& kind : g.kinds) {
      kind.input = data.inputs.size();
      (kind.module == "wordcount" ? data.wordcount_kinds
                                  : data.stringmatch_kinds)
          .push_back(data.kinds.size());
      data.kinds.push_back(std::move(kind));
    }
    data.inputs.push_back(std::move(g.input));
  }
  return data;
}

void swap_version(Input& input) {
  std::lock_guard lock{input.write_mutex};
  const std::uint64_t g = input.generation.fetch_add(1) + 1;  // odd: in flight
  const std::size_t next = ((g - 1) / 2 + 1) % 2;
  fs::path tmp = input.path;
  tmp += ".swap";
  fs::copy_file(input.version_paths[next], tmp,
                fs::copy_options::overwrite_existing);
  fs::rename(tmp, input.path);
  input.generation.fetch_add(1);
}

int match_version(const AskKind& kind, const Input& input,
                  const KeyValueMap& reply, std::uint64_t g0,
                  std::uint64_t g1) {
  const auto matches = [&](std::size_t v) {
    for (const auto& [key, value] : kind.expected[v].entries()) {
      if (reply.get(key) != value) return false;
    }
    return true;
  };
  if (input.version_paths[0].empty()) return matches(0) ? 0 : -1;
  if (g0 == g1 && g0 % 2 == 0) {
    const std::size_t v = (g0 / 2) % 2;
    return matches(v) ? static_cast<int>(v) : -1;
  }
  for (std::size_t v = 0; v < 2; ++v) {
    if (matches(v)) return static_cast<int>(v);
  }
  return -1;
}

}  // namespace mcsd::perfbench
