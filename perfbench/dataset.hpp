// Inputs, ask kinds and reference replies of the McSD benchmark.
//
// Each workload's inputs are generated from the seed: zipf text corpora
// (optionally in two versions a run swaps between) and a stringmatch line
// file with planted keys.  Every distinct ask carries the reply fields the
// sequential reference implementations computed for each input version.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace mcsd::perfbench {

inline constexpr std::uint64_t kMiB = 1ull << 20;
/// Module workers per run.  With serve_zipf's two dispatch threads that
/// is one worker per core of a 4-core storage node.
inline constexpr std::size_t kWorkers = 2;

/// The shape of one workload.  Sizes are part of the definition: the
/// ratio of working set to each cache is what each workload stresses.
struct Shape {
  int callers = 1;
  std::size_t corpora = 1;
  std::uint64_t corpus_bytes = 0;
  /// Two versions per corpus; callers swap them in during the run.
  bool versions = false;
  /// 0: stringmatch scans the corpora.  Otherwise stringmatch scans one
  /// generated line file of this size with planted keys.
  std::uint64_t line_file_bytes = 0;
  std::size_t key_sets = 1;  ///< stringmatch key sets per corpus
  std::size_t pool_bytes = 0;  ///< 0 keeps the daemon default
  std::size_t dispatch_threads = 1;
  std::uint64_t partition_size = 0;
  double throttle_mibps = 0.0;
  /// Every ask carries a fresh nonce param: an honest cache miss.
  bool nonce = false;
  /// Every Nth op of each caller swaps a corpus version; 0 = read-only.
  int write_every = 0;
};

/// One input file.  A versioned corpus is swapped between its two
/// pre-generated versions by atomic rename; `generation` is odd while a
/// swap is in flight, so a reader can tell which versions were current
/// during its ask.
struct Input {
  std::filesystem::path path;
  std::array<std::filesystem::path, 2> version_paths;
  std::array<std::uint64_t, 2> bytes{};
  std::mutex write_mutex;
  std::atomic<std::uint64_t> generation{0};
};

/// One distinct ask: a module and its fixed params.  `expected` holds the
/// reply fields the reference computed for each version of the input.
struct AskKind {
  std::string module;
  KeyValueMap params;
  std::size_t input = 0;
  std::array<KeyValueMap, 2> expected;
};

struct Dataset {
  std::vector<std::unique_ptr<Input>> inputs;
  std::vector<AskKind> kinds;
  std::vector<std::size_t> wordcount_kinds;
  std::vector<std::size_t> stringmatch_kinds;
};

/// The shape of workload `name`; tiny inputs when `quick`.  Throws on an
/// unknown name.
Shape shape_for(const std::string& name, bool quick);

/// Derives an independent stream seed from the run seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

/// Generates every input from the seed under `dir`, with the reference
/// reply of every ask kind for every version.
Dataset generate(const Shape& shape, std::uint64_t seed,
                 const std::filesystem::path& dir);

/// Atomically replaces `input` with its other version (copy + rename, so
/// the live path gets a fresh inode and mtime).
void swap_version(Input& input);

/// The version a reply must match, given the input's generation before
/// (`g0`) and after (`g1`) the ask: exact when no swap overlapped it,
/// either otherwise.  Returns the matched version or -1.
int match_version(const AskKind& kind, const Input& input,
                  const KeyValueMap& reply, std::uint64_t g0,
                  std::uint64_t g1);

}  // namespace mcsd::perfbench
