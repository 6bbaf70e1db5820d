// The McSD benchmark workloads (see README.md for why each exists).
//
// Every workload stands up an in-process fam::Daemon on a channel
// directory inside --work-dir and drives it with real fam::Client::invoke
// calls in a closed loop: each caller thread blocks in invoke until its
// reply arrives, as a McSD host does.  Inputs are generated from the
// seed; the daemon only ever sees the generated files.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace mcsd::perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics, no benchmark spans.  true: per-layer
  /// metrics from the decorated modules, span recording and replays.
  bool trace = false;
  /// Tiny inputs, for the benchmark's own tests.
  bool quick = false;
  std::filesystem::path work_dir;
  /// Chrome-trace span file written by a traced run.
  std::filesystem::path trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::uint64_t attempted = 0;  ///< asks issued in the measurement window
  std::uint64_t lost = 0;       ///< asks that returned an error
  std::uint64_t wrong = 0;      ///< replies matching no current version
  std::uint64_t duplicated = 0; ///< replies the daemon wrote more than once
  std::vector<Metric> metrics;
  /// Human-readable report lines, printed before the result line.
  std::vector<std::string> notes;

  [[nodiscard]] std::uint64_t failed() const {
    return lost + wrong + duplicated;
  }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload end to end.  Throws std::runtime_error when set-up
/// fails or a warm-up reply is wrong.
RunReport run_workload(const RunConfig& config);

}  // namespace mcsd::perfbench
