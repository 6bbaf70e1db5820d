// Benchmark-owned tracing for the McSD per-layer report.
//
// Spans come only from the benchmark's own code: the wrapper around
// fam::Client::invoke, the TimedModule decorator around each preloaded
// module, and the benchmark's replays of each ask's pipeline.  They stay
// in memory and are written once, at exit, as chrome-trace JSON in the
// one-event-per-line shape tools/mcsd_trace reads.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/result.hpp"
#include "fam/module.hpp"

namespace mcsd::perfbench {

using Clock = std::chrono::steady_clock;

/// Decides whether an operation starting at a given instant is traced.
/// During the measurement window a traced run alternates untraced and
/// traced blocks, so both modes see the same host conditions and their
/// throughput difference is the tracing overhead.
class TraceSchedule {
 public:
  enum class Mode : std::uint8_t { kOff, kAlternate, kOn };

  void set(Mode mode, Clock::time_point origin = Clock::now()) {
    std::lock_guard lock{mutex_};
    mode_ = mode;
    origin_ = origin;
  }

  [[nodiscard]] bool active(Clock::time_point when) const {
    std::lock_guard lock{mutex_};
    switch (mode_) {
      case Mode::kOff: return false;
      case Mode::kOn: return true;
      case Mode::kAlternate: break;
    }
    const auto block = (when - origin_) / kBlock;
    return block % 2 == 1;
  }

 private:
  static constexpr std::chrono::milliseconds kBlock{500};
  mutable std::mutex mutex_;
  Mode mode_ = Mode::kOff;
  Clock::time_point origin_{};
};

struct Span {
  std::string category;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  std::uint32_t tid = 0;
  /// Joins the spans of one module run: the client-side invoke span and
  /// the module span carry the same hash of the ask's parameters.
  std::uint64_t run = 0;
};

/// In-memory span store, written out once at exit.
class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  void record(std::string_view category, std::string name,
              Clock::time_point start, Clock::time_point end,
              std::uint64_t run = 0);

  [[nodiscard]] std::size_t size() const;

  /// Writes {"traceEvents": [...]} with one "ph":"X" event per line.
  Status write_chrome_trace(const std::filesystem::path& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// FNV-1a of an ask's canonical parameter serialisation.
[[nodiscard]] std::uint64_t run_id(std::string_view params);

/// One module execution as the decorator saw it.
struct ModuleRun {
  Clock::time_point start;
  double seconds = 0.0;
};

/// fam::Module decorator that times every invoke of the wrapped module.
/// It forwards name() and cache_inputs() unchanged, so the daemon's
/// result cache and coalescing treat it exactly like the inner module.
class TimedModule final : public fam::Module {
 public:
  TimedModule(std::shared_ptr<fam::Module> inner, const TraceSchedule& schedule,
              SpanRecorder& spans)
      : inner_(std::move(inner)), schedule_(schedule), spans_(spans) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  Result<KeyValueMap> invoke(const KeyValueMap& params) override;
  [[nodiscard]] std::optional<std::vector<std::filesystem::path>> cache_inputs(
      const KeyValueMap& params) const override {
    return inner_->cache_inputs(params);
  }

  /// Seconds of the latest run with exactly these canonical params.
  [[nodiscard]] std::optional<double> seconds_for(
      const std::string& params) const;
  /// Every run so far, in completion order.
  [[nodiscard]] std::vector<ModuleRun> runs() const;

 private:
  std::shared_ptr<fam::Module> inner_;
  const TraceSchedule& schedule_;
  SpanRecorder& spans_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, double> by_params_;
  std::vector<ModuleRun> runs_;
};

/// p-th percentile (0..100) by nearest rank over `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double pct);

}  // namespace mcsd::perfbench
