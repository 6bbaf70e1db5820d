#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "core/io.hpp"

namespace mcsd::perfbench {

namespace {

std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void SpanRecorder::record(std::string_view category, std::string name,
                          Clock::time_point start, Clock::time_point end,
                          std::uint64_t run) {
  Span span{std::string{category}, std::move(name), start, end,
            this_thread_index(), run};
  std::lock_guard lock{mutex_};
  spans_.push_back(std::move(span));
}

std::size_t SpanRecorder::size() const {
  std::lock_guard lock{mutex_};
  return spans_.size();
}

Status SpanRecorder::write_chrome_trace(
    const std::filesystem::path& path) const {
  std::string out = "{\n\"traceEvents\": [\n";
  {
    std::lock_guard lock{mutex_};
    char line[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts =
          std::chrono::duration<double, std::micro>(s.start - origin_).count();
      const double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      out += i == 0 ? "" : ",\n";
      out += "{\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"" +
             json_escape(s.category) + "\",\"ph\":\"X\"";
      std::snprintf(line, sizeof line,
                    ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%" PRIu32
                    ",\"args\":{\"run\":%" PRIu64 "}}",
                    ts, dur, s.tid, s.run);
      out += line;
    }
  }
  out += "\n],\n\"displayTimeUnit\": \"ms\"\n}\n";
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  return write_file(path, out);
}

std::uint64_t run_id(std::string_view params) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : params) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

Result<KeyValueMap> TimedModule::invoke(const KeyValueMap& params) {
  const auto start = Clock::now();
  auto result = inner_->invoke(params);
  const auto end = Clock::now();
  const double seconds = std::chrono::duration<double>(end - start).count();
  std::string key = params.serialize();
  if (schedule_.active(start)) {
    spans_.record("apps", "apps.module:" + std::string{inner_->name()}, start,
                  end, run_id(key));
  }
  std::lock_guard lock{mutex_};
  by_params_[std::move(key)] = seconds;
  runs_.push_back(ModuleRun{start, seconds});
  return result;
}

std::optional<double> TimedModule::seconds_for(
    const std::string& params) const {
  std::lock_guard lock{mutex_};
  const auto it = by_params_.find(params);
  if (it == by_params_.end()) return std::nullopt;
  return it->second;
}

std::vector<ModuleRun> TimedModule::runs() const {
  std::lock_guard lock{mutex_};
  return runs_;
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks: steadier across runs than
  // nearest-rank on the small sample counts of the scan workloads.
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace mcsd::perfbench
