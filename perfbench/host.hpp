// Host fingerprint and process-level measurements for the McSD benchmark.
//
// A run on a throttled or oversubscribed host must be identifiable from
// its output, so every run records the core count, the build, whether obs
// is compiled in, and a *measured* effective parallelism: N threads spin
// on fixed work and the summed thread-CPU time is divided by the wall
// time.  An idle 4-core host reads ~4; a busy one reads far less.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>

namespace mcsd::perfbench {

struct HostFingerprint {
  unsigned nproc = 0;
  std::string build_type;
  bool obs_compiled = false;
};

[[nodiscard]] HostFingerprint host_fingerprint();

/// Runs `threads` spinning threads over a fixed amount of work each and
/// returns their summed thread-CPU seconds over the group's wall seconds.
[[nodiscard]] double effective_parallelism(unsigned threads);

/// Host-wide CPU time counters from /proc/stat, in clock ticks.  The
/// share of `steal` in a window is CPU time the hypervisor gave to other
/// guests: on a shared VM it explains a slow run that nothing in the
/// benchmark changed.
struct CpuTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Percent of CPU time stolen between two samples (0 when unknown).
[[nodiscard]] double steal_pct(const CpuTicks& from, const CpuTicks& to);

/// Samples current_rss_mb() every few milliseconds on a background thread
/// and keeps the maximum: started at the measurement window, it reads the
/// peak resident set while serving.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling (idempotent) and returns the peak in MiB.
  double stop();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> peak_mb_{0.0};
  std::thread thread_;
};

}  // namespace mcsd::perfbench
