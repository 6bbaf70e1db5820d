#include "host.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/stopwatch.hpp"
#include "obs/counters.hpp"

#ifndef MCSD_PERFBENCH_BUILD_TYPE
#define MCSD_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace mcsd::perfbench {

namespace {

/// Current resident set size of this process in MiB (0 if unknown).
double current_rss_mb() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0.0;
  unsigned long long size_pages = 0;
  unsigned long long resident_pages = 0;
  const int fields = std::fscanf(statm, "%llu %llu", &size_pages,
                                 &resident_pages);
  std::fclose(statm);
  if (fields != 2) return 0.0;
  const long page = ::sysconf(_SC_PAGESIZE);
  return static_cast<double>(resident_pages) *
         static_cast<double>(page > 0 ? page : 4096) / (1024.0 * 1024.0);
}

}  // namespace

HostFingerprint host_fingerprint() {
  HostFingerprint fp;
  fp.nproc = std::thread::hardware_concurrency();
  fp.build_type = MCSD_PERFBENCH_BUILD_TYPE;
  fp.obs_compiled = MCSD_OBS_ENABLED != 0;
  return fp;
}

double effective_parallelism(unsigned threads) {
  // ~0.12 s of integer work per thread on an idle core: long enough to
  // span several scheduler slices, short enough to run twice per workload.
  constexpr std::uint64_t kIterations = 60'000'000;
  std::vector<double> cpu(threads, 0.0);
  std::vector<std::thread> pool;
  Stopwatch wall;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&cpu, t] {
      const double start = thread_cpu_seconds();
      volatile std::uint64_t sink = 0;
      std::uint64_t x = 0x9E3779B97F4A7C15ULL + t;
      for (std::uint64_t i = 0; i < kIterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink = x;
      (void)sink;
      cpu[t] = thread_cpu_seconds() - start;
    });
  }
  for (auto& thread : pool) thread.join();
  const double elapsed = wall.elapsed_seconds();
  double total_cpu = 0.0;
  for (double c : cpu) total_cpu += c;
  return elapsed > 0.0 ? total_cpu / elapsed : 0.0;
}

CpuTicks cpu_ticks() {
  CpuTicks ticks;
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return ticks;
  // cpu  user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  const int fields =
      std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(stat);
  if (fields != 8) return ticks;
  for (unsigned long long x : v) ticks.total += x;
  ticks.steal = v[7];
  return ticks;
}

double steal_pct(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total || to.steal < from.steal) return 0.0;
  return 100.0 * static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

RssSampler::RssSampler() {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const double now = current_rss_mb();
      if (now > peak_mb_.load(std::memory_order_relaxed)) {
        peak_mb_.store(now, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds{5});
    }
  });
}

RssSampler::~RssSampler() { stop(); }

double RssSampler::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  const double last = current_rss_mb();
  if (last > peak_mb_.load(std::memory_order_relaxed)) {
    peak_mb_.store(last, std::memory_order_relaxed);
  }
  return peak_mb_.load(std::memory_order_relaxed);
}

}  // namespace mcsd::perfbench
