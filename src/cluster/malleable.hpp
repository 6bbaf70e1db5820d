// Malleable-job co-scheduler.
//
// The Fig. 9/10 "host-only" scenario runs the computation-intensive job
// (MM) and the data-intensive job (WC/SM) *concurrently on one node*; the
// other scenarios give each job its own node.  This scheduler answers:
// given N jobs sharing C cores, when does each finish?
//
// Model: a job is (serial_seconds, parallel_work, max_threads).  Serial
// work runs on at most one core: it proceeds at wall rate min(share, 1)
// — a job holding a fraction of a core makes proportionally slow serial
// progress, and a job holding none makes none.  Parallel work is
// reference-core-seconds consumed at `granted_cores * core_speed`.
// Core shares are reallocated at every completion the way the OS's fair
// scheduler splits them: equal shares among active jobs (capped at each
// job's max_threads, surplus redistributed) — the classic malleable-task
// fluid model.
//
// `fill_shares`, the water-filling allocator underneath, also offers
// kProportional — work-proportional partitioning in the style of
// SET-ISCA2023's Cluster::try_alloc, where each claimant's share is
// weighted by its remaining work; the cluster simulator's per-node CPU
// uses it (ClusterSpec::share_mode).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/models.hpp"

namespace mcsd::sim {

struct MalleableJob {
  std::string name;
  double serial_seconds = 0.0;    ///< wall-clock on one core
  double parallel_work = 0.0;     ///< reference-core-seconds
  std::size_t max_threads = 0;    ///< 0 = unlimited
};

struct MalleableResult {
  std::vector<double> finish_seconds;  ///< same order as the input jobs
  double makespan_seconds = 0.0;
};

enum class ShareMode : std::uint8_t {
  kEqualShare,
  kProportional,
};

[[nodiscard]] constexpr const char* to_string(ShareMode mode) noexcept {
  switch (mode) {
    case ShareMode::kEqualShare: return "equal";
    case ShareMode::kProportional: return "proportional";
  }
  return "?";
}

/// One claimant in a share allocation round.
struct ShareSlot {
  double cap = 0.0;     ///< max cores this claimant can use (inf ok)
  double weight = 1.0;  ///< proportional weight (remaining work); ignored
                        ///< by kEqualShare
  double share = 0.0;   ///< out: granted cores (fractional)
};

/// Water-filling core allocator shared by the fluid scheduler and the
/// cluster simulator's per-node CPU.  kEqualShare splits `cores` equally
/// (capped, surplus recycled); kProportional splits by `weight` the way
/// SET's try_alloc partitions cores by per-child ops.  Claimants with
/// nonpositive cap or weight get share 0.
void fill_shares(std::vector<ShareSlot>& slots, double cores, ShareMode mode);

/// Simulates the equal-share fluid schedule.  `cpu` supplies core count
/// and speed.
MalleableResult schedule_malleable(const std::vector<MalleableJob>& jobs,
                                   const CpuModel& cpu);

}  // namespace mcsd::sim
