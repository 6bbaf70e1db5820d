// smartFAM invocation latency model.
//
// The scenario models fold the whole host→SD→host invocation into one
// `fam_invocation_seconds` constant.  This module derives that constant
// from first principles, stage by stage, so the abstraction can be
// checked (tests compare it against a real daemon round trip) and so
// the NFS deployment question the paper skips
// can be answered quantitatively:
//
//   host: encode + write request          (CPU + disk/NFS write)
//   NFS:  attribute-cache staleness       (0 on local FS; acregmin-bounded
//                                          on a real NFS mount — inotify
//                                          cannot see remote writes, and a
//                                          polled drain only observes a
//                                          change after the client-side
//                                          attribute cache revalidates)
//   SD:   drain poll latency              (uniform 0..poll ⇒ poll/2 mean)
//   SD:   decode + dispatch queue + module runtime
//   SD:   encode + write response
//   NFS:  attribute-cache staleness again (host side)
//   host: client poll latency             (poll/2 mean)
//
// The two poll terms describe the timer fallback only: NFS mounts, lost
// or overflowed watch events, hosts without inotify.  On a local folder
// inotify wakes the drainer and the waiting client as soon as a frame
// lands, so a model of that path sets sd_poll_seconds = host_poll_seconds
// = 0 (and write_seconds to the append cost, which then dominates).  The
// defaults keep the polled values, so the scenarios'
// `fam_invocation_seconds` stays an upper bound for both paths.
#pragma once

#include <cstdint>

namespace mcsd::sim {

struct FamModel {
  /// Log-record payload (request or response), bytes.
  std::uint64_t record_bytes = 512;
  /// Encode/decode CPU per record.
  double codec_seconds = 20e-6;
  /// Write+fsync-equivalent latency of one small file replace.  The
  /// sharded channel appends each frame instead (no fsync, no rename),
  /// which costs ~20 µs on a local folder.
  double write_seconds = 200e-6;
  /// Storage-node drain/poll interval when no watch event wakes it
  /// (0 = event-driven).
  double sd_poll_seconds = 2e-3;
  /// Host-side client poll interval when no watch event wakes it
  /// (0 = event-driven).
  double host_poll_seconds = 1e-3;
  /// Dispatch queue + thread handoff.
  double dispatch_seconds = 50e-6;
  /// NFS attribute-cache staleness bound per direction (0 = local FS or
  /// tmpfs; a default NFS mount has acregmin = 3 s!).
  double nfs_attr_cache_seconds = 0.0;

  /// Mean one-way + return overhead around `module_seconds` of work.
  [[nodiscard]] double round_trip_seconds(double module_seconds) const {
    const double request_path = codec_seconds + write_seconds +
                                nfs_attr_cache_seconds / 2.0 +
                                sd_poll_seconds / 2.0 + codec_seconds +
                                dispatch_seconds;
    const double response_path = codec_seconds + write_seconds +
                                 nfs_attr_cache_seconds / 2.0 +
                                 host_poll_seconds / 2.0 + codec_seconds;
    return request_path + module_seconds + response_path;
  }

  /// Pure channel overhead (a no-op module).
  [[nodiscard]] double overhead_seconds() const {
    return round_trip_seconds(0.0);
  }
};

}  // namespace mcsd::sim
