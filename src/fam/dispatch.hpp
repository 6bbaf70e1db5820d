// The daemon-side dispatch layer for the sharded mailbox channel
// (DESIGN.md §13 "Serving at scale").
//
// Three pieces, composed by fam::Daemon:
//
//  * ShardDrain — per-mailbox tail cursor.  The daemon's drainer thread
//    polls every shard per wakeup; a drain reads only the bytes appended
//    since the last pass (core/io read_file_from) and splits them into
//    crc-delimited frames (protocol decode_frame_stream).  Round-robin
//    over all shards per wakeup gives fairness by construction: no shard
//    can starve another, because every wakeup visits every mailbox.
//
//  * AdmissionQueue — the bounded in-memory queue between the drainer
//    and the batch workers.  Admission coalesces compatible requests
//    (same module, same canonical params, same input fingerprint — the
//    result cache's identity key) into one batch that a single module
//    run fans back out to every waiter, supersedes an older queued
//    request when the same client re-sends (its client only awaits the
//    newest seq), and rejects with a typed retry-after hint when the
//    batch bound is hit — backpressure the client honours with jittered
//    exponential backoff instead of hammering the mailbox.
//
//  * QosRegistry — per-tenant serving counters (accepted / rejected /
//    coalesced / completed / shed) and an invoke-latency histogram, the
//    numbers an operator needs to see which tenant is eating the node.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fam/protocol.hpp"
#include "obs/histogram.hpp"

namespace mcsd::fam::dispatch {

/// One admitted request awaiting its module run.
struct PendingRequest {
  Record request;
  /// When the drainer admitted it — the deadline clock and the queue-wait
  /// component of the serving latency both start here.
  std::chrono::steady_clock::time_point admitted_at{};
};

/// A unit of work for a batch worker: one module run fanned out to every
/// waiter.  `waiters.front()` supplies the parameters; coalescing
/// guarantees the others are byte-compatible.
struct Batch {
  std::vector<PendingRequest> waiters;
  /// Set when the batch is open for coalescing (cacheable request).
  std::string coalesce_key;
};

/// Admission outcome for one drained request.
enum class Admission : std::uint8_t {
  kAccepted,    ///< new batch queued
  kCoalesced,   ///< joined an already-queued compatible batch
  kSuperseded,  ///< replaced the same client's older queued request
  kRejected,    ///< queue full — reject with retry-after
  kStale,       ///< seq not newer than the client's last admitted — drop
  kClosed,      ///< queue closed (daemon stopping)
};

/// The bounded admission queue.  Thread-safe; one drainer pushes, N batch
/// workers pop.
class AdmissionQueue {
 public:
  /// `max_batches` bounds *batches* (distinct module runs), not waiters:
  /// a coalesced joiner consumes no extra run, so it is always admitted
  /// even at the bound.  0 means unbounded.
  explicit AdmissionQueue(std::size_t max_batches)
      : max_batches_(max_batches) {}

  /// Routes one drained request.  `coalesce_key` is empty for requests
  /// that must not be coalesced (uncacheable modules).  The per-client
  /// seq gate lives here: a request whose seq is not newer than the
  /// client's last admitted seq is dropped as kStale (duplicate frame or
  /// out-of-order re-read), and a newer seq from a client with a request
  /// still queued replaces it in place (kSuperseded) — the client only
  /// polls for its newest seq, so answering the old one is wasted work.
  Admission push(PendingRequest request, std::string coalesce_key);

  /// Blocks for the next batch; nullopt once closed *and* drained.  A
  /// popped batch is closed to further coalescing.
  std::optional<Batch> pop();

  /// Closes the queue: pushes start returning kClosed, pops drain what
  /// was admitted and then return nullopt.
  void close();

  /// Queued batches right now (monitoring gauge).
  [[nodiscard]] std::size_t depth() const;

  /// Suggested client back-off for a rejection: scales with how far the
  /// queue is past its bound so a deeper pile-up pushes clients further
  /// away.
  [[nodiscard]] std::uint64_t retry_after_ms() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Batch> batches_;
  /// coalesce_key -> index into batches_ of the open batch.  Indices stay
  /// valid because pops come off the front and the map is rebuilt (well,
  /// adjusted) as batches shift; see dispatch.cpp.
  std::map<std::string, std::size_t> open_batches_;
  /// client_id -> (batch index, waiter index) of its queued request, for
  /// supersede-in-place.
  struct QueuedAt {
    std::size_t batch = 0;
    std::size_t waiter = 0;
  };
  std::map<std::uint64_t, QueuedAt> queued_clients_;
  /// client_id -> highest seq ever admitted (duplicate-frame gate).
  std::map<std::uint64_t, std::uint64_t> last_admitted_seq_;
  std::size_t max_batches_ = 0;
  std::size_t popped_ = 0;  ///< front-of-deque shift count; see .cpp
  bool closed_ = false;
};

/// Tail cursor over one shard mailbox.
struct ShardDrain {
  std::filesystem::path path;
  std::uint64_t offset = 0;        ///< bytes consumed so far
  std::uint64_t drained = 0;       ///< frames decoded off this shard
  std::uint64_t corrupt = 0;       ///< frames dropped for bad crc
};

/// Drains whatever `shard` has appended since the last pass.  Lost
/// wakeups are modelled where the wakeup is delivered (the kWatchEvent
/// site of the daemon's shard watcher), so this pass consults only the
/// kReadFile site via the tail read itself.  Returns the newly decoded
/// requests; the cursor advances only past complete frames, so a torn
/// tail is retried next pass.
std::vector<Record> drain_shard(ShardDrain& shard);

/// Per-tenant QoS counters.  Plain struct snapshot for tools and tests;
/// the live registry also mirrors into obs ("fam.serve.*(tenant=...)").
struct TenantQos {
  std::string tenant;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadline_shed = 0;
  /// Admission -> reply-written latency distribution, microseconds.
  obs::HistogramData invoke_us;
};

class QosRegistry {
 public:
  void record_accepted(std::string_view tenant);
  void record_rejected(std::string_view tenant);
  void record_coalesced(std::string_view tenant);
  void record_deadline_shed(std::string_view tenant);
  void record_completed(std::string_view tenant, std::uint64_t invoke_us);

  /// Snapshot of every tenant seen so far, sorted by tenant label.
  [[nodiscard]] std::vector<TenantQos> snapshot() const;

 private:
  struct Slot {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t completed = 0;
    std::uint64_t deadline_shed = 0;
    obs::HistogramData invoke_us;
  };
  Slot& slot_locked(std::string_view tenant);

  mutable std::mutex mutex_;
  std::map<std::string, Slot, std::less<>> tenants_;
};

/// Canonical tenant label for accounting ("" -> "default").
std::string_view tenant_or_default(std::string_view tenant) noexcept;

}  // namespace mcsd::fam::dispatch
