// The smartFAM daemon: the storage-node side of Fig. 5.
//
// Watches the shared log folder; when a module's log file is changed by
// the host (a new request record), the daemon retrieves the parameters,
// invokes the preloaded module, and writes the results back into the same
// log file as a response record.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cache/result_cache.hpp"
#include "core/config.hpp"
#include "core/mpmc_queue.hpp"
#include "core/result.hpp"
#include "fam/dispatch.hpp"
#include "fam/inotify_watcher.hpp"
#include "fam/module.hpp"
#include "fam/protocol.hpp"
#include "fam/watcher.hpp"
#include "storage/buffer_manager.hpp"

namespace mcsd::fam {

/// Which file-alteration monitor the daemon runs on.
enum class WatcherBackend : std::uint8_t {
  /// Portable mtime/size/hash polling — required when the log folder is
  /// an NFS mount (inotify cannot see remote writes).
  kPolling,
  /// Linux inotify, the paper's mechanism — local/tmpfs folders only.
  /// Falls back to polling if inotify is unavailable.
  kInotify,
};

/// Default watcher polling cadence.  Named (rather than sprinkled as a
/// literal) because the interval is a tuning knob exposed through
/// core/config — it trades invoke latency for syscall load over NFS —
/// and it labels the watcher's poll-latency histogram.
inline constexpr std::chrono::milliseconds kDefaultWatcherPollInterval{2};

struct DaemonOptions {
  std::filesystem::path log_dir;
  /// Watcher polling cadence (kPolling backend).
  std::chrono::milliseconds poll_interval{kDefaultWatcherPollInterval};
  /// Dispatch worker threads — how many modules may run concurrently on
  /// the storage node (<= its core count).
  std::size_t dispatch_threads = 1;
  WatcherBackend backend = WatcherBackend::kPolling;
  /// Capacity of the daemon's buffer pool (storage tier).  0 keeps the
  /// storage::PoolOptions default.  The pool lives as long as the daemon,
  /// so file pages loaded by one module invocation serve the next one
  /// warm — the smart-storage node's DRAM working set.
  std::size_t pool_bytes = 0;
  /// Budget for the module-result cache (ROADMAP item 4).  A repeat
  /// request for a pure module over unchanged inputs is answered from
  /// this cache without dispatching the module.  0 disables caching.
  std::size_t result_cache_bytes = 32ull << 20;
  /// Rev-2 sharded mailbox channel (DESIGN.md §13): how many request
  /// mailboxes the daemon drains.  0 turns the sharded channel off
  /// entirely (rev-1 single-record module logs only).  The daemon always
  /// keeps serving rev-1 module logs too, so legacy clients and tests
  /// coexist with the sharded path.
  std::size_t channel_shards = 8;
  /// Admission-control bound: distinct module runs (batches) the
  /// admission queue holds before rejecting with a typed retry-after
  /// backpressure reply.  Coalesced joiners never count against it.
  /// 0 = unbounded.
  std::size_t admission_queue_limit = 256;
  /// Drainer fallback cadence.  An inotify watcher on the shard
  /// directory wakes the drainer as soon as a client appends; this timer
  /// only bounds the wait when no event arrives (NFS, lost or overflowed
  /// events, no inotify).  Every wakeup drains all shards.
  std::chrono::milliseconds drain_interval{1};
};

/// Builds DaemonOptions from a core/config KeyValueMap (the same
/// key=value record syntax the smartFAM channel itself speaks).
/// Recognised keys, all optional:
///   log_dir=<path>  poll_interval_ms=<int>=2  dispatch_threads=<int>=1
///   backend=polling|inotify  pool_bytes=<bytes, units ok: "128MiB">
///   result_cache_bytes=<bytes, units ok; 0 disables>=32MiB
///   channel_shards=<int; 0 disables the sharded channel>=8
///   admission_queue_limit=<int; 0 = unbounded>=256
///   drain_interval_ms=<int>=1
/// Unknown keys error (a typo must not silently run defaults).
Result<DaemonOptions> daemon_options_from_config(const KeyValueMap& config);

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Preloads a module: registers it and creates its (empty) log file —
  /// "when a new data-intensive module is preloaded to the McSD node, a
  /// corresponding log-file is created" (Section IV-A).
  Status preload(std::shared_ptr<Module> module);

  /// Starts the watcher and dispatch workers.  Idempotent.
  void start();
  /// Stops the watcher, then closes the dispatch queue and joins the
  /// workers.  MpmcQueue::close() lets pops drain what was already
  /// accepted, so every request enqueued before stop() still gets a
  /// response written — stop() discards nothing.  Requests arriving
  /// *after* close (the conflict guard can re-enqueue during drain) are
  /// counted in dropped_on_shutdown(); their clients recover by retry
  /// against the restarted daemon.  Idempotent; destructor calls it.
  void stop();

  [[nodiscard]] const std::filesystem::path& log_dir() const noexcept {
    return options_.log_dir;
  }
  [[nodiscard]] const ModuleRegistry& registry() const noexcept {
    return registry_;
  }

  /// The daemon-lifetime buffer pool.  Thread modules' file I/O through
  /// it (apps::preload_standard_modules takes it) so corpus pages stay
  /// hot across invocations; never null.
  [[nodiscard]] const std::shared_ptr<storage::BufferManager>& buffer_pool()
      const noexcept {
    return pool_;
  }

  /// The module-result cache, or null when result_cache_bytes was 0.
  /// Exposed for tests and tools (stats, explicit clear); the serving
  /// path goes through handle_request.
  [[nodiscard]] cache::ResultCache* result_cache() const noexcept {
    return result_cache_.get();
  }

  /// Counters for tests and monitoring.
  [[nodiscard]] std::uint64_t requests_handled() const noexcept {
    return requests_handled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t errors_returned() const noexcept {
    return errors_returned_.load(std::memory_order_relaxed);
  }
  /// Requests answered straight from the result cache (no module run).
  [[nodiscard]] std::uint64_t cache_hits() const noexcept {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  /// Cacheable requests that had to run the module (cold or invalidated).
  [[nodiscard]] std::uint64_t cache_misses() const noexcept {
    return cache_misses_.load(std::memory_order_relaxed);
  }
  /// Responses discarded because a newer request had already replaced the
  /// log record this response would have clobbered.
  [[nodiscard]] std::uint64_t response_conflicts() const noexcept {
    return response_conflicts_.load(std::memory_order_relaxed);
  }
  /// Error replies sent for requests whose seq fell behind the daemon's
  /// high-water mark (two hosts colliding on one module log).
  [[nodiscard]] std::uint64_t stale_replies() const noexcept {
    return stale_replies_.load(std::memory_order_relaxed);
  }
  /// Requests observed after stop() closed the dispatch queue.
  [[nodiscard]] std::uint64_t dropped_on_shutdown() const noexcept {
    return dropped_on_shutdown_.load(std::memory_order_relaxed);
  }

  // Sharded-channel counters (all 0 when channel_shards == 0).

  /// Requests admitted as new batches.
  [[nodiscard]] std::uint64_t accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  /// Requests bounced with a retry-after backpressure reply.
  [[nodiscard]] std::uint64_t rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// Requests that joined an already-queued compatible batch.
  [[nodiscard]] std::uint64_t coalesced() const noexcept {
    return coalesced_.load(std::memory_order_relaxed);
  }
  /// Queued requests replaced by a newer send from the same client.
  [[nodiscard]] std::uint64_t superseded() const noexcept {
    return superseded_.load(std::memory_order_relaxed);
  }
  /// Module runs executed for the sharded channel.
  [[nodiscard]] std::uint64_t batches_run() const noexcept {
    return batches_run_.load(std::memory_order_relaxed);
  }
  /// Requests shed for sitting in the queue past their deadline.
  [[nodiscard]] std::uint64_t deadline_shed() const noexcept {
    return deadline_shed_.load(std::memory_order_relaxed);
  }
  /// Replies suppressed because a newer reply for the client had already
  /// been written (late fan-out after a supersede) — the guard that
  /// makes responses exactly-once per awaited seq.
  [[nodiscard]] std::uint64_t reply_conflicts() const noexcept {
    return reply_conflicts_.load(std::memory_order_relaxed);
  }
  /// Per-shard drain cursors (frames drained / corrupt); index = shard
  /// number.  Snapshot, safe against the drainer.
  [[nodiscard]] std::vector<dispatch::ShardDrain> shard_stats() const;
  /// Per-tenant QoS snapshot.
  [[nodiscard]] std::vector<dispatch::TenantQos> qos_snapshot() const {
    return qos_.snapshot();
  }
  /// Shard count actually serving (0 = sharded channel off).
  [[nodiscard]] std::size_t channel_shards() const noexcept {
    return options_.channel_shards;
  }

  /// The backend actually in use (inotify may have fallen back).
  [[nodiscard]] WatcherBackend active_backend() const noexcept {
    return active_backend_;
  }

 private:
  /// One dispatch-queue entry.  `stale_last_seq` != 0 marks a request
  /// whose seq fell behind the dedup high-water mark: instead of invoking
  /// the module, the worker replies with an error carrying that mark.
  struct Work {
    Record request;
    std::uint64_t stale_last_seq = 0;
  };

  /// Attempts to land a response before giving up (transient write
  /// failures; each retry re-runs the conflict guard).
  static constexpr int kResponseWriteAttempts = 3;

  /// Outcome of one module execution (shared by the rev-1 single-record
  /// path and the rev-2 batch path).
  struct ModuleRun {
    bool ok = false;
    std::string error_message;
    KeyValueMap payload;
    CacheState cache = CacheState::kNone;
    std::uint64_t cache_epoch = 0;
  };

  void on_file_change(const std::filesystem::path& path);
  /// Routes a decoded request through the seq gate: newer than the high-
  /// water mark -> dispatch, equal -> duplicate observation (dropped),
  /// older -> stale reply.  Used by the watcher callback and by the
  /// conflict guard when it rescues a request it nearly clobbered.
  void enqueue_request(Record request);
  void dispatch_loop();
  void handle_request(const Record& request);
  void handle_stale(const Record& request, std::uint64_t last_seq);
  /// Writes `response` into its module's log unless the log has moved on
  /// to a newer record — the single-record channel must never go
  /// backwards.  A newer *request* found there is re-enqueued (the
  /// watcher may have fingerprinted it away already).
  void write_response(const Record& response);

  /// Runs (or cache-answers) one invocation.  The module-execution core
  /// both channels share.
  ModuleRun run_module(const Record& request);

  // Rev-2 sharded channel.
  /// Shard-watcher callback: flags new mailbox frames and wakes the
  /// drainer ahead of its drain_interval timer.
  void kick_drainer();
  void drain_loop();
  /// One pass over every shard: drain new frames and admit them.
  void drain_pass();
  /// Routes one drained request through admission (coalesce / supersede /
  /// reject) and writes the rejection reply when bounced.
  void admit(Record request);
  void batch_loop();
  void handle_batch(dispatch::Batch batch);
  /// Appends a reply frame to the client's reply file, guarded so a
  /// reply for an older seq never lands after a newer one.
  void write_reply(const Record& response);

  DaemonOptions options_;
  ModuleRegistry registry_;
  std::shared_ptr<storage::BufferManager> pool_;
  std::unique_ptr<cache::ResultCache> result_cache_;
  std::unique_ptr<Watcher> watcher_;
  WatcherBackend active_backend_ = WatcherBackend::kPolling;
  MpmcQueue<Work> pending_;
  std::vector<std::thread> dispatchers_;
  bool started_ = false;
  std::mutex lifecycle_mutex_;

  std::mutex seq_mutex_;
  std::map<std::string, std::uint64_t> last_handled_seq_;

  // Rev-2 sharded channel state (unused when channel_shards == 0).
  std::unique_ptr<dispatch::AdmissionQueue> admission_;
  dispatch::QosRegistry qos_;
  mutable std::mutex shard_mutex_;  ///< guards shards_
  std::vector<dispatch::ShardDrain> shards_;
  std::thread drainer_;
  std::vector<std::thread> batch_workers_;
  std::mutex drain_mutex_;  ///< guards drain_stop_ and drain_kick_
  std::condition_variable drain_cv_;
  bool drain_stop_ = false;
  bool drain_kick_ = false;  ///< a shard watcher event since the last pass
  /// Wakes the drainer early; null when inotify is unavailable, and then
  /// the drain_interval timer alone paces the drainer.  Declared after
  /// the drain state its callback touches.
  std::unique_ptr<InotifyWatcher> shard_watcher_;
  /// Per-client reply-order guard: serialises writes to one reply file
  /// and keeps its seq monotonic.
  struct ReplySlot {
    std::mutex mutex;
    std::uint64_t last_seq = 0;
  };
  std::mutex reply_mutex_;  ///< guards reply_slots_ (the map, not slots)
  std::map<std::uint64_t, std::unique_ptr<ReplySlot>> reply_slots_;

  std::atomic<std::uint64_t> requests_handled_{0};
  std::atomic<std::uint64_t> errors_returned_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> response_conflicts_{0};
  std::atomic<std::uint64_t> stale_replies_{0};
  std::atomic<std::uint64_t> dropped_on_shutdown_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> superseded_{0};
  std::atomic<std::uint64_t> batches_run_{0};
  std::atomic<std::uint64_t> deadline_shed_{0};
  std::atomic<std::uint64_t> reply_conflicts_{0};
};

}  // namespace mcsd::fam
