// The smartFAM daemon: the storage-node side of Fig. 5.
//
// Hosts append request frames to the shared folder's sharded mailboxes
// (`shards/`); an inotify event on that directory wakes the drainer, which
// reads the new frames, admits them into a coalescing queue and hands
// batches to worker threads.  Each module run's result is appended to the
// requesting client's reply file (`replies/`).  Every preloaded module
// also owns a header-only `<module>.log` marker in the folder root — the
// paper's per-module log file — so hosts can see what is loaded.
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
#include "core/result.hpp"
#include "fam/dispatch.hpp"
#include "fam/inotify_watcher.hpp"
#include "fam/module.hpp"
#include "fam/protocol.hpp"
#include "storage/buffer_manager.hpp"

namespace mcsd::fam {

struct DaemonOptions {
  std::filesystem::path log_dir;
  /// Batch worker threads — how many modules may run concurrently on the
  /// storage node (<= its core count).
  std::size_t dispatch_threads = 1;
  /// Capacity of the daemon's buffer pool (storage tier).  0 keeps the
  /// storage::PoolOptions default.  The pool lives as long as the daemon,
  /// so file pages loaded by one module invocation serve the next one
  /// warm — the smart-storage node's DRAM working set.
  std::size_t pool_bytes = 0;
  /// Budget for the module-result cache (ROADMAP item 4).  A repeat
  /// request for a pure module over unchanged inputs is answered from
  /// this cache without dispatching the module.  0 disables caching.
  std::size_t result_cache_bytes = 32ull << 20;
  /// How many request mailboxes the daemon drains (DESIGN.md §13); at
  /// least 1 (the daemon treats 0 as 1).
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
///   log_dir=<path>  dispatch_threads=<int>=1
///   pool_bytes=<bytes, units ok: "128MiB">
///   result_cache_bytes=<bytes, units ok; 0 disables>=32MiB
///   channel_shards=<int, >= 1>=8
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

  /// Preloads a module: registers it and creates its header-only log
  /// file — "when a new data-intensive module is preloaded to the McSD
  /// node, a corresponding log-file is created" (Section IV-A).  Clients
  /// test that file to fail fast on a module that is not loaded.
  Status preload(std::shared_ptr<Module> module);

  /// Starts the drainer and the batch workers.  Idempotent.
  void start();
  /// Stops the drainer after one final pass over every mailbox, then
  /// closes the admission queue and joins the workers, which run what was
  /// already admitted — every frame appended before stop() still gets its
  /// reply.  Requests refused by the closed queue are counted in
  /// dropped_on_shutdown(); their clients recover by retry against the
  /// restarted daemon.  Idempotent; destructor calls it.
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
  /// path goes through run_module.
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
  /// Requests drained after stop() closed the admission queue.
  [[nodiscard]] std::uint64_t dropped_on_shutdown() const noexcept {
    return dropped_on_shutdown_.load(std::memory_order_relaxed);
  }

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
  /// Module runs executed (one per batch, however many waiters).
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
  /// Shard count actually serving.
  [[nodiscard]] std::size_t channel_shards() const noexcept {
    return options_.channel_shards;
  }

 private:
  /// Attempts to land a reply before giving up (transient write
  /// failures).
  static constexpr int kResponseWriteAttempts = 3;

  /// Outcome of one module execution.
  struct ModuleRun {
    bool ok = false;
    std::string error_message;
    KeyValueMap payload;
    CacheState cache = CacheState::kNone;
    std::uint64_t cache_epoch = 0;
  };

  /// Runs (or cache-answers) one invocation: the module-execution core.
  ModuleRun run_module(const Record& request);

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
  bool started_ = false;
  std::mutex lifecycle_mutex_;

  /// Created by start(); the drainer and workers use it while started.
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
