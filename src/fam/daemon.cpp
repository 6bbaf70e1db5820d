#include "fam/daemon.hpp"

#include <utility>

#include "core/io.hpp"
#include "core/log.hpp"
#include "core/stopwatch.hpp"
#include "core/units.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace mcsd::fam {

namespace fs = std::filesystem;

Result<DaemonOptions> daemon_options_from_config(const KeyValueMap& config) {
  DaemonOptions options;
  for (const auto& [key, value] : config.entries()) {
    if (key == "log_dir") {
      options.log_dir = value;
    } else if (key == "dispatch_threads") {
      auto threads = config.get_int(key);
      if (!threads) return threads.error();
      if (threads.value() < 1) {
        return Error{ErrorCode::kInvalidArgument,
                     "dispatch_threads must be >= 1"};
      }
      options.dispatch_threads = static_cast<std::size_t>(threads.value());
    } else if (key == "pool_bytes") {
      auto bytes = parse_bytes(value);
      if (!bytes) return bytes.error();
      if (bytes.value() == 0) {
        return Error{ErrorCode::kInvalidArgument, "pool_bytes must be > 0"};
      }
      options.pool_bytes = static_cast<std::size_t>(bytes.value());
    } else if (key == "result_cache_bytes") {
      auto bytes = parse_bytes(value);
      if (!bytes) return bytes.error();
      options.result_cache_bytes = static_cast<std::size_t>(bytes.value());
    } else if (key == "channel_shards") {
      auto shards = config.get_int(key);
      if (!shards) return shards.error();
      if (shards.value() < 1) {
        return Error{ErrorCode::kInvalidArgument,
                     "channel_shards must be >= 1"};
      }
      options.channel_shards = static_cast<std::size_t>(shards.value());
    } else if (key == "admission_queue_limit") {
      auto limit = config.get_int(key);
      if (!limit) return limit.error();
      if (limit.value() < 0) {
        return Error{ErrorCode::kInvalidArgument,
                     "admission_queue_limit must be >= 0"};
      }
      options.admission_queue_limit =
          static_cast<std::size_t>(limit.value());
    } else if (key == "drain_interval_ms") {
      auto ms = config.get_int(key);
      if (!ms) return ms.error();
      if (ms.value() < 1) {
        return Error{ErrorCode::kInvalidArgument,
                     "drain_interval_ms must be >= 1"};
      }
      options.drain_interval = std::chrono::milliseconds{ms.value()};
    } else {
      return Error{ErrorCode::kInvalidArgument,
                   "unknown daemon config key: " + key};
    }
  }
  return options;
}

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  storage::PoolOptions pool_options;
  if (options_.pool_bytes != 0) pool_options.pool_bytes = options_.pool_bytes;
  pool_ = std::make_shared<storage::BufferManager>(pool_options);
  if (options_.result_cache_bytes != 0) {
    result_cache_ = std::make_unique<cache::ResultCache>(
        cache::CacheOptions{options_.result_cache_bytes});
  }
  options_.channel_shards = std::max<std::size_t>(options_.channel_shards, 1);
  // The sharded mailbox channel (DESIGN.md §13): request mailboxes and
  // reply files live in subdirectories, so the folder root holds only the
  // module log markers and the manifest.
  fs::create_directories(options_.log_dir / kShardDirName);
  fs::create_directories(options_.log_dir / kReplyDirName);
  shards_.resize(options_.channel_shards);
  for (std::size_t k = 0; k < options_.channel_shards; ++k) {
    shards_[k].path = options_.log_dir / kShardDirName / shard_file_name(k);
    // Start each cursor at the mailbox's current end: frames an earlier
    // daemon on this folder left behind were answered (or given up on)
    // back then, and replaying them would run every one again.
    if (auto size = mcsd::file_size(shards_[k].path)) {
      shards_[k].offset = size.value();
    }
  }
  ChannelManifest manifest;
  manifest.shards = options_.channel_shards;
  if (Status s = write_file_atomic(options_.log_dir / kManifestFileName,
                                   encode_manifest(manifest));
      !s) {
    // Clients keep probing for the manifest until their timeout, so a
    // later successful restart still reaches them.
    MCSD_LOG(kWarn, "fam.daemon")
        << "cannot write channel manifest: " << s.to_string();
  }
  // Event-driven drain: a client's append fires an inotify event that
  // wakes the drainer at once.  Without inotify (or over NFS, where
  // remote appends fire nothing) the drain_interval timer carries it.
  auto shard_watcher = InotifyWatcher::create(
      options_.log_dir / kShardDirName,
      [this](const fs::path&) { kick_drainer(); });
  if (shard_watcher.is_ok()) {
    shard_watcher_ = std::move(shard_watcher).value();
  } else {
    MCSD_LOG(kInfo, "fam.daemon")
        << "shard watcher unavailable (" << shard_watcher.error().to_string()
        << "); draining every " << options_.drain_interval.count() << " ms";
  }
}

Daemon::~Daemon() { stop(); }

Status Daemon::preload(std::shared_ptr<Module> module) {
  if (!module) {
    return Status{ErrorCode::kInvalidArgument, "null module"};
  }
  const std::string name{module->name()};
  if (Status s = registry_.add(std::move(module)); !s) return s;
  const fs::path log = options_.log_dir / log_file_name(name);
  if (!fs::exists(log)) {
    if (Status s = write_file_atomic(log, "# mcsd module log: " + name + "\n");
        !s) {
      return s;
    }
  }
  MCSD_LOG(kInfo, "fam.daemon") << "preloaded module " << name;
  return Status::ok();
}

void Daemon::start() {
  std::lock_guard lock{lifecycle_mutex_};
  if (started_) return;
  started_ = true;
  // A fresh queue per run: stop() closes the previous one for good.
  admission_ = std::make_unique<dispatch::AdmissionQueue>(
      options_.admission_queue_limit);
  {
    std::lock_guard drain_lock{drain_mutex_};
    drain_stop_ = false;
  }
  for (std::size_t i = 0;
       i < std::max<std::size_t>(options_.dispatch_threads, 1); ++i) {
    batch_workers_.emplace_back([this] { batch_loop(); });
  }
  drainer_ = std::thread{[this] { drain_loop(); }};
  if (shard_watcher_) shard_watcher_->start();
}

void Daemon::stop() {
  std::lock_guard lock{lifecycle_mutex_};
  if (!started_) return;
  // Stop the drainer; its exit path runs one final pass over every shard,
  // so frames appended before stop() still get admitted, then closes the
  // admission queue so the batch workers drain what was accepted and
  // exit — stop() discards nothing.
  if (shard_watcher_) shard_watcher_->stop();
  {
    std::lock_guard drain_lock{drain_mutex_};
    drain_stop_ = true;
  }
  drain_cv_.notify_all();
  if (drainer_.joinable()) drainer_.join();
  for (auto& t : batch_workers_) {
    if (t.joinable()) t.join();
  }
  batch_workers_.clear();
  started_ = false;
}

Daemon::ModuleRun Daemon::run_module(const Record& request) {
  ModuleRun run;
  auto module = registry_.find(request.module);
  if (!module) {
    run.ok = false;
    run.error_message = "module not preloaded: " + request.module;
    return run;
  }

  // Result-cache probe.  A module that declares its invocation a pure
  // function of input files (Module::cache_inputs) can have a repeat
  // request answered from memory: fingerprint the inputs' on-disk
  // identity (three stat calls, no corpus read) and look the result up.
  // A fingerprint mismatch inside get() doubles as invalidation.  If an
  // input cannot be stat'ed the probe is skipped and the module runs —
  // it owns reporting the missing file.
  std::optional<std::string> cache_params;
  std::uint64_t fingerprint = 0;
  if (result_cache_) {
    if (auto inputs = module->cache_inputs(request.payload)) {
      if (auto fp = cache::fingerprint_inputs(*inputs)) {
        fingerprint = fp.value();
        cache_params = request.payload.serialize();
        if (auto hit = result_cache_->get(request.module, *cache_params,
                                          fingerprint)) {
          run.ok = true;
          run.payload = std::move(hit->result);
          run.cache = CacheState::kHit;
          run.cache_epoch = hit->epoch;
          cache_hits_.fetch_add(1, std::memory_order_relaxed);
          MCSD_OBS_COUNT("fam.cache_hits", 1);
          return run;
        }
      }
    }
  }

  // A module that throws must not take the dispatch thread down — the
  // host gets an error response and the daemon keeps serving.
  try {
    auto result = module->invoke(request.payload);
    if (result.is_ok()) {
      run.ok = true;
      run.payload = std::move(result).value();
    } else {
      run.ok = false;
      run.error_message = result.error().to_string();
    }
  } catch (const std::exception& e) {
    run.ok = false;
    run.error_message = "module threw: " + std::string{e.what()};
  } catch (...) {
    run.ok = false;
    run.error_message = "module threw a non-std exception";
  }
  if (cache_params) {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    MCSD_OBS_COUNT("fam.cache_misses", 1);
    if (run.ok) {
      run.cache = CacheState::kMiss;
      run.cache_epoch = result_cache_->put(request.module, *cache_params,
                                           fingerprint, run.payload);
      const auto stats = result_cache_->stats();
      MCSD_OBS_GAUGE_SET("fam.cache_bytes",
                         static_cast<std::int64_t>(stats.bytes));
      MCSD_OBS_GAUGE_SET("fam.cache_evictions",
                         static_cast<std::int64_t>(stats.evictions));
    }
  }
  return run;
}

std::vector<dispatch::ShardDrain> Daemon::shard_stats() const {
  std::lock_guard lock{shard_mutex_};
  return shards_;
}

void Daemon::kick_drainer() {
  {
    std::lock_guard drain_lock{drain_mutex_};
    drain_kick_ = true;
  }
  drain_cv_.notify_one();
}

void Daemon::drain_loop() {
  std::unique_lock drain_lock{drain_mutex_, std::defer_lock};
  for (;;) {
    drain_lock.lock();
    // An event wakes the drainer early; the timeout is the fallback for
    // events that never come.  Clearing the kick before the pass is safe:
    // an append that lands during the pass kicks again.
    drain_cv_.wait_for(drain_lock, options_.drain_interval,
                       [this] { return drain_stop_ || drain_kick_; });
    const bool stopping = drain_stop_;
    const bool kicked = std::exchange(drain_kick_, false);
    drain_lock.unlock();
    if (kicked) {
      MCSD_OBS_COUNT("fam.serve.drain_wakeups(cause=event)", 1);
    } else if (!stopping) {
      MCSD_OBS_COUNT("fam.serve.drain_wakeups(cause=timer)", 1);
    }
    drain_pass();
    if (stopping) break;  // the pass above was the final one
  }
  admission_->close();
}

void Daemon::drain_pass() {
  MCSD_OBS_SPAN("fam", "fam.serve.drain_pass");
  std::vector<Record> drained;
  {
    // Every wakeup visits every shard in order — round-robin fairness by
    // construction; a hot shard cannot push a quiet one past its next
    // visit.
    std::lock_guard lock{shard_mutex_};
    for (dispatch::ShardDrain& shard : shards_) {
      std::vector<Record> requests = dispatch::drain_shard(shard);
      drained.insert(drained.end(),
                     std::make_move_iterator(requests.begin()),
                     std::make_move_iterator(requests.end()));
    }
  }
  for (Record& request : drained) {
    admit(std::move(request));
  }
  MCSD_OBS_GAUGE_SET("fam.serve.queue_depth",
                     static_cast<std::int64_t>(admission_->depth()));
}

void Daemon::admit(Record request) {
  const std::string tenant{dispatch::tenant_or_default(request.tenant)};

  // The coalescing identity is exactly the result cache's key: module +
  // canonical params + input fingerprint.  Requests that cannot prove
  // input identity (uncacheable modules, un-stat-able inputs) never
  // coalesce — they get their own run.
  std::string coalesce_key;
  if (result_cache_) {
    if (auto module = registry_.find(request.module)) {
      if (auto inputs = module->cache_inputs(request.payload)) {
        if (auto fp = cache::fingerprint_inputs(*inputs)) {
          coalesce_key = request.module;
          coalesce_key += '\n';
          coalesce_key += request.payload.serialize();
          coalesce_key += '\n';
          coalesce_key += std::to_string(fp.value());
        }
      }
    }
  }

  dispatch::PendingRequest pending;
  pending.admitted_at = std::chrono::steady_clock::now();
  const std::uint64_t seq = request.seq;
  const std::uint64_t client = request.client_id;
  const std::string module_name = request.module;
  pending.request = std::move(request);

  switch (admission_->push(std::move(pending), std::move(coalesce_key))) {
    case dispatch::Admission::kAccepted:
      accepted_.fetch_add(1, std::memory_order_relaxed);
      qos_.record_accepted(tenant);
      MCSD_OBS_COUNT("fam.serve.accepted", 1);
      break;
    case dispatch::Admission::kCoalesced:
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      qos_.record_coalesced(tenant);
      MCSD_OBS_COUNT("fam.serve.coalesced", 1);
      break;
    case dispatch::Admission::kSuperseded:
      superseded_.fetch_add(1, std::memory_order_relaxed);
      MCSD_OBS_COUNT("fam.serve.superseded", 1);
      break;
    case dispatch::Admission::kRejected: {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      qos_.record_rejected(tenant);
      MCSD_OBS_COUNT("fam.serve.rejected", 1);
      // Typed backpressure: tell the client how far to back off instead
      // of letting it burn its timeout and hammer the mailbox again.
      Record response;
      response.type = RecordType::kResponse;
      response.seq = seq;
      response.module = module_name;
      response.client_id = client;
      response.ok = false;
      response.retry_after_ms = admission_->retry_after_ms();
      response.error_message =
          "admission queue full; retry after " +
          std::to_string(response.retry_after_ms) + " ms";
      write_reply(response);
      break;
    }
    case dispatch::Admission::kStale:
      // Duplicate or out-of-order frame; the reply (if any is owed) is
      // already on its way.
      break;
    case dispatch::Admission::kClosed:
      dropped_on_shutdown_.fetch_add(1, std::memory_order_relaxed);
      MCSD_OBS_COUNT("fam.daemon_dropped_on_shutdown", 1);
      break;
  }
}

void Daemon::batch_loop() {
  while (auto batch = admission_->pop()) {
    handle_batch(std::move(*batch));
  }
}

void Daemon::handle_batch(dispatch::Batch batch) {
  const auto now = std::chrono::steady_clock::now();

  // Partition the waiters: tombstones (superseded in queue) are skipped
  // outright; requests that overstayed their deadline are shed with an
  // error reply rather than burning a module run whose client has
  // already given up.
  std::vector<dispatch::PendingRequest> live;
  live.reserve(batch.waiters.size());
  for (dispatch::PendingRequest& waiter : batch.waiters) {
    if (waiter.request.client_id == 0) continue;
    const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
        now - waiter.admitted_at);
    if (waiter.request.deadline_ms != 0 &&
        static_cast<std::uint64_t>(waited.count()) >
            waiter.request.deadline_ms) {
      deadline_shed_.fetch_add(1, std::memory_order_relaxed);
      qos_.record_deadline_shed(waiter.request.tenant);
      MCSD_OBS_COUNT("fam.serve.deadline_shed", 1);
      Record response;
      response.type = RecordType::kResponse;
      response.seq = waiter.request.seq;
      response.module = waiter.request.module;
      response.client_id = waiter.request.client_id;
      response.ok = false;
      response.error_message =
          "deadline exceeded in admission queue (" +
          std::to_string(waited.count()) + " ms > " +
          std::to_string(waiter.request.deadline_ms) + " ms)";
      errors_returned_.fetch_add(1, std::memory_order_relaxed);
      requests_handled_.fetch_add(1, std::memory_order_relaxed);
      write_reply(response);
      continue;
    }
    live.push_back(std::move(waiter));
  }
  if (live.empty()) return;

  // One "fam.dispatch:<module>" span per module run.
  MCSD_OBS_SPAN("fam", "fam.dispatch:" + live.front().request.module);
  Stopwatch dispatch_watch;
  // One module run fans out to every coalesced waiter; admission
  // guaranteed their (module, params, fingerprint) identities match, so
  // every waiter's response is byte-identical to the solo run it would
  // have gotten.
  ModuleRun run = run_module(live.front().request);
  batches_run_.fetch_add(1, std::memory_order_relaxed);
  const auto dispatch_us =
      static_cast<std::uint64_t>(dispatch_watch.elapsed_seconds() * 1e6);
  MCSD_OBS_HIST("fam.dispatch_us", "us", dispatch_us);
  MCSD_OBS_HIST("fam.serve.batch_us", "us", dispatch_us);

  for (const dispatch::PendingRequest& waiter : live) {
    Record response;
    response.type = RecordType::kResponse;
    response.seq = waiter.request.seq;
    response.module = waiter.request.module;
    response.client_id = waiter.request.client_id;
    response.ok = run.ok;
    response.error_message = run.error_message;
    response.payload = run.payload;
    response.cache = run.cache;
    response.cache_epoch = run.cache_epoch;
    response.waiters = live.size();
    // Counters land before the reply does: the instant a client observes
    // its reply (and the test harness reads the counters) the request is
    // already counted.
    requests_handled_.fetch_add(1, std::memory_order_relaxed);
    MCSD_OBS_COUNT("fam.daemon_requests", 1);
    if (!run.ok) {
      errors_returned_.fetch_add(1, std::memory_order_relaxed);
      MCSD_OBS_COUNT("fam.daemon_errors", 1);
    }
    write_reply(response);
    const auto total_us =
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - waiter.admitted_at)
                .count());
    qos_.record_completed(waiter.request.tenant, total_us);
  }
}

void Daemon::write_reply(const Record& response) {
  ReplySlot* slot = nullptr;
  {
    std::lock_guard lock{reply_mutex_};
    auto& entry = reply_slots_[response.client_id];
    if (!entry) entry = std::make_unique<ReplySlot>();
    slot = entry.get();
  }
  // Per-client serialisation: replies for one client are written in seq
  // order, and a reply for an older seq than the last one written is
  // suppressed — a late fan-out (the client superseded this request and
  // a newer reply already landed) must not clobber the reply the client
  // is actually polling for.
  std::lock_guard lock{slot->mutex};
  if (response.seq <= slot->last_seq) {
    reply_conflicts_.fetch_add(1, std::memory_order_relaxed);
    MCSD_OBS_COUNT("fam.serve.reply_conflicts", 1);
    return;
  }
  const fs::path reply = options_.log_dir / kReplyDirName /
                         reply_file_name(response.client_id);
  // Replies are *appended* as CRC-delimited frames, not atomically
  // replaced: an append is one metadata-light write where the
  // temp+rename dance is three, and the reply path is the serving
  // tier's throughput ceiling (every invoke ends in exactly one reply
  // write).  A torn append is caught by the frame CRC; the client skips
  // the corrupt frame, times out, and re-sends under a fresh seq.
  Status last_write = Status::ok();
  Stopwatch write_watch;
  for (int attempt = 0; attempt < kResponseWriteAttempts; ++attempt) {
    last_write = append_file(reply, encode_record(response));
    if (last_write) {
      slot->last_seq = response.seq;
      MCSD_OBS_HIST(
          "fam.serve.reply_write_us", "us",
          static_cast<std::uint64_t>(write_watch.elapsed_seconds() * 1e6));
      return;
    }
  }
  // All attempts failed (injected or real I/O trouble).  The client
  // times out and re-sends under a higher seq; leaving last_seq
  // unchanged keeps that retry's reply admissible.
  MCSD_LOG(kError, "fam.daemon")
      << "cannot write reply for client " << response.client_id << " seq "
      << response.seq << " after " << kResponseWriteAttempts
      << " attempts: " << last_write.to_string();
}

}  // namespace mcsd::fam
