// The host-node side of smartFAM (Fig. 5, "Returning results ... to a
// host node").
//
// Client::invoke appends a request frame to one of the daemon's shard
// mailboxes and waits for the reply frame with the matching sequence
// number in its own reply file.  Each in-flight invoke holds a pooled
// slot — a unique client id with its own seq space and reply file — so
// N threads sharing one Client have N requests in flight at once.  The
// shard count comes from the daemon's `channel.mcsd` manifest.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/result.hpp"
#include "fam/protocol.hpp"

namespace mcsd::fam {

class InotifyWatcher;

struct ClientOptions {
  std::filesystem::path log_dir;
  /// How often a waiting invoke re-checks its reply file.  An inotify
  /// event on the reply file wakes the waiter first; this interval is the
  /// ceiling when no event arrives (NFS, lost events, no inotify).  It
  /// also paces the probe for a channel manifest that is not there yet.
  std::chrono::milliseconds poll_interval{1};
  /// Give up on one attempt after this long without a response.
  std::chrono::milliseconds timeout{10'000};
  /// Total attempts per invoke (>= 1).  An attempt that times out re-reads
  /// the channel manifest and re-sends under the slot's next seq: if the
  /// old request is still queued the new one supersedes it, and the
  /// daemon's reply guard keeps a late reply for the old seq from landing
  /// after the new one.  Retries paper over a storage node that was still
  /// booting or restarted with a different shard count, a request frame
  /// lost to a torn append or a crash, and transient I/O failures
  /// appending the request itself.
  int max_attempts = 1;
  /// Tenant label stamped on requests for daemon-side QoS accounting
  /// ("" = the default tenant).
  std::string tenant;
  /// How many typed retry-after backpressure rejections one invoke
  /// absorbs (honoured with jittered exponential backoff) before
  /// surfacing kUnavailable.  Separate from max_attempts: a rejection is
  /// the daemon talking, not a lost request.
  int max_backpressure_retries = 10;
};

/// Per-invoke metadata the caller may opt into (tools print it, the soak
/// harness asserts on it).  Filled from the successful response record.
struct InvokeInfo {
  /// Result-cache participation reported by the daemon (kNone when the
  /// invocation was not cacheable or the daemon runs without a cache).
  CacheState cache = CacheState::kNone;
  /// Cache entry epoch (0 = absent); see Record::cache_epoch.
  std::uint64_t cache_epoch = 0;
  /// Request write .. response observed, as measured by this client.
  double round_trip_seconds = 0.0;
  /// How many coalesced requests shared this module run (1 = solo run,
  /// 0 = daemon without the field).
  std::uint64_t waiters = 0;
  /// Typed backpressure rejections absorbed before this invoke succeeded.
  int backpressure_retries = 0;
};

class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client();

  /// Offloads one invocation: appends the request, blocks until the
  /// reply arrives (or every attempt times out).  Returns the module's
  /// result map, or kNotFound (module not preloaded), the module's error,
  /// kUnavailable (backpressure budget spent) or kTimeout.  `info`, when
  /// non-null, receives per-invoke metadata on success.
  Result<KeyValueMap> invoke(std::string_view module,
                             const KeyValueMap& params,
                             InvokeInfo* info = nullptr);

  /// True if the module's log file exists — i.e. the daemon preloaded it.
  [[nodiscard]] bool module_available(std::string_view module) const;

  [[nodiscard]] std::uint64_t invocations() const noexcept {
    return invocations_.load(std::memory_order_relaxed);
  }

 private:
  /// One concurrent-invoke identity: a unique client id (fresh seq
  /// space, so cross-client collisions vanish by construction) plus its
  /// private reply file.  Slots are pooled and reused across invokes;
  /// each holds at most one request in flight.
  struct Slot {
    std::uint64_t client_id = 0;
    std::string reply_name;  ///< reply_file_name(client_id)
    std::uint64_t next_seq = 1;
    /// Byte cursor into the append-only reply log: replies already
    /// decoded are never re-read.
    std::uint64_t reply_offset = 0;
    /// Set by the reply watcher when the slot's reply file changes.
    std::mutex wake_mutex;
    std::condition_variable wake_cv;
    bool woken = false;
  };

  /// The daemon's advertised shard count; 0 while no manifest has been
  /// read.  `reread` probes the manifest again even when a count is
  /// cached; a manifest that cannot be read keeps the cached count.
  std::size_t shard_count(bool reread);

  /// Opens the reply watcher once the reply directory exists.  Caller
  /// holds mutex_.
  void watch_replies_locked();
  /// Reply-watcher callback: wakes the slot waiting on `path`, if any.
  void on_reply_event(const std::filesystem::path& path);
  /// Blocks until the slot's reply file changes or poll_interval passes.
  void await_reply(Slot& slot);

  ClientOptions options_;
  /// Guards shard_count_, free_slots_, waiting_ and reply_watch_opened_.
  std::mutex mutex_;
  std::size_t shard_count_ = 0;
  std::vector<std::unique_ptr<Slot>> free_slots_;
  /// Slots awaiting a reply, by reply-file name.
  std::map<std::string, Slot*, std::less<>> waiting_;
  bool reply_watch_opened_ = false;
  std::atomic<std::uint64_t> invocations_{0};
  /// inotify on the reply directory; null until the first invoke,
  /// or for good when inotify is unavailable.  Declared last so it stops
  /// before the state its callback touches is destroyed.
  std::unique_ptr<InotifyWatcher> reply_watcher_;
};

}  // namespace mcsd::fam
