// The host-node side of smartFAM (Fig. 5, "Returning results ... to a
// host node").
//
// Client::invoke writes a request record into the module's log file and
// waits for the daemon's response record with the matching sequence
// number.  One outstanding request per module at a time — the log file
// holds a single record — enforced with a per-module mutex, so concurrent
// callers serialise instead of clobbering each other.
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
  /// How often the host-side watcher re-reads the log file while waiting.
  /// On the sharded channel an inotify event on the reply file wakes the
  /// waiter first; this interval is the ceiling when no event arrives.
  std::chrono::milliseconds poll_interval{1};
  /// Give up on one attempt after this long without a response.
  std::chrono::milliseconds timeout{10'000};
  /// Total attempts per invoke (>= 1).  A retry re-reads the log to
  /// re-seed the sequence counter, then re-sends under a fresh (higher)
  /// seq — safe because the daemon dedupes by seq and one log file holds
  /// a single in-flight request.  Retries paper over a storage node that
  /// was still booting, a request record lost to a crash or suppressed
  /// watcher event, a response clobbered by another host's request, and
  /// transient I/O failures writing the request itself.  On the sharded
  /// channel a retry simply re-sends under the slot's next seq (no
  /// re-seeding needed: per-client seq spaces cannot collide).
  int max_attempts = 1;
  /// Tenant label stamped on rev-2 requests for daemon-side QoS
  /// accounting ("" = the default tenant).
  std::string tenant;
  /// Pin the rev-1 single-record module-log channel even when the daemon
  /// advertises the sharded mailbox — A/B baselines and the legacy
  /// contention tests.
  bool force_legacy = false;
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
  /// Rev 2: how many coalesced requests shared this module run (1 =
  /// solo run, 0 = legacy channel / daemon without the field).
  std::uint64_t waiters = 0;
  /// Rev 2: typed backpressure rejections absorbed before this invoke
  /// succeeded.
  int backpressure_retries = 0;
  /// True when the invoke travelled the sharded mailbox channel.
  bool sharded = false;
};

class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client();

  /// Offloads one invocation: writes the request, blocks until the
  /// response arrives (or timeout).  Returns the module's result map, or
  /// the module's error / kTimeout / kProtocolError.  `info`, when
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
  /// Which channel this client speaks — discovered lazily from the
  /// daemon's `channel.mcsd` manifest.
  enum class Channel : std::uint8_t {
    kUnknown,  ///< no manifest seen yet; rev-1 used until one appears
    kLegacy,   ///< forced, or the manifest is unusable
    kSharded,  ///< rev-2 mailbox channel
  };

  /// One concurrent-invoke identity on the sharded channel: a unique
  /// client id (fresh seq space, so cross-client collisions vanish by
  /// construction) plus its private reply file.  Slots are pooled and
  /// reused across invokes; each holds at most one request in flight.
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

  /// Reads the current record's seq (0 when the file is empty/comment).
  std::uint64_t current_seq(const std::filesystem::path& log) const;

  /// Probes the channel manifest (result cached once conclusive).
  Channel resolve_channel(std::size_t& shards);

  Result<KeyValueMap> invoke_legacy(std::string_view module,
                                    const KeyValueMap& params,
                                    InvokeInfo* info);
  Result<KeyValueMap> invoke_sharded(std::string_view module,
                                     const KeyValueMap& params,
                                     InvokeInfo* info, std::size_t shards);

  /// Opens the reply watcher once the reply directory exists.  Caller
  /// holds mutex_.
  void watch_replies_locked();
  /// Reply-watcher callback: wakes the slot waiting on `path`, if any.
  void on_reply_event(const std::filesystem::path& path);
  /// Blocks until the slot's reply file changes or poll_interval passes.
  void await_reply(Slot& slot);

  ClientOptions options_;
  /// Guards per_module_, channel state, free_slots_, waiting_ and
  /// reply_watch_opened_.
  std::mutex mutex_;
  struct PerModule {
    std::mutex in_flight;
    std::uint64_t next_seq = 0;  ///< 0 = not yet initialised from the file
  };
  std::map<std::string, std::unique_ptr<PerModule>, std::less<>> per_module_;
  Channel channel_ = Channel::kUnknown;
  std::size_t shard_count_ = 0;
  std::vector<std::unique_ptr<Slot>> free_slots_;
  /// Slots awaiting a reply, by reply-file name.
  std::map<std::string, Slot*, std::less<>> waiting_;
  bool reply_watch_opened_ = false;
  std::atomic<std::uint64_t> invocations_{0};
  /// inotify on the reply directory; null until the first sharded invoke,
  /// or for good when inotify is unavailable.  Declared last so it stops
  /// before the state its callback touches is destroyed.
  std::unique_ptr<InotifyWatcher> reply_watcher_;
};

}  // namespace mcsd::fam
