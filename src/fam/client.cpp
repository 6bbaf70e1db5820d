#include "fam/client.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "core/io.hpp"
#include "core/random.hpp"
#include "core/stopwatch.hpp"
#include "fam/inotify_watcher.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace mcsd::fam {

namespace fs = std::filesystem;

Client::Client(ClientOptions options) : options_(std::move(options)) {}

Client::~Client() = default;

bool Client::module_available(std::string_view module) const {
  return fs::exists(options_.log_dir / log_file_name(module));
}

std::uint64_t Client::current_seq(const fs::path& log) const {
  // A failed or undecodable read here is usually transient — a torn read
  // racing write_file_atomic's rename, or an NFS hiccup.  Falling back to
  // 0 on a *populated* log would restart the seq sequence, and the
  // daemon's dedup gate would then silently drop every request until the
  // counter climbed back past its high-water mark.  Retry briefly first.
  constexpr int kSeqReadAttempts = 5;
  for (int attempt = 0; attempt < kSeqReadAttempts; ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(std::chrono::milliseconds{1});
    auto contents = read_file(log);
    if (!contents) continue;
    if (contents.value().rfind("# mcsd", 0) == 0) {
      return 0;  // pristine comment-only header: seq genuinely starts at 0
    }
    auto record = decode_record(contents.value());
    if (!record) continue;  // torn write; next read sees a whole record
    return record.value().seq;
  }
  return 0;
}

Client::Channel Client::resolve_channel(std::size_t& shards) {
  std::lock_guard lock{mutex_};
  if (options_.force_legacy) return Channel::kLegacy;
  if (channel_ == Channel::kUnknown) {
    // Probe the daemon's channel advertisement.  An absent or unreadable
    // manifest leaves the mode undecided — this invoke travels rev-1
    // (the daemon, if any, serves it) and the next invoke re-probes, so
    // a client constructed before its daemon still upgrades.  Only a
    // manifest that *reads cleanly* is conclusive.
    if (auto contents = read_file(options_.log_dir / kManifestFileName)) {
      if (auto manifest = decode_manifest(contents.value())) {
        channel_ = Channel::kSharded;
        shard_count_ = manifest.value().shards;
      }
    }
  }
  shards = shard_count_;
  return channel_;
}

Result<KeyValueMap> Client::invoke(std::string_view module,
                                   const KeyValueMap& params,
                                   InvokeInfo* info) {
  MCSD_OBS_SPAN("fam", "fam.invoke:" + std::string{module});
  MCSD_OBS_COUNT("fam.client_invokes", 1);
  if (!valid_module_name(module)) {
    return Error{ErrorCode::kInvalidArgument,
                 "invalid module name: " + std::string{module}};
  }
  std::size_t shards = 0;
  if (resolve_channel(shards) == Channel::kSharded) {
    return invoke_sharded(module, params, info, shards);
  }
  return invoke_legacy(module, params, info);
}

Result<KeyValueMap> Client::invoke_legacy(std::string_view module,
                                          const KeyValueMap& params,
                                          InvokeInfo* info) {
  const fs::path log = options_.log_dir / log_file_name(module);
  if (!fs::exists(log)) {
    return Error{ErrorCode::kNotFound,
                 "module not preloaded (no log file): " + std::string{module}};
  }

  PerModule* state = nullptr;
  {
    std::lock_guard lock{mutex_};
    auto& slot = per_module_[std::string{module}];
    if (!slot) slot = std::make_unique<PerModule>();
    state = slot.get();
    invocations_.fetch_add(1, std::memory_order_relaxed);
  }

  // Serialise outstanding requests per module: the log file is a
  // single-record channel.
  std::lock_guard in_flight{state->in_flight};
  if (state->next_seq == 0) {
    state->next_seq = current_seq(log) + 1;
  }

  const int attempts = options_.max_attempts < 1 ? 1 : options_.max_attempts;
  Error last_error{ErrorCode::kInternal, "unreachable"};
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      MCSD_OBS_COUNT("fam.client_retries", 1);
      // Re-seed before every retry: a timeout may mean another host (or
      // our own lost write) advanced the log past our counter, and
      // re-sending a stale seq would only bounce off the daemon's dedup
      // gate again.  max() keeps the counter monotonic even if the file
      // currently shows an older record (or reads as torn -> 0).
      state->next_seq = std::max(state->next_seq, current_seq(log) + 1);
    }
    const std::uint64_t seq = state->next_seq++;
    Stopwatch round_trip;

    Record request;
    request.type = RecordType::kRequest;
    request.seq = seq;
    request.module = std::string{module};
    request.payload = params;
    if (Status s = write_file_atomic(log, encode_record(request)); !s) {
      // A failed request write (ENOSPC, transient EIO) consumes an
      // attempt rather than failing the invoke: the channel may recover.
      last_error = Error{s.error().code(),
                         "cannot write request: " + s.to_string()};
      continue;
    }

    // Await the matching response (inotify-equivalent: poll the file).
    Stopwatch waited;
    bool next_attempt = false;
    while (!next_attempt) {
      if (auto contents = read_file(log)) {
        if (auto record = decode_record(contents.value())) {
          const Record& r = record.value();
          if (r.type == RecordType::kResponse && r.seq == seq &&
              r.module == module) {
            if (!r.ok && r.last_seq > seq) {
              // Stale-seq reply: the daemon has already handled a higher
              // seq (another host owns the log right now).  Jump past its
              // high-water mark and retry instead of surfacing an error.
              MCSD_OBS_COUNT("fam.client_stale_replies", 1);
              state->next_seq = std::max(state->next_seq, r.last_seq + 1);
              last_error =
                  Error{ErrorCode::kUnavailable,
                        "request lost seq race: " + r.error_message};
              next_attempt = true;
              continue;
            }
            // Round trip = request write .. response observed, the
            // paper's invoke->dispatch->result latency as the host sees
            // it (includes daemon poll + module run).
            const double rt_seconds = round_trip.elapsed_seconds();
            MCSD_OBS_HIST("fam.round_trip_us", "us",
                          static_cast<std::uint64_t>(rt_seconds * 1e6));
            if (info) {
              info->cache = r.cache;
              info->cache_epoch = r.cache_epoch;
              info->round_trip_seconds = rt_seconds;
            }
            if (!r.ok) {
              MCSD_OBS_COUNT("fam.client_module_errors", 1);
              return Error{ErrorCode::kInternal,
                           "module error: " + r.error_message};
            }
            return r.payload;
          }
          if (r.seq > seq) {
            // Someone raced past us (another host process); our response
            // is unrecoverable.  Leapfrog the racer's seq and re-send.
            state->next_seq = std::max(state->next_seq, r.seq + 1);
            last_error =
                Error{ErrorCode::kProtocolError,
                      "response overwritten by newer request (seq " +
                          std::to_string(r.seq) + " > " +
                          std::to_string(seq) + ")"};
            next_attempt = true;
            continue;
          }
        }
      }
      if (waited.elapsed() > options_.timeout) {
        MCSD_OBS_COUNT("fam.client_timeouts", 1);
        last_error = Error{
            ErrorCode::kTimeout,
            "no response from " + std::string{module} + " within " +
                std::to_string(options_.timeout.count()) + " ms (attempt " +
                std::to_string(attempt + 1) + "/" + std::to_string(attempts) +
                ")"};
        next_attempt = true;
      } else {
        std::this_thread::sleep_for(options_.poll_interval);
      }
    }
  }
  return last_error;
}

namespace {

/// Process-unique rev-2 client id.  The pid in the high bits keeps ids
/// from colliding across host processes sharing one log folder; the
/// counter keeps them unique within the process.  Never 0 (0 marks a
/// legacy record / a tombstoned waiter).
std::uint64_t next_client_id() {
  static std::atomic<std::uint64_t> counter{0};
  const auto pid = static_cast<std::uint64_t>(::getpid());
  return (pid << 32) ^
         (counter.fetch_add(1, std::memory_order_relaxed) + 1);
}

/// Cheap change detector for the reply file.  The daemon appends every
/// reply as a new frame, so each reply grows the file — one ::stat per
/// wakeup tells us whether there is anything new to decode.
/// Without this gate, N waiting slots each open+read+decode the reply
/// file every poll interval; at hundreds of concurrent clients that
/// read storm saturates the filesystem and the daemon's reply *writes*
/// queue behind it (measured: ~16 ms per tiny atomic write under a
/// 64-client read storm vs ~0.3 ms unloaded).
struct ReplyFileStamp {
  bool exists = false;
  std::uint64_t ino = 0;
  std::uint64_t size = 0;
  std::int64_t mtime_ns = 0;

  bool operator==(const ReplyFileStamp&) const = default;
};

ReplyFileStamp stat_reply(const fs::path& path) {
  struct ::stat st{};
  ReplyFileStamp out;
  if (::stat(path.c_str(), &st) != 0) return out;
  out.exists = true;
  out.ino = static_cast<std::uint64_t>(st.st_ino);
  out.size = static_cast<std::uint64_t>(st.st_size);
  out.mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) *
                     1'000'000'000 +
                 static_cast<std::int64_t>(st.st_mtim.tv_nsec);
  return out;
}

}  // namespace

Result<KeyValueMap> Client::invoke_sharded(std::string_view module,
                                           const KeyValueMap& params,
                                           InvokeInfo* info,
                                           std::size_t shards) {
  // The hybrid daemon still materialises one rev-1 log per preloaded
  // module, so "no log file" still means "module not preloaded" — fail
  // fast instead of waiting out the timeout for an error reply.
  if (!fs::exists(options_.log_dir / log_file_name(module))) {
    return Error{ErrorCode::kNotFound,
                 "module not preloaded (no log file): " + std::string{module}};
  }

  // Acquire a slot: one per concurrently outstanding invoke.  Unlike the
  // rev-1 channel there is no per-module serialisation — slots write to
  // hashed mailboxes and await private reply files, so N threads invoke
  // N requests in parallel.
  std::unique_ptr<Slot> slot;
  {
    std::lock_guard lock{mutex_};
    invocations_.fetch_add(1, std::memory_order_relaxed);
    if (!reply_watch_opened_) watch_replies_locked();
    if (!free_slots_.empty()) {
      slot = std::move(free_slots_.back());
      free_slots_.pop_back();
    } else {
      slot = std::make_unique<Slot>();
      slot->client_id = next_client_id();
      slot->reply_name = reply_file_name(slot->client_id);
    }
    waiting_.emplace(slot->reply_name, slot.get());
  }

  const fs::path shard =
      options_.log_dir / kShardDirName /
      shard_file_name(shard_for_client(slot->client_id, shards));
  const fs::path reply_file =
      options_.log_dir / kReplyDirName / slot->reply_name;
  const auto deadline_ms =
      static_cast<std::uint64_t>(options_.timeout.count());

  // Deterministic per-slot jitter stream for backpressure backoff.
  SplitMix64 jitter{slot->client_id ^ (slot->next_seq * 0x9E3779B97F4A7C15ULL)};

  const int attempts = options_.max_attempts < 1 ? 1 : options_.max_attempts;
  int backpressure_left = options_.max_backpressure_retries < 0
                              ? 0
                              : options_.max_backpressure_retries;
  int backpressure_used = 0;
  Error last_error{ErrorCode::kInternal, "unreachable"};
  auto release_slot = [this, &slot] {
    std::lock_guard lock{mutex_};
    waiting_.erase(slot->reply_name);
    free_slots_.push_back(std::move(slot));
  };

  for (int attempt = 0; attempt < attempts;) {
    const std::uint64_t seq = slot->next_seq++;
    Record request;
    request.type = RecordType::kRequest;
    request.seq = seq;
    request.module = std::string{module};
    request.client_id = slot->client_id;
    request.tenant = options_.tenant;
    request.deadline_ms = deadline_ms;
    request.payload = params;
    if (Status s = append_file(shard, encode_record(request)); !s) {
      // A failed append (ENOSPC, transient EIO) consumes an attempt
      // rather than failing the invoke: the mailbox may recover.  A torn
      // append is silent — the daemon drops the corrupt frame and the
      // timeout below covers it.
      last_error = Error{s.error().code(),
                         "cannot append request: " + s.to_string()};
      ++attempt;
      continue;
    }

    Stopwatch round_trip;
    Stopwatch waited;
    bool next_attempt = false;
    // Read the reply file only when its identity changed since the last
    // decode — see ReplyFileStamp.  `decoded` starts one step behind so
    // the first poll always reads (a reply may already be there when the
    // stat race goes the daemon's way).
    ReplyFileStamp decoded;
    bool force_read = true;
    while (!next_attempt) {
      const ReplyFileStamp current = stat_reply(reply_file);
      const bool changed = force_read || !(current == decoded);
      force_read = false;
      decoded = current;
      // The reply file is an append-only frame log; decode forward from
      // the slot's cursor.  Frames for older seqs (stale fan-outs the
      // daemon's guard admitted before ours) are skipped; r.seq > seq is
      // impossible (the daemon's reply guard is monotonic and this slot
      // owns the file), so no leapfrog handling is needed.  A torn or
      // corrupt frame is skipped by the stream's CRC resync and the
      // timeout below covers the lost reply.
      std::optional<Record> reply;
      if (changed) {
        if (auto tail = read_file_from(reply_file, slot->reply_offset)) {
          FrameStream stream = decode_frame_stream(tail.value());
          slot->reply_offset += stream.consumed;
          for (Record& r : stream.records) {
            if (r.type == RecordType::kResponse && r.seq == seq) {
              reply = std::move(r);
            }
          }
        }
      }
      if (reply) {
        const Record& r = *reply;
        if (r.retry_after_ms != 0) {
          // Typed backpressure: the admission queue bounced us.
          // Honour the hint with jittered exponential backoff (the
          // hint doubles per consecutive rejection, jittered to
          // ±50% so a rejected herd de-correlates) and re-send
          // under a fresh seq — without consuming a timeout
          // attempt: the daemon answered, nothing was lost.
          MCSD_OBS_COUNT("fam.client_backpressure", 1);
          if (backpressure_left == 0) {
            release_slot();
            return Error{ErrorCode::kUnavailable,
                         "backpressure retries exhausted: " +
                             r.error_message};
          }
          --backpressure_left;
          ++backpressure_used;
          const int shift =
              backpressure_used < 6 ? backpressure_used - 1 : 5;
          const std::uint64_t base = r.retry_after_ms << shift;
          const std::uint64_t capped = std::min<std::uint64_t>(
              base, 250);
          // 50%..150% of the capped hint.
          const std::uint64_t delay_ms =
              capped / 2 + jitter.next() % (capped + 1);
          std::this_thread::sleep_for(
              std::chrono::milliseconds{delay_ms});
          next_attempt = true;  // resend (attempt not consumed)
          continue;
        }
        const double rt_seconds = round_trip.elapsed_seconds();
        MCSD_OBS_HIST("fam.round_trip_us", "us",
                      static_cast<std::uint64_t>(rt_seconds * 1e6));
        if (info) {
          info->cache = r.cache;
          info->cache_epoch = r.cache_epoch;
          info->round_trip_seconds = rt_seconds;
          info->waiters = r.waiters;
          info->backpressure_retries = backpressure_used;
          info->sharded = true;
        }
        if (!r.ok) {
          MCSD_OBS_COUNT("fam.client_module_errors", 1);
          release_slot();
          return Error{ErrorCode::kInternal,
                       "module error: " + r.error_message};
        }
        release_slot();
        return r.payload;
      }
      if (waited.elapsed() > options_.timeout) {
        MCSD_OBS_COUNT("fam.client_timeouts", 1);
        last_error = Error{
            ErrorCode::kTimeout,
            "no response from " + std::string{module} + " within " +
                std::to_string(options_.timeout.count()) + " ms (attempt " +
                std::to_string(attempt + 1) + "/" + std::to_string(attempts) +
                ", sharded)"};
        ++attempt;
        next_attempt = true;
      } else {
        await_reply(*slot);
      }
    }
  }
  release_slot();
  return last_error;
}

void Client::watch_replies_locked() {
  // The daemon creates the reply directory before it advertises the
  // manifest, so it normally exists by the first sharded invoke.  If not,
  // stay on the timer and try again next invoke.
  const fs::path dir = options_.log_dir / kReplyDirName;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return;
  reply_watch_opened_ = true;
  auto watcher = InotifyWatcher::create(
      dir, [this](const fs::path& path) { on_reply_event(path); });
  // Without inotify (no kernel support, out of instances) every reply is
  // found by the poll_interval timer, as it is over NFS.
  if (!watcher) return;
  reply_watcher_ = std::move(watcher).value();
  reply_watcher_->start();
}

void Client::on_reply_event(const fs::path& path) {
  // mutex_ keeps the slot registered (and so awaited) while it is woken.
  std::lock_guard lock{mutex_};
  const auto found = waiting_.find(path.filename().native());
  if (found == waiting_.end()) return;
  Slot& slot = *found->second;
  {
    std::lock_guard wake_lock{slot.wake_mutex};
    slot.woken = true;
  }
  slot.wake_cv.notify_one();
}

void Client::await_reply(Slot& slot) {
  // The flag is cleared only after a wait, and the reply file is checked
  // after each wait, so an event that fires between that check and this
  // wait is not lost: it ends the wait at once.
  std::unique_lock lock{slot.wake_mutex};
  if (slot.wake_cv.wait_for(lock, options_.poll_interval,
                            [&slot] { return slot.woken; })) {
    MCSD_OBS_COUNT("fam.client.reply_wakeups(cause=event)", 1);
  } else {
    MCSD_OBS_COUNT("fam.client.reply_wakeups(cause=timer)", 1);
  }
  slot.woken = false;
}

}  // namespace mcsd::fam
