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

std::size_t Client::shard_count(bool reread) {
  std::lock_guard lock{mutex_};
  if (reread || shard_count_ == 0) {
    // Only a manifest that reads cleanly replaces the cached count: a
    // torn or failed read must not strand slots on a guessed shard.
    if (auto contents = read_file(options_.log_dir / kManifestFileName)) {
      if (auto manifest = decode_manifest(contents.value())) {
        shard_count_ = manifest.value().shards;
      }
    }
  }
  return shard_count_;
}

namespace {

/// Process-unique client id.  The pid in the high bits keeps ids from
/// colliding across host processes sharing one log folder; the counter
/// keeps them unique within the process.  Never 0 (0 marks a tombstoned
/// waiter).
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

Result<KeyValueMap> Client::invoke(std::string_view module,
                                   const KeyValueMap& params,
                                   InvokeInfo* info) {
  MCSD_OBS_SPAN("fam", "fam.invoke:" + std::string{module});
  MCSD_OBS_COUNT("fam.client_invokes", 1);
  if (!valid_module_name(module)) {
    return Error{ErrorCode::kInvalidArgument,
                 "invalid module name: " + std::string{module}};
  }
  // The daemon creates one log file per preloaded module, so "no log
  // file" means "module not preloaded" — fail fast instead of waiting out
  // the timeout for an error reply.
  if (!module_available(module)) {
    return Error{ErrorCode::kNotFound,
                 "module not preloaded (no log file): " + std::string{module}};
  }

  // Acquire a slot: one per concurrently outstanding invoke.  Slots
  // append to hashed mailboxes and await private reply files, so N
  // threads invoke N requests in parallel.
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

  auto attempt_label = [attempts](int attempt) {
    return "(attempt " + std::to_string(attempt + 1) + "/" +
           std::to_string(attempts) + ")";
  };

  std::size_t shards = shard_count(/*reread=*/false);
  for (int attempt = 0; attempt < attempts;) {
    // No manifest yet (the daemon is still booting): keep probing for one
    // until this attempt's timeout.
    Stopwatch probing;
    while (shards == 0 && probing.elapsed() <= options_.timeout) {
      std::this_thread::sleep_for(options_.poll_interval);
      shards = shard_count(/*reread=*/true);
    }
    if (shards == 0) {
      MCSD_OBS_COUNT("fam.client_timeouts", 1);
      last_error = Error{
          ErrorCode::kTimeout,
          "no channel manifest " +
              (options_.log_dir / kManifestFileName).string() + " within " +
              std::to_string(options_.timeout.count()) + " ms " +
              attempt_label(attempt)};
      ++attempt;
      continue;
    }
    const fs::path shard =
        options_.log_dir / kShardDirName /
        shard_file_name(shard_for_client(slot->client_id, shards));

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
        last_error = Error{ErrorCode::kTimeout,
                           "no response from " + std::string{module} +
                               " within " +
                               std::to_string(options_.timeout.count()) +
                               " ms " + attempt_label(attempt)};
        ++attempt;
        next_attempt = true;
        // A daemon restarted with fewer shards no longer drains this
        // slot's mailbox: the next attempt goes where the manifest says.
        shards = shard_count(/*reread=*/true);
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
  // manifest, so it normally exists by the first invoke.  If not,
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
