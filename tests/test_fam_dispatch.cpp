// The sharded mailbox dispatch layer (DESIGN.md §13): admission
// queue semantics, shard drain cursors, QoS accounting, and the
// end-to-end serving properties the channel promises — fair shard
// draining, coalesced responses byte-identical to solo runs, typed
// backpressure the client honours, exactly-once replies under a
// multi-threaded hammer, and the event-driven wakeups with their timer
// fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "core/hash.hpp"
#include "core/io.hpp"
#include "core/stopwatch.hpp"
#include "fam/client.hpp"
#include "fam/daemon.hpp"
#include "fam/dispatch.hpp"
#include "fam/inotify_watcher.hpp"
#include "fam/protocol.hpp"
#include "obs/counters.hpp"

namespace mcsd::fam {
namespace {

using namespace std::chrono_literals;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// AdmissionQueue unit tests.

dispatch::PendingRequest make_pending(std::uint64_t client, std::uint64_t seq,
                                      std::string module = "m") {
  dispatch::PendingRequest pending;
  pending.request.type = RecordType::kRequest;
  pending.request.client_id = client;
  pending.request.seq = seq;
  pending.request.module = std::move(module);
  pending.admitted_at = std::chrono::steady_clock::now();
  return pending;
}

TEST(AdmissionQueue, AcceptThenPop) {
  dispatch::AdmissionQueue q{4};
  EXPECT_EQ(q.push(make_pending(1, 1), "k"), dispatch::Admission::kAccepted);
  EXPECT_EQ(q.depth(), 1u);
  const auto batch = q.pop();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->waiters.size(), 1u);
  EXPECT_EQ(batch->waiters[0].request.client_id, 1u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(AdmissionQueue, SameKeyCoalescesIntoOneBatch) {
  dispatch::AdmissionQueue q{4};
  EXPECT_EQ(q.push(make_pending(1, 1), "k"), dispatch::Admission::kAccepted);
  EXPECT_EQ(q.push(make_pending(2, 1), "k"), dispatch::Admission::kCoalesced);
  EXPECT_EQ(q.push(make_pending(3, 1), "k"), dispatch::Admission::kCoalesced);
  EXPECT_EQ(q.depth(), 1u);
  const auto batch = q.pop();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->waiters.size(), 3u);
}

TEST(AdmissionQueue, EmptyKeyNeverCoalesces) {
  dispatch::AdmissionQueue q{4};
  EXPECT_EQ(q.push(make_pending(1, 1), ""), dispatch::Admission::kAccepted);
  EXPECT_EQ(q.push(make_pending(2, 1), ""), dispatch::Admission::kAccepted);
  EXPECT_EQ(q.depth(), 2u);
}

TEST(AdmissionQueue, BoundRejectsNewBatchesButAdmitsJoiners) {
  dispatch::AdmissionQueue q{1};
  EXPECT_EQ(q.push(make_pending(1, 1), "k"), dispatch::Admission::kAccepted);
  // A distinct batch would exceed the bound; a coalesced joiner costs no
  // extra module run and is admitted even at the bound.
  EXPECT_EQ(q.push(make_pending(2, 1), "other"),
            dispatch::Admission::kRejected);
  EXPECT_EQ(q.push(make_pending(3, 1), "k"), dispatch::Admission::kCoalesced);
  EXPECT_GE(q.retry_after_ms(), 1u);
}

TEST(AdmissionQueue, StaleSeqIsDropped) {
  dispatch::AdmissionQueue q{4};
  EXPECT_EQ(q.push(make_pending(7, 5), ""), dispatch::Admission::kAccepted);
  EXPECT_EQ(q.push(make_pending(7, 5), ""), dispatch::Admission::kStale);
  EXPECT_EQ(q.push(make_pending(7, 4), ""), dispatch::Admission::kStale);
  EXPECT_EQ(q.depth(), 1u);
}

TEST(AdmissionQueue, CompatibleResendSupersedesInPlace) {
  dispatch::AdmissionQueue q{4};
  EXPECT_EQ(q.push(make_pending(7, 1), "k"), dispatch::Admission::kAccepted);
  EXPECT_EQ(q.push(make_pending(7, 2), "k"),
            dispatch::Admission::kSuperseded);
  EXPECT_EQ(q.depth(), 1u);
  const auto batch = q.pop();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->waiters.size(), 1u);
  // The newer seq replaced the older request; the client only polls for
  // its newest seq.
  EXPECT_EQ(batch->waiters[0].request.seq, 2u);
}

TEST(AdmissionQueue, IncompatibleResendTombstonesOldWaiter) {
  dispatch::AdmissionQueue q{4};
  EXPECT_EQ(q.push(make_pending(1, 1), "k"), dispatch::Admission::kAccepted);
  EXPECT_EQ(q.push(make_pending(7, 1), "k"), dispatch::Admission::kCoalesced);
  // Client 7 re-sends with different params: it must NOT mutate the
  // coalesced batch (whose other waiter expects the batch's canonical
  // params) — the old waiter is tombstoned and the new request queues
  // separately.
  EXPECT_EQ(q.push(make_pending(7, 2), "other"),
            dispatch::Admission::kSuperseded);
  EXPECT_EQ(q.depth(), 2u);
  const auto first = q.pop();
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->waiters.size(), 2u);
  EXPECT_EQ(first->waiters[0].request.client_id, 1u);
  EXPECT_EQ(first->waiters[1].request.client_id, 0u);  // tombstone
  const auto second = q.pop();
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(second->waiters.size(), 1u);
  EXPECT_EQ(second->waiters[0].request.client_id, 7u);
  EXPECT_EQ(second->waiters[0].request.seq, 2u);
}

TEST(AdmissionQueue, PoppedBatchIsClosedToCoalescing) {
  dispatch::AdmissionQueue q{4};
  EXPECT_EQ(q.push(make_pending(1, 1), "k"), dispatch::Admission::kAccepted);
  ASSERT_TRUE(q.pop().has_value());
  // The run may already be in flight — a late identical request must get
  // its own batch, not join one that left the queue.
  EXPECT_EQ(q.push(make_pending(2, 1), "k"), dispatch::Admission::kAccepted);
  const auto batch = q.pop();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->waiters.size(), 1u);
}

TEST(AdmissionQueue, CloseDrainsThenReturnsNullopt) {
  dispatch::AdmissionQueue q{4};
  EXPECT_EQ(q.push(make_pending(1, 1), ""), dispatch::Admission::kAccepted);
  q.close();
  EXPECT_EQ(q.push(make_pending(2, 1), ""), dispatch::Admission::kClosed);
  EXPECT_TRUE(q.pop().has_value());   // admitted before close still served
  EXPECT_FALSE(q.pop().has_value());  // then drained
}

// ---------------------------------------------------------------------
// drain_shard unit tests.

std::string request_frame(std::uint64_t client, std::uint64_t seq) {
  Record r;
  r.type = RecordType::kRequest;
  r.client_id = client;
  r.seq = seq;
  r.module = "m";
  return encode_record(r);
}

TEST(DrainShard, ReadsOnlyNewFrames) {
  TempDir dir{"drain"};
  dispatch::ShardDrain shard;
  shard.path = dir / "shard-0.log";
  ASSERT_TRUE(append_file(shard.path, request_frame(1, 1)).is_ok());
  ASSERT_TRUE(append_file(shard.path, request_frame(2, 1)).is_ok());
  EXPECT_EQ(dispatch::drain_shard(shard).size(), 2u);
  EXPECT_EQ(dispatch::drain_shard(shard).size(), 0u);  // cursor advanced
  ASSERT_TRUE(append_file(shard.path, request_frame(3, 1)).is_ok());
  const auto more = dispatch::drain_shard(shard);
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(more[0].client_id, 3u);
  EXPECT_EQ(shard.drained, 3u);
  EXPECT_EQ(shard.corrupt, 0u);
}

TEST(DrainShard, TornTailIsRetriedNextPass) {
  TempDir dir{"draintorn"};
  dispatch::ShardDrain shard;
  shard.path = dir / "shard-0.log";
  const std::string whole = request_frame(2, 1);
  // A complete frame followed by half of the next one (no crc line yet —
  // the writer is mid-append).
  ASSERT_TRUE(append_file(shard.path, request_frame(1, 1)).is_ok());
  ASSERT_TRUE(append_file(shard.path, whole.substr(0, whole.size() / 2))
                  .is_ok());
  EXPECT_EQ(dispatch::drain_shard(shard).size(), 1u);
  // The cursor stopped at the frame boundary; completing the tail makes
  // the second frame whole and the next pass picks it up.
  ASSERT_TRUE(
      append_file(shard.path, whole.substr(whole.size() / 2)).is_ok());
  const auto rest = dispatch::drain_shard(shard);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].client_id, 2u);
  EXPECT_EQ(shard.corrupt, 0u);
}

TEST(DrainShard, CorruptFrameIsSkippedWithResync) {
  TempDir dir{"draincorrupt"};
  dispatch::ShardDrain shard;
  shard.path = dir / "shard-0.log";
  std::string bad = request_frame(2, 1);
  bad.replace(bad.find("mcsd.client"), 11, "mcsd.CLIENT");  // breaks the crc
  ASSERT_TRUE(append_file(shard.path, request_frame(1, 1)).is_ok());
  ASSERT_TRUE(append_file(shard.path, bad).is_ok());
  ASSERT_TRUE(append_file(shard.path, request_frame(3, 1)).is_ok());
  const auto drained = dispatch::drain_shard(shard);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].client_id, 1u);
  EXPECT_EQ(drained[1].client_id, 3u);
  EXPECT_EQ(shard.corrupt, 1u);
}

// ---------------------------------------------------------------------
// QosRegistry.

TEST(QosRegistry, PerTenantAccounting) {
  dispatch::QosRegistry qos;
  qos.record_accepted("acme");
  qos.record_accepted("acme");
  qos.record_rejected("acme");
  qos.record_coalesced("");  // "" folds into "default"
  qos.record_completed("acme", 1000);
  qos.record_completed("acme", 3000);
  const auto snapshot = qos.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  // std::map ordering: "acme" < "default".
  EXPECT_EQ(snapshot[0].tenant, "acme");
  EXPECT_EQ(snapshot[0].accepted, 2u);
  EXPECT_EQ(snapshot[0].rejected, 1u);
  EXPECT_EQ(snapshot[0].completed, 2u);
  EXPECT_EQ(snapshot[0].invoke_us.count, 2u);
  EXPECT_EQ(snapshot[0].invoke_us.sum, 4000u);
  EXPECT_EQ(snapshot[0].invoke_us.max, 3000u);
  EXPECT_EQ(snapshot[1].tenant, "default");
  EXPECT_EQ(snapshot[1].coalesced, 1u);
}

// ---------------------------------------------------------------------
// End-to-end serving over a real daemon.

std::shared_ptr<Module> echo_module() {
  return std::make_shared<FunctionModule>(
      "echo", [](const KeyValueMap& params) -> Result<KeyValueMap> {
        KeyValueMap out = params;
        out.set("echoed", "true");
        return out;
      });
}

/// A module whose invoke blocks until the test releases it — pins the
/// (single) batch worker so requests pile up in the admission queue
/// deterministically.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::atomic<bool> entered{false};

  std::shared_ptr<Module> module() {
    return std::make_shared<FunctionModule>(
        "gate", [this](const KeyValueMap&) -> Result<KeyValueMap> {
          entered.store(true);
          std::unique_lock lock{mutex};
          cv.wait(lock, [this] { return open; });
          KeyValueMap out;
          out.set("gated", "true");
          return out;
        });
  }
  void release() {
    std::lock_guard lock{mutex};
    open = true;
    cv.notify_all();
  }
  void await_entered() {
    while (!entered.load()) std::this_thread::sleep_for(1ms);
  }
};

/// Deterministic cacheable module: result is a pure function of the
/// input file and params, so coalesced responses can be compared
/// byte-for-byte against a solo run.
std::shared_ptr<Module> digest_module() {
  auto module = std::make_shared<FunctionModule>(
      "digest", [](const KeyValueMap& params) -> Result<KeyValueMap> {
        const auto input = params.get("input");
        if (!input) return Error{ErrorCode::kInvalidArgument, "need input"};
        auto text = read_file(*input);
        if (!text) return text.error();
        KeyValueMap out;
        out.set_uint("bytes", text.value().size());
        out.set_uint("crc", fnv1a(text.value()));
        if (const auto tag = params.get("tag")) out.set("tag", *tag);
        return out;
      });
  module->set_cache_inputs(
      [](const KeyValueMap& params)
          -> std::optional<std::vector<fs::path>> {
        const auto input = params.get("input");
        if (!input) return std::nullopt;
        return std::vector<fs::path>{fs::path{*input}};
      });
  return module;
}

TEST(ShardedServe, EveryShardIsDrainedNoneStarve) {
  TempDir dir{"fairness"};
  DaemonOptions dopts{dir.path(), 2};
  dopts.channel_shards = 4;
  Daemon daemon{dopts};
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  daemon.start();

  // Hand-pick one client id per shard (the client normally hashes its
  // own id) and append a request frame directly into each mailbox — the
  // drainer must serve all four, regardless of which shard they sit on.
  std::vector<std::uint64_t> clients(4, 0);
  for (std::uint64_t id = 1; id < 1000; ++id) {
    clients[shard_for_client(id, 4)] = id;
  }
  for (std::size_t shard = 0; shard < 4; ++shard) {
    ASSERT_NE(clients[shard], 0u) << "no id hashed to shard " << shard;
    Record request;
    request.type = RecordType::kRequest;
    request.seq = 1;
    request.module = "echo";
    request.client_id = clients[shard];
    request.payload.set("shard", std::to_string(shard));
    ASSERT_TRUE(append_file(dir / kShardDirName / shard_file_name(shard),
                            encode_record(request))
                    .is_ok());
  }

  // Every client gets exactly its own reply.
  for (std::size_t shard = 0; shard < 4; ++shard) {
    const fs::path reply =
        dir / kReplyDirName / reply_file_name(clients[shard]);
    Stopwatch waited;
    for (;;) {
      if (auto contents = read_file(reply)) {
        if (auto record = decode_record(contents.value())) {
          ASSERT_EQ(record.value().type, RecordType::kResponse);
          EXPECT_TRUE(record.value().ok);
          EXPECT_EQ(record.value().payload.get("shard"),
                    std::to_string(shard));
          break;
        }
      }
      ASSERT_LT(waited.elapsed(), 10s) << "shard " << shard << " starved";
      std::this_thread::sleep_for(1ms);
    }
  }
  daemon.stop();
  const auto stats = daemon.shard_stats();
  ASSERT_EQ(stats.size(), 4u);
  for (std::size_t shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(stats[shard].drained, 1u) << "shard " << shard;
    EXPECT_EQ(stats[shard].corrupt, 0u);
  }
  EXPECT_EQ(daemon.requests_handled(), 4u);
}

TEST(ShardedServe, CoalescedResponsesAreByteIdenticalToSoloRun) {
  TempDir dir{"coalesce"};
  const fs::path corpus = dir / "corpus.txt";
  ASSERT_TRUE(write_file(corpus, "the quick brown fox\n").is_ok());

  Gate gate;
  DaemonOptions dopts{dir.path(), 1};  // single batch worker
  Daemon daemon{dopts};
  ASSERT_TRUE(daemon.preload(gate.module()).is_ok());
  ASSERT_TRUE(daemon.preload(digest_module()).is_ok());
  daemon.start();

  Client client{ClientOptions{dir.path(), 1ms, 30'000ms}};

  // The solo baseline: a cold run with nothing else in flight.
  KeyValueMap params;
  params.set("input", corpus.string());
  params.set("tag", "solo");
  const auto solo = client.invoke("digest", params);
  ASSERT_TRUE(solo.is_ok()) << solo.error().to_string();

  // Pin the only batch worker, then fire three identical requests: the
  // first becomes a queued batch, the other two coalesce into it.
  std::thread blocker{[&] { (void)client.invoke("gate", KeyValueMap{}); }};
  gate.await_entered();

  KeyValueMap repeat;
  repeat.set("input", corpus.string());
  repeat.set("tag", "coalesced");
  std::vector<std::string> payloads(3);
  std::vector<InvokeInfo> infos(3);
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      const auto result = client.invoke("digest", repeat, &infos[i]);
      ASSERT_TRUE(result.is_ok()) << result.error().to_string();
      payloads[i] = result.value().serialize();
    });
  }
  // All three must be queued (1 accepted + 2 coalesced) before the
  // worker is released, or they would be served one by one.
  Stopwatch waited;
  while (daemon.coalesced() < 2) {
    ASSERT_LT(waited.elapsed(), 10s)
        << "coalesced=" << daemon.coalesced();
    std::this_thread::sleep_for(1ms);
  }
  gate.release();
  for (auto& t : threads) t.join();
  blocker.join();
  daemon.stop();

  EXPECT_EQ(daemon.coalesced(), 2u);
  for (int i = 0; i < 3; ++i) {
    // Byte-identical across all coalesced waiters...
    EXPECT_EQ(payloads[i], payloads[0]);
    // ...and each waiter knows how many requests shared the run.
    EXPECT_EQ(infos[i].waiters, 3u);
  }
  // ...and byte-identical to the solo run, modulo the tag the test
  // varied to keep the solo run out of the coalesced batch's key.
  auto strip_tag = [](const KeyValueMap& payload) {
    KeyValueMap copy;
    for (const auto& [key, value] : payload.entries()) {
      if (key != "tag") copy.set(key, value);
    }
    return copy.serialize();
  };
  auto coalesced0 = KeyValueMap::parse(payloads[0]);
  ASSERT_TRUE(coalesced0.is_ok());
  EXPECT_EQ(strip_tag(coalesced0.value()), strip_tag(solo.value()));
}

TEST(ShardedServe, BackpressureRoundTrip) {
  TempDir dir{"backpressure"};
  Gate gate;
  DaemonOptions dopts{dir.path(), 1};
  dopts.admission_queue_limit = 1;
  Daemon daemon{dopts};
  ASSERT_TRUE(daemon.preload(gate.module()).is_ok());
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  daemon.start();

  Client client{ClientOptions{dir.path(), 1ms, 30'000ms}};

  // Occupy the single worker, then fill the one queue slot.
  std::thread blocker{[&] { (void)client.invoke("gate", KeyValueMap{}); }};
  gate.await_entered();
  KeyValueMap filler_params;
  filler_params.set("who", "filler");
  std::thread filler{[&] {
    const auto r = client.invoke("echo", filler_params);
    EXPECT_TRUE(r.is_ok());
  }};
  Stopwatch queue_wait;
  // accepted() == 1 is just the blocker (already popped by the worker);
  // only accepted() == 2 proves the filler holds the single queue slot.
  // Sending earlier races the filler for that slot, and the loser parks
  // behind the gate until its timeout.
  while (daemon.accepted() < 2) {
    ASSERT_LT(queue_wait.elapsed(), 10s);
    std::this_thread::sleep_for(1ms);
  }

  // The next distinct request must bounce with a typed retry-after; the
  // client backs off and retries until the queue drains.
  KeyValueMap bounced_params;
  bounced_params.set("who", "bounced");
  InvokeInfo info;
  std::thread bounced{[&] {
    const auto r = client.invoke("echo", bounced_params, &info);
    ASSERT_TRUE(r.is_ok()) << r.error().to_string();
    EXPECT_EQ(r.value().get("who"), "bounced");
  }};
  Stopwatch reject_wait;
  while (daemon.rejected() < 1) {
    ASSERT_LT(reject_wait.elapsed(), 10s);
    std::this_thread::sleep_for(1ms);
  }
  gate.release();
  bounced.join();
  filler.join();
  blocker.join();
  daemon.stop();

  EXPECT_GE(daemon.rejected(), 1u);
  EXPECT_GE(info.backpressure_retries, 1);
  const auto qos = daemon.qos_snapshot();
  ASSERT_EQ(qos.size(), 1u);
  EXPECT_EQ(qos[0].tenant, "default");
  EXPECT_GE(qos[0].rejected, 1u);
}

TEST(ShardedServe, BackpressureBudgetExhaustionReturnsUnavailable) {
  TempDir dir{"bpbudget"};
  Gate gate;
  DaemonOptions dopts{dir.path(), 1};
  dopts.admission_queue_limit = 1;
  Daemon daemon{dopts};
  ASSERT_TRUE(daemon.preload(gate.module()).is_ok());
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  daemon.start();

  Client patient{ClientOptions{dir.path(), 1ms, 30'000ms}};
  std::thread blocker{[&] { (void)patient.invoke("gate", KeyValueMap{}); }};
  gate.await_entered();
  KeyValueMap filler_params;
  filler_params.set("who", "filler");
  std::thread filler{[&] { (void)patient.invoke("echo", filler_params); }};
  Stopwatch queue_wait;
  // Wait for BOTH admissions (blocker + filler): only then is the single
  // queue slot provably held by the filler.  Sending the impatient
  // request earlier races the filler for the slot, and if it wins it
  // parks behind the gate until its own timeout instead of bouncing.
  while (daemon.accepted() < 2) {
    ASSERT_LT(queue_wait.elapsed(), 10s);
    std::this_thread::sleep_for(1ms);
  }

  ClientOptions impatient_opts{dir.path(), 1ms, 30'000ms};
  impatient_opts.max_backpressure_retries = 0;  // first rejection is final
  Client impatient{impatient_opts};
  KeyValueMap params;
  params.set("who", "giveup");
  const auto result = impatient.invoke("echo", params);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kUnavailable);

  gate.release();
  filler.join();
  blocker.join();
  daemon.stop();
}

TEST(ShardedServe, EightThreadHammerExactlyOnce) {
  TempDir dir{"hammer"};
  DaemonOptions dopts{dir.path(), 4};
  Daemon daemon{dopts};
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  daemon.start();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  Client client{ClientOptions{dir.path(), 1ms, 30'000ms}};
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        KeyValueMap params;
        params.set("who", std::to_string(t) + ":" + std::to_string(i));
        InvokeInfo info;
        const auto result = client.invoke("echo", params, &info);
        ASSERT_TRUE(result.is_ok()) << result.error().to_string();
        // The reply is the one for *this* request — not another
        // thread's, not a stale one.
        EXPECT_EQ(result.value().get("who"),
                  std::to_string(t) + ":" + std::to_string(i));
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  daemon.stop();

  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  // Exactly one response per request: nothing lost (every invoke
  // returned) and nothing duplicated (handled == invoked; a duplicated
  // reply would show up as reply_conflicts or extra handled counts).
  EXPECT_EQ(daemon.requests_handled(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(daemon.reply_conflicts(), 0u);
  EXPECT_EQ(daemon.deadline_shed(), 0u);
  std::uint64_t drained = 0;
  for (const auto& shard : daemon.shard_stats()) {
    drained += shard.drained;
    EXPECT_EQ(shard.corrupt, 0u);
  }
  EXPECT_EQ(drained, static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(ShardedServe, TenantLabelReachesQosAccounting) {
  TempDir dir{"tenantqos"};
  DaemonOptions dopts{dir.path(), 2};
  Daemon daemon{dopts};
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  daemon.start();

  ClientOptions copts{dir.path(), 1ms, 30'000ms};
  copts.tenant = "acme";
  Client client{copts};
  ASSERT_TRUE(client.invoke("echo", KeyValueMap{}).is_ok());
  daemon.stop();

  const auto qos = daemon.qos_snapshot();
  ASSERT_EQ(qos.size(), 1u);
  EXPECT_EQ(qos[0].tenant, "acme");
  EXPECT_EQ(qos[0].accepted, 1u);
  EXPECT_EQ(qos[0].completed, 1u);
  EXPECT_EQ(qos[0].invoke_us.count, 1u);
}

std::uint64_t counter_value(const std::string& name) {
  return obs::Registry::instance().counter(name).value();
}

TEST(ShardedServe, EventsWakeDrainerAndClientBeforeTheirTimers) {
  TempDir dir{"eventpath"};
  if (auto probe = InotifyWatcher::create(dir.path(), nullptr); !probe) {
    GTEST_SKIP() << "inotify unavailable: " << probe.error().to_string();
  }
  const fs::path corpus = dir / "corpus.txt";
  ASSERT_TRUE(write_file(corpus, "the quick brown fox\n").is_ok());

  // Timers far slower than the bound below: only inotify events can wake
  // the drainer and the waiting client in time.
  DaemonOptions dopts{dir.path(), 1};
  dopts.drain_interval = 500ms;
  Daemon daemon{dopts};
  ASSERT_TRUE(daemon.preload(digest_module()).is_ok());
  daemon.start();
  ClientOptions copts;
  copts.log_dir = dir.path();
  copts.poll_interval = 500ms;
  copts.timeout = 30'000ms;
  Client client{copts};

  KeyValueMap params;
  params.set("input", corpus.string());
  ASSERT_TRUE(client.invoke("digest", params).is_ok());  // fills the cache
  const auto event_wakeups_before =
      counter_value("fam.client.reply_wakeups(cause=event)");
  std::vector<double> round_trips;
  for (int i = 0; i < 10; ++i) {
    InvokeInfo info;
    const auto result = client.invoke("digest", params, &info);
    ASSERT_TRUE(result.is_ok()) << result.error().to_string();
    EXPECT_EQ(info.cache, CacheState::kHit);
    round_trips.push_back(info.round_trip_seconds);
  }
  daemon.stop();

  std::sort(round_trips.begin(), round_trips.end());
  const double median = (round_trips[4] + round_trips[5]) / 2;
  EXPECT_LT(median, 0.050) << "cache hits waited out the 500 ms timers";
#if MCSD_OBS_ENABLED
  EXPECT_GT(counter_value("fam.client.reply_wakeups(cause=event)"),
            event_wakeups_before);
#else
  (void)event_wakeups_before;
#endif
}

TEST(ShardedServe, LostWatchEventsFallBackToTimersExactlyOnce) {
  // Every inotify event on the mailbox and reply directories is dropped,
  // as over NFS or after a queue overflow: the drain and reply-poll
  // timers alone must carry every request, each answered exactly once.
  TempDir dir{"lostevents"};
  fault::FaultScope scope{
      fault::FaultPlan::from_spec(
          "watch.suppress=1,path_filter=shards/|replies/")
          .value()};
  const auto suppressed_before = fault::Injector::instance().injected(
      fault::Site::kWatchEvent, fault::Kind::kSuppressEvent);
  const auto event_wakeups_before =
      counter_value("fam.serve.drain_wakeups(cause=event)") +
      counter_value("fam.client.reply_wakeups(cause=event)");

  DaemonOptions dopts{dir.path(), 2};
  dopts.drain_interval = 20ms;
  Daemon daemon{dopts};
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  daemon.start();
  ClientOptions copts;
  copts.log_dir = dir.path();
  copts.poll_interval = 20ms;
  copts.timeout = 30'000ms;
  Client client{copts};

  constexpr int kThreads = 4;
  constexpr int kPerThread = 5;
  std::vector<double> slowest(kThreads, 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        KeyValueMap params;
        params.set("who", std::to_string(t) + ":" + std::to_string(i));
        InvokeInfo info;
        const auto result = client.invoke("echo", params, &info);
        ASSERT_TRUE(result.is_ok()) << result.error().to_string();
        EXPECT_EQ(result.value().get("who"), params.get("who"));
        slowest[t] = std::max(slowest[t], info.round_trip_seconds);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  daemon.stop();

  constexpr auto kInvokes = static_cast<std::uint64_t>(kThreads * kPerThread);
  EXPECT_EQ(daemon.requests_handled(), kInvokes);
  EXPECT_EQ(daemon.reply_conflicts(), 0u);
  std::uint64_t drained = 0;
  for (const auto& shard : daemon.shard_stats()) drained += shard.drained;
  EXPECT_EQ(drained, kInvokes);
  // A few timer periods, not the 30 s timeout.
  for (double seconds : slowest) EXPECT_LT(seconds, 2.0);
  if (InotifyWatcher::create(dir.path(), nullptr)) {
    EXPECT_GT(fault::Injector::instance().injected(
                  fault::Site::kWatchEvent, fault::Kind::kSuppressEvent),
              suppressed_before);
  }
#if MCSD_OBS_ENABLED
  EXPECT_EQ(counter_value("fam.serve.drain_wakeups(cause=event)") +
                counter_value("fam.client.reply_wakeups(cause=event)"),
            event_wakeups_before);
#else
  (void)event_wakeups_before;
#endif
}

}  // namespace
}  // namespace mcsd::fam
