// End-to-end smartFAM: daemon and client sharing one log folder — the
// paper's Fig. 5 message sequence exercised over a real filesystem.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "core/io.hpp"
#include "fam/client.hpp"
#include "fam/daemon.hpp"
#include "core/stopwatch.hpp"
#include "fam/protocol.hpp"

namespace mcsd::fam {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<Module> echo_module() {
  return std::make_shared<FunctionModule>(
      "echo", [](const KeyValueMap& params) -> Result<KeyValueMap> {
        KeyValueMap out = params;
        out.set("echoed", "true");
        return out;
      });
}

std::shared_ptr<Module> adder_module() {
  return std::make_shared<FunctionModule>(
      "adder", [](const KeyValueMap& params) -> Result<KeyValueMap> {
        const auto a = params.get_int("a");
        const auto b = params.get_int("b");
        if (!a || !b) {
          return Error{ErrorCode::kInvalidArgument, "need a and b"};
        }
        KeyValueMap out;
        out.set_int("sum", a.value() + b.value());
        return out;
      });
}

struct FamFixture : ::testing::Test {
  FamFixture()
      : daemon(DaemonOptions{log_dir.path(), 2}),
        client(ClientOptions{log_dir.path(), 1ms, 30'000ms}) {}

  TempDir log_dir{"famtest"};
  Daemon daemon;
  Client client;
};

TEST_F(FamFixture, PreloadCreatesLogFile) {
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  EXPECT_TRUE(std::filesystem::exists(log_dir / "echo.log"));
  EXPECT_TRUE(client.module_available("echo"));
  EXPECT_FALSE(client.module_available("missing"));
}

TEST_F(FamFixture, PreloadRejectsDuplicates) {
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  EXPECT_FALSE(daemon.preload(echo_module()).is_ok());
}

TEST_F(FamFixture, InvokeRoundTrip) {
  ASSERT_TRUE(daemon.preload(adder_module()).is_ok());
  daemon.start();

  KeyValueMap params;
  params.set_int("a", 19);
  params.set_int("b", 23);
  const auto result = client.invoke("adder", params);
  ASSERT_TRUE(result.is_ok()) << result.error().to_string();
  EXPECT_EQ(result.value().get_int("sum").value(), 42);
  EXPECT_EQ(daemon.requests_handled(), 1u);
  EXPECT_EQ(daemon.errors_returned(), 0u);
}

TEST_F(FamFixture, SequentialInvocationsIncrementSeq) {
  ASSERT_TRUE(daemon.preload(adder_module()).is_ok());
  daemon.start();
  for (int i = 0; i < 5; ++i) {
    KeyValueMap params;
    params.set_int("a", i);
    params.set_int("b", 100);
    const auto result = client.invoke("adder", params);
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result.value().get_int("sum").value(), 100 + i);
  }
  EXPECT_EQ(daemon.requests_handled(), 5u);
}

TEST_F(FamFixture, ModuleErrorPropagatesToClient) {
  ASSERT_TRUE(daemon.preload(adder_module()).is_ok());
  daemon.start();
  KeyValueMap incomplete;
  incomplete.set_int("a", 1);
  const auto result = client.invoke("adder", incomplete);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.error().message().find("need a and b"), std::string::npos);
  EXPECT_EQ(daemon.errors_returned(), 1u);
}

TEST_F(FamFixture, ThrowingModuleBecomesErrorResponse) {
  // A module that throws must not kill the dispatch thread; the host
  // gets an error response and the daemon keeps serving afterwards.
  ASSERT_TRUE(daemon
                  .preload(std::make_shared<FunctionModule>(
                      "bomb",
                      [](const KeyValueMap&) -> Result<KeyValueMap> {
                        throw std::runtime_error("kaboom");
                      }))
                  .is_ok());
  ASSERT_TRUE(daemon.preload(adder_module()).is_ok());
  daemon.start();

  const auto boom = client.invoke("bomb", KeyValueMap{});
  ASSERT_FALSE(boom.is_ok());
  EXPECT_NE(boom.error().message().find("kaboom"), std::string::npos);
  EXPECT_EQ(daemon.errors_returned(), 1u);

  // The daemon survived: the next request succeeds.
  KeyValueMap params;
  params.set_int("a", 1);
  params.set_int("b", 2);
  const auto sum = client.invoke("adder", params);
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().get_int("sum").value(), 3);
}

TEST_F(FamFixture, InvokeUnknownModuleFailsFast) {
  daemon.start();
  const auto result = client.invoke("ghost", KeyValueMap{});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kNotFound);
}

TEST_F(FamFixture, InvokeInvalidNameRejected) {
  const auto result = client.invoke("../etc/passwd", KeyValueMap{});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kInvalidArgument);
}

TEST_F(FamFixture, TimeoutWhenDaemonStopped) {
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  // Daemon never started: nothing answers.
  Client impatient{ClientOptions{log_dir.path(), 1ms, 100ms}};
  const auto result = impatient.invoke("echo", KeyValueMap{});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kTimeout);
}

TEST_F(FamFixture, TwoModulesIndependentChannels) {
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  ASSERT_TRUE(daemon.preload(adder_module()).is_ok());
  daemon.start();

  KeyValueMap add;
  add.set_int("a", 2);
  add.set_int("b", 3);
  const auto sum = client.invoke("adder", add);
  KeyValueMap e;
  e.set("msg", "hi");
  const auto echoed = client.invoke("echo", e);
  ASSERT_TRUE(sum.is_ok());
  ASSERT_TRUE(echoed.is_ok());
  EXPECT_EQ(sum.value().get_int("sum").value(), 5);
  EXPECT_EQ(echoed.value().get("msg"), "hi");
}

TEST_F(FamFixture, ConcurrentClientsOnDifferentModules) {
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  ASSERT_TRUE(daemon.preload(adder_module()).is_ok());
  daemon.start();

  std::thread t1{[&] {
    for (int i = 0; i < 3; ++i) {
      KeyValueMap p;
      p.set_int("a", i);
      p.set_int("b", i);
      const auto r = client.invoke("adder", p);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().get_int("sum").value(), 2 * i);
    }
  }};
  std::thread t2{[&] {
    for (int i = 0; i < 3; ++i) {
      KeyValueMap p;
      p.set("n", std::to_string(i));
      const auto r = client.invoke("echo", p);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().get("n"), std::to_string(i));
    }
  }};
  t1.join();
  t2.join();
  EXPECT_EQ(daemon.requests_handled(), 6u);
}

TEST_F(FamFixture, ConcurrentCallersOnSameModuleSerialise) {
  ASSERT_TRUE(daemon.preload(adder_module()).is_ok());
  daemon.start();
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      KeyValueMap p;
      p.set_int("a", t);
      p.set_int("b", 10);
      const auto r = client.invoke("adder", p);
      if (r.is_ok() && r.value().get_int("sum").value() == 10 + t) {
        ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), 4);
  EXPECT_EQ(daemon.requests_handled(), 4u);
}

/// Appends one request frame for `client_id` straight into the mailbox
/// the client would hash to — a host without the Client class.
void append_request(const std::filesystem::path& dir, std::size_t shards,
                    std::uint64_t client_id, std::uint64_t seq,
                    const std::string& module, const KeyValueMap& payload) {
  Record request;
  request.type = RecordType::kRequest;
  request.seq = seq;
  request.module = module;
  request.client_id = client_id;
  request.payload = payload;
  ASSERT_TRUE(append_file(dir / kShardDirName /
                              shard_file_name(shard_for_client(client_id,
                                                               shards)),
                          encode_record(request))
                  .is_ok());
}

/// Every complete frame in `client_id`'s reply file.
FrameStream read_replies(const std::filesystem::path& dir,
                         std::uint64_t client_id) {
  const auto contents =
      read_file(dir / kReplyDirName / reply_file_name(client_id));
  if (!contents) return {};
  return decode_frame_stream(contents.value());
}

// The reply-order guard: a client that re-sends (seq 2) while its seq-1
// request is still running awaits only seq 2.  When the seq-1 run
// finishes after the seq-2 reply has landed, its late reply must be
// suppressed — appended after the seq-2 frame it would be the last word
// in the reply log, and a reader keyed on "newest frame" would take it.
TEST(ResponseConflict, ResponseNeverClobbersNewerRequest) {
  TempDir dir{"famclobber"};
  Daemon daemon{DaemonOptions{dir.path(), 2}};  // seq 2 runs beside seq 1
  std::atomic<bool> entered{false};
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  ASSERT_TRUE(daemon
                  .preload(std::make_shared<FunctionModule>(
                      "slow",
                      [&](const KeyValueMap& params) -> Result<KeyValueMap> {
                        if (params.get_or("tag", "") == "one") {
                          entered.store(true);
                          std::unique_lock lock{gate_mutex};
                          gate_cv.wait(lock, [&] { return gate_open; });
                        }
                        KeyValueMap out;
                        out.set("tag", params.get_or("tag", ""));
                        return out;
                      }))
                  .is_ok());
  daemon.start();
  constexpr std::uint64_t kClient = 77;
  const auto release = [&] {
    {
      std::lock_guard lock{gate_mutex};
      gate_open = true;
    }
    gate_cv.notify_all();
  };

  KeyValueMap one;
  one.set("tag", "one");
  append_request(dir.path(), daemon.channel_shards(), kClient, 1, "slow", one);
  Stopwatch waited;
  while (!entered.load()) {
    if (waited.elapsed() > 10s) release();
    ASSERT_LT(waited.elapsed(), 10s) << "request 1 never reached the module";
    std::this_thread::sleep_for(1ms);
  }

  // Seq 2 lands while seq 1 is still gated, runs on the second worker and
  // is answered first.
  KeyValueMap two;
  two.set("tag", "two");
  append_request(dir.path(), daemon.channel_shards(), kClient, 2, "slow", two);
  waited.restart();
  while (read_replies(dir.path(), kClient).records.empty()) {
    if (waited.elapsed() > 10s) release();
    ASSERT_LT(waited.elapsed(), 10s) << "request 2 was never answered";
    std::this_thread::sleep_for(1ms);
  }
  release();
  daemon.stop();  // joins the worker that finishes seq 1

  EXPECT_GE(daemon.reply_conflicts(), 1u);
  const FrameStream replies = read_replies(dir.path(), kClient);
  EXPECT_EQ(replies.corrupt, 0u);
  ASSERT_EQ(replies.records.size(), 1u) << "the late seq-1 reply landed";
  EXPECT_EQ(replies.records[0].seq, 2u);
  EXPECT_EQ(replies.records[0].payload.get("tag"), "two");
  EXPECT_EQ(daemon.requests_handled(), 2u);
}

// stop() drains: every frame appended before stop() is admitted by the
// drainer's final pass and answered exactly once; nothing is dropped.
TEST(DaemonStop, DrainsAcceptedRequestsBeforeStopping) {
  TempDir dir{"famdrain"};
  Daemon daemon{DaemonOptions{dir.path(), 1}};
  ASSERT_TRUE(daemon
                  .preload(std::make_shared<FunctionModule>(
                      "drain",
                      [](const KeyValueMap&) -> Result<KeyValueMap> {
                        std::this_thread::sleep_for(150ms);
                        KeyValueMap out;
                        out.set("drained", "true");
                        return out;
                      }))
                  .is_ok());
  daemon.start();
  // Three distinct clients: the module is uncacheable, so each frame is
  // its own batch.
  const std::vector<std::uint64_t> clients{11, 12, 13};
  for (const std::uint64_t client : clients) {
    append_request(dir.path(), daemon.channel_shards(), client, 1, "drain",
                   KeyValueMap{});
  }
  // One batch worker, 150 ms per run: by now at most one frame is done.
  // stop() must finish the backlog.
  std::this_thread::sleep_for(100ms);
  daemon.stop();
  EXPECT_EQ(daemon.requests_handled(), clients.size());
  EXPECT_EQ(daemon.dropped_on_shutdown(), 0u);
  for (const std::uint64_t client : clients) {
    const FrameStream replies = read_replies(dir.path(), client);
    EXPECT_EQ(replies.corrupt, 0u) << client;
    ASSERT_EQ(replies.records.size(), 1u) << client;
    const Record& reply = replies.records[0];
    EXPECT_EQ(reply.type, RecordType::kResponse) << client;
    EXPECT_EQ(reply.seq, 1u) << client;
    EXPECT_EQ(reply.payload.get("drained"), "true") << client;
  }
}

// stop() closes the admission queue; a later start() must serve again
// rather than refuse every request as "daemon stopping".
TEST(DaemonStop, RestartAfterStopServesAgain) {
  TempDir dir{"famrestart"};
  Daemon daemon{DaemonOptions{dir.path(), 1}};
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  Client client{ClientOptions{dir.path(), 1ms, 5'000ms}};
  for (const char* round : {"first", "second"}) {
    daemon.start();
    KeyValueMap params;
    params.set("round", round);
    const auto result = client.invoke("echo", params);
    ASSERT_TRUE(result.is_ok()) << round << ": " << result.error().to_string();
    EXPECT_EQ(result.value().get("round"), round);
    daemon.stop();
  }
  EXPECT_EQ(daemon.requests_handled(), 2u);
  EXPECT_EQ(daemon.dropped_on_shutdown(), 0u);
}

// A daemon started on a folder an earlier daemon served must not replay
// the mailbox history: those frames were answered back then, and
// re-running them would execute every past request again.
TEST(DaemonRestart, NewDaemonDoesNotReplayDrainedFrames) {
  TempDir dir{"famreplay"};
  std::atomic<int> executions{0};
  const auto tally = [&executions] {
    return std::make_shared<FunctionModule>(
        "tally", [&executions](const KeyValueMap&) -> Result<KeyValueMap> {
          KeyValueMap out;
          out.set_int("run", executions.fetch_add(1) + 1);
          return out;
        });
  };
  const ClientOptions copts{dir.path(), 1ms, 30'000ms};
  {
    Daemon first{DaemonOptions{dir.path(), 1}};
    ASSERT_TRUE(first.preload(tally()).is_ok());
    first.start();
    for (int i = 0; i < 5; ++i) {
      // A fresh client per invoke: five distinct senders, so a replay
      // could not fold them into one superseded request.
      Client client{copts};
      ASSERT_TRUE(client.invoke("tally", KeyValueMap{}).is_ok());
    }
  }
  ASSERT_EQ(executions.load(), 5);

  Daemon second{DaemonOptions{dir.path(), 1}};
  ASSERT_TRUE(second.preload(tally()).is_ok());
  second.start();
  Client client{copts};
  ASSERT_TRUE(client.invoke("tally", KeyValueMap{}).is_ok());
  second.stop();  // runs anything else the drainer admitted
  EXPECT_EQ(executions.load(), 6);
  EXPECT_EQ(second.requests_handled(), 1u);
}

TEST(ClientRetry, SecondAttemptSucceedsAfterLateDaemonStart) {
  TempDir dir{"famretry"};
  Daemon daemon{DaemonOptions{dir.path(), 1}};
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  // Daemon not started yet: the first attempt must time out.

  ClientOptions copts;
  copts.log_dir = dir.path();
  copts.poll_interval = 1ms;
  copts.timeout = 250ms;
  copts.max_attempts = 4;
  Client client{copts};

  std::thread late_start{[&] {
    std::this_thread::sleep_for(400ms);  // after attempt 1 expires
    daemon.start();
  }};
  KeyValueMap params;
  params.set("msg", "eventually");
  const auto result = client.invoke("echo", params);
  late_start.join();
  ASSERT_TRUE(result.is_ok()) << result.error().to_string();
  EXPECT_EQ(result.value().get("msg"), "eventually");
}

TEST(ClientRetry, ExhaustedAttemptsReportAttemptCount) {
  TempDir dir{"famretry"};
  Daemon daemon{DaemonOptions{dir.path(), 1}};
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  // Never started.
  ClientOptions copts;
  copts.log_dir = dir.path();
  copts.poll_interval = 1ms;
  copts.timeout = 50ms;
  copts.max_attempts = 3;
  Client client{copts};
  const auto result = client.invoke("echo", KeyValueMap{});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kTimeout);
  EXPECT_NE(result.error().message().find("attempt 3/3"), std::string::npos);
}

// A daemon restarted with fewer shards no longer drains the mailboxes
// some slots hashed to under the old count.  The client re-reads the
// manifest after a timed-out attempt, so the retry reaches the daemon.
TEST(ClientRetry, ReprobesShardCountAfterDaemonRestart) {
  TempDir dir{"famreshard"};
  const auto slow_echo = [] {
    // Slow enough that eight concurrent invokes hold eight slots at once.
    return std::make_shared<FunctionModule>(
        "echo", [](const KeyValueMap& params) -> Result<KeyValueMap> {
          std::this_thread::sleep_for(20ms);
          return params;
        });
  };
  ClientOptions copts{dir.path(), 1ms, 1'000ms};
  copts.max_attempts = 2;
  Client client{copts};
  const auto invoke_eight = [&client] {
    std::atomic<int> ok{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        KeyValueMap params;
        params.set("who", std::to_string(t));
        const auto result = client.invoke("echo", params);
        if (result.is_ok() && result.value().get("who") == params.get("who")) {
          ok.fetch_add(1);
        } else if (!result.is_ok()) {
          ADD_FAILURE() << result.error().to_string();
        }
      });
    }
    for (auto& thread : threads) thread.join();
    return ok.load();
  };

  {
    DaemonOptions wide{dir.path(), 2};
    wide.channel_shards = 8;
    Daemon daemon{wide};
    ASSERT_TRUE(daemon.preload(slow_echo()).is_ok());
    daemon.start();
    ASSERT_EQ(invoke_eight(), 8);
  }
  DaemonOptions narrow{dir.path(), 2};
  narrow.channel_shards = 1;
  Daemon daemon{narrow};
  ASSERT_TRUE(daemon.preload(slow_echo()).is_ok());
  daemon.start();
  EXPECT_EQ(invoke_eight(), 8);
}

// With no manifest the client keeps probing for one until the attempt's
// timeout, and the error names the missing file.
TEST(ClientRetry, MissingManifestNamedInTimeout) {
  TempDir dir{"famnomanifest"};
  ASSERT_TRUE(write_file(dir / log_file_name("echo"), "# preloaded\n").is_ok());
  ClientOptions copts{dir.path(), 1ms, 50ms};
  copts.max_attempts = 2;
  Client client{copts};
  const auto result = client.invoke("echo", KeyValueMap{});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kTimeout);
  EXPECT_NE(result.error().message().find(std::string{kManifestFileName}),
            std::string::npos)
      << result.error().message();
  EXPECT_NE(result.error().message().find("attempt 2/2"), std::string::npos);
}

// A cacheable module: declares its input file via cache_inputs and
// counts real executions, so the tests can tell "served from cache"
// (counter flat) from "dispatched" (counter bumped).
std::shared_ptr<Module> counting_module(std::atomic<int>& executions) {
  auto module = std::make_shared<FunctionModule>(
      "counted", [&executions](const KeyValueMap& params) -> Result<KeyValueMap> {
        executions.fetch_add(1);
        KeyValueMap out;
        out.set("input", params.get_or("input", ""));
        out.set_int("runs", executions.load());
        return out;
      });
  module->set_cache_inputs(
      [](const KeyValueMap& params)
          -> std::optional<std::vector<std::filesystem::path>> {
        const auto input = params.get("input");
        if (!input) return std::nullopt;
        return std::vector<std::filesystem::path>{*input};
      });
  return module;
}

TEST_F(FamFixture, RepeatedInvokeServedFromResultCache) {
  std::atomic<int> executions{0};
  ASSERT_TRUE(daemon.preload(counting_module(executions)).is_ok());
  daemon.start();

  const auto corpus = log_dir / "corpus.txt";
  ASSERT_TRUE(write_file(corpus, "the quick brown fox").is_ok());
  KeyValueMap params;
  params.set("input", corpus.string());

  InvokeInfo first_info;
  const auto first = client.invoke("counted", params, &first_info);
  ASSERT_TRUE(first.is_ok()) << first.error().to_string();
  EXPECT_EQ(first_info.cache, CacheState::kMiss);
  EXPECT_NE(first_info.cache_epoch, 0u);
  EXPECT_EQ(executions.load(), 1);

  InvokeInfo second_info;
  const auto second = client.invoke("counted", params, &second_info);
  ASSERT_TRUE(second.is_ok()) << second.error().to_string();
  EXPECT_EQ(second_info.cache, CacheState::kHit);
  EXPECT_EQ(second_info.cache_epoch, first_info.cache_epoch);
  EXPECT_EQ(executions.load(), 1) << "hit must not re-run the module";
  // Byte-identical result: the hit replays the miss's payload exactly.
  EXPECT_EQ(second.value().serialize(), first.value().serialize());
  EXPECT_EQ(daemon.cache_hits(), 1u);
  EXPECT_EQ(daemon.cache_misses(), 1u);

  // Different params → different slot → miss and a real execution.
  params.set_int("extra", 7);
  InvokeInfo third_info;
  ASSERT_TRUE(client.invoke("counted", params, &third_info).is_ok());
  EXPECT_EQ(third_info.cache, CacheState::kMiss);
  EXPECT_EQ(executions.load(), 2);
}

TEST_F(FamFixture, RewritingInputInvalidatesCachedResult) {
  std::atomic<int> executions{0};
  ASSERT_TRUE(daemon.preload(counting_module(executions)).is_ok());
  daemon.start();

  const auto corpus = log_dir / "corpus.txt";
  ASSERT_TRUE(write_file(corpus, "version one").is_ok());
  KeyValueMap params;
  params.set("input", corpus.string());

  InvokeInfo miss_info;
  ASSERT_TRUE(client.invoke("counted", params, &miss_info).is_ok());
  InvokeInfo hit_info;
  ASSERT_TRUE(client.invoke("counted", params, &hit_info).is_ok());
  ASSERT_EQ(hit_info.cache, CacheState::kHit);
  ASSERT_EQ(executions.load(), 1);

  // Rewrite with a different size: the identity triple changes even if
  // the mtime tick is coarse, so the cached entry must die.
  ASSERT_TRUE(write_file(corpus, "version two, now longer").is_ok());
  InvokeInfo invalidated_info;
  const auto recomputed = client.invoke("counted", params, &invalidated_info);
  ASSERT_TRUE(recomputed.is_ok());
  EXPECT_EQ(invalidated_info.cache, CacheState::kMiss);
  EXPECT_GT(invalidated_info.cache_epoch, hit_info.cache_epoch);
  EXPECT_EQ(executions.load(), 2);
  ASSERT_NE(daemon.result_cache(), nullptr);
  EXPECT_EQ(daemon.result_cache()->stats().invalidations, 1u);

  // The refilled entry serves hits again.
  InvokeInfo rehit_info;
  ASSERT_TRUE(client.invoke("counted", params, &rehit_info).is_ok());
  EXPECT_EQ(rehit_info.cache, CacheState::kHit);
  EXPECT_EQ(rehit_info.cache_epoch, invalidated_info.cache_epoch);
  EXPECT_EQ(executions.load(), 2);
}

TEST_F(FamFixture, ModuleWithoutCacheInputsNeverCached) {
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  daemon.start();
  KeyValueMap params;
  params.set("msg", "hi");
  for (int i = 0; i < 2; ++i) {
    InvokeInfo info;
    ASSERT_TRUE(client.invoke("echo", params, &info).is_ok());
    EXPECT_EQ(info.cache, CacheState::kNone);
    EXPECT_EQ(info.cache_epoch, 0u);
  }
  EXPECT_EQ(daemon.cache_hits(), 0u);
  EXPECT_EQ(daemon.cache_misses(), 0u);
}

TEST(ResultCacheConfig, ZeroBytesDisablesTheCache) {
  TempDir dir{"famnocache"};
  DaemonOptions options{dir.path(), 2};
  options.result_cache_bytes = 0;
  Daemon daemon{options};
  EXPECT_EQ(daemon.result_cache(), nullptr);

  std::atomic<int> executions{0};
  ASSERT_TRUE(daemon.preload(counting_module(executions)).is_ok());
  daemon.start();
  const auto corpus = dir / "corpus.txt";
  ASSERT_TRUE(write_file(corpus, "uncached").is_ok());
  Client client{ClientOptions{dir.path(), std::chrono::milliseconds{1},
                              std::chrono::milliseconds{30'000}}};
  KeyValueMap params;
  params.set("input", corpus.string());
  for (int i = 0; i < 2; ++i) {
    InvokeInfo info;
    ASSERT_TRUE(client.invoke("counted", params, &info).is_ok());
    EXPECT_EQ(info.cache, CacheState::kNone);
  }
  EXPECT_EQ(executions.load(), 2);
  daemon.stop();
}

TEST(ResultCacheConfig, ParsesAndRejectsConfigValues) {
  const auto parsed = KeyValueMap::parse("result_cache_bytes=8M\n");
  ASSERT_TRUE(parsed.is_ok());
  const auto options = daemon_options_from_config(parsed.value());
  ASSERT_TRUE(options.is_ok());
  EXPECT_EQ(options.value().result_cache_bytes, 8u << 20);

  const auto disabled = KeyValueMap::parse("result_cache_bytes=0\n");
  ASSERT_TRUE(disabled.is_ok());
  EXPECT_EQ(daemon_options_from_config(disabled.value())
                .value()
                .result_cache_bytes,
            0u);

  const auto bad = KeyValueMap::parse("result_cache_bytes=lots\n");
  ASSERT_TRUE(bad.is_ok());
  EXPECT_FALSE(daemon_options_from_config(bad.value()).is_ok());
}

TEST(ModuleRegistry, Basics) {
  ModuleRegistry registry;
  EXPECT_TRUE(registry.add(echo_module()).is_ok());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_NE(registry.find("echo"), nullptr);
  EXPECT_EQ(registry.find("nope"), nullptr);
  EXPECT_FALSE(registry.add(nullptr).is_ok());
  EXPECT_FALSE(registry.add(std::make_shared<FunctionModule>(
                                "bad name", nullptr))
                   .is_ok());
  EXPECT_EQ(registry.names(), std::vector<std::string>{"echo"});
}

TEST(DaemonConfig, ParsesAllKeys) {
  const auto parsed = KeyValueMap::parse(
      "log_dir=/srv/mcsd\n"
      "dispatch_threads=4\n"
      "pool_bytes=64MiB\n"
      "result_cache_bytes=8M\n"
      "channel_shards=3\n"
      "admission_queue_limit=17\n"
      "drain_interval_ms=7\n");
  ASSERT_TRUE(parsed.is_ok());
  const auto options = daemon_options_from_config(parsed.value());
  ASSERT_TRUE(options.is_ok()) << options.error().to_string();
  EXPECT_EQ(options.value().log_dir, "/srv/mcsd");
  EXPECT_EQ(options.value().dispatch_threads, 4u);
  EXPECT_EQ(options.value().pool_bytes, 64u << 20);
  EXPECT_EQ(options.value().result_cache_bytes, 8u << 20);
  EXPECT_EQ(options.value().channel_shards, 3u);
  EXPECT_EQ(options.value().admission_queue_limit, 17u);
  EXPECT_EQ(options.value().drain_interval, std::chrono::milliseconds{7});
}

TEST(DaemonConfig, DefaultsApplyForOmittedKeys) {
  const auto options = daemon_options_from_config(KeyValueMap{});
  ASSERT_TRUE(options.is_ok());
  const DaemonOptions defaults;
  EXPECT_EQ(options.value().dispatch_threads, defaults.dispatch_threads);
  EXPECT_EQ(options.value().channel_shards, defaults.channel_shards);
  EXPECT_EQ(options.value().admission_queue_limit,
            defaults.admission_queue_limit);
  EXPECT_EQ(options.value().drain_interval, defaults.drain_interval);
}

TEST(DaemonConfig, RejectsBadValuesAndUnknownKeys) {
  for (const char* bad :
       {"drain_interval_ms=0\n", "channel_shards=0\n",
        "dispatch_threads=0\n", "admission_queue_limit=-1\n",
        "backend=inotify\n",
        // A typo must not silently run defaults.
        "drian_interval_ms=2\n"}) {
    const auto parsed = KeyValueMap::parse(bad);
    ASSERT_TRUE(parsed.is_ok()) << bad;
    EXPECT_FALSE(daemon_options_from_config(parsed.value()).is_ok()) << bad;
  }
}

}  // namespace
}  // namespace mcsd::fam
