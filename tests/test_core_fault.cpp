// core/fault: deterministic fault injection at the io boundary — plan
// parsing, per-site injection, schedule/seed determinism, and the refill
// retry that keeps out-of-core streaming byte-identical under EIO.
#include "core/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/io.hpp"
#include "core/stopwatch.hpp"
#include "fam/inotify_watcher.hpp"
#include "obs/counters.hpp"
#include "partition/streaming.hpp"
#include "storage/buffer_manager.hpp"

namespace mcsd::fault {
namespace {

using namespace std::chrono_literals;

FaultPlan plan_or_die(std::string_view spec) {
  auto plan = FaultPlan::from_spec(spec);
  EXPECT_TRUE(plan.is_ok()) << plan.error().to_string();
  return std::move(plan).value();
}

TEST(FaultPlanParse, EmptySpecsProduceDormantPlans) {
  EXPECT_TRUE(plan_or_die("").empty());
  EXPECT_TRUE(plan_or_die("none").empty());
}

TEST(FaultPlanParse, DefaultPlanCoversEverySite) {
  const FaultPlan plan = FaultPlan::default_plan(7);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_FALSE(plan.empty());
  bool sites[kSiteCount] = {};
  for (const Rule& rule : plan.rules) {
    sites[static_cast<std::size_t>(rule.site)] = true;
  }
  for (std::size_t s = 0; s < kSiteCount; ++s) {
    EXPECT_TRUE(sites[s]) << "no default rule for site "
                          << to_string(static_cast<Site>(s));
  }
}

TEST(FaultPlanParse, InlineSpecWithSchedulesAndKnobs) {
  const FaultPlan plan = plan_or_die(
      "seed=99,write.torn=@3+5,read.eio=0.25,rename_delay_ms=11,"
      "path_filter=logs");
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_EQ(plan.rename_delay, 11ms);
  EXPECT_EQ(plan.path_filter, "logs");
  ASSERT_EQ(plan.rules.size(), 2u);
  for (const Rule& rule : plan.rules) {
    if (rule.kind == Kind::kTorn) {
      EXPECT_EQ(rule.site, Site::kWriteFile);
      EXPECT_EQ(rule.steps, (std::vector<std::uint64_t>{3, 5}));
    } else {
      EXPECT_EQ(rule.site, Site::kReadFile);
      EXPECT_DOUBLE_EQ(rule.probability, 0.25);
    }
  }
}

TEST(FaultPlanParse, RejectsBadSpecs) {
  EXPECT_FALSE(FaultPlan::from_spec("bogus=1").is_ok());          // no dot
  EXPECT_FALSE(FaultPlan::from_spec("disk.eio=0.5").is_ok());     // bad site
  EXPECT_FALSE(FaultPlan::from_spec("read.suppress=0.5").is_ok());  // pair
  EXPECT_FALSE(FaultPlan::from_spec("watch.torn=0.5").is_ok());     // pair
  EXPECT_FALSE(FaultPlan::from_spec("read.eio=1.5").is_ok());     // range
  EXPECT_FALSE(FaultPlan::from_spec("read.eio=-0.1").is_ok());    // range
  EXPECT_FALSE(FaultPlan::from_spec("read.eio=@0").is_ok());      // 1-based
  EXPECT_FALSE(FaultPlan::from_spec("read.eio=@2+x").is_ok());    // digits
  EXPECT_FALSE(FaultPlan::from_spec("read.eio=@").is_ok());       // empty
}

TEST(FaultInjection, ReadEioFiresOnScheduledStepOnly) {
  TempDir dir{"fault"};
  const auto path = dir / "victim.txt";
  ASSERT_TRUE(write_file(path, "payload").is_ok());

  FaultScope scope{plan_or_die("read.eio=@1")};
  const auto first = read_file(path);
  ASSERT_FALSE(first.is_ok());
  EXPECT_EQ(first.error().code(), ErrorCode::kIoError);
  EXPECT_NE(first.error().message().find("injected EIO"), std::string::npos);

  const auto second = read_file(path);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value(), "payload");
  EXPECT_EQ(Injector::instance().injected(Site::kReadFile, Kind::kEio), 1u);
}

TEST(FaultInjection, TornReadReturnsStrictPrefix) {
  TempDir dir{"fault"};
  const auto path = dir / "victim.txt";
  const std::string contents = "0123456789abcdef";
  ASSERT_TRUE(write_file(path, contents).is_ok());

  FaultScope scope{plan_or_die("read.torn=@1")};
  const auto torn = read_file(path);
  ASSERT_TRUE(torn.is_ok());  // silent fault: caller sees a short read
  EXPECT_LT(torn.value().size(), contents.size());
  EXPECT_EQ(torn.value(), contents.substr(0, torn.value().size()));
}

TEST(FaultInjection, WriteEioAndEnospcLeaveTargetUntouched) {
  TempDir dir{"fault"};
  const auto path = dir / "victim.txt";
  ASSERT_TRUE(write_file_atomic(path, "original").is_ok());

  FaultScope scope{plan_or_die("write.eio=@1,write.enospc=@2")};
  const auto eio = write_file_atomic(path, "update-1");
  ASSERT_FALSE(eio.is_ok());
  EXPECT_EQ(eio.error().code(), ErrorCode::kIoError);
  const auto enospc = write_file_atomic(path, "update-2");
  ASSERT_FALSE(enospc.is_ok());
  EXPECT_NE(enospc.error().message().find("ENOSPC"), std::string::npos);
  EXPECT_EQ(read_file(path).value(), "original");
}

TEST(FaultInjection, TornWriteLandsSilentPrefix) {
  TempDir dir{"fault"};
  const auto path = dir / "victim.txt";
  const std::string contents = "0123456789abcdef0123456789abcdef";

  FaultScope scope{plan_or_die("write.torn=@1")};
  ASSERT_TRUE(write_file_atomic(path, contents).is_ok());  // reports success
  const auto landed = read_file(path).value();
  EXPECT_LT(landed.size(), contents.size());
  EXPECT_EQ(landed, contents.substr(0, landed.size()));
}

TEST(FaultInjection, ShortWriteLandsPrefixAndReportsError) {
  TempDir dir{"fault"};
  const auto path = dir / "victim.txt";
  const std::string contents = "0123456789abcdef0123456789abcdef";

  FaultScope scope{plan_or_die("write.short=@1")};
  const auto status = write_file_atomic(path, contents);
  ASSERT_FALSE(status.is_ok());  // unlike kTorn the failure is surfaced
  EXPECT_NE(status.error().message().find("short write"), std::string::npos);
  const auto landed = read_file(path).value();
  EXPECT_LT(landed.size(), contents.size());
}

TEST(FaultInjection, DelayedRenameStallsThenSucceeds) {
  TempDir dir{"fault"};
  const auto path = dir / "victim.txt";

  FaultScope scope{plan_or_die("write.delay=@1,rename_delay_ms=60")};
  Stopwatch watch;
  ASSERT_TRUE(write_file_atomic(path, "late").is_ok());
  EXPECT_GE(watch.elapsed(), 50ms);
  EXPECT_EQ(read_file(path).value(), "late");
}

/// A streaming source over `path` whose pool pins 256-byte frames, so a
/// few KiB of text take many frame acquisitions (the refill site).
Result<part::StreamingFragmentSource> open_tiny_frame_stream(
    const std::filesystem::path& path) {
  storage::PoolOptions pool_options;
  pool_options.frame_bytes = 256;
  pool_options.pool_bytes = 64 * 256;
  part::PipelineOptions options;
  options.partition_size = 1024;
  options.prefetch = false;
  options.pool = std::make_shared<storage::BufferManager>(pool_options);
  return part::StreamingFragmentSource::open(path, std::move(options));
}

TEST(FaultInjection, RefillRetryKeepsStreamedBytesIdentical) {
  TempDir dir{"fault"};
  const auto path = dir / "stream.txt";
  std::string contents;
  for (int i = 0; i < 500; ++i) {
    contents += "word" + std::to_string(i) + " ";
  }
  ASSERT_TRUE(write_file(path, contents).is_ok());

  // One transient EIO on the second frame acquisition: the source must
  // retry the pin and deliver the same bytes as a clean run.
  FaultScope scope{plan_or_die("refill.eio=@2")};
  auto source = open_tiny_frame_stream(path);
  ASSERT_TRUE(source.is_ok());
  std::string streamed;
  part::FragmentBatch batch;
  for (;;) {
    auto got = source.value().next(batch);
    ASSERT_TRUE(got.is_ok()) << got.error().to_string();
    if (!got.value()) break;
    for (const auto& span : batch.spans) {
      ASSERT_EQ(span.offset, streamed.size());
      streamed += span.text;
    }
  }
  EXPECT_EQ(streamed, contents);
  EXPECT_EQ(Injector::instance().injected(Site::kRefill, Kind::kEio), 1u);
}

TEST(FaultInjection, RefillRetryExhaustionPropagates) {
  TempDir dir{"fault"};
  const auto path = dir / "stream.txt";
  ASSERT_TRUE(write_file(path, std::string(4096, 'x')).is_ok());

  // kReadAttempts consecutive failures exhaust the retry loop.
  std::string spec = "refill.eio=@1";
  for (int step = 2; step <= part::StreamingFragmentSource::kReadAttempts;
       ++step) {
    spec += "+" + std::to_string(step);
  }
  FaultScope scope{plan_or_die(spec)};
  auto source = open_tiny_frame_stream(path);
  ASSERT_TRUE(source.is_ok());
  part::FragmentBatch batch;
  const auto got = source.value().next(batch);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.error().code(), ErrorCode::kIoError);
}

TEST(FaultInjection, WatcherEventSuppressionDropsOneDelivery) {
  TempDir dir{"fault"};
  const auto path = dir / "watched.txt";
  // Created before the watch exists, so each rewrite below raises exactly
  // one event (close-write), never a create.
  ASSERT_TRUE(write_file(path, "v1").is_ok());

  std::mutex fired_mutex;
  std::vector<std::string> fired;
  auto watcher = fam::InotifyWatcher::create(
      dir.path(), [&](const std::filesystem::path& p) {
        std::lock_guard lock{fired_mutex};
        fired.push_back(p.filename().string());
      });
  if (!watcher) GTEST_SKIP() << watcher.error().to_string();
  FaultScope scope{plan_or_die("watch.suppress=@1")};
  watcher.value()->start();
  const auto fired_now = [&] {
    std::lock_guard lock{fired_mutex};
    return fired;
  };

  ASSERT_TRUE(write_file(path, "v2").is_ok());
  Stopwatch waited;
  while (Injector::instance().injected(Site::kWatchEvent,
                                       Kind::kSuppressEvent) == 0) {
    ASSERT_LT(waited.elapsed(), 5s) << "the event never reached the watcher";
    std::this_thread::sleep_for(1ms);
  }
  // The change was observed but not delivered.
  EXPECT_TRUE(fired_now().empty());

  // The event is permanently lost — only a *new* change fires, which is
  // why the channel keeps its timers under the events.
  ASSERT_TRUE(write_file(path, "v3").is_ok());
  waited.restart();
  while (fired_now().empty()) {
    ASSERT_LT(waited.elapsed(), 5s) << "the next change never fired";
    std::this_thread::sleep_for(1ms);
  }
  watcher.value()->stop();
  EXPECT_EQ(fired_now(), std::vector<std::string>{"watched.txt"});
  EXPECT_EQ(Injector::instance().injected(Site::kWatchEvent,
                                          Kind::kSuppressEvent),
            1u);
}

TEST(FaultInjection, PathFilterSparesOtherFilesWithoutConsumingSteps) {
  TempDir dir{"fault"};
  const auto bystander = dir / "bystander.txt";
  const auto target = dir / "target.txt";
  ASSERT_TRUE(write_file(bystander, "safe").is_ok());
  ASSERT_TRUE(write_file(target, "doomed").is_ok());

  FaultScope scope{plan_or_die("read.eio=@1,path_filter=target")};
  // Unfiltered traffic neither faults nor advances the step counter.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(read_file(bystander).is_ok());
  }
  const auto faulted = read_file(target);  // this IS step 1
  ASSERT_FALSE(faulted.is_ok());
  EXPECT_TRUE(read_file(target).is_ok());
}

TEST(FaultInjection, PathFilterAlternativesMatchAnySubstring) {
  // '|' separates alternatives ('，' cannot: ',' is the inline-spec
  // record separator) — one plan covers every shard mailbox.
  FaultPlan plan;
  plan.path_filter = "shard-0.log|shard-1.log|shard-2.log";
  EXPECT_TRUE(plan.path_matches("/log/shards/shard-0.log"));
  EXPECT_TRUE(plan.path_matches("/log/shards/shard-1.log"));
  EXPECT_TRUE(plan.path_matches("/log/shards/shard-2.log"));
  EXPECT_FALSE(plan.path_matches("/log/shards/shard-3.log"));
  EXPECT_FALSE(plan.path_matches("/log/echo.log"));
  // Empty filter matches everything; empty alternatives are ignored.
  plan.path_filter = "";
  EXPECT_TRUE(plan.path_matches("/anything"));
  plan.path_filter = "|shard-7|";
  EXPECT_TRUE(plan.path_matches("x/shard-7.log"));
  EXPECT_FALSE(plan.path_matches("x/shard-8.log"));
}

TEST(FaultInjection, PathFilterAlternativesGateInjection) {
  TempDir dir{"faultalt"};
  const auto a = dir / "shard-0.log";
  const auto b = dir / "shard-5.log";
  ASSERT_TRUE(write_file(a, "a").is_ok());
  ASSERT_TRUE(write_file(b, "b").is_ok());
  FaultScope scope{plan_or_die("read.eio=@1,path_filter=shard-0|shard-1")};
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(read_file(b).is_ok());  // not an alternative: spared
  }
  EXPECT_FALSE(read_file(a).is_ok());  // step 1 fires here
  EXPECT_TRUE(read_file(a).is_ok());
}

TEST(FaultInjection, ProbabilityRulesReplayIdenticallyForASeed) {
  const auto run_sequence = [] {
    FaultScope scope{plan_or_die("seed=42,read.eio=0.3,read.torn=0.3")};
    std::vector<Kind> kinds;
    for (int i = 0; i < 200; ++i) {
      kinds.push_back(
          Injector::instance().decide(Site::kReadFile, "x").kind);
    }
    return kinds;
  };
  const auto first = run_sequence();
  const auto second = run_sequence();
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), Kind::kNone),
            static_cast<std::ptrdiff_t>(first.size()))
      << "a 0.3 probability over 200 steps should have fired at least once";

  FaultScope other_seed{plan_or_die("seed=43,read.eio=0.3,read.torn=0.3")};
  std::vector<Kind> different;
  for (int i = 0; i < 200; ++i) {
    different.push_back(
        Injector::instance().decide(Site::kReadFile, "x").kind);
  }
  EXPECT_NE(first, different) << "distinct seeds must schedule differently";
}

TEST(FaultInjection, ScopeUninstallRestoresCleanIo) {
  TempDir dir{"fault"};
  const auto path = dir / "victim.txt";
  ASSERT_TRUE(write_file(path, "data").is_ok());
  {
    FaultScope scope{plan_or_die("read.eio=@1")};
    EXPECT_TRUE(Injector::instance().active());
    EXPECT_FALSE(read_file(path).is_ok());
  }
  EXPECT_FALSE(Injector::instance().active());
  EXPECT_TRUE(read_file(path).is_ok());
}

TEST(FaultInjection, InstallFromEnvParsesInlineSpecs) {
  ::setenv("MCSD_FAULTS", "read.eio=@1", 1);
  EXPECT_TRUE(install_from_env().is_ok());
  EXPECT_TRUE(Injector::instance().active());
  Injector::instance().uninstall();

  ::setenv("MCSD_FAULTS", "read.eio=not-a-number", 1);
  EXPECT_FALSE(install_from_env().is_ok());

  ::unsetenv("MCSD_FAULTS");
  EXPECT_TRUE(install_from_env().is_ok());
  EXPECT_FALSE(Injector::instance().active());
}

#if MCSD_OBS_ENABLED
TEST(FaultInjection, InjectionsMirrorIntoObsCounters) {
  TempDir dir{"fault"};
  const auto path = dir / "victim.txt";
  ASSERT_TRUE(write_file(path, "data").is_ok());
  const auto counter_value = [] {
    return obs::Registry::instance().counter("fault.injected_read_eio").value();
  };
  const std::uint64_t before = counter_value();
  FaultScope scope{plan_or_die("read.eio=@1")};
  ASSERT_FALSE(read_file(path).is_ok());
  EXPECT_EQ(counter_value(), before + 1);
}
#endif

TEST(FaultReport, TalliesSurfaceAsKeyValueEntries) {
  TempDir dir{"fault"};
  const auto path = dir / "victim.txt";
  ASSERT_TRUE(write_file(path, "data").is_ok());
  FaultScope scope{plan_or_die("read.eio=@1+2")};
  ASSERT_FALSE(read_file(path).is_ok());
  ASSERT_FALSE(read_file(path).is_ok());
  const KeyValueMap report = Injector::instance().injected_report();
  EXPECT_EQ(report.get_uint("fault.injected_read_eio").value(), 2u);
  EXPECT_EQ(Injector::instance().total_injected(), 2u);
}

}  // namespace
}  // namespace mcsd::fault
