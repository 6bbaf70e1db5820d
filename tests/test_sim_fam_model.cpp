#include "cluster/fam_model.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "core/fault.hpp"
#include "core/io.hpp"
#include "core/stopwatch.hpp"
#include "fam/client.hpp"
#include "fam/daemon.hpp"

namespace mcsd::sim {
namespace {

using namespace std::chrono_literals;

TEST(FamModel, OverheadDominatedByPolling) {
  FamModel model;
  const double overhead = model.overhead_seconds();
  // With 2 ms SD poll and 1 ms host poll, the mean poll wait is 1.5 ms —
  // most of the channel cost.
  EXPECT_GT(overhead, 1.5e-3);
  EXPECT_LT(overhead, 5e-3);
}

TEST(FamModel, ModuleTimeAddsLinearly) {
  FamModel model;
  EXPECT_NEAR(model.round_trip_seconds(1.0) - model.round_trip_seconds(0.0),
              1.0, 1e-12);
}

TEST(FamModel, NfsAttributeCacheDominatesRemoteDeployments) {
  // The deployment insight the paper skips: on a default NFS mount
  // (acregmin = 3 s) the log-file channel costs seconds, not
  // milliseconds — which is why tuned mounts (noac / actimeo=0) or a
  // local staging folder matter for McSD-style invocation.
  FamModel local;
  FamModel nfs;
  nfs.nfs_attr_cache_seconds = 3.0;
  EXPECT_LT(local.overhead_seconds(), 0.01);
  EXPECT_GT(nfs.overhead_seconds(), 3.0);
}

TEST(FamModel, ScenarioConstantIsConservative) {
  // The Testbed's 20 ms fam_invocation_seconds must upper-bound the
  // modelled local-folder overhead (the scenarios charge the data job
  // with it once per offload).
  FamModel model;
  EXPECT_LT(model.overhead_seconds(), 0.02);
}

// Mean round trip of a no-op module invoked through actual log files.
// The daemon drains every `drain_interval` and the client polls every
// 1 ms when no watch event wakes them first.
double measure_noop_round_trip(std::chrono::milliseconds drain_interval) {
  TempDir dir{"fammodel"};
  fam::DaemonOptions daemon_options{dir.path(), 1};
  daemon_options.drain_interval = drain_interval;
  fam::Daemon daemon{daemon_options};
  EXPECT_TRUE(daemon
                  .preload(std::make_shared<fam::FunctionModule>(
                      "noop",
                      [](const KeyValueMap& p) -> Result<KeyValueMap> {
                        return p;
                      }))
                  .is_ok());
  daemon.start();
  fam::Client client{fam::ClientOptions{dir.path(), 1ms, 10'000ms}};

  // Warm up, then time a few round trips.
  KeyValueMap params;
  params.set("k", "v");
  EXPECT_TRUE(client.invoke("noop", params).is_ok());
  Stopwatch watch;
  constexpr int kRounds = 10;
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_TRUE(client.invoke("noop", params).is_ok());
  }
  return watch.elapsed_seconds() / kRounds;
}

TEST(FamModel, MatchesRealRoundTripWithinAnOrderOfMagnitude) {
  // On a local folder inotify wakes the drainer and the waiting client,
  // so neither side waits out a poll: the model's poll terms are zero.
  // With the polls gone the write term dominates, so it is set to what
  // the channel does: an unsynced append of one frame, not a file replace.
  const double measured =
      measure_noop_round_trip(fam::DaemonOptions{}.drain_interval);
  FamModel model;
  model.sd_poll_seconds = 0.0;
  model.host_poll_seconds = 0.0;
  model.write_seconds = 20e-6;
  const double predicted = model.overhead_seconds();
  // Scheduling noise on a loaded machine can stretch the measurement;
  // the model must at least share its order of magnitude.
  EXPECT_GT(measured, predicted / 10.0);
  EXPECT_LT(measured, predicted * 50.0);
}

TEST(FamModel, MatchesPolledRoundTripWithinAnOrderOfMagnitude) {
  // With every watch event dropped the daemon and client find each frame
  // by their timers alone, as they do over NFS: the default, polled model
  // (2 ms storage-node poll, 1 ms host poll).
  fault::FaultScope no_events{
      fault::FaultPlan::from_spec(
          "watch.suppress=1,path_filter=shards/|replies/")
          .value()};
  const double measured = measure_noop_round_trip(2ms);
  const double predicted = FamModel{}.overhead_seconds();
  EXPECT_GT(measured, predicted / 10.0);
  EXPECT_LT(measured, predicted * 50.0);
}

}  // namespace
}  // namespace mcsd::sim
