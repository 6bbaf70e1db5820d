// Cross-layer obs invariants: the engine's reported Metrics must agree
// with the per-worker emitter counters published to the obs registry,
// and a traced engine + partition + FAM run must export spans from all
// three layers into one chrome://tracing JSON.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>

#include "apps/datagen.hpp"
#include "apps/wordcount.hpp"
#include "core/io.hpp"
#include "fam/client.hpp"
#include "fam/daemon.hpp"
#include "mapreduce/engine.hpp"
#include "obs/counters.hpp"
#include "obs/reporter.hpp"
#include "obs/trace.hpp"
#include "partition/outofcore.hpp"

namespace mcsd {
namespace {

using namespace std::chrono_literals;

class ObsEnabledGuard {
 public:
  ObsEnabledGuard() : was_(obs::enabled()) { obs::set_enabled(true); }
  ~ObsEnabledGuard() { obs::set_enabled(was_); }

 private:
  bool was_;
};

[[maybe_unused]] std::uint64_t counter_value(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

std::string small_corpus() {
  apps::CorpusOptions corpus;
  corpus.bytes = 512 * 1024;
  corpus.vocabulary = 2'000;
  return apps::generate_corpus(corpus);
}

// Every raw emit either created a stored pair or folded into one — the
// engine-level totals are exactly the sum of what the per-worker
// emitters counted.
TEST(ObsIntegration, MetricsDecomposeIntoEmitterCounters) {
  const std::string text = small_corpus();
  mr::Options opts;
  opts.num_workers = 4;
  mr::Engine<apps::WordCountSpec> engine{opts};
  mr::Metrics metrics;
  const auto counts = engine.run(apps::WordCountSpec{},
                                 mr::split_text(text, 32 * 1024), 0, &metrics);

  EXPECT_GT(metrics.map_emits, 0u);
  EXPECT_EQ(metrics.map_emits,
            metrics.map_stored_pairs + metrics.map_combine_hits);
  EXPECT_GT(metrics.map_intermediate_bytes, 0u);
  EXPECT_EQ(metrics.unique_keys, counts.size());
}

#if MCSD_OBS_ENABLED
// The engine publishes each worker's emitter totals into the obs
// registry; the registry deltas across a run must equal the Metrics the
// engine returned for that same run.
TEST(ObsIntegration, RegistryDeltasMatchEngineMetrics) {
  ObsEnabledGuard guard;
  const std::string text = small_corpus();

  const std::uint64_t emits_before = counter_value("mr.map_emits");
  const std::uint64_t combine_before = counter_value("mr.combine_hits");
  const std::uint64_t bytes_before = counter_value("mr.intermediate_bytes");
  const std::uint64_t keys_before = counter_value("mr.unique_keys");

  mr::Options opts;
  opts.num_workers = 3;
  mr::Engine<apps::WordCountSpec> engine{opts};
  mr::Metrics metrics;
  engine.run(apps::WordCountSpec{}, mr::split_text(text, 32 * 1024), 0,
             &metrics);

  EXPECT_EQ(counter_value("mr.map_emits") - emits_before,
            metrics.map_emits);
  EXPECT_EQ(counter_value("mr.combine_hits") - combine_before,
            metrics.map_combine_hits);
  EXPECT_EQ(counter_value("mr.intermediate_bytes") - bytes_before,
            metrics.map_intermediate_bytes);
  EXPECT_EQ(counter_value("mr.unique_keys") - keys_before,
            metrics.unique_keys);
}

// When runtime-disabled, a run must publish nothing — the registry
// deltas stay zero even though the engine still fills Metrics.
TEST(ObsIntegration, DisabledRunPublishesNothing) {
  ObsEnabledGuard guard;
  obs::set_enabled(false);
  const std::string text = small_corpus();
  const std::uint64_t emits_before = counter_value("mr.map_emits");

  mr::Options opts;
  opts.num_workers = 2;
  mr::Engine<apps::WordCountSpec> engine{opts};
  mr::Metrics metrics;
  engine.run(apps::WordCountSpec{}, mr::split_text(text, 32 * 1024), 0,
             &metrics);

  EXPECT_GT(metrics.map_emits, 0u);  // engine metrics still work
  EXPECT_EQ(counter_value("mr.map_emits"), emits_before);
}

// One in-process offload round trip — client invoke, daemon dispatch, a
// module running the partitioned engine — must land spans from the mr,
// part, and fam layers in a single exported trace.
TEST(ObsIntegration, TracedOffloadRunExportsAllThreeLayers) {
  ObsEnabledGuard guard;
  TempDir shared{"obs-fam"};

  fam::Daemon daemon{fam::DaemonOptions{shared.path(), 1}};
  ASSERT_TRUE(
      daemon
          .preload(std::make_shared<fam::FunctionModule>(
              "obs_wordcount",
              [](const KeyValueMap& params) -> Result<KeyValueMap> {
                const auto input = params.get("input");
                if (!input) {
                  return Error{ErrorCode::kInvalidArgument, "need input"};
                }
                auto text = read_file(*input);
                if (!text) return text.error();
                mr::Options opts;
                opts.num_workers = 2;
                mr::Engine<apps::WordCountSpec> engine{opts};
                part::PartitionOptions popts;
                popts.partition_size = 64 * 1024;
                part::TextJob<apps::WordCountSpec> job;
                job.incremental_merge =
                    part::sum_incremental<std::string, std::uint64_t>();
                auto counts = part::run_partitioned(
                    engine, apps::WordCountSpec{}, text.value(), popts, job);
                KeyValueMap out;
                out.set_uint("unique", counts.size());
                return out;
              }))
          .is_ok());
  daemon.start();

  const auto data_path = shared / "corpus.txt";
  ASSERT_TRUE(write_file(data_path, small_corpus()).is_ok());
  fam::Client client{fam::ClientOptions{shared.path(), 1ms, 30'000ms}};
  KeyValueMap params;
  params.set("input", data_path.string());
  const auto result = client.invoke("obs_wordcount", params);
  ASSERT_TRUE(result.is_ok()) << result.error().to_string();
  daemon.stop();

  const auto trace_path = shared / "trace.json";
  ASSERT_TRUE(obs::write_trace_json(trace_path).is_ok());
  const auto contents = read_file(trace_path);
  ASSERT_TRUE(contents.is_ok());
  EXPECT_NE(contents.value().find("\"cat\":\"mr\""), std::string::npos);
  EXPECT_NE(contents.value().find("\"cat\":\"part\""), std::string::npos);
  EXPECT_NE(contents.value().find("\"cat\":\"fam\""), std::string::npos);
  EXPECT_NE(contents.value().find("fam.dispatch:obs_wordcount"),
            std::string::npos);
}
#endif  // MCSD_OBS_ENABLED

}  // namespace
}  // namespace mcsd
