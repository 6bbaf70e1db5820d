// Cross-module integration: the full McSD stack end to end.
//
// A "host" writes its corpus into the SD node's shared folder, then
// offloads word count / string match through smartFAM; the module on the
// "storage node" runs the partition-enabled MapReduce engine and returns
// results through the log-file channel — Fig. 4/5 of the paper as a test.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>

#include "apps/datagen.hpp"
#include "core/strings.hpp"
#include "apps/stringmatch.hpp"
#include "apps/wordcount.hpp"
#include "core/io.hpp"
#include "core/units.hpp"
#include "fam/client.hpp"
#include "fam/daemon.hpp"
#include "mapreduce/engine.hpp"
#include "partition/outofcore.hpp"

namespace mcsd {
namespace {

using namespace std::chrono_literals;
using namespace mcsd::literals;

/// The word-count module preloaded into the McSD node: reads the input
/// file from the shared folder, runs partition-enabled MapReduce with the
/// requested fragment size, and returns the top words plus totals.
std::shared_ptr<fam::Module> make_wordcount_module(std::size_t workers) {
  return std::make_shared<fam::FunctionModule>(
      "wordcount",
      [workers](const KeyValueMap& params) -> Result<KeyValueMap> {
        const auto input = params.get("input");
        if (!input) {
          return Error{ErrorCode::kInvalidArgument, "missing 'input'"};
        }
        auto text = read_file(*input);
        if (!text) return text.error();
        const auto partition_size = static_cast<std::uint64_t>(
            params.get_int_or("partition_size", 0));

        mr::Options opts;
        opts.num_workers = workers;
        mr::Engine<apps::WordCountSpec> engine{opts};
        part::PartitionOptions popts;
        popts.partition_size = partition_size;
        part::TextJob<apps::WordCountSpec> job;
        job.incremental_merge =
            part::sum_incremental<std::string, std::uint64_t>();
        part::OutOfCoreMetrics metrics;
        auto counts = part::run_partitioned(engine, apps::WordCountSpec{},
                                            text.value(), popts, job,
                                            &metrics);
        apps::sort_by_frequency_desc(counts);

        KeyValueMap out;
        out.set_uint("unique_words", counts.size());
        out.set_uint("total_words", apps::total_occurrences(counts));
        out.set_uint("fragments", metrics.fragments);
        const std::size_t top_n = std::min<std::size_t>(counts.size(), 5);
        for (std::size_t i = 0; i < top_n; ++i) {
          out.set("top" + std::to_string(i), counts[i].key);
          out.set_uint("top" + std::to_string(i) + "_count", counts[i].value);
        }
        return out;
      });
}

std::shared_ptr<fam::Module> make_stringmatch_module(std::size_t workers) {
  return std::make_shared<fam::FunctionModule>(
      "stringmatch",
      [workers](const KeyValueMap& params) -> Result<KeyValueMap> {
        const auto input = params.get("input");
        const auto keys_csv = params.get("keys");
        if (!input || !keys_csv) {
          return Error{ErrorCode::kInvalidArgument, "missing input/keys"};
        }
        auto text = read_file(*input);
        if (!text) return text.error();
        apps::StringMatchSpec spec;
        for (const auto k : split(*keys_csv, ',')) {
          spec.keys.emplace_back(k);
        }
        mr::Options opts;
        opts.num_workers = workers;
        mr::Engine<apps::StringMatchSpec> engine{opts};
        const auto pairs =
            engine.run(spec, mr::split_lines(text.value(), 64 * 1024));
        KeyValueMap out;
        out.set_uint("matches", pairs.size());
        return out;
      });
}

struct StackFixture : ::testing::Test {
  StackFixture()
      : daemon(fam::DaemonOptions{shared.path(), 2}),
        client(fam::ClientOptions{shared.path(), 1ms, 30'000ms}) {}

  TempDir shared{"mcsd-int"};  // stands in for the NFS export
  fam::Daemon daemon;
  fam::Client client;
};

TEST_F(StackFixture, OffloadedWordCountMatchesLocalReference) {
  apps::CorpusOptions corpus;
  corpus.bytes = 256 * 1024;
  corpus.vocabulary = 400;
  const std::string text = apps::generate_corpus(corpus);
  const auto input_path = shared / "corpus.txt";
  ASSERT_TRUE(write_file(input_path, text).is_ok());

  ASSERT_TRUE(daemon.preload(make_wordcount_module(2)).is_ok());
  daemon.start();

  KeyValueMap params;
  params.set("input", input_path.string());
  params.set_int("partition_size", 32 * 1024);
  const auto result = client.invoke("wordcount", params);
  ASSERT_TRUE(result.is_ok()) << result.error().to_string();

  auto reference = apps::wordcount_sequential(text);
  apps::sort_by_frequency_desc(reference);
  EXPECT_EQ(result.value().get_uint("unique_words").value(), reference.size());
  EXPECT_EQ(result.value().get_uint("total_words").value(),
            apps::total_occurrences(reference));
  EXPECT_GE(result.value().get_uint("fragments").value(), 8u);
  EXPECT_EQ(result.value().get("top0"), reference[0].key);
  EXPECT_EQ(result.value().get_uint("top0_count").value(),
            reference[0].value);
}

TEST_F(StackFixture, OffloadedWordCountNativeMode) {
  // partition_size = 0: "the program will run in native way".
  apps::CorpusOptions corpus;
  corpus.bytes = 64 * 1024;
  const std::string text = apps::generate_corpus(corpus);
  ASSERT_TRUE(write_file(shared / "c.txt", text).is_ok());
  ASSERT_TRUE(daemon.preload(make_wordcount_module(2)).is_ok());
  daemon.start();

  KeyValueMap params;
  params.set("input", (shared / "c.txt").string());
  const auto result = client.invoke("wordcount", params);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().get_uint("fragments").value(), 1u);
}

TEST_F(StackFixture, OffloadedStringMatchCountsPlantedKeys) {
  apps::LineFileOptions lf;
  lf.bytes = 128 * 1024;
  std::string text = apps::generate_line_file(lf);
  apps::KeysOptions ko;
  ko.count = 4;
  ko.plant_rate = 0.04;
  const auto keys = apps::generate_and_plant_keys(text, ko);
  ASSERT_TRUE(write_file(shared / "encrypt.txt", text).is_ok());

  ASSERT_TRUE(daemon.preload(make_stringmatch_module(2)).is_ok());
  daemon.start();

  std::string keys_csv;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i != 0) keys_csv += ',';
    keys_csv += keys[i];
  }
  KeyValueMap params;
  params.set("input", (shared / "encrypt.txt").string());
  params.set("keys", keys_csv);
  const auto result = client.invoke("stringmatch", params);
  ASSERT_TRUE(result.is_ok()) << result.error().to_string();
  EXPECT_EQ(result.value().get_uint("matches").value(),
            apps::stringmatch_sequential(text, keys).size());
}

TEST_F(StackFixture, MissingInputFileReportsErrorThroughChannel) {
  ASSERT_TRUE(daemon.preload(make_wordcount_module(1)).is_ok());
  daemon.start();
  KeyValueMap params;
  params.set("input", (shared / "does-not-exist").string());
  const auto result = client.invoke("wordcount", params);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.error().message().find("cannot open"), std::string::npos);
}

TEST_F(StackFixture, BothModulesServeInterleavedRequests) {
  apps::CorpusOptions corpus;
  corpus.bytes = 32 * 1024;
  const std::string text = apps::generate_corpus(corpus);
  ASSERT_TRUE(write_file(shared / "c.txt", text).is_ok());
  std::string lines = "the QQZZW token\nplain line\n";
  ASSERT_TRUE(write_file(shared / "l.txt", lines).is_ok());

  ASSERT_TRUE(daemon.preload(make_wordcount_module(1)).is_ok());
  ASSERT_TRUE(daemon.preload(make_stringmatch_module(1)).is_ok());
  daemon.start();

  for (int round = 0; round < 3; ++round) {
    KeyValueMap wc_params;
    wc_params.set("input", (shared / "c.txt").string());
    ASSERT_TRUE(client.invoke("wordcount", wc_params).is_ok());

    KeyValueMap sm_params;
    sm_params.set("input", (shared / "l.txt").string());
    sm_params.set("keys", "QQZZW");
    const auto sm = client.invoke("stringmatch", sm_params);
    ASSERT_TRUE(sm.is_ok());
    EXPECT_EQ(sm.value().get_uint("matches").value(), 1u);
  }
  EXPECT_EQ(daemon.requests_handled(), 6u);
}

}  // namespace
}  // namespace mcsd
