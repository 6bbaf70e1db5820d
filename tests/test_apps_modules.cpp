// The FAM-loadable application modules, exercised through a live
// daemon/client pair over a shared folder.
#include "apps/modules.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "apps/datagen.hpp"
#include "apps/stringmatch.hpp"
#include "apps/wordcount.hpp"
#include "core/io.hpp"
#include "fam/client.hpp"
#include "fam/daemon.hpp"

namespace mcsd::apps {
namespace {

using namespace std::chrono_literals;

struct ModulesFixture : ::testing::Test {
  ModulesFixture()
      : daemon(fam::DaemonOptions{shared.path(), 1ms, 2}),
        client(fam::ClientOptions{shared.path(), 1ms, 30'000ms}) {
    const Status s = preload_standard_modules(
        [this](auto module) { return daemon.preload(std::move(module)); }, 2);
    EXPECT_TRUE(s.is_ok()) << s.to_string();
    daemon.start();
  }

  TempDir shared{"modtest"};
  fam::Daemon daemon;
  fam::Client client;
};

TEST_F(ModulesFixture, StandardModulesPreloaded) {
  for (const char* name : {"wordcount", "stringmatch", "matmul", "select"}) {
    EXPECT_TRUE(client.module_available(name)) << name;
  }
}

TEST_F(ModulesFixture, WordCountModule) {
  CorpusOptions corpus;
  corpus.bytes = 96 * 1024;
  const std::string text = generate_corpus(corpus);
  ASSERT_TRUE(write_file(shared / "c.txt", text).is_ok());

  KeyValueMap params;
  params.set("input", (shared / "c.txt").string());
  params.set_int("partition_size", 16 * 1024);
  params.set_int("top", 2);
  const auto result = client.invoke("wordcount", params);
  ASSERT_TRUE(result.is_ok()) << result.error().to_string();

  auto reference = wordcount_sequential(text);
  sort_by_frequency_desc(reference);
  EXPECT_EQ(result.value().get_uint("unique").value(), reference.size());
  EXPECT_EQ(result.value().get_uint("total").value(),
            total_occurrences(reference));
  EXPECT_EQ(result.value().get("top0"), reference[0].key);
  EXPECT_TRUE(result.value().contains("top1"));
  EXPECT_FALSE(result.value().contains("top2"));  // top=2 respected
}

TEST_F(ModulesFixture, WordCountModuleMissingInput) {
  const auto result = client.invoke("wordcount", KeyValueMap{});
  ASSERT_FALSE(result.is_ok());
}

TEST_F(ModulesFixture, StringMatchModule) {
  LineFileOptions lf;
  lf.bytes = 64 * 1024;
  std::string text = generate_line_file(lf);
  KeysOptions ko;
  ko.count = 3;
  ko.plant_rate = 0.05;
  const auto keys = generate_and_plant_keys(text, ko);
  ASSERT_TRUE(write_file(shared / "e.txt", text).is_ok());

  KeyValueMap params;
  params.set("input", (shared / "e.txt").string());
  params.set("keys", keys[0] + "," + keys[1] + "," + keys[2]);
  const auto result = client.invoke("stringmatch", params);
  ASSERT_TRUE(result.is_ok()) << result.error().to_string();
  EXPECT_EQ(result.value().get_uint("matches").value(),
            stringmatch_sequential(text, keys).size());
}

TEST_F(ModulesFixture, StringMatchModuleRejectsEmptyKeys) {
  ASSERT_TRUE(write_file(shared / "e.txt", "line\n").is_ok());
  KeyValueMap params;
  params.set("input", (shared / "e.txt").string());
  params.set("keys", ",,");
  const auto result = client.invoke("stringmatch", params);
  ASSERT_FALSE(result.is_ok());
}

TEST_F(ModulesFixture, MatMulModule) {
  const Matrix a = generate_matrix(7, 5, 1);
  const Matrix b = generate_matrix(5, 9, 2);
  ASSERT_TRUE(write_matrix(shared / "a.mat", a).is_ok());
  ASSERT_TRUE(write_matrix(shared / "b.mat", b).is_ok());

  KeyValueMap params;
  params.set("a", (shared / "a.mat").string());
  params.set("b", (shared / "b.mat").string());
  params.set("out", (shared / "c.mat").string());
  const auto result = client.invoke("matmul", params);
  ASSERT_TRUE(result.is_ok()) << result.error().to_string();
  EXPECT_EQ(result.value().get_uint("rows").value(), 7u);
  EXPECT_EQ(result.value().get_uint("cols").value(), 9u);

  const auto c = read_matrix(shared / "c.mat");
  ASSERT_TRUE(c.is_ok());
  const Matrix expected = matmul_sequential(a, b);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_NEAR(c.value().at(i, j), expected.at(i, j), 1e-9);
    }
  }
}

TEST_F(ModulesFixture, MatMulModuleDimensionMismatch) {
  ASSERT_TRUE(write_matrix(shared / "a.mat", generate_matrix(3, 4, 1)).is_ok());
  ASSERT_TRUE(write_matrix(shared / "b.mat", generate_matrix(3, 4, 2)).is_ok());
  KeyValueMap params;
  params.set("a", (shared / "a.mat").string());
  params.set("b", (shared / "b.mat").string());
  params.set("out", (shared / "c.mat").string());
  const auto result = client.invoke("matmul", params);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.error().message().find("dimension"), std::string::npos);
}

TEST_F(ModulesFixture, SelectModuleEq) {
  const std::string table =
      "alice,30,nyc\nbob,25,sfo\ncarol,30,nyc\ndan,40,chi\n";
  ASSERT_TRUE(write_file(shared / "t.csv", table).is_ok());
  KeyValueMap params;
  params.set("input", (shared / "t.csv").string());
  params.set_int("column", 1);
  params.set("op", "eq");
  params.set("value", "30");
  params.set("out", (shared / "r.csv").string());
  const auto result = client.invoke("select", params);
  ASSERT_TRUE(result.is_ok()) << result.error().to_string();
  EXPECT_EQ(result.value().get_uint("rows_in").value(), 4u);
  EXPECT_EQ(result.value().get_uint("rows_out").value(), 2u);
  EXPECT_EQ(read_file(shared / "r.csv").value(),
            "alice,30,nyc\ncarol,30,nyc\n");
}

TEST_F(ModulesFixture, SelectModuleNumericGt) {
  const std::string table = "a,5\nb,50\nc,500\n";
  ASSERT_TRUE(write_file(shared / "t.csv", table).is_ok());
  KeyValueMap params;
  params.set("input", (shared / "t.csv").string());
  params.set_int("column", 1);
  params.set("op", "gt");
  params.set("value", "49");  // numeric: 5 < 49 < 50 < 500
  params.set("out", (shared / "r.csv").string());
  const auto result = client.invoke("select", params);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().get_uint("rows_out").value(), 2u);
}

TEST_F(ModulesFixture, SelectModuleContains) {
  const std::string table = "xapplex,1\nbanana,2\ngrapple,3\n";
  ASSERT_TRUE(write_file(shared / "t.csv", table).is_ok());
  KeyValueMap params;
  params.set("input", (shared / "t.csv").string());
  params.set_int("column", 0);
  params.set("op", "contains");
  params.set("value", "apple");
  params.set("out", (shared / "r.csv").string());
  const auto result = client.invoke("select", params);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().get_uint("rows_out").value(), 2u);
}

TEST_F(ModulesFixture, SelectModuleRejectsBadOp) {
  ASSERT_TRUE(write_file(shared / "t.csv", "a,1\n").is_ok());
  KeyValueMap params;
  params.set("input", (shared / "t.csv").string());
  params.set_int("column", 0);
  params.set("op", "between");
  params.set("value", "x");
  params.set("out", (shared / "r.csv").string());
  ASSERT_FALSE(client.invoke("select", params).is_ok());
}

TEST_F(ModulesFixture, SelectModuleColumnOutOfRangeMatchesNothing) {
  ASSERT_TRUE(write_file(shared / "t.csv", "a,1\nb,2\n").is_ok());
  KeyValueMap params;
  params.set("input", (shared / "t.csv").string());
  params.set_int("column", 9);
  params.set("op", "eq");
  params.set("value", "a");
  params.set("out", (shared / "r.csv").string());
  const auto result = client.invoke("select", params);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().get_uint("rows_out").value(), 0u);
}

TEST_F(ModulesFixture, SortModuleOrdersLines) {
  ASSERT_TRUE(write_file(shared / "u.txt", "pear\napple\nmango\n").is_ok());
  KeyValueMap params;
  params.set("input", (shared / "u.txt").string());
  params.set("out", (shared / "s.txt").string());
  const auto result = client.invoke("sort", params);
  ASSERT_TRUE(result.is_ok()) << result.error().to_string();
  EXPECT_EQ(result.value().get_uint("lines").value(), 3u);
  EXPECT_EQ(read_file(shared / "s.txt").value(), "apple\nmango\npear\n");
}

TEST_F(ModulesFixture, SortModuleOutOfCore) {
  LineFileOptions lf;
  lf.bytes = 256 * 1024;
  const std::string text = generate_line_file(lf);
  ASSERT_TRUE(write_file(shared / "big.txt", text).is_ok());
  KeyValueMap params;
  params.set("input", (shared / "big.txt").string());
  params.set("out", (shared / "sorted.txt").string());
  params.set_int("memory_budget", 64 * 1024);  // forces external runs
  const auto result = client.invoke("sort", params);
  ASSERT_TRUE(result.is_ok()) << result.error().to_string();
  EXPECT_GT(result.value().get_uint("runs").value(), 1u);
  // Output is sorted: adjacent lines non-decreasing.
  const std::string sorted = read_file(shared / "sorted.txt").value();
  std::string_view prev;
  for (const auto line : split(sorted, '\n')) {
    if (line.empty()) continue;
    EXPECT_LE(prev, line);
    prev = line;
  }
}

TEST_F(ModulesFixture, JoinModuleEquiJoin) {
  // users(id, name) join orders(order, user_id) on id == user_id.
  ASSERT_TRUE(write_file(shared / "users.csv",
                         "1,alice\n2,bob\n3,carol\n")
                  .is_ok());
  ASSERT_TRUE(write_file(shared / "orders.csv",
                         "o1,2\no2,1\no3,2\no4,9\n")
                  .is_ok());
  KeyValueMap params;
  params.set("left", (shared / "users.csv").string());
  params.set("right", (shared / "orders.csv").string());
  params.set_int("left_column", 0);
  params.set_int("right_column", 1);
  params.set("out", (shared / "joined.csv").string());
  const auto result = client.invoke("join", params);
  ASSERT_TRUE(result.is_ok()) << result.error().to_string();
  EXPECT_EQ(result.value().get_uint("rows_left").value(), 3u);
  EXPECT_EQ(result.value().get_uint("rows_right").value(), 4u);
  EXPECT_EQ(result.value().get_uint("rows_out").value(), 3u);  // o4 drops
  const std::string joined = read_file(shared / "joined.csv").value();
  EXPECT_NE(joined.find("2,bob,o1"), std::string::npos);
  EXPECT_NE(joined.find("1,alice,o2"), std::string::npos);
  EXPECT_NE(joined.find("2,bob,o3"), std::string::npos);
  EXPECT_EQ(joined.find(",9"), std::string::npos);  // unmatched row gone
}

TEST_F(ModulesFixture, JoinModuleDuplicateBuildKeys) {
  ASSERT_TRUE(write_file(shared / "l.csv", "k,a\nk,b\n").is_ok());
  ASSERT_TRUE(write_file(shared / "r.csv", "k,x\n").is_ok());
  KeyValueMap params;
  params.set("left", (shared / "l.csv").string());
  params.set("right", (shared / "r.csv").string());
  params.set_int("left_column", 0);
  params.set_int("right_column", 0);
  params.set("out", (shared / "j.csv").string());
  const auto result = client.invoke("join", params);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().get_uint("rows_out").value(), 2u);
}

TEST_F(ModulesFixture, JoinModuleRejectsMissingParams) {
  KeyValueMap params;
  params.set("left", (shared / "l.csv").string());
  ASSERT_FALSE(client.invoke("join", params).is_ok());
}

TEST(WarmEngines, FourThreadWordCountInvokesAreByteIdentical) {
  // Concurrent misses of one module each lease their own warm engine
  // instead of queueing on one; every output must still match a solo run
  // byte for byte, whichever engine served it.
  TempDir dir{"warmpar"};
  CorpusOptions corpus;
  corpus.bytes = 64 * 1024;
  ASSERT_TRUE(write_file(dir / "c.txt", generate_corpus(corpus)).is_ok());
  const auto module = make_wordcount_module(2);
  KeyValueMap params;
  params.set("input", (dir / "c.txt").string());
  params.set_int("partition_size", 16 * 1024);
  params.set("full_counts", "true");
  const auto solo = module->invoke(params);
  ASSERT_TRUE(solo.is_ok()) << solo.error().to_string();
  const std::string expected = solo.value().serialize();

  constexpr int kThreads = 4;
  constexpr int kRuns = 5;
  std::vector<std::vector<std::string>> outputs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRuns; ++i) {
        const auto result = module->invoke(params);
        outputs[t].push_back(result.is_ok() ? result.value().serialize()
                                            : result.error().to_string());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(outputs[t].size(), static_cast<std::size_t>(kRuns));
    for (const std::string& output : outputs[t]) {
      EXPECT_EQ(output, expected) << "thread " << t;
    }
  }
}

TEST(MatrixIo, RoundTrip) {
  TempDir dir{"matio"};
  const Matrix m = generate_matrix(6, 3, 11);
  ASSERT_TRUE(write_matrix(dir / "m.mat", m).is_ok());
  const auto back = read_matrix(dir / "m.mat");
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), m);  // %.17g is lossless for doubles
}

TEST(MatrixIo, RejectsMalformed) {
  TempDir dir{"matio"};
  ASSERT_TRUE(write_file(dir / "bad1", "").is_ok());
  EXPECT_FALSE(read_matrix(dir / "bad1").is_ok());
  ASSERT_TRUE(write_file(dir / "bad2", "2 2\n1 2 3\n").is_ok());
  EXPECT_FALSE(read_matrix(dir / "bad2").is_ok());  // short body
  ASSERT_TRUE(write_file(dir / "bad3", "2 2\n1 2 3 oops\n").is_ok());
  EXPECT_FALSE(read_matrix(dir / "bad3").is_ok());  // non-numeric
  EXPECT_FALSE(read_matrix(dir / "missing").is_ok());
}

}  // namespace
}  // namespace mcsd::apps
