#include "core/io.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

namespace mcsd {
namespace {

namespace fs = std::filesystem;
using namespace std::string_literals;

TEST(TempDir, CreatesAndRemoves) {
  fs::path where;
  {
    TempDir dir{"iotest"};
    where = dir.path();
    EXPECT_TRUE(fs::exists(where));
    EXPECT_TRUE(fs::is_directory(where));
  }
  EXPECT_FALSE(fs::exists(where));
}

TEST(TempDir, UniquePaths) {
  TempDir a{"iotest"};
  TempDir b{"iotest"};
  EXPECT_NE(a.path(), b.path());
}

TEST(TempDir, MoveTransfersOwnership) {
  TempDir a{"iotest"};
  const fs::path original = a.path();
  TempDir b = std::move(a);
  EXPECT_EQ(b.path(), original);
  EXPECT_TRUE(fs::exists(original));
}

TEST(ReadWriteFile, RoundTrip) {
  TempDir dir{"iotest"};
  const fs::path file = dir / "data.bin";
  const std::string payload = "hello\0world\nbinary"s;
  ASSERT_TRUE(write_file(file, payload).is_ok());
  EXPECT_EQ(read_file(file).value(), payload);
}

TEST(ReadFile, MissingFileIsNotFound) {
  TempDir dir{"iotest"};
  const auto result = read_file(dir / "nope");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kNotFound);
}

TEST(AppendFile, Appends) {
  TempDir dir{"iotest"};
  const fs::path file = dir / "log";
  ASSERT_TRUE(append_file(file, "one\n").is_ok());
  ASSERT_TRUE(append_file(file, "two\n").is_ok());
  EXPECT_EQ(read_file(file).value(), "one\ntwo\n");
}

TEST(WriteFileAtomic, ReplacesContents) {
  TempDir dir{"iotest"};
  const fs::path file = dir / "a.txt";
  ASSERT_TRUE(write_file_atomic(file, "first").is_ok());
  ASSERT_TRUE(write_file_atomic(file, "second").is_ok());
  EXPECT_EQ(read_file(file).value(), "second");
  // No temp files left behind.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator{dir.path()}) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(WriteFileAtomic, ReadersNeverSeeTornContents) {
  // Hammer the file with rewrites while a reader checks every observation
  // is one of the two complete states.
  TempDir dir{"iotest"};
  const fs::path file = dir / "hot.txt";
  const std::string a(4096, 'a');
  const std::string b(4096, 'b');
  ASSERT_TRUE(write_file_atomic(file, a).is_ok());

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread reader{[&] {
    while (!stop.load()) {
      auto contents = read_file(file);
      if (!contents.is_ok()) continue;  // racing the rename is fine
      const std::string& s = contents.value();
      if (s != a && s != b) bad.fetch_add(1);
    }
  }};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(write_file_atomic(file, i % 2 == 0 ? b : a).is_ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(FileSize, ReportsBytes) {
  TempDir dir{"iotest"};
  const fs::path file = dir / "sz";
  ASSERT_TRUE(write_file(file, "12345").is_ok());
  EXPECT_EQ(mcsd::file_size(file).value(), 5u);
  EXPECT_FALSE(mcsd::file_size(dir / "missing").is_ok());
}

}  // namespace
}  // namespace mcsd
