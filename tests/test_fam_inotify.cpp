// InotifyWatcher: the paper's FAM mechanism, which wakes the daemon's
// drainer and the waiting clients.
#include "fam/inotify_watcher.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/io.hpp"

namespace mcsd::fam {
namespace {

using namespace std::chrono_literals;

/// Spins until `pred` holds or ~2 s pass.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 1000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

TEST(InotifyWatcher, CreateOnLocalDirectory) {
  TempDir dir{"ino"};
  auto watcher = InotifyWatcher::create(dir.path(), nullptr);
  ASSERT_TRUE(watcher.is_ok()) << watcher.error().to_string();
}

TEST(InotifyWatcher, CreateFailsOnMissingDirectory) {
  auto watcher =
      InotifyWatcher::create("/nonexistent/mcsd/logdir", nullptr);
  ASSERT_FALSE(watcher.is_ok());
  EXPECT_EQ(watcher.error().code(), ErrorCode::kUnavailable);
}

TEST(InotifyWatcher, FiresOnPlainWrite) {
  TempDir dir{"ino"};
  std::atomic<int> events{0};
  auto watcher = InotifyWatcher::create(
      dir.path(), [&](const std::filesystem::path&) { events.fetch_add(1); });
  ASSERT_TRUE(watcher.is_ok());
  watcher.value()->start();
  ASSERT_TRUE(write_file(dir / "a.log", "payload").is_ok());
  EXPECT_TRUE(eventually([&] { return events.load() >= 1; }));
  watcher.value()->stop();
}

TEST(InotifyWatcher, FiresOnAtomicRename) {
  // write_file_atomic lands as IN_MOVED_TO; the staging .tmp. writes are
  // filtered out.
  TempDir dir{"ino"};
  std::atomic<int> events{0};
  std::string last_name;
  std::mutex m;
  auto watcher = InotifyWatcher::create(
      dir.path(), [&](const std::filesystem::path& p) {
        std::lock_guard lock{m};
        last_name = p.filename().string();
        events.fetch_add(1);
      });
  ASSERT_TRUE(watcher.is_ok());
  watcher.value()->start();
  ASSERT_TRUE(write_file_atomic(dir / "mod.log", "record").is_ok());
  ASSERT_TRUE(eventually([&] { return events.load() >= 1; }));
  watcher.value()->stop();
  std::lock_guard lock{m};
  EXPECT_EQ(last_name, "mod.log");
}

TEST(InotifyWatcher, StopIsPromptAndIdempotent) {
  TempDir dir{"ino"};
  auto watcher = InotifyWatcher::create(dir.path(), nullptr);
  ASSERT_TRUE(watcher.is_ok());
  watcher.value()->start();
  watcher.value()->start();
  const auto before = std::chrono::steady_clock::now();
  watcher.value()->stop();
  watcher.value()->stop();
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_LT(elapsed, 1s);  // the wake pipe must beat the 200 ms poll cap
}

TEST(InotifyWatcher, RestartAfterStopStillDeliversEvents) {
  // stop()'s wake byte must not outlive the thread it woke: left in the
  // pipe, it would make the restarted thread's poll() return at once,
  // forever, before it ever reads an event.
  TempDir dir{"ino"};
  std::atomic<int> events{0};
  auto watcher = InotifyWatcher::create(
      dir.path(), [&](const std::filesystem::path&) { events.fetch_add(1); });
  ASSERT_TRUE(watcher.is_ok());
  watcher.value()->start();
  watcher.value()->stop();
  watcher.value()->start();
  ASSERT_TRUE(write_file(dir / "a.log", "payload").is_ok());
  EXPECT_TRUE(eventually([&] { return events.load() >= 1; }));
  watcher.value()->stop();
}

}  // namespace
}  // namespace mcsd::fam
