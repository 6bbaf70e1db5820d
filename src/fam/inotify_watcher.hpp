// inotify-based file-alteration monitor (Linux).
//
// The paper's smartFAM is built on "the inotify program - a Linux kernel
// subsystem that provides file system event notification".  This backend
// is the faithful implementation: near-zero-latency events with no
// polling syscall load.  Caveat: inotify only observes *local* writes —
// over a real NFS mount the storage node never sees the host's writes.
// So nothing may depend on an event arriving.  The rev-1 module-log
// watcher is chosen by DaemonOptions::backend (polling by default), and
// the rev-2 channel uses inotify only to wake its drainer and waiting
// clients early: its drain and reply-poll timers still run underneath.
#pragma once

#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/result.hpp"
#include "fam/watcher.hpp"

namespace mcsd::fam {

class InotifyWatcher final : public Watcher {
 public:
  /// Watches regular files directly inside `directory` for close-write,
  /// moved-to (atomic rename lands here) and create events.
  /// Fails with kUnavailable on kernels without inotify support.
  static Result<std::unique_ptr<InotifyWatcher>> create(
      std::filesystem::path directory, ChangeCallback on_change);

  ~InotifyWatcher();

  InotifyWatcher(const InotifyWatcher&) = delete;
  InotifyWatcher& operator=(const InotifyWatcher&) = delete;

  /// Starts the event thread.  Idempotent.
  void start() override;
  /// Stops and joins.  Idempotent; destructor calls it.
  void stop() override;

  [[nodiscard]] const std::filesystem::path& directory() const noexcept {
    return directory_;
  }
  [[nodiscard]] std::uint64_t events_fired() const noexcept override {
    return events_fired_.load(std::memory_order_relaxed);
  }

 private:
  InotifyWatcher(std::filesystem::path directory, ChangeCallback on_change,
                 int inotify_fd, int watch_descriptor);

  void run();

  std::filesystem::path directory_;
  ChangeCallback on_change_;
  int inotify_fd_;
  int watch_descriptor_;
  int wake_pipe_[2] = {-1, -1};  ///< poll() wake-up for stop(); non-blocking
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> events_fired_{0};
};

}  // namespace mcsd::fam
