// inotify-based file-alteration monitor (Linux).
//
// The paper's smartFAM is built on "the inotify program - a Linux kernel
// subsystem that provides file system event notification": near-zero-
// latency events with no polling syscall load.  Caveat: inotify only
// observes *local* writes — over a real NFS mount the storage node never
// sees the host's writes.  So nothing may depend on an event arriving:
// the channel uses inotify only to wake the daemon's drainer and the
// waiting clients early, and their drain and reply-poll timers still run
// underneath.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "core/result.hpp"

namespace mcsd::fam {

/// Fired with the path of a created or modified watched file.
using ChangeCallback = std::function<void(const std::filesystem::path&)>;

class InotifyWatcher {
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
  void start();
  /// Stops and joins.  Idempotent; destructor calls it.
  void stop();

  [[nodiscard]] const std::filesystem::path& directory() const noexcept {
    return directory_;
  }
  [[nodiscard]] std::uint64_t events_fired() const noexcept {
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
