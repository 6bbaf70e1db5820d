#include "fam/inotify_watcher.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/inotify.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "core/fault.hpp"
#include "core/log.hpp"

namespace mcsd::fam {

namespace fs = std::filesystem;

Result<std::unique_ptr<InotifyWatcher>> InotifyWatcher::create(
    fs::path directory, ChangeCallback on_change) {
  const int fd = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
  if (fd < 0) {
    return Error{ErrorCode::kUnavailable,
                 std::string{"inotify_init1: "} + std::strerror(errno)};
  }
  // IN_CLOSE_WRITE covers in-place writes; IN_MOVED_TO covers the atomic
  // temp-file-then-rename updates write_file_atomic performs.
  const int wd = ::inotify_add_watch(
      fd, directory.c_str(), IN_CLOSE_WRITE | IN_MOVED_TO | IN_CREATE);
  if (wd < 0) {
    const int err = errno;
    ::close(fd);
    return Error{ErrorCode::kUnavailable,
                 "inotify_add_watch(" + directory.string() +
                     "): " + std::strerror(err)};
  }
  return std::unique_ptr<InotifyWatcher>{
      new InotifyWatcher{std::move(directory), std::move(on_change), fd, wd}};
}

InotifyWatcher::InotifyWatcher(fs::path directory, ChangeCallback on_change,
                               int inotify_fd, int watch_descriptor)
    : directory_(std::move(directory)),
      on_change_(std::move(on_change)),
      inotify_fd_(inotify_fd),
      watch_descriptor_(watch_descriptor) {
  if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
    wake_pipe_[0] = wake_pipe_[1] = -1;
  }
}

InotifyWatcher::~InotifyWatcher() {
  stop();
  if (watch_descriptor_ >= 0) {
    ::inotify_rm_watch(inotify_fd_, watch_descriptor_);
  }
  if (inotify_fd_ >= 0) ::close(inotify_fd_);
  for (int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

void InotifyWatcher::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  // A previous stop() may have left its wake byte unread (the thread can
  // exit on running_ before polling the pipe); a stale byte would make
  // every poll() return at once and the restarted thread spin.
  if (wake_pipe_[0] >= 0) {
    char drain[16];
    while (::read(wake_pipe_[0], drain, sizeof drain) > 0) {
    }
  }
  thread_ = std::thread([this] { run(); });
}

void InotifyWatcher::stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const auto n = ::write(wake_pipe_[1], &byte, 1);
  }
  if (thread_.joinable()) thread_.join();
}

void InotifyWatcher::run() {
  std::array<char, 16 * 1024> buffer;
  while (running_.load(std::memory_order_relaxed)) {
    std::array<pollfd, 2> fds{{{inotify_fd_, POLLIN, 0},
                               {wake_pipe_[0], POLLIN, 0}}};
    const int ready =
        ::poll(fds.data(), wake_pipe_[0] >= 0 ? 2 : 1, /*timeout ms=*/200);
    if (ready <= 0) continue;  // timeout or EINTR: re-check running_
    if (fds[1].revents & POLLIN) continue;  // stop() woke us

    const ssize_t len = ::read(inotify_fd_, buffer.data(), buffer.size());
    if (len <= 0) continue;
    ssize_t offset = 0;
    while (offset < len) {
      const auto* event =
          reinterpret_cast<const inotify_event*>(buffer.data() + offset);
      offset += static_cast<ssize_t>(sizeof(inotify_event)) + event->len;
      if (event->len == 0) continue;              // directory-level event
      if (event->mask & IN_ISDIR) continue;       // subdirectory noise
      const std::string name{event->name};
      if (name.find(".tmp.") != std::string::npos) continue;  // staging
      const fs::path path = directory_ / name;
      // Injected lost event: inotify queues can genuinely overflow
      // (IN_Q_OVERFLOW); the channel must survive a dropped delivery.
      // The full path lets a plan's path_filter target one directory.
      if (fault::check(fault::Site::kWatchEvent, path.native()).kind ==
          fault::Kind::kSuppressEvent) {
        continue;
      }
      events_fired_.fetch_add(1, std::memory_order_relaxed);
      if (on_change_) on_change_(path);
    }
  }
}

}  // namespace mcsd::fam
