#include "core/io.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "core/fault.hpp"

namespace mcsd {

namespace fs = std::filesystem;

Result<std::string> read_file(const fs::path& path) {
  const fault::Decision injected =
      fault::check(fault::Site::kReadFile, path.native());
  if (injected.kind == fault::Kind::kEio) {
    return Error{ErrorCode::kIoError,
                 "injected EIO reading " + path.string()};
  }
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    return Error{ErrorCode::kNotFound, "cannot open " + path.string()};
  }
  std::string contents;
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size < 0) {
    return Error{ErrorCode::kIoError, "cannot stat " + path.string()};
  }
  contents.resize(static_cast<std::size_t>(size));
  in.seekg(0, std::ios::beg);
  in.read(contents.data(), size);
  if (!in) {
    return Error{ErrorCode::kIoError, "short read on " + path.string()};
  }
  if (injected.kind == fault::Kind::kTorn && !contents.empty()) {
    // Torn read: the caller silently sees a prefix, as if it raced a
    // non-atomic writer.  Record CRCs are what catch this downstream.
    contents.resize(static_cast<std::size_t>(injected.entropy %
                                             contents.size()));
  }
  return contents;
}

Result<std::string> read_file_from(const fs::path& path,
                                   std::uint64_t offset) {
  const fault::Decision injected =
      fault::check(fault::Site::kReadFile, path.native());
  if (injected.kind == fault::Kind::kEio) {
    return Error{ErrorCode::kIoError,
                 "injected EIO reading " + path.string()};
  }
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    return Error{ErrorCode::kNotFound, "cannot open " + path.string()};
  }
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  if (end < 0) {
    return Error{ErrorCode::kIoError, "cannot stat " + path.string()};
  }
  const auto size = static_cast<std::uint64_t>(end);
  if (offset >= size) return std::string{};
  std::string contents;
  contents.resize(static_cast<std::size_t>(size - offset));
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!in) {
    return Error{ErrorCode::kIoError, "short read on " + path.string()};
  }
  if (injected.kind == fault::Kind::kTorn && !contents.empty()) {
    contents.resize(static_cast<std::size_t>(injected.entropy %
                                             contents.size()));
  }
  return contents;
}

Status write_file(const fs::path& path, std::string_view contents) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) {
    return Status{ErrorCode::kIoError, "cannot open " + path.string()};
  }
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.flush();
  if (!out) {
    return Status{ErrorCode::kIoError, "short write on " + path.string()};
  }
  return Status::ok();
}

Status append_file(const fs::path& path, std::string_view contents) {
  const fault::Decision injected =
      fault::check(fault::Site::kWriteFile, path.native());
  switch (injected.kind) {
    case fault::Kind::kEio:
      return Status{ErrorCode::kIoError,
                    "injected EIO appending to " + path.string()};
    case fault::Kind::kEnospc:
      return Status{ErrorCode::kIoError,
                    "injected ENOSPC (no space left on device) appending to " +
                        path.string()};
    case fault::Kind::kDelayedRename:
      // No rename here, but the same knob models an append whose
      // visibility lags (NFS attribute-cache staleness).
      std::this_thread::sleep_for(fault::Injector::instance().rename_delay());
      break;
    default:
      break;
  }
  std::string_view effective = contents;
  if ((injected.kind == fault::Kind::kTorn ||
       injected.kind == fault::Kind::kShortWrite) &&
      !contents.empty()) {
    effective = contents.substr(
        0, static_cast<std::size_t>(injected.entropy % contents.size()));
  }
  std::ofstream out{path, std::ios::binary | std::ios::app};
  if (!out) {
    return Status{ErrorCode::kIoError, "cannot open " + path.string()};
  }
  out.write(effective.data(), static_cast<std::streamsize>(effective.size()));
  out.flush();
  if (!out) {
    return Status{ErrorCode::kIoError, "short write on " + path.string()};
  }
  if (injected.kind == fault::Kind::kShortWrite) {
    return Status{ErrorCode::kIoError,
                  "injected short append on " + path.string()};
  }
  return Status::ok();
}

Status write_file_atomic(const fs::path& path, std::string_view contents) {
  const fault::Decision injected =
      fault::check(fault::Site::kWriteFile, path.native());
  switch (injected.kind) {
    case fault::Kind::kEio:
      return Status{ErrorCode::kIoError,
                    "injected EIO writing " + path.string()};
    case fault::Kind::kEnospc:
      return Status{ErrorCode::kIoError,
                    "injected ENOSPC (no space left on device) writing " +
                        path.string()};
    default:
      break;
  }
  std::string_view effective = contents;
  if ((injected.kind == fault::Kind::kTorn ||
       injected.kind == fault::Kind::kShortWrite) &&
      !contents.empty()) {
    // The replacement lands, but holds only a prefix — the close-to-open
    // NFS failure mode a record CRC exists to catch.
    effective = contents.substr(
        0, static_cast<std::size_t>(injected.entropy % contents.size()));
  }

  static std::atomic<std::uint64_t> counter{0};
  const fs::path tmp =
      path.parent_path() /
      (path.filename().string() + ".tmp." +
       std::to_string(counter.fetch_add(1, std::memory_order_relaxed)));
  if (Status s = write_file(tmp, effective); !s) return s;
  if (injected.kind == fault::Kind::kDelayedRename) {
    std::this_thread::sleep_for(fault::Injector::instance().rename_delay());
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Status{ErrorCode::kIoError,
                  "rename to " + path.string() + " failed: " + ec.message()};
  }
  if (injected.kind == fault::Kind::kShortWrite) {
    // Unlike kTorn, the failure is *reported* — the caller knows the
    // destination may hold garbage and can rewrite.
    return Status{ErrorCode::kIoError,
                  "injected short write on " + path.string()};
  }
  return Status::ok();
}

Result<std::uint64_t> file_size(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) {
    return Error{ErrorCode::kNotFound,
                 "file_size(" + path.string() + "): " + ec.message()};
  }
  return static_cast<std::uint64_t>(size);
}

TempDir::TempDir(std::string_view tag) {
  static std::atomic<std::uint64_t> counter{0};
  const auto pid = static_cast<std::uint64_t>(::getpid());
  for (int attempt = 0; attempt < 100; ++attempt) {
    fs::path candidate =
        fs::temp_directory_path() /
        (std::string{tag} + "-" + std::to_string(pid) + "-" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed)));
    std::error_code ec;
    if (fs::create_directory(candidate, ec) && !ec) {
      path_ = std::move(candidate);
      return;
    }
  }
  throw std::runtime_error("TempDir: cannot create unique directory");
}

TempDir::~TempDir() {
  if (!path_.empty()) {
    std::error_code ec;
    fs::remove_all(path_, ec);  // best effort
  }
}

TempDir::TempDir(TempDir&& other) noexcept : path_(std::move(other.path_)) {
  other.path_.clear();
}

TempDir& TempDir::operator=(TempDir&& other) noexcept {
  if (this != &other) {
    if (!path_.empty()) {
      std::error_code ec;
      fs::remove_all(path_, ec);
    }
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

}  // namespace mcsd
