// Filesystem helpers: whole-file read/write, atomic replace, scoped temp
// directories.
//
// The FAM log-file channel depends on these helpers: `append_file` adds
// a CRC-framed record to a mailbox or reply log (a torn append fails its
// crc and is skipped), `read_file_from` reads only what a log grew by,
// `write_file_atomic` replaces small files such as the channel manifest
// all at once (sibling temp file, fsync-less rename), and `TempDir` gives
// each test / example an isolated stand-in for the NFS-shared log folder.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "core/result.hpp"

namespace mcsd {

/// Reads an entire file into a string.
Result<std::string> read_file(const std::filesystem::path& path);

/// Reads everything from byte `offset` to end-of-file — the tail of an
/// append-only log since the last scan.  An offset at (or past) the
/// current size yields an empty string.  Shares read_file's fault site,
/// so an injected torn read hands back a prefix of the tail.
Result<std::string> read_file_from(const std::filesystem::path& path,
                                   std::uint64_t offset);

/// Writes `contents` to `path`, truncating.  Not atomic.
Status write_file(const std::filesystem::path& path, std::string_view contents);

/// Appends `contents` to `path`, creating it if needed.  Fault-
/// instrumented at the same site as write_file_atomic (Site::kWriteFile):
/// injected EIO/ENOSPC fail before touching the file, a torn append
/// silently lands a prefix (corrupting the tail frame of an append-only
/// mailbox — exactly the failure a frame crc exists to catch), a short
/// append lands a prefix *and* reports the error, and a delayed append
/// sleeps before becoming visible.
Status append_file(const std::filesystem::path& path, std::string_view contents);

/// Atomically replaces `path` with `contents` (temp file + rename within
/// the same directory).  Readers see either the old or the new contents,
/// never a prefix.
///
/// Contract: the staging file is named `<filename>.tmp.<n>` — directory
/// watchers (fam::InotifyWatcher) rely on the ".tmp." infix to ignore
/// in-flight updates.
Status write_file_atomic(const std::filesystem::path& path,
                         std::string_view contents);

/// File size in bytes, or kNotFound.
Result<std::uint64_t> file_size(const std::filesystem::path& path);

/// A uniquely named directory under the system temp dir, removed
/// recursively on destruction.
class TempDir {
 public:
  /// `tag` appears in the directory name for debuggability.
  explicit TempDir(std::string_view tag = "mcsd");
  ~TempDir();

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  TempDir(TempDir&& other) noexcept;
  TempDir& operator=(TempDir&& other) noexcept;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  [[nodiscard]] std::filesystem::path operator/(std::string_view name) const {
    return path_ / name;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace mcsd
