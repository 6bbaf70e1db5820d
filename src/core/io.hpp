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
#include <fstream>
#include <functional>
#include <memory>
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

/// Positioned-read abstraction: lets ChunkedFileReader pull its refills
/// from something other than an ifstream — in particular from the
/// storage buffer pool (storage::PooledFileSource), so fragment streaming
/// is served from pinned frames that survive across runs.
class RandomAccessSource {
 public:
  virtual ~RandomAccessSource() = default;

  /// Reads up to `len` bytes at absolute `offset` into `dst`.  Returns
  /// the byte count actually read; a short count means end-of-file (a
  /// mid-file short read must be reported as an error instead).
  virtual Result<std::size_t> read_at(std::uint64_t offset, char* dst,
                                      std::size_t len) = 0;

  /// Human-readable identity for error messages.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Streams a file as a sequence of record-aligned fragments without ever
/// holding more than one fragment (plus the bytes carried past its cut)
/// in memory — the I/O half of the out-of-core pipeline.
///
/// Each `next_fragment` call returns ~`target_bytes` of input whose end
/// is aligned exactly like `part::integrity_check` aligns an in-memory
/// draft cut (Fig. 7): the fragment ends after the record spanning the
/// target boundary *and* its trailing delimiter run, so the next fragment
/// starts on a record byte.  Streaming the same file therefore yields
/// byte-identical fragments to `part::partition` over the whole input.
class ChunkedFileReader {
 public:
  /// OS read granularity; fragments are assembled from reads of this size.
  static constexpr std::size_t kDefaultBufferBytes = 256 * 1024;

  /// Attempts per buffer refill.  A transient read failure (an NFS
  /// hiccup, or an injected fault from core/fault) is retried against
  /// the last good offset before the error propagates, so a pipelined
  /// out-of-core run survives sporadic EIO with byte-identical output.
  static constexpr int kReadAttempts = 4;

  /// Opens `path` for streaming; kNotFound when it cannot be opened.
  static Result<ChunkedFileReader> open(
      const std::filesystem::path& path,
      std::size_t buffer_bytes = kDefaultBufferBytes);

  /// Streams from `source` instead of an owned ifstream.  `name` stands
  /// in for the path in error messages and fault-injection filtering
  /// (Site::kRefill consumes steps identically in both modes).
  static Result<ChunkedFileReader> open_with_source(
      std::shared_ptr<RandomAccessSource> source, std::string name,
      std::size_t buffer_bytes = kDefaultBufferBytes);

  ChunkedFileReader(ChunkedFileReader&&) = default;
  ChunkedFileReader& operator=(ChunkedFileReader&&) = default;

  /// Reads the next fragment into `out` (replacing its contents).
  /// `target_bytes` is the draft fragment size; 0 means "the whole
  /// remaining file as one fragment".  Returns true when a non-empty
  /// fragment was produced, false on clean end-of-file, or an IO error.
  Result<bool> next_fragment(std::uint64_t target_bytes,
                             const std::function<bool(char)>& is_delimiter,
                             std::string& out);

  /// Byte offset in the file where the *next* fragment starts (equals the
  /// total bytes handed out so far; carried-over bytes count as unread).
  [[nodiscard]] std::uint64_t next_fragment_offset() const noexcept {
    return next_offset_;
  }

  /// True once the underlying file is fully consumed (the carry buffer
  /// may still hold the tail of the final fragment).
  [[nodiscard]] bool exhausted() const noexcept {
    return eof_ && carry_.empty();
  }

  /// Bytes read past the previous fragment's cut and held for the next
  /// one — the only fragment text resident inside the reader itself.
  [[nodiscard]] std::uint64_t carry_bytes() const noexcept {
    return carry_.size();
  }

 private:
  ChunkedFileReader(std::ifstream in, std::string path,
                    std::size_t buffer_bytes)
      : in_(std::move(in)), path_(std::move(path)),
        buffer_bytes_(buffer_bytes == 0 ? kDefaultBufferBytes : buffer_bytes) {
  }
  ChunkedFileReader(std::shared_ptr<RandomAccessSource> source,
                    std::string name, std::size_t buffer_bytes)
      : path_(std::move(name)),
        buffer_bytes_(buffer_bytes == 0 ? kDefaultBufferBytes : buffer_bytes),
        source_(std::move(source)) {}

  /// Appends up to one buffer of file data to `out`; sets eof_.  Retries
  /// transient failures (kReadAttempts total) from the last good offset.
  Status fill(std::string& out);
  /// One read attempt; the fault-injection site for Site::kRefill.
  Status fill_once(std::string& out);

  std::ifstream in_;
  std::string path_;
  std::size_t buffer_bytes_;
  std::shared_ptr<RandomAccessSource> source_;  ///< non-null in source mode
  std::string carry_;  ///< bytes read past the previous fragment's cut
  std::uint64_t next_offset_ = 0;
  std::uint64_t file_pos_ = 0;  ///< bytes successfully read off the file
  bool eof_ = false;
};

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
