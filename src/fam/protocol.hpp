// smartFAM wire protocol.
//
// Paper Section IV-A: "The log file of each data-intensive module is an
// efficient channel for the host node to communicate with the smart-
// storage node. ... the host writes the input parameters to the log file
// that is monitored and read by the data-intensive module", and results
// travel back through the same shared folder.
//
// A record is the key=value format of core/config.hpp with reserved
// `mcsd.` keys:
//
//   mcsd.type     = request | response
//   mcsd.seq      = monotonically increasing per client
//   mcsd.module   = module name
//   mcsd.client   = 64-bit client id        (picks shard + reply file)
//   mcsd.tenant   = tenant label            (requests; QoS accounting)
//   mcsd.deadline = request's latency budget in ms (0/absent = none)
//   mcsd.status   = ok | error              (responses only)
//   mcsd.error    = message                 (error responses only)
//   mcsd.retry    = retry-after hint in ms  (backpressure rejections only)
//   mcsd.waiters  = coalesced fan-out size  (responses; 1 = solo run)
//   mcsd.cache    = hit | miss              (responses via the result cache)
//   mcsd.epoch    = cache insertion epoch   (responses with mcsd.cache)
//   mcsd.crc      = FNV-1a of the payload   (integrity across NFS)
//   <everything else>                       = user parameters / results
//
// Records travel as *frames* in append-only logs: requests are appended
// to one of K shard mailboxes (`shards/shard-<k>.log`), responses to the
// requesting client's reply file (`replies/client-<id>.log`).  The
// trailing `mcsd.crc=` line doubles as the frame delimiter, so a reader
// decodes forward from a byte cursor and a torn append fails its crc.
// The daemon advertises the channel (and its shard count) through a
// `channel.mcsd` manifest in the log dir; each preloaded module's
// `<module>.log` in the log dir is a header-only marker of what is
// loaded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/result.hpp"

namespace mcsd::fam {

enum class RecordType : std::uint8_t { kRequest, kResponse };

/// How the daemon's result cache participated in a response.  kNone means
/// the invocation was not cacheable (or the daemon predates the cache);
/// kHit means the payload was served verbatim from the cache without
/// dispatching the module; kMiss means the module ran and the result was
/// (re)admitted.
enum class CacheState : std::uint8_t { kNone, kHit, kMiss };

/// One decoded log-file record.
struct Record {
  RecordType type = RecordType::kRequest;
  std::uint64_t seq = 0;
  std::string module;
  bool ok = true;              ///< responses: module succeeded
  std::string error_message;   ///< responses with ok == false
  /// Responses only: result-cache participation (see CacheState).
  CacheState cache = CacheState::kNone;
  /// Responses with cache != kNone: the cache entry's insertion epoch
  /// (0 = absent).  Two hits with equal epochs were served from the same
  /// cached computation; an epoch increase across an identical request
  /// means the entry was invalidated and recomputed in between.
  std::uint64_t cache_epoch = 0;
  /// The sending client's id; never 0 on the wire (the drainer drops
  /// such frames).  Chooses the request shard and names the reply file.
  std::uint64_t client_id = 0;
  /// Requests: tenant label for QoS accounting ("" = default).
  std::string tenant;
  /// Requests: latency budget in ms; the daemon sheds requests
  /// that sat in the admission queue past it (0 = no deadline).
  std::uint64_t deadline_ms = 0;
  /// Responses: non-zero marks a backpressure rejection — the
  /// admission queue was full and the client should back off roughly
  /// this many ms (with jitter) before re-sending.
  std::uint64_t retry_after_ms = 0;
  /// Responses: how many coalesced requests this module run fanned out
  /// to (1 = solo, 0 = absent).
  std::uint64_t waiters = 0;
  KeyValueMap payload;         ///< user parameters or results
};

/// Serialises a record, computing the integrity checksum.
std::string encode_record(const Record& record);

/// Parses and validates a record (structure + checksum).
Result<Record> decode_record(std::string_view text);

/// The log-file name a module owns inside the shared log folder (the
/// header-only marker Daemon::preload creates).
std::string log_file_name(std::string_view module_name);

/// Module names appear in file names: [a-zA-Z0-9_-]+, non-empty.
bool valid_module_name(std::string_view name);

// --- Sharded mailbox channel ------------------------------------------

/// Subdirectory of the log dir holding the K request mailboxes.  Its own
/// directory so the daemon's inotify watch sees only mailbox appends.
inline constexpr std::string_view kShardDirName = "shards";
/// Subdirectory holding the per-client append-only reply files.
inline constexpr std::string_view kReplyDirName = "replies";
/// Channel manifest file the daemon writes into the log dir so clients
/// can discover the sharded channel (and its shard count).
inline constexpr std::string_view kManifestFileName = "channel.mcsd";
/// Manifest revision this build speaks.
inline constexpr std::uint64_t kChannelRev = 2;

/// `shard-<k>.log`, relative to the shards directory.
std::string shard_file_name(std::size_t shard);
/// `client-<id>.log`, relative to the replies directory.
std::string reply_file_name(std::uint64_t client_id);
/// Which mailbox a client appends to: a mixed hash of the client id so
/// ids cluster uniformly regardless of how they were allocated.
std::size_t shard_for_client(std::uint64_t client_id, std::size_t shards);

/// The daemon's channel advertisement.
struct ChannelManifest {
  std::uint64_t rev = kChannelRev;
  std::size_t shards = 0;
};

/// Serialises / parses the manifest (plain key=value; the file is tiny
/// and replaced atomically, so it needs no frame crc).
std::string encode_manifest(const ChannelManifest& manifest);
Result<ChannelManifest> decode_manifest(std::string_view text);

/// Result of scanning an append-only mailbox tail for complete frames.
struct FrameStream {
  std::vector<Record> records;  ///< frames that decoded and passed crc
  /// Bytes consumed from the front of the input: everything up to and
  /// including the last *complete* frame (valid or corrupt).  The caller
  /// advances its mailbox offset by this much; an incomplete tail frame
  /// (an append still in flight) stays unconsumed for the next pass.
  std::size_t consumed = 0;
  /// Complete frames dropped for failing crc / decode — torn appends or
  /// interleaved writers.  Their senders recover by timeout + re-send.
  std::size_t corrupt = 0;
};

/// Splits `text` into crc-delimited frames and decodes each.  A frame
/// ends at a line starting with `mcsd.crc=`; bytes after the last such
/// line are an in-flight append and are left unconsumed.
FrameStream decode_frame_stream(std::string_view text);

}  // namespace mcsd::fam
