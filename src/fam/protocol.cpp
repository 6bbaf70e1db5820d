#include "fam/protocol.hpp"

#include "core/hash.hpp"

namespace mcsd::fam {

namespace {
constexpr std::string_view kTypeKey = "mcsd.type";
constexpr std::string_view kSeqKey = "mcsd.seq";
constexpr std::string_view kModuleKey = "mcsd.module";
constexpr std::string_view kStatusKey = "mcsd.status";
constexpr std::string_view kErrorKey = "mcsd.error";
constexpr std::string_view kCacheKey = "mcsd.cache";
constexpr std::string_view kEpochKey = "mcsd.epoch";
constexpr std::string_view kClientKey = "mcsd.client";
constexpr std::string_view kTenantKey = "mcsd.tenant";
constexpr std::string_view kDeadlineKey = "mcsd.deadline";
constexpr std::string_view kRetryKey = "mcsd.retry";
constexpr std::string_view kWaitersKey = "mcsd.waiters";
constexpr std::string_view kCrcKey = "mcsd.crc";
constexpr std::string_view kManifestRevKey = "mcsd.rev";
constexpr std::string_view kManifestShardsKey = "mcsd.shards";

bool reserved_key(std::string_view key) {
  return key.size() >= 5 && key.substr(0, 5) == "mcsd.";
}
}  // namespace

bool valid_module_name(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string log_file_name(std::string_view module_name) {
  return std::string{module_name} + ".log";
}

std::string encode_record(const Record& record) {
  KeyValueMap map = record.payload;
  map.set(std::string{kTypeKey},
          record.type == RecordType::kRequest ? "request" : "response");
  map.set_uint(std::string{kSeqKey}, record.seq);
  map.set(std::string{kModuleKey}, record.module);
  if (record.client_id != 0) {
    map.set_uint(std::string{kClientKey}, record.client_id);
  }
  if (!record.tenant.empty()) {
    map.set(std::string{kTenantKey}, record.tenant);
  }
  if (record.deadline_ms != 0) {
    map.set_uint(std::string{kDeadlineKey}, record.deadline_ms);
  }
  if (record.type == RecordType::kResponse) {
    if (record.retry_after_ms != 0) {
      map.set_uint(std::string{kRetryKey}, record.retry_after_ms);
    }
    if (record.waiters != 0) {
      map.set_uint(std::string{kWaitersKey}, record.waiters);
    }
    map.set(std::string{kStatusKey}, record.ok ? "ok" : "error");
    if (!record.ok) {
      map.set(std::string{kErrorKey}, record.error_message);
    }
    if (record.cache != CacheState::kNone) {
      map.set(std::string{kCacheKey},
              record.cache == CacheState::kHit ? "hit" : "miss");
      if (record.cache_epoch != 0) {
        map.set_uint(std::string{kEpochKey}, record.cache_epoch);
      }
    }
  }
  // Checksum covers everything serialised so far; appended as the final
  // line (KeyValueMap sorts keys, but we frame the crc separately so the
  // covered byte range is unambiguous).
  std::string body = map.serialize();
  const std::uint64_t crc = fnv1a(body);
  body += kCrcKey;
  body += '=';
  body += std::to_string(crc);
  body += '\n';
  return body;
}

Result<Record> decode_record(std::string_view text) {
  // Split off the trailing crc line.
  if (text.empty()) {
    return Error{ErrorCode::kProtocolError, "empty record"};
  }
  std::string_view trimmed = text;
  if (trimmed.back() == '\n') trimmed.remove_suffix(1);
  const std::size_t last_line_start = trimmed.rfind('\n');
  const std::string_view crc_line =
      last_line_start == std::string_view::npos
          ? trimmed
          : trimmed.substr(last_line_start + 1);
  const std::string_view body =
      last_line_start == std::string_view::npos
          ? std::string_view{}
          : text.substr(0, last_line_start + 1);

  const std::string crc_prefix = std::string{kCrcKey} + "=";
  if (crc_line.substr(0, crc_prefix.size()) != crc_prefix) {
    return Error{ErrorCode::kProtocolError, "missing crc line"};
  }
  std::uint64_t stated_crc = 0;
  {
    KeyValueMap crc_map;
    auto parsed = KeyValueMap::parse(crc_line);
    if (!parsed) return parsed.error();
    auto crc_value = parsed.value().get_uint(kCrcKey);
    if (!crc_value) return crc_value.error();
    stated_crc = crc_value.value();
  }
  if (fnv1a(body) != stated_crc) {
    return Error{ErrorCode::kProtocolError, "crc mismatch (torn record?)"};
  }

  auto parsed = KeyValueMap::parse(body);
  if (!parsed) return parsed.error();
  KeyValueMap& map = parsed.value();

  Record record;
  const auto type = map.get(kTypeKey);
  if (!type) {
    return Error{ErrorCode::kProtocolError, "missing mcsd.type"};
  }
  if (*type == "request") {
    record.type = RecordType::kRequest;
  } else if (*type == "response") {
    record.type = RecordType::kResponse;
  } else {
    return Error{ErrorCode::kProtocolError, "bad mcsd.type: " + *type};
  }

  auto seq = map.get_uint(kSeqKey);
  if (!seq) return seq.error();
  record.seq = seq.value();

  const auto module = map.get(kModuleKey);
  if (!module || !valid_module_name(*module)) {
    return Error{ErrorCode::kProtocolError, "missing/bad mcsd.module"};
  }
  record.module = *module;

  if (map.get(kClientKey)) {
    auto client = map.get_uint(kClientKey);
    if (!client) return client.error();
    record.client_id = client.value();
  }
  record.tenant = map.get_or(kTenantKey, "");
  if (map.get(kDeadlineKey)) {
    auto deadline = map.get_uint(kDeadlineKey);
    if (!deadline) return deadline.error();
    record.deadline_ms = deadline.value();
  }

  if (record.type == RecordType::kResponse) {
    const auto status = map.get(kStatusKey);
    if (!status || (*status != "ok" && *status != "error")) {
      return Error{ErrorCode::kProtocolError, "missing/bad mcsd.status"};
    }
    record.ok = *status == "ok";
    if (!record.ok) {
      record.error_message = map.get_or(kErrorKey, "");
    }
    if (map.get(kRetryKey)) {
      auto retry = map.get_uint(kRetryKey);
      if (!retry) return retry.error();
      record.retry_after_ms = retry.value();
    }
    if (map.get(kWaitersKey)) {
      auto waiters = map.get_uint(kWaitersKey);
      if (!waiters) return waiters.error();
      record.waiters = waiters.value();
    }
    if (const auto cache = map.get(kCacheKey)) {
      if (*cache == "hit") {
        record.cache = CacheState::kHit;
      } else if (*cache == "miss") {
        record.cache = CacheState::kMiss;
      } else {
        return Error{ErrorCode::kProtocolError, "bad mcsd.cache: " + *cache};
      }
      if (map.get(kEpochKey)) {
        auto epoch = map.get_uint(kEpochKey);
        if (!epoch) return epoch.error();
        record.cache_epoch = epoch.value();
      }
    }
  }

  for (const auto& [key, value] : map.entries()) {
    if (!reserved_key(key)) {
      record.payload.set(key, value);
    }
  }
  return record;
}

std::string shard_file_name(std::size_t shard) {
  return "shard-" + std::to_string(shard) + ".log";
}

std::string reply_file_name(std::uint64_t client_id) {
  return "client-" + std::to_string(client_id) + ".log";
}

std::size_t shard_for_client(std::uint64_t client_id, std::size_t shards) {
  if (shards <= 1) return 0;
  // Fibonacci-style multiplicative mix: sequentially allocated ids must
  // still spread across shards (`id % shards` would pin every client of
  // a striding allocator onto a handful of mailboxes).
  const std::uint64_t mixed = client_id * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>((mixed >> 32) % shards);
}

std::string encode_manifest(const ChannelManifest& manifest) {
  KeyValueMap map;
  map.set_uint(std::string{kManifestRevKey}, manifest.rev);
  map.set_uint(std::string{kManifestShardsKey},
               static_cast<std::uint64_t>(manifest.shards));
  return map.serialize();
}

Result<ChannelManifest> decode_manifest(std::string_view text) {
  auto parsed = KeyValueMap::parse(text);
  if (!parsed) return parsed.error();
  auto rev = parsed.value().get_uint(kManifestRevKey);
  if (!rev) {
    return Error{ErrorCode::kProtocolError, "manifest missing mcsd.rev"};
  }
  auto shards = parsed.value().get_uint(kManifestShardsKey);
  if (!shards) {
    return Error{ErrorCode::kProtocolError, "manifest missing mcsd.shards"};
  }
  if (shards.value() == 0) {
    return Error{ErrorCode::kProtocolError, "manifest advertises 0 shards"};
  }
  ChannelManifest manifest;
  manifest.rev = rev.value();
  manifest.shards = static_cast<std::size_t>(shards.value());
  return manifest;
}

FrameStream decode_frame_stream(std::string_view text) {
  FrameStream stream;
  const std::string crc_prefix = std::string{kCrcKey} + "=";
  std::size_t frame_start = 0;
  std::size_t cursor = 0;
  while (cursor < text.size()) {
    const std::size_t line_end = text.find('\n', cursor);
    if (line_end == std::string_view::npos) break;  // incomplete tail line
    const std::string_view line =
        text.substr(cursor, line_end - cursor);
    cursor = line_end + 1;
    if (line.substr(0, crc_prefix.size()) != crc_prefix) continue;
    // A complete frame: [frame_start, cursor).  Decode; a crc mismatch
    // (torn or interleaved append) drops the frame but still consumes
    // it — the stream resynchronises at the next frame boundary.
    const std::string_view frame =
        text.substr(frame_start, cursor - frame_start);
    if (auto record = decode_record(frame)) {
      stream.records.push_back(std::move(record).value());
    } else {
      ++stream.corrupt;
    }
    frame_start = cursor;
  }
  stream.consumed = frame_start;
  return stream;
}

}  // namespace mcsd::fam
