#include "fam/protocol.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <string_view>

#include "core/hash.hpp"

namespace mcsd::fam {
namespace {

Record sample_request() {
  Record r;
  r.type = RecordType::kRequest;
  r.seq = 42;
  r.module = "wordcount";
  r.payload.set("input", "/data/corpus.txt");
  r.payload.set_uint("partition_size", 600ULL << 20);
  return r;
}

TEST(ValidModuleName, AcceptsAndRejects) {
  EXPECT_TRUE(valid_module_name("wordcount"));
  EXPECT_TRUE(valid_module_name("string-match_2"));
  EXPECT_FALSE(valid_module_name(""));
  EXPECT_FALSE(valid_module_name("bad name"));
  EXPECT_FALSE(valid_module_name("../escape"));
  EXPECT_FALSE(valid_module_name("dot.log"));
}

TEST(LogFileName, AppendsSuffix) {
  EXPECT_EQ(log_file_name("wordcount"), "wordcount.log");
}

TEST(Protocol, RequestRoundTrip) {
  const Record original = sample_request();
  const auto decoded = decode_record(encode_record(original)).value();
  EXPECT_EQ(decoded.type, RecordType::kRequest);
  EXPECT_EQ(decoded.seq, 42u);
  EXPECT_EQ(decoded.module, "wordcount");
  EXPECT_EQ(decoded.payload.get("input"), "/data/corpus.txt");
  EXPECT_EQ(decoded.payload.get_uint("partition_size").value(), 600ULL << 20);
}

TEST(Protocol, ResponseRoundTripOk) {
  Record r;
  r.type = RecordType::kResponse;
  r.seq = 7;
  r.module = "matmul";
  r.ok = true;
  r.payload.set_double("checksum", 3.25);
  const auto decoded = decode_record(encode_record(r)).value();
  EXPECT_EQ(decoded.type, RecordType::kResponse);
  EXPECT_TRUE(decoded.ok);
  EXPECT_DOUBLE_EQ(decoded.payload.get_double("checksum").value(), 3.25);
}

TEST(Protocol, ResponseRoundTripError) {
  Record r;
  r.type = RecordType::kResponse;
  r.seq = 8;
  r.module = "matmul";
  r.ok = false;
  r.error_message = "dimension mismatch";
  const auto decoded = decode_record(encode_record(r)).value();
  EXPECT_FALSE(decoded.ok);
  EXPECT_EQ(decoded.error_message, "dimension mismatch");
}

TEST(Protocol, CacheDispositionRoundTrips) {
  Record r;
  r.type = RecordType::kResponse;
  r.seq = 9;
  r.module = "wordcount";
  r.ok = true;
  r.cache = CacheState::kHit;
  r.cache_epoch = 17;
  const std::string wire = encode_record(r);
  EXPECT_NE(wire.find("mcsd.cache=hit"), std::string::npos);
  EXPECT_NE(wire.find("mcsd.epoch=17"), std::string::npos);
  const auto decoded = decode_record(wire).value();
  EXPECT_EQ(decoded.cache, CacheState::kHit);
  EXPECT_EQ(decoded.cache_epoch, 17u);

  r.cache = CacheState::kMiss;
  const auto miss = decode_record(encode_record(r)).value();
  EXPECT_EQ(miss.cache, CacheState::kMiss);
  EXPECT_EQ(miss.cache_epoch, 17u);
}

TEST(Protocol, CacheFieldsAbsentByDefault) {
  // A response that never consulted the cache (module not cacheable, or
  // cache disabled) must not grow new wire keys — old clients see the
  // exact pre-cache format.
  Record r;
  r.type = RecordType::kResponse;
  r.seq = 10;
  r.module = "echo";
  r.ok = true;
  const std::string wire = encode_record(r);
  EXPECT_EQ(wire.find("mcsd.cache"), std::string::npos);
  EXPECT_EQ(wire.find("mcsd.epoch"), std::string::npos);
  const auto decoded = decode_record(wire).value();
  EXPECT_EQ(decoded.cache, CacheState::kNone);
  EXPECT_EQ(decoded.cache_epoch, 0u);
}

TEST(Protocol, BadCacheValueRejected) {
  // A record whose mcsd.cache carries anything but hit/miss is a
  // protocol error, not a silent kNone — catching daemon/client version
  // skew loudly.  (Smuggling the bad value through the payload keeps the
  // crc trailer valid, so decode reaches the cache-field parse.)
  Record r;
  r.type = RecordType::kResponse;
  r.seq = 11;
  r.module = "echo";
  r.ok = true;
  r.payload.set("mcsd.cache", "hot");
  const auto decoded = decode_record(encode_record(r));
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kProtocolError);
  EXPECT_NE(decoded.error().message().find("bad mcsd.cache"),
            std::string::npos);
}

TEST(Protocol, PayloadWithReservedLookingValuesSurvives) {
  Record r = sample_request();
  r.payload.set("tricky", "mcsd.type=response\nmcsd.seq=999");
  const auto decoded = decode_record(encode_record(r)).value();
  EXPECT_EQ(decoded.seq, 42u);  // reserved keys not spoofable via values
  EXPECT_EQ(decoded.payload.get("tricky"), "mcsd.type=response\nmcsd.seq=999");
}

TEST(Protocol, ReservedKeysStrippedFromPayload) {
  const auto decoded = decode_record(encode_record(sample_request())).value();
  EXPECT_FALSE(decoded.payload.contains("mcsd.type"));
  EXPECT_FALSE(decoded.payload.contains("mcsd.seq"));
}

TEST(Protocol, CrcDetectsCorruption) {
  std::string wire = encode_record(sample_request());
  // Flip a byte in the body (not the crc line).
  wire[wire.find("wordcount")] = 'X';
  const auto decoded = decode_record(wire);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kProtocolError);
}

TEST(Protocol, MissingCrcRejected) {
  EXPECT_FALSE(decode_record("mcsd.type=request\nmcsd.seq=1\n").is_ok());
}

TEST(Protocol, EmptyAndGarbageRejected) {
  EXPECT_FALSE(decode_record("").is_ok());
  EXPECT_FALSE(decode_record("complete garbage").is_ok());
  EXPECT_FALSE(decode_record("# just a comment\n").is_ok());
}

TEST(Protocol, MissingTypeRejected) {
  KeyValueMap map;
  map.set("mcsd.seq", "1");
  map.set("mcsd.module", "m");
  std::string body = map.serialize();
  // Manually frame with a valid crc.
  const std::string wire =
      body + "mcsd.crc=" + std::to_string(fnv1a(body)) + "\n";
  const auto decoded = decode_record(wire);
  ASSERT_FALSE(decoded.is_ok());
}

TEST(Protocol, BadSeqRejected) {
  Record r = sample_request();
  std::string wire = encode_record(r);
  // Corrupting seq also breaks the crc; craft a fresh record instead.
  KeyValueMap map;
  map.set("mcsd.type", "request");
  map.set("mcsd.seq", "notanumber");
  map.set("mcsd.module", "m");
  const std::string body = map.serialize();
  const auto decoded = decode_record(
      body + "mcsd.crc=" + std::to_string(fnv1a(body)) + "\n");
  EXPECT_FALSE(decoded.is_ok());
}

TEST(Protocol, EncodeIsDeterministic) {
  EXPECT_EQ(encode_record(sample_request()), encode_record(sample_request()));
}

// --- Rev 2: sharded mailbox channel -----------------------------------

TEST(ProtocolRev2, ServingFieldsRoundTrip) {
  Record r = sample_request();
  r.client_id = 0xDEADBEEF12345678ULL;
  r.tenant = "acme";
  r.deadline_ms = 2500;
  const auto request = decode_record(encode_record(r)).value();
  EXPECT_EQ(request.client_id, 0xDEADBEEF12345678ULL);
  EXPECT_EQ(request.tenant, "acme");
  EXPECT_EQ(request.deadline_ms, 2500u);

  Record resp;
  resp.type = RecordType::kResponse;
  resp.seq = 9;
  resp.module = "m";
  resp.ok = false;
  resp.client_id = 77;
  resp.retry_after_ms = 12;
  resp.waiters = 3;
  resp.error_message = "admission queue full";
  const auto response = decode_record(encode_record(resp)).value();
  EXPECT_EQ(response.client_id, 77u);
  EXPECT_EQ(response.retry_after_ms, 12u);
  EXPECT_EQ(response.waiters, 3u);
}

TEST(ProtocolRev2, LegacyRecordsStayRevOne) {
  // A record without serving fields encodes without their keys, and the
  // absent keys decode as zero / empty.
  const std::string wire = encode_record(sample_request());
  EXPECT_EQ(wire.find("mcsd.client"), std::string::npos);
  EXPECT_EQ(wire.find("mcsd.tenant"), std::string::npos);
  EXPECT_EQ(wire.find("mcsd.deadline"), std::string::npos);
  const auto decoded = decode_record(wire).value();
  EXPECT_EQ(decoded.client_id, 0u);
  EXPECT_EQ(decoded.deadline_ms, 0u);
}

TEST(ProtocolRev2, ShardAndReplyFileNames) {
  EXPECT_EQ(shard_file_name(0), "shard-0.log");
  EXPECT_EQ(shard_file_name(13), "shard-13.log");
  EXPECT_EQ(reply_file_name(42), "client-42.log");
}

TEST(ProtocolRev2, ShardHashCoversAllShardsUniformly) {
  constexpr std::size_t kShards = 8;
  std::array<std::size_t, kShards> hits{};
  for (std::uint64_t id = 1; id <= 4096; ++id) {
    const std::size_t shard = shard_for_client(id, kShards);
    ASSERT_LT(shard, kShards);
    ++hits[shard];
  }
  // Sequential ids must spread, not cluster: every shard sees a
  // meaningful share (perfect would be 512 each).
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    EXPECT_GT(hits[shard], 256u) << "shard " << shard;
  }
  // Degenerate shard counts collapse to 0 instead of dividing by zero.
  EXPECT_EQ(shard_for_client(123, 0), 0u);
  EXPECT_EQ(shard_for_client(123, 1), 0u);
}

TEST(ProtocolRev2, ManifestRoundTrip) {
  ChannelManifest manifest;
  manifest.shards = 16;
  const auto decoded = decode_manifest(encode_manifest(manifest));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().rev, kChannelRev);
  EXPECT_EQ(decoded.value().shards, 16u);
  EXPECT_FALSE(decode_manifest("").is_ok());
  EXPECT_FALSE(decode_manifest("not a manifest").is_ok());
}

TEST(FrameStream, DecodesMultipleFrames) {
  Record a = sample_request();
  a.client_id = 1;
  Record b = sample_request();
  b.client_id = 2;
  b.seq = 43;
  const auto stream = decode_frame_stream(encode_record(a) + encode_record(b));
  ASSERT_EQ(stream.records.size(), 2u);
  EXPECT_EQ(stream.records[0].client_id, 1u);
  EXPECT_EQ(stream.records[1].client_id, 2u);
  EXPECT_EQ(stream.consumed,
            encode_record(a).size() + encode_record(b).size());
  EXPECT_EQ(stream.corrupt, 0u);
}

TEST(FrameStream, CorruptMiddleFrameResyncs) {
  Record a = sample_request();
  a.client_id = 1;
  Record c = sample_request();
  c.client_id = 3;
  std::string bad = encode_record(sample_request());
  bad[bad.find("wordcount")] = 'X';  // body no longer matches the crc
  const auto stream =
      decode_frame_stream(encode_record(a) + bad + encode_record(c));
  ASSERT_EQ(stream.records.size(), 2u);
  EXPECT_EQ(stream.records[0].client_id, 1u);
  EXPECT_EQ(stream.records[1].client_id, 3u);
  EXPECT_EQ(stream.corrupt, 1u);
}

TEST(FrameStream, IncompleteTailLeftUnconsumed) {
  const std::string whole = encode_record(sample_request());
  const std::string half = whole.substr(0, whole.size() / 2);
  const auto stream = decode_frame_stream(whole + half);
  ASSERT_EQ(stream.records.size(), 1u);
  EXPECT_EQ(stream.consumed, whole.size());  // tail awaits its crc line
  EXPECT_EQ(stream.corrupt, 0u);
  // The writer finishes the append; re-scanning from `consumed` now
  // yields the second frame — the drain cursor protocol.
  const auto rest =
      decode_frame_stream(std::string_view{whole + half + whole.substr(half.size())}
                              .substr(stream.consumed));
  ASSERT_EQ(rest.records.size(), 1u);
}

TEST(FrameStream, EmptyInputYieldsNothing) {
  const auto stream = decode_frame_stream("");
  EXPECT_TRUE(stream.records.empty());
  EXPECT_EQ(stream.consumed, 0u);
  EXPECT_EQ(stream.corrupt, 0u);
}

}  // namespace
}  // namespace mcsd::fam
