// Microbenchmarks of smartFAM: protocol encode/decode throughput and the
// real end-to-end invocation latency through the log-file channel (the
// quantity the simulator's fam_invocation_seconds constant abstracts).
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "core/io.hpp"
#include "fam/client.hpp"
#include "fam/daemon.hpp"
#include "fam/protocol.hpp"

namespace {

using namespace mcsd;
using namespace std::chrono_literals;

fam::Record sample_record() {
  fam::Record r;
  r.type = fam::RecordType::kRequest;
  r.seq = 123;
  r.module = "wordcount";
  r.payload.set("input", "/shared/corpus.txt");
  r.payload.set_uint("partition_size", 600ULL << 20);
  r.payload.set("flags", "sorted,merged");
  return r;
}

void BM_ProtocolEncode(benchmark::State& state) {
  const fam::Record r = sample_record();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fam::encode_record(r));
  }
}
BENCHMARK(BM_ProtocolEncode);

void BM_ProtocolDecode(benchmark::State& state) {
  const std::string wire = fam::encode_record(sample_record());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fam::decode_record(wire));
  }
}
BENCHMARK(BM_ProtocolDecode);

void BM_FamRoundTrip(benchmark::State& state) {
  TempDir dir{"fambench"};
  fam::Daemon daemon{fam::DaemonOptions{dir.path(), 1}};
  (void)daemon.preload(std::make_shared<fam::FunctionModule>(
      "noop", [](const KeyValueMap& p) -> Result<KeyValueMap> { return p; }));
  daemon.start();
  fam::Client client{fam::ClientOptions{dir.path(), 1ms, 10'000ms}};
  KeyValueMap params;
  params.set("ping", "pong");
  for (auto _ : state) {
    auto result = client.invoke("noop", params);
    if (!result.is_ok()) state.SkipWithError("invoke failed");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FamRoundTrip)->Unit(benchmark::kMillisecond);

void BM_AtomicLogWrite(benchmark::State& state) {
  TempDir dir{"fambench"};
  const std::string wire = fam::encode_record(sample_record());
  const auto path = dir / "mod.log";
  for (auto _ : state) {
    benchmark::DoNotOptimize(write_file_atomic(path, wire));
  }
}
BENCHMARK(BM_AtomicLogWrite);

}  // namespace
