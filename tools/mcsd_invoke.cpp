// mcsd_invoke — one-shot host-side invocation of a McSD module.
//
//   mcsd_invoke --dir /srv/mcsd --module wordcount [--repeat N]
//               [then params:]
//               input=/srv/mcsd/corpus.txt partition_size=600M top=3
//
// Positional key=value arguments become the module parameters (values
// that parse as sizes like "600M" are expanded to bytes); the response
// map prints one `key=value` per line, so the tool composes with shell
// pipelines.
//
// --repeat N sends the identical request N times total: the first run is
// cold, the rest exercise the daemon's result cache / warm module state
// from the CLI without the soak harness.  Per-invoke latency and cache
// disposition go to stderr (`invoke 2/3: 0.8 ms cache=hit epoch=4`);
// stdout still carries only the last response's key=value lines.
//
// --concurrency N fans the same request out from N client threads (each
// sending --repeat times) over the sharded mailbox channel; stderr gets the
// per-client latency distribution (p50/p90/p99) plus the serving
// dispositions — how many responses were coalesced into shared module
// runs and how many typed backpressure rejections the clients absorbed.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cli.hpp"
#include "core/config.hpp"
#include "core/fault.hpp"
#include "core/stats.hpp"
#include "core/strings.hpp"
#include "core/units.hpp"
#include "fam/client.hpp"
#include "obs/reporter.hpp"

using namespace mcsd;

int main(int argc, char** argv) {
  // MCSD_FAULTS (inline spec or plan file) arms host-side fault
  // injection — for soaking the real two-process deployment.
  if (Status s = fault::install_from_env(); !s) {
    std::fprintf(stderr, "bad MCSD_FAULTS: %s\n", s.to_string().c_str());
    return 2;
  }
  CliParser cli;
  cli.add_option("dir", "", "shared log folder (required)");
  cli.add_option("module", "", "module to invoke (required)");
  cli.add_option("timeout-ms", "60000", "per-attempt response timeout");
  cli.add_option("attempts", "1", "total attempts");
  cli.add_option("repeat", "1",
                 "send the identical request N times (cache/warm-path "
                 "exercise); prints per-invoke latency to stderr");
  cli.add_option("concurrency", "1",
                 "fan the request out from N client threads (sharded "
                 "channel exercise); prints latency percentiles and "
                 "coalesce/backpressure dispositions to stderr");
  cli.add_option("trace-out", "",
                 "write obs trace JSON + metrics here on exit");
  if (Status s = cli.parse(argc, argv); !s) {
    std::fprintf(stderr, "%s\n", s.error().message().c_str());
    return s.error().code() == ErrorCode::kUnavailable ? 0 : 2;
  }
  const std::string dir = cli.option("dir");
  const std::string module = cli.option("module");
  if (dir.empty() || module.empty()) {
    std::fprintf(stderr, "--dir and --module are required\n%s",
                 cli.usage(argv[0]).c_str());
    return 2;
  }

  KeyValueMap params;
  for (const std::string& arg : cli.positional()) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "parameter must be key=value: %s\n", arg.c_str());
      return 2;
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    // Convenience: size-looking values ("600M") expand to bytes for the
    // parameters modules read numerically.
    if (const auto bytes = parse_bytes(value);
        bytes.is_ok() && value.find_first_of("KMGkmg") != std::string::npos) {
      params.set_uint(key, bytes.value());
    } else {
      params.set(key, value);
    }
  }

  fam::ClientOptions options;
  options.log_dir = dir;
  options.timeout = std::chrono::milliseconds{
      std::max<std::int64_t>(cli.option_int("timeout-ms").value_or(60000), 1)};
  options.max_attempts = static_cast<int>(
      std::max<std::int64_t>(cli.option_int("attempts").value_or(1), 1));
  fam::Client client{options};

  if (!client.module_available(module)) {
    std::fprintf(stderr, "module '%s' not preloaded in %s\n", module.c_str(),
                 dir.c_str());
    return 1;
  }
  const int repeat = static_cast<int>(
      std::max<std::int64_t>(cli.option_int("repeat").value_or(1), 1));
  const int concurrency = static_cast<int>(
      std::max<std::int64_t>(cli.option_int("concurrency").value_or(1), 1));

  if (concurrency > 1) {
    // Concurrent mode: N client threads send the identical request
    // --repeat times each.  One shared Client hands each thread its own
    // mailbox slot, so the requests genuinely run in parallel.
    std::mutex agg_mutex;
    std::vector<double> latencies_ms;
    std::uint64_t coalesced_responses = 0;
    std::uint64_t solo_responses = 0;
    std::uint64_t backpressure_retries = 0;
    std::uint64_t cache_hits = 0;
    std::atomic<int> failures{0};
    std::string last_response;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(concurrency));
    for (int t = 0; t < concurrency; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < repeat; ++i) {
          fam::InvokeInfo info;
          auto one = client.invoke(module, params, &info);
          if (!one.is_ok()) {
            std::fprintf(stderr, "invoke failed: %s\n",
                         one.error().to_string().c_str());
            failures.fetch_add(1);
            return;
          }
          std::lock_guard lock{agg_mutex};
          latencies_ms.push_back(info.round_trip_seconds * 1e3);
          if (info.waiters > 1) {
            ++coalesced_responses;
          } else {
            ++solo_responses;
          }
          backpressure_retries +=
              static_cast<std::uint64_t>(info.backpressure_retries);
          if (info.cache == fam::CacheState::kHit) ++cache_hits;
          last_response = one.value().serialize();
        }
      });
    }
    for (auto& thread : threads) thread.join();
    if (failures.load() != 0) return 1;

    const double p50 = percentile(latencies_ms, 0.50);
    const double p90 = percentile(latencies_ms, 0.90);
    const double p99 = percentile(latencies_ms, 0.99);
    std::fprintf(stderr,
                 "%zu invokes across %d clients: "
                 "p50=%.3f ms p90=%.3f ms p99=%.3f ms\n",
                 latencies_ms.size(), concurrency, p50, p90, p99);
    std::fprintf(stderr,
                 "dispositions: coalesced=%llu solo=%llu cache_hits=%llu "
                 "backpressure_retries=%llu\n",
                 static_cast<unsigned long long>(coalesced_responses),
                 static_cast<unsigned long long>(solo_responses),
                 static_cast<unsigned long long>(cache_hits),
                 static_cast<unsigned long long>(backpressure_retries));
    std::printf("%s", last_response.c_str());
    if (Status s = obs::dump_trace_if_requested(cli.option("trace-out"));
        !s) {
      std::fprintf(stderr, "cannot write trace: %s\n", s.to_string().c_str());
      return 1;
    }
    return 0;
  }

  Result<KeyValueMap> result = Error{ErrorCode::kInternal, "unreachable"};
  for (int i = 0; i < repeat; ++i) {
    fam::InvokeInfo info;
    result = client.invoke(module, params, &info);
    if (!result.is_ok()) {
      std::fprintf(stderr, "invoke %d/%d failed: %s\n", i + 1, repeat,
                   result.error().to_string().c_str());
      return 1;
    }
    if (repeat > 1) {
      const char* cache = info.cache == fam::CacheState::kHit    ? "hit"
                          : info.cache == fam::CacheState::kMiss ? "miss"
                                                                 : "none";
      std::fprintf(stderr, "invoke %d/%d: %.3f ms cache=%s", i + 1, repeat,
                   info.round_trip_seconds * 1e3, cache);
      if (info.cache_epoch != 0) {
        std::fprintf(stderr, " epoch=%llu",
                     static_cast<unsigned long long>(info.cache_epoch));
      }
      std::fprintf(stderr, "\n");
    }
  }
  for (const auto& [key, value] : result.value().entries()) {
    std::printf("%s=%s\n", key.c_str(), value.c_str());
  }
  if (Status s = obs::dump_trace_if_requested(cli.option("trace-out")); !s) {
    std::fprintf(stderr, "cannot write trace: %s\n", s.to_string().c_str());
    return 1;
  }
  return 0;
}
