// mcsd_perfbench: the McSD end-to-end benchmark binary.
//
//   mcsd_perfbench --workload serve_zipf|scan_warm|scan_ooc --seed N
//                  --seconds S --trace 0|1 [--quick]
//
// Prints a host fingerprint, a human-readable report and, as the last
// line of stdout, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer
// metrics, the layer table and the span file
// .bench_build/traces/<workload>.json.  Inputs and channels live under
// .bench_build/work/ while the run lasts.  Paths are relative to the
// working directory.  Exits non-zero when any reply was lost, wrong or
// duplicated.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "core/cli.hpp"
#include "host.hpp"
#include "workloads.hpp"

using namespace mcsd;
using namespace mcsd::perfbench;

namespace {

std::string result_json(const RunReport& report) {
  std::string out = "{\"correct\": ";
  out += report.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += i == 0 ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  cli.add_option("workload", "", "serve_zipf | scan_warm | scan_ooc");
  cli.add_option("seed", "1", "workload seed: same seed, same inputs");
  cli.add_option("seconds", "10", "measurement window in seconds");
  cli.add_option("trace", "0", "1: per-layer metrics from a traced run");
  cli.add_flag("quick", "tiny inputs, for the benchmark's own tests");
  if (Status s = cli.parse(argc, argv); !s) {
    std::fprintf(stderr, "%s\n", s.error().message().c_str());
    return 2;
  }
  RunConfig config;
  config.workload = cli.option("workload");
  const auto seed = cli.option_int("seed");
  const auto seconds = cli.option_int("seconds");
  const auto trace = cli.option_int("trace");
  bool known = false;
  for (const auto& name : workload_names()) {
    known = known || name == config.workload;
  }
  if (!known || !seed || !seconds || seconds.value() < 1 || !trace ||
      (trace.value() != 0 && trace.value() != 1)) {
    std::fprintf(stderr, "%s", cli.usage("mcsd_perfbench").c_str());
    return 2;
  }
  config.seed = static_cast<std::uint64_t>(seed.value());
  config.seconds = static_cast<double>(seconds.value());
  config.trace = trace.value() == 1;
  config.quick = cli.flag("quick");
  config.work_dir = ".bench_build/work/" + config.workload + "-" +
                    std::to_string(::getpid());
  config.trace_out = ".bench_build/traces/" + config.workload + ".json";

  const HostFingerprint host = host_fingerprint();
  std::printf("host: nproc %u, build %s, obs %s\n", host.nproc,
              host.build_type.c_str(),
              host.obs_compiled ? "compiled in" : "compiled out");
  std::fflush(stdout);

  RunReport report;
  try {
    report = run_workload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcsd_perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& line : report.notes) std::printf("%s\n", line.c_str());
  std::printf("%s\n", result_json(report).c_str());
  return report.failed() == 0 ? 0 : 1;
}
