// mcsd_daemon — run a McSD storage-node daemon on a shared folder.
//
// The deployable counterpart of the in-process demos: start this on the
// storage node against the exported folder, point `mcsd_invoke` (or any
// fam::Client) at the same folder from the host, and the paper's Fig. 5
// message flow runs across real processes/machines.
//
//   mcsd_daemon --dir /srv/mcsd --workers 2 [--verbose]
//               [--shards 8] [--queue-limit 256]
//               [--config daemon.conf] [--trace-out trace.json]
//
// `--config` reads a core/config key=value file (log_dir,
// dispatch_threads, pool_bytes, channel_shards, ...; see
// fam::daemon_options_from_config); explicit flags override it.  `--pool-bytes` sizes the daemon's storage-tier
// buffer pool (units ok, e.g. 128MiB) — corpus pages cached there
// serve repeat invocations warm.  `--trace-out` writes the obs trace +
// metrics on shutdown.  Runs until stdin closes or SIGINT.
#include <csignal>
#include <cstdio>
#include <string>

#include "apps/modules.hpp"
#include "core/cli.hpp"
#include "core/fault.hpp"
#include "core/io.hpp"
#include "core/log.hpp"
#include "core/units.hpp"
#include "fam/daemon.hpp"
#include "obs/reporter.hpp"

using namespace mcsd;

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  // MCSD_FAULTS (inline spec or plan file) arms storage-side fault
  // injection — for soaking the real two-process deployment.
  if (Status s = fault::install_from_env(); !s) {
    std::fprintf(stderr, "bad MCSD_FAULTS: %s\n", s.to_string().c_str());
    return 2;
  }
  CliParser cli;
  cli.add_option("dir", "", "shared log folder to serve");
  cli.add_option("config", "",
                 "core/config file seeding the daemon options");
  cli.add_option("workers", "", "dispatch threads (default 2)");
  cli.add_option("pool-bytes", "",
                 "storage buffer pool capacity (units ok, e.g. 128MiB)");
  cli.add_option("shards", "",
                 "request mailbox shards (default 8, at least 1)");
  cli.add_option("queue-limit", "",
                 "admission queue bound in batches (default 256; 0 = "
                 "unbounded)");
  cli.add_option("trace-out", "",
                 "write obs trace JSON + metrics here on shutdown");
  cli.add_flag("verbose", "info-level logging");
  if (Status s = cli.parse(argc, argv); !s) {
    std::fprintf(stderr, "%s\n", s.error().message().c_str());
    return s.error().code() == ErrorCode::kUnavailable ? 0 : 2;
  }
  if (cli.flag("verbose")) {
    Logger::instance().set_level(LogLevel::kInfo);
  }

  fam::DaemonOptions options;
  options.dispatch_threads = 2;
  if (const std::string config_path = cli.option("config");
      !config_path.empty()) {
    auto contents = read_file(config_path);
    if (!contents) {
      std::fprintf(stderr, "cannot read --config %s: %s\n",
                   config_path.c_str(),
                   contents.error().to_string().c_str());
      return 2;
    }
    auto parsed = KeyValueMap::parse(contents.value());
    if (!parsed) {
      std::fprintf(stderr, "bad --config %s: %s\n", config_path.c_str(),
                   parsed.error().to_string().c_str());
      return 2;
    }
    auto from_config = fam::daemon_options_from_config(parsed.value());
    if (!from_config) {
      std::fprintf(stderr, "bad --config %s: %s\n", config_path.c_str(),
                   from_config.error().to_string().c_str());
      return 2;
    }
    const std::size_t config_workers =
        from_config.value().dispatch_threads;
    options = std::move(from_config).value();
    options.dispatch_threads = std::max<std::size_t>(config_workers, 1);
  }
  if (const std::string dir = cli.option("dir"); !dir.empty()) {
    options.log_dir = dir;
  }
  if (!cli.option("workers").empty()) {
    options.dispatch_threads = static_cast<std::size_t>(
        std::max<std::int64_t>(cli.option_int("workers").value_or(2), 1));
  }
  if (const std::string pool_spec = cli.option("pool-bytes");
      !pool_spec.empty()) {
    auto bytes = parse_bytes(pool_spec);
    if (!bytes || bytes.value() == 0) {
      std::fprintf(stderr, "bad --pool-bytes %s\n", pool_spec.c_str());
      return 2;
    }
    options.pool_bytes = static_cast<std::size_t>(bytes.value());
  }
  if (!cli.option("shards").empty()) {
    const auto shards = cli.option_int("shards");
    if (!shards || shards.value() < 1) {
      std::fprintf(stderr, "--shards must be an integer >= 1, got %s\n",
                   cli.option("shards").c_str());
      return 2;
    }
    options.channel_shards = static_cast<std::size_t>(shards.value());
  }
  if (!cli.option("queue-limit").empty()) {
    options.admission_queue_limit = static_cast<std::size_t>(
        std::max<std::int64_t>(cli.option_int("queue-limit").value_or(256),
                               0));
  }
  if (options.log_dir.empty()) {
    std::fprintf(stderr, "--dir (or log_dir in --config) is required\n%s",
                 cli.usage(argv[0]).c_str());
    return 2;
  }

  fam::Daemon daemon{options};
  if (Status s = apps::preload_standard_modules(
          [&daemon](auto m) { return daemon.preload(std::move(m)); },
          options.dispatch_threads, daemon.buffer_pool());
      !s) {
    std::fprintf(stderr, "preload failed: %s\n", s.to_string().c_str());
    return 1;
  }
  daemon.start();
  std::printf("mcsd_daemon serving %s (%zu worker%s, %zu shard%s)\n",
              options.log_dir.c_str(), options.dispatch_threads,
              options.dispatch_threads == 1 ? "" : "s",
              daemon.channel_shards(),
              daemon.channel_shards() == 1 ? "" : "s");
  std::puts("modules: wordcount stringmatch matmul select sort join");
  std::puts("press Ctrl-C (or close stdin) to stop");

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // Block on stdin so the process is easy to supervise; EOF also stops.
  while (!g_stop) {
    const int c = std::getchar();
    if (c == EOF) break;
  }
  daemon.stop();
  std::printf("served %llu request(s), %llu error(s)\n",
              static_cast<unsigned long long>(daemon.requests_handled()),
              static_cast<unsigned long long>(daemon.errors_returned()));
  std::printf("serve: accepted=%llu coalesced=%llu rejected=%llu "
              "batches=%llu shed=%llu\n",
              static_cast<unsigned long long>(daemon.accepted()),
              static_cast<unsigned long long>(daemon.coalesced()),
              static_cast<unsigned long long>(daemon.rejected()),
              static_cast<unsigned long long>(daemon.batches_run()),
              static_cast<unsigned long long>(daemon.deadline_shed()));
  for (const auto& tenant : daemon.qos_snapshot()) {
    std::printf("tenant %s: accepted=%llu rejected=%llu coalesced=%llu "
                "completed=%llu p50=%llu us p99=%llu us\n",
                tenant.tenant.c_str(),
                static_cast<unsigned long long>(tenant.accepted),
                static_cast<unsigned long long>(tenant.rejected),
                static_cast<unsigned long long>(tenant.coalesced),
                static_cast<unsigned long long>(tenant.completed),
                static_cast<unsigned long long>(
                    tenant.invoke_us.percentile(0.50)),
                static_cast<unsigned long long>(
                    tenant.invoke_us.percentile(0.99)));
  }
  if (Status s = obs::dump_trace_if_requested(cli.option("trace-out")); !s) {
    std::fprintf(stderr, "cannot write trace: %s\n", s.to_string().c_str());
    return 1;
  }
  return 0;
}
