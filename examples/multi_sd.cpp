// Multi-SD demo: the paper's future-work item (2), "the parallelisms
// among multiple McSD smart disks", via the host-side McsdRuntime.
//
// Spins up two storage-node daemons (a duo and a quad), lets the runtime
// decide placement for a compute-heavy and a data-heavy job, then forces
// an offload to show capability-weighted sharding across both nodes.
//
// Build & run:  ./build/examples/multi_sd
#include <chrono>
#include <cstdio>

#include "apps/datagen.hpp"
#include "apps/modules.hpp"
#include "core/io.hpp"
#include "fam/daemon.hpp"
#include "runtime/runtime.hpp"

using namespace mcsd;
using namespace std::chrono_literals;

namespace {

struct StorageNode {
  StorageNode(const char* tag, std::size_t cores)
      : dir(tag), daemon(fam::DaemonOptions{dir.path(), cores}) {
    const Status s = apps::preload_standard_modules(
        [this](auto m) { return daemon.preload(std::move(m)); }, cores);
    if (!s) std::fprintf(stderr, "preload: %s\n", s.to_string().c_str());
    daemon.start();
  }

  TempDir dir;
  fam::Daemon daemon;
};

}  // namespace

int main() {
  StorageNode duo{"mcsd-duo", 2};
  StorageNode quad{"mcsd-quad", 4};
  std::puts("[cluster] two McSD nodes up: duo (2 cores), quad (4 cores)\n");

  rt::RuntimeOptions opts;
  opts.host_workers = 4;
  opts.storage_nodes = {
      rt::SdEndpoint{duo.dir.path(), rt::SiteSpec{2, 1.0, 0.9}},
      rt::SdEndpoint{quad.dir.path(), rt::SiteSpec{4, 1.0, 0.9}},
  };
  rt::McsdRuntime runtime{std::move(opts)};

  apps::CorpusOptions corpus;
  corpus.bytes = 6 << 20;
  const std::string text = apps::generate_corpus(corpus);

  // 1. Automatic placement: the policy weighs transfer vs capability.
  {
    auto result = runtime.word_count(text);
    if (!result) {
      std::fprintf(stderr, "word_count: %s\n",
                   result.error().to_string().c_str());
      return 1;
    }
    const auto& r = result.value();
    std::printf("[auto]   policy placed word count on the %s\n",
                to_string(r.report.placement));
    std::printf("         predicted: host %.2fs vs offload %.2fs\n",
                r.report.predicted_host_seconds,
                r.report.predicted_offload_seconds);
    std::printf("         %zu unique words in %.3fs\n\n",
                r.counts.size(), r.report.elapsed_seconds);
  }

  // 2. Forced offload: the input shards across BOTH nodes by capability
  //    (the quad takes ~2x the bytes), runs concurrently, merges on the
  //    host.
  {
    runtime.force_placement(rt::Placement::kStorageNode);
    auto result = runtime.word_count(text);
    if (!result) {
      std::fprintf(stderr, "word_count: %s\n",
                   result.error().to_string().c_str());
      return 1;
    }
    const auto& r = result.value();
    std::printf("[forced] offloaded across %zu storage nodes in %.3fs\n",
                r.report.storage_nodes_used, r.report.elapsed_seconds);
    std::printf("         duo handled %llu request(s), quad %llu\n",
                static_cast<unsigned long long>(duo.daemon.requests_handled()),
                static_cast<unsigned long long>(
                    quad.daemon.requests_handled()));
    std::printf("         merged result: %zu unique words; top word '%s' x%llu\n",
                r.counts.size(), r.counts.front().key.c_str(),
                static_cast<unsigned long long>(r.counts.front().value));
  }
  return 0;
}
