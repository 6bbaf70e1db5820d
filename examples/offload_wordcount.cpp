// Offload demo: a host invokes a data-intensive module on a McSD storage
// node through smartFAM (paper Fig. 4/5).
//
// One process plays both roles so the demo is self-contained; the two
// sides communicate ONLY through the shared log folder — run the daemon
// half on another machine with the folder NFS-mounted and nothing
// changes.
//
//   host                 shared log folder                  McSD node
//   ----                 -----------------                  ---------
//                        wordcount.log (module preloaded)
//   client.invoke()  ──► shards/shard-<k>.log (request)  ──► inotify wakes
//                                                            the daemon,
//                                                            module runs
//   result returned  ◄── replies/client-<id>.log (reply) ◄── MapReduce engine
//
// Build & run:  ./build/examples/offload_wordcount
//
// Pass `--trace-out trace.json` to capture an obs trace of the full
// round trip — engine, partition, and FAM spans in one timeline — for
// chrome://tracing / Perfetto (see README "Tracing a run").
#include <chrono>
#include <cstdio>
#include <memory>

#include "apps/datagen.hpp"
#include "apps/wordcount.hpp"
#include "core/cli.hpp"
#include "core/io.hpp"
#include "fam/client.hpp"
#include "fam/daemon.hpp"
#include "mapreduce/engine.hpp"
#include "obs/reporter.hpp"
#include "partition/outofcore.hpp"

using namespace mcsd;
using namespace std::chrono_literals;

namespace {

/// The module preloaded into the storage node: reads a file from the
/// shared folder, runs partition-enabled word count on the node's two
/// cores, returns the top words.
std::shared_ptr<fam::Module> wordcount_module() {
  return std::make_shared<fam::FunctionModule>(
      "wordcount", [](const KeyValueMap& params) -> Result<KeyValueMap> {
        const auto input = params.get("input");
        if (!input) return Error{ErrorCode::kInvalidArgument, "need input"};
        auto text = read_file(*input);
        if (!text) return text.error();

        mr::Options opts;
        opts.num_workers = 2;  // the E4400's two cores
        mr::Engine<apps::WordCountSpec> engine{opts};
        part::PartitionOptions popts;
        popts.partition_size = static_cast<std::uint64_t>(
            params.get_int_or("partition_size", 0));
        part::TextJob<apps::WordCountSpec> job;
        job.incremental_merge =
            part::sum_incremental<std::string, std::uint64_t>();
        part::OutOfCoreMetrics metrics;
        auto counts = part::run_partitioned(engine, apps::WordCountSpec{},
                                            text.value(), popts, job,
                                            &metrics);
        apps::sort_by_frequency_desc(counts);

        KeyValueMap out;
        out.set_uint("unique", counts.size());
        out.set_uint("total", apps::total_occurrences(counts));
        out.set_uint("fragments", metrics.fragments);
        for (std::size_t i = 0; i < counts.size() && i < 3; ++i) {
          out.set("word" + std::to_string(i), counts[i].key);
          out.set_uint("count" + std::to_string(i), counts[i].value);
        }
        return out;
      });
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  cli.add_option("trace-out", "",
                 "write obs trace JSON + metrics here on exit");
  if (Status s = cli.parse(argc, argv); !s) {
    std::fprintf(stderr, "%s\n", s.error().message().c_str());
    return s.error().code() == ErrorCode::kUnavailable ? 0 : 2;
  }

  TempDir shared{"mcsd-demo"};  // stands in for the NFS-exported folder
  std::printf("shared log folder: %s\n\n", shared.path().c_str());

  // --- storage-node side: preload the module, start the daemon --------
  fam::Daemon daemon{fam::DaemonOptions{shared.path(), 1}};
  if (auto s = daemon.preload(wordcount_module()); !s) {
    std::fprintf(stderr, "preload failed: %s\n", s.to_string().c_str());
    return 1;
  }
  daemon.start();
  std::puts("[sd]   daemon started; module 'wordcount' preloaded");

  // --- host side: put the data on the storage node, then offload ------
  apps::CorpusOptions corpus;
  corpus.bytes = 8 << 20;
  const std::string text = apps::generate_corpus(corpus);
  const auto data_path = shared / "corpus.txt";
  if (auto s = write_file(data_path, text); !s) {
    std::fprintf(stderr, "write failed: %s\n", s.to_string().c_str());
    return 1;
  }
  std::printf("[host] wrote %zu-byte corpus into the shared folder\n",
              text.size());

  fam::Client client{fam::ClientOptions{shared.path(), 2ms, 30'000ms}};
  KeyValueMap params;
  params.set("input", data_path.string());
  params.set_int("partition_size", 1 << 20);  // 1 MiB fragments
  std::puts("[host] invoking wordcount via the smartFAM channel ...");
  const auto result = client.invoke("wordcount", params);
  if (!result.is_ok()) {
    std::fprintf(stderr, "invoke failed: %s\n",
                 result.error().to_string().c_str());
    return 1;
  }

  const auto& r = result.value();
  std::printf("[host] results: %s unique words, %s total, %s fragments\n",
              r.get_or("unique", "?").c_str(), r.get_or("total", "?").c_str(),
              r.get_or("fragments", "?").c_str());
  for (int i = 0; i < 3; ++i) {
    const auto word = r.get("word" + std::to_string(i));
    const auto count = r.get("count" + std::to_string(i));
    if (word && count) {
      std::printf("       top%d: %-14s %s\n", i, word->c_str(),
                  count->c_str());
    }
  }
  std::printf("\n[sd]   daemon handled %llu request(s), %llu error(s)\n",
              static_cast<unsigned long long>(daemon.requests_handled()),
              static_cast<unsigned long long>(daemon.errors_returned()));
  daemon.stop();  // flush in-flight spans before exporting the trace
  if (Status s = obs::dump_trace_if_requested(cli.option("trace-out")); !s) {
    std::fprintf(stderr, "cannot write trace: %s\n", s.to_string().c_str());
    return 1;
  }
  return 0;
}
