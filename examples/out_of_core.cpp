// Out-of-core demo: the paper's partitioning extension in action.
//
// A word-count job whose footprint exceeds the (emulated) node memory:
// stock Phoenix behaviour throws MemoryOverflowError; run_adaptive
// catches it, derives a fragment size from the footprint factor, and
// completes the job fragment by fragment (paper Fig. 6/7).  The final
// section runs the same job file-backed, serial vs pipelined: fragment
// N+1 streams off disk on a prefetch thread while fragment N computes,
// and outputs fold into the running result as fragments retire.
//
// Build & run:  ./build/examples/out_of_core
//               (add --trace-out trace.json for a timeline showing the
//                part.prefetch spans overlapping part.fragment spans)
#include <cstdio>

#include "apps/datagen.hpp"
#include "apps/wordcount.hpp"
#include "core/cli.hpp"
#include "core/io.hpp"
#include "core/units.hpp"
#include "mapreduce/engine.hpp"
#include "obs/reporter.hpp"
#include "partition/outofcore.hpp"

using namespace mcsd;
using namespace mcsd::literals;

int main(int argc, char** argv) {
  CliParser cli;
  cli.add_option("trace-out", "",
                 "write obs trace JSON + metrics here on exit");
  if (Status s = cli.parse(argc, argv); !s) {
    std::fprintf(stderr, "%s\n", s.error().message().c_str());
    return s.error().code() == ErrorCode::kUnavailable ? 0 : 2;
  }

  // A storage node with an 8 MiB memory budget (scaled-down stand-in for
  // the paper's 2 GB node; the mechanism is identical).
  mr::Options options;
  options.num_workers = 2;
  options.memory_budget_bytes = 8_MiB;
  options.usable_memory_fraction = 0.6;  // Phoenix's observed ceiling
  mr::Engine<apps::WordCountSpec> engine{options};

  // An input comfortably bigger than the usable budget.
  apps::CorpusOptions corpus;
  corpus.bytes = 12_MiB;
  corpus.vocabulary = 30'000;
  const std::string text = apps::generate_corpus(corpus);
  std::printf("input: %s, node budget: %s (usable %s)\n\n",
              format_bytes(text.size()).c_str(),
              format_bytes(options.memory_budget_bytes).c_str(),
              format_bytes(options.usable_budget()).c_str());

  // --- 1. native mode fails, exactly like stock Phoenix ---------------
  std::puts("1) native (no partitioning):");
  try {
    engine.run(apps::WordCountSpec{}, mr::split_text(text, 256 * 1024));
    std::puts("   unexpectedly succeeded?!");
  } catch (const mr::MemoryOverflowError& e) {
    std::printf("   MemoryOverflowError: needs %s, usable budget %s\n",
                format_bytes(e.required_bytes()).c_str(),
                format_bytes(e.budget_bytes()).c_str());
  }

  // --- 2. the adaptive driver falls back to partitioned mode ----------
  std::puts("\n2) run_adaptive (the McSD runtime path):");
  part::TextJob<apps::WordCountSpec> job;
  job.incremental_merge = part::sum_incremental<std::string, std::uint64_t>();
  part::OutOfCoreMetrics metrics;
  auto counts = part::run_adaptive(engine, apps::WordCountSpec{}, text,
                                   /*footprint_factor=*/3.0, job,
                                   part::default_delimiters(), &metrics);
  apps::sort_by_frequency_desc(counts);

  std::printf("   fell back to partitioning: %s\n",
              metrics.fell_back_to_partitioning ? "yes" : "no");
  std::printf("   fragments: %zu  (partition %.3fs, mapreduce %.3fs, "
              "merge %.3fs)\n",
              metrics.fragments, metrics.partition_seconds,
              metrics.mapreduce_seconds, metrics.merge_seconds);
  std::printf("   peak fragment footprint: %s\n",
              format_bytes(metrics.peak_fragment_footprint_bytes).c_str());
  std::printf("   result: %zu unique words, %llu occurrences\n",
              counts.size(),
              static_cast<unsigned long long>(
                  apps::total_occurrences(counts)));

  // --- 3. verify against the streaming sequential reference -----------
  const auto reference = apps::wordcount_sequential(text);
  std::printf("\n3) cross-check vs sequential reference: %s\n",
              apps::total_occurrences(reference) ==
                      apps::total_occurrences(counts)
                  ? "totals match"
                  : "MISMATCH");

  // --- 4. file-backed: serial chain vs the prefetch pipeline ----------
  std::puts("\n4) file-backed A/B: serial read-then-run vs pipelined:");
  TempDir dir{"out-of-core"};
  const auto corpus_path = dir / "corpus.txt";
  if (Status s = write_file(corpus_path, text); !s) {
    std::fprintf(stderr, "cannot stage corpus: %s\n", s.to_string().c_str());
    return 1;
  }
  part::PipelineOptions popts;
  popts.partition_size = 1_MiB;  // within the demo node's usable budget
  // Emulate the Table-I disk (150 MiB/s sequential) so the demo shows the
  // regime the paper runs in; a page-cache-warm host read is ~100x faster
  // than the storage node's platter and would hide the overlap entirely.
  popts.read_throttle_mibps = 150.0;

  popts.prefetch = false;
  part::OutOfCoreMetrics serial;
  Stopwatch ab;
  auto serial_counts = part::run_partitioned_file(
      engine, apps::WordCountSpec{}, corpus_path, popts, job, &serial);
  const double serial_s = ab.elapsed_seconds();

  popts.prefetch = true;
  part::OutOfCoreMetrics pipelined;
  ab.restart();
  auto pipelined_counts = part::run_partitioned_file(
      engine, apps::WordCountSpec{}, corpus_path, popts, job,
      &pipelined);
  const double pipelined_s = ab.elapsed_seconds();

  if (!serial_counts || !pipelined_counts) {
    std::fprintf(stderr, "file-backed run failed\n");
    return 1;
  }
  std::printf("   serial:    %.3fs  (io wait %.3fs, %zu fragments)\n",
              serial_s, serial.io_wait_seconds, serial.fragments);
  std::printf("   pipelined: %.3fs  (io wait %.3fs, stitched bytes "
              "resident %s; the engine maps pool frames in place)\n",
              pipelined_s, pipelined.io_wait_seconds,
              format_bytes(pipelined.peak_resident_fragment_bytes).c_str());
  std::printf("   overlap bought %.1f%%; outputs %s\n",
              serial_s > 0.0 ? (serial_s - pipelined_s) / serial_s * 100.0
                             : 0.0,
              apps::total_occurrences(serial_counts.value()) ==
                          apps::total_occurrences(pipelined_counts.value()) &&
                      apps::total_occurrences(pipelined_counts.value()) ==
                          apps::total_occurrences(counts)
                  ? "match"
                  : "MISMATCH");
  if (Status s = obs::dump_trace_if_requested(cli.option("trace-out")); !s) {
    std::fprintf(stderr, "cannot write trace: %s\n", s.to_string().c_str());
    return 1;
  }
  return 0;
}
