// The pipelined out-of-core path: the streaming fragment source (the
// engine maps pinned buffer-pool frames in place; only records crossing a
// frame boundary are stitched into owned bytes) and the file-backed
// driver.  The load-bearing property is byte-equivalence with the serial
// in-memory chain: the spans of each streamed fragment must concatenate
// to exactly partition()'s fragment, and the pipelined run must produce
// exactly the in-memory run's output, over random corpora and
// adversarial fragment/frame/window size combinations.  The lifetime
// tests hold the pin contract: nothing stays pinned after a run, an
// engine exception, or an early teardown.
#include "partition/outofcore.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "apps/datagen.hpp"
#include "apps/stringmatch.hpp"
#include "apps/wordcount.hpp"
#include "core/hash.hpp"
#include "core/io.hpp"
#include "core/random.hpp"
#include "partition/streaming.hpp"

namespace mcsd::part {
namespace {

using apps::StringMatchSpec;
using apps::WordCountSpec;

std::map<std::string, std::uint64_t> to_map(
    const std::vector<mr::KV<std::string, std::uint64_t>>& pairs) {
  std::map<std::string, std::uint64_t> m;
  for (const auto& kv : pairs) m[kv.key] += kv.value;
  return m;
}

/// A pool of `frames` frames of `frame_bytes` each (pin window: a
/// quarter of them for a file that fits, an eighth for a larger one).
std::shared_ptr<storage::BufferManager> frame_pool(std::size_t frame_bytes,
                                                   std::size_t frames) {
  storage::PoolOptions options;
  options.frame_bytes = frame_bytes;
  options.pool_bytes = frames * frame_bytes;
  return std::make_shared<storage::BufferManager>(options);
}

/// One streamed fragment: its batches' spans concatenated.
struct Streamed {
  std::string text;
  std::size_t index = 0;
  std::uint64_t offset = 0;
  std::size_t batches = 0;
};

struct StreamResult {
  std::vector<Streamed> fragments;
  std::size_t longest_stitch = 0;
};

/// Streams `path` fully, checking that spans tile each fragment in file
/// order and that batches of one fragment arrive back to back.
StreamResult stream_all(const std::filesystem::path& path,
                        PipelineOptions options) {
  auto source = StreamingFragmentSource::open(path, std::move(options));
  EXPECT_TRUE(source.is_ok());
  StreamResult result;
  FragmentBatch batch;
  for (;;) {
    const auto got = source.value().next(batch);
    EXPECT_TRUE(got.is_ok()) << got.error().to_string();
    if (!got.is_ok() || !got.value()) break;
    EXPECT_FALSE(batch.spans.empty());
    if (result.fragments.empty() ||
        result.fragments.back().index != batch.index) {
      EXPECT_EQ(batch.index, result.fragments.size());
      result.fragments.push_back(Streamed{{}, batch.index, batch.offset, 0});
    }
    Streamed& fragment = result.fragments.back();
    EXPECT_EQ(batch.offset, fragment.offset);
    ++fragment.batches;
    std::uint64_t bytes = 0;
    for (const FragmentSpan& span : batch.spans) {
      EXPECT_FALSE(span.text.empty());
      EXPECT_EQ(span.offset, fragment.offset + fragment.text.size());
      fragment.text += span.text;
      bytes += span.text.size();
      if (span.stitched) {
        result.longest_stitch = std::max(result.longest_stitch,
                                         span.text.size());
      }
    }
    EXPECT_EQ(batch.bytes, bytes);
  }
  return result;
}

/// Fragment texts only.
std::vector<std::string> texts(const StreamResult& result) {
  std::vector<std::string> out;
  for (const Streamed& fragment : result.fragments) {
    out.push_back(fragment.text);
  }
  return out;
}

bool is_space(char c) { return c == ' ' || c == '\n'; }

/// Options for the ported edge cases: `frame_bytes`-byte frames, a pool
/// of `frames` of them, space/newline records.
PipelineOptions tiny_frames(std::uint64_t target, std::size_t frame_bytes,
                          std::size_t frames = 8) {
  PipelineOptions options;
  options.partition_size = target;
  options.is_delimiter = is_space;
  options.pool = frame_pool(frame_bytes, frames);
  return options;
}

TEST(StreamingFragmentSource, MissingFileIsNotFound) {
  TempDir dir{"pipeline"};
  const auto source = StreamingFragmentSource::open(dir / "nope", {});
  ASSERT_FALSE(source.is_ok());
  EXPECT_EQ(source.error().code(), ErrorCode::kNotFound);
}

TEST(StreamingFragmentSource, MissingFileWithFramePoolIsNotFound) {
  TempDir dir{"pipeline"};
  PipelineOptions options = tiny_frames(8, 16);
  const auto pool = options.pool;
  const auto source = StreamingFragmentSource::open(dir / "nope", options);
  ASSERT_FALSE(source.is_ok());
  EXPECT_EQ(source.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(pool->stats().pinned_frames, 0u);
}

TEST(StreamingFragmentSource, EmptyFileYieldsNoFragments) {
  TempDir dir{"pipeline"};
  ASSERT_TRUE(write_file(dir / "empty", "").is_ok());
  for (const bool prefetch : {false, true}) {
    PipelineOptions options;
    options.partition_size = 1024;
    options.prefetch = prefetch;
    EXPECT_TRUE(stream_all(dir / "empty", options).fragments.empty());
  }
}

TEST(StreamingFragmentSource, EmptyFileOverSixteenByteFramesYieldsNoFragments) {
  TempDir dir{"pipeline"};
  ASSERT_TRUE(write_file(dir / "empty", "").is_ok());
  for (const bool prefetch : {false, true}) {
    PipelineOptions options = tiny_frames(8, 16);
    options.prefetch = prefetch;
    const auto pool = options.pool;
    EXPECT_TRUE(stream_all(dir / "empty", options).fragments.empty());
    EXPECT_EQ(pool->stats().pinned_frames, 0u);
  }
}

TEST(StreamingFragmentSource, FileSmallerThanOneFrameIsOneFragment) {
  TempDir dir{"pipeline"};
  const std::string payload = "tiny file";
  ASSERT_TRUE(write_file(dir / "small", payload).is_ok());
  const auto streamed = stream_all(dir / "small", tiny_frames(1024, 64));
  EXPECT_EQ(texts(streamed), std::vector<std::string>{payload});
}

TEST(StreamingFragmentSource, TargetZeroReadsWholeFile) {
  TempDir dir{"pipeline"};
  std::string payload;
  for (int i = 0; i < 500; ++i) payload += "word" + std::to_string(i) + " ";
  ASSERT_TRUE(write_file(dir / "whole", payload).is_ok());
  // ~70 frames through a 2-frame window: one fragment, many batches.
  const auto streamed = stream_all(dir / "whole", tiny_frames(0, 64, 8));
  ASSERT_EQ(streamed.fragments.size(), 1u);
  EXPECT_EQ(streamed.fragments[0].text, payload);
  EXPECT_GT(streamed.fragments[0].batches, 1u);
}

TEST(StreamingFragmentSource, RecordSpanningFrameBoundaryStaysWhole) {
  TempDir dir{"pipeline"};
  // 16-byte frames; the 40-byte record spans several frames and also
  // the 8-byte fragment target, so it is stitched across three frames.
  const std::string long_record(40, 'x');
  const std::string payload = "ab " + long_record + " cd ef";
  ASSERT_TRUE(write_file(dir / "span", payload).is_ok());
  for (const std::size_t frames : {2, 8}) {  // window of 1 and of 2
    const auto streamed = stream_all(dir / "span", tiny_frames(8, 16, frames));
    std::string joined;
    int containing = 0;
    for (const auto& fragment : streamed.fragments) {
      joined += fragment.text;
      if (fragment.text.find(long_record) != std::string::npos) ++containing;
    }
    EXPECT_EQ(joined, payload);
    // The long record lives whole inside exactly one fragment, and its
    // stitch (record plus delimiter) covers three frame boundaries.
    EXPECT_EQ(containing, 1);
    EXPECT_EQ(streamed.longest_stitch, long_record.size() + 1);
  }
}

TEST(StreamingFragmentSource, LongDelimiterRunAtFrameEdgeIsAbsorbed) {
  TempDir dir{"pipeline"};
  // A delimiter run crossing both the fragment target and several frame
  // boundaries must be absorbed into the preceding fragment, so the next
  // fragment starts on a record byte.
  const std::string payload =
      "head" + std::string(50, ' ') + "tail" + std::string(30, '\n') + "end";
  ASSERT_TRUE(write_file(dir / "runs", payload).is_ok());
  const auto streamed = stream_all(dir / "runs", tiny_frames(6, 16));
  std::string joined;
  for (const auto& fragment : streamed.fragments) joined += fragment.text;
  EXPECT_EQ(joined, payload);
  for (std::size_t i = 1; i < streamed.fragments.size(); ++i) {
    EXPECT_FALSE(is_space(streamed.fragments[i].text.front()))
        << "fragment " << i << " starts mid-delimiter-run";
  }
  PartitionOptions popts;
  popts.partition_size = 6;
  popts.is_delimiter = is_space;
  std::vector<std::string> expected;
  for (const Fragment& f : partition(payload, popts)) {
    expected.emplace_back(f.text);
  }
  EXPECT_EQ(texts(streamed), expected);
}

TEST(StreamingFragmentSource, AllDelimiterFileIsOneFragment) {
  TempDir dir{"pipeline"};
  const std::string payload(100, ' ');
  ASSERT_TRUE(write_file(dir / "blanks", payload).is_ok());
  const auto streamed = stream_all(dir / "blanks", tiny_frames(10, 16));
  EXPECT_EQ(texts(streamed), std::vector<std::string>{payload});
  EXPECT_EQ(streamed.longest_stitch, 0u);  // no record to stitch
}

// Streaming a file reproduces partition() fragment-for-fragment — both
// prefetching and serial, across random corpora and pathological
// fragment/frame/window size combinations (frame smaller than a record,
// fragment smaller than a word, fragment larger than the pin window or
// the file), with one record longer than three frames.
class PipelineSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineSeedSweep, StreamedFragmentsEqualPartitioned) {
  Rng rng{GetParam()};
  const std::size_t frame_bytes = 7 + rng.next_below(2 * 1024);
  const std::size_t frames = 2 + rng.next_below(30);
  apps::CorpusOptions corpus;
  corpus.bytes = 8 * 1024 + rng.next_below(64 * 1024);
  corpus.vocabulary = 100 + rng.next_below(400);
  corpus.seed = GetParam();
  std::string text = apps::generate_corpus(corpus);
  // A record longer than three frames, at a word boundary.
  const std::size_t at = text.find(' ', rng.next_below(text.size()));
  const std::string long_record(3 * frame_bytes + 11, 'q');
  text.insert(at == std::string::npos ? text.size() : at + 1,
              long_record + " ");

  TempDir dir{"pipeline"};
  const auto path = dir / "corpus.txt";
  ASSERT_TRUE(write_file(path, text).is_ok());

  PartitionOptions popts;
  popts.partition_size = 1 + rng.next_below(2 * text.size());
  const auto expected = partition(text, popts);

  for (const bool prefetch : {false, true}) {
    SCOPED_TRACE(testing::Message() << "prefetch=" << prefetch << " frame="
                                    << frame_bytes << " frames=" << frames);
    PipelineOptions options;
    options.partition_size = popts.partition_size;
    options.prefetch = prefetch;
    options.pool = frame_pool(frame_bytes, frames);
    const auto streamed = stream_all(path, options);
    ASSERT_EQ(streamed.fragments.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(streamed.fragments[i].text, expected[i].text)
          << "fragment " << i;
      EXPECT_EQ(streamed.fragments[i].offset, expected[i].offset);
      EXPECT_EQ(streamed.fragments[i].index, expected[i].index);
    }
    EXPECT_GE(streamed.longest_stitch, long_record.size());
    EXPECT_EQ(options.pool->stats().pinned_frames, 0u);
  }
}

TEST_P(PipelineSeedSweep, PipelinedOutputEqualsSerialOutput) {
  Rng rng{GetParam()};
  apps::CorpusOptions corpus;
  corpus.bytes = 64 * 1024 + rng.next_below(64 * 1024);
  corpus.vocabulary = 100 + rng.next_below(300);
  corpus.seed = GetParam() * 31 + 7;
  const std::string text = apps::generate_corpus(corpus);

  TempDir dir{"pipeline"};
  const auto path = dir / "corpus.txt";
  ASSERT_TRUE(write_file(path, text).is_ok());

  mr::Options opts;
  opts.num_workers = 2;
  mr::Engine<WordCountSpec> engine{opts};

  TextJob<WordCountSpec> job;
  job.incremental_merge = sum_incremental<std::string, std::uint64_t>();

  // Serial reference: the in-memory chain.
  PartitionOptions popts;
  popts.partition_size = 1024 + rng.next_below(16 * 1024);
  const auto serial =
      run_partitioned(engine, WordCountSpec{}, text, popts, job);

  // Pipelined: pinned spans, pool read-ahead.
  PipelineOptions stream;
  stream.partition_size = popts.partition_size;
  stream.prefetch = true;
  stream.pool = frame_pool(512 + rng.next_below(4 * 1024), 64);
  OutOfCoreMetrics metrics;
  const auto pipelined = run_partitioned_file(
      engine, WordCountSpec{}, path, stream, job, &metrics);
  ASSERT_TRUE(pipelined.is_ok());

  EXPECT_EQ(to_map(pipelined.value()), to_map(serial));
  EXPECT_EQ(to_map(pipelined.value()), to_map(apps::wordcount_sequential(text)));
  EXPECT_TRUE(metrics.pipelined);
  EXPECT_EQ(metrics.bytes_streamed, text.size());
  EXPECT_GT(metrics.fragments, 1u);
}

// Worker-state reuse across fragments: a pipelined run drives one engine
// through many run() calls (reset arenas, reused emitters and gather
// buffers); its output — and a second full run on the *same* engine —
// must be byte-identical to a fresh engine's.
TEST_P(PipelineSeedSweep, ReusedEngineStateIsByteIdenticalAcrossRuns) {
  Rng rng{GetParam() * 97 + 3};
  apps::CorpusOptions corpus;
  corpus.bytes = 48 * 1024 + rng.next_below(48 * 1024);
  corpus.vocabulary = 150 + rng.next_below(250);
  corpus.seed = GetParam() * 13 + 1;
  const std::string text = apps::generate_corpus(corpus);

  TempDir dir{"pipeline"};
  const auto path = dir / "corpus.txt";
  ASSERT_TRUE(write_file(path, text).is_ok());

  PipelineOptions stream;
  stream.partition_size = 2048 + rng.next_below(8 * 1024);
  stream.prefetch = true;
  TextJob<WordCountSpec> job;
  job.incremental_merge = sum_incremental<std::string, std::uint64_t>();

  mr::Options opts;
  opts.num_workers = 3;
  mr::Engine<WordCountSpec> reused{opts};
  const auto first =
      run_partitioned_file(reused, WordCountSpec{}, path, stream, job);
  ASSERT_TRUE(first.is_ok());
  const auto second =
      run_partitioned_file(reused, WordCountSpec{}, path, stream, job);
  ASSERT_TRUE(second.is_ok());

  mr::Engine<WordCountSpec> fresh{opts};
  const auto baseline =
      run_partitioned_file(fresh, WordCountSpec{}, path, stream, job);
  ASSERT_TRUE(baseline.is_ok());

  // Byte-identical, not just map-equal: same pairs in the same order.
  ASSERT_EQ(first.value().size(), baseline.value().size());
  for (std::size_t i = 0; i < first.value().size(); ++i) {
    EXPECT_EQ(first.value()[i].key, baseline.value()[i].key);
    EXPECT_EQ(first.value()[i].value, baseline.value()[i].value);
  }
  ASSERT_EQ(second.value().size(), baseline.value().size());
  for (std::size_t i = 0; i < second.value().size(); ++i) {
    EXPECT_EQ(second.value()[i].key, baseline.value()[i].key);
    EXPECT_EQ(second.value()[i].value, baseline.value()[i].value);
  }
  EXPECT_EQ(to_map(first.value()), to_map(apps::wordcount_sequential(text)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// The engine over pinned frames computes exactly what it computes over
// one in-memory string: WC and SM output byte-identical to
// run_partitioned at every worker count, fragment size (whole file,
// sub-frame, multi-frame, larger than the pin window) and frame size.
// SM engines sort their output by key, so the batches of a fragment the
// window split concatenate in the fragment's order.
TEST(RunPartitionedFile, PinnedRunsMatchInMemoryRuns) {
  apps::CorpusOptions corpus;
  corpus.bytes = 40 * 1024;
  corpus.vocabulary = 400;
  const std::string words = apps::generate_corpus(corpus);
  apps::LineFileOptions lines;
  lines.bytes = 40 * 1024;
  std::string line_text = apps::generate_line_file(lines);
  apps::KeysOptions keys_options;
  keys_options.count = 5;
  StringMatchSpec sm_spec;
  sm_spec.keys = apps::generate_and_plant_keys(line_text, keys_options);

  TempDir dir{"pipeline"};
  ASSERT_TRUE(write_file(dir / "words.txt", words).is_ok());
  ASSERT_TRUE(write_file(dir / "lines.txt", line_text).is_ok());

  // Both files are larger than either pool: pin window kFrames / 8.
  constexpr std::size_t kFrames = 16;
  constexpr std::size_t kWindow = kFrames / 8;
  for (const std::size_t frame : {std::size_t{61}, std::size_t{1000}}) {
    for (const std::uint64_t partition_size :
         {std::uint64_t{0}, std::uint64_t{frame / 2}, std::uint64_t{3 * frame},
          std::uint64_t{12 * frame}}) {
      for (const std::size_t workers : {1, 2, 4}) {
        SCOPED_TRACE(testing::Message() << "frame=" << frame << " partition="
                                        << partition_size
                                        << " workers=" << workers);
        PartitionOptions popts;
        popts.partition_size = partition_size;
        PipelineOptions stream;
        stream.partition_size = partition_size;
        stream.pool = frame_pool(frame, kFrames);

        mr::Options wc_opts;
        wc_opts.num_workers = workers;
        mr::Engine<WordCountSpec> wc{wc_opts};
        TextJob<WordCountSpec> wc_job;
        wc_job.incremental_merge = sum_incremental<std::string, std::uint64_t>();
        OutOfCoreMetrics wc_metrics;
        const auto wc_file = run_partitioned_file(
            wc, WordCountSpec{}, dir / "words.txt", stream, wc_job, &wc_metrics);
        ASSERT_TRUE(wc_file.is_ok());
        EXPECT_EQ(wc_file.value(),
                  run_partitioned(wc, WordCountSpec{}, words, popts, wc_job));

        mr::Options sm_opts;
        sm_opts.num_workers = workers;
        sm_opts.sort_output_by_key = true;
        mr::Engine<StringMatchSpec> sm{sm_opts};
        TextJob<StringMatchSpec> sm_job;
        sm_job.chunker = [](std::string_view text) {
          return mr::split_lines(text, 4 * 1024);
        };
        sm_job.incremental_merge =
            concat_incremental<std::uint64_t, std::uint32_t>();
        popts.is_delimiter = newline_delimiter();
        stream.is_delimiter = newline_delimiter();
        const auto sm_file = run_partitioned_file(
            sm, sm_spec, dir / "lines.txt", stream, sm_job);
        ASSERT_TRUE(sm_file.is_ok());
        const auto sm_memory =
            run_partitioned(sm, sm_spec, line_text, popts, sm_job);
        EXPECT_EQ(sm_file.value(), sm_memory);
        EXPECT_EQ(apps::to_sorted_matches(sm_file.value()),
                  apps::stringmatch_sequential(line_text, sm_spec.keys));

        // A fragment larger than the window runs as several batches.
        if (partition_size == 0 || partition_size > kWindow * frame) {
          EXPECT_GT(wc_metrics.engine_batches, wc_metrics.fragments);
        }
        EXPECT_EQ(stream.pool->stats().pinned_frames, 0u);
      }
    }
  }
}

// Word Count over a file four times the pool, with fragments eight times
// the pin window: every fragment runs as many engine batches, each folded
// into the running result without a sort, and the counts equal the
// sequential reference at every worker count.
TEST(RunPartitionedFile, ManyBatchesPerFragmentMatchSequentialWordCount) {
  apps::CorpusOptions corpus;
  corpus.bytes = 256 * 1024;
  corpus.vocabulary = 3000;
  const std::string text = apps::generate_corpus(corpus);
  TempDir dir{"pipeline"};
  const auto path = dir / "corpus.txt";
  ASSERT_TRUE(write_file(path, text).is_ok());
  const auto expected = to_map(apps::wordcount_sequential(text));

  constexpr std::size_t kFrame = 1024;
  constexpr std::size_t kFrames = 64;  // pin window: kFrames / 8
  for (const std::size_t workers : {1, 2, 4}) {
    SCOPED_TRACE(workers);
    PipelineOptions stream;
    stream.partition_size = 8 * (kFrames / 8) * kFrame;
    stream.pool = frame_pool(kFrame, kFrames);
    mr::Options opts;
    opts.num_workers = workers;
    mr::Engine<WordCountSpec> engine{opts};
    TextJob<WordCountSpec> job;
    job.incremental_merge = sum_incremental<std::string, std::uint64_t>();
    OutOfCoreMetrics metrics;
    const auto counts = run_partitioned_file(engine, WordCountSpec{}, path,
                                             stream, job, &metrics);
    ASSERT_TRUE(counts.is_ok());
    EXPECT_EQ(to_map(counts.value()), expected);
    EXPECT_EQ(counts.value().size(), expected.size());  // keys unique
    EXPECT_GE(metrics.fragments, 4u);
    EXPECT_GE(metrics.engine_batches, 8 * metrics.fragments - 8);
    EXPECT_EQ(stream.pool->stats().pinned_frames, 0u);
  }
}

// Stitched records are the only private input bytes: at most one per
// frame boundary of a batch plus the record carried into the next, each
// no longer than the longest record and its delimiter run — nowhere near
// a fragment.
TEST(RunPartitionedFile, StitchedBytesBoundedByWindowTimesLongestRecord) {
  apps::CorpusOptions corpus;
  corpus.bytes = 512 * 1024;
  corpus.vocabulary = 500;
  const std::string text = apps::generate_corpus(corpus);
  TempDir dir{"pipeline"};
  const auto path = dir / "corpus.txt";
  ASSERT_TRUE(write_file(path, text).is_ok());
  std::size_t longest = 0;  // record plus its delimiter run
  for (std::size_t i = 0; i < text.size();) {
    std::size_t j = i;
    while (j < text.size() && !is_default_delimiter(text[j])) ++j;
    while (j < text.size() && is_default_delimiter(text[j])) ++j;
    longest = std::max(longest, j - i);
    i = j;
  }

  constexpr std::size_t kFrames = 32;
  auto pool = frame_pool(4 * 1024, kFrames);
  mr::Engine<WordCountSpec> engine{mr::Options{}};
  PipelineOptions stream;
  stream.partition_size = 64 * 1024;  // 16 frames, four times the window
  stream.prefetch = true;
  stream.pool = pool;
  TextJob<WordCountSpec> job;
  job.incremental_merge = sum_incremental<std::string, std::uint64_t>();
  OutOfCoreMetrics metrics;
  ASSERT_TRUE(run_partitioned_file(engine, WordCountSpec{}, path, stream, job,
                                   &metrics)
                  .is_ok());
  ASSERT_GE(metrics.fragments, 7u);
  EXPECT_GE(metrics.engine_batches, metrics.fragments);
  EXPECT_GT(metrics.peak_resident_fragment_bytes, 0u);
  EXPECT_LE(metrics.peak_resident_fragment_bytes,
            (kFrames / 8 + 1) * longest);  // pin window: kFrames / 8
  EXPECT_GT(metrics.storage_misses, 0u);
  EXPECT_EQ(pool->stats().pinned_frames, 0u);  // nothing leaks pins
}

TEST(RunPartitionedFile, WarmRerunHitsDaemonResidentPool) {
  apps::CorpusOptions corpus;
  corpus.bytes = 256 * 1024;
  const std::string text = apps::generate_corpus(corpus);
  TempDir dir{"pipeline"};
  const auto path = dir / "corpus.txt";
  ASSERT_TRUE(write_file(path, text).is_ok());

  // One pool outliving both runs — the daemon-resident warm-re-run shape.
  auto pool = std::make_shared<storage::BufferManager>();
  PipelineOptions stream;
  stream.partition_size = 32 * 1024;
  stream.prefetch = true;
  stream.pool = pool;
  TextJob<WordCountSpec> job;
  job.incremental_merge = sum_incremental<std::string, std::uint64_t>();

  mr::Engine<WordCountSpec> engine{mr::Options{}};
  OutOfCoreMetrics cold;
  auto first = run_partitioned_file(engine, WordCountSpec{}, path, stream,
                                    job, &cold);
  ASSERT_TRUE(first.is_ok());
  EXPECT_GT(cold.storage_misses, 0u);

  OutOfCoreMetrics warm;
  auto second = run_partitioned_file(engine, WordCountSpec{}, path, stream,
                                     job, &warm);
  ASSERT_TRUE(second.is_ok());
  // Byte-identical output, zero new disk I/O, perfect hit rate.
  EXPECT_EQ(to_map(first.value()), to_map(second.value()));
  EXPECT_EQ(warm.storage_misses, 0u);
  EXPECT_GT(warm.storage_hits, 0u);
  EXPECT_DOUBLE_EQ(warm.storage_hit_rate(), 1.0);
}

TEST(RunPartitionedFile, SerialModeKeepsOneFragmentResident) {
  apps::CorpusOptions corpus;
  corpus.bytes = 256 * 1024;
  const std::string text = apps::generate_corpus(corpus);
  TempDir dir{"pipeline"};
  const auto path = dir / "corpus.txt";
  ASSERT_TRUE(write_file(path, text).is_ok());

  mr::Engine<WordCountSpec> engine{mr::Options{}};
  PipelineOptions stream;
  stream.partition_size = 32 * 1024;
  stream.prefetch = false;
  TextJob<WordCountSpec> job;
  job.incremental_merge = sum_incremental<std::string, std::uint64_t>();
  OutOfCoreMetrics metrics;
  ASSERT_TRUE(run_partitioned_file(engine, WordCountSpec{}, path, stream, job,
                                   &metrics)
                  .is_ok());
  EXPECT_FALSE(metrics.pipelined);
  // Far less than one fragment: only the stitched records are private.
  EXPECT_LE(metrics.peak_resident_fragment_bytes, stream.partition_size);
}

// String Match across streamed fragments: line-aligned cuts plus the
// driver's chunk-offset rebase must yield the same absolute-offset
// matches as the sequential scan of the whole file.
TEST(RunPartitionedFile, StringMatchOffsetsSurviveFragmentation) {
  apps::LineFileOptions lines;
  lines.bytes = 96 * 1024;
  std::string text = apps::generate_line_file(lines);
  apps::KeysOptions keys_options;
  keys_options.count = 6;
  StringMatchSpec spec;
  spec.keys = apps::generate_and_plant_keys(text, keys_options);

  TempDir dir{"pipeline"};
  const auto path = dir / "lines.txt";
  ASSERT_TRUE(write_file(path, text).is_ok());

  mr::Options opts;
  opts.num_workers = 2;
  mr::Engine<StringMatchSpec> engine{opts};
  PipelineOptions stream;
  stream.partition_size = 8 * 1024;
  stream.is_delimiter = newline_delimiter();
  stream.prefetch = true;
  TextJob<StringMatchSpec> job;
  job.chunker = [](std::string_view fragment) {
    return mr::split_lines(fragment, 4 * 1024);
  };
  job.incremental_merge = concat_incremental<std::uint64_t, std::uint32_t>();
  OutOfCoreMetrics metrics;
  const auto pairs =
      run_partitioned_file(engine, spec, path, stream, job, &metrics);
  ASSERT_TRUE(pairs.is_ok());
  EXPECT_GT(metrics.fragments, 1u);

  const auto expected = apps::stringmatch_sequential(text, spec.keys);
  EXPECT_EQ(apps::to_sorted_matches(pairs.value()),
            expected);
}

// The pin contract on every exit path: a normal run, an engine that
// throws MemoryOverflowError mid-batch, and a source dropped mid-stream
// all leave nothing pinned.
TEST(RunPartitionedFile, NoPinOutlivesRunOverflowOrTeardown) {
  apps::CorpusOptions corpus;
  corpus.bytes = 64 * 1024;
  const std::string text = apps::generate_corpus(corpus);
  TempDir dir{"pipeline"};
  const auto path = dir / "corpus.txt";
  ASSERT_TRUE(write_file(path, text).is_ok());
  auto pool = frame_pool(1024, 32);
  PipelineOptions stream;
  stream.partition_size = 16 * 1024;
  stream.pool = pool;
  TextJob<WordCountSpec> job;
  job.incremental_merge = sum_incremental<std::string, std::uint64_t>();

  mr::Engine<WordCountSpec> engine{mr::Options{}};
  ASSERT_TRUE(
      run_partitioned_file(engine, WordCountSpec{}, path, stream, job).is_ok());
  EXPECT_EQ(pool->stats().pinned_frames, 0u);

  mr::Options tight;
  tight.memory_budget_bytes = 4 * 1024;  // far below one batch
  mr::Engine<WordCountSpec> starved{tight};
  EXPECT_THROW(
      (void)run_partitioned_file(starved, WordCountSpec{}, path, stream, job),
      mr::MemoryOverflowError);
  EXPECT_EQ(pool->stats().pinned_frames, 0u);

  {
    PipelineOptions options;
    options.partition_size = stream.partition_size;
    options.pool = pool;
    auto source = StreamingFragmentSource::open(path, options);
    ASSERT_TRUE(source.is_ok());
    FragmentBatch batch;
    ASSERT_TRUE(source.value().next(batch).value());
    EXPECT_GT(pool->stats().pinned_frames, 0u);  // the batch's views
  }
  EXPECT_EQ(pool->stats().pinned_frames, 0u);
}

// A file replaced by rename while a run holds pins on its frames: the
// run finishes over the old version (its File keeps the old inode, and
// pages it has not pinned yet load from there), and the next run sees
// the new one — the serve_zipf version swap.
TEST(RunPartitionedFile, ReplacedFileKeepsOldVersionForTheRunningScan) {
  apps::CorpusOptions corpus;
  corpus.bytes = 96 * 1024;
  corpus.seed = 5;
  const std::string old_text = apps::generate_corpus(corpus);
  corpus.seed = 6;
  const std::string new_text = apps::generate_corpus(corpus);
  TempDir dir{"pipeline"};
  const auto path = dir / "corpus.txt";
  ASSERT_TRUE(write_file(path, old_text).is_ok());

  // Smaller than the file, so later pages load after the swap.
  auto pool = frame_pool(2048, 16);
  PipelineOptions stream;
  stream.partition_size = 8 * 1024;
  stream.pool = pool;
  bool swapped = false;
  TextJob<WordCountSpec> job;
  job.incremental_merge = sum_incremental<std::string, std::uint64_t>();
  job.chunker = [&](std::string_view text) {
    if (!swapped) {
      // Mid-run, with the first batch's frames pinned.
      swapped = true;
      EXPECT_GT(pool->stats().pinned_frames, 0u);
      EXPECT_TRUE(write_file_atomic(path, new_text).is_ok());
      EXPECT_TRUE(pool->open_file(path).is_ok());  // drops old unpinned pages
    }
    return mr::split_text(text, 256 * 1024);
  };

  mr::Engine<WordCountSpec> engine{mr::Options{}};
  const auto during =
      run_partitioned_file(engine, WordCountSpec{}, path, stream, job);
  ASSERT_TRUE(during.is_ok()) << during.error().to_string();
  ASSERT_TRUE(swapped);
  EXPECT_EQ(to_map(during.value()),
            to_map(apps::wordcount_sequential(old_text)));
  EXPECT_EQ(pool->stats().pinned_frames, 0u);

  const auto after =
      run_partitioned_file(engine, WordCountSpec{}, path, stream, job);
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(to_map(after.value()),
            to_map(apps::wordcount_sequential(new_text)));
}

// More streams than a small pool has frames, each mapping batches in
// place: a stream whose window cannot grow because the others pin every
// frame ends its batch instead of waiting, so all finish byte-exact.
TEST(StreamingFragmentSource, ConcurrentStreamsShareASmallPool) {
  std::string payload;
  for (int i = 0; i < 2000; ++i) payload += "word" + std::to_string(i) + " ";
  TempDir dir{"pipeline"};
  const auto path = dir / "shared.txt";
  ASSERT_TRUE(write_file(path, payload).is_ok());
  auto pool = frame_pool(256, 8);  // larger file: pin window 1 frame

  constexpr int kStreams = 12;
  std::atomic<int> exact{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kStreams; ++t) {
    threads.emplace_back([&] {
      PipelineOptions options;
      options.partition_size = 2048;
      options.pool = pool;
      auto source = StreamingFragmentSource::open(path, options);
      if (!source.is_ok()) return;
      std::string streamed;
      FragmentBatch batch;
      for (;;) {
        const auto got = source.value().next(batch);
        if (!got.is_ok() || !got.value()) break;
        for (const FragmentSpan& span : batch.spans) streamed += span.text;
        std::this_thread::yield();  // hold the pins a while
      }
      if (streamed == payload) exact.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(exact.load(), kStreams);
  EXPECT_EQ(pool->stats().pinned_frames, 0u);
}

// Incremental merge inside the in-memory driver, fragment by fragment:
// the same counts as one whole-input pass (the terminal result), held
// key-unique in hash order (ascending string_hash, then key).
TEST(RunPartitioned, IncrementalMergeMatchesTerminalMerge) {
  apps::CorpusOptions corpus;
  corpus.bytes = 128 * 1024;
  corpus.vocabulary = 300;
  const std::string text = apps::generate_corpus(corpus);

  mr::Engine<WordCountSpec> engine{mr::Options{}};
  PartitionOptions popts;
  popts.partition_size = 16 * 1024;

  TextJob<WordCountSpec> incremental;
  incremental.incremental_merge =
      sum_incremental<std::string, std::uint64_t>();
  const auto merged =
      run_partitioned(engine, WordCountSpec{}, text, popts, incremental);
  std::vector<mr::KV<std::string, std::uint64_t>> whole;
  for (const auto& [word, count] : to_map(apps::wordcount_sequential(text))) {
    whole.push_back({word, count});
  }
  std::sort(whole.begin(), whole.end(), [](const auto& a, const auto& b) {
    const std::uint64_t ha = string_hash(a.key);
    const std::uint64_t hb = string_hash(b.key);
    return ha != hb ? ha < hb : a.key < b.key;
  });
  EXPECT_EQ(merged, whole);
}

TEST(StreamingFragmentSource, EarlyDestructionReleasesQueuedReads) {
  apps::CorpusOptions corpus;
  corpus.bytes = 128 * 1024;
  const std::string text = apps::generate_corpus(corpus);
  TempDir dir{"pipeline"};
  const auto path = dir / "corpus.txt";
  ASSERT_TRUE(write_file(path, text).is_ok());

  auto pool = std::make_shared<storage::BufferManager>();
  PipelineOptions options;
  options.partition_size = 8 * 1024;
  options.prefetch = true;
  options.pool = pool;
  auto source = StreamingFragmentSource::open(path, options);
  ASSERT_TRUE(source.is_ok());
  FragmentBatch batch;
  ASSERT_TRUE(source.value().next(batch).value());
  // Drop the source with read-ahead still in flight: queued loads simply
  // complete into the pool (or are reclaimed) and nothing stays pinned.
}

TEST(StreamingFragmentSource, ZeroFragmentTeardownLeavesNothingPinned) {
  // Regression guard for early-error teardown: construct a prefetching
  // source, consume *zero* fragments, destroy.  Under ASan this also
  // proves no queued read-ahead buffer is leaked.
  apps::CorpusOptions corpus;
  corpus.bytes = 64 * 1024;
  const std::string text = apps::generate_corpus(corpus);
  TempDir dir{"pipeline"};
  const auto path = dir / "corpus.txt";
  ASSERT_TRUE(write_file(path, text).is_ok());

  auto pool = std::make_shared<storage::BufferManager>();
  {
    PipelineOptions options;
    options.partition_size = 4 * 1024;
    options.prefetch = true;
    options.pool = pool;
    auto source = StreamingFragmentSource::open(path, options);
    ASSERT_TRUE(source.is_ok());
    // No next() call at all — mimics a driver erroring out right after
    // open.
  }
  // Any in-flight read-ahead has a bounded lifetime; once the pool is
  // quiesced every frame must be unpinned and reusable.
  ASSERT_TRUE(pool->drop_cached().is_ok());
  EXPECT_EQ(pool->stats().pinned_frames, 0u);
}

}  // namespace
}  // namespace mcsd::part
