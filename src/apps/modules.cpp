#include "apps/modules.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/external_sort.hpp"
#include "apps/stringmatch.hpp"
#include "apps/wordcount.hpp"
#include "core/io.hpp"
#include "core/strings.hpp"
#include "mapreduce/engine.hpp"
#include "partition/outofcore.hpp"

namespace mcsd::apps {

namespace {

/// Worker count for one request: workers= parameter, clamped to
/// [1, default_workers] — a request may use fewer cores than the node
/// has, never more.
std::size_t request_workers(const KeyValueMap& params,
                            std::size_t default_workers) {
  const auto requested = params.get_int_or("workers",
                                           static_cast<std::int64_t>(
                                               default_workers));
  if (requested < 1) return 1;
  return std::min<std::size_t>(static_cast<std::size_t>(requested),
                               default_workers);
}

/// Emulated device read rate for this request (see
/// PipelineOptions::read_throttle_mibps); 0/absent = raw device.
double request_read_throttle(const KeyValueMap& params) {
  auto mibps = params.get_double("read_throttle_mibps");
  return mibps.is_ok() && mibps.value() > 0.0 ? mibps.value() : 0.0;
}

/// Warm execution state, ROADMAP item 4 level (b): resident mr::Engines
/// per requested worker count, reused across invocations.  The engine's
/// per-worker scratch (WorkerState: emitter partitions, gather tables,
/// attribution) then survives between requests instead of being torn
/// down per run, so even a cache *miss* on a warm module skips the
/// allocation/setup cost.  An engine serves one run at a time, so the
/// daemon's concurrent batch workers each lease their own: an idle one
/// when there is one, a new one otherwise.  The pool grows to the peak
/// number of concurrent runs per worker count and no further.
template <typename Spec>
class WarmEngines {
 public:
  /// `sort_output_by_key`: each engine run hands back key-sorted output
  /// (sorted in parallel on the engine's workers) for a merge that
  /// needs key order.
  explicit WarmEngines(bool sort_output_by_key = false)
      : sort_output_by_key_(sort_output_by_key) {}

  using EnginePtr = std::unique_ptr<mr::Engine<Spec>>;

  /// Exclusive use of one engine for one run; returns it to the idle
  /// list when destroyed.
  class Lease {
   public:
    Lease(WarmEngines& owner, std::size_t workers, EnginePtr engine)
        : owner_(owner), workers_(workers), engine_(std::move(engine)) {}
    ~Lease() {
      std::lock_guard lock{owner_.mutex_};
      owner_.idle_[workers_].push_back(std::move(engine_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    mr::Engine<Spec>& operator*() const { return *engine_; }

   private:
    WarmEngines& owner_;
    std::size_t workers_;
    EnginePtr engine_;
  };

  Lease acquire(std::size_t workers) {
    {
      std::lock_guard lock{mutex_};
      auto& idle = idle_[workers];
      if (!idle.empty()) {
        EnginePtr engine = std::move(idle.back());
        idle.pop_back();
        return Lease{*this, workers, std::move(engine)};
      }
    }
    mr::Options opts;
    opts.num_workers = workers;
    opts.sort_output_by_key = sort_output_by_key_;
    return Lease{*this, workers, std::make_unique<mr::Engine<Spec>>(opts)};
  }

 private:
  bool sort_output_by_key_;
  std::mutex mutex_;
  std::map<std::size_t, std::vector<EnginePtr>> idle_;
};

/// Cache contract shared by the pure file-scan modules (wordcount,
/// stringmatch): the result is a function of the `input` file's bytes and
/// the parameter map — no output files, no hidden state — so declaring
/// the input path opts them into the daemon's result cache.
std::optional<std::vector<std::filesystem::path>> input_param_cache_inputs(
    const KeyValueMap& params) {
  const auto input = params.get("input");
  if (!input) return std::nullopt;  // the invoke will fail anyway
  return std::vector<std::filesystem::path>{*input};
}

}  // namespace

std::shared_ptr<fam::Module> make_wordcount_module(
    std::size_t default_workers, std::shared_ptr<storage::BufferManager> pool) {
  auto module = std::make_shared<fam::FunctionModule>(
      "wordcount",
      [default_workers, pool = std::move(pool),
       // Key-sorted engine output: the incremental sum merge then folds
       // each batch linearly instead of sorting it on this thread.
       warm = std::make_shared<WarmEngines<WordCountSpec>>(
           /*sort_output_by_key=*/true)](
          const KeyValueMap& params) -> Result<KeyValueMap> {
        const auto input = params.get("input");
        if (!input) return Error{ErrorCode::kInvalidArgument, "missing input"};

        const auto lease =
            warm->acquire(request_workers(params, default_workers));
        mr::Engine<WordCountSpec>& engine = *lease;
        // Stream fragments off the file with prefetch + incremental merge.
        part::PipelineOptions popts;
        popts.partition_size = static_cast<std::uint64_t>(
            params.get_int_or("partition_size", 0));
        popts.read_throttle_mibps = request_read_throttle(params);
        popts.pool = pool;  // daemon-resident: warm across invocations
        part::TextJob<WordCountSpec> job;
        job.incremental_merge =
            part::sum_incremental<std::string, std::uint64_t>();
        part::OutOfCoreMetrics metrics;
        auto merged = part::run_partitioned_file(engine, WordCountSpec{},
                                                 *input, popts, job, &metrics);
        if (!merged) return merged.error();
        auto counts = std::move(merged).value();
        // Only the reply's top entries need frequency order unless the
        // whole table ships back.
        const bool full_counts =
            params.get_bool("full_counts").value_or(false);
        const auto top_n = std::min<std::size_t>(
            counts.size(),
            static_cast<std::size_t>(params.get_int_or("top", 5)));
        if (full_counts) {
          sort_by_frequency_desc(counts);
        } else {
          partial_sort_by_frequency_desc(counts, top_n);
        }

        KeyValueMap out;
        out.set_uint("unique", counts.size());
        out.set_uint("total", total_occurrences(counts));
        out.set_uint("fragments", metrics.fragments);
        out.set_uint("pipelined", metrics.pipelined ? 1 : 0);
        out.set_uint("peak_resident_bytes",
                     metrics.peak_resident_fragment_bytes);
        for (std::size_t i = 0; i < top_n; ++i) {
          out.set("top" + std::to_string(i), counts[i].key);
          out.set_uint("top" + std::to_string(i) + "_count",
                       counts[i].value);
        }
        // full_counts=true: ship the complete table back (one
        // "word count" pair per line) so a host-side runtime can
        // sum-merge results across several McSD nodes.
        if (full_counts) {
          out.set("counts", serialize_counts(counts));
        }
        return out;
      });
  module->set_cache_inputs(input_param_cache_inputs);
  return module;
}

std::shared_ptr<fam::Module> make_stringmatch_module(
    std::size_t default_workers, std::shared_ptr<storage::BufferManager> pool) {
  auto module = std::make_shared<fam::FunctionModule>(
      "stringmatch",
      [default_workers, pool = std::move(pool),
       warm = std::make_shared<WarmEngines<StringMatchSpec>>()](
          const KeyValueMap& params) -> Result<KeyValueMap> {
        const auto input = params.get("input");
        const auto keys_csv = params.get("keys");
        if (!input || !keys_csv) {
          return Error{ErrorCode::kInvalidArgument, "missing input/keys"};
        }

        StringMatchSpec spec;
        for (const auto key : split(*keys_csv, ',')) {
          if (!key.empty()) spec.keys.emplace_back(key);
        }
        if (spec.keys.empty()) {
          return Error{ErrorCode::kInvalidArgument, "empty key list"};
        }
        const auto lease =
            warm->acquire(request_workers(params, default_workers));
        mr::Engine<StringMatchSpec>& engine = *lease;
        // Line-delimited streaming: fragments never cut a line, and the
        // driver rebases chunk offsets so matches carry absolute offsets.
        part::PipelineOptions popts;
        popts.partition_size = static_cast<std::uint64_t>(
            params.get_int_or("partition_size", 0));
        popts.is_delimiter = part::newline_delimiter();
        popts.read_throttle_mibps = request_read_throttle(params);
        popts.pool = pool;  // daemon-resident: warm across invocations
        part::TextJob<StringMatchSpec> job;
        job.chunker = [](std::string_view text) {
          return mr::split_lines(text, 64 * 1024);
        };
        job.incremental_merge =
            part::concat_incremental<std::uint64_t, std::uint32_t>();
        part::OutOfCoreMetrics metrics;
        auto pairs = part::run_partitioned_file(engine, spec, *input, popts,
                                                job, &metrics);
        if (!pairs) return pairs.error();

        KeyValueMap out;
        out.set_uint("matches", pairs.value().size());
        out.set_uint("fragments", metrics.fragments);
        return out;
      });
  module->set_cache_inputs(input_param_cache_inputs);
  return module;
}

std::shared_ptr<fam::Module> make_matmul_module(std::size_t default_workers) {
  return std::make_shared<fam::FunctionModule>(
      "matmul",
      [default_workers](const KeyValueMap& params) -> Result<KeyValueMap> {
        const auto a_path = params.get("a");
        const auto b_path = params.get("b");
        const auto out_path = params.get("out");
        if (!a_path || !b_path || !out_path) {
          return Error{ErrorCode::kInvalidArgument, "missing a/b/out"};
        }
        auto a = read_matrix(*a_path);
        if (!a) return a.error();
        auto b = read_matrix(*b_path);
        if (!b) return b.error();
        if (a.value().cols() != b.value().rows()) {
          return Error{ErrorCode::kInvalidArgument, "dimension mismatch"};
        }

        MatMulSpec spec;
        spec.a = &a.value();
        spec.b = &b.value();
        mr::Options opts;
        opts.num_workers = request_workers(params, default_workers);
        mr::Engine<MatMulSpec> engine{opts};
        // Index chunks carry no payload, so the memory model needs the
        // job's real input size (both operand matrices) passed explicitly.
        const std::uint64_t input_bytes =
            (a.value().data().size() + b.value().data().size()) *
            sizeof(double);
        const auto cells = engine.run(
            spec, mr::split_index(a.value().rows(), 4 * opts.num_workers),
            input_bytes);
        const Matrix c =
            assemble_matrix(cells, a.value().rows(), b.value().cols());
        if (Status s = write_matrix(*out_path, c); !s) {
          return Error{s.error().code(), s.to_string()};
        }

        double checksum = 0.0;
        for (double v : c.data()) checksum += v;
        KeyValueMap out;
        out.set_uint("rows", c.rows());
        out.set_uint("cols", c.cols());
        out.set_double("checksum", checksum);
        return out;
      });
}

namespace {

enum class SelectOp { kEq, kNe, kLt, kGt, kContains };

Result<SelectOp> parse_op(std::string_view text) {
  if (text == "eq") return SelectOp::kEq;
  if (text == "ne") return SelectOp::kNe;
  if (text == "lt") return SelectOp::kLt;
  if (text == "gt") return SelectOp::kGt;
  if (text == "contains") return SelectOp::kContains;
  return Error{ErrorCode::kInvalidArgument,
               "unknown op: " + std::string{text}};
}

bool field_matches(std::string_view field, SelectOp op,
                   std::string_view value) {
  switch (op) {
    case SelectOp::kEq: return field == value;
    case SelectOp::kNe: return field != value;
    case SelectOp::kContains:
      return field.find(value) != std::string_view::npos;
    case SelectOp::kLt:
    case SelectOp::kGt: {
      // Numeric when both sides parse; lexicographic otherwise.
      double fa = 0.0;
      double fb = 0.0;
      const auto [pa, ea] =
          std::from_chars(field.data(), field.data() + field.size(), fa);
      const auto [pb, eb] =
          std::from_chars(value.data(), value.data() + value.size(), fb);
      const bool numeric = ea == std::errc{} &&
                           pa == field.data() + field.size() &&
                           eb == std::errc{} &&
                           pb == value.data() + value.size();
      if (numeric) return op == SelectOp::kLt ? fa < fb : fa > fb;
      return op == SelectOp::kLt ? field < value : field > value;
    }
  }
  return false;
}

}  // namespace

std::shared_ptr<fam::Module> make_select_module(std::size_t default_workers) {
  return std::make_shared<fam::FunctionModule>(
      "select",
      [default_workers](const KeyValueMap& params) -> Result<KeyValueMap> {
        (void)default_workers;  // the scan is single-pass streaming
        const auto input = params.get("input");
        const auto out_path = params.get("out");
        const auto op_text = params.get("op");
        const auto value = params.get("value");
        const auto column = params.get_int("column");
        if (!input || !out_path || !op_text || !value || !column) {
          return Error{ErrorCode::kInvalidArgument,
                       "need input, out, column, op, value"};
        }
        if (column.value() < 0) {
          return Error{ErrorCode::kInvalidArgument, "column must be >= 0"};
        }
        auto op = parse_op(*op_text);
        if (!op) return op.error();
        auto text = read_file(*input);
        if (!text) return text.error();

        const auto col = static_cast<std::size_t>(column.value());
        std::string selected;
        std::uint64_t rows_in = 0;
        std::uint64_t rows_out = 0;
        for (std::string_view line : split(text.value(), '\n')) {
          if (line.empty()) continue;
          ++rows_in;
          const auto fields = split(line, ',');
          if (col < fields.size() &&
              field_matches(fields[col], op.value(), *value)) {
            selected += line;
            selected += '\n';
            ++rows_out;
          }
        }
        if (Status s = write_file(*out_path, selected); !s) {
          return Error{s.error().code(), s.to_string()};
        }
        KeyValueMap out;
        out.set_uint("rows_in", rows_in);
        out.set_uint("rows_out", rows_out);
        out.set_uint("bytes_out", selected.size());
        return out;
      });
}

std::shared_ptr<fam::Module> make_sort_module(std::size_t default_workers) {
  return std::make_shared<fam::FunctionModule>(
      "sort",
      [default_workers](const KeyValueMap& params) -> Result<KeyValueMap> {
        (void)default_workers;  // run generation is sequential streaming
        const auto input = params.get("input");
        const auto out_path = params.get("out");
        if (!input || !out_path) {
          return Error{ErrorCode::kInvalidArgument, "need input and out"};
        }
        ExternalSortOptions opts;
        opts.memory_budget_bytes = static_cast<std::uint64_t>(
            params.get_int_or("memory_budget", 4 << 20));
        auto stats = external_sort_lines(*input, *out_path, opts);
        if (!stats) return stats.error();
        KeyValueMap out;
        out.set_uint("lines", stats.value().lines);
        out.set_uint("runs", stats.value().runs);
        out.set_uint("bytes", stats.value().bytes);
        return out;
      });
}

std::shared_ptr<fam::Module> make_join_module(std::size_t default_workers) {
  return std::make_shared<fam::FunctionModule>(
      "join",
      [default_workers](const KeyValueMap& params) -> Result<KeyValueMap> {
        (void)default_workers;  // build+probe is a streaming pass each
        const auto left_path = params.get("left");
        const auto right_path = params.get("right");
        const auto out_path = params.get("out");
        const auto left_col = params.get_int("left_column");
        const auto right_col = params.get_int("right_column");
        if (!left_path || !right_path || !out_path || !left_col ||
            !right_col || left_col.value() < 0 || right_col.value() < 0) {
          return Error{ErrorCode::kInvalidArgument,
                       "need left, right, out, left_column, right_column"};
        }
        auto left = read_file(*left_path);
        if (!left) return left.error();
        auto right = read_file(*right_path);
        if (!right) return right.error();

        // Build side: hash the left table on its join column.
        const auto lcol = static_cast<std::size_t>(left_col.value());
        const auto rcol = static_cast<std::size_t>(right_col.value());
        std::unordered_multimap<std::string_view, std::string_view> build;
        std::uint64_t rows_left = 0;
        for (std::string_view row : split(left.value(), '\n')) {
          if (row.empty()) continue;
          ++rows_left;
          const auto fields = split(row, ',');
          if (lcol < fields.size()) build.emplace(fields[lcol], row);
        }

        // Probe side: stream the right table, emit joined rows.
        std::string joined;
        std::uint64_t rows_right = 0;
        std::uint64_t rows_out = 0;
        for (std::string_view row : split(right.value(), '\n')) {
          if (row.empty()) continue;
          ++rows_right;
          const auto fields = split(row, ',');
          if (rcol >= fields.size()) continue;
          const auto [lo, hi] = build.equal_range(fields[rcol]);
          for (auto it = lo; it != hi; ++it) {
            joined += it->second;
            for (std::size_t f = 0; f < fields.size(); ++f) {
              if (f == rcol) continue;  // drop the duplicated join key
              joined += ',';
              joined += fields[f];
            }
            joined += '\n';
            ++rows_out;
          }
        }
        if (Status s = write_file(*out_path, joined); !s) {
          return Error{s.error().code(), s.to_string()};
        }
        KeyValueMap out;
        out.set_uint("rows_left", rows_left);
        out.set_uint("rows_right", rows_right);
        out.set_uint("rows_out", rows_out);
        return out;
      });
}

std::string serialize_counts(const std::vector<WordCount>& counts) {
  std::string out;
  for (const auto& kv : counts) {
    out += kv.key;
    out += ' ';
    out += std::to_string(kv.value);
    out += '\n';
  }
  return out;
}

Result<std::vector<WordCount>> parse_counts(std::string_view text) {
  std::vector<WordCount> counts;
  for (std::string_view line : split(text, '\n')) {
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0) {
      return Error{ErrorCode::kProtocolError,
                   "bad counts line: " + std::string{line}};
    }
    const std::string_view value_text = line.substr(space + 1);
    std::uint64_t value = 0;
    const auto [p, e] = std::from_chars(
        value_text.data(), value_text.data() + value_text.size(), value);
    if (e != std::errc{} || p != value_text.data() + value_text.size()) {
      return Error{ErrorCode::kProtocolError,
                   "bad count value: " + std::string{line}};
    }
    counts.push_back(WordCount{std::string{line.substr(0, space)}, value});
  }
  return counts;
}

Status write_matrix(const std::filesystem::path& path, const Matrix& m) {
  std::string text = std::to_string(m.rows()) + ' ' + std::to_string(m.cols()) +
                     '\n';
  char buf[64];
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      std::snprintf(buf, sizeof buf, "%.17g", m.at(r, c));
      text += buf;
      text += c + 1 < m.cols() ? ' ' : '\n';
    }
  }
  return write_file(path, text);
}

Result<Matrix> read_matrix(const std::filesystem::path& path) {
  auto text = read_file(path);
  if (!text) return text.error();
  const auto tokens = split_whitespace(text.value());
  if (tokens.size() < 2) {
    return Error{ErrorCode::kProtocolError, "matrix header missing"};
  }
  std::size_t rows = 0;
  std::size_t cols = 0;
  const auto parse_dim = [](std::string_view t, std::size_t& out) {
    const auto [p, e] = std::from_chars(t.data(), t.data() + t.size(), out);
    return e == std::errc{} && p == t.data() + t.size();
  };
  if (!parse_dim(tokens[0], rows) || !parse_dim(tokens[1], cols)) {
    return Error{ErrorCode::kProtocolError, "bad matrix header"};
  }
  if (tokens.size() != 2 + rows * cols) {
    return Error{ErrorCode::kProtocolError,
                 "matrix body has " + std::to_string(tokens.size() - 2) +
                     " values, want " + std::to_string(rows * cols)};
  }
  Matrix m{rows, cols};
  for (std::size_t i = 0; i < rows * cols; ++i) {
    const std::string_view t = tokens[2 + i];
    double v = 0.0;
    const auto [p, e] = std::from_chars(t.data(), t.data() + t.size(), v);
    if (e != std::errc{} || p != t.data() + t.size()) {
      return Error{ErrorCode::kProtocolError,
                   "bad matrix value: " + std::string{t}};
    }
    m.data()[i] = v;
  }
  return m;
}

}  // namespace mcsd::apps
