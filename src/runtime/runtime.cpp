#include "runtime/runtime.hpp"

#include <algorithm>
#include <numeric>
#include <thread>

#include "apps/modules.hpp"
#include "apps/stringmatch.hpp"
#include "cluster/profiles.hpp"
#include "core/io.hpp"
#include "core/stopwatch.hpp"
#include "core/strings.hpp"
#include "mapreduce/engine.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "partition/outofcore.hpp"

namespace mcsd::rt {

namespace fs = std::filesystem;

McsdRuntime::McsdRuntime(RuntimeOptions options)
    : options_(std::move(options)) {
  clients_.reserve(options_.storage_nodes.size());
  for (const SdEndpoint& endpoint : options_.storage_nodes) {
    fam::ClientOptions copts;
    copts.log_dir = endpoint.log_dir;
    copts.timeout = options_.invoke_timeout;
    copts.max_attempts = options_.invoke_attempts;
    clients_.push_back(std::make_unique<fam::Client>(copts));
  }
}

McsdRuntime::~McsdRuntime() = default;

void McsdRuntime::force_placement(Placement placement) {
  forced_ = true;
  forced_placement_ = placement;
}

void McsdRuntime::placement_auto() { forced_ = false; }

Placement McsdRuntime::place(std::uint64_t bytes,
                             double seconds_per_mib) const {
  if (forced_) return forced_placement_;
  if (clients_.empty()) return Placement::kHost;
  // The runtime's inputs are host-resident (callers pass in-memory
  // text), so offloading has to push the data first.
  return options_.policy
      .decide(bytes, seconds_per_mib, /*data_on_storage=*/false)
      .placement;
}

std::vector<std::pair<std::size_t, std::size_t>> McsdRuntime::shard_text(
    std::string_view text, bool newline_aligned) const {
  std::vector<std::pair<std::size_t, std::size_t>> shards;
  const std::size_t nodes = options_.storage_nodes.size();
  if (nodes == 0 || text.empty()) return shards;

  // Weight shard sizes by node capability: a quad-core endpoint takes
  // twice the bytes of a duo — this is the load-balancing half of the
  // paper's framework promise.
  double total_capability = 0.0;
  for (const SdEndpoint& e : options_.storage_nodes) {
    total_capability += e.site.capability();
  }

  const auto is_boundary = [&](char c) {
    return newline_aligned ? c == '\n' : is_default_delimiter(c);
  };

  std::size_t pos = 0;
  for (std::size_t n = 0; n < nodes && pos < text.size(); ++n) {
    std::size_t end;
    if (n + 1 == nodes) {
      end = text.size();
    } else {
      const double share =
          options_.storage_nodes[n].site.capability() / total_capability;
      end = pos + static_cast<std::size_t>(
                      share * static_cast<double>(text.size()));
      end = std::min(end, text.size());
      // Record-boundary alignment, same rule as the partition module.
      while (end < text.size() && !is_boundary(text[end])) ++end;
      while (end < text.size() && is_boundary(text[end])) ++end;
    }
    if (end > pos) shards.emplace_back(pos, end);
    pos = end;
  }
  return shards;
}

Result<WordCountResult> McsdRuntime::word_count(std::string_view text) {
  MCSD_OBS_SPAN("rt", "rt.word_count");
  const double rate = sim::wordcount_profile().seconds_per_mib;
  const PlacementDecision decision =
      options_.policy.decide(text.size(), rate, /*data_on_storage=*/false);
  WordCountResult result;
  result.report.predicted_host_seconds = decision.host_seconds;
  result.report.predicted_offload_seconds = decision.offload_seconds;
  result.report.placement = place(text.size(), rate);

  Stopwatch watch;
  if (result.report.placement == Placement::kHost || clients_.empty()) {
    result.report.placement = Placement::kHost;
    mr::Options opts;
    opts.num_workers = options_.host_workers;
    mr::Engine<apps::WordCountSpec> engine{opts};
    part::PartitionOptions popts;
    popts.partition_size = options_.host_partition_size;
    part::TextJob<apps::WordCountSpec> job;
    job.incremental_merge = part::sum_incremental<std::string, std::uint64_t>();
    result.counts = part::run_partitioned(engine, apps::WordCountSpec{},
                                          text, popts, job);
  } else {
    // Shard across every storage node; invoke concurrently.
    const auto shards = shard_text(text, /*newline_aligned=*/false);
    result.report.storage_nodes_used = shards.size();
    const std::uint64_t job_id = next_job_id_++;

    std::vector<Result<std::vector<apps::WordCount>>> partials;
    partials.reserve(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      partials.emplace_back(std::vector<apps::WordCount>{});
    }
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      threads.emplace_back([&, i] {
        const auto [begin, end] = shards[i];
        const fs::path shard_path =
            options_.storage_nodes[i].log_dir /
            ("wc-shard-" + std::to_string(job_id) + "-" + std::to_string(i) +
             ".txt");
        if (Status s = write_file(shard_path,
                                  text.substr(begin, end - begin));
            !s) {
          partials[i] = Error{s.error().code(), s.to_string()};
          return;
        }
        KeyValueMap params;
        params.set("input", shard_path.string());
        params.set_bool("full_counts", true);
        params.set_int("top", 0);
        auto response = clients_[i]->invoke("wordcount", params);
        std::error_code ec;
        fs::remove(shard_path, ec);  // best-effort cleanup
        if (!response) {
          partials[i] = response.error();
          return;
        }
        const auto table = response.value().get("counts");
        if (!table) {
          partials[i] = Error{ErrorCode::kProtocolError,
                              "module returned no counts table"};
          return;
        }
        partials[i] = apps::parse_counts(*table);
      });
    }
    for (auto& t : threads) t.join();

    // Fold each node's table into the result in node order.
    for (std::size_t i = 0; i < partials.size(); ++i) {
      if (!partials[i]) {
        if (!options_.fallback_to_host) return partials[i].error();
        // Fault tolerance: recompute the failed shard locally.
        const auto [begin, end] = shards[i];
        part::sum_merge_into(
            result.counts,
            apps::wordcount_sequential(text.substr(begin, end - begin)));
        ++result.report.shards_recovered;
        MCSD_OBS_COUNT("rt.shards_recovered", 1);
        continue;
      }
      part::sum_merge_into(result.counts, std::move(partials[i]).value());
    }
  }
  apps::sort_by_frequency_desc(result.counts);
  result.report.elapsed_seconds = watch.elapsed_seconds();
  return result;
}

Result<StringMatchResult> McsdRuntime::string_match(
    std::string_view text, const std::vector<std::string>& keys) {
  MCSD_OBS_SPAN("rt", "rt.string_match");
  if (keys.empty()) {
    return Error{ErrorCode::kInvalidArgument, "string_match needs keys"};
  }
  const double rate = sim::stringmatch_profile().seconds_per_mib;
  const PlacementDecision decision =
      options_.policy.decide(text.size(), rate, /*data_on_storage=*/false);
  StringMatchResult result;
  result.report.predicted_host_seconds = decision.host_seconds;
  result.report.predicted_offload_seconds = decision.offload_seconds;
  result.report.placement = place(text.size(), rate);

  Stopwatch watch;
  if (result.report.placement == Placement::kHost || clients_.empty()) {
    result.report.placement = Placement::kHost;
    apps::StringMatchSpec spec;
    spec.keys = keys;
    mr::Options opts;
    opts.num_workers = options_.host_workers;
    mr::Engine<apps::StringMatchSpec> engine{opts};
    result.matches = engine.run(spec, mr::split_lines(text, 256 * 1024)).size();
  } else {
    const auto shards = shard_text(text, /*newline_aligned=*/true);
    result.report.storage_nodes_used = shards.size();
    const std::uint64_t job_id = next_job_id_++;
    std::string keys_csv;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (k != 0) keys_csv += ',';
      keys_csv += keys[k];
    }

    std::vector<Result<std::uint64_t>> partials;
    partials.reserve(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      partials.emplace_back(std::uint64_t{0});
    }
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      threads.emplace_back([&, i] {
        const auto [begin, end] = shards[i];
        const fs::path shard_path =
            options_.storage_nodes[i].log_dir /
            ("sm-shard-" + std::to_string(job_id) + "-" + std::to_string(i) +
             ".txt");
        if (Status s = write_file(shard_path,
                                  text.substr(begin, end - begin));
            !s) {
          partials[i] = Error{s.error().code(), s.to_string()};
          return;
        }
        KeyValueMap params;
        params.set("input", shard_path.string());
        params.set("keys", keys_csv);
        auto response = clients_[i]->invoke("stringmatch", params);
        std::error_code ec;
        fs::remove(shard_path, ec);
        if (!response) {
          partials[i] = response.error();
          return;
        }
        auto matches = response.value().get_uint("matches");
        if (!matches) {
          partials[i] = matches.error();
          return;
        }
        partials[i] = matches.value();
      });
    }
    for (auto& t : threads) t.join();

    std::uint64_t total = 0;
    for (std::size_t i = 0; i < partials.size(); ++i) {
      if (!partials[i]) {
        if (!options_.fallback_to_host) return partials[i].error();
        const auto [begin, end] = shards[i];
        total += apps::stringmatch_sequential(
                     text.substr(begin, end - begin), keys)
                     .size();
        ++result.report.shards_recovered;
        MCSD_OBS_COUNT("rt.shards_recovered", 1);
        continue;
      }
      total += partials[i].value();
    }
    result.matches = total;
  }
  result.report.elapsed_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace mcsd::rt
