// Deterministic fault injection at the core/io boundary.
//
// The smartFAM channel is a set of append-only log files on a shared
// folder — exactly the medium where torn writes, transient EIO, lost
// watcher events, and ENOSPC silently violate the invoke→dispatch→result
// contract.  Rather than waiting for NFS to produce those faults, this
// layer injects them on purpose, scheduled deterministically from a
// seed, so the soak harness (tools/mcsd_soak) and the unit tests can
// replay the exact same fault sequence for a given plan.
//
// Model: every instrumented operation is a *site* (read_file,
// write_file_atomic, streaming frame acquisition, watcher change events).
// Each call at a site consumes one step of that site's counter; a
// FaultPlan maps (site, kind, step) to fire/skip either by an explicit
// step schedule ("write.torn=@3") or by a seed-hashed Bernoulli draw
// ("read.eio=0.05").  Decisions depend only on (seed, site, kind, step),
// so a single-threaded caller sees a fully reproducible sequence; under
// concurrency the per-site fault *sequence* is still deterministic while
// which thread absorbs each fault follows the scheduler.
//
// The injector is process-global but dormant by default: when no plan is
// installed the per-site hook is a single relaxed atomic load.  Install
// via FaultScope (tests, soak) or fault::install_from_env (tools, env
// var MCSD_FAULTS).  Injections are counted internally (for soak
// reports) and mirrored into obs counters (`fault.injected_*`) through a
// sink the obs layer registers — core itself never links obs.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/result.hpp"

namespace mcsd::fault {

/// Instrumented operations.
enum class Site : std::uint8_t {
  kReadFile,      ///< core/io read_file
  kWriteFile,     ///< core/io write_file_atomic
  kRefill,        ///< part::StreamingFragmentSource pin of one frame
  kWatchEvent,    ///< fam watcher change-event delivery
  kStorageRead,   ///< storage buffer pool page load (pread)
  kStorageWrite,  ///< storage buffer pool dirty-page write-back (pwrite)
};
inline constexpr std::size_t kSiteCount = 6;

/// What goes wrong.  Not every kind applies to every site; FaultPlan
/// parsing rejects impossible pairs.
enum class Kind : std::uint8_t {
  kNone = 0,
  kEio,            ///< operation fails with kIoError (read/write/refill)
  kTorn,           ///< silent truncation: read returns / write lands a prefix
  kShortWrite,     ///< write lands a prefix *and* reports kIoError
  kEnospc,         ///< write fails with an ENOSPC-style kIoError
  kDelayedRename,  ///< atomic-replace rename stalls, then succeeds
  kSuppressEvent,  ///< watcher change event is dropped
};
inline constexpr std::size_t kKindCount = 7;

[[nodiscard]] std::string_view to_string(Site site) noexcept;
[[nodiscard]] std::string_view to_string(Kind kind) noexcept;

/// One scheduling rule: fire `kind` at `site` either on the explicit
/// 1-based `steps` or with `probability` per step (steps win when set).
struct Rule {
  Site site = Site::kReadFile;
  Kind kind = Kind::kNone;
  double probability = 0.0;
  std::vector<std::uint64_t> steps;
};

/// The outcome of a site hook: what to inject (kNone = nothing) plus a
/// deterministic entropy word the site uses for secondary choices (e.g.
/// where to truncate a torn write).
struct Decision {
  Kind kind = Kind::kNone;
  std::uint64_t entropy = 0;
};

struct FaultPlan {
  std::uint64_t seed = 1;
  /// Stall applied by kDelayedRename.
  std::chrono::milliseconds rename_delay{5};
  /// When non-empty, only paths matching the filter are faulted (and
  /// only they consume site steps) — lets a soak target the log folder
  /// while leaving unrelated I/O clean.  The filter is one or more
  /// '|'-separated substring alternatives ("echo.log|shards/"), so a
  /// plan aimed at the sharded mailbox channel can cover every
  /// `shards/shard-<k>.log` and `replies/client-<id>.log` with one
  /// entry instead of naming each file.  '|' rather than ',' because
  /// commas double as record separators in inline specs.
  std::string path_filter;

  /// True when `path` passes the filter (empty filter passes all).
  [[nodiscard]] bool path_matches(std::string_view path) const noexcept;
  std::vector<Rule> rules;

  [[nodiscard]] bool empty() const noexcept { return rules.empty(); }

  /// Parses a plan from key=value records.  Keys:
  ///   seed=<u64>  rename_delay_ms=<int>  path_filter=<substring>
  ///   <site>.<kind>=<probability in [0,1]> | @s1[+s2...]   (1-based steps)
  /// Sites: read write refill watch sread swrite.  Kinds: eio torn short
  /// enospc delay suppress.  Unknown keys or impossible site/kind pairs
  /// error.
  static Result<FaultPlan> from_config(const KeyValueMap& config);

  /// Convenience: "none"/"" (empty plan), "default" (the standard soak
  /// mix), or an inline comma- or newline-separated key=value spec.
  static Result<FaultPlan> from_spec(std::string_view spec);

  /// The standard soak mix: a few percent of EIO/torn/short/ENOSPC on
  /// the io sites, delayed renames, and ~10% suppressed watch events.
  static FaultPlan default_plan(std::uint64_t seed);
};

/// Process-global injector.  install()/uninstall() reset step counters
/// and injection tallies, so every installed plan replays from step 1.
class Injector {
 public:
  static Injector& instance();

  void install(FaultPlan plan);
  void uninstall();

  /// Fast dormancy check — one relaxed load, no plan access.
  [[nodiscard]] bool active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  /// Consumes one step at `site` (when the path passes the filter) and
  /// returns what, if anything, to inject.
  Decision decide(Site site, std::string_view path);

  [[nodiscard]] std::chrono::milliseconds rename_delay() const;

  /// Injection tallies since the last install().
  [[nodiscard]] std::uint64_t injected(Site site, Kind kind) const;
  [[nodiscard]] std::uint64_t total_injected() const;
  /// All non-zero tallies as `fault.injected_<site>_<kind>=<n>` entries.
  [[nodiscard]] KeyValueMap injected_report() const;

 private:
  Injector() = default;

  mutable std::mutex mutex_;  ///< guards plan_
  std::shared_ptr<const FaultPlan> plan_;
  std::atomic<bool> active_{false};
  std::array<std::atomic<std::uint64_t>, kSiteCount> steps_{};
  std::array<std::atomic<std::uint64_t>, kSiteCount * kKindCount> injected_{};
};

/// Site hook used by the instrumented code paths: free when dormant.
inline Decision check(Site site, std::string_view path) {
  Injector& injector = Injector::instance();
  if (!injector.active()) return {};
  return injector.decide(site, path);
}

/// Observer the obs layer registers so injections surface as
/// `fault.injected_*` counters without core depending on obs.
using Sink = void (*)(Site site, Kind kind);
void set_injection_sink(Sink sink) noexcept;

/// RAII plan installation for tests and the soak harness.
class FaultScope {
 public:
  explicit FaultScope(FaultPlan plan) {
    Injector::instance().install(std::move(plan));
  }
  ~FaultScope() { Injector::instance().uninstall(); }

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;
};

/// Installs a plan from the MCSD_FAULTS environment variable (an inline
/// spec, or a path to a key=value file).  No-op when unset; an invalid
/// spec is an error so a typo'd plan never silently runs fault-free.
Status install_from_env();

}  // namespace mcsd::fault
