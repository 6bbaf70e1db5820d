#include "cluster/malleable.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mcsd::sim {

void fill_shares(std::vector<ShareSlot>& slots, double cores, ShareMode mode) {
  for (auto& s : slots) s.share = 0.0;
  std::vector<ShareSlot*> open;
  open.reserve(slots.size());
  for (auto& s : slots) {
    if (s.cap > 0.0 && (mode == ShareMode::kEqualShare || s.weight > 0.0)) {
      open.push_back(&s);
    }
  }
  double remaining = cores;
  while (remaining > 1e-12 && !open.empty()) {
    double total_weight = 0.0;
    if (mode == ShareMode::kProportional) {
      for (const ShareSlot* s : open) total_weight += s->weight;
      if (total_weight <= 0.0) break;
    }
    double given = 0.0;
    std::vector<ShareSlot*> still_open;
    for (ShareSlot* s : open) {
      const double per =
          mode == ShareMode::kProportional
              ? remaining * s->weight / total_weight
              : remaining / static_cast<double>(open.size());
      const double want = s->cap - s->share;
      const double grant = std::min(per, want);
      s->share += grant;
      given += grant;
      if (s->share + 1e-12 < s->cap) still_open.push_back(s);
    }
    if (given <= 1e-12) break;  // everyone capped
    remaining -= given;
    open = std::move(still_open);
  }
}

namespace {
struct Live {
  std::size_t index;
  double serial_left;
  double parallel_left;
  std::size_t max_threads;
  double share = 0.0;  ///< granted cores this step (fractional)
};

void allocate(std::vector<Live>& live, double cores) {
  std::vector<ShareSlot> slots(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    slots[i].cap = live[i].max_threads == 0
                       ? std::numeric_limits<double>::infinity()
                       : static_cast<double>(live[i].max_threads);
  }
  fill_shares(slots, cores, ShareMode::kEqualShare);
  for (std::size_t i = 0; i < live.size(); ++i) live[i].share = slots[i].share;
}

/// Serial work occupies at most one core; with a fractional share it
/// proceeds at that fraction of wall rate, and with none it stalls.
double serial_rate(const Live& j) { return std::min(j.share, 1.0); }
}  // namespace

MalleableResult schedule_malleable(const std::vector<MalleableJob>& jobs,
                                   const CpuModel& cpu) {
  if (cpu.cores == 0 || cpu.core_speed <= 0.0) {
    throw std::invalid_argument("schedule_malleable: bad CpuModel");
  }
  MalleableResult result;
  result.finish_seconds.assign(jobs.size(), 0.0);

  std::vector<Live> live;
  live.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].serial_seconds < 0.0 || jobs[i].parallel_work < 0.0) {
      throw std::invalid_argument("schedule_malleable: negative work");
    }
    if (jobs[i].serial_seconds == 0.0 && jobs[i].parallel_work == 0.0) {
      continue;  // finishes at t = 0
    }
    live.push_back(Live{i, jobs[i].serial_seconds, jobs[i].parallel_work,
                        jobs[i].max_threads, 0.0});
  }

  double now = 0.0;
  while (!live.empty()) {
    allocate(live, static_cast<double>(cpu.cores));
    // Time to each job's completion under the current allocation: serial
    // runs first at min(share, 1), then parallel at share*speed.
    double step = std::numeric_limits<double>::infinity();
    for (const Live& j : live) {
      const double s_rate = serial_rate(j);
      const double p_rate = j.share * cpu.core_speed;
      double t = j.serial_left > 0.0
                     ? (s_rate > 0.0 ? j.serial_left / s_rate
                                     : std::numeric_limits<double>::infinity())
                     : 0.0;
      if (j.parallel_left > 0.0) {
        t += p_rate > 0.0 ? j.parallel_left / p_rate
                          : std::numeric_limits<double>::infinity();
      }
      step = std::min(step, t);
    }
    if (!std::isfinite(step)) {
      throw std::logic_error("schedule_malleable: stalled (zero allocation)");
    }
    now += step;
    // Advance everyone by `step`, remove the finished.
    std::vector<Live> next;
    next.reserve(live.size());
    for (Live j : live) {
      double budget = step;
      if (j.serial_left > 0.0) {
        const double s_rate = serial_rate(j);
        const double serial_time =
            s_rate > 0.0 ? j.serial_left / s_rate
                         : std::numeric_limits<double>::infinity();
        const double used = std::min(serial_time, budget);
        j.serial_left -= used * s_rate;
        budget -= used;
      }
      if (budget > 0.0) {
        j.parallel_left -= budget * j.share * cpu.core_speed;
      }
      if (j.serial_left <= 1e-9 && j.parallel_left <= 1e-6) {
        result.finish_seconds[j.index] = now;
      } else {
        next.push_back(j);
      }
    }
    if (next.size() == live.size()) {
      // Float epsilon kept everything alive: forcibly finish the minimum
      // to guarantee progress.
      std::size_t victim = 0;
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < next.size(); ++i) {
        const double left = next[i].serial_left + next[i].parallel_left;
        if (left < best) {
          best = left;
          victim = i;
        }
      }
      result.finish_seconds[next[victim].index] = now;
      next.erase(next.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    live = std::move(next);
  }

  for (double f : result.finish_seconds) {
    result.makespan_seconds = std::max(result.makespan_seconds, f);
  }
  return result;
}

}  // namespace mcsd::sim
