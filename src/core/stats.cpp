#include "core/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcsd {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    throw std::invalid_argument("percentile of empty sample");
  }
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace mcsd
