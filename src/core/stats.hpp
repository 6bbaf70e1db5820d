// Descriptive statistics for benchmark reporting.
#pragma once

#include <vector>

namespace mcsd {

/// Percentile of a sample by linear interpolation.  `q` in [0, 1].
/// Precondition: !values.empty().  Copies and sorts internally.
double percentile(std::vector<double> values, double q);

}  // namespace mcsd
