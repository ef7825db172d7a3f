// Metric arithmetic shared by every workload: medians, geometric means,
// percentiles that carry their sample count, and the failure fraction.
// self_test() checks these against hand-computed values on every run, so
// a broken formula fails the run instead of skewing its numbers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace perfbench {

/// A percentile and the number of samples it was taken over.
struct Pct {
  double value = 0;
  std::uint64_t samples = 0;
};

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
double median(std::vector<double> v);

/// Geometric mean of strictly positive values; 0 when empty or when any
/// value is not positive (a zero throughput is a failure, not a factor).
double geomean(const std::vector<double>& v);

/// Nearest-rank quantile of raw samples, q in [0, 1]; 0 when empty.
double quantile(std::vector<double> v, double q);

/// Where per-round wall-clock figures are read: the 10th percentile of
/// times and the 90th of rates, i.e. the fast end of the rounds.  Other
/// tenants of a shared machine only ever slow a round down, for seconds to
/// minutes at a time, so the fast end is what repeats between runs; the
/// median moves with how much of the run such a stretch covered.
inline constexpr double kFastTime = 0.10;
inline constexpr double kFastRate = 0.90;

/// Percentile of a histogram (bucket representative, ~3% resolution).
Pct percentile(const discs::obs::Histogram& h, double q);

/// failed / attempted; 1 when nothing was attempted (no evidence of
/// success counts as failure).
double failed_frac(std::uint64_t failed, std::uint64_t attempted);

/// Checks the functions above on fixed inputs.  Returns an empty string
/// when all hold, else a description of the first mismatch.
std::string self_test();

}  // namespace perfbench
