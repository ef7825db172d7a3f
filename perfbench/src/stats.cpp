#include "stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) {
    if (!(x > 0)) return 0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  const auto n = static_cast<double>(v.size());
  const auto rank =
      static_cast<std::size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

Pct percentile(const discs::obs::Histogram& h, double q) {
  if (h.count() == 0) return {};
  return {h.percentile(q), h.count()};
}

double failed_frac(std::uint64_t failed, std::uint64_t attempted) {
  if (attempted == 0) return 1;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

std::string self_test() {
  std::ostringstream why;
  auto near = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
  };
  auto expect = [&](bool ok, const char* what) {
    if (!ok && why.str().empty()) why << what;
  };
  expect(near(median({3, 1, 2}), 2), "median of odd count");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of even count");
  expect(median({}) == 0, "median of nothing");
  expect(near(geomean({1, 4}), 2), "geomean {1,4}");
  expect(near(geomean({2, 8, 4}), 4), "geomean {2,8,4}");
  // A 2x win on one of two protocols moves the geomean by sqrt(2).
  expect(near(geomean({200, 100}) / geomean({100, 100}), std::sqrt(2.0)),
         "geomean 2x win on one protocol");
  expect(geomean({1, 0}) == 0, "geomean with a zero");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(near(quantile(hundred, kFastRate), 90), "90th percentile of 1..100");
  expect(near(quantile(hundred, kFastTime), 10), "10th percentile of 1..100");
  expect(near(quantile({5, 1, 3}, kFastTime), 1),
         "10th percentile of 3 rounds");
  expect(near(quantile({7}, kFastRate), 7), "quantile of one sample");
  expect(quantile({}, 0.5) == 0, "quantile of nothing");
  // obs::Histogram ranks at round(q * (n - 1)), 0-based, and is exact
  // below 32: over 1..20, p50 is 11 and p90 is 18.
  discs::obs::Histogram h;
  for (int i = 1; i <= 20; ++i) h.record(static_cast<std::uint64_t>(i));
  const Pct p50 = percentile(h, 0.50);
  const Pct p90 = percentile(h, 0.90);
  expect(near(p50.value, 11) && p50.samples == 20, "p50 of 1..20");
  expect(near(p90.value, 18) && p90.samples == 20, "p90 of 1..20");
  discs::obs::Histogram one;
  one.record(7);
  expect(near(percentile(one, 0.90).value, 7), "p90 of one sample");
  expect(percentile(discs::obs::Histogram{}, 0.5).samples == 0,
         "empty histogram");
  expect(near(failed_frac(1, 4), 0.25), "failed_frac 1/4");
  expect(failed_frac(0, 7) == 0, "failed_frac 0/7");
  expect(failed_frac(0, 0) == 1, "failed_frac with nothing attempted");
  return why.str();
}

}  // namespace perfbench
