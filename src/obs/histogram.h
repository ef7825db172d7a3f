// Log-bucketed (HDR-style) histogram for latency-shaped u64 samples.
//
// The registry's counters answer "how many"; histograms answer "how are
// they distributed" without storing every sample.  Values below 2^kSubBits
// get exact buckets; above that, each power of two is split into
// 2^kSubBits sub-buckets, bounding the relative quantization error at
// 1/2^kSubBits (~3%) across the full u64 range.  All operations are
// deterministic, so histograms of simulated quantities (ClientBase's
// client.tx / client.rot latency_events) are reproducible event counts,
// not wall-clock noise.  bench_latency's percentile tables do not come
// from here: they use metrics::Summary, which keeps every sample and
// interpolates between them.
//
// merge() is the absorb-compatible fold: bucket-wise addition plus
// min/max/count/sum combination, used when `discs::par` worker registries
// join the caller (Registry::absorb).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace discs::obs {

class Histogram {
 public:
  /// Sub-bucket resolution: each power-of-two range splits into
  /// 2^kSubBits buckets (values < 2^kSubBits are exact).
  static constexpr int kSubBits = 5;

  void record(std::uint64_t value);
  /// Adds every sample of `other` into this histogram.
  void merge(const Histogram& other);
  void reset();

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  /// True once the running sum hit the u64 ceiling; sum() (and therefore
  /// mean()) are lower bounds from that point on instead of wrapped garbage.
  bool sum_saturated() const { return sum_saturated_; }
  /// Smallest / largest recorded sample; 0 when empty.
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double mean() const;  ///< NaN when empty

  /// Bucket-representative percentile, q clamped into [0, 1]; monotone in
  /// q, clamped into [min, max], exact when <= one bucket is occupied.
  /// NaN when empty.
  double percentile(double q) const;
  double p50() const { return percentile(0.50); }
  double p95() const { return percentile(0.95); }
  double p99() const { return percentile(0.99); }

  /// One-line summary: `count=N mean=m p50=a p95=b p99=c max=d`.
  std::string str() const;

  /// Bucket mapping, exposed for tests and docs/PROFILING.md: the bucket
  /// `value` lands in, and that bucket's inclusive lower bound / width.
  static std::size_t bucket_index(std::uint64_t value);
  static std::uint64_t bucket_low(std::size_t index);
  static std::uint64_t bucket_width(std::size_t index);

 private:
  void add_to_sum(std::uint64_t value);

  std::vector<std::uint64_t> buckets_;  ///< grown lazily to the top bucket
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  bool sum_saturated_ = false;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

}  // namespace discs::obs
