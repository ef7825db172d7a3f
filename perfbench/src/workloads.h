// The four benchmark workloads and the two kinds of run over them.
//
//   sim-sustained  wl::run_workload_sequential on the simulator, eight
//                  correct protocols, thousands of transactions per cluster
//   chaos-audit    chaos::random_plan + chaos::run_once (faulted random
//                  scheduler, checkers, progress audit), four protocols
//   rt-closed      rt::run with capture off, cops and eiger
//   rt-oracle      rt::run with capture on, export, import, replay on the
//                  simulator, claimed checker — wren
//
// An end-to-end run measures one workload with tracing off.  A traced run
// measures every workload's layers: the same rounds untraced and traced,
// spans around each library call, counter deltas around the same calls.
// perfbench/README.md maps each metric to its layer and workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  ///< for percentiles: samples taken over
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> misses;  ///< one line per failed check

  void add(std::string name, double value, std::string unit,
           std::uint64_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void miss(std::string what) {
    ++failed;
    misses.push_back(std::move(what));
  }
};

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string out_dir;  ///< where the traced run writes its artifacts
};

const std::vector<std::string>& workload_names();

/// End-to-end run of `workload` (tracing off).
Report run_end_to_end(const std::string& workload, const RunArgs& args);

/// Traced run over all four workloads, `first` first.
Report run_traced(const std::string& first, const RunArgs& args);

}  // namespace perfbench
