// DISCS benchmark driver.
//
//   discs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out-dir DIR]
//
// --trace 0 runs one workload end to end with tracing off and prints its
// end-to-end metrics.  --trace 1 runs the traced layer ledger over all four
// workloads (NAME first) and prints the per-layer metrics; with --out-dir it
// also writes the spans and counters as a discs.metrics.v1 sample
// (DIR/traced.metrics.jsonl) and the first rt-oracle capture
// (DIR/rt-oracle.trace.jsonl).
//
// Every metric is printed as one "name value unit" line; the last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when the run completed (correct or not), 2 on bad usage,
// 1 when the run could not complete.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "stats.h"
#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "discs_perfbench: " << why
            << "\nusage: discs_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\nworkloads:";
  for (const auto& n : perfbench::workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunArgs args;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage(a + " needs a value");
      const std::string v = argv[++i];
      if (a == "--workload") {
        workload = v;
      } else if (a == "--seed") {
        args.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        args.seconds = std::stod(v);
        have_seconds = args.seconds > 0;
      } else if (a == "--trace") {
        trace = v == "0" ? 0 : v == "1" ? 1 : -1;
      } else if (a == "--out-dir") {
        args.out_dir = v;
      } else {
        return usage("unknown argument " + a);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  bool known = false;
  for (const auto& n : perfbench::workload_names()) known |= n == workload;
  if (!known) return usage("unknown workload '" + workload + "'");
  if (!have_seed || !have_seconds || trace < 0)
    return usage("--seed, --seconds (> 0) and --trace 0|1 are required");

  perfbench::Report rep;
  const std::string math = perfbench::self_test();
  if (!math.empty()) rep.miss("metric math self-test failed: " + math);
  try {
    perfbench::Report run = trace == 1
                                ? perfbench::run_traced(workload, args)
                                : perfbench::run_end_to_end(workload, args);
    run.attempted += rep.attempted;
    run.failed += rep.failed;
    run.misses.insert(run.misses.begin(), rep.misses.begin(), rep.misses.end());
    rep = std::move(run);
  } catch (const std::exception& e) {
    std::cerr << "discs_perfbench: " << workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  for (const auto& m : rep.misses) std::cout << "MISS " << m << "\n";
  std::cout << "workload " << workload << " seed " << args.seed << " trace "
            << trace << "\n";
  for (const auto& m : rep.metrics) {
    std::cout << "  " << m.name << " " << m.value << " " << m.unit;
    if (m.samples > 0) std::cout << " (n=" << m.samples << ")";
    std::cout << "\n";
  }
  std::cout << "  failed_frac "
            << perfbench::failed_frac(rep.failed, rep.attempted) << " ratio ("
            << rep.failed << " of " << rep.attempted << ")\n";

  std::ostringstream js;
  js << "{\"correct\": " << (rep.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& m = rep.metrics[i];
    js << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}
