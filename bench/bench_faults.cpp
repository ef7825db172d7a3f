// Fault-engine cost (google-benchmark): what injecting faults adds on top
// of plain scheduling, and how the network's MsgId index holds up when a
// plan delays thousands of messages into a long in-flight backlog.
//
//   BM_WorkloadBaseline      the unfaulted concurrent workload driver
//   BM_WorkloadEmptyPlan     same traffic through the faulted driver with a
//                            rule-free plan, which can never fire and so
//                            runs the fault-free loop: pins that it is free
//   BM_WorkloadLossyPlan     drop 20% + retransmit: the engine actually
//                            working
//   BM_BacklogDeliver        deliver N backlogged messages by id (O(1) per
//                            delivery with the index; used to be O(n))
//   BM_BacklogFindInFlight   point lookups into the same backlog
//
// Custom main (same contract as bench_sim):
//   --smoke        tiny min_time per benchmark (CI wiring check)
//   --out=PATH     JSON results path (default BENCH_faults.json)
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "fault/session.h"
#include "proto/registry.h"
#include "sim/network.h"
#include "util/rng.h"
#include "workload/workload.h"

using namespace discs;

namespace {

proto::ClusterConfig cluster_config() {
  proto::ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.num_clients = 5;
  cfg.num_objects = 6;
  return cfg;
}

wl::WorkloadConfig workload_config() {
  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 30;
  wcfg.seed = 9;
  wcfg.write_fraction = 0.5;
  return wcfg;
}

void run_workload(benchmark::State& state, const fault::FaultPlan* plan) {
  auto protocol = proto::protocol_by_name("cops-snow");
  std::size_t events = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    proto::IdSource ids;
    proto::Cluster cluster = protocol->build(sim, cluster_config(), ids);
    wl::WorkloadResult result;
    if (plan) {
      fault::FaultSession session(*plan,
                                  {cluster.view.servers, cluster.clients});
      result = wl::run_workload_concurrent_faulted(
          sim, *protocol, cluster, ids, workload_config(), session);
    } else {
      result = wl::run_workload_concurrent(sim, *protocol, cluster, ids,
                                           workload_config());
    }
    benchmark::DoNotOptimize(result);
    events += sim.now();
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

void BM_WorkloadBaseline(benchmark::State& state) {
  run_workload(state, nullptr);
}

void BM_WorkloadEmptyPlan(benchmark::State& state) {
  fault::FaultPlan empty;
  run_workload(state, &empty);
}

void BM_WorkloadLossyPlan(benchmark::State& state) {
  fault::FaultPlan lossy = fault::drop_retransmit_plan(0.2, 5);
  run_workload(state, &lossy);
}

/// A network carrying `n` undelivered messages, as a long delay plan would
/// produce.  Payloads are null: this measures buffer mechanics only.
sim::Network backlog_network(std::uint64_t n) {
  sim::Network net;
  for (std::uint64_t i = 0; i < n; ++i) {
    sim::Message m;
    m.id = sim::make_msg_id(ProcessId(i % 7), i);
    m.src = ProcessId(i % 7);
    m.dst = ProcessId((i + 1) % 7);
    net.post(std::move(m));
  }
  return net;
}

void BM_BacklogDeliver(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  sim::Network base = backlog_network(n);
  std::vector<MsgId> order;
  Rng rng(5);
  for (const auto& m : base.in_flight()) order.push_back(m.id);
  for (std::uint64_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  for (auto _ : state) {
    sim::Network net = base;
    for (MsgId id : order) benchmark::DoNotOptimize(net.deliver(id));
  }
  state.counters["deliveries/s"] = benchmark::Counter(
      static_cast<double>(n * state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_BacklogFindInFlight(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  sim::Network net = backlog_network(n);
  Rng rng(5);
  for (auto _ : state) {
    MsgId id = sim::make_msg_id(ProcessId(rng.below(7)), rng.below(n));
    benchmark::DoNotOptimize(net.find_in_flight(id));
  }
}

bool register_benchmarks() {
  try {
    proto::protocol_by_name("cops-snow");  // validate before registering
    benchmark::RegisterBenchmark("BM_WorkloadBaseline", BM_WorkloadBaseline);
    benchmark::RegisterBenchmark("BM_WorkloadEmptyPlan", BM_WorkloadEmptyPlan);
    benchmark::RegisterBenchmark("BM_WorkloadLossyPlan", BM_WorkloadLossyPlan);
    // Every size in smoke mode too: the baseline's family coverage check
    // lists all three, and the whole set runs in well under a second.
    for (std::int64_t n : {1000, 10000, 100000}) {
      benchmark::RegisterBenchmark("BM_BacklogDeliver", BM_BacklogDeliver)
          ->Arg(n);
      benchmark::RegisterBenchmark("BM_BacklogFindInFlight",
                                   BM_BacklogFindInFlight)
          ->Arg(n);
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_faults: benchmark registration failed: " << e.what()
              << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_faults.json";
  bool smoke = false;
  std::vector<char*> args;
  std::string min_time_flag;
  for (int i = 0; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a == "--smoke") {
      smoke = true;
      continue;
    }
    if (a.rfind("--out=", 0) == 0) {
      out_path = std::string(a.substr(6));
      continue;
    }
    args.push_back(argv[i]);
  }
  if (smoke) {
    min_time_flag = "--benchmark_min_time=0.01";
    args.push_back(min_time_flag.data());
  }
  std::string out_flag = "--benchmark_out=" + out_path;
  std::string fmt_flag = "--benchmark_out_format=json";
  args.push_back(out_flag.data());
  args.push_back(fmt_flag.data());

  if (!register_benchmarks()) return 1;

  int argn = static_cast<int>(args.size());
  benchmark::Initialize(&argn, args.data());
  if (benchmark::ReportUnrecognizedArguments(argn, args.data())) return 1;

  std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (ran == 0) {
    std::cerr << "bench_faults: no benchmarks ran\n";
    return 1;
  }
  std::cerr << "bench_faults: wrote " << out_path << " (" << ran
            << " benchmarks)\n";
  return 0;
}
