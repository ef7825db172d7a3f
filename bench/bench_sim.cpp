// Simulator substrate throughput (google-benchmark): event application
// rate, configuration snapshot/branch cost, digest memoization, and store
// lookup cost.  These bound how much adversarial exploration (fuzz seeds,
// induction steps) a given time budget buys.
//
// Snapshots are copy-on-write, so their cost is O(processes), independent
// of history length; BM_SnapshotDeepDiverge forces full divergence (every
// process cloned, trace forked) to expose the old deep-copy cost for
// comparison — the Snapshot/SnapshotDeepDiverge ratio at large histories
// is the COW win.
//
// Custom main:
//   --smoke        tiny min_time per benchmark (CI wiring check)
//   --out=PATH     JSON results path (default BENCH_sim.json)
// plus all standard --benchmark_* flags.  Exits nonzero if benchmark
// registration fails or zero benchmarks run.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstring>
#include <exception>
#include <functional>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "clock/clocks.h"
#include "kv/store.h"
#include "obs/registry.h"
#include "par/parallel.h"
#include "proto/common/client.h"
#include "proto/registry.h"
#include "sim/schedule.h"
#include "util/rng.h"
#include "workload/workload.h"

using namespace discs;
using proto::ClientBase;

namespace {

constexpr std::size_t kServers = 4;
constexpr std::size_t kClients = 6;
constexpr std::size_t kObjects = 8;

proto::ClusterConfig cluster_config() {
  proto::ClusterConfig ccfg;
  ccfg.num_servers = kServers;
  ccfg.num_clients = kClients;
  ccfg.num_objects = kObjects;
  return ccfg;
}

/// A simulation that has already executed `num_txs` transactions, so its
/// trace/stores/histories carry a long prefix.
struct WarmSim {
  sim::Simulation sim;
  proto::IdSource ids;
  proto::Cluster cluster;
};

WarmSim build_warm(const std::string& proto_name, std::size_t num_txs) {
  WarmSim w;
  auto protocol = proto::protocol_by_name(proto_name);
  w.cluster = protocol->build(w.sim, cluster_config(), w.ids);
  wl::WorkloadConfig wcfg;
  wcfg.num_txs = num_txs;
  wcfg.seed = 9;
  wl::run_workload_sequential(w.sim, *protocol, w.cluster, w.ids, wcfg);
  return w;
}

void BM_WorkloadEvents(benchmark::State& state, const std::string& name) {
  auto protocol = proto::protocol_by_name(name);
  std::size_t events = 0;
  std::size_t txs = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    proto::IdSource ids;
    proto::Cluster cluster = protocol->build(sim, cluster_config(), ids);
    wl::WorkloadConfig wcfg;
    wcfg.num_txs = 50;
    wcfg.seed = 9;
    auto result =
        wl::run_workload_sequential(sim, *protocol, cluster, ids, wcfg);
    benchmark::DoNotOptimize(result);
    events += sim.now();
    txs += wcfg.num_txs - result.incomplete;
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["tx/s"] = benchmark::Counter(static_cast<double>(txs),
                                              benchmark::Counter::kIsRate);
}

/// Sustained sweep throughput: the bench_table1 regime — many transactions
/// on one cluster, trace retention off (the sweep never reads the trace
/// back; see Trace::set_retained).  Construction is amortized over 500
/// transactions per iteration, so this reports the steady-state cost of
/// simulated transactions rather than cluster setup.  The event sequence is
/// identical to the retained run; only record bodies are dropped.
void BM_WorkloadSustained(benchmark::State& state, const std::string& name) {
  auto protocol = proto::protocol_by_name(name);
  std::size_t events = 0;
  std::size_t txs = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    sim.set_trace_retention(false);
    proto::IdSource ids;
    proto::Cluster cluster = protocol->build(sim, cluster_config(), ids);
    wl::WorkloadConfig wcfg;
    wcfg.num_txs = 500;
    wcfg.seed = 9;
    wcfg.collect_history = false;
    auto result =
        wl::run_workload_sequential(sim, *protocol, cluster, ids, wcfg);
    benchmark::DoNotOptimize(result);
    events += sim.now();
    txs += wcfg.num_txs - result.incomplete;
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["tx/s"] = benchmark::Counter(static_cast<double>(txs),
                                              benchmark::Counter::kIsRate);
}

/// cops-snow against run length: the sustained sweep at N transactions on
/// one cluster.  Servers log every ROT they serve, and each write hides its
/// version from the ROTs that read older versions of its dependencies, so
/// a version's exclusion list grows with the run and so does the cost of a
/// write.  CI gates BM_CopsSnowDepth/4000 over BM_CopsSnowDepth/500 (8x the
/// transactions) as a ratio: sorting each write's list once keeps it near
/// 20; building the lists as ordered sets read about 70.
void BM_CopsSnowDepth(benchmark::State& state) {
  auto protocol = proto::protocol_by_name("cops-snow");
  std::size_t txs = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    sim.set_trace_retention(false);
    proto::IdSource ids;
    proto::Cluster cluster = protocol->build(sim, cluster_config(), ids);
    wl::WorkloadConfig wcfg;
    wcfg.num_txs = static_cast<std::size_t>(state.range(0));
    wcfg.seed = 9;
    wcfg.collect_history = false;
    auto result =
        wl::run_workload_sequential(sim, *protocol, cluster, ids, wcfg);
    benchmark::DoNotOptimize(result);
    txs += wcfg.num_txs - result.incomplete;
  }
  state.counters["tx/s"] = benchmark::Counter(static_cast<double>(txs),
                                              benchmark::Counter::kIsRate);
}

/// The sharded regime (docs/SHARDING.md): the same sustained sweep over a
/// 64-shard, partially-replicated cluster.  Placement is computed (ShardMap
/// residue arithmetic), so the comparison against BM_WorkloadSustained
/// isolates what cross-shard routing costs per transaction — the metadata
/// is O(1) regardless of key count.
void BM_WorkloadSharded(benchmark::State& state, const std::string& name) {
  auto protocol = proto::protocol_by_name(name);
  proto::ClusterConfig ccfg;
  ccfg.num_servers = 8;
  ccfg.num_clients = kClients;
  ccfg.num_objects = 4096;
  ccfg.num_shards = 64;
  ccfg.replication = 2;
  std::size_t events = 0;
  std::size_t txs = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    sim.set_trace_retention(false);
    proto::IdSource ids;
    proto::Cluster cluster = protocol->build(sim, ccfg, ids);
    wl::WorkloadConfig wcfg;
    wcfg.num_txs = 200;
    wcfg.read_objects = 3;  // read sets straddle shard groups
    wcfg.seed = 9;
    wcfg.collect_history = false;
    auto result =
        wl::run_workload_sequential(sim, *protocol, cluster, ids, wcfg);
    benchmark::DoNotOptimize(result);
    events += sim.now();
    txs += wcfg.num_txs - result.incomplete;
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["tx/s"] = benchmark::Counter(static_cast<double>(txs),
                                              benchmark::Counter::kIsRate);
}

/// Placement metadata at the north-star scale: build the 64-shard map over
/// a million keys and enumerate one server's subset.  Everything here is
/// residue arithmetic + O(stored) generation; a per-key table would be
/// megabytes and show up as orders of magnitude here.
void BM_ShardMapMillionKeys(benchmark::State& state) {
  const std::vector<ProcessId> srv = [] {
    std::vector<ProcessId> s;
    for (std::size_t i = 0; i < 8; ++i) s.push_back(ProcessId(i));
    return s;
  }();
  for (auto _ : state) {
    proto::ShardMap map = proto::ShardMap::make(64, 2, srv, 1'000'000);
    auto objs = map.objects_at(srv[3]);
    benchmark::DoNotOptimize(objs.size());
  }
  state.counters["keys"] = 1'000'000;
}

/// Pure snapshot: O(processes) regardless of how long the history is.
void BM_Snapshot(benchmark::State& state) {
  WarmSim w = build_warm("wren", static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sim::Simulation copy = w.sim;
    benchmark::DoNotOptimize(copy.now());
  }
  state.counters["trace_events"] =
      static_cast<double>(w.sim.trace().size());
}

/// Snapshot + the divergence a typical proof branch pays: one transaction
/// driven to completion on the copy.  Cost is O(divergence), i.e. the
/// handful of processes and events the branch touches.
void BM_SnapshotBranchTx(benchmark::State& state) {
  WarmSim w = build_warm("wren", static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sim::Simulation copy = w.sim;
    auto spec = w.ids.read_tx(w.cluster.view.objects);
    copy.process_as<ClientBase>(w.cluster.clients[0]).invoke(spec);
    sim::run_fair(copy, {},
                  [&](const sim::Simulation& s) {
                    return s.process_as<const ClientBase>(
                                w.cluster.clients[0])
                        .has_completed(spec.id);
                  },
                  10000);
    benchmark::DoNotOptimize(copy.now());
  }
  state.counters["trace_events"] =
      static_cast<double>(w.sim.trace().size());
}

/// Snapshot + forced full divergence: every process cloned and the shared
/// trace prefix forked.  This is what every snapshot cost before COW.
void BM_SnapshotDeepDiverge(benchmark::State& state) {
  WarmSim w = build_warm("wren", static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sim::Simulation copy = w.sim;
    for (std::size_t p = 0; p < copy.process_count(); ++p)
      benchmark::DoNotOptimize(&copy.process(ProcessId(p)));
    copy.step(w.cluster.clients[0]);  // forks the trace prefix
    benchmark::DoNotOptimize(copy.now());
  }
  state.counters["trace_events"] =
      static_cast<double>(w.sim.trace().size());
}

/// Digest of an untouched configuration: served from the per-process memo.
void BM_DigestMemoized(benchmark::State& state) {
  WarmSim w = build_warm("wren", 100);
  std::string d = w.sim.digest();  // warm the memo
  for (auto _ : state) {
    std::string again = w.sim.digest();
    benchmark::DoNotOptimize(again);
  }
}

/// Digest after touching one process: exactly one re-serialization.
void BM_DigestOneTouched(benchmark::State& state) {
  WarmSim w = build_warm("wren", 100);
  w.sim.digest();
  for (auto _ : state) {
    benchmark::DoNotOptimize(&w.sim.process(w.cluster.clients[0]));
    std::string d = w.sim.digest();
    benchmark::DoNotOptimize(d);
  }
}

/// latest_visible_at on a long ts-sorted chain: binary search, not a scan.
void BM_KvLatestVisibleAt(benchmark::State& state) {
  kv::VersionedStore store;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  ObjectId obj(1);
  for (std::uint64_t i = 0; i < n; ++i) {
    kv::Version v;
    v.value = ValueId(i + 1);
    v.ts = {i + 1, 0};
    store.put(obj, std::move(v));
  }
  clk::HlcTimestamp mid{n / 2, 0};
  for (auto _ : state) {
    const kv::Version* v = store.latest_visible_at(obj, mid);
    benchmark::DoNotOptimize(v);
  }
}

/// run_random cost against a deep in-flight backlog.  The scheduler used
/// to rebuild its deliverable set from the whole in-flight list on every
/// round — O(backlog) per event, quadratic across a run that keeps the
/// network full; it now maintains the set incrementally (order-preserving
/// erase on deliver, tail-scan of a step's sends).  stubborn with one pending
/// write gossips every tick (m-1 messages per server step), so the
/// backlog stays near its seeded depth for the whole measurement.
void BM_RandomSchedulerBacklog(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  auto protocol = proto::protocol_by_name("stubborn");
  proto::ClusterConfig ccfg;
  ccfg.num_servers = 8;
  ccfg.num_clients = 2;
  ccfg.num_objects = 8;
  sim::Simulation base;
  proto::IdSource ids;
  proto::Cluster cluster = protocol->build(base, ccfg, ids);

  // Seed one pending write so server ticks gossip forever.
  auto spec = ids.write_one(cluster.view.objects[0]);
  base.process_as<ClientBase>(cluster.clients[0]).invoke(spec);
  base.step(cluster.clients[0]);
  std::vector<MsgId> seed;
  for (const auto& m : base.network().in_flight()) seed.push_back(m.id);
  for (auto id : seed) base.deliver(id);
  for (auto s : cluster.view.servers) base.step(s);

  // Grow the backlog to the requested depth with undelivered gossip.
  std::size_t i = 0;
  while (base.network().in_flight_count() < depth &&
         i < depth * 100)
    base.step(cluster.view.servers[i++ % cluster.view.servers.size()]);

  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulation sim = base;
    Rng rng(7);
    auto stats = sim::run_random(sim, {}, rng, nullptr, 1000);
    events += stats.events();
    benchmark::DoNotOptimize(sim.now());
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["backlog"] =
      static_cast<double>(base.network().in_flight_count());
}

void BM_FairSchedulerSteps(benchmark::State& state) {
  auto protocol = proto::protocol_by_name("cops-snow");
  proto::ClusterConfig ccfg;
  ccfg.num_servers = 2;
  ccfg.num_clients = 4;
  ccfg.num_objects = 2;
  sim::Simulation base;
  proto::IdSource ids;
  proto::Cluster cluster = protocol->build(base, ccfg, ids);

  for (auto _ : state) {
    sim::Simulation sim = base;
    auto spec = ids.read_tx(cluster.view.objects);
    sim.process_as<ClientBase>(cluster.clients[0]).invoke(spec);
    sim::run_fair(sim, {},
                  [&](const sim::Simulation& s) {
                    return s.process_as<const ClientBase>(cluster.clients[0])
                        .has_completed(spec.id);
                  },
                  10000);
    benchmark::DoNotOptimize(sim.now());
  }
}

/// The pre-pool parallel_for, inlined verbatim as the "before" side of the
/// dispatch-overhead comparison: a fresh set of jthreads is spawned and
/// joined on every call, items are claimed one at a time, and each worker
/// copies the whole thread-local registry at exit.  par::parallel_for now
/// reuses a persistent pool (par/pool.h); BM_ParallelForSpawn /
/// BM_ParallelForPooled measure the same tiny batch through both paths so
/// the per-call spawn+join cost is isolated from job work.
void legacy_spawn_for(std::size_t n,
                      const std::function<void(std::size_t)>& job,
                      std::size_t threads) {
  if (n == 0) return;
  std::size_t workers = threads == 0
                            ? std::max(1u, std::thread::hardware_concurrency())
                            : threads;
  workers = std::min(workers, n);
  if (workers == 1) {
    for (std::size_t i = 0; i < n; ++i) job(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<obs::Registry> worker_counts(workers);
  {
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        while (true) {
          std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) break;
          try {
            job(i);
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
        }
        worker_counts[w] = obs::Registry::global();
      });
    }
  }  // jthreads join here
  auto& mine = obs::Registry::global();
  for (const auto& wc : worker_counts) mine.absorb(wc);
  if (first_error) std::rethrow_exception(first_error);
}

constexpr std::size_t kParItems = 256;
constexpr std::size_t kParThreads = 4;

/// Trivial per-item job: dispatch overhead dominates, which is the cost
/// the pool removes.  A counter bump per item keeps the registry-fold path
/// (the other per-call cost) honest in both variants.
void par_job(std::size_t i) {
  obs::Registry::global().counter("bench.par.items") += 1;
  benchmark::DoNotOptimize(i);
}

void BM_ParallelForSpawn(benchmark::State& state) {
  for (auto _ : state) legacy_spawn_for(kParItems, par_job, kParThreads);
}

void BM_ParallelForPooled(benchmark::State& state) {
  for (auto _ : state) par::parallel_for(kParItems, par_job, kParThreads);
}

/// Dynamic registration so a bad protocol name or a throwing constructor
/// surfaces as a nonzero exit, not a silently missing benchmark.
bool register_benchmarks(bool smoke) {
  try {
    for (const char* name :
         {"naivefast", "cops-snow", "wren", "eiger", "spanner"}) {
      proto::protocol_by_name(name);  // validate before registering
      std::string label = std::string("BM_WorkloadEvents/") + name;
      benchmark::RegisterBenchmark(label.c_str(), BM_WorkloadEvents,
                                   std::string(name));
      std::string slabel = std::string("BM_WorkloadSustained/") + name;
      benchmark::RegisterBenchmark(slabel.c_str(), BM_WorkloadSustained,
                                   std::string(name));
      std::string shlabel = std::string("BM_WorkloadSharded/") + name;
      benchmark::RegisterBenchmark(shlabel.c_str(), BM_WorkloadSharded,
                                   std::string(name));
    }
    benchmark::RegisterBenchmark("BM_CopsSnowDepth", BM_CopsSnowDepth)
        ->Arg(500)
        ->Arg(4000)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("BM_ShardMapMillionKeys",
                                 BM_ShardMapMillionKeys);
    // History sizes: 50 txs ≈ hundreds of events, 1600 txs ≥ 10k events
    // (the trace_events counter reports the measured length).
    const std::vector<std::int64_t> txs =
        smoke ? std::vector<std::int64_t>{50}
              : std::vector<std::int64_t>{50, 200, 800, 1600};
    for (auto n : txs) {
      benchmark::RegisterBenchmark("BM_Snapshot", BM_Snapshot)->Arg(n);
      benchmark::RegisterBenchmark("BM_SnapshotBranchTx", BM_SnapshotBranchTx)
          ->Arg(n);
      benchmark::RegisterBenchmark("BM_SnapshotDeepDiverge",
                                   BM_SnapshotDeepDiverge)
          ->Arg(n);
    }
    benchmark::RegisterBenchmark("BM_DigestMemoized", BM_DigestMemoized);
    benchmark::RegisterBenchmark("BM_DigestOneTouched", BM_DigestOneTouched);
    for (auto n : {1000, 100000})
      benchmark::RegisterBenchmark("BM_KvLatestVisibleAt",
                                   BM_KvLatestVisibleAt)
          ->Arg(n);
    benchmark::RegisterBenchmark("BM_FairSchedulerSteps",
                                 BM_FairSchedulerSteps);
    for (auto d : {256, 1024, 4096})
      benchmark::RegisterBenchmark("BM_RandomSchedulerBacklog",
                                   BM_RandomSchedulerBacklog)
          ->Arg(d);
    benchmark::RegisterBenchmark("BM_ParallelForSpawn", BM_ParallelForSpawn);
    benchmark::RegisterBenchmark("BM_ParallelForPooled", BM_ParallelForPooled);
  } catch (const std::exception& e) {
    std::cerr << "bench_sim: benchmark registration failed: " << e.what()
              << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sim.json";
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
  // Route the JSON through the library's own file reporter.
  std::string out_flag = "--benchmark_out=" + out_path;
  std::string fmt_flag = "--benchmark_out_format=json";
  args.push_back(out_flag.data());
  args.push_back(fmt_flag.data());

  if (!register_benchmarks(smoke)) return 1;

  int argn = static_cast<int>(args.size());
  benchmark::Initialize(&argn, args.data());
  if (benchmark::ReportUnrecognizedArguments(argn, args.data())) return 1;

  std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (ran == 0) {
    std::cerr << "bench_sim: no benchmarks ran\n";
    return 1;
  }
  std::cerr << "bench_sim: wrote " << out_path << " (" << ran
            << " benchmarks)\n";
  return 0;
}
