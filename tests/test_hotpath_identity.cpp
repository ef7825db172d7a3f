// Byte-identity pins for the simulator's hot path and its schedulers.
//
// Allocators, delivery coalescing, store internals, memoized digests and
// the scheduler loops are pure implementation detail: they must not change
// a single byte of any observable artifact.  These tests compare the
// current build against the golden files committed under
// tests/data/golden/:
//
//   <proto>.mixed.trace.jsonl           exported trace artifact
//   workload_digests.txt                final + per-process digests
//   <proto>.<plan>.faulted.trace.jsonl  capture_faulted artifact
//   schedules.txt                       faulted/random workload outcomes
//   chaos_plans.txt                     chaos run_once and audit outcomes
//   copssnow_exclusions.txt             cops-snow digests at depth
//
// If a change ever reorders deliveries or fault decisions, changes digest
// bytes or perturbs trace serialization, these tests fail with a byte diff
// — before any checker or Table-1 number has a chance to drift silently.
//
// Regenerating (only legitimate when the *observable model* changes, e.g.
// a new protocol version — never for a performance PR):
//   DISCS_REGEN_GOLDEN=<repo>/tests/data/golden ./test_hotpath_identity
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "fault/plan.h"
#include "fault/session.h"
#include "impossibility/progress.h"
#include "obs/flight.h"
#include "obs/registry.h"
#include "obs/trace_io.h"
#include "proto/common/client.h"
#include "proto/registry.h"
#include "workload/workload.h"

namespace {

using namespace discs;

// Three registry protocols spanning the design space: the fast strawman,
// a causal two-round design and the clock-based serializable one.  wren is
// the slowest (two-round reads + gossip) and exercises BatchPayload and the
// dedup-free gossip path the hardest.
const std::vector<std::string> kPinnedProtocols = {"naivefast", "cops-snow",
                                                   "wren", "spanner"};

std::string golden_dir() {
#ifdef DISCS_TEST_DATA_DIR
  return std::string(DISCS_TEST_DATA_DIR) + "/golden";
#else
  return "tests/data/golden";
#endif
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path
                         << " (regenerate with DISCS_REGEN_GOLDEN)";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Set DISCS_REGEN_GOLDEN to a directory to (re)write goldens instead of
// comparing.  The CI never sets it; it exists so the files can be captured
// from a known-good build.
const char* regen_dir() { return std::getenv("DISCS_REGEN_GOLDEN"); }

void compare_or_regen(const std::string& name, const std::string& actual) {
  if (const char* dir = regen_dir()) {
    std::ofstream out(std::string(dir) + "/" + name, std::ios::binary);
    out << actual;
    ASSERT_TRUE(out.good()) << "failed to write golden " << name;
    return;
  }
  std::string expected = read_file(golden_dir() + "/" + name);
  // EXPECT_EQ on multi-KB strings prints an unreadable blob; locate the
  // first differing line instead.
  if (actual != expected) {
    std::istringstream a(actual), e(expected);
    std::string la, le;
    std::size_t line = 1;
    while (std::getline(a, la) && std::getline(e, le)) {
      if (la != le) break;
      ++line;
    }
    FAIL() << name << " diverged from golden at line " << line
           << "\n  golden: " << le << "\n  actual: " << la;
  }
}

// The exported `mixed` scenario: interleaved writes and reads across three
// clients — covers batching, two-round reads and gossip for every pinned
// protocol.  The full JSONL artifact (header, events, history, footer
// digest) must match the golden byte for byte.
TEST(HotpathIdentity, MixedScenarioTraceBytesMatchGolden) {
  for (const auto& name : kPinnedProtocols) {
    auto proto = proto::protocol_by_name(name);
    proto::ClusterConfig cfg;
    obs::TraceDoc doc = obs::capture_scenario(*proto, "mixed", cfg);
    compare_or_regen(name + ".mixed.trace.jsonl", obs::export_jsonl(doc));
  }
}

// A heavier sequential workload (more transactions, multi-writes, larger
// cluster): the final configuration digest and every per-process digest
// must match the golden.  This is the strongest state check available —
// it covers the versioned store, dedup tables, client bookkeeping and
// network buffers of every process.
TEST(HotpathIdentity, WorkloadDigestsMatchGolden) {
  std::ostringstream os;
  for (const auto& name : kPinnedProtocols) {
    auto proto = proto::protocol_by_name(name);
    sim::Simulation sim;
    proto::ClusterConfig cfg;
    cfg.num_servers = 3;
    cfg.num_clients = 4;
    cfg.num_objects = 6;
    proto::IdSource ids;
    auto cluster = proto->build(sim, cfg, ids);

    wl::WorkloadConfig wcfg;
    wcfg.num_txs = 40;
    wcfg.write_fraction = 0.4;
    wcfg.seed = 2026;
    auto result = wl::run_workload_sequential(sim, *proto, cluster, ids, wcfg);
    EXPECT_EQ(result.incomplete, 0u) << name;

    os << "== " << name << " ==\n";
    os << "final: " << sim.digest() << "\n";
    for (std::size_t p = 0; p < sim.process_count(); ++p)
      os << "p" << p << ": " << sim.process_digest(ProcessId(p)) << "\n";
    os << "trace_events: " << sim.trace().size() << "\n";
  }
  compare_or_regen("workload_digests.txt", os.str());
}

// Replay closes the loop: the golden artifact, re-imported and re-executed
// on a fresh simulation, must re-export to its own bytes and reach the
// recorded final digest.  This runs the *deliver/step path of the current
// build* against the *committed event sequence*, so any divergence
// in message ids, batching decisions or income-buffer order is caught even
// if both builds are self-consistent.
TEST(HotpathIdentity, GoldenTracesReplayByteExact) {
  if (regen_dir() != nullptr) GTEST_SKIP() << "regenerating goldens";
  for (const auto& name : kPinnedProtocols) {
    std::string bytes = read_file(golden_dir() + "/" + name +
                                  ".mixed.trace.jsonl");
    ASSERT_FALSE(bytes.empty()) << name;
    obs::TraceDoc doc = obs::import_jsonl(bytes);
    obs::DocReplay replay = obs::replay_doc(doc);
    EXPECT_TRUE(replay.ok) << name << ": " << replay.error;
    EXPECT_TRUE(replay.digest_match) << name;
    EXPECT_EQ(obs::export_jsonl(replay.reexport), bytes) << name;
  }
}

// FNV-1a of a string: pins a configuration digest or a flight tail's JSON
// in 16 hex digits.
std::string digest_hash(const std::string& digest) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : digest) {
    h ^= c;
    h *= 1099511628211ull;
  }
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

// A lossy network: drops with retransmission, extra delay, duplicates.
fault::FaultPlan lossy_plan() {
  fault::FaultPlan plan;
  plan.name = "lossy";
  plan.seed = 3;
  plan.rules.push_back(fault::drop_rule(0.35, 4));
  plan.rules.push_back(fault::delay_rule(1, 0.4));
  plan.rules.push_back(fault::duplicate_rule(0.25));
  return plan;
}

// A server->server hold window, a lossy crash and restart, and drops.
fault::FaultPlan hold_crash_plan() {
  fault::FaultPlan plan;
  plan.name = "hold-crash";
  plan.seed = 5;
  plan.rules.push_back(fault::hold_rule(fault::Selector::server(),
                                        fault::Selector::server(), 0, 40));
  plan.rules.push_back(
      fault::crash_rule(ProcessId(1), 12, 60, /*lossy=*/true));
  plan.rules.push_back(fault::drop_rule(0.3, 5));
  return plan;
}

// Cross-build pins for the faulted and randomized schedulers.  Running the
// same build twice always agrees (FaultDeterminism.*); these goldens pin the
// schedules themselves, so a scheduler change that moves one delivery, one
// fault decision or one rng draw fails here:
//   - capture_faulted artifacts (the fair loop under a fault session);
//   - run_workload_concurrent_faulted at chaos_lab's hardened defaults (the
//     random loop under a fault session) over a few chaos plans, plus the
//     hold-crash plan, whose early crash fires within the run: final
//     digest, trace size, transaction windows and the fault.* counters;
//   - run_workload_concurrent (the random loop without faults);
//   - audit_progress outcomes under the paper's delay adversary and a
//     lossy network.
TEST(HotpathIdentity, FaultedAndRandomSchedulesMatchGolden) {
  for (const std::string name : {"cops-snow", "wren"}) {
    auto proto = proto::protocol_by_name(name);
    for (const auto& plan : {lossy_plan(), hold_crash_plan()}) {
      obs::FaultedCaptureOptions options;
      options.plan = plan;
      obs::TraceDoc doc = obs::capture_faulted(*proto, options);
      compare_or_regen(name + "." + plan.name + ".faulted.trace.jsonl",
                       obs::export_jsonl(doc));
    }
  }

  std::ostringstream os;
  chaos::CampaignConfig chaos_cfg;
  chaos_cfg.cluster.exactly_once = true;
  chaos_cfg.cluster.durable_journal = true;
  chaos_cfg.workload.num_txs = 24;
  const std::vector<std::string> counters = {
      "fault.drops", "fault.delays", "fault.duplicates", "fault.holds",
      "fault.retransmits", "fault.crashes", "fault.restarts"};
  std::vector<fault::FaultPlan> plans;
  for (std::size_t i = 0; i < 6; ++i)
    plans.push_back(chaos::random_plan(3, i, chaos_cfg.cluster));
  plans.push_back(hold_crash_plan());
  for (const std::string name : {"cops", "wren"}) {
    auto proto = proto::protocol_by_name(name);
    for (const auto& plan : plans) {
      sim::Simulation sim;
      proto::IdSource ids;
      auto cluster = proto->build(sim, chaos_cfg.cluster, ids);
      for (auto c : cluster.clients)
        sim.process_as<proto::ClientBase>(c).set_retransmit_after(
            chaos_cfg.client_retransmit_after);
      fault::FaultSession session(plan,
                                  {cluster.view.servers, cluster.clients});
      std::vector<std::uint64_t> before;
      for (const auto& c : counters)
        before.push_back(obs::Registry::global().value(c));
      auto result = wl::run_workload_concurrent_faulted(
          sim, *proto, cluster, ids, chaos_cfg.workload, session);

      os << "== faulted " << name << " " << plan.name << " ==\n";
      os << "digest: " << digest_hash(sim.digest())
         << " trace_events: " << sim.trace().size()
         << " incomplete: " << result.incomplete << "\n";
      for (std::size_t k = 0; k < counters.size(); ++k)
        os << counters[k] << "="
           << obs::Registry::global().value(counters[k]) - before[k] << " ";
      os << "\n";
      for (const auto& w : result.windows)
        os << to_string(w.id) << " " << to_string(w.client) << " "
           << w.trace_begin << ".." << w.trace_end
           << (w.completed ? " done" : " open") << "\n";
    }
  }

  for (const auto& name : kPinnedProtocols) {
    auto proto = proto::protocol_by_name(name);
    sim::Simulation sim;
    proto::ClusterConfig cfg;
    cfg.num_servers = 3;
    cfg.num_clients = 4;
    cfg.num_objects = 6;
    proto::IdSource ids;
    auto cluster = proto->build(sim, cfg, ids);
    wl::WorkloadConfig wcfg;
    wcfg.num_txs = 40;
    wcfg.write_fraction = 0.4;
    wcfg.seed = 2026;
    auto result = wl::run_workload_concurrent(sim, *proto, cluster, ids, wcfg);
    os << "== concurrent " << name << " ==\n";
    os << "digest: " << digest_hash(sim.digest())
       << " trace_events: " << sim.trace().size()
       << " incomplete: " << result.incomplete << "\n";
  }

  for (const auto& plan : {fault::paper_delay_adversary(),
                           fault::drop_retransmit_plan(0.3, 6)}) {
    for (const std::string name : {"cops", "cops-snow", "gentlerain", "wren"}) {
      auto proto = proto::protocol_by_name(name);
      auto report = imposs::audit_progress(*proto, plan);
      os << "progress " << name << " " << report.plan << ": " << report.detail
         << "\n";
    }
  }
  compare_or_regen("schedules.txt", os.str());
}

// The hardened chaos path at perfbench chaos-audit's configuration
// (exactly-once and journal on, 24 transactions, retransmit after 8) over
// twelve random plans: run_once's outcome and flight tail, then the
// progress audit's detail and its own fault decisions and event counts
// under the same options.  naivefast's safety violations carry flight
// tails; the four correct protocols reach the audit under every rule kind
// random_plan draws.
TEST(HotpathIdentity, ChaosPlansMatchGolden) {
  chaos::CampaignConfig cfg;
  cfg.cluster.exactly_once = true;
  cfg.cluster.durable_journal = true;
  cfg.workload.num_txs = 24;
  imposs::ProgressOptions popts;
  popts.cluster = cfg.cluster;
  popts.client_retransmit_after = cfg.client_retransmit_after;
  const std::vector<std::string> counters = {
      "fault.drops",   "fault.delays",      "fault.duplicates",
      "fault.holds",   "fault.retransmits", "fault.crashes",
      "fault.restarts", "sim.steps",        "sim.deliveries"};

  std::ostringstream os;
  for (const std::string name :
       {"cops", "fatcops", "gentlerain", "wren", "naivefast"}) {
    auto proto = proto::protocol_by_name(name);
    for (std::size_t i = 0; i < 12; ++i) {
      const fault::FaultPlan plan = chaos::random_plan(1, i, cfg.cluster);
      const chaos::RunOutcome out = chaos::run_once(*proto, plan, cfg);
      obs::JsonArray tail;
      for (const auto& e : out.flight)
        tail.push_back(obs::flight_event_json(e));

      std::vector<std::uint64_t> before;
      for (const auto& c : counters)
        before.push_back(obs::Registry::global().value(c));
      const auto report = imposs::audit_progress(*proto, plan, popts);

      os << name << " " << plan.name << ": "
         << chaos::violation_class_str(out.violation) << " | " << out.detail
         << " | incomplete " << out.incomplete << " | flight "
         << out.flight.size() << " "
         << digest_hash(obs::Json(std::move(tail)).dump())
         << " | audit: " << report.detail << " |";
      for (std::size_t k = 0; k < counters.size(); ++k)
        os << " " << counters[k] << "="
           << obs::Registry::global().value(counters[k]) - before[k];
      os << "\n";
    }
  }
  compare_or_regen("chaos_plans.txt", os.str());
}

// cops-snow's old-reader exclusions at depth.  The goldens above run it for
// at most 40 transactions, where a version hides from a handful of ROTs;
// here versions hide from hundreds, and the store digest lists every one.
// Three shapes: the sequential driver on perfbench's cluster (each log run
// arrives sorted), the random scheduler (runs arrive out of order), and the
// random scheduler under duplication and reordering, half of it with
// exactly-once and the journal on (a duplicated RotRequest logs one ROT
// twice; the journal keeps a copy of each exclusion list).
TEST(HotpathIdentity, CopsSnowExclusionsMatchGolden) {
  auto proto = proto::protocol_by_name("cops-snow");
  std::ostringstream os;
  auto record = [&](const std::string& label, const sim::Simulation& sim,
                    std::size_t incomplete) {
    const std::string d = sim.digest();
    os << label << ": events " << sim.trace().size() << " incomplete "
       << incomplete << " digest " << d.size() << " " << digest_hash(d)
       << "\n";
  };
  proto::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 6;
  cfg.num_objects = 8;

  {
    sim::Simulation sim;
    proto::IdSource ids;
    auto cluster = proto->build(sim, cfg, ids);
    wl::WorkloadConfig wcfg;
    wcfg.num_txs = 400;
    wcfg.seed = 1;
    auto result = wl::run_workload_sequential(sim, *proto, cluster, ids, wcfg);
    record("sequential 400 seed 1", sim, result.incomplete);
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sim::Simulation sim;
    proto::IdSource ids;
    auto cluster = proto->build(sim, cfg, ids);
    wl::WorkloadConfig wcfg;
    wcfg.num_txs = 250;
    wcfg.seed = seed;
    auto result = wl::run_workload_concurrent(sim, *proto, cluster, ids, wcfg);
    record("concurrent 250 seed " + std::to_string(seed), sim,
           result.incomplete);
  }
  for (std::uint64_t seed = 4; seed <= 6; ++seed) {
    for (const bool hardened : {false, true}) {
      proto::ClusterConfig fcfg = cfg;
      fcfg.exactly_once = hardened;
      fcfg.durable_journal = hardened;
      fault::FaultPlan plan;
      plan.name = "dup-reorder";
      plan.seed = seed;
      plan.rules.push_back(fault::duplicate_rule(0.3));
      plan.rules.push_back(fault::reorder_rule(0.3, 6));
      sim::Simulation sim;
      proto::IdSource ids;
      auto cluster = proto->build(sim, fcfg, ids);
      fault::FaultSession session(plan,
                                  {cluster.view.servers, cluster.clients});
      wl::WorkloadConfig wcfg;
      wcfg.num_txs = 250;
      wcfg.seed = seed;
      auto result = wl::run_workload_concurrent_faulted(sim, *proto, cluster,
                                                        ids, wcfg, session);
      record(std::string("faulted 250 seed ") + std::to_string(seed) +
                 (hardened ? " exactly-once+journal" : " plain"),
             sim, result.incomplete);
    }
  }
  compare_or_regen("copssnow_exclusions.txt", os.str());
}

// Snapshot/branching still shares state after the overhaul: a snapshot taken
// mid-workload and branched differently must leave the original untouched
// (digest-identical to a straight-line run).
TEST(HotpathIdentity, SnapshotBranchingUnaffected) {
  auto proto = proto::protocol_by_name("cops-snow");
  sim::Simulation sim;
  proto::ClusterConfig cfg;
  proto::IdSource ids;
  auto cluster = proto->build(sim, cfg, ids);

  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 10;
  wcfg.seed = 5;
  wl::run_workload_sequential(sim, *proto, cluster, ids, wcfg);

  sim::Simulation snap = sim;
  std::string digest_before = sim.digest();
  // Branch: run extra traffic on the snapshot only.
  sim::run_to_quiescence(snap, {}, 2000);
  EXPECT_EQ(sim.digest(), digest_before);
}

}  // namespace
