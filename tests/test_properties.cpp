// Property-style sweeps (parameterized over seeds, sizes and protocols):
//  - the causal graph's order agrees with a BFS reference on random
//    histories, cyclic ones included;
//  - HLC timestamps respect happens-before on random message exchanges;
//  - every protocol's execution is exactly reproducible by replaying its
//    event sequence onto a configuration snapshot (the determinism the
//    proof's indistinguishability arguments rest on);
//  - visibility is monotone: once a value is visible it stays visible.
#include <gtest/gtest.h>

#include <map>
#include <queue>

#include "clock/clocks.h"
#include "consistency/checkers.h"
#include "impossibility/induction.h"
#include "impossibility/visibility.h"
#include "proto/common/client.h"
#include "proto/registry.h"
#include "sim/replay.h"
#include "sim/schedule.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace discs {
namespace {

// ------------------------------------------------------------ causal graph

class CausalGraphProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CausalGraphProperty, BeforeMatchesBfsReference) {
  // A random history over a few clients (sometimes one per transaction)
  // whose reads return values written anywhere in it, so that reads-from
  // edges run both ways and often close cycles.
  Rng rng(GetParam());
  const std::size_t txs = 4 + rng.below(40);
  const std::size_t clients = rng.chance(0.25) ? txs : 1 + rng.below(5);
  const double read_p = 0.05 + 0.3 * rng.uniform01();
  hist::History h;
  h.set_initial(ObjectId(0), ValueId(1000));
  std::vector<hist::TxRecord> recs(txs);
  for (std::size_t i = 0; i < txs; ++i) {
    recs[i].id = TxId(i + 1);
    recs[i].client = ProcessId(clients == txs ? i : rng.below(clients));
    recs[i].invoked = recs[i].completed = true;
    recs[i].invoke_seq = rng.below(2 * txs);
    recs[i].writes.push_back({ObjectId(0), ValueId(i + 1), true});
  }
  for (auto& t : recs) {
    for (std::size_t k = 0; k < txs; ++k)
      if (rng.chance(read_p / 4))
        t.reads.push_back({ObjectId(0), ValueId(rng.below(txs + 1) + 1), true});
    h.add(std::move(t));
  }
  cons::CausalGraph g(h);

  // Adjacency straight from the definition: the initializing node 0 before
  // every transaction, program order, and reads-from via writer_of.
  const std::size_t n = txs + 1;
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t i = 0; i < txs; ++i) adj[0].push_back(i + 1);
  for (auto c : h.clients()) {
    auto order = h.client_order(c);
    for (std::size_t k = 1; k < order.size(); ++k)
      adj[order[k - 1] + 1].push_back(order[k] + 1);
  }
  for (std::size_t i = 0; i < txs; ++i)
    for (const auto& r : h.at(i).reads)
      if (auto w = h.writer_of(r.value); w && w->tx_index != i)
        adj[w->is_init() ? 0 : w->tx_index + 1].push_back(i + 1);

  std::vector<std::size_t> self_reaching;
  for (std::size_t start = 0; start < n; ++start) {
    std::vector<bool> reach(n, false);
    std::queue<std::size_t> q;
    for (auto b : adj[start]) {
      if (!reach[b]) {
        reach[b] = true;
        q.push(b);
      }
    }
    while (!q.empty()) {
      auto u = q.front();
      q.pop();
      for (auto b : adj[u])
        if (!reach[b]) {
          reach[b] = true;
          q.push(b);
        }
    }
    if (reach[start]) self_reaching.push_back(start);
    for (std::size_t b = 0; b < n; ++b)
      EXPECT_EQ(g.before(start, b), reach[b])
          << "seed=" << GetParam() << " " << start << "->" << b;
  }
  EXPECT_EQ(g.cycle_members(), self_reaching) << "seed=" << GetParam();
  EXPECT_EQ(g.acyclic(), self_reaching.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CausalGraphProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// --------------------------------------------------------------------- hlc

class HlcProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HlcProperty, HappensBeforeImpliesTimestampOrder) {
  // N clocks exchange random messages; every event gets a timestamp and a
  // vector-clock ground truth.  If event A happens-before event B, then
  // ts(A) < ts(B) must hold.
  Rng rng(GetParam());
  constexpr std::size_t kN = 4;
  std::vector<clk::HybridLogicalClock> clocks(kN);
  std::vector<clk::VectorClock> vcs(kN, clk::VectorClock(kN));

  struct Ev {
    clk::HlcTimestamp ts;
    clk::VectorClock vc;
  };
  std::vector<Ev> events;
  struct Msg {
    clk::HlcTimestamp ts;
    clk::VectorClock vc;
    std::size_t dst;
  };
  std::vector<Msg> in_flight;

  std::uint64_t pt = 0;
  for (int step = 0; step < 300; ++step) {
    pt += rng.below(3);  // physical time advances irregularly
    std::size_t p = rng.below(kN);
    if (!in_flight.empty() && rng.chance(0.4)) {
      std::size_t i = rng.below(in_flight.size());
      Msg m = in_flight[i];
      in_flight.erase(in_flight.begin() + i);
      auto ts = clocks[m.dst].observe(m.ts, pt);
      vcs[m.dst].merge(m.vc);
      vcs[m.dst].advance(m.dst);
      events.push_back({ts, vcs[m.dst]});
    } else {
      auto ts = clocks[p].tick(pt);
      vcs[p].advance(p);
      events.push_back({ts, vcs[p]});
      if (rng.chance(0.5))
        in_flight.push_back({ts, vcs[p], rng.below(kN)});
    }
  }

  for (std::size_t a = 0; a < events.size(); ++a)
    for (std::size_t b = 0; b < events.size(); ++b)
      if (events[a].vc.lt(events[b].vc)) {
        EXPECT_LT(events[a].ts, events[b].ts) << "seed=" << GetParam();
      }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HlcProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

// ----------------------------------------------------------------- replay

class ReplayProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(ReplayProperty, EveryExecutionReplaysExactly) {
  auto protocol = proto::protocol_by_name(GetParam());
  sim::Simulation sim;
  proto::IdSource ids;
  proto::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 3;
  cfg.num_objects = 2;
  proto::Cluster cluster = protocol->build(sim, cfg, ids);

  Rng rng(99);
  for (int round = 0; round < 6; ++round) {
    ProcessId client = cluster.clients[round % cluster.clients.size()];
    proto::TxSpec spec =
        rng.chance(0.5) || !protocol->supports_write_tx()
            ? ids.read_tx(cluster.view.objects)
            : ids.write_tx(cluster.view.objects);
    if (spec.write_only() && !protocol->supports_write_tx()) continue;

    sim.process_as<proto::ClientBase>(client).invoke(spec);
    sim::Simulation snapshot = sim;  // includes the pending invocation
    std::size_t t0 = sim.trace().size();
    sim::run_fair(sim, {},
                  [&](const sim::Simulation& s) {
                    return s.process_as<const proto::ClientBase>(client)
                        .has_completed(spec.id);
                  },
                  60000);

    auto events = sim.trace().events_from(t0);
    auto result = sim::replay(snapshot, events);
    ASSERT_TRUE(result.clean()) << result.error;
    EXPECT_EQ(snapshot.digest(), sim.digest())
        << GetParam() << " diverged on replay at round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, ReplayProperty,
                         ::testing::Values("naivefast", "cops", "cops-snow",
                                           "wren", "fatcops", "gentlerain",
                                           "eiger", "spanner", "ramp"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

// -------------------------------------------------------------- visibility

class VisibilityMonotone : public ::testing::TestWithParam<std::string> {};

TEST_P(VisibilityMonotone, OnceVisibleStaysVisible) {
  auto protocol = proto::protocol_by_name(GetParam());
  sim::Simulation sim;
  proto::IdSource ids;
  proto::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 4;
  cfg.num_objects = 2;
  proto::Cluster cluster = protocol->build(sim, cfg, ids);
  ProcessId cw = cluster.clients[0];

  proto::TxSpec w = protocol->supports_write_tx()
                        ? ids.write_tx(cluster.view.objects)
                        : ids.write_one(cluster.view.objects[0]);
  sim.process_as<proto::ClientBase>(cw).invoke(w);
  sim::run_fair(sim, {},
                [&](const sim::Simulation& s) {
                  return s.process_as<const proto::ClientBase>(cw)
                      .has_completed(w.id);
                },
                60000);
  sim::run_to_quiescence(sim, {}, 20000);

  std::map<ObjectId, ValueId> written;
  for (const auto& [obj, v] : w.write_set) written[obj] = v;
  auto probe1 = imposs::probe_visibility(sim, *protocol, cluster, written,
                                         ids);
  ASSERT_TRUE(probe1.visible) << GetParam();

  // More traffic (another client's transactions), then probe again.
  sim.process_as<proto::ClientBase>(cluster.clients[1])
      .invoke(ids.read_tx(cluster.view.objects));
  sim::run_to_quiescence(sim, {}, 20000);
  auto probe2 = imposs::probe_visibility(sim, *protocol, cluster, written,
                                         ids);
  EXPECT_TRUE(probe2.visible) << GetParam() << ": visibility regressed";
}

INSTANTIATE_TEST_SUITE_P(Registry, VisibilityMonotone,
                         ::testing::Values("naivefast", "cops", "cops-snow",
                                           "wren", "fatcops", "gentlerain",
                                           "eiger", "spanner", "ramp"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

// --------------------------------------------------------------- induction

struct InductionCase {
  std::string protocol;
  std::size_t servers;
  std::size_t replication;
};

class InductionSweep : public ::testing::TestWithParam<InductionCase> {};

TEST_P(InductionSweep, OutcomeInvariantUnderClusterShape) {
  const auto& param = GetParam();
  auto protocol = proto::protocol_by_name(param.protocol);
  proto::ClusterConfig cfg;
  cfg.num_servers = param.servers;
  cfg.num_objects = param.servers;
  cfg.num_clients = 4;
  cfg.replication = param.replication;
  imposs::InductionOptions opt;
  opt.max_steps = 3;
  auto report = imposs::run_induction(*protocol, cfg, opt);
  if (param.protocol == "naivefast") {
    EXPECT_EQ(report.outcome,
              imposs::InductionReport::Outcome::kCausalViolation)
        << report.summary();
  } else {
    EXPECT_EQ(report.outcome,
              imposs::InductionReport::Outcome::kTroublesomeExecution)
        << report.summary();
  }
}

std::vector<InductionCase> induction_cases() {
  std::vector<InductionCase> cases;
  for (const std::string p : {"naivefast", "stubborn"})
    for (std::size_t m : {2, 3, 5})
      for (std::size_t r : {std::size_t{1}, std::size_t{2}})
        if (r < m) cases.push_back({p, m, r});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Shapes, InductionSweep,
                         ::testing::ValuesIn(induction_cases()),
                         [](const auto& info) {
                           return info.param.protocol + "_m" +
                                  std::to_string(info.param.servers) + "_r" +
                                  std::to_string(info.param.replication);
                         });

}  // namespace
}  // namespace discs
