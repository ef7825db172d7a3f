// Protocol integration tests: every implemented protocol, on the same
// cluster, must execute writes and read-only transactions correctly and —
// for the non-strawman implementations — produce causally consistent
// histories under both sequential and adversarially randomized schedules.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "consistency/checkers.h"
#include "impossibility/properties.h"
#include "proto/common/client.h"
#include "proto/copssnow/copssnow.h"
#include "proto/registry.h"
#include "sim/schedule.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace discs {
namespace {

using proto::ClientBase;
using proto::Cluster;
using proto::ClusterConfig;
using proto::IdSource;
using proto::Protocol;
using proto::TxSpec;

ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 4;
  cfg.num_objects = 2;
  return cfg;
}

/// Drives one transaction to completion under the fair scheduler.
bool run_tx(sim::Simulation& sim, ProcessId client, const TxSpec& spec,
            std::size_t budget = 60000) {
  sim.process_as<ClientBase>(client).invoke(spec);
  sim::run_fair(sim, {},
                [&](const sim::Simulation& s) {
                  return s.process_as<const ClientBase>(client)
                      .has_completed(spec.id);
                },
                budget);
  return sim.process_as<ClientBase>(client).has_completed(spec.id);
}

class AllProtocols : public ::testing::TestWithParam<std::string> {};

TEST_P(AllProtocols, ReadsInitialValues) {
  auto proto = proto::protocol_by_name(GetParam());
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = proto->build(sim, small_cluster(), ids);

  TxSpec rot = ids.read_tx(cluster.view.objects);
  ASSERT_TRUE(run_tx(sim, cluster.clients[0], rot));
  auto got = sim.process_as<ClientBase>(cluster.clients[0]).result_of(rot.id);
  for (const auto& [obj, v] : cluster.initial_values) {
    ASSERT_TRUE(got.count(obj));
    EXPECT_EQ(got[obj], v) << "object " << to_string(obj);
  }
}

TEST_P(AllProtocols, SingleWriteBecomesReadable) {
  auto proto = proto::protocol_by_name(GetParam());
  if (GetParam() == "stubborn") GTEST_SKIP() << "never makes writes visible";
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = proto->build(sim, small_cluster(), ids);

  TxSpec w = ids.write_one(cluster.view.objects[0]);
  ASSERT_TRUE(run_tx(sim, cluster.clients[0], w));

  // Give stabilization-based protocols a moment to advance their cutoffs.
  sim::run_to_quiescence(sim, {}, 5000);

  TxSpec rot = ids.read_tx({cluster.view.objects[0]});
  ASSERT_TRUE(run_tx(sim, cluster.clients[1], rot));
  auto got = sim.process_as<ClientBase>(cluster.clients[1]).result_of(rot.id);
  EXPECT_EQ(got[cluster.view.objects[0]], w.write_set[0].second);
}

TEST_P(AllProtocols, WriteTxSupportMatchesClaim) {
  auto proto = proto::protocol_by_name(GetParam());
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = proto->build(sim, small_cluster(), ids);

  TxSpec wtx = ids.write_tx(cluster.view.objects);
  if (proto->supports_write_tx()) {
    EXPECT_TRUE(run_tx(sim, cluster.clients[0], wtx));
  } else {
    EXPECT_THROW(
        sim.process_as<ClientBase>(cluster.clients[0]).invoke(wtx),
        CheckFailure);
  }
}

TEST_P(AllProtocols, SequentialWorkloadIsCausal) {
  auto proto = proto::protocol_by_name(GetParam());
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = proto->build(sim, small_cluster(), ids);

  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 40;
  wcfg.seed = 11;
  auto result = wl::run_workload_sequential(sim, *proto, cluster, ids, wcfg);
  if (GetParam() == "stubborn") {
    // Stubborn acks writes but reads stay initial — still causal in the
    // sequential (one-at-a-time) setting only if nothing ever observed a
    // write; read-your-writes style checks fail instead.  Skip.
    GTEST_SKIP();
  }
  EXPECT_EQ(result.incomplete, 0u);
  auto check = cons::check_causal_consistency(result.history);
  EXPECT_TRUE(check.ok()) << GetParam() << ": " << check.summary();
}

TEST_P(AllProtocols, RotAuditMatchesTableRow) {
  auto proto = proto::protocol_by_name(GetParam());
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = proto->build(sim, small_cluster(), ids);

  // A write first so reads have something fresh to chase.
  if (proto->supports_write_tx()) {
    ASSERT_TRUE(
        run_tx(sim, cluster.clients[0], ids.write_tx(cluster.view.objects)));
  } else {
    ASSERT_TRUE(run_tx(sim, cluster.clients[0],
                       ids.write_one(cluster.view.objects[0])));
  }
  sim::run_to_quiescence(sim, {}, 5000);

  TxSpec rot = ids.read_tx(cluster.view.objects);
  std::size_t begin = sim.trace().size();
  ASSERT_TRUE(run_tx(sim, cluster.clients[1], rot));
  auto audit = imposs::audit_rot(sim.trace(), begin, sim.trace().size(),
                                 rot.id, cluster.clients[1], cluster.view);

  const std::string name = GetParam();
  if (name == "cops-snow" || name == "naivefast" || name == "stubborn") {
    EXPECT_TRUE(audit.fast()) << audit.summary();
  } else if (name == "cops" || name == "eiger" || name == "ramp") {
    // Conditionally fast: in this benign (quiesced) configuration the
    // optimistic single round suffices; the adversarial tests in
    // test_impossibility force their slow paths.
    EXPECT_EQ(audit.rounds, 1u) << audit.summary();
  } else {
    EXPECT_FALSE(audit.fast()) << audit.summary();
  }
  if (name == "wren" || name == "gentlerain") {
    EXPECT_EQ(audit.rounds, 2u);
  }
  if (name == "spanner") {
    EXPECT_EQ(audit.rounds, 1u);
    EXPECT_LE(audit.max_values_per_message, 1u);
  }
  if (name == "fatcops") {
    EXPECT_FALSE(audit.one_value) << audit.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AllProtocols,
    ::testing::Values("naivefast", "stubborn", "cops", "cops-snow", "wren",
                      "fatcops", "gentlerain", "eiger", "spanner", "ramp"),
    [](const auto& info) {
      std::string n = info.param;
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

// cops-snow gathers a write's old readers as runs, one per dependency log
// or reply, and sort_unique turns them into the sorted, unique exclusion
// list.  Against a std::set of the same ids, over random runs: empty and
// single-id inputs, sorted and unsorted runs, duplicates within a run and
// across runs, ids dense enough for the bitmap and sparse enough for the
// sort, and ids at both ends of the 64-bit range.
TEST(CopsSnowSortUnique, MatchesStdSetOverRandomRuns) {
  auto check = [](std::vector<TxId> ids) {
    const std::set<TxId> ref(ids.begin(), ids.end());
    proto::copssnow::sort_unique(ids);
    EXPECT_EQ(ids, std::vector<TxId>(ref.begin(), ref.end()));
  };
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  check({});
  check({TxId(5)});
  check({TxId(9), TxId(9), TxId(9)});
  check({TxId(0), TxId(63), TxId(64), TxId(127), TxId(64), TxId(0)});
  check({TxId(kMax - 1), TxId(0), TxId(kMax - 1), TxId(3)});
  check({TxId(kMax - 2), TxId(kMax - 1), TxId(kMax - 70), TxId(kMax - 2)});

  Rng rng(20);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::uint64_t base = rng.chance(0.1) ? kMax - 5000 : rng.below(1000);
    const std::uint64_t span =
        rng.chance(0.5) ? 1 + rng.below(3000) : std::uint64_t{1} << 40;
    std::vector<TxId> ids;
    std::vector<TxId> prev;
    const std::size_t runs = rng.below(6);
    for (std::size_t r = 0; r < runs; ++r) {
      std::vector<TxId> run;
      if (!prev.empty() && rng.chance(0.2)) {
        run = prev;  // the same ROTs through a second dependency
      } else {
        const std::size_t len = rng.chance(0.2) ? 1 : rng.below(400);
        for (std::size_t i = 0; i < len; ++i)
          run.push_back(TxId(base + rng.below(span)));
        if (rng.chance(0.6)) std::sort(run.begin(), run.end());
      }
      if (!run.empty() && rng.chance(0.3))  // a ROT served twice
        run.insert(run.begin() + rng.below(run.size()),
                   run[rng.below(run.size())]);
      ids.insert(ids.end(), run.begin(), run.end());
      prev = std::move(run);
    }
    check(std::move(ids));
  }
}

}  // namespace
}  // namespace discs
