// Sharded, partially-replicated clusters (docs/SHARDING.md).
//
// Three layers of coverage:
//  * ShardMap / ShardRouter units: arithmetic placement honors the
//    Appendix A invariants (every server stores something, no server
//    stores everything), the default one-shard-per-object cluster matches
//    the round-robin formula of Theorem 1's cluster, every cluster rejects
//    object ids outside its key space, and the router's join bookkeeping
//    matches the per-protocol awaiting-sets it absorbed.
//  * Trace headers: the default (num_shards == 1) configuration emits no
//    shard key and its artifacts replay exactly as before; sharded headers
//    round-trip and rebuild the same ShardMap.
//  * End to end: every registry protocol runs cross-shard transactions at
//    shards > servers, holds its claimed consistency level, passes the
//    Table-1 audit at 64 shards, survives a chaos smoke, and — through the
//    real-threads backend — still agrees with the simulator oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "chaos/chaos.h"
#include "consistency/checkers.h"
#include "impossibility/auditor.h"
#include "impossibility/progress.h"
#include "obs/trace_io.h"
#include "proto/common/client.h"
#include "proto/common/shard.h"
#include "proto/registry.h"
#include "rt/runtime.h"
#include "util/check.h"
#include "util/fmt.h"
#include "workload/workload.h"

namespace discs {
namespace {

using cons::Verdict;
using proto::ClusterConfig;
using proto::ShardMap;
using proto::ShardRouter;

std::vector<ProcessId> servers(std::size_t m, std::uint64_t first = 0) {
  std::vector<ProcessId> out;
  for (std::size_t i = 0; i < m; ++i) out.push_back(ProcessId(first + i));
  return out;
}

bool is_strawman(const std::string& name) {
  return name == "naivefast" || name == "stubborn";
}

/// The claimed-level checker dispatch the rt tests use, shared here for the
/// sharded sweeps.
cons::CheckResult check_claim(const proto::Protocol& protocol,
                              const hist::History& history) {
  const std::string claim = protocol.consistency_claim();
  if (claim.find("strict") != std::string::npos)
    return cons::check_strict_serializability(history);
  if (claim.find("read-atomic") != std::string::npos)
    return cons::check_read_atomicity(history);
  return cons::check_causal_consistency(history);
}

// --- ShardMap units ----------------------------------------------------------

TEST(ShardMap, PlacementHonorsAppendixAInvariants) {
  const auto srv = servers(4);
  ShardMap map = ShardMap::make(/*num_shards=*/8, /*replicas=*/2, srv,
                                /*num_objects=*/32);
  ASSERT_EQ(map.num_shards(), 8u);
  EXPECT_EQ(map.str(), "8x2/m4");

  // Key routing is residue arithmetic; the replica group is R consecutive
  // servers from shard mod m, primary first.
  EXPECT_EQ(map.shard_of(ObjectId(13)), 5u);
  EXPECT_EQ(map.primary_of(5), srv[1]);
  EXPECT_EQ(map.replicas_of(ObjectId(13)),
            (std::vector<ProcessId>{srv[1], srv[2]}));

  // Every server stores a non-empty, strict subset of the objects.
  for (auto s : srv) {
    auto objs = map.objects_at(s);
    EXPECT_FALSE(objs.empty());
    EXPECT_LT(objs.size(), map.num_objects());
    EXPECT_TRUE(std::is_sorted(objs.begin(), objs.end()));
    for (auto obj : objs) EXPECT_TRUE(map.server_stores(s, obj));
  }

  // Coverage: each object is stored by exactly R servers, and the three
  // placement views (replicas_of, server_stores, objects_at) agree.
  std::map<std::uint64_t, std::set<std::uint64_t>> holders;
  for (auto s : srv)
    for (auto obj : map.objects_at(s)) holders[obj.value()].insert(s.value());
  for (std::size_t o = 0; o < map.num_objects(); ++o) {
    ObjectId obj(o);
    ASSERT_EQ(holders[o].size(), map.replicas());
    for (auto s : map.replicas_of(obj)) {
      EXPECT_TRUE(holders[o].count(s.value()));
      EXPECT_TRUE(map.server_stores(s, obj));
    }
  }
}

TEST(ShardMap, RejectsDegenerateConfigurations) {
  const auto srv = servers(4);
  // Fewer shards than servers: some server would store nothing.
  EXPECT_THROW(ShardMap::make(3, 1, srv, 16), CheckFailure);
  // Full replication: some (every) server would store everything.
  EXPECT_THROW(ShardMap::make(8, 4, srv, 16), CheckFailure);
  EXPECT_THROW(ShardMap::make(8, 0, srv, 16), CheckFailure);
  // Fewer keys than shards: an empty shard stores nothing anywhere.
  EXPECT_THROW(ShardMap::make(8, 1, srv, 7), CheckFailure);
  // One server is below the model's m >= 2.
  EXPECT_THROW(ShardMap::make(2, 1, servers(1), 4), CheckFailure);
}

TEST(ShardMap, MillionKeyPlacementStaysCheap) {
  // The point of computed placement: per-server enumeration is O(stored),
  // so a million-key map costs milliseconds and no per-key metadata.
  const std::size_t kKeys = 1'000'000;
  const auto srv = servers(8);
  ShardMap map = ShardMap::make(64, 2, srv, kKeys);
  std::size_t total = 0;
  for (auto s : srv) {
    auto objs = map.objects_at(s);
    EXPECT_TRUE(std::is_sorted(objs.begin(), objs.end()));
    total += objs.size();
    for (std::size_t i = 0; i < objs.size(); i += 997)
      EXPECT_TRUE(map.server_stores(s, objs[i]));
  }
  // Every key twice (R = 2), split across the 8 servers.
  EXPECT_EQ(total, 2 * kKeys);
  EXPECT_FALSE(map.server_stores(srv[0], ObjectId(1)));  // shard 1 -> s1,s2
}

TEST(FlatPlacement, DefaultClusterIsTheRoundRobinFormula) {
  // num_shards == 1 is one shard per object.  Reference, written out:
  // object o lives on servers (o + r) mod m for r = 0..R-1, primary first.
  for (std::size_t m : {2, 3, 4, 8}) {
    for (std::size_t objects : {m, m + 1, 3 * m + 1}) {
      for (std::size_t r_max = 1; r_max < m; ++r_max) {
        SCOPED_TRACE(cat("m=", m, " objects=", objects, " R=", r_max));
        ClusterConfig cfg;
        cfg.num_servers = m;
        cfg.num_objects = objects;
        cfg.replication = r_max;
        const proto::ClusterView view = proto::make_view(cfg, ProcessId(0));
        for (std::size_t o = 0; o < objects; ++o) {
          std::vector<ProcessId> want;
          for (std::size_t r = 0; r < r_max; ++r)
            want.push_back(ProcessId((o + r) % m));
          EXPECT_EQ(view.replicas(ObjectId(o)), want);
          EXPECT_EQ(view.primary(ObjectId(o)), ProcessId(o % m));
          for (std::size_t k = 0; k < m; ++k) {
            const bool stored =
                std::find(want.begin(), want.end(), ProcessId(k)) !=
                want.end();
            EXPECT_EQ(view.server_stores(ProcessId(k), ObjectId(o)), stored);
          }
        }
        for (std::size_t k = 0; k < m; ++k) {
          std::vector<ObjectId> want;
          for (std::size_t o = 0; o < objects; ++o)
            for (std::size_t r = 0; r < r_max; ++r)
              if ((o + r) % m == k) {
                want.push_back(ObjectId(o));
                break;
              }
          EXPECT_EQ(view.objects_at(ProcessId(k)), want);
        }
      }
    }
  }
}

TEST(FlatPlacement, RejectsFullReplication) {
  // No server may store everything: ShardMap::make's R < m check covers
  // the one-shard-per-object cluster too, objects == servers included.
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.num_objects = 3;
  cfg.replication = 3;
  EXPECT_THROW(proto::make_view(cfg, ProcessId(0)), CheckFailure);
}

TEST(Placement, EveryClusterRejectsObjectsOutsideItsKeySpace) {
  ClusterConfig flat;
  flat.num_servers = 3;
  flat.num_objects = 4;
  flat.replication = 2;
  ClusterConfig sharded = flat;
  sharded.num_objects = 16;
  sharded.num_shards = 8;
  for (const ClusterConfig& cfg : {flat, sharded}) {
    SCOPED_TRACE(cat("num_shards=", cfg.num_shards));
    const proto::ClusterView view = proto::make_view(cfg, ProcessId(0));
    const ObjectId last(cfg.num_objects - 1);
    const ObjectId past(cfg.num_objects);
    EXPECT_NO_THROW(view.replicas(last));
    EXPECT_THROW(view.replicas(past), CheckFailure);
    EXPECT_THROW(view.server_stores(view.servers.front(), past),
                 CheckFailure);
  }
}

TEST(ShardRouter, JoinBookkeepingMatchesTheAwaitingSetsItReplaced) {
  ShardRouter router;
  EXPECT_TRUE(router.joined());
  router.expect(ProcessId(3));
  router.expect(ProcessId(1));
  router.expect(ProcessId(3));  // idempotent, as set insertion was
  EXPECT_FALSE(router.joined());
  EXPECT_EQ(router.pending(), 2u);
  // Digest surface: sorted raw ids, exactly as the old std::set rendered.
  EXPECT_EQ(*router.awaiting().begin(), 1u);
  EXPECT_FALSE(router.ack(ProcessId(3)));
  EXPECT_FALSE(router.ack(ProcessId(7)));  // unknown ack changes nothing
  EXPECT_TRUE(router.ack(ProcessId(1)));
  EXPECT_TRUE(router.joined());
  router.expect(ProcessId(9));
  router.reset();
  EXPECT_TRUE(router.joined());
}

// --- trace headers: the knob is invisible until used -------------------------

TEST(ShardedTrace, DefaultHeaderOmitsShardKey) {
  auto protocol = proto::protocol_by_name("cops");
  ClusterConfig cfg;
  obs::TraceDoc doc = obs::capture_scenario(*protocol, "quickread", cfg);
  std::string bytes = obs::export_jsonl(doc);
  EXPECT_EQ(bytes.find("\"shards\""), std::string::npos);
  EXPECT_EQ(obs::import_jsonl(bytes).cluster.num_shards, 1u);
}

TEST(ShardedTrace, ShardedHeaderRoundTripsAndReplaysByteExactly) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_objects = 16;
  cfg.num_shards = 8;
  cfg.replication = 2;
  for (const auto& protocol : proto::all_protocols()) {
    SCOPED_TRACE(protocol->name());
    obs::TraceDoc doc = obs::capture_scenario(*protocol, "mixed", cfg);
    std::string bytes = obs::export_jsonl(doc);
    EXPECT_NE(bytes.find("\"shards\""), std::string::npos);

    // Import rebuilds the same topology; replay rebuilds the same ShardMap
    // and lands byte-for-byte on the captured artifact.
    obs::TraceDoc imported = obs::import_jsonl(bytes);
    EXPECT_EQ(imported.cluster.num_shards, 8u);
    EXPECT_EQ(imported.cluster.replication, 2u);
    obs::DocReplay replay = obs::replay_doc(imported);
    ASSERT_TRUE(replay.ok) << replay.error;
    EXPECT_TRUE(replay.digest_match);
    EXPECT_EQ(obs::export_jsonl(replay.reexport), bytes);
  }
}

// --- cross-shard transactions, whole registry --------------------------------

TEST(ShardedWorkload, EveryProtocolHoldsItsClaimAtEightShards) {
  ClusterConfig ccfg;
  ccfg.num_servers = 4;
  ccfg.num_clients = 4;
  ccfg.num_objects = 16;
  ccfg.num_shards = 8;
  ccfg.replication = 2;
  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 40;
  wcfg.read_objects = 3;  // read sets straddle shard groups
  wcfg.write_fraction = 0.4;
  wcfg.seed = 17;
  for (const auto& protocol : proto::all_protocols()) {
    SCOPED_TRACE(protocol->name());
    sim::Simulation sim;
    proto::IdSource ids;
    proto::Cluster cluster = protocol->build(sim, ccfg, ids);
    auto result = wl::run_workload_concurrent(sim, *protocol, cluster, ids,
                                              wcfg);
    EXPECT_EQ(result.incomplete, 0u);
    EXPECT_NE(cons::check_reads_valid(result.history).verdict,
              Verdict::kViolation);
    if (is_strawman(protocol->name())) continue;  // violating is their point
    auto claimed = check_claim(*protocol, result.history);
    EXPECT_NE(claimed.verdict, Verdict::kViolation)
        << (claimed.violations.empty() ? ""
                                       : claimed.violations.front().detail);
  }
}

TEST(ShardedAudit, TableOneHoldsAtSixtyFourShards) {
  // The acceptance bar: the general (sharded, partially replicated)
  // topology must not change any protocol's Table-1 position — the same
  // bounds test_auditor pins on the 2-server cluster hold at 64 shards.
  struct Expected {
    const char* name;
    std::size_t r;
    std::size_t v;
    bool n;
  };
  const Expected expected[] = {
      {"cops", 2, 2, true},      {"gentlerain", 2, 1, false},
      {"cops-snow", 1, 1, true}, {"ramp", 2, 2, true},
      {"eiger", 3, 2, true},     {"wren", 2, 1, true},
      {"spanner", 1, 1, false},
  };
  imposs::AuditConfig cfg;
  cfg.cluster.num_servers = 4;
  cfg.cluster.num_clients = 4;
  cfg.cluster.num_objects = 64;
  cfg.cluster.num_shards = 64;
  cfg.cluster.replication = 2;
  cfg.workload_txs = 24;
  cfg.stress_seeds = 2;
  cfg.run_induction = false;
  for (const auto& e : expected) {
    auto protocol = proto::protocol_by_name(e.name);
    auto audit = imposs::audit_protocol(*protocol, cfg);
    EXPECT_LE(audit.max_rounds, e.r) << e.name << ": " << audit.row_str();
    EXPECT_LE(audit.max_values_per_object, e.v)
        << e.name << ": " << audit.row_str();
    EXPECT_EQ(audit.nonblocking, e.n) << e.name << ": " << audit.row_str();
    if (e.name != std::string("ramp")) {
      EXPECT_EQ(audit.causal_verdict, Verdict::kOk)
          << e.name << ": " << audit.causal_detail;
    }
  }
}

// --- fault machinery in the sharded regime ------------------------------------

TEST(ShardedFaults, ProgressAuditAndChaosSmoke) {
  ClusterConfig cluster;
  cluster.num_servers = 4;
  cluster.num_clients = 4;
  cluster.num_objects = 16;
  cluster.num_shards = 8;
  cluster.replication = 2;

  // Fault-free progress: a cross-shard write becomes visible to a fresh
  // reader, exactly as on the flat cluster.
  imposs::ProgressOptions popts;
  popts.cluster = cluster;
  fault::FaultPlan empty;
  auto report =
      imposs::audit_progress(*proto::protocol_by_name("cops"), empty, popts);
  EXPECT_TRUE(report.progress()) << report.detail;

  // Chaos campaign inside the fairness envelope: randomized faults over the
  // sharded cluster must not produce safety or liveness counterexamples.
  chaos::CampaignConfig ccfg;
  ccfg.cluster = cluster;
  ccfg.workload.num_txs = 16;
  ccfg.workload.seed = 3;
  ccfg.runs = 2;
  ccfg.seed = 5;
  auto result =
      chaos::run_campaign(*proto::protocol_by_name("cops-snow"), ccfg);
  EXPECT_EQ(result.runs, 2u);
  EXPECT_TRUE(result.counterexamples.empty())
      << result.counterexamples.front().detail;
}

// --- real-threads backend ------------------------------------------------------

TEST(ShardedRt, OracleAgreementHoldsAtEightShards) {
  proto::ClusterConfig ccfg;
  ccfg.num_servers = 4;
  ccfg.num_clients = 3;
  ccfg.num_objects = 16;
  ccfg.num_shards = 8;
  ccfg.replication = 2;
  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 15;
  wcfg.write_fraction = 0.3;
  wcfg.read_objects = 3;
  wcfg.seed = 11;
  rt::Options opts;
  opts.workers = 2;
  for (const auto& protocol : proto::all_protocols()) {
    SCOPED_TRACE(protocol->name());
    rt::RunReport rep = rt::run(*protocol, ccfg, wcfg, opts);
    ASSERT_FALSE(rep.timed_out);
    EXPECT_EQ(rep.txs_incomplete, 0u);
    // The concurrently captured sharded run replays byte-for-byte on the
    // single-threaded simulator, shard routing included.
    obs::DocReplay replay = obs::replay_doc(rep.doc, *protocol);
    ASSERT_TRUE(replay.ok) << replay.error;
    EXPECT_TRUE(replay.digest_match);
    EXPECT_EQ(obs::export_jsonl(replay.reexport), obs::export_jsonl(rep.doc));
  }
}

}  // namespace
}  // namespace discs
