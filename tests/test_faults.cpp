// The programmable fault layer: plan serialization, engine determinism,
// partition-window semantics, crash/restart recovery, discs.trace.v2
// byte-exact replay, and the progress auditor against the paper's
// adversarial schedules (Theorem 1's progress property).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "fault/plan.h"
#include "fault/session.h"
#include "impossibility/progress.h"
#include "obs/trace_io.h"
#include "proto/common/client.h"
#include "proto/registry.h"
#include "sim/schedule.h"
#include "util/check.h"
#include "workload/workload.h"

namespace discs {
namespace {

using fault::FaultPlan;
using fault::FaultSession;
using fault::Selector;
using proto::ClientBase;
using proto::Cluster;
using proto::ClusterConfig;
using proto::IdSource;
using proto::TxSpec;

// --- plan serialization ----------------------------------------------------

TEST(FaultPlan, JsonRoundTripPreservesEveryRuleKind) {
  FaultPlan plan;
  plan.name = "kitchen-sink";
  plan.seed = 99;
  plan.rules.push_back(fault::drop_rule(0.25, 7, Selector::client(),
                                        Selector::server()));
  plan.rules.push_back(fault::delay_rule(3, 0.5));
  plan.rules.push_back(fault::duplicate_rule(0.1));
  plan.rules.push_back(fault::reorder_rule(0.4, 6));
  plan.rules.push_back(
      fault::partition_rule({ProcessId(0)}, {ProcessId(1)}, 10, 50));
  plan.rules.push_back(fault::hold_rule(Selector::server(),
                                        Selector::server(), 0, fault::kForever));
  plan.rules.push_back(fault::crash_rule(ProcessId(1), 20, 80, true));

  FaultPlan back = FaultPlan::parse(plan.dump());
  EXPECT_EQ(back, plan);
  // Dump is canonical: round-tripping reproduces the same bytes.
  EXPECT_EQ(back.dump(), plan.dump());
}

TEST(FaultPlan, ParseRejectsWrongSchemaAndGarbage) {
  FaultPlan plan = fault::paper_delay_adversary();
  std::string text = plan.dump();
  auto pos = text.find("discs.faultplan.v1");
  ASSERT_NE(pos, std::string::npos);
  std::string tampered = text;
  tampered.replace(pos, 18, "discs.faultplan.v9");
  EXPECT_THROW(FaultPlan::parse(tampered), CheckFailure);
  EXPECT_THROW(FaultPlan::parse("not json at all"), CheckFailure);
}

TEST(FaultPlan, ParseRejectsProbabilityOutsideUnitInterval) {
  for (double p : {7.5, -0.1, std::nan("")}) {
    for (const auto& rule :
         {fault::drop_rule(p), fault::delay_rule(1, p),
          fault::duplicate_rule(p), fault::reorder_rule(p)}) {
      FaultPlan plan;
      plan.rules.push_back(rule);
      EXPECT_THROW(FaultPlan::from_json(plan.to_json()), CheckFailure) << p;
    }
  }
  EXPECT_THROW(FaultPlan::parse(R"({"schema":"discs.faultplan.v1",)"
                                R"("rules":[{"kind":"drop","p":7.5}]})"),
               CheckFailure);
  // The bounds themselves are probabilities.
  for (double p : {0.0, 1.0}) {
    FaultPlan plan;
    plan.rules.push_back(fault::drop_rule(p));
    EXPECT_EQ(FaultPlan::parse(plan.dump()), plan);
  }
}

TEST(FaultPlan, ScriptedPlansAreWellFormed) {
  FaultPlan delay = fault::paper_delay_adversary();
  EXPECT_EQ(delay.name, "paper-delay-adversary");
  ASSERT_EQ(delay.rules.size(), 1u);
  EXPECT_EQ(delay.rules[0].kind, fault::FaultRule::Kind::kHold);
  EXPECT_EQ(delay.rules[0].to, fault::kForever);
  EXPECT_EQ(FaultPlan::parse(delay.dump()), delay);

  FaultPlan lossy = fault::drop_retransmit_plan(0.3, 6);
  ASSERT_EQ(lossy.rules.size(), 1u);
  EXPECT_EQ(lossy.rules[0].kind, fault::FaultRule::Kind::kDrop);
  EXPECT_EQ(lossy.rules[0].retransmit_after, 6u);
  EXPECT_EQ(FaultPlan::parse(lossy.dump()), lossy);
}

// --- partition windows -----------------------------------------------------

TEST(FaultSessionTest, PartitionWindowIsSymmetricAndBounded) {
  FaultPlan plan;
  plan.rules.push_back(
      fault::partition_rule({ProcessId(0)}, {ProcessId(1)}, 10, 50));
  FaultSession session(plan, {{ProcessId(0), ProcessId(1)}, {ProcessId(2)}});

  // Before the window: open both ways.
  EXPECT_FALSE(session.link_blocked(ProcessId(0), ProcessId(1), 9));
  EXPECT_FALSE(session.link_blocked(ProcessId(1), ProcessId(0), 9));
  // Inside: blocked both ways (bidirectional by construction).
  for (std::uint64_t t : {10u, 25u, 49u}) {
    EXPECT_TRUE(session.link_blocked(ProcessId(0), ProcessId(1), t)) << t;
    EXPECT_TRUE(session.link_blocked(ProcessId(1), ProcessId(0), t)) << t;
  }
  // The window is half-open: heals exactly at `to`.
  EXPECT_FALSE(session.link_blocked(ProcessId(0), ProcessId(1), 50));
  EXPECT_FALSE(session.link_blocked(ProcessId(1), ProcessId(0), 50));
  // Links not crossing the cut stay open throughout.
  EXPECT_FALSE(session.link_blocked(ProcessId(2), ProcessId(0), 25));
  EXPECT_FALSE(session.link_blocked(ProcessId(2), ProcessId(1), 25));
}

TEST(FaultSessionTest, HoldIsDirectional) {
  FaultPlan plan;
  plan.rules.push_back(
      fault::hold_rule(Selector::server(), Selector::server()));
  FaultSession session(plan, {{ProcessId(0), ProcessId(1)}, {ProcessId(2)}});
  EXPECT_TRUE(session.link_blocked(ProcessId(0), ProcessId(1), 0));
  EXPECT_TRUE(session.link_blocked(ProcessId(1), ProcessId(0), 0));
  // Client links are unaffected by a server->server hold.
  EXPECT_FALSE(session.link_blocked(ProcessId(2), ProcessId(0), 0));
  EXPECT_FALSE(session.link_blocked(ProcessId(0), ProcessId(2), 0));
}

// --- crash / restart -------------------------------------------------------

struct BuiltCluster {
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster;
  std::shared_ptr<proto::Protocol> protocol;
};

BuiltCluster build(const std::string& name, ClusterConfig cfg = {}) {
  BuiltCluster b;
  b.protocol = proto::protocol_by_name(name);
  b.cluster = b.protocol->build(b.sim, cfg, b.ids);
  return b;
}

void drive_until(sim::Simulation& sim, ProcessId client, TxId tx,
                 std::size_t budget = 20000) {
  sim::run_fair(sim, {},
                [&](const sim::Simulation& s) {
                  return s.process_as<const ClientBase>(client).has_completed(
                      tx);
                },
                budget);
}

TEST(CrashRestart, CrashedServerIsInertUntilRestart) {
  BuiltCluster b = build("cops");
  ProcessId server = b.cluster.view.servers[0];
  ASSERT_TRUE(b.sim.crash(server, /*lossy=*/false));
  EXPECT_TRUE(b.sim.is_crashed(server));
  EXPECT_FALSE(b.sim.crash(server, false)) << "double crash";
  EXPECT_FALSE(b.sim.step(server)) << "crashed processes do not step";
  ASSERT_TRUE(b.sim.restart(server));
  EXPECT_FALSE(b.sim.is_crashed(server));
  EXPECT_FALSE(b.sim.restart(server)) << "double restart";
  EXPECT_TRUE(b.sim.step(server));
}

TEST(CrashRestart, LossyCrashLosesUnreplicatedWrite) {
  BuiltCluster b = build("cops");
  ObjectId obj = b.cluster.view.objects.front();
  ValueId initial = b.cluster.initial_values.at(obj);

  TxSpec w = b.ids.write_one(obj);
  ValueId written = w.write_set.front().second;
  ProcessId writer = b.cluster.clients[0];
  b.sim.process_as<ClientBase>(writer).invoke(w);
  drive_until(b.sim, writer, w.id);
  ASSERT_TRUE(b.sim.process_as<const ClientBase>(writer).has_completed(w.id));

  // Power-cycle the primary with state loss: its store falls back to the
  // seeded baseline (replication == 1, so nobody else holds the write).
  ProcessId primary = b.cluster.view.primary(obj);
  ASSERT_TRUE(b.sim.crash(primary, /*lossy=*/true));
  ASSERT_TRUE(b.sim.restart(primary));

  TxSpec r = b.ids.read_tx({obj});
  ProcessId reader = b.cluster.clients[1];
  b.sim.process_as<ClientBase>(reader).invoke(r);
  drive_until(b.sim, reader, r.id);
  auto got = b.sim.process_as<ClientBase>(reader).result_of(r.id);
  ASSERT_TRUE(got.count(obj));
  EXPECT_EQ(got.at(obj), initial) << "lossy crash must wipe the write";
  EXPECT_NE(got.at(obj), written);
}

TEST(CrashRestart, RecoveringCrashKeepsTheWrite) {
  BuiltCluster b = build("cops");
  ObjectId obj = b.cluster.view.objects.front();

  TxSpec w = b.ids.write_one(obj);
  ValueId written = w.write_set.front().second;
  ProcessId writer = b.cluster.clients[0];
  b.sim.process_as<ClientBase>(writer).invoke(w);
  drive_until(b.sim, writer, w.id);

  // Non-lossy crash models recovery from the versioned store: the server
  // is unavailable for a while but comes back with its state intact.
  ProcessId primary = b.cluster.view.primary(obj);
  ASSERT_TRUE(b.sim.crash(primary, /*lossy=*/false));
  ASSERT_TRUE(b.sim.restart(primary));

  TxSpec r = b.ids.read_tx({obj});
  ProcessId reader = b.cluster.clients[1];
  b.sim.process_as<ClientBase>(reader).invoke(r);
  drive_until(b.sim, reader, r.id);
  auto got = b.sim.process_as<ClientBase>(reader).result_of(r.id);
  ASSERT_TRUE(got.count(obj));
  EXPECT_EQ(got.at(obj), written);
}

TEST(CrashRestart, SessionRejectsCrashRuleOutsideTopology) {
  FaultPlan plan;
  plan.rules.push_back(fault::drop_rule(0.1));
  plan.rules.push_back(fault::crash_rule(ProcessId(99), 5, 50));
  try {
    FaultSession session(plan, {{ProcessId(0), ProcessId(1)}, {ProcessId(2)}});
    FAIL() << "a crash rule naming process 99 was accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("rule 1 (crash)"), std::string::npos)
        << e.what();
  }
  // Clients are part of the topology too.
  plan.rules.back() = fault::crash_rule(ProcessId(2), 5, 50);
  EXPECT_NO_THROW(
      FaultSession(plan, {{ProcessId(0), ProcessId(1)}, {ProcessId(2)}}));
}

TEST(CrashRestart, SchedulersCountOnlyAppliedEvents) {
  // A step refused to a crashed process is not an event: each scheduler's
  // event count must equal the virtual time it advanced.
  for (bool random : {false, true}) {
    BuiltCluster b = build("cops");
    ASSERT_TRUE(b.sim.crash(b.cluster.view.servers[0], /*lossy=*/false));
    const std::uint64_t start = b.sim.now();
    Rng rng(1);
    sim::RunStats stats = random ? sim::run_random(b.sim, {}, rng, nullptr, 500)
                                 : sim::run_fair(b.sim, {}, nullptr, 500);
    EXPECT_GT(stats.events(), 0u);
    EXPECT_EQ(stats.events(), b.sim.now() - start)
        << (random ? "run_random" : "run_fair");
  }
}

// --- determinism -----------------------------------------------------------

obs::TraceDoc capture_once(const std::string& proto_name,
                           const FaultPlan& plan) {
  auto protocol = proto::protocol_by_name(proto_name);
  obs::FaultedCaptureOptions options;
  options.plan = plan;
  return obs::capture_faulted(*protocol, options);
}

TEST(FaultDeterminism, SameSeedSamePlanGivesByteIdenticalTraces) {
  FaultPlan plan;
  plan.name = "mix";
  plan.seed = 7;
  plan.rules.push_back(fault::drop_rule(0.3, 5));
  plan.rules.push_back(fault::delay_rule(2, 0.5));
  plan.rules.push_back(fault::duplicate_rule(0.2));

  obs::TraceDoc a = capture_once("cops-snow", plan);
  obs::TraceDoc b = capture_once("cops-snow", plan);
  EXPECT_EQ(obs::export_jsonl(a), obs::export_jsonl(b));
  EXPECT_EQ(a.final_digest, b.final_digest);

  // A different fault seed steers the execution elsewhere (the plan's RNG
  // is live, not vestigial).
  plan.seed = 8;
  obs::TraceDoc c = capture_once("cops-snow", plan);
  EXPECT_NE(obs::export_jsonl(a), obs::export_jsonl(c));
}

TEST(FaultDeterminism, FaultedWorkloadIsReproducible) {
  FaultPlan plan = fault::drop_retransmit_plan(0.2, 5);
  auto run = [&]() {
    BuiltCluster b = build("wren");
    FaultSession session(plan, {b.cluster.view.servers, b.cluster.clients});
    wl::WorkloadConfig wcfg;
    wcfg.num_txs = 12;
    wcfg.seed = 4;
    wl::run_workload_concurrent_faulted(b.sim, *b.protocol, b.cluster, b.ids,
                                        wcfg, session);
    return b.sim.digest();
  };
  EXPECT_EQ(run(), run());
}

// --- branching -------------------------------------------------------------

// A (simulation, session) pair copied mid-run is an independent faulted
// branch with the same future (docs/FAULTS.md); the progress auditor's
// probe relies on it.  The copy point falls inside the hold window, with
// messages in flight and a retransmission queued.
TEST(FaultSessionTest, CopiedBranchHasTheSameFuture) {
  FaultPlan plan;
  plan.name = "branch";
  plan.seed = 11;
  plan.rules.push_back(fault::drop_rule(0.3, 20));
  plan.rules.push_back(fault::delay_rule(3, 0.5));
  plan.rules.push_back(fault::duplicate_rule(0.2));
  plan.rules.push_back(
      fault::hold_rule(Selector::server(), Selector::server(), 100, 400));

  ClusterConfig cfg;
  cfg.exactly_once = true;
  BuiltCluster b = build("wren", cfg);
  FaultSession session(plan, {b.cluster.view.servers, b.cluster.clients});
  const auto& objects = b.cluster.view.objects;
  for (std::size_t c = 0; c < b.cluster.clients.size(); ++c)
    b.sim.process_as<ClientBase>(b.cluster.clients[c])
        .invoke(b.ids.write_one(objects[c % objects.size()]));
  fault::run_fair_faulted(b.sim, session, {}, nullptr, 150);
  ASSERT_GT(b.sim.network().in_flight_count(), 0u);
  ASSERT_TRUE(session.has_pending()) << "no retransmission queued";

  sim::Simulation copy = b.sim;
  FaultSession copy_session = session;
  const std::size_t at = b.sim.trace().size();
  fault::run_fair_faulted(b.sim, session, {}, nullptr, 600);
  fault::run_fair_faulted(copy, copy_session, {}, nullptr, 600);
  // 600 steps and deliveries, plus the fault events among them.
  const std::vector<sim::Event> future = b.sim.trace().events_from(at);
  EXPECT_GT(future.size(), 600u);
  EXPECT_EQ(copy.trace().events_from(at), future);
  EXPECT_EQ(copy.digest(), b.sim.digest());
  for (auto kind : {sim::Event::Kind::kDrop, sim::Event::Kind::kDuplicate,
                    sim::Event::Kind::kRetransmit})
    EXPECT_TRUE(std::any_of(
        future.begin(), future.end(),
        [&](const sim::Event& e) { return e.kind == kind; }))
        << "the future fired no fault of kind " << static_cast<int>(kind);

  // Advancing the copy alone leaves the original untouched.
  const std::string original = b.sim.digest();
  fault::run_fair_faulted(copy, copy_session, {}, nullptr, 300);
  EXPECT_EQ(b.sim.digest(), original);
  EXPECT_NE(copy.digest(), original);
}

// --- trace v2 --------------------------------------------------------------

TEST(TraceV2, FaultFreeCapturesKeepTheV1Header) {
  FaultPlan empty;  // no rules: the engine never fires
  obs::TraceDoc doc = capture_once("cops", empty);
  EXPECT_EQ(doc.schema, obs::kTraceSchema);
}

TEST(TraceV2, FaultedCaptureReplaysByteExactly) {
  FaultPlan plan;
  plan.name = "rich";
  plan.seed = 3;
  plan.rules.push_back(fault::drop_rule(0.35, 4));
  plan.rules.push_back(fault::delay_rule(1, 0.4));
  plan.rules.push_back(fault::duplicate_rule(0.25));

  obs::TraceDoc doc = capture_once("cops-snow", plan);
  EXPECT_EQ(doc.schema, obs::kTraceSchemaV2);
  bool has_fault = false;
  for (const auto& e : doc.events)
    has_fault |= e.event.kind != sim::Event::Kind::kStep &&
                 e.event.kind != sim::Event::Kind::kDeliver;
  ASSERT_TRUE(has_fault) << "plan fired no fault; the test is vacuous";

  std::string bytes = obs::export_jsonl(doc);
  obs::TraceDoc imported = obs::import_jsonl(bytes);
  obs::DocReplay replay = obs::replay_doc(imported);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_TRUE(replay.digest_match);
  EXPECT_EQ(obs::export_jsonl(replay.reexport), bytes);
}

TEST(TraceV2, CrashAndRestartReplayByteExactly) {
  BuiltCluster b = build("cops");
  ObjectId obj = b.cluster.view.objects.front();
  std::vector<obs::InvokeRecord> invokes;
  auto invoke = [&](ProcessId client, const TxSpec& spec) {
    invokes.push_back({b.sim.now(), client, spec});
    b.sim.process_as<ClientBase>(client).invoke(spec);
  };

  TxSpec w = b.ids.write_one(obj);
  invoke(b.cluster.clients[0], w);
  drive_until(b.sim, b.cluster.clients[0], w.id);
  ASSERT_TRUE(b.sim.crash(b.cluster.view.primary(obj), /*lossy=*/true));
  ASSERT_TRUE(b.sim.restart(b.cluster.view.primary(obj)));
  TxSpec r = b.ids.read_tx({obj});
  invoke(b.cluster.clients[1], r);
  drive_until(b.sim, b.cluster.clients[1], r.id);

  obs::TraceDoc doc = obs::make_doc(*b.protocol, "crash-restart", {}, b.sim,
                                    b.cluster, invokes);
  EXPECT_EQ(doc.schema, obs::kTraceSchemaV2);
  std::string bytes = obs::export_jsonl(doc);
  obs::DocReplay replay = obs::replay_doc(obs::import_jsonl(bytes));
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(obs::export_jsonl(replay.reexport), bytes);
}

TEST(TraceV2, FaultEventsAreRejectedUnderV1Header) {
  FaultPlan plan;
  plan.seed = 3;
  plan.rules.push_back(fault::drop_rule(0.5, 4));
  obs::TraceDoc doc = capture_once("cops", plan);
  ASSERT_EQ(doc.schema, obs::kTraceSchemaV2);
  std::string bytes = obs::export_jsonl(doc);
  auto pos = bytes.find("discs.trace.v2");
  ASSERT_NE(pos, std::string::npos);
  bytes.replace(pos, 14, "discs.trace.v1");
  EXPECT_THROW(obs::import_jsonl(bytes), CheckFailure);
}

// --- progress auditor ------------------------------------------------------

TEST(ProgressAuditor, PaperDelayAdversaryStarvesStabilizationProtocols) {
  // gentlerain and wren gate fresh reads on a stabilization frontier that
  // only advances via server->server gossip — exactly the messages the
  // paper's delay adversary keeps in flight (Figures 2-3).  The write
  // completes, but the probe reads the old value forever.
  FaultPlan plan = fault::paper_delay_adversary();
  for (const std::string name : {"gentlerain", "wren"}) {
    auto protocol = proto::protocol_by_name(name);
    auto report = imposs::audit_progress(*protocol, plan);
    EXPECT_TRUE(report.starved()) << name << ": " << report.detail;
    EXPECT_TRUE(report.write_completed) << name << ": " << report.detail;
  }
}

TEST(ProgressAuditor, LossyNetworkWithRetransmissionsStarvesNobody) {
  // The acceptance bar: every §3.4 protocol keeps eventual visibility on a
  // lossy-but-live network (drops are not the theorem's adversary).
  FaultPlan plan = fault::drop_retransmit_plan(0.3, 6);
  for (const std::string name : {"cops-snow", "wren", "fatcops", "spanner"}) {
    auto protocol = proto::protocol_by_name(name);
    auto report = imposs::audit_progress(*protocol, plan);
    EXPECT_TRUE(report.progress()) << name << ": " << report.detail;
  }
}

TEST(ProgressAuditor, FaultFreePlanShowsProgressEverywhere) {
  FaultPlan empty;
  for (const std::string name : {"cops", "gentlerain", "eiger"}) {
    auto protocol = proto::protocol_by_name(name);
    auto report = imposs::audit_progress(*protocol, empty);
    EXPECT_TRUE(report.progress()) << name << ": " << report.detail;
  }
}

}  // namespace
}  // namespace discs
