// The chaos-audit harness: fairness envelope of the plan generator,
// ReproSpec round-trips, fault-plan shrinking on a seeded violation, and
// the committed counterexample fixture (a lossy baseline-wipe liveness bug
// that the durable journal fixes).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "chaos/chaos.h"
#include "chaos/shrink.h"
#include "fault/plan.h"
#include "proto/registry.h"
#include "util/check.h"

namespace discs {
namespace {

using chaos::CampaignConfig;
using chaos::Counterexample;
using chaos::ReproSpec;
using chaos::ViolationClass;
using fault::FaultPlan;
using fault::FaultRule;

proto::ClusterConfig wipe_prone_cluster() {
  // The committed fixture's configuration: session layer on, journal OFF —
  // a lossy server crash wipes committed writes back to the baseline.
  proto::ClusterConfig cfg;
  cfg.exactly_once = true;
  cfg.durable_journal = false;
  return cfg;
}

CampaignConfig wipe_prone_campaign() {
  CampaignConfig cfg;
  cfg.cluster = wipe_prone_cluster();
  cfg.workload.num_txs = 24;
  return cfg;
}

// --- plan generator --------------------------------------------------------

TEST(RandomPlan, DeterministicAndInsideTheFairnessEnvelope) {
  proto::ClusterConfig cluster;
  for (std::size_t i = 0; i < 24; ++i) {
    FaultPlan a = chaos::random_plan(42, i, cluster);
    FaultPlan b = chaos::random_plan(42, i, cluster);
    EXPECT_EQ(a, b) << "plan generation must be a pure function of "
                    << "(campaign seed, index)";
    ASSERT_FALSE(a.rules.empty());
    for (const auto& r : a.rules) {
      // The envelope: drops are retransmitted, holds are bounded, crashed
      // servers restart.  Violations found inside it are robustness bugs,
      // not Theorem 1's legitimate starvation.
      if (r.kind == FaultRule::Kind::kDrop) {
        EXPECT_GT(r.retransmit_after, 0u);
      }
      if (r.kind == FaultRule::Kind::kHold ||
          r.kind == FaultRule::Kind::kPartition) {
        EXPECT_NE(r.to, fault::kForever);
      }
      if (r.kind == FaultRule::Kind::kCrash) {
        EXPECT_NE(r.restart_at, fault::kForever);
        EXPECT_LT(r.process.value(),
                  static_cast<std::uint64_t>(cluster.num_servers));
      }
    }
  }
  // Different seeds diverge (the generator is not constant).
  EXPECT_NE(chaos::random_plan(42, 0, cluster).dump(),
            chaos::random_plan(43, 0, cluster).dump());
}

// --- repro spec ------------------------------------------------------------

TEST(ReproSpecTest, JsonRoundTripPreservesEveryField) {
  ReproSpec spec;
  spec.protocol = "cops";
  spec.cluster = wipe_prone_cluster();
  spec.cluster.journal_compact_threshold = 64;
  spec.workload.num_txs = 7;
  spec.workload.seed = 3;
  spec.client_retransmit_after = 5;
  spec.plan.name = "pinned";
  spec.plan.seed = 17;
  spec.plan.rules.push_back(fault::crash_rule(ProcessId(1), 10, 20, true));
  spec.expected = ViolationClass::kLiveness;

  ReproSpec back = ReproSpec::parse(spec.dump());
  EXPECT_EQ(back.dump(), spec.dump());
  EXPECT_EQ(back.protocol, "cops");
  EXPECT_EQ(back.expected, ViolationClass::kLiveness);
  EXPECT_EQ(back.cluster.journal_compact_threshold, 64u);
  EXPECT_TRUE(back.cluster.exactly_once);
  EXPECT_FALSE(back.cluster.durable_journal);
  EXPECT_EQ(back.plan, spec.plan);
}

TEST(ReproSpecTest, ShardedSpecKeepsItsTopology) {
  // chaos_lab --shards campaigns write specs for the sharded layout; the
  // spec's cluster object must carry every ClusterConfig field a replay
  // needs, exactly as a trace header does.
  ReproSpec spec;
  spec.protocol = "cops";
  spec.cluster.num_servers = 2;
  spec.cluster.num_objects = 8;
  spec.cluster.num_shards = 4;
  spec.cluster.record_spans = true;
  spec.cluster.client_retransmit_after = 6;
  spec.expected = ViolationClass::kLiveness;

  ReproSpec back = ReproSpec::parse(spec.dump());
  EXPECT_EQ(back.dump(), spec.dump());
  EXPECT_EQ(back.cluster.num_shards, 4u);
  EXPECT_EQ(back.cluster.num_objects, 8u);
  EXPECT_TRUE(back.cluster.record_spans);
  EXPECT_EQ(back.cluster.client_retransmit_after, 6u);
}

TEST(ReproSpecTest, FlightFieldRoundTripsAndStaysOptional) {
  ReproSpec spec;
  spec.protocol = "cops";
  spec.expected = ViolationClass::kSafety;
  // No flight: the field is omitted entirely, so pre-flight specs and
  // fresh ones serialize identically.
  EXPECT_EQ(spec.dump().find("\"flight\""), std::string::npos);
  ReproSpec no_flight = ReproSpec::parse(spec.dump());
  EXPECT_TRUE(no_flight.flight.empty());

  obs::FlightEvent step;
  step.seq = 41;
  step.kind = "step";
  step.process = 2;
  step.consumed = 1;
  step.sent = 3;
  obs::FlightEvent deliver;
  deliver.seq = 42;
  deliver.kind = "deliver";
  deliver.process = 1;
  deliver.msg_id = 7;
  deliver.src = 0;
  deliver.payload = "RotReply";
  spec.flight = {step, deliver};
  ReproSpec back = ReproSpec::parse(spec.dump());
  EXPECT_EQ(back.dump(), spec.dump());
  ASSERT_EQ(back.flight.size(), 2u);
  EXPECT_EQ(back.flight[0], step);
  EXPECT_EQ(back.flight[1], deliver);
}

TEST(ReproSpecTest, ParseRejectsWrongSchema) {
  ReproSpec spec;
  spec.protocol = "cops";
  std::string text = spec.dump();
  auto pos = text.find("discs.chaosrepro.v1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 19, "discs.chaosrepro.v9");
  EXPECT_THROW(ReproSpec::parse(text), CheckFailure);
}

// --- shrinking -------------------------------------------------------------

TEST(Shrinker, ReducesSeededViolationToTheSingleGuiltyRule) {
  // Seed a known violation (lossy crash wipes a committed write when the
  // journal is off) and bury it under noise rules.  The shrinker must peel
  // the noise away and keep the violation class stable.
  auto protocol = proto::protocol_by_name("cops");
  CampaignConfig cfg = wipe_prone_campaign();

  FaultPlan plan;
  plan.name = "seeded";
  plan.seed = 21;
  plan.rules.push_back(fault::drop_rule(0.1, 5));
  plan.rules.push_back(
      fault::crash_rule(ProcessId(0), /*at=*/368, /*restart_at=*/369,
                        /*lossy=*/true));
  plan.rules.push_back(fault::delay_rule(2, 0.3));

  auto outcome = chaos::run_once(*protocol, plan, cfg);
  ASSERT_EQ(outcome.violation, ViolationClass::kLiveness) << outcome.detail;

  auto shrunk = chaos::shrink_plan(*protocol, plan, outcome.violation, cfg);
  EXPECT_GT(shrunk.steps, 0u);
  ASSERT_EQ(shrunk.plan.rules.size(), 1u)
      << "noise rules must be shrunk away";
  EXPECT_EQ(shrunk.plan.rules[0].kind, FaultRule::Kind::kCrash);
  EXPECT_EQ(shrunk.plan.name, "seeded-min");

  // The minimized plan still reproduces the same violation class.
  auto confirm = chaos::run_once(*protocol, shrunk.plan, cfg);
  EXPECT_EQ(confirm.violation, ViolationClass::kLiveness) << confirm.detail;
}

// --- the committed counterexample fixture ----------------------------------

std::string fixture_path() {
  return std::string(DISCS_TEST_DATA_DIR) + "/chaos_cops_wipe.repro.json";
}

TEST(ReproFixture, MinimizedCounterexampleStillReproduces) {
  std::ifstream in(fixture_path());
  ASSERT_TRUE(in.good()) << "missing fixture " << fixture_path();
  std::ostringstream text;
  text << in.rdbuf();
  ReproSpec spec = ReproSpec::parse(text.str());
  EXPECT_EQ(spec.protocol, "cops");
  EXPECT_EQ(spec.expected, ViolationClass::kLiveness);
  ASSERT_EQ(spec.plan.rules.size(), 1u) << "fixture should be minimized";
  EXPECT_EQ(spec.plan.rules[0].kind, FaultRule::Kind::kCrash);

  auto outcome = chaos::run_repro(spec);
  EXPECT_EQ(outcome.violation, spec.expected)
      << "the pinned known-bad configuration stopped reproducing: "
      << outcome.detail;
}

TEST(ReproFixture, ViolationAttachesFlightTail) {
  std::ifstream in(fixture_path());
  ASSERT_TRUE(in.good()) << "missing fixture " << fixture_path();
  std::ostringstream text;
  text << in.rdbuf();
  ReproSpec spec = ReproSpec::parse(text.str());
  // The committed fixture predates the flight recorder — and still parses.
  EXPECT_TRUE(spec.flight.empty());

  // Re-running it records the trace tail at the violation (default
  // CampaignConfig::flight_capacity), seq-ordered and bounded.
  auto outcome = chaos::run_repro(spec);
  ASSERT_EQ(outcome.violation, spec.expected) << outcome.detail;
  ASSERT_FALSE(outcome.flight.empty());
  EXPECT_LE(outcome.flight.size(), CampaignConfig{}.flight_capacity);
  for (std::size_t i = 1; i < outcome.flight.size(); ++i)
    EXPECT_LT(outcome.flight[i - 1].seq, outcome.flight[i].seq);
  // A refreshed spec carries the tail through serialization.
  Counterexample cex;
  cex.minimized = spec.plan;
  cex.cls = outcome.violation;
  cex.flight = outcome.flight;
  CampaignConfig cfg;
  cfg.cluster = spec.cluster;
  cfg.workload = spec.workload;
  auto proto = proto::protocol_by_name(spec.protocol);
  ReproSpec refreshed = chaos::make_repro(*proto, cex, cfg);
  ReproSpec back = ReproSpec::parse(refreshed.dump());
  EXPECT_EQ(back.flight, outcome.flight);
}

TEST(ReproFixture, DurableJournalFixesTheCounterexample) {
  std::ifstream in(fixture_path());
  ASSERT_TRUE(in.good()) << "missing fixture " << fixture_path();
  std::ostringstream text;
  text << in.rdbuf();
  ReproSpec spec = ReproSpec::parse(text.str());

  // Same protocol, same workload, same minimized fault plan — but with the
  // journal on, recovery replays the committed writes and the violation
  // disappears.  This is the tentpole's before/after in one assertion.
  spec.cluster.durable_journal = true;
  auto outcome = chaos::run_repro(spec);
  EXPECT_EQ(outcome.violation, ViolationClass::kNone) << outcome.detail;
}

}  // namespace
}  // namespace discs
