// Chaos-audit harness.
//
// Runs (protocol x randomized fault plan x workload) campaigns and holds
// the results to the standards the rest of the suite certifies piecewise:
// safety via the src/consistency checker matching the protocol's claimed
// level (plus read validity), liveness via imposs::audit_progress.  Every
// random plan is drawn inside a *fairness envelope* — bounded windows,
// crashed servers restart, dropped traffic is retransmitted — so that,
// unlike the paper's legitimate starvation adversaries (permanent holds),
// a violation found here is a robustness bug, not Theorem 1 re-observed.
//
// On a violation the harness shrinks the fault plan delta-debugging style
// (drop whole rules, then narrow windows / lower rates / soften
// parameters) while re-running the repro after each candidate step,
// keeping the violation class stable.  The minimized plan is packaged as a
// ReproSpec ("discs.chaosrepro.v1" JSON: protocol + cluster + workload +
// plan + expected class) — a replayable regression seed that
// examples/chaos_lab.cpp writes next to its traces and tests/data keeps
// under version control.
#pragma once

#include <string>
#include <vector>

#include "fault/plan.h"
#include "obs/flight.h"
#include "proto/common/cluster.h"
#include "workload/workload.h"

namespace discs::chaos {

struct CampaignConfig {
  proto::ClusterConfig cluster;
  wl::WorkloadConfig workload;
  /// Campaign seed; run i uses a plan derived from (seed, i).
  std::uint64_t seed = 1;
  /// Fault plans generated and executed per campaign.
  std::size_t runs = 8;
  /// ClientBase retransmit threshold armed on every workload client and on
  /// the progress auditor's clients; the backbone of the fairness envelope
  /// under drop rules.
  std::size_t client_retransmit_after = 8;
  /// Also run imposs::audit_progress per plan (liveness certification).
  bool audit_liveness = true;
  /// Budget for the shrinker: candidate re-executions per counterexample.
  std::size_t max_shrink_steps = 200;
  /// Flight recorder: events of tail context snapshotted from the
  /// simulation trace when a run violates (0 = off).  The tail rides the
  /// counterexample through shrinking into the ReproSpec, so a minimized
  /// repro still shows what the system was doing when it failed.
  std::size_t flight_capacity = 64;
};

enum class ViolationClass { kNone, kSafety, kLiveness };

std::string violation_class_str(ViolationClass c);

/// Outcome of one (protocol, plan, workload) execution.
struct RunOutcome {
  ViolationClass violation = ViolationClass::kNone;
  std::string detail;  ///< first checker violation / progress detail
  std::size_t incomplete = 0;  ///< workload transactions that never finished
  /// Flight-recorder tail (CampaignConfig::flight_capacity): the last
  /// events of the run's trace, populated only on a violation.
  std::vector<obs::FlightEvent> flight;
};

/// A violation, before and after shrinking.
struct Counterexample {
  fault::FaultPlan original;   ///< as generated by the campaign
  fault::FaultPlan minimized;  ///< after shrinking
  ViolationClass cls = ViolationClass::kNone;
  std::string detail;          ///< outcome detail under the minimized plan
  std::size_t shrink_steps = 0;
  /// Tail context under the minimized plan (or the original when the
  /// confirm run diverged).
  std::vector<obs::FlightEvent> flight;
};

struct CampaignResult {
  std::string protocol;
  std::size_t runs = 0;
  std::vector<Counterexample> counterexamples;
};

/// Deterministic randomized plan for run `index` of a campaign, drawn
/// inside the fairness envelope (see header comment).  Crash rules target
/// the server ids Protocol::build assigns in a fresh simulation.
fault::FaultPlan random_plan(std::uint64_t campaign_seed, std::size_t index,
                             const proto::ClusterConfig& cluster);

/// One execution: build the cluster, arm client retransmits, run the
/// faulted concurrent workload, check safety; optionally audit progress.
/// A protocol invariant that fails while the workload runs is a safety
/// finding; a configuration or plan that does not fit the cluster (e.g. a
/// crash rule naming a process outside it) throws CheckFailure instead.
RunOutcome run_once(const proto::Protocol& proto,
                    const fault::FaultPlan& plan, const CampaignConfig& cfg);

/// Full campaign: `cfg.runs` random plans through run_once, shrinking
/// every violation.  Bumps the chaos.{campaigns,violations,shrink_steps}
/// counters.
CampaignResult run_campaign(const proto::Protocol& proto,
                            const CampaignConfig& cfg);

/// Replayable counterexample document, schema "discs.chaosrepro.v1".  Its
/// "cluster" object is written and read by obs::cluster_config_json /
/// cluster_config_from_json, the trace header's codec.
struct ReproSpec {
  std::string protocol;
  proto::ClusterConfig cluster;
  wl::WorkloadConfig workload;
  std::size_t client_retransmit_after = 8;
  fault::FaultPlan plan;
  ViolationClass expected = ViolationClass::kNone;
  /// Flight-recorder tail attached by make_repro.  Optional in the JSON
  /// (`flight` array, emitted only when non-empty), so specs written
  /// before this field parse unchanged.
  std::vector<obs::FlightEvent> flight;

  obs::Json to_json() const;
  std::string dump() const;
  static ReproSpec from_json(const obs::Json& doc);
  static ReproSpec parse(const std::string& text);
};

ReproSpec make_repro(const proto::Protocol& proto, const Counterexample& cex,
                     const CampaignConfig& cfg);

/// Re-executes a repro spec (the regression direction: a fixed build
/// should NOT reproduce the recorded violation class any more — unless the
/// spec intentionally pins a known-bad configuration).
RunOutcome run_repro(const ReproSpec& spec);

}  // namespace discs::chaos
