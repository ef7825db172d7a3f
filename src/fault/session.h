// The fault engine: executes a FaultPlan against a Simulation.
//
// A FaultSession plays the programmable adversary as the hook of the
// schedulers in sim/schedule.h (the same three members as sim::NoFaults).
// Each round the scheduler
//   1. calls tick()        — due crashes, restarts and retransmits fire;
//   2. calls deliverable() — every in-flight message gets a *fate* the
//      first time the session sees it (drawn from the plan's seeded RNG and
//      held for as long as the message stays in flight), drop fates are
//      applied, and the ids of the messages whose delay has elapsed and
//      whose link is not partitioned are appended to the scheduler's list;
//   3. delivers (a subset of) those messages and steps processes.
//
// Determinism: fates are drawn in first-sight order, which is the send
// order of the in-flight list, itself a deterministic function of the
// schedule.  All fault decisions therefore depend only on (plan, topology,
// schedule), and every applied fault is recorded in the simulation's trace
// as a first-class event — replaying the trace reproduces the execution
// byte-exactly WITHOUT re-running the engine (see docs/FAULTS.md).
//
// A FaultSession is a plain value: copying it alongside a Simulation
// snapshot yields an independent faulted branch with the same future
// — the progress auditor (src/impossibility/progress.h) relies on this.
// It holds fates only for the messages in flight, so a copy costs
// O(in flight), not O(messages ever sent).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "fault/plan.h"
#include "sim/schedule.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace discs::fault {

class FaultSession {
 public:
  /// Throws util::CheckFailure when `plan` does not fit `topo`
  /// (FaultPlan::check_against).
  FaultSession(FaultPlan plan, FaultTopology topo);

  const FaultPlan& plan() const { return plan_; }
  const FaultTopology& topology() const { return topo_; }

  /// Registers a client added to the simulation after the session was
  /// created (the progress auditor's fresh probe readers), so "client"
  /// selectors match its messages too.
  void note_client(sim::ProcessId p) { topo_.clients.push_back(p); }

  /// Applies every scheduled action that is due at sim.now(): crash and
  /// restart rules, then retransmissions of dropped messages.  Returns the
  /// number of fault events applied.
  std::size_t tick(sim::Simulation& sim);

  /// Walks the in-flight list in send order, assigning fates to newly seen
  /// messages (applying drop fates and scheduling their retransmissions),
  /// and appends to `out` the ids of the messages between participants that
  /// may be delivered now: not dropped, not still delayed, not crossing an
  /// active partition/hold, destination not crashed.  Every message gets
  /// its fate, participant or not.  Duplicate fates fire here, when the
  /// message is first released.
  void deliverable(sim::Simulation& sim, const sim::ParticipantSet& within,
                   std::vector<sim::MsgId>& out);

  /// True while the session still has work that will become due as virtual
  /// time advances: queued retransmissions, crash rules not yet fired, or
  /// restarts still to come.  Schedulers use this to keep idling instead of
  /// declaring quiescence.
  bool has_pending() const;

  /// True iff src->dst is blocked by a partition/hold window at `now`.
  bool link_blocked(sim::ProcessId src, sim::ProcessId dst,
                    std::uint64_t now) const;

 private:
  struct Fate {
    bool drop = false;
    std::uint64_t retransmit_after = 0;  // drop only; 0 = lost for good
    std::uint64_t release_at = 0;        // first_seen + accumulated delay
    bool duplicate = false;              // fire one duplicate on release
  };

  /// Draws the fate of a message the session sees for the first time.
  Fate draw_fate(const sim::Message& m, std::uint64_t now);

  using FateList = std::vector<std::pair<sim::MsgId, Fate>>;

  FaultPlan plan_;
  FaultTopology topo_;
  Rng rng_;
  /// The fate of every message that stayed in flight through the last
  /// scan, in in-flight list order.  A dropped or delivered message keeps
  /// none, so a retransmitted one draws a fresh fate.
  FateList fates_;
  /// The next scan's fates_, swapped in when the scan ends; empty between
  /// scans, so copying a session does not copy it.
  FateList scan_;
  /// (due, msg id), kept sorted by due time then id.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> retransmit_queue_;
  struct CrashProgress {
    bool crashed = false;
    bool restarted = false;
  };
  std::vector<CrashProgress> crash_progress_;  // parallel to crash rules
};

/// sim::run_fair with `session` as the adversary hook: each round ticks the
/// session, delivers the messages it releases between participants and
/// steps every live participant.  Idle rounds do not end the run while the
/// session has pending work (a retransmission or restart that only becomes
/// due as idle steps advance virtual time).  A plan without rules can never
/// fire, so it runs the plain loop.
sim::RunStats run_fair_faulted(sim::Simulation& sim, FaultSession& session,
                               const std::vector<sim::ProcessId>& participants,
                               const sim::StopCondition& stop,
                               std::size_t budget = 100000,
                               std::size_t max_idle_rounds = 128);

/// sim::run_random with `session` as the adversary hook (the plain loop for
/// a plan without rules).  Scheduling randomness comes from `rng`; fault
/// randomness stays inside the session (seeded by the plan), so the same
/// (plan, seed) pair makes the same fault decisions under any scheduler
/// seed.
sim::RunStats run_random_faulted(sim::Simulation& sim, FaultSession& session,
                                 const std::vector<sim::ProcessId>& participants,
                                 Rng& rng, const sim::StopCondition& stop,
                                 std::size_t budget = 100000);

}  // namespace discs::fault
