// Canned schedulers.
//
// The adversary of the proof chooses events by hand (src/impossibility);
// for ordinary operation — running protocols under workloads — these helpers
// provide fair and randomized schedules.  Each policy is one loop.  A fault
// adversary (fault::FaultSession) plugs into it as a hook; the default hook,
// NoFaults, adds no work.
#pragma once

#include <functional>
#include <iterator>
#include <type_traits>
#include <vector>

#include "sim/simulation.h"
#include "util/rng.h"

namespace discs::sim {

/// A predicate evaluated between events; scheduling stops when it returns
/// true.  Receives the simulation after each applied event.
using StopCondition = std::function<bool(const Simulation&)>;

struct RunStats {
  std::size_t steps = 0;
  std::size_t deliveries = 0;
  bool stopped_by_condition = false;  ///< vs exhausted the budget

  std::size_t events() const { return steps + deliveries; }
};

/// O(1) participant membership, replacing the per-message linear scan over
/// the participant list (which dominated scheduler time for large flights).
class ParticipantSet {
 public:
  ParticipantSet(const std::vector<ProcessId>& parts, std::size_t universe) {
    mask_.assign(universe, 0);
    for (ProcessId p : parts)
      if (p.value() < universe) mask_[p.value()] = 1;
  }
  bool contains(ProcessId p) const {
    return p.value() < mask_.size() && mask_[p.value()] != 0;
  }
  /// Both endpoints of `m` participate.
  bool admits(const Message& m) const {
    return contains(m.src) && contains(m.dst);
  }

 private:
  std::vector<char> mask_;
};

/// The schedulers' adversary hook when no fault plan is in play.  A hook
/// has three members:
///   tick(sim)                      applies the adversary events due now;
///                                  returns how many it applied;
///   deliverable(sim, within, out)  appends, in send order, the ids of the
///                                  in-flight messages between participants
///                                  that may be delivered now;
///   has_pending()                  true while work that only becomes due as
///                                  virtual time advances keeps an idle run
///                                  alive.
/// fault::FaultSession is the other hook.
struct NoFaults {
  std::size_t tick(Simulation&) { return 0; }
  void deliverable(const Simulation& sim, const ParticipantSet& within,
                   std::vector<MsgId>& out) const {
    for (const auto& m : sim.network().in_flight())
      if (within.admits(m)) out.push_back(m.id);
  }
  bool has_pending() const { return false; }
};

/// Round-robin fair scheduler: repeatedly ticks `adversary`, delivers every
/// message it releases between participants (in send order) and steps every
/// live process in `participants` (all processes if empty), until `stop`
/// holds, `budget` events were applied, or `max_idle_rounds` consecutive
/// rounds made no progress while the adversary had nothing pending.  Idle
/// rounds keep stepping processes, which advances virtual time — protocols
/// with time-based deferred work (Spanner's commit-wait, GentleRain's GST
/// catch-up) wake up during them.  Steps refused to crashed processes are
/// not events; after 3 rounds in which no event could be applied the run
/// gives up.  This yields the "executes solo" runs of the paper when
/// `participants` is restricted to one client plus the servers.
RunStats run_fair(Simulation& sim, const std::vector<ProcessId>& participants,
                  const StopCondition& stop, std::size_t budget = 100000,
                  std::size_t max_idle_rounds = 128);

/// Statically-dispatched variant for drivers whose stop predicate runs
/// after EVERY event: `stop` is any callable (inlined at the call site, no
/// std::function indirection), and `adversary` is the fault hook.
/// run_fair forwards here.
template <class Stop, class Adversary = NoFaults>
RunStats run_fair_with(Simulation& sim,
                       const std::vector<ProcessId>& participants,
                       Stop&& stop, std::size_t budget = 100000,
                       std::size_t max_idle_rounds = 128,
                       Adversary&& adversary = {});

/// Runs until the network is idle and one extra step of every participant
/// produces no new messages (a quiescence heuristic for protocols that go
/// silent when they have nothing to do).  Note: protocols that gossip
/// forever never satisfy this; use the budget.
RunStats run_to_quiescence(Simulation& sim,
                           const std::vector<ProcessId>& participants,
                           std::size_t budget = 100000);

/// Randomized scheduler: each iteration ticks `adversary`, then flips
/// between delivering a random deliverable message and stepping a random
/// participant.  Used by the fuzz tests to explore schedules; fully
/// reproducible from the Rng seed.  Steps refused to crashed processes are
/// not events; after 64·|participants| such picks in a row the run gives
/// up.  Fault randomness stays inside the adversary, so the same fault plan
/// makes the same fault decisions under any scheduler seed.
template <class Adversary = NoFaults>
RunStats run_random(Simulation& sim,
                    const std::vector<ProcessId>& participants, Rng& rng,
                    const StopCondition& stop, std::size_t budget = 100000,
                    Adversary&& adversary = {});

/// All process ids currently in the simulation.
std::vector<ProcessId> all_processes(const Simulation& sim);

template <class Stop, class Adversary>
RunStats run_fair_with(Simulation& sim,
                       const std::vector<ProcessId>& participants,
                       Stop&& stop, std::size_t budget,
                       std::size_t max_idle_rounds, Adversary&& adversary) {
  // Borrow the caller's list when one is given: drivers call this once per
  // transaction, and copying the participant vector (plus rebuilding the
  // membership mask) every call showed up in the sweep profiles.
  std::vector<ProcessId> all;
  if (participants.empty()) all = all_processes(sim);
  const std::vector<ProcessId>& parts = participants.empty() ? all
                                                             : participants;
  RunStats stats;
  ParticipantSet within(parts, sim.process_count());

  std::size_t idle_rounds = 0;
  std::size_t dead_rounds = 0;  // rounds in which no event applied at all
  std::vector<MsgId> ids;       // reused across rounds
  while (stats.events() < budget) {
    if (stop(sim)) {
      stats.stopped_by_condition = true;
      return stats;
    }
    const std::size_t events_before = stats.events();
    bool progressed = adversary.tick(sim) > 0;

    // Deliver every message the adversary releases between participants.
    // Send order clusters same-destination messages, which the network's
    // income buckets turn into single-index appends.
    ids.clear();
    adversary.deliverable(sim, within, ids);
    for (auto id : ids) {
      if (stats.events() >= budget) return stats;
      if (sim.deliver(id)) {
        ++stats.deliveries;
        progressed = true;
        if (stop(sim)) {
          stats.stopped_by_condition = true;
          return stats;
        }
      }
    }

    // Step each live participant once.
    for (auto p : parts) {
      if (stats.events() >= budget) return stats;
      bool had_income = sim.network().has_income(p);
      std::size_t sent_before = sim.network().in_flight_count();
      if (!sim.step(p)) continue;  // crashed
      ++stats.steps;
      if (had_income || sim.network().in_flight_count() != sent_before)
        progressed = true;
      if (stop(sim)) {
        stats.stopped_by_condition = true;
        return stats;
      }
    }

    if (stats.events() == events_before) {
      // Nothing could even be applied (every participant crashed): time
      // cannot advance, so pending work will never become due.
      if (++dead_rounds > 2) return stats;
      continue;
    }
    dead_rounds = 0;

    if (progressed) {
      idle_rounds = 0;
    } else if (++idle_rounds > max_idle_rounds && !adversary.has_pending()) {
      return stats;  // nothing to do, even after letting time pass
    }
  }
  return stats;
}

template <class Adversary>
RunStats run_random(Simulation& sim,
                    const std::vector<ProcessId>& participants, Rng& rng,
                    const StopCondition& stop, std::size_t budget,
                    Adversary&& adversary) {
  std::vector<ProcessId> all;
  if (participants.empty()) all = all_processes(sim);
  const std::vector<ProcessId>& parts = participants.empty() ? all
                                                             : participants;
  RunStats stats;
  ParticipantSet within(parts, sim.process_count());

  // Without faults the deliverable set is maintained incrementally.
  // Rescanning the whole in-flight list every iteration costs O(backlog)
  // per event, quadratic over a run that keeps a deep backlog
  // (BM_RandomSchedulerBacklog measures it); nothing in this loop mutates
  // the in-flight set except our own delivery and the tail push_backs of a
  // step, so the set can be kept current: erase the delivered entry in
  // place, scan only the messages a step appended.  Removal is an
  // order-preserving erase at the picked index (not a swap-pop): the vector
  // then mirrors the in-flight list order a rescan produces, so the rng
  // draw sequence — and therefore every randomized schedule and audit
  // outcome — is the same as with a rescan.  Under a fault adversary,
  // fates, delays, hold windows and crashes change with virtual time, so
  // the set is rebuilt every iteration.
  constexpr bool kIncremental =
      std::is_same_v<std::decay_t<Adversary>, NoFaults>;
  std::vector<MsgId> deliverable;
  if constexpr (kIncremental) adversary.deliverable(sim, within, deliverable);

  std::size_t idle_rounds = 0;
  std::size_t dead_iters = 0;  // consecutive picks of a crashed process
  while (stats.events() < budget) {
    if (stop && stop(sim)) {
      stats.stopped_by_condition = true;
      return stats;
    }
    adversary.tick(sim);
    if constexpr (!kIncremental) {
      deliverable.clear();
      adversary.deliverable(sim, within, deliverable);
    }

    // Bias toward delivery so protocols with background traffic cannot
    // outpace the network indefinitely; step events still occur often
    // enough to drive all local state machines.
    if (!deliverable.empty() && rng.chance(0.7)) {
      const std::size_t idx = rng.pick_index(deliverable.size());
      if (sim.deliver(deliverable[idx])) ++stats.deliveries;
      // Delivered — or vanished from flight, which a rescan would equally
      // have forgotten.  Either way: out of the set.
      if constexpr (kIncremental)
        deliverable.erase(deliverable.begin() +
                          static_cast<std::ptrdiff_t>(idx));
      idle_rounds = 0;
      dead_iters = 0;
      continue;
    }

    const bool none_deliverable = deliverable.empty();
    ProcessId p = parts[rng.pick_index(parts.size())];
    bool had_income = sim.network().has_income(p);
    std::size_t before = sim.network().in_flight_count();
    if (!sim.step(p)) {
      // Crashed pick: no event applied.  If this keeps happening nothing
      // can advance virtual time, so give up eventually.
      if (++dead_iters > 64 * parts.size()) return stats;
      continue;
    }
    dead_iters = 0;
    ++stats.steps;
    const std::size_t sent = sim.network().in_flight_count() - before;
    if constexpr (kIncremental) {
      // A step only appends to the in-flight list, so its sends are the
      // last `sent` entries.
      const FlightList& fl = sim.network().in_flight();
      for (auto it = std::prev(fl.end(), static_cast<std::ptrdiff_t>(sent));
           it != fl.end(); ++it)
        if (within.admits(*it)) deliverable.push_back(it->id);
    }
    if (!had_income && sent == 0 && none_deliverable) {
      // Generous idle allowance: deferred work (commit-wait, GST
      // catch-up) wakes up as idle steps advance virtual time.
      if (++idle_rounds > 32 * parts.size() && !adversary.has_pending())
        return stats;
    } else {
      idle_rounds = 0;
    }
  }
  return stats;
}

}  // namespace discs::sim
