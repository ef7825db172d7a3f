#include "fault/session.h"

#include <algorithm>
#include <cmath>

#include "obs/registry.h"
#include "util/check.h"

namespace discs::fault {

namespace {

bool in_group(const std::vector<sim::ProcessId>& g, sim::ProcessId p) {
  return std::find(g.begin(), g.end(), p) != g.end();
}

bool in_window(const FaultRule& r, std::uint64_t now) {
  return now >= r.from && (r.to == kForever || now < r.to);
}

}  // namespace

FaultSession::FaultSession(FaultPlan plan, FaultTopology topo)
    : plan_(std::move(plan)), topo_(std::move(topo)), rng_(plan_.seed) {
  std::size_t crash_rules = 0;
  for (const auto& r : plan_.rules)
    if (r.kind == FaultRule::Kind::kCrash) ++crash_rules;
  crash_progress_.resize(crash_rules);
}

bool FaultSession::link_blocked(sim::ProcessId src, sim::ProcessId dst,
                                std::uint64_t now) const {
  for (const auto& r : plan_.rules) {
    if (r.kind == FaultRule::Kind::kPartition) {
      if (!in_window(r, now)) continue;
      bool ab = in_group(r.group_a, src) && in_group(r.group_b, dst);
      bool ba = in_group(r.group_b, src) && in_group(r.group_a, dst);
      if (ab || ba) return true;
    } else if (r.kind == FaultRule::Kind::kHold) {
      if (!in_window(r, now)) continue;
      if (r.src.matches(src, topo_) && r.dst.matches(dst, topo_)) return true;
    }
  }
  return false;
}

FaultSession::Fate& FaultSession::fate_of(const sim::Message& m,
                                          std::uint64_t now) {
  auto it = fates_.find(m.id.value());
  if (it != fates_.end()) return it->second;

  // First sight: walk the rules in plan order.  The first matching drop
  // rule that fires wins; delay and reorder rules accumulate extra delay;
  // a duplicate rule arms one extra delivery.
  Fate fate;
  std::uint64_t extra = 0;
  for (const auto& r : plan_.rules) {
    switch (r.kind) {
      case FaultRule::Kind::kDrop:
        if (!fate.drop && r.src.matches(m.src, topo_) &&
            r.dst.matches(m.dst, topo_) && rng_.chance(r.p)) {
          fate.drop = true;
          fate.retransmit_after = r.retransmit_after;
        }
        break;
      case FaultRule::Kind::kDelay:
        if (r.src.matches(m.src, topo_) && r.dst.matches(m.dst, topo_) &&
            rng_.chance(r.p)) {
          extra += r.steps;
          if (r.exp_mean > 0.0)
            extra += static_cast<std::uint64_t>(
                std::llround(-r.exp_mean * std::log1p(-rng_.uniform01())));
        }
        break;
      case FaultRule::Kind::kDuplicate:
        if (r.src.matches(m.src, topo_) && r.dst.matches(m.dst, topo_) &&
            rng_.chance(r.p))
          fate.duplicate = true;
        break;
      case FaultRule::Kind::kReorder:
        if (rng_.chance(r.p) && r.jitter > 0)
          extra += rng_.below(r.jitter + 1);
        break;
      case FaultRule::Kind::kPartition:
      case FaultRule::Kind::kHold:
      case FaultRule::Kind::kCrash:
        break;  // evaluated per query / on tick, not per message
    }
  }
  fate.release_at = now + extra;
  if (extra > 0) obs::Registry::global().inc("fault.delays");
  return fates_.emplace(m.id.value(), fate).first->second;
}

std::size_t FaultSession::tick(sim::Simulation& sim) {
  std::size_t applied = 0;
  const std::uint64_t now = sim.now();

  std::size_t crash_idx = 0;
  for (const auto& r : plan_.rules) {
    if (r.kind != FaultRule::Kind::kCrash) continue;
    CrashProgress& prog = crash_progress_[crash_idx++];
    if (!prog.crashed && now >= r.at) {
      if (sim.crash(r.process, r.lossy)) {
        obs::Registry::global().inc("fault.crashes");
        ++applied;
      }
      prog.crashed = true;  // even if already down via another rule
    }
    if (prog.crashed && !prog.restarted && r.restart_at != kForever &&
        now >= r.restart_at) {
      if (sim.restart(r.process)) {
        obs::Registry::global().inc("fault.restarts");
        ++applied;
      }
      prog.restarted = true;
    }
  }

  // Fire due retransmissions (queue is sorted by due time, then id).
  while (!retransmit_queue_.empty() && retransmit_queue_.front().first <= now) {
    std::uint64_t id = retransmit_queue_.front().second;
    retransmit_queue_.erase(retransmit_queue_.begin());
    if (sim.retransmit(sim::MsgId(id))) {
      obs::Registry::global().inc("fault.retransmits");
      ++applied;
      // The resent message re-enters flight under its original id; clear
      // its fate so the plan rolls fresh dice for the retry (a second drop
      // schedules another retransmission, so a p<1 drop rule eventually
      // lets it through).
      fates_.erase(id);
    }
  }
  return applied;
}

void FaultSession::deliverable(sim::Simulation& sim,
                               const sim::ParticipantSet& within,
                               std::vector<sim::MsgId>& out) {
  const std::uint64_t now = sim.now();
  const sim::FlightList& flight = sim.network().in_flight();
  for (auto it = flight.begin(); it != flight.end();) {
    const sim::Message& m = *it++;  // a drop erases m's node: step past it
    Fate& fate = fate_of(m, now);
    if (fate.drop) {
      const sim::MsgId id = m.id;
      if (sim.drop(id)) {
        obs::Registry::global().inc("fault.drops");
        if (fate.retransmit_after > 0) {
          auto entry = std::make_pair(now + fate.retransmit_after, id.value());
          retransmit_queue_.insert(
              std::upper_bound(retransmit_queue_.begin(),
                               retransmit_queue_.end(), entry),
              entry);
        }
      }
      continue;
    }
    if (now < fate.release_at) continue;  // still delayed
    if (link_blocked(m.src, m.dst, now)) {
      obs::Registry::global().inc("fault.holds");
      continue;
    }
    if (sim.is_crashed(m.dst)) continue;
    if (fate.duplicate) {
      if (sim.duplicate(m.id))
        obs::Registry::global().inc("fault.duplicates");
      fate.duplicate = false;
    }
    if (within.admits(m)) out.push_back(m.id);
  }
}

bool FaultSession::has_pending() const {
  if (!retransmit_queue_.empty()) return true;
  std::size_t crash_idx = 0;
  for (const auto& r : plan_.rules) {
    if (r.kind != FaultRule::Kind::kCrash) continue;
    const CrashProgress& prog = crash_progress_[crash_idx++];
    if (!prog.crashed) return true;
    if (!prog.restarted && r.restart_at != kForever) return true;
  }
  return false;
}

sim::RunStats run_fair_faulted(sim::Simulation& sim, FaultSession& session,
                               const std::vector<sim::ProcessId>& participants,
                               const sim::StopCondition& stop,
                               std::size_t budget,
                               std::size_t max_idle_rounds) {
  auto until = [&](const sim::Simulation& s) { return stop && stop(s); };
  if (session.plan().rules.empty())
    return sim::run_fair_with(sim, participants, until, budget,
                              max_idle_rounds);
  return sim::run_fair_with(sim, participants, until, budget, max_idle_rounds,
                            session);
}

sim::RunStats run_random_faulted(sim::Simulation& sim, FaultSession& session,
                                 const std::vector<sim::ProcessId>& participants,
                                 Rng& rng, const sim::StopCondition& stop,
                                 std::size_t budget) {
  if (session.plan().rules.empty())
    return sim::run_random(sim, participants, rng, stop, budget);
  return sim::run_random(sim, participants, rng, stop, budget, session);
}

}  // namespace discs::fault
