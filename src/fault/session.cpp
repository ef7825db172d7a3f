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

/// The fate walk skips a fate only when its message has left flight;
/// debug builds check it.
void check_left_flight([[maybe_unused]] const sim::Simulation& sim,
                       [[maybe_unused]] sim::MsgId id) {
#ifndef NDEBUG
  DISCS_CHECK_MSG(!sim.network().find_in_flight(id),
                  "fault session skipped the fate of in-flight message "
                      << to_string(id));
#endif
}

}  // namespace

FaultSession::FaultSession(FaultPlan plan, FaultTopology topo)
    : plan_(std::move(plan)), topo_(std::move(topo)), rng_(plan_.seed) {
  plan_.check_against(topo_);
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

FaultSession::Fate FaultSession::draw_fate(const sim::Message& m,
                                           std::uint64_t now) {
  // Walk the rules in plan order.  The first matching drop rule that fires
  // wins; delay and reorder rules accumulate extra delay; a duplicate rule
  // arms one extra delivery.
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
  return fate;
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
    // The resent message re-enters flight under its original id, at the
    // end of the list.  Its drop left it no fate, so the next scan rolls
    // fresh dice for the retry (a second drop schedules another
    // retransmission, so a p<1 drop rule eventually lets it through).
    if (sim.retransmit(sim::MsgId(id))) {
      obs::Registry::global().inc("fault.retransmits");
      ++applied;
    }
  }
  return applied;
}

void FaultSession::deliverable(sim::Simulation& sim,
                               const sim::ParticipantSet& within,
                               std::vector<sim::MsgId>& out) {
  const std::uint64_t now = sim.now();
  const sim::FlightList& flight = sim.network().in_flight();
  // fates_ follows the list as the last scan left it.  The list only
  // appends and erases in place (Network::in_flight), so the messages
  // still in flight come first, in the same order, and every message after
  // the last one matched is new: it draws its fate now, in list order.
  std::size_t next = 0;  // fates_[next] is the next fate to match
  for (auto it = flight.begin(); it != flight.end();) {
    const sim::Message& m = *it++;  // a drop erases m's node: step past it
    const sim::MsgId id = m.id;
    while (next < fates_.size() && fates_[next].first != id)
      check_left_flight(sim, fates_[next++].first);
    const Fate fate =
        next < fates_.size() ? fates_[next++].second : draw_fate(m, now);
    if (fate.drop) {
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
      continue;  // a dropped message keeps no fate
    }
    Fate& kept = scan_.emplace_back(id, fate).second;
    if (now < kept.release_at) continue;  // still delayed
    if (link_blocked(m.src, m.dst, now)) {
      obs::Registry::global().inc("fault.holds");
      continue;
    }
    if (sim.is_crashed(m.dst)) continue;
    if (kept.duplicate) {
      if (sim.duplicate(m.id))
        obs::Registry::global().inc("fault.duplicates");
      kept.duplicate = false;
    }
    if (within.admits(m)) out.push_back(m.id);
  }
  while (next < fates_.size()) check_left_flight(sim, fates_[next++].first);
  fates_.swap(scan_);
  scan_.clear();
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
