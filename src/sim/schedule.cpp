#include "sim/schedule.h"

namespace discs::sim {

std::vector<ProcessId> all_processes(const Simulation& sim) {
  std::vector<ProcessId> out;
  out.reserve(sim.process_count());
  for (std::size_t i = 0; i < sim.process_count(); ++i)
    out.push_back(ProcessId(i));
  return out;
}

RunStats run_fair(Simulation& sim, const std::vector<ProcessId>& participants,
                  const StopCondition& stop, std::size_t budget,
                  std::size_t max_idle_rounds) {
  // One scheduling implementation: forward to the template with the
  // std::function either called through or replaced by an inlined
  // always-false predicate.
  if (stop)
    return run_fair_with(sim, participants,
                         [&](const Simulation& s) { return stop(s); }, budget,
                         max_idle_rounds);
  return run_fair_with(sim, participants,
                       [](const Simulation&) { return false; }, budget,
                       max_idle_rounds);
}

RunStats run_to_quiescence(Simulation& sim,
                           const std::vector<ProcessId>& participants,
                           std::size_t budget) {
  return run_fair(sim, participants, nullptr, budget, 32);
}

}  // namespace discs::sim
