#include "workload/workload.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace discs::wl {

using discs::proto::ClientBase;

TxSpec next_tx(IdSource& ids, const Cluster& cluster,
               const WorkloadConfig& cfg, bool allow_multi_write, Rng& rng,
               const Zipf* zipf) {
  const auto& objects = cluster.view.objects;
  auto pick_objects = [&](std::size_t want) {
    want = std::min(want, objects.size());
    std::vector<ObjectId> chosen;
    std::size_t guard = 0;
    while (chosen.size() < want && guard++ < 64 * want) {
      std::size_t idx = zipf ? zipf->sample(rng)
                             : rng.pick_index(objects.size());
      ObjectId obj = objects[idx];
      if (std::find(chosen.begin(), chosen.end(), obj) == chosen.end())
        chosen.push_back(obj);
    }
    if (chosen.empty()) chosen.push_back(objects.front());
    std::sort(chosen.begin(), chosen.end());
    return chosen;
  };

  if (rng.chance(cfg.write_fraction)) {
    bool multi = allow_multi_write && rng.chance(cfg.multi_write_fraction);
    return ids.write_tx(pick_objects(multi ? cfg.write_objects : 1));
  }
  return ids.read_tx(pick_objects(cfg.read_objects));
}

std::vector<std::vector<TxSpec>> tx_stream(IdSource& ids,
                                           const Cluster& cluster,
                                           const WorkloadConfig& cfg,
                                           bool allow_multi_write) {
  Rng rng(cfg.seed);
  std::optional<Zipf> zipf;
  if (cfg.zipf_theta > 0)
    zipf.emplace(cluster.view.objects.size(), cfg.zipf_theta);
  std::vector<std::vector<TxSpec>> slots(cluster.clients.size());
  for (std::size_t i = 0; i < cfg.num_txs; ++i)
    slots[i % slots.size()].push_back(next_tx(ids, cluster, cfg,
                                              allow_multi_write, rng,
                                              zipf ? &*zipf : nullptr));
  return slots;
}

WorkloadResult run_workload_sequential(sim::Simulation& sim,
                                       const Protocol& proto,
                                       const Cluster& cluster, IdSource& ids,
                                       const WorkloadConfig& cfg) {
  WorkloadResult result;
  const std::vector<std::vector<TxSpec>> specs =
      tx_stream(ids, cluster, cfg, proto.supports_write_tx());

  // Cached typed handles: one dynamic_cast per client per run instead of
  // one per event.  The const handles never un-share a COW'd process, so
  // the per-event stop condition does not defeat snapshot sharing.
  std::vector<sim::ProcessHandle<ClientBase>> clients;
  std::vector<sim::ProcessHandle<const ClientBase>> clients_ro;
  for (auto c : cluster.clients) {
    clients.emplace_back(sim, c);
    clients_ro.emplace_back(std::as_const(sim), c);
  }
  // Hoisted participant list: run_fair borrows it per call instead of
  // rebuilding all_processes() once per transaction.
  const std::vector<ProcessId> all_parts = sim::all_processes(sim);

  for (std::size_t i = 0; i < cfg.num_txs; ++i) {
    std::size_t slot = i % cluster.clients.size();
    const TxSpec& spec = specs[slot][i / cluster.clients.size()];

    TxWindow w;
    w.id = spec.id;
    w.client = cluster.clients[slot];
    w.read_only = spec.read_only();
    w.trace_begin = sim.trace().size();
    w.spec = spec;
    w.invoked_at = sim.trace().size();

    clients[slot]->invoke(spec);
    // One transaction at a time, so "client idle again" and "spec.id
    // completed" flip at the same event; idle() is a flag read where
    // has_completed() is a map lookup, and this stop runs per event.
    sim::run_fair_with(sim, all_parts,
                       [&](const sim::Simulation&) {
                         return clients_ro[slot]->idle();
                       },
                       cfg.budget_per_tx);
    w.trace_end = sim.trace().size();
    w.completed = clients_ro[slot]->has_completed(spec.id);
    if (!w.completed) ++result.incomplete;
    result.windows.push_back(w);
  }

  if (cfg.collect_history)
    result.history = discs::proto::collect_history(sim, cluster.clients,
                                                   cluster.initial_values);
  return result;
}

namespace {

/// Shared body of the concurrent drivers; `advance` applies one slice of
/// (possibly faulted) randomized scheduling and returns its stats.
WorkloadResult run_concurrent_impl(
    sim::Simulation& sim, const Protocol& proto, const Cluster& cluster,
    IdSource& ids, const WorkloadConfig& cfg,
    const std::function<sim::RunStats(Rng&)>& advance) {
  WorkloadResult result;
  // One stream feeds both transaction generation and scheduling, matching
  // the original (pre-fault) driver draw for draw.
  Rng rng(cfg.seed);
  std::optional<Zipf> zipf;
  if (cfg.zipf_theta > 0)
    zipf.emplace(cluster.view.objects.size(), cfg.zipf_theta);

  std::size_t issued = 0;
  std::map<std::uint64_t, TxId> active;  // client -> running tx
  std::size_t spent = 0;
  std::size_t budget = cfg.budget_per_tx * cfg.num_txs;

  // Cached typed handles, keyed like `active` (see sequential driver).
  std::map<std::uint64_t, sim::ProcessHandle<ClientBase>> clients;
  std::map<std::uint64_t, sim::ProcessHandle<const ClientBase>> clients_ro;
  for (auto c : cluster.clients) {
    clients.emplace(c.value(), sim::ProcessHandle<ClientBase>(sim, c));
    clients_ro.emplace(
        c.value(),
        sim::ProcessHandle<const ClientBase>(std::as_const(sim), c));
  }

  while (spent < budget) {
    // Feed idle clients.
    for (auto client : cluster.clients) {
      if (issued >= cfg.num_txs) break;
      auto it = active.find(client.value());
      if (it != active.end()) continue;
      if (!clients_ro.at(client.value())->idle()) continue;
      TxSpec spec = next_tx(ids, cluster, cfg, proto.supports_write_tx(),
                            rng, zipf ? &*zipf : nullptr);
      TxWindow w;
      w.id = spec.id;
      w.client = client;
      w.read_only = spec.read_only();
      w.trace_begin = sim.trace().size();
      w.spec = spec;
      w.invoked_at = sim.trace().size();
      result.windows.push_back(w);
      clients.at(client.value())->invoke(spec);
      active[client.value()] = spec.id;
      ++issued;
    }

    // Harvest completions.
    for (auto it = active.begin(); it != active.end();) {
      const auto& cb = *clients_ro.at(it->first);
      if (cb.has_completed(it->second)) {
        for (auto& w : result.windows)
          if (w.id == it->second) {
            w.completed = true;
            w.trace_end = sim.trace().size();
          }
        it = active.erase(it);
      } else {
        ++it;
      }
    }

    if (issued >= cfg.num_txs && active.empty()) break;

    // One randomized slice.
    auto stats = advance(rng);
    spent += std::max<std::size_t>(stats.events(), 1);
  }

  result.incomplete = active.size();
  if (cfg.collect_history)
    result.history = discs::proto::collect_history(sim, cluster.clients,
                                                   cluster.initial_values);
  return result;
}

}  // namespace

WorkloadResult run_workload_concurrent(sim::Simulation& sim,
                                       const Protocol& proto,
                                       const Cluster& cluster, IdSource& ids,
                                       const WorkloadConfig& cfg) {
  return run_concurrent_impl(sim, proto, cluster, ids, cfg, [&](Rng& rng) {
    return sim::run_random(sim, {}, rng, nullptr, 8);
  });
}

WorkloadResult run_workload_concurrent_faulted(sim::Simulation& sim,
                                               const Protocol& proto,
                                               const Cluster& cluster,
                                               IdSource& ids,
                                               const WorkloadConfig& cfg,
                                               fault::FaultSession& session) {
  return run_concurrent_impl(sim, proto, cluster, ids, cfg, [&](Rng& rng) {
    return fault::run_random_faulted(sim, session, {}, rng, nullptr, 8);
  });
}

}  // namespace discs::wl
