// Appendix A / Theorem 2: the impossibility result under any number of
// servers and partial replication, swept across cluster shapes.
//
// Also sweeps the two correct corner designs to show the feasible corners
// persist at scale (their relinquished property stays relinquished, their
// consistency stays verified).
#include <iostream>

#include "consistency/checkers.h"
#include "impossibility/induction.h"
#include "proto/registry.h"
#include "util/fmt.h"
#include "workload/workload.h"

using namespace discs;

int main() {
  std::cout << "=== Theorem 2: m servers, partial replication ===\n\n";

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"protocol", "m", "objects", "repl", "outcome", "steps"});
  for (const std::string name : {"naivefast", "stubborn"}) {
    auto protocol = proto::protocol_by_name(name);
    for (std::size_t m : {2, 3, 4, 8}) {
      for (std::size_t repl : {std::size_t{1}, std::size_t{2},
                               std::size_t{3}}) {
        if (repl >= m) continue;  // no server may store all objects
        proto::ClusterConfig cfg;
        cfg.num_servers = m;
        cfg.num_objects = m;
        cfg.num_clients = 4;
        cfg.replication = repl;
        imposs::InductionOptions options;
        options.max_steps = 4;
        auto report = imposs::run_induction(*protocol, cfg, options);
        rows.push_back({name, cat(m), cat(cfg.num_objects), cat(repl),
                        report.outcome_str(), cat(report.steps.size())});
      }
    }
  }
  std::cout << ascii_table(rows) << "\n";

  std::cout << "=== Feasible corners at scale (replication = 1) ===\n\n";
  std::vector<std::vector<std::string>> rows2;
  rows2.push_back({"protocol", "m", "txs", "incomplete", "causal check"});
  for (const std::string name : {"cops-snow", "wren", "spanner"}) {
    auto protocol = proto::protocol_by_name(name);
    for (std::size_t m : {2, 4, 8}) {
      sim::Simulation sim;
      proto::IdSource ids;
      proto::ClusterConfig cfg;
      cfg.num_servers = m;
      cfg.num_objects = 2 * m;
      cfg.num_clients = 6;
      proto::Cluster cluster = protocol->build(sim, cfg, ids);
      wl::WorkloadConfig wcfg;
      wcfg.num_txs = 60;
      wcfg.seed = 77;
      auto result =
          wl::run_workload_concurrent(sim, *protocol, cluster, ids, wcfg);
      auto causal = cons::check_causal_consistency(result.history);
      rows2.push_back({name, cat(m), cat(wcfg.num_txs),
                       cat(result.incomplete),
                       cons::verdict_str(causal.verdict)});
    }
  }
  std::cout << ascii_table(rows2) << "\n";

  // Many keys per shard (docs/SHARDING.md): the same induction argument on
  // N shards x R replicas instead of one shard per object.
  std::cout << "=== Theorem 2 under sharded placement ===\n\n";
  std::vector<std::vector<std::string>> rows3;
  rows3.push_back(
      {"protocol", "shards", "m", "repl", "objects", "outcome", "steps"});
  for (const std::string name : {"naivefast", "stubborn"}) {
    auto protocol = proto::protocol_by_name(name);
    for (std::size_t shards : {8, 64}) {
      proto::ClusterConfig cfg;
      cfg.num_servers = 4;
      cfg.num_clients = 4;
      cfg.num_objects = shards;
      cfg.num_shards = shards;
      cfg.replication = 2;
      imposs::InductionOptions options;
      options.max_steps = 4;
      auto report = imposs::run_induction(*protocol, cfg, options);
      rows3.push_back({name, cat(shards), cat(cfg.num_servers), cat(2),
                       cat(cfg.num_objects), report.outcome_str(),
                       cat(report.steps.size())});
    }
  }
  std::cout << ascii_table(rows3) << "\n";
  std::cout << "The impossibility outcomes are invariant in the cluster\n"
               "shape (Theorem 2) — one shard per object or many alike —\n"
               "and the feasible designs keep their guarantees as the\n"
               "system grows.\n";
  return 0;
}
