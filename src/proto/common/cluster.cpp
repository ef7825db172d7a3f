#include "proto/common/cluster.h"

#include "obs/span.h"
#include "proto/common/client.h"
#include "proto/common/server.h"
#include "util/check.h"

namespace discs::proto {

ClusterView make_view(const ClusterConfig& cfg, ProcessId first_server) {
  ClusterView view;
  view.exactly_once = cfg.exactly_once;
  view.durable_journal = cfg.durable_journal;
  view.journal_compact_threshold = cfg.journal_compact_threshold;
  view.record_spans = cfg.record_spans;
  for (std::size_t s = 0; s < cfg.num_servers; ++s)
    view.servers.push_back(ProcessId(first_server.value() + s));
  // num_shards == 1 is one shard per object: object o on servers
  // (o + r) mod m, the round-robin layout of Theorem 1's cluster.
  view.shards = ShardMap::make(
      cfg.num_shards > 1 ? cfg.num_shards : cfg.num_objects,
      cfg.replication, view.servers, cfg.num_objects);
  view.objects.reserve(cfg.num_objects);
  for (std::size_t o = 0; o < cfg.num_objects; ++o)
    view.objects.push_back(ObjectId(o));
  return view;
}

std::map<ProcessId, std::vector<ObjectId>> group_by_primary(
    const ClusterView& view, const std::vector<ObjectId>& objects) {
  std::map<ProcessId, std::vector<ObjectId>> out;
  for (auto obj : objects) out[view.primary(obj)].push_back(obj);
  return out;
}

Cluster Protocol::build(sim::Simulation& sim, const ClusterConfig& cfg,
                        IdSource& ids) const {
  Cluster cluster;
  cluster.view = make_view(cfg, sim.next_process_id());

  // A span-recording run owns the thread-local log for its lifetime;
  // leftovers from a previous capture on this thread would corrupt it.
  if (cfg.record_spans) obs::SpanLog::global().clear();

  for (auto sid : cluster.view.servers) {
    DISCS_CHECK(sid == sim.next_process_id());
    sim.add_process(
        make_server(sid, cluster.view, cluster.view.objects_at(sid), cfg));
  }

  // Seed initial values x_in_i for every object at every replica, yielding
  // the paper's configuration Q0 (initial values visible, no messages in
  // transit) directly.
  for (auto obj : cluster.view.objects) {
    ValueId v = ids.next_value();
    cluster.initial_values[obj] = v;
    for (auto sid : cluster.view.replicas(obj))
      sim.process_as<ServerBase>(sid).seed(obj, v);
  }

  for (std::size_t c = 0; c < cfg.num_clients; ++c)
    cluster.clients.push_back(add_client(sim, cluster.view));

  if (cfg.client_retransmit_after > 0)
    for (auto cid : cluster.clients)
      sim.process_as<ClientBase>(cid).set_retransmit_after(
          cfg.client_retransmit_after);

  return cluster;
}

}  // namespace discs::proto
