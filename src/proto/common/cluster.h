// Cluster topology and the Protocol factory interface.
//
// A cluster has m >= 2 servers, each storing a non-empty set of objects
// (Section 2).  With replication == 1 the per-server sets are disjoint (the
// simple model of Theorem 1); with replication > 1 the system is partially
// replicated (Appendix A): sets overlap but no server stores everything.
//
// Placement is one ShardMap for every cluster (docs/SHARDING.md): keys
// route to shards (key mod N) and shards to replica groups, computed
// arithmetically and never enumerated, so clusters scale to millions of
// keys.  The default num_shards == 1 means one shard per object (N =
// num_objects): object o lives on servers (o + r) mod m, the round-robin
// layout of Theorem 1's cluster and of every pre-sharding artifact.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "proto/common/shard.h"
#include "proto/common/tx.h"
#include "sim/simulation.h"

namespace discs::proto {

/// Immutable description of the cluster every process carries.
struct ClusterView {
  std::vector<ProcessId> servers;
  std::vector<ObjectId> objects;
  /// Placement: answers every accessor below.
  ShardMap shards;

  /// Robustness switches, copied from ClusterConfig by make_view so that
  /// every process built from this view — including probe clients added
  /// later via Protocol::add_client — inherits them.  Both default off,
  /// which keeps digests and traces byte-identical to pre-session-layer
  /// builds.
  bool exactly_once = false;    ///< session envelopes + server dedup
  bool durable_journal = false; ///< write-ahead journal survives lossy crash
  std::size_t journal_compact_threshold = 256;
  /// Span/cause annotations (obs/span.h): ClientBase and ServerBase note tx
  /// begin/round/end and server recv/reply moments into the thread-local
  /// SpanLog as they step.  Off by default: notes cost time and the trace
  /// exporter only emits span records when this is set.
  bool record_spans = false;

  /// Replica servers of `obj`; the first entry is the primary.
  const std::vector<ProcessId>& replicas(ObjectId obj) const {
    return shards.replicas_of(obj);
  }
  ProcessId primary(ObjectId obj) const { return replicas(obj).front(); }
  bool server_stores(ProcessId server, ObjectId obj) const {
    return shards.server_stores(server, obj);
  }
  /// The objects `server` stores, ascending.
  std::vector<ObjectId> objects_at(ProcessId server) const {
    return shards.objects_at(server);
  }
  std::size_t server_index(ProcessId server) const {
    return shards.server_index(server);
  }
};

struct ClusterConfig {
  std::size_t num_servers = 2;
  std::size_t num_clients = 4;
  std::size_t num_objects = 2;
  /// Replicas per object: the replica-group size R of every shard.
  /// 1 = disjoint placement (Theorem 1 model); >1 = partial replication
  /// (Appendix A model).  Must stay below num_servers: no server stores
  /// everything.
  std::size_t replication = 1;
  /// Shard count N of the Appendix A cluster (docs/SHARDING.md): key k
  /// routes to shard k mod N, and shard s lives on the R consecutive
  /// servers starting at servers[s mod m] (the first is the primary
  /// clients route to).  1 (default) means one shard per object, the
  /// round-robin layout of Theorem 1's cluster.  Requires the effective
  /// shard count to be >= num_servers (every server stores at least one
  /// shard) and <= num_objects (every shard holds a key).
  std::size_t num_shards = 1;
  /// TrueTime uncertainty half-width for clock-based protocols.
  std::uint64_t tt_epsilon = 5;
  /// Servers gossip stabilization info every `gossip_interval` own steps.
  std::size_t gossip_interval = 1;
  /// Exactly-once session layer (proto/common/exactly_once.h): clients and
  /// servers wrap non-idempotent sends in identity envelopes; receivers
  /// dedup and replay memoized replies, making retransmits and `duplicate`
  /// fault rules safe for every protocol.
  bool exactly_once = false;
  /// Journaled crash recovery (proto/common/journal.h): servers append
  /// store mutations to a write-ahead journal; a *lossy* crash replays the
  /// journal instead of wiping back to the seeded baseline.
  bool durable_journal = false;
  /// Journal entries kept before compacting into a snapshot base.
  std::size_t journal_compact_threshold = 256;
  /// Causal span profiling (obs/span.h): processes annotate transaction
  /// begin/round/end and server recv/reply moments so traces can be
  /// profiled offline (obs/span_dag.h).  Purely additive: simulation
  /// behavior, digests and span-free trace bytes are unchanged.
  bool record_spans = false;
  /// When nonzero, Protocol::build arms every client's retransmit backoff
  /// ladder (ClientBase::set_retransmit_after) with this base.  Carried in
  /// the trace header so a captured run with retransmits enabled — e.g. an
  /// rt-backend run pacing the ladder off wall-clock ticks — rebuilds into
  /// clients with the same ladder and replays byte-exactly.  0 (default)
  /// keeps digests and trace bytes identical to pre-knob builds.
  std::size_t client_retransmit_after = 0;
};

/// Result of building a cluster into a simulation.
struct Cluster {
  ClusterView view;
  std::vector<ProcessId> clients;
  std::map<ObjectId, ValueId> initial_values;
};

class ServerBase;

/// Factory + self-description of a protocol implementation.
class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual std::string name() const = 0;
  /// Does the protocol accept transactions writing more than one object
  /// (the W property)?
  virtual bool supports_write_tx() const = 0;
  /// The consistency level the protocol claims (verified by the benches).
  virtual std::string consistency_claim() const = 0;
  /// Does the protocol claim fast read-only transactions (all of N, O, V)?
  /// The impossibility auditor targets protocols claiming W + fast.
  virtual bool claims_fast_rot() const = 0;

  /// Builds servers (ids 0..m-1), seeds initial values, then creates
  /// `cfg.num_clients` clients.  Objects are placed by make_view's
  /// ShardMap.
  Cluster build(sim::Simulation& sim, const ClusterConfig& cfg,
                IdSource& ids) const;

  /// Adds one more client to an existing cluster (the proof repeatedly
  /// needs fresh reader clients c_r^k).
  virtual ProcessId add_client(sim::Simulation& sim,
                               const ClusterView& view) const = 0;

 protected:
  virtual std::unique_ptr<ServerBase> make_server(
      ProcessId id, const ClusterView& view, std::vector<ObjectId> stored,
      const ClusterConfig& cfg) const = 0;
};

/// The view Protocol::build hands every process: servers numbered from
/// `first_server` and the ShardMap placing cfg.num_objects objects on them
/// (one shard per object when cfg.num_shards == 1).  ShardMap::make checks
/// the model's invariants.
ClusterView make_view(const ClusterConfig& cfg, ProcessId first_server);

/// Groups objects by their primary server (their shard's primary),
/// preserving object order — the routing primitive behind every
/// client's fan-out: one message per involved server.  ShardRouter
/// (proto/common/client.h) layers join bookkeeping on top.
std::map<ProcessId, std::vector<ObjectId>> group_by_primary(
    const ClusterView& view, const std::vector<ObjectId>& objects);

}  // namespace discs::proto
