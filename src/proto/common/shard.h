// Key placement: the Appendix A general model, and the only placement DISCS
// has.
//
// The paper's main theorem is proved for clusters of m >= 2 servers where
// each server stores a non-empty subset of the objects and no server stores
// all of them.  A ShardMap operationalizes exactly that configuration at
// scale: the key space is split into N shards (key -> shard `key mod N`),
// and shard s is stored by a *replica group* of R consecutive servers
// starting at servers[s mod m] (the group's first server is the shard's
// primary).  Every placement question — which servers store an object,
// which objects a server stores, who is the routing target for a read or
// write — is answered arithmetically in O(1) from (N, R, m), never from an
// enumerated per-key table, so a 64-shard cluster over millions of keys
// costs the same metadata as a 2-server cluster over two keys.
//
// Theorem 1's cluster (Section 2) is the same model with one shard per
// object: make_view builds N = num_objects when ClusterConfig::num_shards
// is 1, which places object o on servers (o + r) mod m — the round-robin
// layout every pre-sharding artifact was recorded on.
//
// Invariants established by make() (checked, Section 2 / Appendix A):
//  * m >= 2 and N >= m          — every server stores at least one shard;
//  * R >= 1 and R <  m          — partial replication: no server stores
//                                 every shard, hence not every object;
//  * num_objects >= N           — every shard holds at least one key.
// Lookups check that the object id is below num_objects: an object outside
// the key space is placed nowhere.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/ids.h"

namespace discs::proto {

class ShardMap {
 public:
  /// Empty map: places no object, so every lookup fails its check.
  ShardMap() = default;

  /// Builds the map for `num_shards` x `replicas` over `servers` (which
  /// must have contiguous ProcessIds, as Protocol::build assigns them).
  static ShardMap make(std::size_t num_shards, std::size_t replicas,
                       const std::vector<ProcessId>& servers,
                       std::size_t num_objects);

  std::size_t num_shards() const { return num_shards_; }
  std::size_t replicas() const { return replicas_; }
  std::size_t num_servers() const { return num_servers_; }
  std::size_t num_objects() const { return num_objects_; }

  /// Key routing: the shard storing `obj`.
  std::size_t shard_of(ObjectId obj) const {
    DISCS_CHECK_MSG(obj.value() < num_objects_, "object not placed");
    return static_cast<std::size_t>(obj.value()) % num_shards_;
  }

  /// The replica group of one shard; the first entry is the primary every
  /// client routes to.
  const std::vector<ProcessId>& group(std::size_t shard) const;
  ProcessId primary_of(std::size_t shard) const { return group(shard).front(); }

  /// Placement accessors mirroring ClusterView's surface.
  const std::vector<ProcessId>& replicas_of(ObjectId obj) const {
    return group(shard_of(obj));
  }
  /// O(1): membership of `server` in `obj`'s replica group, by residue
  /// arithmetic instead of a scan.
  bool server_stores(ProcessId server, ObjectId obj) const;

  /// The shards whose replica groups include `server` (ascending).
  std::vector<std::size_t> shards_at(ProcessId server) const;
  /// The key subset `server` stores (ascending), generated per hosted
  /// shard — O(stored objects), never O(total objects x servers).
  std::vector<ObjectId> objects_at(ProcessId server) const;

  /// Position of `server` in the server list (its ids are contiguous).
  std::size_t server_index(ProcessId server) const;

  /// e.g. "64x2/m8" — shards x replicas over m servers (logs, docs).
  std::string str() const;

 private:
  std::size_t num_shards_ = 0;
  std::size_t replicas_ = 1;
  std::size_t num_servers_ = 0;
  std::size_t num_objects_ = 0;
  std::uint64_t first_server_ = 0;
  /// shard -> replica group, precomputed (N x R ProcessIds, independent of
  /// key count) so replicas_of can hand out references.
  std::vector<std::vector<ProcessId>> groups_;
};

}  // namespace discs::proto
