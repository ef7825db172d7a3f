#include "proto/common/shard.h"

#include <algorithm>

#include "util/check.h"
#include "util/fmt.h"

namespace discs::proto {

ShardMap ShardMap::make(std::size_t num_shards, std::size_t replicas,
                        const std::vector<ProcessId>& servers,
                        std::size_t num_objects) {
  const std::size_t m = servers.size();
  DISCS_CHECK_MSG(m >= 2, "the model requires m > 1 servers");
  DISCS_CHECK_MSG(num_shards >= m,
                  "every server must store at least one shard");
  DISCS_CHECK_MSG(replicas >= 1 && replicas < m,
                  "partial replication requires 1 <= replicas < servers "
                  "(no server may store every object)");
  DISCS_CHECK_MSG(num_objects >= num_shards,
                  "every shard must hold at least one key");
  for (std::size_t i = 1; i < m; ++i)
    DISCS_CHECK_MSG(servers[i].value() == servers[0].value() + i,
                    "shard map requires contiguous server ids");

  ShardMap map;
  map.num_shards_ = num_shards;
  map.replicas_ = replicas;
  map.num_servers_ = m;
  map.num_objects_ = num_objects;
  map.first_server_ = servers[0].value();
  map.groups_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    std::vector<ProcessId> group;
    group.reserve(replicas);
    for (std::size_t r = 0; r < replicas; ++r)
      group.push_back(servers[(s + r) % m]);
    map.groups_.push_back(std::move(group));
  }
  return map;
}

const std::vector<ProcessId>& ShardMap::group(std::size_t shard) const {
  DISCS_CHECK_MSG(shard < groups_.size(), "shard out of range");
  return groups_[shard];
}

std::size_t ShardMap::server_index(ProcessId server) const {
  DISCS_CHECK_MSG(server.value() >= first_server_ &&
                      server.value() < first_server_ + num_servers_,
                  "not a server of this cluster");
  return static_cast<std::size_t>(server.value() - first_server_);
}

bool ShardMap::server_stores(ProcessId server, ObjectId obj) const {
  // Shard s is stored by server indices {s, s+1, ..., s+R-1} mod m, so
  // membership is one residue-window check.
  const std::size_t k = server_index(server);
  const std::size_t s = shard_of(obj) % num_servers_;
  return (k + num_servers_ - s) % num_servers_ < replicas_;
}

std::vector<std::size_t> ShardMap::shards_at(ProcessId server) const {
  const std::size_t k = server_index(server);
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < num_shards_; ++s)
    if ((k + num_servers_ - s % num_servers_) % num_servers_ < replicas_)
      out.push_back(s);
  return out;
}

std::vector<ObjectId> ShardMap::objects_at(ProcessId server) const {
  std::vector<ObjectId> out;
  const auto hosted = shards_at(server);
  // Keys of shard s are {s, s+N, s+2N, ...}; interleaving the hosted
  // shards' arithmetic progressions block-by-block yields ascending key
  // order directly (hosted is ascending and blocks are N apart).
  for (std::size_t base = 0; base < num_objects_; base += num_shards_)
    for (std::size_t s : hosted)
      if (base + s < num_objects_) out.push_back(ObjectId(base + s));
  return out;
}

std::string ShardMap::str() const {
  return cat(num_shards_, "x", replicas_, "/m", num_servers_);
}

}  // namespace discs::proto
