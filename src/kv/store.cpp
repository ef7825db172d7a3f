#include "kv/store.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "obs/registry.h"
#include "util/check.h"
#include "util/fmt.h"

namespace discs::kv {

const std::vector<Version> VersionedStore::kEmpty;

std::string Version::describe() const {
  std::ostringstream os;
  os << to_string(value) << "@" << ts.str();
  if (!visible) os << " (pending)";
  if (!invisible_to.empty()) os << " (hidden from " << invisible_to.size()
                                << " readers)";
  return os.str();
}

VersionedStore::ChainMap& VersionedStore::mutable_map() {
  digest_memo_.reset();
  if (!chains_) {
    chains_ = std::make_shared<ChainMap>();
  } else if (chains_.use_count() > 1) {
    // Shared with a sibling snapshot: clone the map, sharing the chains.
    chains_ = std::make_shared<ChainMap>(*chains_);
    obs::Registry::global().inc("kv.cow.map_clones");
  }
  return *chains_;
}

VersionedStore::Chain& VersionedStore::mutable_chain(ObjectId obj) {
  auto& slot = mutable_map()[obj];
  if (!slot) {
    slot = std::make_shared<Chain>();
  } else if (slot.use_count() > 1) {
    // Only the chain being written diverges; siblings keep the original.
    slot = std::make_shared<Chain>(*slot);
    obs::Registry::global().inc("kv.cow.chain_clones");
  }
  return *slot;
}

void VersionedStore::put(ObjectId obj, Version v) {
  auto& chain = mutable_chain(obj);
  // Insert keeping ts order; equal timestamps keep insertion order.
  auto it = std::upper_bound(
      chain.begin(), chain.end(), v.ts,
      [](const HlcTimestamp& ts, const Version& w) { return ts < w.ts; });
  chain.insert(it, std::move(v));
}

namespace {
bool servable(const Version& v, TxId reader) {
  if (!v.visible) return false;
  if (reader.valid() && v.invisible_to.count(reader)) return false;
  return true;
}
}  // namespace

const Version* VersionedStore::latest_visible(ObjectId obj,
                                              TxId reader) const {
  const auto& chain = this->chain(obj);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it)
    if (servable(*it, reader)) return &*it;
  return nullptr;
}

const Version* VersionedStore::latest_visible_at(ObjectId obj,
                                                 HlcTimestamp at,
                                                 TxId reader) const {
  const auto& chain = this->chain(obj);
  // First version with ts > at; everything before it is a candidate.
  auto bound = std::upper_bound(
      chain.begin(), chain.end(), at,
      [](const HlcTimestamp& ts, const Version& w) { return ts < w.ts; });
  for (auto it = std::make_reverse_iterator(bound); it != chain.rend(); ++it)
    if (servable(*it, reader)) return &*it;
  return nullptr;
}

const Version* VersionedStore::earliest_visible_from(ObjectId obj,
                                                     HlcTimestamp at,
                                                     TxId reader) const {
  const auto& chain = this->chain(obj);
  // First version with ts >= at; everything from it on is a candidate.
  auto bound = std::lower_bound(
      chain.begin(), chain.end(), at,
      [](const Version& w, const HlcTimestamp& ts) { return w.ts < ts; });
  for (auto it = bound; it != chain.end(); ++it)
    if (servable(*it, reader)) return &*it;
  return nullptr;
}

const Version* VersionedStore::find_value(ObjectId obj, ValueId value) const {
  for (const auto& v : chain(obj))
    if (v.value == value) return &v;
  return nullptr;
}

bool VersionedStore::make_visible(ObjectId obj, ValueId value,
                                  std::vector<TxId> invisible_to) {
  DISCS_CHECK(std::adjacent_find(invisible_to.begin(), invisible_to.end(),
                                 std::greater_equal<>()) ==
              invisible_to.end());
  if (!stores(obj)) return false;
  // Locate the version in the shared chain first so a miss does not clone.
  const Chain& shared = *chains_->find(obj)->second;
  std::size_t idx = shared.size();
  for (std::size_t i = 0; i < shared.size(); ++i)
    if (shared[i].value == value) { idx = i; break; }
  if (idx == shared.size()) return false;
  Version& v = mutable_chain(obj)[idx];
  v.visible = true;
  v.invisible_to.assign(invisible_to.begin(), invisible_to.end());
  return true;
}

const std::vector<Version>& VersionedStore::chain(ObjectId obj) const {
  if (!chains_) return kEmpty;
  auto it = chains_->find(obj);
  return it == chains_->end() ? kEmpty : *it->second;
}

std::vector<ObjectId> VersionedStore::objects() const {
  std::vector<ObjectId> out;
  if (!chains_) return out;
  out.reserve(chains_->size());
  for (const auto& [obj, _] : *chains_) out.push_back(obj);
  return out;
}

bool VersionedStore::has_pending() const {
  if (!chains_) return false;
  for (const auto& [_, chain] : *chains_)
    for (const auto& v : *chain)
      if (!v.visible) return true;
  return false;
}

std::string VersionedStore::digest() const {
  if (digest_memo_) return *digest_memo_;
  std::ostringstream os;
  if (!chains_) return os.str();
  for (const auto& [obj, chain] : *chains_) {
    os << to_string(obj) << ":[";
    for (const auto& v : *chain) {
      os << to_string(v.value) << "@" << v.ts.str()
         << (v.visible ? "" : "!") << "{";
      for (auto r : v.invisible_to) os << to_string(r) << ",";
      os << "} ";
    }
    os << "];";
  }
  digest_memo_ = std::make_shared<const std::string>(os.str());
  return *digest_memo_;
}

}  // namespace discs::kv
