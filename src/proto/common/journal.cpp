#include "proto/common/journal.h"

#include <sstream>

#include "obs/registry.h"

namespace discs::proto {

std::string JournalRecord::describe() const {
  std::ostringstream os;
  if (kind == Kind::kPut) {
    os << "put(" << to_string(obj) << "," << version.describe() << ")";
  } else {
    os << "vis(" << to_string(obj) << "," << to_string(value) << ",!"
       << invisible_to.size() << ")";
  }
  return os.str();
}

void Journal::record_put(ObjectId obj, const kv::Version& v) {
  JournalRecord r;
  r.kind = JournalRecord::Kind::kPut;
  r.obj = obj;
  r.version = v;
  records_.push_back(std::move(r));
  obs::Registry::global().inc("server.journal.appends");
}

void Journal::record_make_visible(ObjectId obj, ValueId value,
                                  std::vector<TxId> invisible_to) {
  JournalRecord r;
  r.kind = JournalRecord::Kind::kMakeVisible;
  r.obj = obj;
  r.value = value;
  r.invisible_to = std::move(invisible_to);
  records_.push_back(std::move(r));
  obs::Registry::global().inc("server.journal.appends");
}

void Journal::maybe_compact(const kv::VersionedStore& current) {
  if (records_.size() <= compact_threshold_) return;
  obs::Registry::global().inc("server.recovery.truncated", records_.size());
  base_ = current;  // COW: O(1) until one side writes
  has_base_ = true;
  records_.clear();
}

kv::VersionedStore Journal::replay(
    const std::vector<std::pair<ObjectId, ValueId>>& seeds) const {
  kv::VersionedStore store;
  if (has_base_) {
    store = base_;
  } else {
    for (const auto& [obj, value] : seeds) {
      kv::Version v;
      v.value = value;
      v.ts = {0, 0};
      v.visible = true;
      store.put(obj, std::move(v));
    }
  }
  for (const auto& r : records_) {
    if (r.kind == JournalRecord::Kind::kPut)
      store.put(r.obj, r.version);
    else
      store.make_visible(r.obj, r.value, r.invisible_to);
  }
  obs::Registry::global().inc("server.recovery.replayed", records_.size());
  return store;
}

std::string Journal::digest() const {
  std::ostringstream os;
  os << (has_base_ ? "base:" : "seed:");
  if (has_base_) os << base_.digest();
  os << "|" << records_.size() << "[";
  for (const auto& r : records_) os << r.describe() << ",";
  os << "]";
  return os.str();
}

}  // namespace discs::proto
