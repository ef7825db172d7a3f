#include "history/history.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <tuple>

#include "util/check.h"
#include "util/fmt.h"

namespace discs::hist {

std::optional<ValueId> TxRecord::value_read(ObjectId obj) const {
  for (const auto& r : reads)
    if (r.object == obj && r.responded) return r.value;
  return std::nullopt;
}

bool TxRecord::writes_object(ObjectId obj) const {
  for (const auto& w : writes)
    if (w.object == obj) return true;
  return false;
}

std::optional<ValueId> TxRecord::value_written(ObjectId obj) const {
  for (const auto& w : writes)
    if (w.object == obj) return w.value;
  return std::nullopt;
}

std::string TxRecord::describe() const {
  std::ostringstream os;
  os << to_string(id) << "@" << to_string(client) << "(";
  bool first = true;
  for (const auto& r : reads) {
    os << (first ? "" : ", ") << "r(" << to_string(r.object) << ")"
       << (r.responded ? to_string(r.value) : std::string("*"));
    first = false;
  }
  for (const auto& w : writes) {
    os << (first ? "" : ", ") << "w(" << to_string(w.object) << ")"
       << to_string(w.value);
    first = false;
  }
  os << ")" << (completed ? "" : " [incomplete]");
  return os.str();
}

void History::set_initial(ObjectId obj, ValueId value) {
  initial_[obj] = value;
}

std::optional<ValueId> History::initial_of(ObjectId obj) const {
  auto it = initial_.find(obj);
  if (it == initial_.end()) return std::nullopt;
  return it->second;
}

void History::add(TxRecord tx) { txs_.push_back(std::move(tx)); }

History History::complete() const {
  History out;
  out.initial_ = initial_;
  for (const auto& t : txs_)
    if (t.completed) out.txs_.push_back(t);
  return out;
}

std::vector<std::size_t> History::client_order(ProcessId client) const {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < txs_.size(); ++i)
    if (txs_[i].client == client) idx.push_back(i);
  // Ties (one invocation time) keep history order, whatever the sort does.
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return std::tie(txs_[a].invoke_seq, a) < std::tie(txs_[b].invoke_seq, b);
  });
  return idx;
}

std::vector<ProcessId> History::clients() const {
  std::set<ProcessId> seen;
  for (const auto& t : txs_) seen.insert(t.client);
  return {seen.begin(), seen.end()};
}

std::optional<Writer> History::writer_of(ValueId value) const {
  for (const auto& [obj, v] : initial_)
    if (v == value) return Writer{Writer::kInit};
  for (std::size_t i = 0; i < txs_.size(); ++i)
    for (const auto& w : txs_[i].writes)
      if (w.value == value) return Writer{i};
  return std::nullopt;
}

std::vector<ObjectId> History::objects() const {
  std::set<ObjectId> seen;
  for (const auto& [obj, _] : initial_) seen.insert(obj);
  for (const auto& t : txs_) {
    for (const auto& r : t.reads) seen.insert(r.object);
    for (const auto& w : t.writes) seen.insert(w.object);
  }
  return {seen.begin(), seen.end()};
}

std::string History::describe() const {
  std::ostringstream os;
  for (const auto& [obj, v] : initial_)
    os << "init " << to_string(obj) << "=" << to_string(v) << "\n";
  for (const auto& t : txs_) os << t.describe() << "\n";
  return os.str();
}

History merge_histories(const std::vector<History>& parts) {
  History out;
  std::vector<TxRecord> txs;
  for (const auto& h : parts) {
    for (const auto& [obj, v] : h.initial_values()) {
      auto existing = out.initial_of(obj);
      DISCS_CHECK_MSG(!existing || *existing == v,
                      "conflicting initial value declarations");
      out.set_initial(obj, v);
    }
    for (const auto& t : h.txs()) txs.push_back(t);
  }
  // Canonical order: by invocation time, then id.
  std::stable_sort(txs.begin(), txs.end(),
                   [](const TxRecord& a, const TxRecord& b) {
                     if (a.invoke_seq != b.invoke_seq)
                       return a.invoke_seq < b.invoke_seq;
                     return a.id < b.id;
                   });
  for (auto& t : txs) out.add(std::move(t));
  return out;
}

}  // namespace discs::hist
