#include <algorithm>
#include <limits>
#include <sstream>
#include <tuple>

#include "consistency/checkers.h"
#include "util/check.h"
#include "util/fmt.h"

namespace discs::cons {

namespace {
using discs::hist::ReadOp;

std::string tx_name(const History& h, std::size_t node) {
  if (node == CausalGraph::kInitNode) return "T_init";
  return to_string(h.at(node - 1).id);
}
}  // namespace

WriterIndex::WriterIndex(const History& h) {
  for (const auto& [obj, v] : h.initial_values()) {
    writer_.emplace_back(v, 0);
    written_.emplace_back(obj, v);
  }
  for (std::size_t i = 0; i < h.size(); ++i) {
    const auto& writes = h.at(i).writes;
    for (const auto& w : writes) {
      writer_.emplace_back(w.value, i + 1);
      written_.emplace_back(w.object, w.value);
    }
  }
  // Keep the lowest key per value: initial (0), then the lowest tx index.
  std::sort(writer_.begin(), writer_.end());
  writer_.erase(std::unique(writer_.begin(), writer_.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                writer_.end());
  std::sort(written_.begin(), written_.end());
}

std::optional<Writer> WriterIndex::writer_of(ValueId value) const {
  auto it = std::lower_bound(
      writer_.begin(), writer_.end(), value,
      [](const auto& e, ValueId v) { return e.first < v; });
  if (it == writer_.end() || it->first != value) return std::nullopt;
  if (it->second == 0) return Writer{Writer::kInit};
  return Writer{it->second - 1};
}

bool WriterIndex::written_to(ObjectId obj, ValueId value) const {
  return std::binary_search(written_.begin(), written_.end(),
                            std::pair{obj, value});
}

CausalGraph::CausalGraph(const History& h) : history(h), writers(h) {
  const std::size_t n = h.size() + 1;  // nodes, the initializing one first
  DISCS_CHECK(n < std::numeric_limits<std::uint32_t>::max());

  // Program order: each node's client, position and predecessor (0: none).
  client_.assign(n, 0);
  pos_.assign(n, 0);
  std::vector<std::uint32_t> po_pred(n, 0);
  struct ObjectWrite {
    ObjectId object;
    std::uint32_t client, pos, node;
  };
  std::vector<ObjectWrite> object_writes;
  auto clients = h.clients();
  clients_ = clients.size();
  for (std::uint32_t c = 0; c < clients.size(); ++c) {
    auto idx = h.client_order(clients[c]);
    for (std::uint32_t k = 0; k < idx.size(); ++k) {
      auto v = static_cast<std::uint32_t>(node_of(idx[k]));
      client_[v] = c;
      pos_[v] = k;
      if (k > 0) po_pred[v] = static_cast<std::uint32_t>(node_of(idx[k - 1]));
      for (const auto& w : h.at(idx[k]).writes)
        object_writes.push_back({w.object, c, k, v});
    }
  }
  std::sort(object_writes.begin(), object_writes.end(),
            [](const ObjectWrite& a, const ObjectWrite& b) {
              return std::tie(a.object, a.client, a.pos) <
                     std::tie(b.object, b.client, b.pos);
            });
  for (const ObjectWrite& w : object_writes) {
    auto at = static_cast<std::uint32_t>(writer_pos_.size());
    if (groups_.empty() || groups_.back().object != w.object ||
        groups_.back().client != w.client)
      groups_.push_back({w.object, w.client, at, at});
    writer_pos_.push_back(w.pos);
    writer_node_.push_back(w.node);
    groups_.back().end = at + 1;
  }

  // Predecessors of each transaction node (CSR): program order, then the
  // writer of each value it reads.  The initializing node precedes every
  // node by definition, so its reads-from edges add nothing.
  std::vector<std::uint32_t> first(n + 1, 0), preds;
  for (std::size_t v = 1; v < n; ++v) {
    first[v] = static_cast<std::uint32_t>(preds.size());
    if (po_pred[v]) preds.push_back(po_pred[v]);
    for (const auto& r : h.at(v - 1).reads) {
      if (!r.responded) continue;
      auto w = writers.writer_of(r.value);
      if (!w || w->is_init()) continue;  // garbage: check_reads_valid
      if (node_of(w->tx_index) != v)
        preds.push_back(static_cast<std::uint32_t>(node_of(w->tx_index)));
    }
  }
  first[n] = static_cast<std::uint32_t>(preds.size());

  // Tarjan over the predecessor edges.  It emits a component only after
  // every component that reaches it, so each predecessor outside the
  // component already has its row.  A predecessor still on the stack is a
  // member of the component being emitted.
  past_.assign(n * clients_, 0);
  auto absorb = [&](std::uint32_t* dst, std::uint32_t p) {
    const std::uint32_t* src = past_.data() + p * clients_;
    for (std::size_t c = 0; c < clients_; ++c)
      dst[c] = std::max(dst[c], src[c]);
    dst[client_[p]] = std::max(dst[client_[p]], pos_[p] + 1);
  };
  struct Frame {
    std::uint32_t node, next_edge;
  };
  std::vector<std::uint32_t> index(n, 0), low(n, 0), stack;
  std::vector<char> on_stack(n, 0);
  std::vector<Frame> frames;
  std::uint32_t visited = 0;
  auto visit = [&](std::uint32_t v) {
    index[v] = low[v] = ++visited;
    stack.push_back(v);
    on_stack[v] = 1;
    frames.push_back({v, first[v]});
  };
  for (std::uint32_t root = 1; root < n; ++root) {
    if (index[root]) continue;
    visit(root);
    while (!frames.empty()) {
      const std::uint32_t v = frames.back().node;
      if (frames.back().next_edge < first[v + 1]) {
        const std::uint32_t p = preds[frames.back().next_edge++];
        if (!index[p])
          visit(p);
        else if (on_stack[p])
          low[v] = std::min(low[v], index[p]);
        continue;
      }
      frames.pop_back();
      if (!frames.empty()) {
        std::uint32_t& parent_low = low[frames.back().node];
        parent_low = std::min(parent_low, low[v]);
      }
      if (low[v] != index[v]) continue;

      std::size_t at = stack.size();
      while (stack[--at] != v) {
      }
      std::uint32_t* row = past_.data() + v * clients_;
      for (std::size_t s = at; s < stack.size(); ++s)
        for (std::uint32_t e = first[stack[s]]; e < first[stack[s] + 1]; ++e)
          if (!on_stack[preds[e]]) absorb(row, preds[e]);
      if (stack.size() - at > 1) {  // a cycle: each member reaches itself
        for (std::size_t s = at; s < stack.size(); ++s) {
          const std::uint32_t m = stack[s];
          row[client_[m]] = std::max(row[client_[m]], pos_[m] + 1);
          cycle_.push_back(m);
        }
        for (std::size_t s = at; s < stack.size(); ++s)
          if (stack[s] != v)
            std::copy(row, row + clients_, past_.data() + stack[s] * clients_);
      }
      for (std::size_t s = at; s < stack.size(); ++s) on_stack[stack[s]] = 0;
      stack.resize(at);
    }
  }
  std::sort(cycle_.begin(), cycle_.end());
}

bool CausalGraph::may_intervene(std::size_t node_a, std::size_t node_b,
                                ObjectId obj) const {
  if (!acyclic()) return true;
  if (node_b == kInitNode) return false;
  // Per client, the last transaction writing obj in b's past.  If a
  // reaches an earlier one, it reaches that one too by program order; if
  // it is a itself, a reaches no earlier one without a cycle.
  auto g = std::lower_bound(
      groups_.begin(), groups_.end(), obj,
      [](const WriterGroup& e, ObjectId o) { return e.object < o; });
  for (; g != groups_.end() && g->object == obj; ++g) {
    const std::uint32_t limit = past_[node_b * clients_ + g->client];
    auto first = writer_pos_.begin() + g->begin;
    auto last = std::lower_bound(first, writer_pos_.begin() + g->end, limit);
    if (last == first) continue;
    const std::uint32_t j = writer_node_[last - 1 - writer_pos_.begin()];
    if (j != node_a && before(node_a, j)) return true;
  }
  return false;
}

CheckResult check_reads_valid(const History& h) {
  return check_reads_valid(h, WriterIndex(h));
}

CheckResult check_reads_valid(const History& h, const WriterIndex& writers) {
  CheckResult result;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const TxRecord& t = h.at(i);
    for (const auto& r : t.reads) {
      if (!r.responded) continue;
      if (!writers.writer_of(r.value)) {
        result.flag("garbage-read",
                    cat(t.describe(), " returned ", to_string(r.value),
                        " for ", to_string(r.object),
                        " but no transaction wrote that value"));
        continue;
      }
      // The value must have been written to (or be initial for) this object.
      if (!writers.written_to(r.object, r.value))
        result.flag("wrong-object-read",
                    cat(t.describe(), " returned ", to_string(r.value),
                        " for ", to_string(r.object),
                        " but that value was written to a different object"));
    }
  }
  return result;
}

CheckResult check_causal_consistency(const History& h) {
  CausalGraph g(h);
  CheckResult result = check_reads_valid(h, g.writers);

  // (a) The causal relation must be a partial order (acyclic).
  if (!g.acyclic()) {
    std::ostringstream os;
    os << "causality cycle through {";
    bool first = true;
    for (auto n : g.cycle_members()) {
      os << (first ? "" : ", ") << tx_name(h, n);
      first = false;
    }
    os << "}";
    result.flag("causal-cycle", os.str());
  }

  // (b) No intervening write between a read's dictating write and the read,
  // along the causality order.  This is the Lemma 1 condition: if T reads
  // v for X from W, no T' with W <c T' <c T may also write X.
  for (std::size_t i = 0; i < h.size(); ++i) {
    const TxRecord& t = h.at(i);
    std::size_t tn = CausalGraph::node_of(i);
    for (const auto& r : t.reads) {
      if (!r.responded) continue;

      // Own-write rule (legality condition 1): a transaction that writes X
      // and reads X must observe its own value.
      if (auto own = t.value_written(r.object)) {
        if (r.value != *own)
          result.flag("own-write-missed",
                      cat(t.describe(), " read ", to_string(r.value), " for ",
                          to_string(r.object),
                          " instead of its own written value ",
                          to_string(*own)));
        continue;
      }

      auto w = g.writers.writer_of(r.value);
      if (!w) continue;
      std::size_t wn = g.node_of_writer(*w);

      // The dictating write must not causally follow the reader.
      if (g.before(tn, wn)) {
        result.flag("read-from-future",
                    cat(t.describe(), " reads ", to_string(r.value),
                        " whose writer ", tx_name(h, wn),
                        " causally follows the reader"));
        continue;
      }

      if (!g.may_intervene(wn, tn, r.object)) continue;
      for (std::size_t j = 0; j < h.size(); ++j) {
        std::size_t jn = CausalGraph::node_of(j);
        if (jn == wn || jn == tn) continue;
        if (!h.at(j).writes_object(r.object)) continue;
        if (g.before(wn, jn) && g.before(jn, tn)) {
          result.flag(
              "intervening-write",
              cat(t.describe(), " reads ", to_string(r.value), " for ",
                  to_string(r.object), " from ", tx_name(h, wn), ", but ",
                  tx_name(h, jn), " also writes ", to_string(r.object),
                  " with ", tx_name(h, wn), " <c ", tx_name(h, jn), " <c ",
                  tx_name(h, tn)));
        }
      }
    }
  }
  return result;
}

}  // namespace discs::cons
