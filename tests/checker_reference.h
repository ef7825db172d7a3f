// Test-only reference for the graph checkers: the direct algorithm, with
// no index and no shortcut.  The causality order is an (n+1)² bitset
// closed with Warshall, every value's writer comes from
// History::writer_of's scan, and every intervening-write and
// skewed-snapshot test scans the whole history.  The differential tests in
// test_consistency.cpp require each checker's summary() to equal this
// reference's byte for byte.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "consistency/checkers.h"
#include "util/fmt.h"

namespace discs::cons::reference {

/// A binary relation over {0, ..., n-1} as n bitsets of n bits.  After
/// close(), has(a, b) iff b is reachable from a by a path of length >= 1.
class Relation {
 public:
  explicit Relation(std::size_t n)
      : n_(n), words_((n + 63) / 64), bits_(n * words_, 0) {}

  void add(std::size_t a, std::size_t b) {
    bits_[a * words_ + b / 64] |= 1ULL << (b % 64);
  }
  bool has(std::size_t a, std::size_t b) const {
    return (bits_[a * words_ + b / 64] >> (b % 64)) & 1ULL;
  }

  void close() {
    for (std::size_t k = 0; k < n_; ++k)
      for (std::size_t i = 0; i < n_; ++i)
        if (has(i, k))
          for (std::size_t w = 0; w < words_; ++w)
            bits_[i * words_ + w] |= bits_[k * words_ + w];
  }

  std::vector<std::size_t> self_loops() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < n_; ++i)
      if (has(i, i)) out.push_back(i);
    return out;
  }

 private:
  std::size_t n_, words_;
  std::vector<std::uint64_t> bits_;
};

inline std::size_t node_of(std::size_t tx_index) { return tx_index + 1; }
inline std::size_t node_of_writer(const Writer& w) {
  return w.is_init() ? 0 : node_of(w.tx_index);
}

inline std::string tx_name(const History& h, std::size_t node) {
  if (node == 0) return "T_init";
  return to_string(h.at(node - 1).id);
}

/// Node 0 is the initializing transaction; node i+1 is transaction i.
inline Relation closed_order(const History& h) {
  Relation order(h.size() + 1);
  for (std::size_t i = 0; i < h.size(); ++i) order.add(0, node_of(i));
  for (auto client : h.clients()) {
    auto idx = h.client_order(client);
    for (std::size_t k = 1; k < idx.size(); ++k)
      order.add(node_of(idx[k - 1]), node_of(idx[k]));
  }
  for (std::size_t i = 0; i < h.size(); ++i)
    for (const auto& r : h.at(i).reads) {
      if (!r.responded) continue;
      auto w = h.writer_of(r.value);
      if (!w) continue;
      std::size_t wn = node_of_writer(*w);
      if (wn != node_of(i)) order.add(wn, node_of(i));
    }
  order.close();
  return order;
}

inline CheckResult reads_valid(const History& h) {
  CheckResult result;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const TxRecord& t = h.at(i);
    for (const auto& r : t.reads) {
      if (!r.responded) continue;
      if (!h.writer_of(r.value)) {
        result.flag("garbage-read",
                    cat(t.describe(), " returned ", to_string(r.value),
                        " for ", to_string(r.object),
                        " but no transaction wrote that value"));
        continue;
      }
      bool matches_object = false;
      auto init = h.initial_of(r.object);
      if (init && *init == r.value) matches_object = true;
      for (std::size_t j = 0; j < h.size() && !matches_object; ++j)
        for (const auto& w : h.at(j).writes)
          if (w.object == r.object && w.value == r.value)
            matches_object = true;
      if (!matches_object)
        result.flag("wrong-object-read",
                    cat(t.describe(), " returned ", to_string(r.value),
                        " for ", to_string(r.object),
                        " but that value was written to a different object"));
    }
  }
  return result;
}

inline CheckResult causal_consistency(const History& h) {
  CheckResult result = reads_valid(h);
  Relation order = closed_order(h);

  auto cycle = order.self_loops();
  if (!cycle.empty()) {
    std::ostringstream os;
    os << "causality cycle through {";
    bool first = true;
    for (auto n : cycle) {
      os << (first ? "" : ", ") << tx_name(h, n);
      first = false;
    }
    os << "}";
    result.flag("causal-cycle", os.str());
  }

  for (std::size_t i = 0; i < h.size(); ++i) {
    const TxRecord& t = h.at(i);
    std::size_t tn = node_of(i);
    for (const auto& r : t.reads) {
      if (!r.responded) continue;
      if (auto own = t.value_written(r.object)) {
        if (r.value != *own)
          result.flag("own-write-missed",
                      cat(t.describe(), " read ", to_string(r.value), " for ",
                          to_string(r.object),
                          " instead of its own written value ",
                          to_string(*own)));
        continue;
      }
      auto w = h.writer_of(r.value);
      if (!w) continue;
      std::size_t wn = node_of_writer(*w);
      if (order.has(tn, wn)) {
        result.flag("read-from-future",
                    cat(t.describe(), " reads ", to_string(r.value),
                        " whose writer ", tx_name(h, wn),
                        " causally follows the reader"));
        continue;
      }
      for (std::size_t j = 0; j < h.size(); ++j) {
        std::size_t jn = node_of(j);
        if (jn == wn || jn == tn) continue;
        if (!h.at(j).writes_object(r.object)) continue;
        if (order.has(wn, jn) && order.has(jn, tn))
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
  return result;
}

inline CheckResult read_atomicity(const History& h) {
  CheckResult result = reads_valid(h);
  Relation order = closed_order(h);
  for (std::size_t t2 = 0; t2 < h.size(); ++t2) {
    const TxRecord& reader = h.at(t2);
    for (const auto& ra : reader.reads) {
      if (!ra.responded) continue;
      auto wa = h.writer_of(ra.value);
      if (!wa || wa->is_init()) continue;
      std::size_t a = wa->tx_index;
      if (a == t2) continue;
      for (const auto& rz : reader.reads) {
        if (!rz.responded || rz.object == ra.object) continue;
        if (!h.at(a).writes_object(rz.object)) continue;
        auto wb = h.writer_of(rz.value);
        if (!wb) continue;
        if (!wb->is_init() && wb->tx_index == a) continue;
        if (wb->is_init() || order.has(node_of(wb->tx_index), node_of(a)))
          result.flag(
              "fractured-read",
              cat(reader.describe(), " reads ", to_string(ra.object),
                  " from ", to_string(h.at(a).id), " but reads ",
                  to_string(rz.object), "=", to_string(rz.value),
                  " which predates ", to_string(h.at(a).id),
                  "'s atomic write set"));
      }
    }
  }
  return result;
}

inline CheckResult snapshot_isolation(const History& h) {
  CheckResult result = read_atomicity(h);
  Relation order = closed_order(h);
  for (std::size_t t = 0; t < h.size(); ++t) {
    const TxRecord& reader = h.at(t);
    for (const auto& rx : reader.reads) {
      if (!rx.responded) continue;
      auto wx = h.writer_of(rx.value);
      if (!wx) continue;
      std::size_t wxn = node_of_writer(*wx);
      for (const auto& ry : reader.reads) {
        if (!ry.responded || ry.object == rx.object) continue;
        auto wy = h.writer_of(ry.value);
        if (!wy || wy->is_init()) continue;
        std::size_t wyn = node_of_writer(*wy);
        for (std::size_t j = 0; j < h.size(); ++j) {
          std::size_t jn = node_of(j);
          if (jn == wxn || jn == wyn || jn == node_of(t)) continue;
          if (!h.at(j).writes_object(rx.object)) continue;
          if (order.has(wxn, jn) && order.has(jn, wyn))
            result.flag(
                "skewed-snapshot",
                cat(reader.describe(), " reads ", to_string(rx.object),
                    " from a version older than, and ",
                    to_string(ry.object),
                    " from a version newer than, the write of ",
                    to_string(h.at(j).id), " — no snapshot contains both"));
        }
      }
    }
  }
  for (std::size_t a = 0; a < h.size(); ++a) {
    const TxRecord& ta = h.at(a);
    for (std::size_t b = a + 1; b < h.size(); ++b) {
      const TxRecord& tb = h.at(b);
      for (const auto& ra : ta.reads) {
        if (!ra.responded) continue;
        if (!ta.writes_object(ra.object) || !tb.writes_object(ra.object))
          continue;
        auto vb = tb.value_read(ra.object);
        if (vb && *vb == ra.value)
          result.flag("lost-update",
                      cat(ta.describe(), " and ", tb.describe(),
                          " both read ", to_string(ra.value),
                          " and both overwrite ", to_string(ra.object)));
      }
    }
  }
  return result;
}

inline CheckResult session_guarantees(const History& h) {
  CheckResult result = reads_valid(h);
  Relation order_rel = closed_order(h);
  for (auto client : h.clients()) {
    auto order = h.client_order(client);
    for (std::size_t a = 0; a < order.size(); ++a) {
      const TxRecord& wtx = h.at(order[a]);
      for (const auto& w : wtx.writes) {
        for (std::size_t b = a + 1; b < order.size(); ++b) {
          const TxRecord& rtx = h.at(order[b]);
          auto seen = rtx.value_read(w.object);
          if (!seen || *seen == w.value) continue;
          auto sw = h.writer_of(*seen);
          if (!sw) continue;
          std::size_t wn = node_of(order[a]);
          std::size_t sn = node_of_writer(*sw);
          if (sw->is_init() || order_rel.has(sn, wn))
            result.flag("read-your-writes",
                        cat(to_string(client), " wrote ", to_string(w.object),
                            "=", to_string(w.value), " in ",
                            to_string(wtx.id), " but later read stale ",
                            to_string(*seen), " in ", to_string(rtx.id)));
        }
      }
    }
    for (std::size_t a = 0; a < order.size(); ++a) {
      const TxRecord& t1 = h.at(order[a]);
      for (const auto& r1 : t1.reads) {
        if (!r1.responded) continue;
        auto w1 = h.writer_of(r1.value);
        if (!w1) continue;
        for (std::size_t b = a + 1; b < order.size(); ++b) {
          const TxRecord& t2 = h.at(order[b]);
          auto v2 = t2.value_read(r1.object);
          if (!v2 || *v2 == r1.value) continue;
          auto w2 = h.writer_of(*v2);
          if (!w2) continue;
          if (order_rel.has(node_of_writer(*w2), node_of_writer(*w1)))
            result.flag("monotonic-reads",
                        cat(to_string(client), " read ", to_string(r1.object),
                            "=", to_string(r1.value), " in ",
                            to_string(t1.id), " then regressed to ",
                            to_string(*v2), " in ", to_string(t2.id)));
        }
      }
    }
  }
  return result;
}

}  // namespace discs::cons::reference
