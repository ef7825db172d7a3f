// Consistency checkers over transaction histories.
//
// check_causal_consistency implements Definition 1 of the paper specialized
// to distinct written values (the paper's own simplification in Section 2):
// with distinct values the reads-from relation is a function, the causal
// relation <c is the transitive closure of program order ∪ reads-from, and
// causal consistency holds iff (a) <c is acyclic and (b) no read r(X)v by T
// admits a transaction T' that writes X with writer(v) <c T' <c T — which is
// precisely the argument used in the proof of Lemma 1.
//
// How <c is represented (CausalGraph).  Program order makes the part of a
// node's causal past that belongs to one client a prefix of that client's
// transactions: if a client's k-th transaction reaches b, every earlier one
// does too.  So the graph keeps, per node b and client c, past(b, c) = the
// number of c's transactions that reach b by a path of length >= 1, and
// decides a <c b as pos(a) < past(b, client(a)).  That is exact, cycles
// included.  One pass over the strongly connected components of program
// order ∪ reads-from (an iterative Tarjan, which emits them in topological
// order) fills every row: a row is the element-wise max over the node's
// predecessors of their rows and their own positions, and a member of a
// cycle also counts its own component.  For n transactions over k clients
// with e reads-from edges this takes O((n + e) · k) time and
// 4 · k · (n + 1) bytes for the rows.
//
// Intervening writes.  For a read by T from W, only the latest writer of
// the object among each client's transactions in T's past can matter: if W
// reaches an earlier one, it reaches that latest one by program order.
// CausalGraph::may_intervene finds it by binary search over per-(client,
// object) writer positions, so a consistent history costs
// O(reads · k · log n).  Only a read it cannot clear takes the exhaustive
// scan over every transaction, which produces the flags and their order;
// on a cyclic graph every read takes it.  The skewed-snapshot test of
// check_snapshot_isolation uses the same filter.
//
// Every checker resolves a value's writer through one WriterIndex per check
// (binary search) instead of History::writer_of's scan of the history.
//
// The remaining checkers cover the consistency levels of Table 1 so the
// bench can verify each implemented protocol's claimed level.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "history/history.h"

namespace discs::cons {

using discs::hist::History;
using discs::hist::TxRecord;
using discs::hist::Writer;

enum class Verdict { kOk, kViolation, kUnknown };

struct Violation {
  std::string kind;    ///< e.g. "causal-cycle", "intervening-write"
  std::string detail;  ///< human-readable explanation with tx/value ids
};

struct CheckResult {
  Verdict verdict = Verdict::kOk;
  std::vector<Violation> violations;

  bool ok() const { return verdict == Verdict::kOk; }
  std::string summary() const;

  void flag(std::string kind, std::string detail);
};

/// Who wrote each value, built once per check with History::writer_of's
/// rules: a declared initial value first, then the lowest-index transaction
/// writing the value.  Lookups are binary searches over sorted arrays.
class WriterIndex {
 public:
  explicit WriterIndex(const History& h);

  /// The same answer as History::writer_of(value).
  std::optional<Writer> writer_of(ValueId value) const;

  /// True iff `value` is obj's declared initial value or a value some
  /// transaction writes to obj, its second write to obj as much as its
  /// first.  The own-write rule is not this one: a transaction that writes
  /// and reads obj must read its first write to obj
  /// (TxRecord::value_written).
  bool written_to(ObjectId obj, ValueId value) const;

 private:
  /// (value, 0 for initial or tx index + 1), one entry per value, sorted.
  std::vector<std::pair<ValueId, std::size_t>> writer_;
  /// (object, value) pairs that written_to accepts, sorted.
  std::vector<std::pair<ObjectId, ValueId>> written_;
};

/// The causal graph of a history: node 0 is the virtual initializing
/// transaction; node i+1 is history transaction i.  `before` is the closed
/// causality order <c (the file comment describes its representation).
struct CausalGraph {
  explicit CausalGraph(const History& h);
  CausalGraph(History&&) = delete;  // `history` must outlive the graph

  const History& history;
  WriterIndex writers;

  static constexpr std::size_t kInitNode = 0;
  static std::size_t node_of(std::size_t tx_index) { return tx_index + 1; }
  std::size_t node_of_writer(const Writer& w) const {
    return w.is_init() ? kInitNode : node_of(w.tx_index);
  }

  /// a <c b: a reaches b by a path of length >= 1.  The initializing node
  /// precedes every other node and follows none.
  bool before(std::size_t node_a, std::size_t node_b) const {
    if (node_a == kInitNode) return node_b != kInitNode;
    if (node_b == kInitNode) return false;
    return pos_[node_a] < past_[node_b * clients_ + client_[node_a]];
  }

  bool acyclic() const { return cycle_.empty(); }
  /// Every node that lies on some cycle (a <c a), ascending.
  const std::vector<std::size_t>& cycle_members() const { return cycle_; }

  /// False only if no transaction node j != a writing `obj` satisfies
  /// a <c j <c b.  Exact on an acyclic graph; always true on a cyclic one.
  bool may_intervene(std::size_t node_a, std::size_t node_b,
                     ObjectId obj) const;

 private:
  /// The transactions of one client that write one object: their
  /// positions in client_order (ascending) and their nodes, stored at
  /// [begin, end) of writer_pos_ and writer_node_.
  struct WriterGroup {
    ObjectId object;
    std::uint32_t client, begin, end;
  };

  std::size_t clients_ = 0;
  std::vector<std::uint32_t> client_;  ///< per node: client index
  std::vector<std::uint32_t> pos_;     ///< per node: position in client_order
  std::vector<std::uint32_t> past_;    ///< past(b, c) at b * clients_ + c
  std::vector<std::size_t> cycle_;
  std::vector<WriterGroup> groups_;    ///< by (object, client)
  std::vector<std::uint32_t> writer_pos_, writer_node_;
};

/// Sanity: every responded read returns a value that was actually written
/// (or is the declared initial value) for that same object.
CheckResult check_reads_valid(const History& h);
/// As above, with an index already built for `h`.
CheckResult check_reads_valid(const History& h, const WriterIndex& writers);

/// Causal consistency (Definition 1, distinct values).
CheckResult check_causal_consistency(const History& h);

/// Read atomicity (RAMP): no fractured reads.  Flags a read of object Z
/// from writer B by a transaction that also reads some object from writer A
/// when A wrote Z and B is causally before A (or initial) — i.e., the
/// transaction demonstrably missed part of A's atomic write set.
CheckResult check_read_atomicity(const History& h);
/// As above, on a graph already built (snapshot isolation shares one).
CheckResult check_read_atomicity(const CausalGraph& g);

/// Serializability: exhaustive backtracking search for a legal total order.
/// `budget` bounds search nodes; exhaustion yields Verdict::kUnknown.
CheckResult check_serializability(const History& h,
                                  std::size_t budget = 1 << 20);

/// Strict serializability: as above plus real-time order (a transaction
/// completing before another is invoked must precede it).
CheckResult check_strict_serializability(const History& h,
                                         std::size_t budget = 1 << 20);

/// Session guarantees: read-your-writes and monotonic reads per client.
CheckResult check_session_guarantees(const History& h);

/// Snapshot isolation, approximated for distinct-value histories by its
/// characteristic anomalies (documented in snapshot.cpp):
///  - fractured reads (a transaction must read from a snapshot that is
///    all-or-nothing w.r.t. every other transaction's write set),
///  - skewed snapshots (two reads whose dictating writes are separated by
///    another write to the first object along the causality order),
///  - lost updates (two transactions that both read the same version of an
///    object and both overwrite it).
/// Sound for these anomaly classes; it does not search for start/commit
/// point assignments, so exotic violations outside these classes may pass.
CheckResult check_snapshot_isolation(const History& h);

/// Names for reporting.
std::string verdict_str(Verdict v);

}  // namespace discs::cons
