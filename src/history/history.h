// Transaction histories (paper Section 2).
//
// A history H(alpha) is the subsequence of an execution containing only the
// invocations and responses of object operations.  DISCS records, per
// transaction: its client, read set with returned values, write set with
// written values, and invocation/completion sequence numbers (global event
// counters) from which real-time precedence is derived.
//
// The paper's simplifying assumption that all written values are distinct is
// enforced structurally: every write mints a fresh ValueId, so the reads-from
// relation is a function from reads to writers.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/cow.h"
#include "util/ids.h"

namespace discs::hist {

using discs::ObjectId;
using discs::ProcessId;
using discs::TxId;
using discs::ValueId;

/// One read operation: r(X)v.  `responded` is false while the value is the
/// placeholder * of the paper's r(X)*.
struct ReadOp {
  ObjectId object;
  ValueId value = ValueId::invalid();
  bool responded = false;
};

/// One write operation: w(X)v.
struct WriteOp {
  ObjectId object;
  ValueId value;
  bool acked = false;
};

/// The record of one (static) transaction T = (R_T, W_T).
struct TxRecord {
  TxId id;
  ProcessId client;
  std::vector<ReadOp> reads;
  std::vector<WriteOp> writes;
  bool invoked = false;
  bool completed = false;
  std::uint64_t invoke_seq = 0;    ///< virtual time of invocation
  std::uint64_t complete_seq = 0;  ///< virtual time of completion

  bool read_only() const { return writes.empty(); }
  bool write_only() const { return reads.empty(); }

  std::optional<ValueId> value_read(ObjectId obj) const;
  bool writes_object(ObjectId obj) const;
  std::optional<ValueId> value_written(ObjectId obj) const;

  std::string describe() const;
};

/// Identifies the writer of a value: either a transaction index into the
/// history, or the virtual initializing transaction (kInit).
struct Writer {
  static constexpr std::size_t kInit = static_cast<std::size_t>(-1);
  std::size_t tx_index = kInit;
  bool is_init() const { return tx_index == kInit; }

  friend bool operator==(const Writer&, const Writer&) = default;
};

class History {
 public:
  /// Declares the initial value of an object (the paper's x_in_i, written by
  /// the initializing transactions T_in_i before every considered execution).
  void set_initial(ObjectId obj, ValueId value);
  const std::map<ObjectId, ValueId>& initial_values() const {
    return initial_;
  }
  std::optional<ValueId> initial_of(ObjectId obj) const;

  void add(TxRecord tx);
  std::span<const TxRecord> txs() const { return txs_.view(); }
  std::size_t size() const { return txs_.size(); }
  const TxRecord& at(std::size_t i) const { return txs_[i]; }

  /// complete(H): the sub-history of completed transactions only.
  History complete() const;

  /// H|c: indices of transactions issued by client c, in invocation order;
  /// transactions invoked at the same time keep their history order.
  std::vector<std::size_t> client_order(ProcessId client) const;
  std::vector<ProcessId> clients() const;

  /// The (unique, by distinct values) writer of `value`.  Initial values map
  /// to Writer::kInit.  Returns nullopt for values never written nor
  /// declared initial — reading such a value is itself a violation.
  std::optional<Writer> writer_of(ValueId value) const;

  /// Objects appearing anywhere in the history.
  std::vector<ObjectId> objects() const;

  std::string describe() const;

 private:
  std::map<ObjectId, ValueId> initial_;
  // Per-client histories grow with the workload and are carried inside
  // client processes, so snapshots share the prefix copy-on-write.
  util::CowVec<TxRecord> txs_;
};

/// Merges several per-client histories into one, ordering transactions by
/// invocation sequence number.  Initial-value declarations must agree.
History merge_histories(const std::vector<History>& parts);

}  // namespace discs::hist
