// Network buffers.
//
// Section 2: each link has an outcome buffer at the source and an income
// buffer at the destination.  A delivery event moves a message from the
// source's outcome buffer to the destination's income buffer; a computation
// step drains the destination's income buffers.  Links do not lose, modify,
// inject or duplicate messages *on their own*; delivery *order* is chosen by
// the adversary (the system is asynchronous), so the outcome buffer is a set
// from which any element may be delivered next.  The programmable adversary
// of src/fault extends the alphabet with explicit drop / duplicate /
// retransmit events, which the Simulation records in the trace; the Network
// only provides the buffer mechanics for them.
//
// The in-flight set is a send-ordered list indexed by MsgId, so deliver /
// find / remove are O(1) even when a fault plan delays thousands of
// messages into a long backlog (they used to be linear scans, which made
// large backlogs quadratic).
//
// Income buffers are a dense array indexed by process id (process ids are
// consecutive small integers), so the per-event drain / has-income /
// delivery-append operations are a bounds check and an array index — no
// hashing anywhere on the delivery path.  Buckets persist across drains
// (vectors are cleared, never destroyed), so steady-state traffic reuses
// their capacity.  Purely an access-path change: per-message delivery
// events, income order and digests are byte-identical.
#pragma once

#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/message.h"
#include "util/pool.h"

namespace discs::sim {

/// Outcome buffer: a send-ordered list with pool-backed nodes (one list
/// node plus one index node used to be two mallocs per message sent and
/// two frees per delivery — the dominant allocator traffic of a run).
using FlightList = std::list<Message, util::PoolAllocator<Message>>;
using FlightIndex = std::unordered_map<
    std::uint64_t, FlightList::iterator, std::hash<std::uint64_t>,
    std::equal_to<std::uint64_t>,
    util::PoolAllocator<std::pair<const std::uint64_t, FlightList::iterator>>>;
/// Income buffers, indexed by destination process id.
using IncomeTable = std::vector<MessageVec>;

class Network {
 public:
  Network() = default;
  Network(const Network& other);
  Network& operator=(const Network& other);
  Network(Network&&) noexcept = default;
  Network& operator=(Network&&) noexcept = default;

  /// Places a freshly sent message into the source's outcome buffer.
  void post(Message m);

  /// Delivery event: moves message `id` into its destination's income
  /// buffer.  Returns false if no such message is in flight.
  bool deliver(MsgId id);

  /// Single-lookup guarded delivery: finds `id`, asks `allow(dst)` and, if
  /// permitted, moves the message into its destination's income buffer.
  /// Returns a pointer to the message in the income buffer (valid until the
  /// buffer next mutates) — the Simulation records the trace from it without
  /// an intermediate copy.  Null if not in flight; `vetoed` is set when the
  /// message existed but `allow` said no (crashed destination).
  template <class F>
  const Message* deliver_if(MsgId id, F&& allow, bool& vetoed) {
    vetoed = false;
    auto idx = index_.find(id.value());
    if (idx == index_.end()) return nullptr;
    auto it = idx->second;
    if (!allow(it->dst)) {
      vetoed = true;
      return nullptr;
    }
    MessageVec& buf = income_bucket(it->dst.value());
    buf.push_back(std::move(*it));
    in_flight_.erase(it);
    index_.erase(idx);
    return &buf.back();
  }

  /// Removes message `id` from flight without delivering it (a drop event
  /// chosen by the fault adversary).  Returns the removed message.
  std::optional<Message> remove_in_flight(MsgId id);

  /// Appends a copy of in-flight message `id` to its destination's income
  /// buffer, leaving the original in flight (a duplication fault: the
  /// receiver will see the message twice).  Returns false if not in flight.
  bool duplicate(MsgId id);

  /// Drains and returns the income buffer of `p` (in delivery order).
  MessageVec drain_income(ProcessId p);

  /// Discards the income buffer of `p` (a crash loses undrained messages).
  /// Returns how many messages were lost.
  std::size_t clear_income(ProcessId p);

  /// --- queries (all const) ---

  /// Messages sent but not yet delivered, in send order.  post() appends
  /// (a retransmission too), every removal erases in place and a copy keeps
  /// the order, so between two reads the list is the survivors of the
  /// first read, in their order, followed by the messages posted since.
  /// fault::FaultSession's fate walk relies on this.
  const FlightList& in_flight() const { return in_flight_; }

  /// Messages in flight from `src` to `dst`.
  std::vector<Message> in_flight_between(ProcessId src, ProcessId dst) const;

  /// The undelivered message with the given id, if any.
  std::optional<Message> find_in_flight(MsgId id) const;

  /// Income buffer of `p` (delivered, not yet consumed).
  std::vector<Message> income_of(ProcessId p) const;

  /// True iff `p` has undrained income — the allocation-free form of
  /// `!income_of(p).empty()` the schedulers poll every round.
  bool has_income(ProcessId p) const;

  /// True iff no message is in flight and all income buffers are empty —
  /// the "no message is in transit" part of a quiescent configuration.
  bool idle() const;

  std::size_t in_flight_count() const { return in_flight_.size(); }
  std::size_t income_count() const;

  /// Digest of buffer contents, part of the configuration digest.
  std::string digest() const;

 private:
  void reindex();

  /// The income bucket for destination `key`; grows the table on first
  /// traffic to a new destination.  Buckets are never erased (cleared at
  /// most), so capacity survives across drains.
  MessageVec& income_bucket(std::uint64_t key) {
    if (key >= income_.size()) income_.resize(key + 1);
    return income_[key];
  }

  FlightList in_flight_;  // send order
  /// MsgId -> list node, for O(1) deliver/find/remove.
  FlightIndex index_;
  /// Income buffers by process id; buckets persist empty after a drain so
  /// repeat traffic to the same destination reuses their capacity.
  IncomeTable income_;
};

}  // namespace discs::sim
