// Messages exchanged between processes.
//
// Section 2 of the paper models communication as messages moving between
// per-link income/outcome buffers.  A message's payload is protocol-defined;
// the base class exposes just enough introspection for the fast-ROT property
// monitors: which *written values* a message carries (footnote 3: metadata
// such as timestamps is allowed and is therefore not reported here) and an
// approximate serialized size for the metadata-blowup experiment.
#pragma once

#include <concepts>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/ids.h"
#include "util/pool.h"

namespace discs::sim {

using discs::MsgId;
using discs::ObjectId;
using discs::ProcessId;
using discs::TxId;
using discs::ValueId;

/// Base class for protocol message payloads.  Payloads are immutable once
/// sent; Message holds them via shared_ptr<const Payload> so snapshots of a
/// simulation share payload storage safely.
class Payload {
 public:
  virtual ~Payload() = default;

  /// Human-readable one-line description, used in execution diagrams.
  virtual std::string describe() const = 0;

  /// Stable machine-readable payload kind (e.g. "RotRequest"), used by the
  /// trace exporter's `kind` field, the trace_explorer filters and the
  /// per-kind counters in obs::Registry.  Must return a string-literal-
  /// backed view; docs/TRACING.md documents the vocabulary.
  virtual std::string_view kind() const { return "Payload"; }

  /// The written values (by any write transaction) that this message makes
  /// known to its receiver.  The one-value monitor inspects this on
  /// server-to-client messages (Definition 4, property 2).
  virtual std::vector<ValueId> values_carried() const { return {}; }

  /// Approximate on-the-wire size in bytes, for the N+O+W metadata-cost
  /// experiment (Section 3.4: the fat-metadata COPS variant "requires to
  /// store and communicate a prohibitively big amount of data").
  virtual std::size_t byte_size() const { return 16; }

  /// True when processing this payload twice is indistinguishable from
  /// processing it once (e.g. monotone-max gossip).  The exactly-once
  /// session layer (src/proto/common/exactly_once.h) skips wrapping
  /// idempotent payloads in identity envelopes.
  virtual bool idempotent() const { return false; }

  /// The transaction this payload concerns, if any.  The exactly-once
  /// session layer pairs a reply with the pending request it answers by
  /// matching (destination, tx_hint); payloads without a transaction return
  /// invalid and are never memoized as replies.
  virtual TxId tx_hint() const { return TxId::invalid(); }
};

/// Downcast by kind tag instead of RTTI.  Concrete payload classes expose
/// `static constexpr std::string_view kKind` equal to what their kind()
/// override returns; since the payload hierarchy is flat (no payload class
/// derives from another concrete payload) a kind match identifies the
/// dynamic type exactly, and the cast costs one virtual call plus a
/// string_view compare — an order of magnitude cheaper than dynamic_cast
/// on the per-part dispatch path.  Types without kKind fall back to
/// dynamic_cast, so test-local payload classes keep working unchanged.
template <class T>
const T* payload_as(const Payload* p) {
  if constexpr (requires {
                  { T::kKind } -> std::convertible_to<std::string_view>;
                }) {
    if (p != nullptr && p->kind() == T::kKind) return static_cast<const T*>(p);
    return nullptr;
  } else {
    return dynamic_cast<const T*>(p);
  }
}

/// Builds an immutable payload on the thread-local pool (util/pool.h):
/// object and shared_ptr control block land in one pooled allocation via
/// allocate_shared.  The simulator's BatchPayload wrapping and the
/// exactly-once layer's SessionEnvelope go through it.  Protocol handlers
/// do not: they build their payloads with std::make_shared, on the global
/// heap, and send() them.
template <class T, class... Args>
std::shared_ptr<const T> make_payload(Args&&... args) {
  return std::allocate_shared<T>(util::PoolAllocator<T>(),
                                 std::forward<Args>(args)...);
}

/// A message in transit or in an income buffer.  Copyable: the payload is
/// immutable and shared.
struct Message {
  MsgId id;
  ProcessId src;
  ProcessId dst;
  std::shared_ptr<const Payload> payload;

  std::string describe() const;

  /// Typed payload access; kind-tag dispatch with a dynamic_cast fallback
  /// (see payload_as).
  template <class T>
  const T* as() const {
    return payload_as<T>(payload.get());
  }
};

/// The message buffer type of the hot path: income buffers, step inboxes
/// and trace records all churn one of these per event, so their backing
/// arrays come from the thread-local pool instead of malloc.  Iteration,
/// indexing and value semantics are exactly std::vector's.
using MessageVec = std::vector<Message, util::PoolAllocator<Message>>;

/// Aggregates several protocol payloads into the single message a process
/// may send to one neighbor per computation step.  The model bounds the
/// NUMBER of messages per step, not their size; when a protocol step
/// produces several payloads for the same destination, the simulation
/// batches them automatically and the receiving framework unbatches.
class BatchPayload : public Payload {
 public:
  static constexpr std::string_view kKind = "Batch";

  explicit BatchPayload(std::vector<std::shared_ptr<const Payload>> parts)
      : parts_(std::move(parts)) {}

  const std::vector<std::shared_ptr<const Payload>>& parts() const {
    return parts_;
  }

  std::string describe() const override;
  std::string_view kind() const override { return kKind; }
  std::vector<ValueId> values_carried() const override;
  std::size_t byte_size() const override;

 private:
  std::vector<std::shared_ptr<const Payload>> parts_;
};

/// The individual payloads of a message: the batch parts, or the payload
/// itself for unbatched messages.
std::vector<std::shared_ptr<const Payload>> payload_parts(const Message& m);

/// Visits each part of `m` without materializing a vector — the per-message
/// dispatch path of ClientBase/ServerBase, where payload_parts' return
/// vector used to be one allocation per message.  `f` receives
/// const std::shared_ptr<const Payload>&.
template <class F>
void for_each_part(const Message& m, F&& f) {
  if (const auto* batch = m.as<BatchPayload>()) {
    for (const auto& p : batch->parts()) f(p);
  } else {
    f(m.payload);
  }
}

/// Encodes a message id as (sender, per-sender sequence number).  Minting
/// ids this way makes them *stable under execution splicing*: a process that
/// takes the same local steps with the same inputs sends messages with the
/// same ids regardless of how other processes are interleaved — exactly the
/// property the proof's indistinguishability arguments rely on.
MsgId make_msg_id(ProcessId sender, std::uint64_t sender_seq);
ProcessId msg_sender(MsgId id);
std::uint64_t msg_seq(MsgId id);

}  // namespace discs::sim
