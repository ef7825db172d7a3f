// The process state-machine interface.
//
// Section 2: "Each process is modelled as a state machine... a computation
// step taken by a process, in which the process reads all messages residing
// in its income buffers, performs some local computation and may send (at
// most) one message to each of its neighboring processes."
//
// Processes must be deep-copyable (clone) so that a whole configuration can
// be snapshotted, branched and rolled back — the mechanism behind executing
// the proof's constructions.  They must also expose a state digest so that
// indistinguishability of configurations ("p is in the same state in both")
// can be checked mechanically.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/message.h"
#include "util/check.h"

namespace discs::sim {

/// Passed to Process::on_step; collects outgoing messages and enforces the
/// at-most-one-message-per-neighbor rule of the model.
class StepContext {
 public:
  StepContext(ProcessId self, std::uint64_t now) : self_(self), now_(now) {}

  /// Adopts a scratch buffer whose capacity survives across steps; the
  /// Simulation recycles one buffer for every step it executes instead of
  /// growing a fresh vector each time.  take_outgoing() hands it back.
  StepContext(ProcessId self, std::uint64_t now,
              std::vector<std::pair<ProcessId, std::shared_ptr<const Payload>>>
                  scratch)
      : self_(self), now_(now), outgoing_(std::move(scratch)) {
    outgoing_.clear();
  }

  std::vector<std::pair<ProcessId, std::shared_ptr<const Payload>>>
  take_outgoing() {
    return std::move(outgoing_);
  }

  ProcessId self() const { return self_; }

  /// Virtual time: the number of events executed so far in this execution.
  /// Purely asynchronous protocols must not depend on it; the simulated
  /// TrueTime clock (src/clock) derives bounded-uncertainty readings from it.
  std::uint64_t now() const { return now_; }

  /// Queues a message to `dst`.  At most one send per destination per step
  /// (enforced when the simulation posts the messages).
  void send(ProcessId dst, std::shared_ptr<const Payload> payload) {
    DISCS_CHECK(payload != nullptr);
    outgoing_.emplace_back(dst, std::move(payload));
  }

  /// Builds the payload on the thread-local pool (sim::make_payload).  No
  /// protocol calls it: their handlers build payloads with std::make_shared
  /// and send() them, so protocol payloads live on the global heap.
  template <class P, class... Args>
  void send_make(ProcessId dst, Args&&... args) {
    send(dst, make_payload<P>(std::forward<Args>(args)...));
  }

  /// Outgoing (dst, payload) pairs accumulated this step.
  const std::vector<std::pair<ProcessId, std::shared_ptr<const Payload>>>&
  outgoing() const {
    return outgoing_;
  }

  /// Mutable access for the exactly-once session layer, which rewrites
  /// queued sends to wrap them in identity envelopes after the protocol
  /// handler ran (proto/common/exactly_once.h).  Protocol code must not
  /// use this: sends go through send()/send_make.
  std::vector<std::pair<ProcessId, std::shared_ptr<const Payload>>>&
  outgoing_mut() {
    return outgoing_;
  }

 private:
  ProcessId self_;
  std::uint64_t now_;
  std::vector<std::pair<ProcessId, std::shared_ptr<const Payload>>> outgoing_;
};

/// Abstract process (client or server).
class Process {
 public:
  explicit Process(ProcessId id) : id_(id) {}
  virtual ~Process() = default;

  Process(const Process&) = default;
  Process& operator=(const Process&) = delete;

  /// Deep copy preserving all local state.
  virtual std::unique_ptr<Process> clone() const = 0;

  /// One computation step: `inbox` contains every message drained from the
  /// income buffers (possibly none).  Outgoing messages go through `ctx`.
  virtual void on_step(StepContext& ctx, const MessageVec& inbox) = 0;

  /// Deterministic digest of the local state, used to check configuration
  /// indistinguishability.  Two processes with equal digests must behave
  /// identically on identical future inputs.
  virtual std::string state_digest() const = 0;

  /// Crash hooks (src/fault).  on_crash is invoked only for a *lossy*
  /// crash and must discard volatile state; a recovering crash keeps the
  /// process state untouched (it models durable storage surviving the
  /// crash, e.g. the server's versioned store).  on_restart runs when the
  /// process is brought back and may re-initialize in-flight bookkeeping.
  /// Both default to no-ops so existing processes are unaffected.
  virtual void on_crash() {}
  virtual void on_restart() {}

  ProcessId id() const { return id_; }

 private:
  ProcessId id_;
};

/// Applies the model's at-most-one-message-per-neighbor rule to one step's
/// outgoing (dst, payload) list: distinct destinations keep first-send
/// order, several payloads to one destination are batched into a single
/// BatchPayload message, and ids are minted from `send_seq` in that order.
/// `sink` receives each built Message by value.  Shared by Simulation::step
/// and the rt backend's step path, so both execution backends mint
/// byte-identical message streams from identical handler output — the
/// replay-equivalence contract of docs/RUNTIME.md.  The quadratic scans are
/// over the per-step send list, which is bounded by the cluster size.
template <class Sink>
void batch_outgoing(
    ProcessId self, std::size_t process_count,
    const std::vector<std::pair<ProcessId, std::shared_ptr<const Payload>>>&
        outgoing,
    std::vector<ProcessId>& dst_scratch, std::uint64_t& send_seq,
    Sink&& sink) {
  dst_scratch.clear();
  for (const auto& [dst, payload] : outgoing) {
    DISCS_CHECK_MSG(dst.valid() && dst.value() < process_count,
                    "send to unknown process");
    DISCS_CHECK_MSG(dst != self, "self-send not allowed");
    bool seen = false;
    for (ProcessId q : dst_scratch)
      if (q == dst) {
        seen = true;
        break;
      }
    if (!seen) dst_scratch.push_back(dst);
  }
  for (ProcessId dst : dst_scratch) {
    const std::shared_ptr<const Payload>* only = nullptr;
    std::size_t count = 0;
    for (const auto& [d, payload] : outgoing)
      if (d == dst) {
        only = &payload;
        ++count;
      }
    Message m;
    m.id = make_msg_id(self, send_seq++);
    m.src = self;
    m.dst = dst;
    if (count == 1) {
      m.payload = *only;
    } else {
      std::vector<std::shared_ptr<const Payload>> parts;
      parts.reserve(count);
      for (const auto& [d, payload] : outgoing)
        if (d == dst) parts.push_back(payload);
      m.payload = make_payload<BatchPayload>(std::move(parts));
    }
    sink(std::move(m));
  }
}

/// Helper for building state digests field by field.
class DigestBuilder {
 public:
  template <class T>
  DigestBuilder& field(const std::string& name, const T& value) {
    os_ << name << "=" << value << ";";
    return *this;
  }
  DigestBuilder& raw(const std::string& s) {
    os_ << s << ";";
    return *this;
  }
  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

}  // namespace discs::sim
