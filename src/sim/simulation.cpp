#include "sim/simulation.h"

#include <sstream>

#include "obs/registry.h"
#include "util/fmt.h"

namespace discs::sim {

namespace {

// Counter references are cached per thread: Registry nodes are stable, so
// the hot path pays one map lookup per thread lifetime, not per event.
std::uint64_t& counter_steps() {
  static thread_local std::uint64_t& c =
      obs::Registry::global().counter("sim.steps");
  return c;
}
std::uint64_t& counter_deliveries() {
  static thread_local std::uint64_t& c =
      obs::Registry::global().counter("sim.deliveries");
  return c;
}
std::uint64_t& counter_sent() {
  static thread_local std::uint64_t& c =
      obs::Registry::global().counter("sim.messages_sent");
  return c;
}

void count_sent_kind(const Payload& payload) {
  static thread_local obs::CounterFamily family("sim.sent.");
  family.at(payload.kind()) += 1;
}

}  // namespace

// A snapshot copies shared_ptrs, not process state: O(processes), not
// O(history).  Processes (and their digest memos) stay shared until a
// branch takes a mutating access — see mutable_process.
Simulation::Simulation(const Simulation& other)
    : procs_(other.procs_),
      send_seq_(other.send_seq_),
      crashed_(other.crashed_),
      dropped_(other.dropped_),
      net_(other.net_),
      trace_(other.trace_),
      now_(other.now_),
      digest_memo_(other.digest_memo_) {
  obs::Registry::global().inc("sim.snapshots");
}

Simulation& Simulation::operator=(const Simulation& other) {
  if (this == &other) return *this;
  Simulation copy(other);
  *this = std::move(copy);
  return *this;
}

ProcessId Simulation::add_process(std::unique_ptr<Process> p) {
  DISCS_CHECK(p != nullptr);
  DISCS_CHECK_MSG(p->id() == next_process_id(),
                  "process id must equal next_process_id()");
  ProcessId id = p->id();
  procs_.push_back(std::shared_ptr<Process>(std::move(p)));
  send_seq_.push_back(0);
  crashed_.push_back(0);
  digest_memo_.push_back(nullptr);
  return id;
}

Process& Simulation::mutable_process(ProcessId p) {
  DISCS_CHECK_MSG(p.valid() && p.value() < procs_.size(), "unknown process");
  auto& slot = procs_[p.value()];
  if (slot.use_count() > 1) {
    // Shared with a sibling snapshot: this branch diverges here, so it
    // clones the process it is about to touch.  Siblings keep the original.
    slot = std::shared_ptr<Process>(slot->clone());
    obs::Registry::global().inc("sim.snapshot.procs_copied");
  }
  digest_memo_[p.value()].reset();
  return *slot;
}

const Process& Simulation::process(ProcessId p) const {
  DISCS_CHECK_MSG(p.valid() && p.value() < procs_.size(), "unknown process");
  return *procs_[p.value()];
}

bool Simulation::step(ProcessId p) {
  DISCS_CHECK_MSG(p.valid() && p.value() < procs_.size(), "unknown process");
  if (crashed_[p.value()]) return false;
  Process& proc = mutable_process(p);
  MessageVec inbox = net_.drain_income(p);

  // The outgoing buffer is recycled across steps (capacity survives); the
  // drained inbox moves on into the trace record below, so neither side of
  // the step pays a fresh allocation in steady state.
  StepContext ctx(p, now_, std::move(outgoing_scratch_));
  proc.on_step(ctx, inbox);

  const bool retained = trace_.retained();
  EventRecord rec;
  if (retained) {
    rec.event = Event::step(p);
    rec.consumed = std::move(inbox);
  }

  // The model allows at most one message per neighbor per computation
  // step; several payloads to one destination are batched into a single
  // message (message size is unbounded in the model).  The grouping and
  // id-minting rules live in batch_outgoing (sim/process.h), shared with
  // the rt backend so both backends send byte-identical message streams.
  batch_outgoing(p, procs_.size(), ctx.outgoing(), dst_scratch_,
                 send_seq_[p.value()], [&](Message m) {
                   counter_sent() += 1;
                   count_sent_kind(*m.payload);
                   if (retained) rec.sent.push_back(m);
                   net_.post(std::move(m));
                 });
  outgoing_scratch_ = ctx.take_outgoing();

  counter_steps() += 1;
  if (retained) {
    trace_.record(std::move(rec));
  } else {
    trace_.record_unretained();
  }
  ++now_;
  return true;
}

bool Simulation::deliver(MsgId id) {
  // One lookup: find, check the crash guard, move into the income buffer.
  bool vetoed = false;
  const Message* delivered = net_.deliver_if(
      id, [this](ProcessId dst) { return !crashed_[dst.value()]; }, vetoed);
  if (delivered == nullptr) return false;

  counter_deliveries() += 1;
  if (trace_.retained()) {
    EventRecord rec;
    rec.event = Event::deliver(id);
    rec.delivered = *delivered;
    trace_.record(std::move(rec));
  } else {
    trace_.record_unretained();
  }
  ++now_;
  return true;
}

bool Simulation::drop(MsgId id) {
  auto removed = net_.remove_in_flight(id);
  if (!removed) return false;

  EventRecord rec;
  rec.event = Event::drop(id);
  rec.delivered = *removed;
  dropped_.emplace(id.value(), std::move(*removed));
  obs::Registry::global().inc("sim.drops");
  trace_.record(std::move(rec));
  ++now_;
  return true;
}

bool Simulation::duplicate(MsgId id) {
  auto found = net_.find_in_flight(id);
  if (!found) return false;
  if (crashed_[found->dst.value()]) return false;
  bool ok = net_.duplicate(id);
  DISCS_CHECK(ok);

  EventRecord rec;
  rec.event = Event::duplicate(id);
  rec.delivered = *found;
  obs::Registry::global().inc("sim.duplicates");
  trace_.record(std::move(rec));
  ++now_;
  return true;
}

bool Simulation::retransmit(MsgId id) {
  auto it = dropped_.find(id.value());
  if (it == dropped_.end()) return false;
  Message m = std::move(it->second);
  dropped_.erase(it);

  EventRecord rec;
  rec.event = Event::retransmit(id);
  rec.delivered = m;
  net_.post(std::move(m));
  obs::Registry::global().inc("sim.retransmits");
  trace_.record(std::move(rec));
  ++now_;
  return true;
}

bool Simulation::crash(ProcessId p, bool lossy) {
  DISCS_CHECK_MSG(p.valid() && p.value() < procs_.size(), "unknown process");
  if (crashed_[p.value()]) return false;
  crashed_[p.value()] = 1;
  // Undrained income is volatile in both modes; only a lossy crash also
  // wipes process state (recovery mode models durable storage surviving).
  net_.clear_income(p);
  if (lossy) mutable_process(p).on_crash();

  EventRecord rec;
  rec.event = Event::crash(p, lossy);
  obs::Registry::global().inc("sim.crashes");
  trace_.record(std::move(rec));
  ++now_;
  return true;
}

bool Simulation::restart(ProcessId p) {
  DISCS_CHECK_MSG(p.valid() && p.value() < procs_.size(), "unknown process");
  if (!crashed_[p.value()]) return false;
  crashed_[p.value()] = 0;
  mutable_process(p).on_restart();

  EventRecord rec;
  rec.event = Event::restart(p);
  obs::Registry::global().inc("sim.restarts");
  trace_.record(std::move(rec));
  ++now_;
  return true;
}

bool Simulation::is_crashed(ProcessId p) const {
  DISCS_CHECK_MSG(p.valid() && p.value() < procs_.size(), "unknown process");
  return crashed_[p.value()] != 0;
}

bool Simulation::apply(const Event& e) {
  switch (e.kind) {
    case Event::Kind::kStep:
      return step(e.process);
    case Event::Kind::kDeliver:
      return deliver(e.msg);
    case Event::Kind::kDrop:
      return drop(e.msg);
    case Event::Kind::kDuplicate:
      return duplicate(e.msg);
    case Event::Kind::kRetransmit:
      return retransmit(e.msg);
    case Event::Kind::kCrash:
      return crash(e.process, e.lossy);
    case Event::Kind::kRestart:
      return restart(e.process);
  }
  return false;
}

std::size_t Simulation::deliver_between(ProcessId src, ProcessId dst) {
  auto msgs = net_.in_flight_between(src, dst);
  for (const auto& m : msgs) deliver(m.id);
  return msgs.size();
}

std::size_t Simulation::deliver_all() {
  std::size_t n = 0;
  // Snapshot ids first: delivering does not create messages, but iterate
  // over a stable list for clarity.
  std::vector<MsgId> ids;
  for (const auto& m : net_.in_flight()) ids.push_back(m.id);
  for (auto id : ids) n += deliver(id) ? 1 : 0;
  return n;
}

const std::string& Simulation::memoized_digest(std::size_t i) const {
  auto& slot = digest_memo_[i];
  if (!slot)
    slot = std::make_shared<const std::string>(procs_[i]->state_digest());
  return *slot;
}

std::string Simulation::digest() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < procs_.size(); ++i)
    os << to_string(procs_[i]->id()) << ":{" << memoized_digest(i) << "} ";
  os << "net:{" << net_.digest() << "}";
  // Fault state is appended only when present so fault-free digests are
  // byte-identical to what they were before faults existed.
  bool any_crashed = false;
  for (char c : crashed_) any_crashed |= (c != 0);
  if (any_crashed) {
    std::vector<std::size_t> down;
    for (std::size_t i = 0; i < crashed_.size(); ++i)
      if (crashed_[i]) down.push_back(i);
    os << " crashed:{" << join(down, ",") << "}";
  }
  if (!dropped_.empty()) {
    std::vector<std::uint64_t> ids;
    for (const auto& [id, _] : dropped_) ids.push_back(id);
    os << " dropped:{" << join(ids, ",") << "}";
  }
  return os.str();
}

std::string Simulation::process_digest(ProcessId p) const {
  DISCS_CHECK_MSG(p.valid() && p.value() < procs_.size(), "unknown process");
  return memoized_digest(p.value());
}

}  // namespace discs::sim
