// Declarative fault plans.
//
// A FaultPlan is the programmable version of the paper's adversary: a list
// of rules describing which messages to drop, delay, duplicate or reorder,
// which process pairs to partition over which logical-step windows, and
// which servers to crash and restart.  Plans are plain data — JSON-loadable
// under the versioned schema "discs.faultplan.v1" (docs/FAULTS.md) — and
// every random choice they imply is drawn from a generator seeded by the
// plan, so a (plan, seed, protocol, workload) tuple reproduces the same
// faulted execution bit-for-bit.
//
// The scripted plans at the bottom package the adversarial schedules the
// impossibility proof constructs by hand (Figures 2-3): the delay adversary
// that keeps a write-only transaction's inter-server messages in flight
// forever is expressed as a permanent server<->server hold.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"
#include "sim/message.h"

namespace discs::fault {

/// Window end / restart time meaning "never".
inline constexpr std::uint64_t kForever = ~std::uint64_t{0};

/// Which processes play which role, so rules can say "server"/"client"
/// without the fault layer depending on the protocol layer.
struct FaultTopology {
  std::vector<sim::ProcessId> servers;
  std::vector<sim::ProcessId> clients;

  bool is_server(sim::ProcessId p) const;
  bool is_client(sim::ProcessId p) const;
};

/// Matches one endpoint of a message: any process, any server, any client,
/// or one exact process id.
struct Selector {
  enum class Kind { kAny, kServer, kClient, kExact };
  Kind kind = Kind::kAny;
  sim::ProcessId exact;

  static Selector any() { return {}; }
  static Selector server() { return {Kind::kServer, {}}; }
  static Selector client() { return {Kind::kClient, {}}; }
  static Selector process(sim::ProcessId p) { return {Kind::kExact, p}; }

  bool matches(sim::ProcessId p, const FaultTopology& topo) const;

  friend bool operator==(const Selector&, const Selector&) = default;
};

/// One fault rule.  Fields are a union-by-convention over the rule kinds;
/// unused fields keep their defaults (and are omitted from JSON).
struct FaultRule {
  enum class Kind {
    kDrop,       ///< lose matching messages with probability p; optionally
                 ///< retransmit them retransmit_after steps later
    kDelay,      ///< hold matching messages for extra steps (fixed and/or
                 ///< exponential with mean exp_mean)
    kDuplicate,  ///< deliver matching messages twice with probability p
    kReorder,    ///< jitter matching messages by a random extra delay,
                 ///< letting later sends overtake them
    kPartition,  ///< no delivery between group_a and group_b (both ways)
                 ///< while from <= now < to
    kHold,       ///< no delivery src->dst (directional) while in window
    kCrash,      ///< crash `process` at `at`; restart at `restart_at`
                 ///< (kForever = never); `lossy` wipes volatile state
  };

  Kind kind = Kind::kDrop;
  double p = 1.0;           ///< probability gate (drop/duplicate/reorder)
  Selector src, dst;        ///< message match (drop/delay/dup/reorder/hold)
  std::uint64_t steps = 0;  ///< delay: fixed extra steps
  double exp_mean = 0.0;    ///< delay: exponential extra steps (mean)
  std::uint64_t jitter = 4;            ///< reorder: max random extra delay
  std::uint64_t retransmit_after = 0;  ///< drop: 0 = lost for good
  std::vector<sim::ProcessId> group_a, group_b;  ///< partition sides
  std::uint64_t from = 0, to = kForever;         ///< partition/hold window
  sim::ProcessId process;                        ///< crash target
  std::uint64_t at = 0;                          ///< crash time
  std::uint64_t restart_at = kForever;
  bool lossy = false;

  friend bool operator==(const FaultRule&, const FaultRule&) = default;
};

struct FaultPlan {
  std::string name;
  std::uint64_t seed = 1;
  std::vector<FaultRule> rules;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

  /// Serialization under schema "discs.faultplan.v1".  from_json/parse
  /// throw util::CheckFailure on malformed or wrong-schema input, and on a
  /// probability `p` outside [0, 1].
  obs::Json to_json() const;
  std::string dump() const;  ///< one-line JSON document
  static FaultPlan from_json(const obs::Json& doc);
  static FaultPlan parse(const std::string& text);

  /// Throws util::CheckFailure, naming the rule, when a crash rule targets
  /// a process that is neither a server nor a client of `topo`: the plan
  /// cannot run on that cluster.  FaultSession checks it on construction.
  void check_against(const FaultTopology& topo) const;
};

/// --- rule builders (the common cases, for tests and examples) ---

FaultRule drop_rule(double p, std::uint64_t retransmit_after = 0,
                    Selector src = Selector::any(),
                    Selector dst = Selector::any());
FaultRule delay_rule(std::uint64_t steps, double p = 1.0,
                     Selector src = Selector::any(),
                     Selector dst = Selector::any());
FaultRule duplicate_rule(double p, Selector src = Selector::any(),
                         Selector dst = Selector::any());
FaultRule reorder_rule(double p, std::uint64_t jitter = 4);
FaultRule partition_rule(std::vector<sim::ProcessId> a,
                         std::vector<sim::ProcessId> b, std::uint64_t from = 0,
                         std::uint64_t to = kForever);
FaultRule hold_rule(Selector src, Selector dst, std::uint64_t from = 0,
                    std::uint64_t to = kForever);
FaultRule crash_rule(sim::ProcessId process, std::uint64_t at,
                     std::uint64_t restart_at = kForever, bool lossy = false);

/// --- scripted plans ---

/// The paper's delay adversary (Figures 2-3) as a plan: every
/// server->server message is held in flight forever, so the messages that
/// would make a write visible to other servers never arrive.  Against a
/// protocol whose fresh readers wait on inter-server stabilization this
/// starves eventual visibility — exactly the regime the induction engine
/// constructs by hand.
FaultPlan paper_delay_adversary();

/// Lossy-but-live network: drop every message with probability p and
/// retransmit each dropped message `after` steps later.  Under this plan
/// every §3.4 protocol should still make progress (acceptance criterion
/// for the progress auditor).
FaultPlan drop_retransmit_plan(double p, std::uint64_t after,
                               std::uint64_t seed = 1);

}  // namespace discs::fault
