// Progress / eventual-visibility auditor.
//
// Theorem 1's proof keeps a write-only transaction's messages delayed so
// that the written value never becomes visible: the system loses progress
// (eventual visibility) under that adversary.  This auditor runs the same
// experiment empirically against a *programmable* adversary (a
// fault::FaultPlan): a client writes, the faulted execution runs on, and a
// fresh reader then probes — still under the same fault session — whether
// the written value ever becomes visible.  A plan "starves" the write when
// the probe cannot observe it within the budget (either the probe ROT
// cannot complete, or it completes returning only older values).
//
// "Eventual" is necessarily approximated by an event budget; the budgets
// default high enough that every §3.4 protocol converges in a fault-free
// run within a small fraction of them (see tests/test_faults.cpp).
//
// The audit keeps no trace.  Its report reads only client state, so the
// execution and the probe branch count their events without storing them
// (Simulation::set_trace_retention); nothing can render or export them.
#pragma once

#include <string>

#include "fault/plan.h"
#include "proto/common/cluster.h"

namespace discs::imposs {

struct ProgressOptions {
  discs::proto::ClusterConfig cluster;
  /// Events to drive the main faulted execution after the write completes
  /// (gossip/stabilization time under the adversary).
  std::size_t settle_budget = 6000;
  /// Events for the write itself and for the visibility probe.
  std::size_t drive_budget = 20000;
  std::size_t probe_budget = 20000;
  /// When nonzero, arms ClientBase::set_retransmit_after on the writer and
  /// on the probe reader, so the audit exercises recovery from message
  /// *loss* (not just delay).  Pair with ClusterConfig::exactly_once —
  /// otherwise retransmit duplicates reach protocol handlers unprotected.
  std::size_t client_retransmit_after = 0;
};

struct ProgressReport {
  std::string protocol;
  std::string plan;

  bool write_completed = false;  ///< the writer's transaction finished
  bool probe_completed = false;  ///< the fresh reader's ROT finished
  bool value_visible = false;    ///< ... and returned the written value

  /// The progress property of Theorem 1, empirically: the write became
  /// visible to a fresh reader under the fault plan.
  bool progress() const { return write_completed && value_visible; }
  /// The plan starved eventual visibility of the write.
  bool starved() const { return !progress(); }

  std::string detail;  ///< one-line human-readable outcome
};

/// Runs the write-then-probe experiment for `proto` under `plan`.
ProgressReport audit_progress(const discs::proto::Protocol& proto,
                              const discs::fault::FaultPlan& plan,
                              const ProgressOptions& options = {});

}  // namespace discs::imposs
