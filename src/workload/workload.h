// Workload generation and execution.
//
// Two drivers:
//  - run_workload_sequential: one transaction at a time under the fair
//    scheduler, recording exact trace windows per transaction — the input
//    the property monitors need;
//  - run_workload_concurrent: all clients active at once under a seeded
//    random scheduler — the input the consistency fuzz tests need.
#pragma once

#include <vector>

#include "fault/session.h"
#include "history/history.h"
#include "proto/common/client.h"
#include "proto/common/cluster.h"
#include "sim/schedule.h"
#include "util/rng.h"

namespace discs::wl {

using discs::proto::Cluster;
using discs::proto::IdSource;
using discs::proto::Protocol;
using discs::proto::TxSpec;

struct WorkloadConfig {
  std::size_t num_txs = 60;
  double write_fraction = 0.3;
  /// Among writes: fraction that write multiple objects (ignored for
  /// protocols without write-transaction support).
  double multi_write_fraction = 0.5;
  std::size_t read_objects = 2;   ///< objects per read-only transaction
  std::size_t write_objects = 2;  ///< objects per multi-write transaction
  double zipf_theta = 0.0;        ///< 0 = uniform object choice
  std::uint64_t seed = 1;
  std::size_t budget_per_tx = 40000;
  /// When false, the drivers skip the final merged-history construction
  /// (WorkloadResult::history stays empty).  Throughput sweeps that never
  /// check the history opt out; everything that audits keeps the default.
  bool collect_history = true;
};

/// Draws one transaction spec.
TxSpec next_tx(IdSource& ids, const Cluster& cluster,
               const WorkloadConfig& cfg, bool allow_multi_write, Rng& rng,
               const Zipf* zipf);

/// The sequential transaction stream, dealt out per client slot: spec i of
/// `cfg.num_txs`, drawn by next_tx from one Rng(cfg.seed) (and a Zipf over
/// the objects when cfg.zipf_theta > 0) with ids minted from `ids` in that
/// order, is element i / n of slot i mod n, n = cluster.clients.size().
/// run_workload_sequential and rt::run both issue this stream, so the
/// simulator and the rt backend execute the same transactions for the
/// same configuration.
std::vector<std::vector<TxSpec>> tx_stream(IdSource& ids,
                                           const Cluster& cluster,
                                           const WorkloadConfig& cfg,
                                           bool allow_multi_write);

struct TxWindow {
  TxId id;
  ProcessId client;
  bool read_only = false;
  std::size_t trace_begin = 0;
  std::size_t trace_end = 0;
  bool completed = false;
  /// The full spec and the trace position at invocation, so trace captures
  /// (obs::capture_workload) can embed replayable invoke records without
  /// re-deriving them from the history.
  TxSpec spec;
  std::uint64_t invoked_at = 0;
};

struct WorkloadResult {
  std::vector<TxWindow> windows;
  hist::History history;
  std::size_t incomplete = 0;
};

WorkloadResult run_workload_sequential(sim::Simulation& sim,
                                       const Protocol& proto,
                                       const Cluster& cluster, IdSource& ids,
                                       const WorkloadConfig& cfg);

WorkloadResult run_workload_concurrent(sim::Simulation& sim,
                                       const Protocol& proto,
                                       const Cluster& cluster, IdSource& ids,
                                       const WorkloadConfig& cfg);

/// run_workload_concurrent with a fault plan in the loop: scheduling goes
/// through fault::run_random_faulted (sim::run_random with `session` as its
/// adversary hook), so messages are dropped, delayed, duplicated and
/// partitioned per `session`'s plan while clients run.  The fault fuzz
/// tests point the consistency checkers at the result.
WorkloadResult run_workload_concurrent_faulted(sim::Simulation& sim,
                                               const Protocol& proto,
                                               const Cluster& cluster,
                                               IdSource& ids,
                                               const WorkloadConfig& cfg,
                                               fault::FaultSession& session);

}  // namespace discs::wl
