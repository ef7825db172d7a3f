// Real-threads runtime backend.
//
// Runs the *same* protocol code the discrete-event simulator runs — the
// Process/StepContext contract of src/sim — on a pool of OS threads:
//
//   - every process (server or client) is pinned to one bounded lock-free
//     MPSC inbox (rt/mpsc.h);
//   - a fixed pool of worker threads owns the servers (round-robin) and
//     steps a server whenever its inbox is non-empty, parking on a Parker
//     otherwise;
//   - one submitter thread per client drives that client's share of the
//     workload, pacing retransmit timeouts and idle steps off a wall clock
//     (rt/clock.h) mapped onto the ClientBase backoff ladder;
//   - outgoing messages route directly into the destination inbox —
//     no central network object, no global lock on the hot path.
//
// Trace capture: a global atomic sequence counter assigns every event
// (deliver / step / drop) its position as it happens.  A step's records
// form one seq-sorted batch, the only record the step produces: the flight
// ring reads it, and every engine thread publishes it to one frontier
// merge that appends records in seq order to one obs::TraceSink.  The sink
// keeps the exported events for RunReport::doc (Options::capture), streams
// them to a file (Options::stream_path), or both; finalize builds the one
// TraceDoc both share.  With a file the merge runs *live* on a merger
// thread — memory bounded by inter-thread skew instead of run length;
// without one, finalize drains the same per-thread queues after the join.
// Because a drained batch is delivered in enqueue-ticket order and the
// step claims the sequence range atomically with its deliveries, the
// captured artifact satisfies the simulator's event model exactly —
// obs::replay_doc re-executes it byte-for-byte on the single-threaded
// simulator, which is how every rt run is verified against the oracle
// (docs/RUNTIME.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "obs/flight.h"
#include "obs/histogram.h"
#include "obs/metrics_io.h"
#include "obs/trace_io.h"
#include "proto/common/cluster.h"
#include "rt/clock.h"
#include "sim/message.h"
#include "workload/workload.h"

namespace discs::rt {

struct Options {
  /// Worker threads stepping servers (clamped to [1, num_servers]).
  /// Submitter threads (one per client) are additional.
  std::size_t workers = 2;
  /// Record the execution as a TraceDoc (RunReport::doc).  Off for
  /// throughput benches: sequence numbers are still claimed (virtual time
  /// advances identically) but no records are kept.
  bool capture = true;
  /// Time source for submitter pacing (tests inject FakeClock).  Workers
  /// always park on real time.  Null => WallClock::instance().
  Clock* clock = nullptr;
  /// Test hook: a routed message for which this returns true is dropped
  /// (recorded as a kDrop event, schema v2).  Called from engine threads
  /// concurrently — must be thread-safe.
  std::function<bool(const sim::Message&)> drop_filter;
  /// Streaming trace export: when non-empty, a merger thread follows the
  /// global sequence frontier *while the run executes*, appending each
  /// event line to `<stream_path>.spool` the moment every earlier seq has
  /// been emitted, and finalize assembles the canonical artifact at
  /// `stream_path` (obs/trace_stream.h).  Byte-identical to
  /// export_jsonl(RunReport::doc); independent of `capture` — with capture
  /// off the streamed file is the run's only full record, and the engine
  /// buffers only the inter-thread seq skew, not the whole trace.
  std::string stream_path;
  /// Metrics sampling cadence in Options::clock microseconds (0 = off):
  /// a sampler thread aggregates every engine thread's registry shard
  /// through an obs::MetricsHub on this period and appends
  /// discs.metrics.v1 samples to RunReport::metrics — and live to
  /// `metrics_path` when non-empty.  docs/OBSERVABILITY.md discusses
  /// cadence choice and the fold/aggregate thread-safety contract.
  std::uint64_t metrics_interval_us = 0;
  std::string metrics_path;
  /// Flight recorder: per-engine-thread ring capacity (0 = off).  Rings
  /// remember compact event identities even with capture off;
  /// RunReport::flight carries the merged tails.
  std::size_t flight_capacity = 0;
};

struct RunReport {
  obs::TraceDoc doc;  ///< only populated when Options::capture
  std::size_t txs_completed = 0;
  std::size_t txs_incomplete = 0;
  std::uint64_t events = 0;  ///< sequence numbers claimed (virtual time)
  std::uint64_t drops = 0;   ///< messages dropped by Options::drop_filter
  /// The run exceeded its 30 s wall-clock budget; the transactions left
  /// are counted incomplete.
  bool timed_out = false;
  /// Per-transaction invoke-to-complete latency in clock microseconds.
  obs::Histogram latency_us;
  double wall_seconds = 0;
  std::size_t threads_used = 0;  ///< workers + submitters
  /// Sampled timeline (Options::metrics_interval_us); always ends with one
  /// final sample taken after the engine threads joined.
  obs::MetricsSeries metrics;
  /// Merged per-thread ring tails (Options::flight_capacity), sorted by
  /// seq — the most recent events each engine thread saw.
  std::vector<obs::FlightEvent> flight;
};

/// Builds the cluster (proto::Protocol::build on a bootstrap simulation,
/// then lifts every process out), runs `wcfg`'s transaction stream across
/// real threads and reports.  The stream is wl::tx_stream, the one
/// wl::run_workload_sequential issues, so an rt run and a simulator run of
/// the same configuration execute the same transactions.
RunReport run(const proto::Protocol& protocol,
              const proto::ClusterConfig& ccfg,
              const wl::WorkloadConfig& wcfg, const Options& options = {});

}  // namespace discs::rt
