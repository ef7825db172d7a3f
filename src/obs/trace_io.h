// JSONL trace export/import and deterministic re-execution.
//
// A recorded execution (sim::Trace) lives inside one process; this module
// serializes it — together with everything needed to re-derive it — into a
// line-oriented JSON artifact that can be diffed, inspected offline and
// replayed on a fresh simulation:
//
//   header   protocol name, scenario, ClusterConfig, initial values
//   invoke   harness invocations (client, TxSpec, virtual time), the one
//            input to an execution that is not an event
//   event    one line per trace record (step / deliver) with full message
//            introspection: payload kind, description, values_carried(),
//            byte_size()
//   tx       the recorded transaction history (checker input)
//   footer   event count + final configuration digest
//
// The round-trip guarantee is replay-based and byte-exact: import a file,
// rebuild the cluster from the header (Protocol::build is deterministic,
// IdSource re-mints the same initial values), re-apply invocations and
// events, and the replayed simulation re-exports to the identical bytes —
// same messages, same history, same final digest.  docs/TRACING.md
// documents the schema and its versioning policy.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fault/plan.h"
#include "history/history.h"
#include "obs/json.h"
#include "obs/span.h"
#include "proto/common/cluster.h"
#include "proto/common/tx.h"
#include "sim/simulation.h"
#include "workload/workload.h"

namespace discs::obs {

/// Schema identifiers written into the header record.  v1 covers the two
/// event kinds of the fault-free model (step/deliver); v2 is a strict
/// superset adding the fault events of src/fault (drop, dup, retransmit,
/// crash, restart).  The exporter emits v1 whenever the trace contains no
/// fault event — so fault-free artifacts are byte-identical to what a v1
/// exporter wrote — and v2 otherwise; the importer accepts both and rejects
/// fault events under a v1 header.  docs/TRACING.md has the details.
inline constexpr std::string_view kTraceSchema = "discs.trace.v1";
inline constexpr std::string_view kTraceSchemaV2 = "discs.trace.v2";

/// Everything the exporter records about one message: identity plus the
/// introspection surface the property monitors use.
struct ExportedMessage {
  MsgId id;
  ProcessId src;
  ProcessId dst;
  std::string kind;  ///< Payload::kind(), e.g. "RotRequest" / "Batch"
  std::string desc;  ///< Payload::describe()
  std::vector<ValueId> values;  ///< Payload::values_carried()
  std::uint64_t bytes = 0;      ///< Payload::byte_size()

  /// Cause annotations, recorded only under ClusterConfig::record_spans and
  /// serialized only when non-empty (optional fields per the TRACING.md
  /// policy, so span-free artifacts keep their exact bytes).  Attribution is
  /// per payload *part* via the shared proto::rot_request_tx/rot_reply_tx,
  /// so a batched message serving several transactions stays separable
  /// offline — exactly what obs::SpanDag needs to re-derive Table 1.
  std::vector<std::uint64_t> req_txs;  ///< ROTs this message requests for
  std::vector<std::uint64_t> rep_txs;  ///< ROTs this message replies to
  /// Objects requested per ROT: [tx, object] pairs from RotRequest parts.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> req_objs;
  /// Valid values returned per ROT: [tx, object, value] triples from
  /// RotReply items/extras/pendings.
  std::vector<std::array<std::uint64_t, 3>> reads;

  static ExportedMessage from(const sim::Message& m, bool spans = false);

  friend bool operator==(const ExportedMessage&,
                         const ExportedMessage&) = default;
};

/// One trace record: the bare event (replayable) plus references into its
/// document's message table (TraceDoc::messages).  It owns no heap memory;
/// read its messages through TraceDoc::consumed, sent and message.
struct ExportedEvent {
  static constexpr std::uint32_t kNoMessage = UINT32_MAX;

  sim::Event event;
  std::uint64_t seq = 0;
  /// kStep only: the consumed messages are TraceDoc::refs[first, first +
  /// consumed), and the `sent` messages follow them.
  std::uint32_t first = 0;
  std::uint32_t consumed = 0;
  std::uint32_t sent = 0;
  /// The table index of a kDeliver's message, and (v2) of the affected
  /// message of kDrop/kDuplicate/kRetransmit; kNoMessage for the others.
  std::uint32_t msg = kNoMessage;
};

/// A harness invocation: client `client` was handed `spec` when the
/// simulation clock read `at` (i.e. before the event with seq == at).
struct InvokeRecord {
  std::uint64_t at = 0;
  ProcessId client;
  proto::TxSpec spec;
};

/// An execution as an artifact: the parsed/parseable form of one JSONL file.
struct TraceDoc {
  std::string schema{kTraceSchema};
  std::string protocol;
  std::string scenario;
  proto::ClusterConfig cluster;
  std::map<ObjectId, ValueId> initial;
  std::vector<InvokeRecord> invokes;
  /// The message table: each distinct message once, in order of first
  /// appearance.  In the paper's model a message appears three times (sent,
  /// delivered, consumed); the events refer to its one entry.
  std::vector<ExportedMessage> messages;
  /// The steps' table indices, consumed then sent, event after event.
  std::vector<std::uint32_t> refs;
  std::vector<ExportedEvent> events;
  /// Span notes captured from the thread-local SpanLog; present only when
  /// cluster.record_spans (span records are rejected without the flag).
  std::vector<SpanNote> spans;
  hist::History history;
  std::string final_digest;

 private:
  auto entries(std::span<const std::uint32_t> indices) const {
    return indices | std::views::transform(
                         [this](std::uint32_t i) -> const ExportedMessage& {
                           return messages[i];
                         });
  }

 public:
  /// A step's consumed and sent messages, as ranges of table entries.
  auto consumed(const ExportedEvent& e) const {
    return entries(std::span(refs).subspan(e.first, e.consumed));
  }
  auto sent(const ExportedEvent& e) const {
    return entries(std::span(refs).subspan(e.first + e.consumed, e.sent));
  }
  /// The message of a deliver, drop, dup or retransmit event; nullptr for
  /// a step, crash or restart.
  const ExportedMessage* message(const ExportedEvent& e) const {
    return e.msg == ExportedEvent::kNoMessage ? nullptr : &messages[e.msg];
  }
};

/// The one ClusterConfig <-> JSON codec: the trace header's "cluster"
/// object and chaos repro specs (chaos/chaos.h) both use it.  The topology
/// keys (servers, clients, objects, replication, tt_epsilon,
/// gossip_interval) are always written; every other field only when it
/// differs from its default (journal_compact_threshold also whenever the
/// journal is on; shards only above 1), so a default configuration keeps
/// the bytes it had before each knob existed.  The reader treats those
/// keys as optional and accepts explicit defaults, which older repro specs
/// spell out.
Json cluster_config_json(const proto::ClusterConfig& cfg);
proto::ClusterConfig cluster_config_from_json(const Json& j);

/// Snapshots a live run into a TraceDoc (no side effects on `sim`).
TraceDoc make_doc(const proto::Protocol& protocol, std::string scenario,
                  const proto::ClusterConfig& cfg, const sim::Simulation& sim,
                  const proto::Cluster& cluster,
                  std::vector<InvokeRecord> invokes);

/// The one record exporter.  add() appends a live record to `doc` as an
/// event, and a message to doc.messages only the first time it sees it, so
/// ExportedMessage::from (with cause annotations when `spans`) runs once
/// per entry.  A message takes its id's latest entry when its payload
/// pointer is that entry's: in both backends every appearance of a message
/// (sent, delivered, dropped, duplicated, retransmitted, consumed) shares
/// its sender's payload.  An id seen with another payload gets a new entry
/// and is never merged.  make_doc applies the builder to a simulator trace;
/// obs::TraceSink (obs/trace_stream.h) to each record the rt backend's
/// frontier merge appends.  One exporter means the two backends cannot
/// drift.
class DocBuilder {
 public:
  DocBuilder(TraceDoc& doc, bool spans) : doc_(doc), spans_(spans) {}

  void add(const sim::EventRecord& rec);

  /// True once any fault event was added: the v1-vs-v2 schema decision.
  bool any_fault() const { return any_fault_; }

  /// Empties the document's events, table and refs, and forgets every
  /// message seen; any_fault() is kept.
  void clear();

 private:
  std::uint32_t entry(const sim::Message& m);

  TraceDoc& doc_;
  bool spans_;
  bool any_fault_ = false;
  /// MsgId -> its latest entry.
  std::unordered_map<std::uint64_t, std::uint32_t> latest_;
  /// Per entry, its payload: compared with a later appearance's, which
  /// holds the same payload alive when it is the same message, and never
  /// dereferenced.
  std::vector<const sim::Payload*> payloads_;
};

/// Appends one canonical JSONL line (no trailing newline) for an event of
/// `doc` to `out` — exactly the bytes export_jsonl writes for it, each
/// message in full at every appearance.  export_jsonl itself is built on
/// this, so incremental and batch serialization cannot drift.
void append_event_line(std::string& out, const TraceDoc& doc,
                       const ExportedEvent& e);

/// The wire name of an event kind ("step", "deliver", "drop", "dup",
/// "retransmit", "crash", "restart"): the writer's and the reader's one
/// table.
std::string_view event_kind_str(sim::Event::Kind kind);

/// Sorts invokes into the canonical artifact order: by (at, tx id).  The
/// exporters apply this before serialization so equal captures are
/// byte-equal regardless of collection order.
void sort_invokes(std::vector<InvokeRecord>& invokes);

/// Serializes to JSONL (one JSON object per line, deterministic bytes).
std::string export_jsonl(const TraceDoc& doc);

/// The artifact split at the event stream, for writers that hold the event
/// lines somewhere else (the streaming writer spools them to disk as the
/// run executes):
///
///   export_jsonl(doc) == export_prefix_jsonl(doc)        // header+invokes
///                        + one append_event_line(e) + '\n' per event
///                        + export_suffix_jsonl(doc, doc.events.size())
///
/// The suffix takes the event count explicitly because the assembling
/// doc's `events` vector is empty in the streaming case — the count lives
/// in the footer and must match the spooled lines.
std::string export_prefix_jsonl(const TraceDoc& doc);
std::string export_suffix_jsonl(const TraceDoc& doc, std::uint64_t events);

/// Strict parser; throws CheckFailure on malformed input, an unknown schema
/// version, a missing header or footer, or any record after the footer (a
/// rejected record names its line).  Members may come in any order and
/// unknown ones are skipped (docs/TRACING.md).  It fills the message table
/// too: a message object whose bytes equal the first one read for its id
/// takes that entry unparsed; any other is parsed, and takes its id's
/// entry only when every field equals it.
TraceDoc import_jsonl(std::string_view text);

/// Result of re-executing an imported document on a fresh simulation.
struct DocReplay {
  bool ok = false;           ///< every invoke + event applied cleanly
  std::string error;
  std::size_t applied = 0;   ///< events applied
  bool digest_match = false; ///< replayed final digest == doc.final_digest
  hist::History history;     ///< history collected from the replayed run
  /// The replayed execution re-captured as a document; byte-exact round
  /// trip means export_jsonl(reexport) == export_jsonl(doc).
  TraceDoc reexport;
};

/// Rebuilds the cluster described by `doc` with `protocol` (whose name()
/// must match doc.protocol) and re-applies the recorded invocations and
/// events.
DocReplay replay_doc(const TraceDoc& doc, const proto::Protocol& protocol);

/// As above, resolving the protocol from doc.protocol via the registry.
DocReplay replay_doc(const TraceDoc& doc);

// --- capture scenarios -----------------------------------------------------

/// Runs a named exportable scenario against `protocol` and captures it:
///   quickread  one (multi-)write then one read-only transaction
///   mixed      interleaved writes and reads across three clients
///   violation  adversarial partial delivery: writes reach only the last
///              server before a reader runs (exhibits naivefast's causal
///              violation; correct protocols survive it)
/// Throws CheckFailure for unknown scenario names.
TraceDoc capture_scenario(const proto::Protocol& protocol,
                          const std::string& scenario,
                          const proto::ClusterConfig& cfg);

/// Names accepted by capture_scenario.
std::vector<std::string> exportable_scenarios();

struct FaultedCaptureOptions {
  fault::FaultPlan plan;
  proto::ClusterConfig cluster;
  std::size_t budget = 30000;
};

/// Runs the quickread traffic pattern (one write, then one read-only
/// transaction) under `options.plan` via a fault::FaultSession and captures
/// the execution.  Applied faults appear as first-class events, so the
/// captured document replays byte-exactly like any other; its header carries
/// discs.trace.v2 whenever at least one fault actually fired.
TraceDoc capture_faulted(const proto::Protocol& protocol,
                         const FaultedCaptureOptions& options);

struct WorkloadCaptureOptions {
  proto::ClusterConfig cluster;
  wl::WorkloadConfig workload;
};

struct WorkloadCapture {
  TraceDoc doc;
  /// Per-transaction windows from the driver, for callers that want to
  /// cross-check the artifact against live measurements.
  wl::WorkloadResult result;
};

/// Runs wl::run_workload_sequential and captures the execution as an
/// artifact.  With options.cluster.record_spans the document carries span
/// notes and per-message cause annotations, making it profilable by
/// obs::SpanDag.
WorkloadCapture capture_workload(const proto::Protocol& protocol,
                                 const WorkloadCaptureOptions& options);

}  // namespace discs::obs
