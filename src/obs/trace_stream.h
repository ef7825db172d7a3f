// Trace sink — the one place where a captured execution's event records
// become artifact events: kept in memory, streamed to a file, or both.
//
// A producer appends records one at a time, in seq order (rt's frontier
// merge, or any single producer).  The sink adds each record to its
// document with the one record exporter (obs::DocBuilder), which adds each
// message to the document's table the first time it sees it, and then
//
//   - keeps the event and the table when it keeps events (the memory sink
//     behind rt::Options::capture), and/or
//   - when it has a path, serializes the event (obs::append_event_line, into
//     one reused line buffer) and flushes it to a side "spool" file
//     `<path>.spool` — raw event JSONL you can tail while the run is alive
//     (the file sink behind rt::Options::stream_path).
//
// A sink that only streams keeps no table across records: it forgets the
// event and its messages once the line is spooled, so its memory does not
// grow with the run.
//
// finish() completes the caller's TraceDoc: it sets the schema, moves the
// kept events and table in, and for a file sink assembles the canonical
// artifact at `path` — header + invokes (export_prefix_jsonl) + the spooled
// event lines + history + footer (export_suffix_jsonl) — then removes the
// spool.
//
// The header's v1-vs-v2 schema decision is retroactive — it depends on
// whether any fault event was ever appended — which is exactly why the
// artifact cannot be written front-to-back live and the spool exists.
// Because prefix/event/suffix serialization is shared with export_jsonl,
// the assembled file is byte-identical to export_jsonl of the document a
// memory sink returns for the same records; tests/test_obs.cpp pins this
// for the sink alone and tests/test_rt.cpp per protocol on rt.
//
// Not thread-safe: one sink, one appending thread at a time.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "obs/trace_io.h"

namespace discs::obs {

class TraceSink {
 public:
  /// `keep_events`: finish() returns the exported events in doc.events and
  /// their messages in doc.messages and doc.refs.
  /// Non-empty `path`: spool to `<path>.spool` as records arrive and write
  /// the artifact at `path` in finish(); throws CheckFailure if the spool
  /// cannot be created.
  TraceSink(bool keep_events, std::string path);
  /// Removes the spool if finish() was never reached (abandoned run).
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Appends one record.  Records must arrive in seq order with no gaps —
  /// rec.seq == events() — which is what a frontier merge produces by
  /// construction; anything else is a capture bug and CHECK-fails.
  void append(const sim::EventRecord& rec);

  /// Records appended so far == the next expected seq.
  std::uint64_t events() const { return events_; }

  /// Completes `doc` — everything but its events, table and schema — with
  /// this sink's events and table (the kept ones; none without keep_events)
  /// and its v1/v2 schema decision, writes the artifact when the sink has a
  /// path, and returns it.  Removes the spool.  Call exactly once, after
  /// the last append.
  TraceDoc finish(TraceDoc doc);

 private:
  bool keep_;
  std::string path_;
  std::string spool_path_;  ///< empty for a memory-only sink
  std::ofstream spool_;
  std::string line_;  ///< the spooled line being written, reused
  TraceDoc kept_;  ///< events, table and refs; only the last record's
                   ///< until it is spooled, without keep_events
  DocBuilder builder_{kept_, /*spans=*/false};
  std::uint64_t events_ = 0;
  bool finished_ = false;
};

}  // namespace discs::obs
