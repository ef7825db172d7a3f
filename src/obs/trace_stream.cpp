#include "obs/trace_stream.h"

#include <cstdio>
#include <utility>

#include "util/check.h"

namespace discs::obs {

TraceSink::TraceSink(bool keep_events, std::string path)
    : keep_(keep_events), path_(std::move(path)) {
  if (path_.empty()) return;
  spool_path_ = path_ + ".spool";
  spool_.open(spool_path_, std::ios::binary | std::ios::trunc);
  DISCS_CHECK_MSG(spool_.is_open(),
                  "trace sink: cannot open spool '" << spool_path_ << "'");
}

TraceSink::~TraceSink() {
  if (!finished_ && !spool_path_.empty()) {
    spool_.close();
    std::remove(spool_path_.c_str());
  }
}

void TraceSink::append(const sim::EventRecord& rec) {
  DISCS_CHECK_MSG(!finished_, "trace sink: append after finish");
  DISCS_CHECK_MSG(rec.seq == events_,
                  "trace sink: out-of-order record (seq " << rec.seq
                                                          << ", expected "
                                                          << events_ << ")");
  builder_.add(rec);
  if (spool_.is_open()) {
    line_.clear();
    append_event_line(line_, kept_, kept_.events.back());
    line_ += '\n';
    spool_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
    // Flush per record: the spool's reason to exist is that it is complete
    // up to the frontier while the run is alive (tail -f, post-mortem).
    spool_.flush();
  }
  if (!keep_) builder_.clear();
  ++events_;
}

TraceDoc TraceSink::finish(TraceDoc doc) {
  DISCS_CHECK_MSG(!finished_, "trace sink: finish called twice");
  finished_ = true;
  doc.schema = builder_.any_fault() ? std::string(kTraceSchemaV2)
                                    : std::string(kTraceSchema);
  doc.events = std::move(kept_.events);
  doc.messages = std::move(kept_.messages);
  doc.refs = std::move(kept_.refs);
  builder_.clear();
  if (spool_path_.empty()) return doc;

  spool_.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  DISCS_CHECK_MSG(out.is_open(), "trace sink: cannot open '" << path_ << "'");
  out << export_prefix_jsonl(doc);
  {
    std::ifstream in(spool_path_, std::ios::binary);
    DISCS_CHECK_MSG(in.is_open(),
                    "trace sink: spool vanished '" << spool_path_ << "'");
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0)
      out.write(buf, in.gcount());
  }
  out << export_suffix_jsonl(doc, events_);
  out.flush();
  DISCS_CHECK_MSG(out.good(), "trace sink: write failed '" << path_ << "'");
  std::remove(spool_path_.c_str());
  return doc;
}

}  // namespace discs::obs
