#include "obs/trace_io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <initializer_list>
#include <optional>
#include <utility>

#include "fault/session.h"
#include "obs/json.h"
#include "proto/common/client.h"
#include "proto/registry.h"
#include "sim/schedule.h"
#include "util/check.h"
#include "util/fmt.h"

namespace discs::obs {

using discs::proto::ClientBase;
using discs::proto::Cluster;
using discs::proto::ClusterConfig;
using discs::proto::IdSource;
using discs::proto::TxSpec;

ExportedMessage ExportedMessage::from(const sim::Message& m, bool spans) {
  ExportedMessage out;
  out.id = m.id;
  out.src = m.src;
  out.dst = m.dst;
  if (m.payload) {
    out.kind = std::string(m.payload->kind());
    out.desc = m.payload->describe();
    out.values = m.payload->values_carried();
    out.bytes = m.payload->byte_size();
  }
  if (!spans || !m.payload) return out;

  // Cause annotations: attribute each payload part to the ROT it serves,
  // with the same shared helpers (and the same SessionEnvelope blindness)
  // as imposs::audit_rot.
  auto push_once = [](std::vector<std::uint64_t>& v, std::uint64_t x) {
    if (std::find(v.begin(), v.end(), x) == v.end()) v.push_back(x);
  };
  for (const auto& part : sim::payload_parts(m)) {
    if (TxId tx = proto::rot_request_tx(*part); tx.valid()) {
      push_once(out.req_txs, tx.value());
      if (const auto* r = sim::payload_as<proto::RotRequest>(part.get()))
        for (auto obj : r->objects)
          out.req_objs.emplace_back(tx.value(), obj.value());
    }
    if (TxId tx = proto::rot_reply_tx(*part); tx.valid()) {
      push_once(out.rep_txs, tx.value());
      if (const auto* r = sim::payload_as<proto::RotReply>(part.get())) {
        auto note = [&](ObjectId obj, ValueId v) {
          if (v.valid())
            out.reads.push_back({tx.value(), obj.value(), v.value()});
        };
        for (const auto& item : r->items) note(item.object, item.value);
        for (const auto& item : r->extras) note(item.object, item.value);
        for (const auto& p : r->pendings) note(p.object, p.value);
      }
    }
  }
  return out;
}

void sort_invokes(std::vector<InvokeRecord>& invokes) {
  std::sort(invokes.begin(), invokes.end(),
            [](const InvokeRecord& a, const InvokeRecord& b) {
              return a.at != b.at ? a.at < b.at
                                  : a.spec.id.value() < b.spec.id.value();
            });
}

void DocBuilder::add(const sim::EventRecord& rec) {
  ExportedEvent& e = doc_.events.emplace_back();
  e.event = rec.event;
  e.seq = rec.seq;
  e.first = static_cast<std::uint32_t>(doc_.refs.size());
  e.consumed = static_cast<std::uint32_t>(rec.consumed.size());
  e.sent = static_cast<std::uint32_t>(rec.sent.size());
  for (const auto& m : rec.consumed) doc_.refs.push_back(entry(m));
  for (const auto& m : rec.sent) doc_.refs.push_back(entry(m));
  switch (rec.event.kind) {
    case sim::Event::Kind::kStep:
      break;
    case sim::Event::Kind::kDeliver:
    case sim::Event::Kind::kDrop:
    case sim::Event::Kind::kDuplicate:
    case sim::Event::Kind::kRetransmit:
      e.msg = entry(rec.delivered);
      any_fault_ |= rec.event.kind != sim::Event::Kind::kDeliver;
      break;
    case sim::Event::Kind::kCrash:
    case sim::Event::Kind::kRestart:
      any_fault_ = true;
      break;
  }
}

std::uint32_t DocBuilder::entry(const sim::Message& m) {
  const auto [it, fresh] = latest_.try_emplace(m.id.value(), 0);
  if (!fresh && payloads_[it->second] == m.payload.get()) return it->second;
  it->second = static_cast<std::uint32_t>(doc_.messages.size());
  doc_.messages.push_back(ExportedMessage::from(m, spans_));
  payloads_.push_back(m.payload.get());
  return it->second;
}

void DocBuilder::clear() {
  doc_.events.clear();
  doc_.messages.clear();
  doc_.refs.clear();
  latest_.clear();
  payloads_.clear();
}

TraceDoc make_doc(const proto::Protocol& protocol, std::string scenario,
                  const ClusterConfig& cfg, const sim::Simulation& sim,
                  const Cluster& cluster, std::vector<InvokeRecord> invokes) {
  TraceDoc doc;
  doc.protocol = protocol.name();
  doc.scenario = std::move(scenario);
  doc.cluster = cfg;
  doc.initial = cluster.initial_values;
  doc.invokes = std::move(invokes);
  sort_invokes(doc.invokes);
  const auto& records = sim.trace().records();
  doc.events.reserve(records.size());
  DocBuilder builder(doc, cfg.record_spans);
  for (const auto& rec : records) builder.add(rec);
  // Fault-free documents keep the v1 header so their bytes are identical to
  // what a v1 exporter wrote (see trace_io.h).
  doc.schema = builder.any_fault() ? std::string(kTraceSchemaV2)
                                   : std::string(kTraceSchema);
  if (cfg.record_spans) doc.spans = SpanLog::global().notes();
  doc.history = proto::collect_history(sim, cluster.clients,
                                       cluster.initial_values);
  doc.final_digest = sim.digest();
  return doc;
}

// --- serialization ---------------------------------------------------------

Json cluster_config_json(const ClusterConfig& cfg) {
  const ClusterConfig def;
  JsonObject out{
      {"servers", Json(std::uint64_t(cfg.num_servers))},
      {"clients", Json(std::uint64_t(cfg.num_clients))},
      {"objects", Json(std::uint64_t(cfg.num_objects))},
      {"replication", Json(std::uint64_t(cfg.replication))},
      {"tt_epsilon", Json(cfg.tt_epsilon)},
      {"gossip_interval", Json(std::uint64_t(cfg.gossip_interval))}};
  if (cfg.exactly_once) out.emplace_back("exactly_once", Json(true));
  if (cfg.durable_journal) out.emplace_back("durable_journal", Json(true));
  if (cfg.durable_journal ||
      cfg.journal_compact_threshold != def.journal_compact_threshold)
    out.emplace_back("journal_compact_threshold",
                     Json(std::uint64_t(cfg.journal_compact_threshold)));
  if (cfg.record_spans) out.emplace_back("record_spans", Json(true));
  if (cfg.client_retransmit_after != def.client_retransmit_after)
    out.emplace_back("client_retransmit_after",
                     Json(std::uint64_t(cfg.client_retransmit_after)));
  // num_shards 0 and 1 both mean one shard per object.
  if (cfg.num_shards > 1)
    out.emplace_back("shards", Json(std::uint64_t(cfg.num_shards)));
  return Json(std::move(out));
}

ClusterConfig cluster_config_from_json(const Json& j) {
  ClusterConfig cfg;
  cfg.num_servers = j.get("servers").as_uint();
  cfg.num_clients = j.get("clients").as_uint();
  cfg.num_objects = j.get("objects").as_uint();
  cfg.replication = j.get("replication").as_uint();
  cfg.tt_epsilon = j.get("tt_epsilon").as_uint();
  cfg.gossip_interval = j.get("gossip_interval").as_uint();
  if (const Json* v = j.find("exactly_once")) cfg.exactly_once = v->as_bool();
  if (const Json* v = j.find("durable_journal"))
    cfg.durable_journal = v->as_bool();
  if (const Json* v = j.find("journal_compact_threshold"))
    cfg.journal_compact_threshold = v->as_uint();
  if (const Json* v = j.find("record_spans")) cfg.record_spans = v->as_bool();
  if (const Json* v = j.find("client_retransmit_after"))
    cfg.client_retransmit_after = v->as_uint();
  if (const Json* v = j.find("shards")) cfg.num_shards = v->as_uint();
  return cfg;
}

namespace {

/// Event kinds by wire name.
constexpr std::pair<sim::Event::Kind, std::string_view> kEventKinds[] = {
    {sim::Event::Kind::kStep, "step"},
    {sim::Event::Kind::kDeliver, "deliver"},
    {sim::Event::Kind::kDrop, "drop"},
    {sim::Event::Kind::kDuplicate, "dup"},
    {sim::Event::Kind::kRetransmit, "retransmit"},
    {sim::Event::Kind::kCrash, "crash"},
    {sim::Event::Kind::kRestart, "restart"}};

}  // namespace

std::string_view event_kind_str(sim::Event::Kind kind) {
  for (const auto& [k, name] : kEventKinds)
    if (k == kind) return name;
  DISCS_CHECK_MSG(false, "trace: unnamed event kind");
  return {};
}

namespace {

std::optional<sim::Event::Kind> event_kind_from(std::string_view name) {
  for (const auto& [k, n] : kEventKinds)
    if (n == name) return k;
  return std::nullopt;
}

// --- the writer --------------------------------------------------------------
//
// Every record but the header is appended straight into the caller's buffer,
// field by field in the canonical order; no Json tree is built.

/// Appends `[put(e),...]`.
template <class Range, class Put>
void append_list(std::string& out, const Range& r, Put put) {
  out += '[';
  bool first = true;
  for (const auto& e : r) {
    if (!first) out += ',';
    first = false;
    put(e);
  }
  out += ']';
}

template <class Range>
void append_uints(std::string& out, const Range& r) {
  append_list(out, r, [&](std::uint64_t x) { append_uint(out, x); });
}

void append_bool(std::string& out, bool b) { out += b ? "true" : "false"; }

void append_msg(std::string& out, const ExportedMessage& m) {
  out += "{\"id\":";
  append_uint(out, m.id.value());
  out += ",\"src\":";
  append_uint(out, m.src.value());
  out += ",\"dst\":";
  append_uint(out, m.dst.value());
  out += ",\"kind\":";
  append_quoted(out, m.kind);
  out += ",\"desc\":";
  append_quoted(out, m.desc);
  out += ",\"values\":";
  append_list(out, m.values, [&](ValueId v) { append_uint(out, v.value()); });
  out += ",\"bytes\":";
  append_uint(out, m.bytes);
  // Cause annotations are optional fields: emitted only when non-empty
  // (i.e. only in record_spans captures), so span-free artifacts keep
  // their exact bytes.
  if (!m.req_txs.empty()) {
    out += ",\"rotreq\":";
    append_uints(out, m.req_txs);
  }
  if (!m.rep_txs.empty()) {
    out += ",\"rotrep\":";
    append_uints(out, m.rep_txs);
  }
  if (!m.req_objs.empty()) {
    out += ",\"rotobjs\":";
    append_list(out, m.req_objs, [&](const auto& p) {
      append_uints(out, std::array{p.first, p.second});
    });
  }
  if (!m.reads.empty()) {
    out += ",\"rotvals\":";
    append_list(out, m.reads, [&](const auto& r) { append_uints(out, r); });
  }
  out += '}';
}

template <class Messages>
void append_msgs(std::string& out, const Messages& ms) {
  append_list(out, ms, [&](const ExportedMessage& m) { append_msg(out, m); });
}

Json header_json(const TraceDoc& doc) {
  JsonArray initial;
  for (const auto& [obj, v] : doc.initial)
    initial.push_back(Json(JsonArray{Json(obj.value()), Json(v.value())}));
  return Json(JsonObject{
      {"record", Json("header")},
      {"schema", Json(doc.schema)},
      {"protocol", Json(doc.protocol)},
      {"scenario", Json(doc.scenario)},
      {"cluster", cluster_config_json(doc.cluster)},
      {"initial", Json(std::move(initial))}});
}

void append_invoke_line(std::string& out, const InvokeRecord& inv) {
  out += "{\"record\":\"invoke\",\"at\":";
  append_uint(out, inv.at);
  out += ",\"client\":";
  append_uint(out, inv.client.value());
  out += ",\"tx\":{\"id\":";
  append_uint(out, inv.spec.id.value());
  out += ",\"reads\":";
  append_list(out, inv.spec.read_set,
              [&](ObjectId o) { append_uint(out, o.value()); });
  out += ",\"writes\":";
  append_list(out, inv.spec.write_set, [&](const auto& w) {
    append_uints(out, std::array{w.first.value(), w.second.value()});
  });
  out += "}}";
}

void append_span_line(std::string& out, const SpanNote& s) {
  out += "{\"record\":\"span\",\"kind\":";
  append_quoted(out, span_kind_str(s.kind));
  out += ",\"tx\":";
  append_uint(out, s.tx);
  out += ",\"proc\":";
  append_uint(out, s.proc);
  out += ",\"at\":";
  append_uint(out, s.at);
  out += ",\"round\":";
  append_uint(out, s.round);
  out += '}';
}

void append_tx_line(std::string& out, const hist::TxRecord& t) {
  out += "{\"record\":\"tx\",\"id\":";
  append_uint(out, t.id.value());
  out += ",\"client\":";
  append_uint(out, t.client.value());
  out += ",\"invoked\":";
  append_bool(out, t.invoked);
  out += ",\"completed\":";
  append_bool(out, t.completed);
  out += ",\"invoke_seq\":";
  append_uint(out, t.invoke_seq);
  out += ",\"complete_seq\":";
  append_uint(out, t.complete_seq);
  out += ",\"reads\":";
  append_list(out, t.reads, [&](const hist::ReadOp& r) {
    out += "{\"object\":";
    append_uint(out, r.object.value());
    out += ",\"value\":";
    if (r.responded)
      append_uint(out, r.value.value());
    else
      out += "null";
    out += ",\"responded\":";
    append_bool(out, r.responded);
    out += '}';
  });
  out += ",\"writes\":";
  append_list(out, t.writes, [&](const hist::WriteOp& w) {
    out += "{\"object\":";
    append_uint(out, w.object.value());
    out += ",\"value\":";
    append_uint(out, w.value.value());
    out += ",\"acked\":";
    append_bool(out, w.acked);
    out += '}';
  });
  out += '}';
}

// --- the reader --------------------------------------------------------------
//
// Every record but the header is pulled straight from a JsonCursor into the
// TraceDoc; no Json tree is built.  The accepted texts are those a tree
// reader accepts: members in any order, unknown members skipped, the first
// of a duplicated key read.

/// Walks one object's members for a typed reader that knows them by the
/// names in `names`.  next() returns the index in `names` of the next
/// member, whose value the caller then reads; it skips the value of any
/// member whose key is not in `names` or was already read, so a duplicated
/// key keeps its first value.  It returns -1 past the last member.
class Members {
 public:
  template <std::size_t N>
  Members(JsonCursor& c, const std::string_view (&names)[N])
      : c_(c), names_(names), n_(N), more_(c.begin_object()) {
    static_assert(N <= 32, "one bit per name");
  }

  int next() {
    if (claimed_) {
      claimed_ = false;
      more_ = c_.next_member();
    }
    for (; more_; more_ = c_.next_member()) {
      // In the writer's field order the next member is the name after the
      // last one read.
      const int i = guess_ < n_ && c_.key_is(names_[guess_])
                        ? static_cast<int>(guess_)
                        : index_of(c_.key());
      if (i >= 0 && !(read_ >> i & 1)) {
        read_ |= 1u << i;
        guess_ = static_cast<std::size_t>(i) + 1;
        claimed_ = true;
        return i;
      }
      c_.skip_value();
    }
    return -1;
  }

  /// Fails naming the first of `fields` that no member supplied.
  void require(std::initializer_list<int> fields) const {
    for (int i : fields)
      DISCS_CHECK_MSG(read_ >> i & 1,
                      "json: missing field '" << names_[i] << "'");
  }

 private:
  JsonCursor& c_;
  const std::string_view* names_;
  std::size_t n_;
  bool more_;
  bool claimed_ = false;
  std::uint32_t read_ = 0;  ///< bit i: names_[i] was read
  std::size_t guess_ = 0;

  int index_of(std::string_view key) const {
    for (std::size_t i = 0; i < n_; ++i)
      if (names_[i] == key) return static_cast<int>(i);
    return -1;
  }
};

/// Reads an array, calling `element()` to read each element.
template <class Element>
void read_list(JsonCursor& c, Element element) {
  for (bool more = c.begin_array(); more; more = c.next_element()) element();
}

/// Reads an array of exactly N unsigned integers ("write pair" and such).
template <std::size_t N>
std::array<std::uint64_t, N> read_tuple(JsonCursor& c, std::string_view what) {
  std::array<std::uint64_t, N> out{};
  std::size_t n = 0;
  read_list(c, [&] {
    DISCS_CHECK_MSG(n < N, "trace: malformed " << what);
    out[n++] = c.read_uint();
  });
  DISCS_CHECK_MSG(n == N, "trace: malformed " << what);
  return out;
}

/// The string value of the first top-level member named `key` of the object
/// in `line`, read only as far as that member.
std::string first_string_member(std::string_view line, std::string_view key) {
  JsonCursor c(line);
  for (bool more = c.begin_object(); more; more = c.next_member()) {
    if (c.key_is(key) || c.key() == key) return std::string(c.read_string());
    c.skip_value();
  }
  DISCS_CHECK_MSG(false, "json: missing field '" << key << "'");
  return {};
}

void read_msg(JsonCursor& c, ExportedMessage& m) {
  enum { kId, kSrc, kDst, kKind, kDesc, kValues, kBytes, kRotReq, kRotRep,
         kRotObjs, kRotVals };
  static constexpr std::string_view kFields[] = {
      "id",     "src",    "dst",    "kind",    "desc",   "values",
      "bytes",  "rotreq", "rotrep", "rotobjs", "rotvals"};
  Members f(c, kFields);
  for (int field; (field = f.next()) >= 0;) {
    switch (field) {
      case kId: m.id = MsgId(c.read_uint()); break;
      case kSrc: m.src = ProcessId(c.read_uint()); break;
      case kDst: m.dst = ProcessId(c.read_uint()); break;
      case kKind: m.kind = c.read_string(); break;
      case kDesc: m.desc = c.read_string(); break;
      case kValues:
        read_list(c, [&] { m.values.emplace_back(c.read_uint()); });
        break;
      case kBytes: m.bytes = c.read_uint(); break;
      case kRotReq:
        read_list(c, [&] { m.req_txs.push_back(c.read_uint()); });
        break;
      case kRotRep:
        read_list(c, [&] { m.rep_txs.push_back(c.read_uint()); });
        break;
      case kRotObjs:
        read_list(c, [&] {
          auto [tx, obj] = read_tuple<2>(c, "rotobjs pair");
          m.req_objs.emplace_back(tx, obj);
        });
        break;
      case kRotVals:
        read_list(c, [&] {
          m.reads.push_back(read_tuple<3>(c, "rotvals triple"));
        });
        break;
    }
  }
  f.require({kId, kSrc, kDst, kKind, kDesc, kValues, kBytes});
}

/// The id a message object written the writer's way starts with.
std::optional<std::uint64_t> leading_id(std::string_view object) {
  constexpr std::string_view kOpen = "{\"id\":";
  if (!object.starts_with(kOpen)) return std::nullopt;
  std::uint64_t id = 0;
  const char* end = object.data() + object.size();
  if (std::from_chars(object.data() + kOpen.size(), end, id).ec != std::errc())
    return std::nullopt;
  return id;
}

TxSpec read_tx_spec(JsonCursor& c) {
  enum { kId, kReads, kWrites };
  TxSpec spec;
  static constexpr std::string_view kFields[] = {"id", "reads", "writes"};
  Members f(c, kFields);
  for (int field; (field = f.next()) >= 0;) {
    switch (field) {
      case kId: spec.id = TxId(c.read_uint()); break;
      case kReads:
        read_list(c, [&] { spec.read_set.emplace_back(c.read_uint()); });
        break;
      case kWrites:
        read_list(c, [&] {
          auto [obj, v] = read_tuple<2>(c, "write pair");
          spec.write_set.emplace_back(ObjectId(obj), ValueId(v));
        });
        break;
    }
  }
  f.require({kId, kReads, kWrites});
  return spec;
}

hist::ReadOp read_read_op(JsonCursor& c) {
  enum { kObject, kValue, kResponded };
  hist::ReadOp op;
  Json value;  // typed only once the read is known to have responded
  static constexpr std::string_view kFields[] = {"object", "value",
                                                  "responded"};
  Members f(c, kFields);
  for (int field; (field = f.next()) >= 0;) {
    switch (field) {
      case kObject: op.object = ObjectId(c.read_uint()); break;
      case kValue: value = c.read_value(); break;
      case kResponded: op.responded = c.read_bool(); break;
    }
  }
  f.require({kObject, kResponded});
  if (op.responded) {
    f.require({kValue});
    op.value = ValueId(value.as_uint());
  }
  return op;
}

hist::WriteOp read_write_op(JsonCursor& c) {
  enum { kObject, kValue, kAcked };
  hist::WriteOp w;
  static constexpr std::string_view kFields[] = {"object", "value", "acked"};
  Members f(c, kFields);
  for (int field; (field = f.next()) >= 0;) {
    switch (field) {
      case kObject: w.object = ObjectId(c.read_uint()); break;
      case kValue: w.value = ValueId(c.read_uint()); break;
      case kAcked: w.acked = c.read_bool(); break;
    }
  }
  f.require({kObject, kValue, kAcked});
  return w;
}

hist::TxRecord read_tx(JsonCursor& c) {
  enum { kId, kClient, kInvoked, kCompleted, kInvokeSeq, kCompleteSeq,
         kReads, kWrites };
  hist::TxRecord t;
  static constexpr std::string_view kFields[] = {
      "id",         "client",       "invoked", "completed",
      "invoke_seq", "complete_seq", "reads",   "writes"};
  Members f(c, kFields);
  for (int field; (field = f.next()) >= 0;) {
    switch (field) {
      case kId: t.id = TxId(c.read_uint()); break;
      case kClient: t.client = ProcessId(c.read_uint()); break;
      case kInvoked: t.invoked = c.read_bool(); break;
      case kCompleted: t.completed = c.read_bool(); break;
      case kInvokeSeq: t.invoke_seq = c.read_uint(); break;
      case kCompleteSeq: t.complete_seq = c.read_uint(); break;
      case kReads:
        read_list(c, [&] { t.reads.push_back(read_read_op(c)); });
        break;
      case kWrites:
        read_list(c, [&] { t.writes.push_back(read_write_op(c)); });
        break;
    }
  }
  f.require({kId, kClient, kInvoked, kCompleted, kInvokeSeq, kCompleteSeq,
             kReads, kWrites});
  return t;
}

/// Reads an artifact line by line into one TraceDoc.
class Importer {
 public:
  void line(std::string_view line) {
    DISCS_CHECK_MSG(!saw_footer_, "trace: record after footer");
    const std::string name = first_string_member(line, "record");
    const std::string_view record = name;
    if (record == "header") return header(line);
    DISCS_CHECK_MSG(saw_header_, "trace: first record must be the header");
    JsonCursor c(line);
    if (record == "invoke") {
      invoke(c);
    } else if (record == "event") {
      event(line, c);
    } else if (record == "span") {
      span(c);
    } else if (record == "tx") {
      doc_.history.add(read_tx(c));
    } else if (record == "footer") {
      footer(c);
    } else {
      DISCS_CHECK_MSG(false, "trace: unknown record '" << record << "'");
    }
    c.finish();
  }

  TraceDoc finish() {
    DISCS_CHECK_MSG(saw_header_, "trace: missing header");
    DISCS_CHECK_MSG(saw_footer_, "trace: missing footer");
    return std::move(doc_);
  }

 private:
  TraceDoc doc_;
  bool saw_header_ = false;
  bool saw_footer_ = false;
  /// Per message id: its first entry, and the bytes of the first object
  /// read for it (a view into the imported text).
  struct First {
    std::uint32_t entry;
    std::string_view bytes;
  };
  std::unordered_map<std::uint64_t, First> first_;
  std::vector<std::uint32_t> consumed_, sent_;  ///< one step's, reused

  /// Reads one message object and returns its table entry.  A repeat in
  /// the bytes of its id's first object is that entry and is not parsed;
  /// any other object is parsed, and takes its id's first entry only when
  /// every field equals it.  Either way the object's text is consumed, and
  /// a malformed one is rejected exactly as the parser rejects it.
  std::uint32_t read_msg_ref(JsonCursor& c) {
    const std::string_view rest = c.rest();
    if (const auto id = leading_id(rest)) {
      const auto it = first_.find(*id);
      if (it != first_.end() && rest.starts_with(it->second.bytes)) {
        c.advance(it->second.bytes.size());
        return it->second.entry;
      }
    }
    const std::size_t start = c.offset();
    ExportedMessage m;
    read_msg(c, m);
    const auto i = static_cast<std::uint32_t>(doc_.messages.size());
    const auto [it, fresh] = first_.try_emplace(
        m.id.value(), First{i, rest.substr(0, c.offset() - start)});
    if (!fresh && doc_.messages[it->second.entry] == m)
      return it->second.entry;
    doc_.messages.push_back(std::move(m));
    return i;
  }

  void read_msg_refs(JsonCursor& c, std::vector<std::uint32_t>& out) {
    out.clear();
    read_list(c, [&] { out.push_back(read_msg_ref(c)); });
  }

  void header(std::string_view line) {
    DISCS_CHECK_MSG(!saw_header_, "trace: duplicate header");
    saw_header_ = true;
    const Json j = Json::parse(line);
    doc_.schema = j.get("schema").as_string();
    DISCS_CHECK_MSG(
        doc_.schema == kTraceSchema || doc_.schema == kTraceSchemaV2,
        "trace: unsupported schema '" << doc_.schema << "' (expected "
                                      << kTraceSchema << " or "
                                      << kTraceSchemaV2 << ")");
    doc_.protocol = j.get("protocol").as_string();
    doc_.scenario = j.get("scenario").as_string();
    doc_.cluster = cluster_config_from_json(j.get("cluster"));
    for (const auto& pair : j.get("initial").as_array()) {
      const auto& kv = pair.as_array();
      DISCS_CHECK_MSG(kv.size() == 2, "trace: malformed initial pair");
      doc_.initial[ObjectId(kv[0].as_uint())] = ValueId(kv[1].as_uint());
      doc_.history.set_initial(ObjectId(kv[0].as_uint()),
                               ValueId(kv[1].as_uint()));
    }
  }

  void invoke(JsonCursor& c) {
    enum { kAt, kClient, kTx };
    InvokeRecord& inv = doc_.invokes.emplace_back();
    static constexpr std::string_view kFields[] = {"at", "client", "tx"};
    Members f(c, kFields);
    for (int field; (field = f.next()) >= 0;) {
      switch (field) {
        case kAt: inv.at = c.read_uint(); break;
        case kClient: inv.client = ProcessId(c.read_uint()); break;
        case kTx: inv.spec = read_tx_spec(c); break;
      }
    }
    f.require({kAt, kClient, kTx});
  }

  // Which members an event reads depends on its kind, so the kind is read
  // first, wherever the line puts it.
  void event(std::string_view line, JsonCursor& c) {
    const std::string name = first_string_member(line, "kind");
    const std::optional<sim::Event::Kind> kind = event_kind_from(name);
    // Every kind but step and deliver is a v2 fault event.
    if (kind != sim::Event::Kind::kStep && kind != sim::Event::Kind::kDeliver)
      DISCS_CHECK_MSG(doc_.schema == kTraceSchemaV2,
                      "trace: fault event '" << name << "' under a "
                                             << doc_.schema << " header");
    DISCS_CHECK_MSG(kind, "trace: unknown event kind '" << name << "'");
    const bool step = kind == sim::Event::Kind::kStep;
    const bool crash = kind == sim::Event::Kind::kCrash;
    const bool names_process =
        step || crash || kind == sim::Event::Kind::kRestart;

    enum { kSeq, kProcess, kConsumed, kSent, kMsg, kLossy };
    // Filled in place: a rejected line aborts the whole import anyway.
    ExportedEvent& e = doc_.events.emplace_back();
    ProcessId process;
    bool lossy = false;
    static constexpr std::string_view kFields[] = {
        "seq", "process", "consumed", "sent", "msg", "lossy"};
    Members f(c, kFields);
    for (int field; (field = f.next()) >= 0;) {
      // A member this kind does not use is skipped unread.
      switch (field) {
        case kSeq: e.seq = c.read_uint(); break;
        case kProcess:
          if (names_process) process = ProcessId(c.read_uint());
          else c.skip_value();
          break;
        case kConsumed:
          if (step) read_msg_refs(c, consumed_);
          else c.skip_value();
          break;
        case kSent:
          if (step) read_msg_refs(c, sent_);
          else c.skip_value();
          break;
        case kMsg:
          if (!names_process) e.msg = read_msg_ref(c);
          else c.skip_value();
          break;
        case kLossy:
          if (crash) lossy = c.read_bool();
          else c.skip_value();
          break;
      }
    }
    f.require({kSeq});
    if (step) {
      f.require({kProcess, kConsumed, kSent});
      // Consumed before sent in refs, whichever the line put first.
      e.first = static_cast<std::uint32_t>(doc_.refs.size());
      e.consumed = static_cast<std::uint32_t>(consumed_.size());
      e.sent = static_cast<std::uint32_t>(sent_.size());
      doc_.refs.insert(doc_.refs.end(), consumed_.begin(), consumed_.end());
      doc_.refs.insert(doc_.refs.end(), sent_.begin(), sent_.end());
    }
    if (crash) f.require({kProcess, kLossy});
    if (names_process) {
      f.require({kProcess});
      e.event = sim::Event{*kind, process, MsgId::invalid(), lossy};
    } else {
      // deliver / drop / dup / retransmit: one affected message each.
      f.require({kMsg});
      e.event =
          sim::Event{*kind, ProcessId::invalid(), doc_.messages[e.msg].id};
    }
    DISCS_CHECK_MSG(e.seq + 1 == doc_.events.size(),
                    "trace: event seq " << e.seq << " out of order");
  }

  void span(JsonCursor& c) {
    DISCS_CHECK_MSG(doc_.cluster.record_spans,
                    "trace: span record without record_spans in header");
    enum { kKind, kTx, kProc, kAt, kRound };
    SpanNote& s = doc_.spans.emplace_back();
    static constexpr std::string_view kFields[] = {"kind", "tx", "proc", "at",
                                                    "round"};
    Members f(c, kFields);
    for (int field; (field = f.next()) >= 0;) {
      switch (field) {
        case kKind: s.kind = span_kind_from(c.read_string()); break;
        case kTx: s.tx = c.read_uint(); break;
        case kProc: s.proc = c.read_uint(); break;
        case kAt: s.at = c.read_uint(); break;
        case kRound: s.round = c.read_uint(); break;
      }
    }
    f.require({kKind, kTx, kProc, kAt, kRound});
  }

  void footer(JsonCursor& c) {
    enum { kEvents, kFinalDigest };
    std::uint64_t events = 0;
    static constexpr std::string_view kFields[] = {"events", "final_digest"};
    Members f(c, kFields);
    for (int field; (field = f.next()) >= 0;) {
      switch (field) {
        case kEvents: events = c.read_uint(); break;
        case kFinalDigest: doc_.final_digest = c.read_string(); break;
      }
    }
    f.require({kEvents, kFinalDigest});
    DISCS_CHECK_MSG(events == doc_.events.size(),
                    "trace: footer event count mismatch");
    saw_footer_ = true;
  }
};

}  // namespace

void append_event_line(std::string& out, const TraceDoc& doc,
                       const ExportedEvent& e) {
  out += "{\"record\":\"event\",\"seq\":";
  append_uint(out, e.seq);
  const std::string_view kind = event_kind_str(e.event.kind);
  out += ",\"kind\":\"";
  out += kind;
  out += '"';
  switch (e.event.kind) {
    case sim::Event::Kind::kStep:
      out += ",\"process\":";
      append_uint(out, e.event.process.value());
      out += ",\"consumed\":";
      append_msgs(out, doc.consumed(e));
      out += ",\"sent\":";
      append_msgs(out, doc.sent(e));
      break;
    case sim::Event::Kind::kCrash:
      out += ",\"process\":";
      append_uint(out, e.event.process.value());
      out += ",\"lossy\":";
      append_bool(out, e.event.lossy);
      break;
    case sim::Event::Kind::kRestart:
      out += ",\"process\":";
      append_uint(out, e.event.process.value());
      break;
    case sim::Event::Kind::kDeliver:
    case sim::Event::Kind::kDrop:
    case sim::Event::Kind::kDuplicate:
    case sim::Event::Kind::kRetransmit:
      // One affected message each.
      DISCS_CHECK_MSG(e.msg < doc.messages.size(),
                      "trace: " << kind << " event without message");
      out += ",\"msg\":";
      append_msg(out, doc.messages[e.msg]);
      break;
  }
  out += '}';
}

std::string export_prefix_jsonl(const TraceDoc& doc) {
  std::string out = header_json(doc).dump();
  out += '\n';
  for (const auto& inv : doc.invokes) {
    append_invoke_line(out, inv);
    out += '\n';
  }
  return out;
}

std::string export_suffix_jsonl(const TraceDoc& doc, std::uint64_t events) {
  std::string out;
  for (const auto& s : doc.spans) {
    append_span_line(out, s);
    out += '\n';
  }
  for (const auto& t : doc.history.txs()) {
    append_tx_line(out, t);
    out += '\n';
  }
  out += "{\"record\":\"footer\",\"events\":";
  append_uint(out, events);
  out += ",\"final_digest\":";
  append_quoted(out, doc.final_digest);
  out += "}\n";
  return out;
}

std::string export_jsonl(const TraceDoc& doc) {
  std::string out = export_prefix_jsonl(doc);
  for (const auto& e : doc.events) {
    append_event_line(out, doc, e);
    out += '\n';
  }
  out += export_suffix_jsonl(doc, doc.events.size());
  return out;
}

TraceDoc import_jsonl(std::string_view text) {
  Importer in;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    try {
      in.line(line);
    } catch (const CheckFailure& e) {
      DISCS_CHECK_MSG(false, "trace line " << line_no << ": " << e.what());
    }
  }
  return in.finish();
}

// --- replay ----------------------------------------------------------------

DocReplay replay_doc(const TraceDoc& doc, const proto::Protocol& protocol) {
  DocReplay out;
  if (protocol.name() != doc.protocol) {
    out.error = cat("protocol mismatch: document was recorded with '",
                    doc.protocol, "', got '", protocol.name(), "'");
    return out;
  }

  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = protocol.build(sim, doc.cluster, ids);
  if (cluster.initial_values != doc.initial) {
    out.error = "initial values diverged from the document (non-"
                "deterministic build?)";
    return out;
  }

  std::size_t next_invoke = 0;
  auto run_invokes = [&]() {
    while (next_invoke < doc.invokes.size() &&
           doc.invokes[next_invoke].at <= sim.now()) {
      const InvokeRecord& inv = doc.invokes[next_invoke++];
      sim.process_as<ClientBase>(inv.client).invoke(inv.spec);
    }
  };

  for (const auto& e : doc.events) {
    run_invokes();
    if (!sim.apply(e.event)) {
      out.error = cat("replay diverged: event #", e.seq, " (",
                      e.event.describe(), ") was not applicable");
      return out;
    }
    ++out.applied;
  }
  run_invokes();

  out.history = proto::collect_history(sim, cluster.clients,
                                       cluster.initial_values);
  out.digest_match = sim.digest() == doc.final_digest;
  out.reexport = make_doc(protocol, doc.scenario, doc.cluster, sim, cluster,
                          doc.invokes);
  out.ok = out.digest_match;
  if (!out.digest_match)
    out.error = "final configuration digest does not match the document";
  return out;
}

DocReplay replay_doc(const TraceDoc& doc) {
  auto protocol = proto::protocol_by_name(doc.protocol);
  return replay_doc(doc, *protocol);
}

// --- capture scenarios -----------------------------------------------------

namespace {

/// Couples a simulation with the invocation log the exporter needs.
struct Capture {
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster;
  std::vector<InvokeRecord> invokes;

  void invoke(ProcessId client, const TxSpec& spec) {
    invokes.push_back({sim.now(), client, spec});
    sim.process_as<ClientBase>(client).invoke(spec);
  }

  bool completed(ProcessId client, TxId tx) const {
    return sim.process_as<const ClientBase>(client).has_completed(tx);
  }

  void run_until_completed(ProcessId client, TxId tx, std::size_t budget) {
    sim::run_fair(sim, {},
                  [&](const sim::Simulation& s) {
                    return s.process_as<const ClientBase>(client)
                        .has_completed(tx);
                  },
                  budget);
  }
};

// Quiescence phases drain propagation; protocols with periodic background
// gossip (wren) never go idle, so this is a hard cap on drain length rather
// than a wait.  Propagation in the default 2-server cluster takes tens of
// events; 1500 leaves a wide margin without bloating artifacts.
constexpr std::size_t kDrainBudget = 1500;

TxSpec richest_write(Capture& cap, const proto::Protocol& protocol) {
  return protocol.supports_write_tx()
             ? cap.ids.write_tx(cap.cluster.view.objects)
             : cap.ids.write_one(cap.cluster.view.objects[0]);
}

void scenario_quickread(Capture& cap, const proto::Protocol& protocol) {
  TxSpec w = richest_write(cap, protocol);
  cap.invoke(cap.cluster.clients[0], w);
  sim::run_to_quiescence(cap.sim, {}, kDrainBudget);

  TxSpec rot = cap.ids.read_tx(cap.cluster.view.objects);
  cap.invoke(cap.cluster.clients[1], rot);
  cap.run_until_completed(cap.cluster.clients[1], rot.id, 60000);
}

void scenario_mixed(Capture& cap, const proto::Protocol& protocol) {
  const auto& objects = cap.cluster.view.objects;
  for (int round = 0; round < 3; ++round) {
    TxSpec w = protocol.supports_write_tx()
                   ? cap.ids.write_tx(objects)
                   : cap.ids.write_one(objects[round % objects.size()]);
    cap.invoke(cap.cluster.clients[0], w);
    TxSpec r1 = cap.ids.read_tx(objects);
    cap.invoke(cap.cluster.clients[1], r1);
    cap.run_until_completed(cap.cluster.clients[1], r1.id, 60000);
    TxSpec r2 = cap.ids.read_tx({objects[0]});
    cap.invoke(cap.cluster.clients[2], r2);
    cap.run_until_completed(cap.cluster.clients[2], r2.id, 60000);
    sim::run_to_quiescence(cap.sim, {}, kDrainBudget);
  }
}

void scenario_violation(Capture& cap, const proto::Protocol& protocol) {
  ProcessId writer = cap.cluster.clients[0];
  ProcessId reader = cap.cluster.clients[1];
  const auto& view = cap.cluster.view;

  // Reach the paper's C0: the writer has read the initial values and the
  // network is idle.
  TxSpec t_in_r = cap.ids.read_tx(view.objects);
  cap.invoke(writer, t_in_r);
  cap.run_until_completed(writer, t_in_r.id, 60000);
  sim::run_to_quiescence(cap.sim, {}, kDrainBudget);

  // Invoke Tw and let the writer take one step (fanning out its writes),
  // then deliver ONLY what is destined to the last server.  Against
  // naivefast the value lands (immediate visibility) while the first
  // server still serves the initial value.
  TxSpec tw = richest_write(cap, protocol);
  cap.invoke(writer, tw);
  cap.sim.step(writer);
  ProcessId last = view.servers.back();
  cap.sim.deliver_between(writer, last);
  cap.sim.step(last);

  // A reader runs to completion against the half-delivered write; its
  // participants exclude the writer so nothing else drains.
  TxSpec rot = cap.ids.read_tx(view.objects);
  cap.invoke(reader, rot);
  std::vector<ProcessId> participants{reader};
  for (auto s : view.servers) participants.push_back(s);
  sim::run_fair(cap.sim, participants,
                [&](const sim::Simulation& s) {
                  return s.process_as<const ClientBase>(reader).has_completed(
                      rot.id);
                },
                20000);

  // Release the rest of the schedule so Tw (and its history record, which
  // the checker needs) completes where the protocol allows it.
  sim::run_to_quiescence(cap.sim, {}, kDrainBudget);
}

}  // namespace

std::vector<std::string> exportable_scenarios() {
  return {"quickread", "mixed", "violation"};
}

TraceDoc capture_scenario(const proto::Protocol& protocol,
                          const std::string& scenario,
                          const ClusterConfig& cfg) {
  Capture cap;
  cap.cluster = protocol.build(cap.sim, cfg, cap.ids);
  DISCS_CHECK_MSG(cap.cluster.clients.size() >= 3,
                  "exportable scenarios need at least 3 clients");

  if (scenario == "quickread") {
    scenario_quickread(cap, protocol);
  } else if (scenario == "mixed") {
    scenario_mixed(cap, protocol);
  } else if (scenario == "violation") {
    scenario_violation(cap, protocol);
  } else {
    DISCS_CHECK_MSG(false, "unknown exportable scenario '"
                               << scenario << "' (expected "
                               << join(exportable_scenarios(), " | ") << ")");
  }

  return make_doc(protocol, scenario, cfg, cap.sim, cap.cluster,
                  std::move(cap.invokes));
}

TraceDoc capture_faulted(const proto::Protocol& protocol,
                         const FaultedCaptureOptions& options) {
  Capture cap;
  cap.cluster = protocol.build(cap.sim, options.cluster, cap.ids);
  DISCS_CHECK_MSG(cap.cluster.clients.size() >= 2,
                  "capture_faulted needs at least 2 clients");
  fault::FaultSession session(
      options.plan, {cap.cluster.view.servers, cap.cluster.clients});

  auto drive_until_completed = [&](ProcessId client, TxId tx) {
    fault::run_fair_faulted(
        cap.sim, session, {},
        [&](const sim::Simulation& s) {
          return s.process_as<const ClientBase>(client).has_completed(tx);
        },
        options.budget);
  };

  TxSpec w = richest_write(cap, protocol);
  cap.invoke(cap.cluster.clients[0], w);
  drive_until_completed(cap.cluster.clients[0], w.id);

  TxSpec rot = cap.ids.read_tx(cap.cluster.view.objects);
  cap.invoke(cap.cluster.clients[1], rot);
  drive_until_completed(cap.cluster.clients[1], rot.id);

  std::string scenario =
      cat("faulted:", options.plan.name.empty() ? "(unnamed)"
                                                : options.plan.name.c_str());
  return make_doc(protocol, std::move(scenario), options.cluster, cap.sim,
                  cap.cluster, std::move(cap.invokes));
}

WorkloadCapture capture_workload(const proto::Protocol& protocol,
                                 const WorkloadCaptureOptions& options) {
  WorkloadCapture out;
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = protocol.build(sim, options.cluster, ids);
  out.result = wl::run_workload_sequential(sim, protocol, cluster, ids,
                                           options.workload);
  std::vector<InvokeRecord> invokes;
  for (const auto& w : out.result.windows)
    invokes.push_back({w.invoked_at, w.client, w.spec});
  out.doc = make_doc(protocol, cat("workload:seed", options.workload.seed),
                     options.cluster, sim, cluster, std::move(invokes));
  return out;
}

}  // namespace discs::obs
