#include "obs/trace_io.h"

#include <algorithm>
#include <sstream>

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

ExportedEvent export_event_record(const sim::EventRecord& rec, bool spans,
                                  bool& fault) {
  ExportedEvent e;
  e.event = rec.event;
  e.seq = rec.seq;
  for (const auto& m : rec.consumed)
    e.consumed.push_back(ExportedMessage::from(m, spans));
  for (const auto& m : rec.sent)
    e.sent.push_back(ExportedMessage::from(m, spans));
  switch (rec.event.kind) {
    case sim::Event::Kind::kStep:
      break;
    case sim::Event::Kind::kDeliver:
    case sim::Event::Kind::kDrop:
    case sim::Event::Kind::kDuplicate:
    case sim::Event::Kind::kRetransmit:
      e.delivered = ExportedMessage::from(rec.delivered, spans);
      fault |= rec.event.kind != sim::Event::Kind::kDeliver;
      break;
    case sim::Event::Kind::kCrash:
    case sim::Event::Kind::kRestart:
      fault = true;
      break;
  }
  return e;
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
  const bool spans = cfg.record_spans;
  bool any_fault = false;
  for (const auto& rec : sim.trace().records())
    doc.events.push_back(export_event_record(rec, spans, any_fault));
  // Fault-free documents keep the v1 header so their bytes are identical to
  // what a v1 exporter wrote (see trace_io.h).
  doc.schema = any_fault ? std::string(kTraceSchemaV2)
                         : std::string(kTraceSchema);
  if (spans) doc.spans = SpanLog::global().notes();
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

Json msg_json(const ExportedMessage& m) {
  JsonArray values;
  for (auto v : m.values) values.push_back(Json(v.value()));
  JsonObject obj{{"id", Json(m.id.value())},
                 {"src", Json(m.src.value())},
                 {"dst", Json(m.dst.value())},
                 {"kind", Json(m.kind)},
                 {"desc", Json(m.desc)},
                 {"values", Json(std::move(values))},
                 {"bytes", Json(m.bytes)}};
  // Cause annotations are optional fields: emitted only when non-empty
  // (i.e. only in record_spans captures), so span-free artifacts keep
  // their exact bytes.
  if (!m.req_txs.empty()) {
    JsonArray a;
    for (auto tx : m.req_txs) a.push_back(Json(tx));
    obj.emplace_back("rotreq", Json(std::move(a)));
  }
  if (!m.rep_txs.empty()) {
    JsonArray a;
    for (auto tx : m.rep_txs) a.push_back(Json(tx));
    obj.emplace_back("rotrep", Json(std::move(a)));
  }
  if (!m.req_objs.empty()) {
    JsonArray a;
    for (const auto& [tx, o] : m.req_objs)
      a.push_back(Json(JsonArray{Json(tx), Json(o)}));
    obj.emplace_back("rotobjs", Json(std::move(a)));
  }
  if (!m.reads.empty()) {
    JsonArray a;
    for (const auto& r : m.reads)
      a.push_back(Json(JsonArray{Json(r[0]), Json(r[1]), Json(r[2])}));
    obj.emplace_back("rotvals", Json(std::move(a)));
  }
  return Json(std::move(obj));
}

ExportedMessage msg_from_json(const Json& j) {
  ExportedMessage m;
  m.id = MsgId(j.get("id").as_uint());
  m.src = ProcessId(j.get("src").as_uint());
  m.dst = ProcessId(j.get("dst").as_uint());
  m.kind = j.get("kind").as_string();
  m.desc = j.get("desc").as_string();
  for (const auto& v : j.get("values").as_array())
    m.values.push_back(ValueId(v.as_uint()));
  m.bytes = j.get("bytes").as_uint();
  if (const Json* a = j.find("rotreq"))
    for (const auto& tx : a->as_array()) m.req_txs.push_back(tx.as_uint());
  if (const Json* a = j.find("rotrep"))
    for (const auto& tx : a->as_array()) m.rep_txs.push_back(tx.as_uint());
  if (const Json* a = j.find("rotobjs"))
    for (const auto& pair : a->as_array()) {
      const auto& kv = pair.as_array();
      DISCS_CHECK_MSG(kv.size() == 2, "trace: malformed rotobjs pair");
      m.req_objs.emplace_back(kv[0].as_uint(), kv[1].as_uint());
    }
  if (const Json* a = j.find("rotvals"))
    for (const auto& triple : a->as_array()) {
      const auto& kv = triple.as_array();
      DISCS_CHECK_MSG(kv.size() == 3, "trace: malformed rotvals triple");
      m.reads.push_back({kv[0].as_uint(), kv[1].as_uint(), kv[2].as_uint()});
    }
  return m;
}

Json tx_spec_json(const TxSpec& spec) {
  JsonArray reads, writes;
  for (auto obj : spec.read_set) reads.push_back(Json(obj.value()));
  for (const auto& [obj, v] : spec.write_set)
    writes.push_back(Json(JsonArray{Json(obj.value()), Json(v.value())}));
  return Json(JsonObject{{"id", Json(spec.id.value())},
                         {"reads", Json(std::move(reads))},
                         {"writes", Json(std::move(writes))}});
}

TxSpec tx_spec_from_json(const Json& j) {
  TxSpec spec;
  spec.id = TxId(j.get("id").as_uint());
  for (const auto& o : j.get("reads").as_array())
    spec.read_set.push_back(ObjectId(o.as_uint()));
  for (const auto& w : j.get("writes").as_array()) {
    const auto& pair = w.as_array();
    DISCS_CHECK_MSG(pair.size() == 2, "trace: malformed write pair");
    spec.write_set.emplace_back(ObjectId(pair[0].as_uint()),
                                ValueId(pair[1].as_uint()));
  }
  return spec;
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

Json event_json(const ExportedEvent& e) {
  JsonObject obj{{"record", Json("event")}, {"seq", Json(e.seq)}};
  if (e.event.kind == sim::Event::Kind::kStep) {
    obj.emplace_back("kind", Json("step"));
    obj.emplace_back("process", Json(e.event.process.value()));
    JsonArray consumed, sent;
    for (const auto& m : e.consumed) consumed.push_back(msg_json(m));
    for (const auto& m : e.sent) sent.push_back(msg_json(m));
    obj.emplace_back("consumed", Json(std::move(consumed)));
    obj.emplace_back("sent", Json(std::move(sent)));
  } else if (e.event.kind == sim::Event::Kind::kCrash) {
    obj.emplace_back("kind", Json("crash"));
    obj.emplace_back("process", Json(e.event.process.value()));
    obj.emplace_back("lossy", Json(e.event.lossy));
  } else if (e.event.kind == sim::Event::Kind::kRestart) {
    obj.emplace_back("kind", Json("restart"));
    obj.emplace_back("process", Json(e.event.process.value()));
  } else {
    // deliver / drop / dup / retransmit: one affected message each.
    std::string_view kind;
    switch (e.event.kind) {
      case sim::Event::Kind::kDeliver: kind = "deliver"; break;
      case sim::Event::Kind::kDrop: kind = "drop"; break;
      case sim::Event::Kind::kDuplicate: kind = "dup"; break;
      default: kind = "retransmit"; break;
    }
    obj.emplace_back("kind", Json(std::string(kind)));
    DISCS_CHECK_MSG(e.delivered.has_value(),
                    "trace: " << kind << " event without message");
    obj.emplace_back("msg", msg_json(*e.delivered));
  }
  return Json(std::move(obj));
}

Json tx_json(const hist::TxRecord& t) {
  JsonArray reads, writes;
  for (const auto& r : t.reads)
    reads.push_back(Json(JsonObject{
        {"object", Json(r.object.value())},
        {"value", r.responded ? Json(r.value.value()) : Json(nullptr)},
        {"responded", Json(r.responded)}}));
  for (const auto& w : t.writes)
    writes.push_back(Json(JsonObject{{"object", Json(w.object.value())},
                                     {"value", Json(w.value.value())},
                                     {"acked", Json(w.acked)}}));
  return Json(JsonObject{{"record", Json("tx")},
                         {"id", Json(t.id.value())},
                         {"client", Json(t.client.value())},
                         {"invoked", Json(t.invoked)},
                         {"completed", Json(t.completed)},
                         {"invoke_seq", Json(t.invoke_seq)},
                         {"complete_seq", Json(t.complete_seq)},
                         {"reads", Json(std::move(reads))},
                         {"writes", Json(std::move(writes))}});
}

hist::TxRecord tx_from_json(const Json& j) {
  hist::TxRecord t;
  t.id = TxId(j.get("id").as_uint());
  t.client = ProcessId(j.get("client").as_uint());
  t.invoked = j.get("invoked").as_bool();
  t.completed = j.get("completed").as_bool();
  t.invoke_seq = j.get("invoke_seq").as_uint();
  t.complete_seq = j.get("complete_seq").as_uint();
  for (const auto& r : j.get("reads").as_array()) {
    hist::ReadOp op;
    op.object = ObjectId(r.get("object").as_uint());
    op.responded = r.get("responded").as_bool();
    if (op.responded) op.value = ValueId(r.get("value").as_uint());
    t.reads.push_back(op);
  }
  for (const auto& w : j.get("writes").as_array())
    t.writes.push_back({ObjectId(w.get("object").as_uint()),
                        ValueId(w.get("value").as_uint()),
                        w.get("acked").as_bool()});
  return t;
}

}  // namespace

std::string event_line(const ExportedEvent& e) { return event_json(e).dump(); }

std::string export_prefix_jsonl(const TraceDoc& doc) {
  std::string out;
  out += header_json(doc).dump();
  out += '\n';
  for (const auto& inv : doc.invokes) {
    out += Json(JsonObject{{"record", Json("invoke")},
                           {"at", Json(inv.at)},
                           {"client", Json(inv.client.value())},
                           {"tx", tx_spec_json(inv.spec)}})
               .dump();
    out += '\n';
  }
  return out;
}

std::string export_suffix_jsonl(const TraceDoc& doc, std::uint64_t events) {
  std::string out;
  for (const auto& s : doc.spans) {
    out += Json(JsonObject{{"record", Json("span")},
                           {"kind", Json(std::string(span_kind_str(s.kind)))},
                           {"tx", Json(s.tx)},
                           {"proc", Json(s.proc)},
                           {"at", Json(s.at)},
                           {"round", Json(s.round)}})
               .dump();
    out += '\n';
  }
  for (const auto& t : doc.history.txs()) {
    out += tx_json(t).dump();
    out += '\n';
  }
  out += Json(JsonObject{{"record", Json("footer")},
                         {"events", Json(events)},
                         {"final_digest", Json(doc.final_digest)}})
             .dump();
  out += '\n';
  return out;
}

std::string export_jsonl(const TraceDoc& doc) {
  std::string out = export_prefix_jsonl(doc);
  for (const auto& e : doc.events) {
    out += event_line(e);
    out += '\n';
  }
  out += export_suffix_jsonl(doc, doc.events.size());
  return out;
}

TraceDoc import_jsonl(std::string_view text) {
  TraceDoc doc;
  bool saw_header = false, saw_footer = false;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    Json j;
    try {
      j = Json::parse(line);
    } catch (const CheckFailure& e) {
      DISCS_CHECK_MSG(false, "trace line " << line_no << ": " << e.what());
    }
    const std::string& record = j.get("record").as_string();
    if (record == "header") {
      DISCS_CHECK_MSG(!saw_header, "trace: duplicate header");
      saw_header = true;
      doc.schema = j.get("schema").as_string();
      DISCS_CHECK_MSG(
          doc.schema == kTraceSchema || doc.schema == kTraceSchemaV2,
          "trace: unsupported schema '" << doc.schema << "' (expected "
                                        << kTraceSchema << " or "
                                        << kTraceSchemaV2 << ")");
      doc.protocol = j.get("protocol").as_string();
      doc.scenario = j.get("scenario").as_string();
      doc.cluster = cluster_config_from_json(j.get("cluster"));
      for (const auto& pair : j.get("initial").as_array()) {
        const auto& kv = pair.as_array();
        DISCS_CHECK_MSG(kv.size() == 2, "trace: malformed initial pair");
        doc.initial[ObjectId(kv[0].as_uint())] = ValueId(kv[1].as_uint());
        doc.history.set_initial(ObjectId(kv[0].as_uint()),
                                ValueId(kv[1].as_uint()));
      }
      continue;
    }
    DISCS_CHECK_MSG(saw_header, "trace: first record must be the header");
    if (record == "invoke") {
      InvokeRecord inv;
      inv.at = j.get("at").as_uint();
      inv.client = ProcessId(j.get("client").as_uint());
      inv.spec = tx_spec_from_json(j.get("tx"));
      doc.invokes.push_back(std::move(inv));
    } else if (record == "event") {
      ExportedEvent e;
      e.seq = j.get("seq").as_uint();
      const std::string& kind = j.get("kind").as_string();
      if (kind == "step") {
        e.event = sim::Event::step(ProcessId(j.get("process").as_uint()));
        for (const auto& m : j.get("consumed").as_array())
          e.consumed.push_back(msg_from_json(m));
        for (const auto& m : j.get("sent").as_array())
          e.sent.push_back(msg_from_json(m));
      } else if (kind == "deliver") {
        e.delivered = msg_from_json(j.get("msg"));
        e.event = sim::Event::deliver(e.delivered->id);
      } else {
        // Every remaining kind is a v2 fault event.
        DISCS_CHECK_MSG(doc.schema == kTraceSchemaV2,
                        "trace: fault event '" << kind << "' under a "
                                               << doc.schema << " header");
        if (kind == "drop") {
          e.delivered = msg_from_json(j.get("msg"));
          e.event = sim::Event::drop(e.delivered->id);
        } else if (kind == "dup") {
          e.delivered = msg_from_json(j.get("msg"));
          e.event = sim::Event::duplicate(e.delivered->id);
        } else if (kind == "retransmit") {
          e.delivered = msg_from_json(j.get("msg"));
          e.event = sim::Event::retransmit(e.delivered->id);
        } else if (kind == "crash") {
          e.event = sim::Event::crash(ProcessId(j.get("process").as_uint()),
                                      j.get("lossy").as_bool());
        } else if (kind == "restart") {
          e.event = sim::Event::restart(ProcessId(j.get("process").as_uint()));
        } else {
          DISCS_CHECK_MSG(false, "trace: unknown event kind '" << kind << "'");
        }
      }
      DISCS_CHECK_MSG(e.seq == doc.events.size(),
                      "trace: event seq " << e.seq << " out of order");
      doc.events.push_back(std::move(e));
    } else if (record == "span") {
      DISCS_CHECK_MSG(doc.cluster.record_spans,
                      "trace: span record without record_spans in header");
      SpanNote s;
      s.kind = span_kind_from(j.get("kind").as_string());
      s.tx = j.get("tx").as_uint();
      s.proc = j.get("proc").as_uint();
      s.at = j.get("at").as_uint();
      s.round = j.get("round").as_uint();
      doc.spans.push_back(s);
    } else if (record == "tx") {
      doc.history.add(tx_from_json(j));
    } else if (record == "footer") {
      saw_footer = true;
      DISCS_CHECK_MSG(j.get("events").as_uint() == doc.events.size(),
                      "trace: footer event count mismatch");
      doc.final_digest = j.get("final_digest").as_string();
    } else {
      DISCS_CHECK_MSG(false, "trace: unknown record '" << record << "'");
    }
  }
  DISCS_CHECK_MSG(saw_header, "trace: missing header");
  DISCS_CHECK_MSG(saw_footer, "trace: missing footer");
  return doc;
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
