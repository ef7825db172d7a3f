#include "obs/span_dag.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/check.h"
#include "util/fmt.h"

namespace discs::obs {

namespace {

bool contains(const std::vector<std::uint64_t>& v, std::uint64_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

std::string_view segment_kind_str(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::kClientThink: return "client_think";
    case SegmentKind::kNetRequest: return "net_request";
    case SegmentKind::kServerQueue: return "server_queue";
    case SegmentKind::kServerService: return "server_service";
    case SegmentKind::kNetReply: return "net_reply";
    case SegmentKind::kClientFinish: return "client_finish";
  }
  return "?";
}

std::uint64_t CriticalPath::total(SegmentKind kind) const {
  std::uint64_t sum = 0;
  for (const auto& s : segments)
    if (s.kind == kind) sum += s.length();
  return sum;
}

std::string CriticalPath::summary() const {
  std::ostringstream os;
  os << to_string(tx) << ": latency=" << latency();
  for (SegmentKind k :
       {SegmentKind::kClientThink, SegmentKind::kNetRequest,
        SegmentKind::kServerQueue, SegmentKind::kServerService,
        SegmentKind::kNetReply, SegmentKind::kClientFinish}) {
    std::uint64_t t = total(k);
    if (t > 0) os << " " << segment_kind_str(k) << "=" << t;
  }
  return os.str();
}

SpanDag::SpanDag(const TraceDoc& doc) : doc_(doc) {
  DISCS_CHECK_MSG(doc.cluster.record_spans,
                  "trace has no span annotations (re-capture with "
                  "record_spans enabled)");
  view_ = proto::make_view(doc.cluster, ProcessId(0));

  for (const auto& t : doc.history.txs()) {
    TxInfo ti;
    ti.id = t.id;
    ti.client = t.client;
    ti.read_only = !t.reads.empty() && t.writes.empty();
    ti.completed = t.completed;
    ti.invoke_seq = t.invoke_seq;
    ti.complete_seq = t.complete_seq;
    txs_.push_back(ti);
  }

  // Message lifecycle index.  First occurrence wins throughout: a
  // retransmitted or duplicated id keeps its original flight times, which
  // is what latency attribution wants.
  for (const auto& e : doc.events) {
    if (e.event.kind == sim::Event::Kind::kStep) {
      for (const auto& m : doc.consumed(e)) {
        auto& mt = msgs_[m.id.value()];
        if (!mt.msg) { mt.src = m.src; mt.dst = m.dst; mt.msg = &m; }
        if (!mt.consumed_at) mt.consumed_at = e.seq;
      }
      for (const auto& m : doc.sent(e)) {
        auto& mt = msgs_[m.id.value()];
        if (!mt.msg) { mt.src = m.src; mt.dst = m.dst; mt.msg = &m; }
        if (!mt.sent_at) mt.sent_at = e.seq;
      }
    } else if (e.event.kind == sim::Event::Kind::kDeliver && doc.message(e)) {
      const ExportedMessage& m = *doc.message(e);
      auto& mt = msgs_[m.id.value()];
      if (!mt.msg) { mt.src = m.src; mt.dst = m.dst; mt.msg = &m; }
      if (!mt.delivered_at) mt.delivered_at = e.seq;
    }
  }
}

std::vector<SpanDag::TxInfo> SpanDag::completed_rots() const {
  std::vector<TxInfo> out;
  for (const auto& t : txs_)
    if (t.read_only && t.completed) out.push_back(t);
  return out;
}

const SpanDag::TxInfo& SpanDag::info(TxId tx) const {
  for (const auto& t : txs_)
    if (t.id == tx) return t;
  DISCS_CHECK_MSG(false, "transaction " << to_string(tx)
                                        << " not in this trace");
  return txs_.front();
}

bool SpanDag::is_server(ProcessId p) const {
  for (auto s : view_.servers)
    if (s == p) return true;
  return false;
}

RotProfile SpanDag::profile(TxId tx) const {
  const TxInfo& ti = info(tx);
  DISCS_CHECK_MSG(ti.completed,
                  to_string(tx) << " did not complete; nothing to profile");
  RotProfile out;
  out.tx = tx;

  // The same walk imposs::audit_rot performs live, re-read from the
  // artifact's cause annotations instead of payload introspection.
  std::map<std::uint64_t, std::set<std::uint64_t>> requested;
  std::map<std::uint64_t, std::set<std::uint64_t>> values_per_object;
  std::map<std::uint64_t, std::set<std::uint64_t>> servers_per_object;

  std::size_t end = std::min<std::size_t>(ti.complete_seq + 1,
                                          doc_.events.size());
  for (std::size_t i = ti.invoke_seq; i < end; ++i) {
    const ExportedEvent& e = doc_.events[i];
    if (e.event.kind != sim::Event::Kind::kStep) continue;
    ProcessId p = e.event.process;

    if (p == ti.client) {
      bool sent_request = false;
      for (const auto& m : doc_.sent(e)) {
        if (!is_server(m.dst) || !contains(m.req_txs, tx.value())) continue;
        sent_request = true;
        for (const auto& [t, obj] : m.req_objs)
          if (t == tx.value()) requested[m.dst.value()].insert(obj);
      }
      if (sent_request) ++out.rounds;
      continue;
    }

    if (!is_server(p)) continue;

    bool consumed_request = false;
    for (const auto& m : doc_.consumed(e))
      if (m.src == ti.client && contains(m.req_txs, tx.value()))
        consumed_request = true;

    bool replied = false;
    for (const auto& m : doc_.sent(e)) {
      if (m.dst != ti.client || !contains(m.rep_txs, tx.value())) continue;
      replied = true;
      out.reply_bytes += m.bytes;
      out.max_values_per_message =
          std::max(out.max_values_per_message, m.values.size());
      // Same per-(message, object) gate as imposs::audit_rot: several
      // objects answered in one reply is the general model working as
      // designed; several values of one object is the (V) violation.
      std::map<std::uint64_t, std::set<std::uint64_t>> in_message;
      for (const auto& r : m.reads) {
        if (r[0] != tx.value()) continue;
        in_message[r[1]].insert(r[2]);
        values_per_object[r[1]].insert(r[2]);
        servers_per_object[r[1]].insert(p.value());
        bool asked = requested[p.value()].count(r[1]) > 0;
        bool stored = view_.server_stores(p, ObjectId(r[1]));
        if (!asked || !stored) out.leaked_foreign_values = true;
      }
      for (const auto& [obj, vals] : in_message)
        out.max_values_per_object_per_message =
            std::max(out.max_values_per_object_per_message, vals.size());
    }

    if (consumed_request && !replied) {
      out.nonblocking = false;
      ++out.deferred_replies;
    }
  }

  for (const auto& [obj, vals] : values_per_object)
    out.max_values_per_object =
        std::max(out.max_values_per_object, vals.size());
  for (const auto& [obj, servers] : servers_per_object)
    if (servers.size() > 1) out.single_server_per_object = false;

  out.one_round = (out.rounds == 1);
  out.one_value = out.max_values_per_object_per_message <= 1 &&
                  !out.leaked_foreign_values;
  return out;
}

CriticalPath SpanDag::critical_path(TxId tx) const {
  const TxInfo& ti = info(tx);
  DISCS_CHECK_MSG(ti.completed,
                  to_string(tx) << " did not complete; no critical path");
  CriticalPath cp;
  cp.tx = tx;
  cp.begin = ti.invoke_seq;
  cp.end = ti.complete_seq;

  // Walk the reply chain backwards from completion.  Each iteration anchors
  // on the latest-arriving reply already consumed by `cursor`, charges the
  // client the wait after its delivery, the network its flight, and the
  // server its queue + service time for the request that triggered it, then
  // recurses from the moment that request was sent.  The cursor strictly
  // decreases (sent < delivered < consumed throughout), so the walk
  // terminates, and consecutive segments share endpoints, so they tile
  // [begin, end) exactly.
  std::vector<Segment> rev;
  std::uint64_t cursor = cp.end;
  bool outermost = true;
  while (true) {
    const MsgTimes* reply = nullptr;
    for (const auto& [id, mt] : msgs_) {
      if (!mt.msg || mt.dst != ti.client) continue;
      if (!contains(mt.msg->rep_txs, tx.value())) continue;
      if (!mt.sent_at || !mt.delivered_at || !mt.consumed_at) continue;
      if (*mt.consumed_at > cursor || *mt.sent_at < cp.begin) continue;
      if (!reply || *mt.delivered_at > *reply->delivered_at) reply = &mt;
    }
    if (!reply) break;

    if (cursor > *reply->delivered_at)
      rev.push_back({outermost ? SegmentKind::kClientFinish
                               : SegmentKind::kClientThink,
                     *reply->delivered_at, cursor, ti.client});
    outermost = false;
    rev.push_back({SegmentKind::kNetReply, *reply->sent_at,
                   *reply->delivered_at, reply->src});
    std::uint64_t reply_sent = *reply->sent_at;

    // The request this server had consumed most recently before replying.
    const MsgTimes* req = nullptr;
    for (const auto& [id, mt] : msgs_) {
      if (!mt.msg || mt.src != ti.client || mt.dst != reply->src) continue;
      if (!contains(mt.msg->req_txs, tx.value())) continue;
      if (!mt.sent_at || !mt.delivered_at || !mt.consumed_at) continue;
      if (*mt.consumed_at > reply_sent || *mt.sent_at < cp.begin) continue;
      if (!req || *mt.consumed_at > *req->consumed_at) req = &mt;
    }
    if (!req) {
      // Spontaneous reply (e.g. pushed by gossip): keep walking from its
      // send moment; the client-side gap is charged on the next round.
      cursor = reply_sent;
      continue;
    }
    if (reply_sent > *req->consumed_at)
      rev.push_back({SegmentKind::kServerService, *req->consumed_at,
                     reply_sent, reply->src});
    if (*req->consumed_at > *req->delivered_at)
      rev.push_back({SegmentKind::kServerQueue, *req->delivered_at,
                     *req->consumed_at, reply->src});
    rev.push_back({SegmentKind::kNetRequest, *req->sent_at,
                   *req->delivered_at, reply->src});
    cursor = *req->sent_at;
  }
  if (cursor > cp.begin)
    rev.push_back(
        {SegmentKind::kClientThink, cp.begin, cursor, ti.client});

  std::reverse(rev.begin(), rev.end());
  cp.segments = std::move(rev);
  return cp;
}

}  // namespace discs::obs
