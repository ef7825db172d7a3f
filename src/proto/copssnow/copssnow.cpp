#include "proto/copssnow/copssnow.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/check.h"
#include "util/fmt.h"

namespace discs::proto::copssnow {

void sort_unique(std::vector<TxId>& ids) {
  if (ids.size() < 2) return;
  std::uint64_t lo = ids.front().value(), hi = lo;
  for (TxId t : ids) {
    lo = std::min(lo, t.value());
    hi = std::max(hi, t.value());
  }
  const std::size_t words = static_cast<std::size_t>((hi - lo) / 64) + 1;
  if (words > ids.size()) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return;
  }
  // Scratch, not server state: not digested, not copied by clone().
  // Thread-local because the rt backend runs servers on several workers.
  thread_local std::vector<std::uint64_t> bits;
  bits.assign(words, 0);
  for (TxId t : ids) {
    const std::uint64_t off = t.value() - lo;
    bits[off / 64] |= std::uint64_t{1} << (off % 64);
  }
  std::size_t n = 0;  // the unique ids never outnumber the input
  for (std::size_t w = 0; w < words; ++w)
    for (std::uint64_t b = bits[w]; b != 0; b &= b - 1)
      ids[n++] = TxId(lo + 64 * w +
                      static_cast<std::uint64_t>(std::countr_zero(b)));
  ids.resize(n);
}

void Client::start_tx(sim::StepContext& ctx, const TxSpec& spec) {
  router_.reset();

  if (spec.read_only()) {
    // The fast path: one round, done in one client step.
    router_.fan_out(ctx, view(), spec.read_set,
                    [&](ProcessId, std::vector<ObjectId> objs) {
                      auto req = std::make_shared<RotRequest>();
                      req->tx = spec.id;
                      req->objects = std::move(objs);
                      return req;
                    });
    return;
  }

  DISCS_CHECK_MSG(
      spec.write_set.size() == 1,
      "cops-snow does not support multi-object write transactions");
  const auto& [obj, value] = spec.write_set.front();
  auto req = std::make_shared<WriteRequest>();
  req->tx = spec.id;
  req->writes = {{obj, value}};
  // Full (transitively closed) context so the old-reader check covers
  // dependency chains.
  for (const auto& [dep_obj, dep] : context_) req->deps.push_back(dep);
  req->client_ts = hlc_.tick(ctx.now());
  router_.send(ctx, view().primary(obj), req);
}

void Client::on_message(sim::StepContext& ctx, const sim::Message& m) {
  if (const auto* reply = m.as<RotReply>()) {
    if (!has_active() || reply->tx != active_spec().id) return;
    for (const auto& item : reply->items) {
      deliver_read(item.object, item.value);
      context_[item.object] = {item.object, item.value, item.ts};
      hlc_.observe(item.ts, ctx.now());
    }
    if (router_.ack(m.src) && all_reads_delivered()) complete_active(ctx);
    return;
  }
  if (const auto* reply = m.as<WriteReply>()) {
    if (!has_active() || reply->tx != active_spec().id) return;
    hlc_.observe(reply->ts, ctx.now());
    const auto& [obj, value] = active_spec().write_set.front();
    context_[obj] = {obj, value, reply->ts};
    if (router_.ack(m.src)) complete_active(ctx);
    return;
  }
}

std::string Client::proto_digest() const {
  sim::DigestBuilder b;
  std::ostringstream c;
  for (const auto& [obj, dep] : context_)
    c << to_string(obj) << "=" << to_string(dep.value) << "@" << dep.ts.str()
      << ",";
  b.field("ctx", c.str()).field("await", join(router_.awaiting(), ","));
  b.field("hlc", hlc_.peek().str());
  return b.str();
}

void Server::append_old_readers(std::vector<TxId>& out, ObjectId object,
                                clk::HlcTimestamp ts) const {
  auto it = served_.find(object);
  if (it == served_.end()) return;
  for (const auto& [rot, served_ts] : it->second)
    if (served_ts < ts) out.push_back(rot);
}

void Server::finalize_write(sim::StepContext& ctx, TxId wtx) {
  auto it = pending_.find(wtx);
  DISCS_CHECK(it != pending_.end());
  PendingWrite& pw = it->second;
  sort_unique(pw.old_readers);
  bool ok = store_mut().make_visible(pw.object, pw.value,
                                     std::move(pw.old_readers));
  DISCS_CHECK(ok);

  auto reply = std::make_shared<WriteReply>();
  reply->tx = wtx;
  reply->ts = pw.ts;
  ctx.send(pw.client, reply);
  pending_.erase(it);
}

void Server::on_message(sim::StepContext& ctx, const sim::Message& m) {
  if (const auto* req = m.as<RotRequest>()) {
    auto reply = std::make_shared<RotReply>();
    reply->tx = req->tx;
    for (auto obj : req->objects) {
      const kv::Version* v = store().latest_visible(obj, req->tx);
      if (v) {
        reply->items.push_back({obj, v->value, v->ts, {}, {}});
        served_[obj].emplace_back(req->tx, v->ts);
      }
    }
    ctx.send(m.src, reply);
    return;
  }

  if (const auto* req = m.as<WriteRequest>()) {
    HlcTimestamp ts = hlc_.observe(req->client_ts, ctx.now());
    DISCS_CHECK(req->writes.size() == 1);
    const auto& [obj, value] = req->writes.front();

    kv::Version v;
    v.value = value;
    v.tx = req->tx;
    v.ts = ts;
    v.deps = req->deps;
    v.visible = false;  // stays hidden until the old-reader check completes
    store_mut().put(obj, std::move(v));

    PendingWrite pw;
    pw.object = obj;
    pw.value = value;
    pw.client = m.src;
    pw.ts = ts;

    // Partition the dependencies by owning server; local ones are checked
    // synchronously, remote ones via one OldReaderQuery per server.
    std::map<ProcessId, std::vector<std::pair<ObjectId, HlcTimestamp>>>
        remote;
    for (const auto& dep : req->deps) {
      ProcessId owner = view().primary(dep.object);
      if (owner == id()) {
        append_old_readers(pw.old_readers, dep.object, dep.ts);
      } else {
        remote[owner].emplace_back(dep.object, dep.ts);
      }
    }
    pw.replies_outstanding = remote.size();

    TxId wtx = req->tx;
    pending_[wtx] = std::move(pw);
    for (const auto& [server, deps] : remote) {
      auto q = std::make_shared<OldReaderQuery>();
      q->wtx = wtx;
      q->deps = deps;
      ctx.send(server, q);
    }
    if (pending_[wtx].replies_outstanding == 0) finalize_write(ctx, wtx);
    return;
  }

  if (const auto* q = m.as<OldReaderQuery>()) {
    auto reply = std::make_shared<OldReaderReply>();
    reply->wtx = q->wtx;
    for (const auto& [obj, ts] : q->deps)
      append_old_readers(reply->old_readers, obj, ts);
    sort_unique(reply->old_readers);
    ctx.send(m.src, reply);
    return;
  }

  if (const auto* r = m.as<OldReaderReply>()) {
    auto it = pending_.find(r->wtx);
    if (it == pending_.end()) return;
    it->second.old_readers.insert(it->second.old_readers.end(),
                                  r->old_readers.begin(),
                                  r->old_readers.end());
    DISCS_CHECK(it->second.replies_outstanding > 0);
    if (--it->second.replies_outstanding == 0) finalize_write(ctx, r->wtx);
    return;
  }
}

std::string Server::proto_digest() const {
  sim::DigestBuilder b;
  b.field("hlc", hlc_.peek().str());
  std::ostringstream s;
  for (const auto& [obj, log] : served_)
    s << to_string(obj) << ":" << log.size() << ",";
  b.field("served", s.str()).field("pending", pending_.size());
  return b.str();
}

ProcessId CopsSnow::add_client(sim::Simulation& sim,
                               const ClusterView& view) const {
  ProcessId id = sim.next_process_id();
  sim.add_process(std::make_unique<Client>(id, view));
  return id;
}

std::unique_ptr<ServerBase> CopsSnow::make_server(
    ProcessId id, const ClusterView& view, std::vector<ObjectId> stored,
    const ClusterConfig&) const {
  return std::make_unique<Server>(id, view, std::move(stored));
}

}  // namespace discs::proto::copssnow
