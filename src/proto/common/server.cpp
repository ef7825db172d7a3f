#include "proto/common/server.h"

#include <algorithm>

#include "obs/registry.h"
#include "obs/span.h"
#include "util/check.h"

namespace discs::proto {

namespace {

// Per-payload-kind receive counter; kinds are string-literal-backed, so
// after warm-up the family resolves by pointer identity — no key build, no
// map lookup per message.
void count_recv(const sim::Payload& payload) {
  static thread_local obs::CounterFamily family("server.recv.");
  family.at(payload.kind()) += 1;
}

}  // namespace

ServerBase::ServerBase(ProcessId id, ClusterView view,
                       std::vector<ObjectId> stored)
    : sim::Process(id),
      view_(std::move(view)),
      stored_(std::move(stored)),
      journal_(view_.journal_compact_threshold) {
  DISCS_CHECK_MSG(!stored_.empty(),
                  "each server stores a non-empty set of objects");
}

void ServerBase::seed(ObjectId obj, ValueId value) {
  DISCS_CHECK(stores(obj));
  kv::Version v;
  v.value = value;
  v.ts = {0, 0};
  v.visible = true;
  store_.put(obj, std::move(v));
  seeded_.emplace_back(obj, value);
}

void ServerBase::on_crash() {
  auto& reg = obs::Registry::global();
  if (view_.durable_journal) {
    // The journal (and the dedup/session state riding in its durability
    // domain) survives; rebuild the store from it instead of losing the
    // accepted writes.  Pending dedup entries stand for executions that
    // died with the process: forget them so the sender's retransmit
    // re-executes instead of being suppressed forever.
    store_ = journal_.replay(seeded_);
    dedup_.forget_unanswered();
    return;
  }
  store_ = kv::VersionedStore();
  for (const auto& [obj, value] : seeded_) {
    kv::Version v;
    v.value = value;
    v.ts = {0, 0};
    v.visible = true;
    store_.put(obj, std::move(v));
  }
  // Volatile session state dies with the store: start a new incarnation so
  // receivers can tell pre-crash envelopes from post-crash ones.
  dedup_.clear();
  stamper_.new_incarnation();
  reg.inc("server.crash.store_wiped");
}

bool ServerBase::stores(ObjectId obj) const {
  // O(1) residue arithmetic: a scan of stored_ would make seeding a
  // million-key server quadratic (build calls stores() once per seed).
  return view_.server_stores(id(), obj);
}

void ServerBase::on_step(sim::StepContext& ctx,
                         const sim::MessageVec& inbox) {
  auto& reg = obs::Registry::global();
  // Outgoing indices filled by memoized-reply replays; excluded from this
  // step's memoization pass (a replayed reply answers an old request, not
  // whichever pending one happens to share its transaction).
  std::vector<std::size_t> replayed;
  for (const auto& m : inbox) {
    sim::for_each_part(m, [&](const std::shared_ptr<const sim::Payload>& part) {
      count_recv(*part);
      if (const auto* env = sim::payload_as<SessionEnvelope>(part.get())) {
        auto adm = dedup_.admit(*env);
        if (adm.verdict != DedupTable::Verdict::kExecute) {
          reg.inc(adm.verdict == DedupTable::Verdict::kStale
                      ? "server.dedup.stale"
                      : "server.dedup.hits");
          if (adm.replay) {
            for (const auto& [dst, payload] : *adm.replay) {
              replayed.push_back(ctx.outgoing().size());
              ctx.send(dst, payload);
            }
          }
          return;
        }
        DISCS_CHECK(env->inner != nullptr);
        count_recv(*env->inner);
        sim::Message sub = m;
        sub.payload = env->inner;
        on_message(ctx, sub);
        return;
      }
      sim::Message sub = m;
      sub.payload = part;
      on_message(ctx, sub);
    });
  }

  // Span hook: note which ROTs this step consumed a request for, attributed
  // via the shared rot_request_tx over the *outer* payload parts — the same
  // visibility imposs::audit_rot has (neither unwraps SessionEnvelope), so
  // offline profiles agree with the live audit.  Deduped per step.
  if (view_.record_spans) {
    std::vector<std::uint64_t> seen;
    for (const auto& m : inbox) {
      sim::for_each_part(
          m, [&](const std::shared_ptr<const sim::Payload>& part) {
            TxId tx = rot_request_tx(*part);
            if (!tx.valid()) return;
            if (std::find(seen.begin(), seen.end(), tx.value()) != seen.end())
              return;
            seen.push_back(tx.value());
            obs::SpanLog::global().note({obs::SpanNote::Kind::kServerRecv,
                                         tx.value(), id().value(), ctx.now(),
                                         0});
          });
    }
  }

  on_tick(ctx);

  // Span hook: ROT replies queued this step, before the wrap pass while the
  // payloads are still bare.
  if (view_.record_spans) {
    std::vector<std::uint64_t> seen;
    for (const auto& [dst, payload] : ctx.outgoing()) {
      TxId tx = rot_reply_tx(*payload);
      if (!tx.valid()) continue;
      if (std::find(seen.begin(), seen.end(), tx.value()) != seen.end())
        continue;
      seen.push_back(tx.value());
      obs::SpanLog::global().note({obs::SpanNote::Kind::kServerReply,
                                   tx.value(), id().value(), ctx.now(), 0});
    }
  }

  if (view_.exactly_once) {
    // Wrap our own server->server sends first so that what gets memoized
    // (and thus replayed on a duplicate) carries the final ReqIds.
    stamper_.wrap_outgoing(id(), view_, ctx.outgoing_mut());
    dedup_.memoize_replies(ctx.outgoing(), replayed);
    // High-water mark across all servers; the !(>=) form also replaces the
    // initial NaN.
    auto sz = static_cast<double>(dedup_.size());
    if (!(reg.gauge("server.dedup.table_size") >= sz))
      reg.set_gauge("server.dedup.table_size", sz);
  }
}

std::string ServerBase::state_digest() const {
  sim::DigestBuilder b;
  b.field("store", store_.digest());
  // Only present when the respective layer is on, so default-configured
  // digests are byte-identical to pre-layer builds.
  if (view_.exactly_once)
    b.field("eo", stamper_.digest() + "/" + dedup_.digest());
  if (view_.durable_journal) b.field("wal", journal_.digest());
  b.raw(proto_digest());
  return b.str();
}

}  // namespace discs::proto
