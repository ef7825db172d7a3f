#include "fault/plan.h"

#include <algorithm>

#include "util/check.h"
#include "util/fmt.h"

namespace discs::fault {

namespace {

constexpr const char* kPlanSchema = "discs.faultplan.v1";

const char* kind_name(FaultRule::Kind k) {
  switch (k) {
    case FaultRule::Kind::kDrop:
      return "drop";
    case FaultRule::Kind::kDelay:
      return "delay";
    case FaultRule::Kind::kDuplicate:
      return "duplicate";
    case FaultRule::Kind::kReorder:
      return "reorder";
    case FaultRule::Kind::kPartition:
      return "partition";
    case FaultRule::Kind::kHold:
      return "hold";
    case FaultRule::Kind::kCrash:
      return "crash";
  }
  return "?";
}

FaultRule::Kind kind_from_name(const std::string& s) {
  if (s == "drop") return FaultRule::Kind::kDrop;
  if (s == "delay") return FaultRule::Kind::kDelay;
  if (s == "duplicate") return FaultRule::Kind::kDuplicate;
  if (s == "reorder") return FaultRule::Kind::kReorder;
  if (s == "partition") return FaultRule::Kind::kPartition;
  if (s == "hold") return FaultRule::Kind::kHold;
  if (s == "crash") return FaultRule::Kind::kCrash;
  DISCS_CHECK_MSG(false, cat("faultplan: unknown rule kind '", s, "'"));
  return FaultRule::Kind::kDrop;
}

obs::Json selector_to_json(const Selector& s) {
  switch (s.kind) {
    case Selector::Kind::kAny:
      return obs::Json("any");
    case Selector::Kind::kServer:
      return obs::Json("server");
    case Selector::Kind::kClient:
      return obs::Json("client");
    case Selector::Kind::kExact:
      return obs::Json(s.exact.value());
  }
  return obs::Json("any");
}

Selector selector_from_json(const obs::Json& j) {
  if (j.is_uint()) return Selector::process(sim::ProcessId(j.as_uint()));
  const std::string& s = j.as_string();
  if (s == "any") return Selector::any();
  if (s == "server") return Selector::server();
  if (s == "client") return Selector::client();
  DISCS_CHECK_MSG(false, cat("faultplan: unknown selector '", s, "'"));
  return Selector::any();
}

obs::JsonArray ids_to_json(const std::vector<sim::ProcessId>& ids) {
  obs::JsonArray a;
  for (auto p : ids) a.emplace_back(p.value());
  return a;
}

std::vector<sim::ProcessId> ids_from_json(const obs::Json& j) {
  std::vector<sim::ProcessId> out;
  for (const auto& e : j.as_array()) out.emplace_back(e.as_uint());
  return out;
}

obs::Json rule_to_json(const FaultRule& r) {
  obs::JsonObject o;
  o.emplace_back("kind", obs::Json(kind_name(r.kind)));
  switch (r.kind) {
    case FaultRule::Kind::kDrop:
      o.emplace_back("p", obs::Json(r.p));
      o.emplace_back("src", selector_to_json(r.src));
      o.emplace_back("dst", selector_to_json(r.dst));
      o.emplace_back("retransmit_after", obs::Json(r.retransmit_after));
      break;
    case FaultRule::Kind::kDelay:
      o.emplace_back("p", obs::Json(r.p));
      o.emplace_back("src", selector_to_json(r.src));
      o.emplace_back("dst", selector_to_json(r.dst));
      o.emplace_back("steps", obs::Json(r.steps));
      o.emplace_back("exp_mean", obs::Json(r.exp_mean));
      break;
    case FaultRule::Kind::kDuplicate:
      o.emplace_back("p", obs::Json(r.p));
      o.emplace_back("src", selector_to_json(r.src));
      o.emplace_back("dst", selector_to_json(r.dst));
      break;
    case FaultRule::Kind::kReorder:
      o.emplace_back("p", obs::Json(r.p));
      o.emplace_back("jitter", obs::Json(r.jitter));
      break;
    case FaultRule::Kind::kPartition:
      o.emplace_back("a", obs::Json(ids_to_json(r.group_a)));
      o.emplace_back("b", obs::Json(ids_to_json(r.group_b)));
      o.emplace_back("from", obs::Json(r.from));
      if (r.to != kForever) o.emplace_back("to", obs::Json(r.to));
      break;
    case FaultRule::Kind::kHold:
      o.emplace_back("src", selector_to_json(r.src));
      o.emplace_back("dst", selector_to_json(r.dst));
      o.emplace_back("from", obs::Json(r.from));
      if (r.to != kForever) o.emplace_back("to", obs::Json(r.to));
      break;
    case FaultRule::Kind::kCrash:
      o.emplace_back("process", obs::Json(r.process.value()));
      o.emplace_back("at", obs::Json(r.at));
      if (r.restart_at != kForever)
        o.emplace_back("restart_at", obs::Json(r.restart_at));
      o.emplace_back("lossy", obs::Json(r.lossy));
      break;
  }
  return obs::Json(std::move(o));
}

FaultRule rule_from_json(const obs::Json& j, std::size_t index) {
  FaultRule r;
  r.kind = kind_from_name(j.get("kind").as_string());
  auto opt_double = [&](const char* key, double dflt) {
    const obs::Json* f = j.find(key);
    return f ? f->as_double() : dflt;
  };
  // A probability outside [0, 1] (NaN included) would fire on every
  // message or on none, whatever the author meant.
  auto opt_p = [&] {
    const double p = opt_double("p", 1.0);
    DISCS_CHECK_MSG(p >= 0.0 && p <= 1.0,
                    "faultplan: rule " << index << " (" << kind_name(r.kind)
                                       << ") has p=" << p
                                       << ", outside [0, 1]");
    return p;
  };
  auto opt_uint = [&](const char* key, std::uint64_t dflt) {
    const obs::Json* f = j.find(key);
    return f ? f->as_uint() : dflt;
  };
  auto opt_selector = [&](const char* key) {
    const obs::Json* f = j.find(key);
    return f ? selector_from_json(*f) : Selector::any();
  };
  switch (r.kind) {
    case FaultRule::Kind::kDrop:
      r.p = opt_p();
      r.src = opt_selector("src");
      r.dst = opt_selector("dst");
      r.retransmit_after = opt_uint("retransmit_after", 0);
      break;
    case FaultRule::Kind::kDelay:
      r.p = opt_p();
      r.src = opt_selector("src");
      r.dst = opt_selector("dst");
      r.steps = opt_uint("steps", 0);
      r.exp_mean = opt_double("exp_mean", 0.0);
      break;
    case FaultRule::Kind::kDuplicate:
      r.p = opt_p();
      r.src = opt_selector("src");
      r.dst = opt_selector("dst");
      break;
    case FaultRule::Kind::kReorder:
      r.p = opt_p();
      r.jitter = opt_uint("jitter", 4);
      break;
    case FaultRule::Kind::kPartition:
      r.group_a = ids_from_json(j.get("a"));
      r.group_b = ids_from_json(j.get("b"));
      r.from = opt_uint("from", 0);
      r.to = opt_uint("to", kForever);
      break;
    case FaultRule::Kind::kHold:
      r.src = opt_selector("src");
      r.dst = opt_selector("dst");
      r.from = opt_uint("from", 0);
      r.to = opt_uint("to", kForever);
      break;
    case FaultRule::Kind::kCrash:
      r.process = sim::ProcessId(j.get("process").as_uint());
      r.at = opt_uint("at", 0);
      r.restart_at = opt_uint("restart_at", kForever);
      if (const obs::Json* f = j.find("lossy")) r.lossy = f->as_bool();
      break;
  }
  return r;
}

}  // namespace

bool FaultTopology::is_server(sim::ProcessId p) const {
  return std::find(servers.begin(), servers.end(), p) != servers.end();
}

bool FaultTopology::is_client(sim::ProcessId p) const {
  return std::find(clients.begin(), clients.end(), p) != clients.end();
}

bool Selector::matches(sim::ProcessId p, const FaultTopology& topo) const {
  switch (kind) {
    case Kind::kAny:
      return true;
    case Kind::kServer:
      return topo.is_server(p);
    case Kind::kClient:
      return topo.is_client(p);
    case Kind::kExact:
      return p == exact;
  }
  return false;
}

obs::Json FaultPlan::to_json() const {
  obs::JsonObject o;
  o.emplace_back("schema", obs::Json(kPlanSchema));
  if (!name.empty()) o.emplace_back("name", obs::Json(name));
  o.emplace_back("seed", obs::Json(seed));
  obs::JsonArray rs;
  for (const auto& r : rules) rs.push_back(rule_to_json(r));
  o.emplace_back("rules", obs::Json(std::move(rs)));
  return obs::Json(std::move(o));
}

std::string FaultPlan::dump() const { return to_json().dump(); }

FaultPlan FaultPlan::from_json(const obs::Json& doc) {
  DISCS_CHECK_MSG(doc.get("schema").as_string() == kPlanSchema,
                  cat("faultplan: unsupported schema '",
                      doc.get("schema").as_string(), "' (want ", kPlanSchema,
                      ")"));
  FaultPlan plan;
  if (const obs::Json* n = doc.find("name")) plan.name = n->as_string();
  if (const obs::Json* s = doc.find("seed")) plan.seed = s->as_uint();
  for (const auto& r : doc.get("rules").as_array())
    plan.rules.push_back(rule_from_json(r, plan.rules.size()));
  return plan;
}

void FaultPlan::check_against(const FaultTopology& topo) const {
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const FaultRule& r = rules[i];
    if (r.kind != FaultRule::Kind::kCrash) continue;
    DISCS_CHECK_MSG(topo.is_server(r.process) || topo.is_client(r.process),
                    "faultplan: rule " << i << " (crash) names process "
                                       << r.process.value()
                                       << ", which is neither a server nor a "
                                          "client of the cluster");
  }
}

FaultPlan FaultPlan::parse(const std::string& text) {
  return from_json(obs::Json::parse(text));
}

FaultRule drop_rule(double p, std::uint64_t retransmit_after, Selector src,
                    Selector dst) {
  FaultRule r;
  r.kind = FaultRule::Kind::kDrop;
  r.p = p;
  r.src = src;
  r.dst = dst;
  r.retransmit_after = retransmit_after;
  return r;
}

FaultRule delay_rule(std::uint64_t steps, double p, Selector src,
                     Selector dst) {
  FaultRule r;
  r.kind = FaultRule::Kind::kDelay;
  r.p = p;
  r.src = src;
  r.dst = dst;
  r.steps = steps;
  return r;
}

FaultRule duplicate_rule(double p, Selector src, Selector dst) {
  FaultRule r;
  r.kind = FaultRule::Kind::kDuplicate;
  r.p = p;
  r.src = src;
  r.dst = dst;
  return r;
}

FaultRule reorder_rule(double p, std::uint64_t jitter) {
  FaultRule r;
  r.kind = FaultRule::Kind::kReorder;
  r.p = p;
  r.jitter = jitter;
  return r;
}

FaultRule partition_rule(std::vector<sim::ProcessId> a,
                         std::vector<sim::ProcessId> b, std::uint64_t from,
                         std::uint64_t to) {
  FaultRule r;
  r.kind = FaultRule::Kind::kPartition;
  r.group_a = std::move(a);
  r.group_b = std::move(b);
  r.from = from;
  r.to = to;
  return r;
}

FaultRule hold_rule(Selector src, Selector dst, std::uint64_t from,
                    std::uint64_t to) {
  FaultRule r;
  r.kind = FaultRule::Kind::kHold;
  r.src = src;
  r.dst = dst;
  r.from = from;
  r.to = to;
  return r;
}

FaultRule crash_rule(sim::ProcessId process, std::uint64_t at,
                     std::uint64_t restart_at, bool lossy) {
  FaultRule r;
  r.kind = FaultRule::Kind::kCrash;
  r.process = process;
  r.at = at;
  r.restart_at = restart_at;
  r.lossy = lossy;
  return r;
}

FaultPlan paper_delay_adversary() {
  FaultPlan plan;
  plan.name = "paper-delay-adversary";
  plan.rules.push_back(hold_rule(Selector::server(), Selector::server()));
  return plan;
}

FaultPlan drop_retransmit_plan(double p, std::uint64_t after,
                               std::uint64_t seed) {
  FaultPlan plan;
  plan.name = "drop-retransmit";
  plan.seed = seed;
  plan.rules.push_back(drop_rule(p, after));
  return plan;
}

}  // namespace discs::fault
