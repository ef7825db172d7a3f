#include "chaos/chaos.h"

#include "consistency/checkers.h"
#include "fault/session.h"
#include "impossibility/progress.h"
#include "obs/registry.h"
#include "obs/trace_io.h"
#include "proto/registry.h"
#include "chaos/shrink.h"
#include "util/check.h"
#include "util/fmt.h"
#include "util/rng.h"

namespace discs::chaos {

using discs::fault::FaultPlan;
using discs::fault::FaultRule;
using discs::fault::Selector;
using discs::proto::ClientBase;
using discs::proto::Cluster;
using discs::proto::IdSource;
using discs::proto::Protocol;

std::string violation_class_str(ViolationClass c) {
  switch (c) {
    case ViolationClass::kNone: return "none";
    case ViolationClass::kSafety: return "safety";
    case ViolationClass::kLiveness: return "liveness";
  }
  return "?";
}

FaultPlan random_plan(std::uint64_t campaign_seed, std::size_t index,
                      const proto::ClusterConfig& cluster) {
  // Derive a per-run stream; SplitMix64 guarantees distinct nearby seeds
  // decorrelate.
  SplitMix64 mix(campaign_seed);
  std::uint64_t derived = mix.next() ^ (0x9e37u + index * 0x1000193u);
  Rng rng(derived);

  FaultPlan plan;
  plan.name = cat("chaos-", campaign_seed, "-", index);
  plan.seed = rng.next();

  // The fairness envelope: windows are bounded, drops are retransmitted by
  // the engine, crashed servers restart.  A plan outside this envelope can
  // starve progress *legitimately* (Theorem 1's adversary is a permanent
  // hold); inside it, a violation is a robustness bug.
  const std::uint64_t horizon = 1500 + rng.below(1500);
  const std::size_t nrules = 1 + rng.below(3);
  for (std::size_t r = 0; r < nrules; ++r) {
    switch (rng.below(6)) {
      case 0: {  // lossy network with engine retransmit
        double p = 0.05 + 0.3 * rng.uniform01();
        plan.rules.push_back(fault::drop_rule(p, 3 + rng.below(8)));
        break;
      }
      case 1: {  // extra latency
        plan.rules.push_back(
            fault::delay_rule(1 + rng.below(6), 0.3 + 0.7 * rng.uniform01()));
        break;
      }
      case 2: {  // duplicate delivery
        plan.rules.push_back(
            fault::duplicate_rule(0.1 + 0.4 * rng.uniform01()));
        break;
      }
      case 3: {  // reordering jitter
        plan.rules.push_back(fault::reorder_rule(
            0.2 + 0.6 * rng.uniform01(), 2 + rng.below(6)));
        break;
      }
      case 4: {  // bounded inter-server hold
        std::uint64_t from = rng.below(horizon / 2);
        plan.rules.push_back(
            fault::hold_rule(Selector::server(), Selector::server(), from,
                             from + 50 + rng.below(400)));
        break;
      }
      default: {  // crash + restart of one server
        sim::ProcessId victim(rng.below(
            static_cast<std::uint64_t>(cluster.num_servers)));
        std::uint64_t at = 100 + rng.below(horizon / 2);
        plan.rules.push_back(fault::crash_rule(
            victim, at, at + 50 + rng.below(400), rng.chance(0.5)));
        break;
      }
    }
  }
  return plan;
}

RunOutcome run_once(const Protocol& proto, const FaultPlan& plan,
                    const CampaignConfig& cfg) {
  RunOutcome out;
  // Building the cluster and the session checks the configuration and the
  // plan, before any event runs: a CheckFailure there is an invalid input
  // and propagates.  The simulator outlives the try so the flight recorder
  // can snapshot its trace tail even when a protocol invariant throws
  // mid-run.
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = proto.build(sim, cfg.cluster, ids);
  if (cfg.client_retransmit_after > 0)
    for (auto c : cluster.clients)
      sim.process_as<ClientBase>(c).set_retransmit_after(
          cfg.client_retransmit_after);
  fault::FaultSession session(plan, {cluster.view.servers, cluster.clients});
  auto snap_flight = [&] {
    if (cfg.flight_capacity > 0)
      out.flight = obs::flight_tail(sim.trace().records(), cfg.flight_capacity);
  };
  try {
    auto result = wl::run_workload_concurrent_faulted(
        sim, proto, cluster, ids, cfg.workload, session);

    // Safety: read validity plus the checker for the protocol's claimed
    // consistency level (the mapping bench_table1 verifies fault-free).
    auto flag_safety = [&](const cons::CheckResult& r) {
      if (r.verdict != cons::Verdict::kViolation) return false;
      const auto& v = r.violations.front();
      out.violation = ViolationClass::kSafety;
      out.detail = cat(v.kind, ": ", v.detail);
      snap_flight();
      return true;
    };
    if (flag_safety(cons::check_reads_valid(result.history))) return out;
    const std::string claim = proto.consistency_claim();
    if (claim.find("strict") != std::string::npos) {
      if (flag_safety(cons::check_strict_serializability(result.history)))
        return out;
    } else if (claim.find("read-atomic") != std::string::npos) {
      if (flag_safety(cons::check_read_atomicity(result.history))) return out;
    } else {
      if (flag_safety(cons::check_causal_consistency(result.history)))
        return out;
    }

    // Liveness: inside the fairness envelope every transaction should
    // finish within its budget...
    out.incomplete = result.incomplete;
    if (result.incomplete > 0) {
      out.violation = ViolationClass::kLiveness;
      out.detail =
          cat(result.incomplete, " workload transaction(s) never completed");
      snap_flight();
      return out;
    }
    // ... and a fresh write should become visible (audit_progress).
    if (cfg.audit_liveness) {
      imposs::ProgressOptions popts;
      popts.cluster = cfg.cluster;
      popts.client_retransmit_after = cfg.client_retransmit_after;
      auto report = imposs::audit_progress(proto, plan, popts);
      if (report.starved()) {
        out.violation = ViolationClass::kLiveness;
        out.detail = report.detail;
        snap_flight();
      }
    }
  } catch (const CheckFailure& e) {
    // A protocol invariant blowing up under injected faults is a safety
    // finding, not a harness crash (e.g. a duplicate re-running a 2PC into
    // a CHECK).  Campaigns must survive it and shrink the plan.  The trace
    // tail at the moment of the throw is the flight dump.
    out.violation = ViolationClass::kSafety;
    out.detail = cat("invariant failure: ", e.what());
    snap_flight();
  }
  return out;
}

CampaignResult run_campaign(const Protocol& proto, const CampaignConfig& cfg) {
  auto& reg = obs::Registry::global();
  reg.inc("chaos.campaigns");
  CampaignResult result;
  result.protocol = proto.name();
  for (std::size_t i = 0; i < cfg.runs; ++i) {
    FaultPlan plan = random_plan(cfg.seed, i, cfg.cluster);
    RunOutcome out = run_once(proto, plan, cfg);
    ++result.runs;
    reg.inc("chaos.runs");
    if (out.violation == ViolationClass::kNone) continue;
    reg.inc("chaos.violations");

    auto shrunk = shrink_plan(proto, plan, out.violation, cfg);
    RunOutcome confirm = run_once(proto, shrunk.plan, cfg);

    Counterexample cex;
    cex.original = plan;
    cex.minimized = shrunk.plan;
    cex.cls = out.violation;
    const bool confirmed = confirm.violation == out.violation;
    cex.detail = confirmed ? confirm.detail : out.detail;
    cex.flight =
        confirmed ? std::move(confirm.flight) : std::move(out.flight);
    cex.shrink_steps = shrunk.steps;
    result.counterexamples.push_back(std::move(cex));
  }
  return result;
}

// --- ReproSpec -------------------------------------------------------------

namespace {
constexpr const char* kReproSchema = "discs.chaosrepro.v1";
}

obs::Json ReproSpec::to_json() const {
  obs::JsonObject wl{
      {"num_txs", obs::Json(std::uint64_t(workload.num_txs))},
      {"write_fraction", obs::Json(workload.write_fraction)},
      {"multi_write_fraction", obs::Json(workload.multi_write_fraction)},
      {"read_objects", obs::Json(std::uint64_t(workload.read_objects))},
      {"write_objects", obs::Json(std::uint64_t(workload.write_objects))},
      {"zipf_theta", obs::Json(workload.zipf_theta)},
      {"seed", obs::Json(workload.seed)},
      {"budget_per_tx", obs::Json(std::uint64_t(workload.budget_per_tx))}};
  obs::JsonObject doc{
      {"schema", obs::Json(kReproSchema)},
      {"protocol", obs::Json(protocol)},
      {"expected", obs::Json(violation_class_str(expected))},
      {"client_retransmit_after",
       obs::Json(std::uint64_t(client_retransmit_after))},
      {"cluster", obs::cluster_config_json(cluster)},
      {"workload", obs::Json(std::move(wl))},
      {"plan", plan.to_json()}};
  if (!flight.empty()) {
    obs::JsonArray tail;
    tail.reserve(flight.size());
    for (const auto& e : flight) tail.push_back(obs::flight_event_json(e));
    doc.emplace_back("flight", obs::Json(std::move(tail)));
  }
  return obs::Json(std::move(doc));
}

std::string ReproSpec::dump() const { return to_json().dump(); }

ReproSpec ReproSpec::from_json(const obs::Json& doc) {
  DISCS_CHECK_MSG(doc.get("schema").as_string() == kReproSchema,
                  "chaos repro: unsupported schema");
  ReproSpec spec;
  spec.protocol = doc.get("protocol").as_string();
  const std::string cls = doc.get("expected").as_string();
  spec.expected = cls == "safety"     ? ViolationClass::kSafety
                  : cls == "liveness" ? ViolationClass::kLiveness
                                      : ViolationClass::kNone;
  spec.client_retransmit_after =
      doc.get("client_retransmit_after").as_uint();
  spec.cluster = obs::cluster_config_from_json(doc.get("cluster"));
  const obs::Json& w = doc.get("workload");
  spec.workload.num_txs = w.get("num_txs").as_uint();
  spec.workload.write_fraction = w.get("write_fraction").as_double();
  spec.workload.multi_write_fraction =
      w.get("multi_write_fraction").as_double();
  spec.workload.read_objects = w.get("read_objects").as_uint();
  spec.workload.write_objects = w.get("write_objects").as_uint();
  spec.workload.zipf_theta = w.get("zipf_theta").as_double();
  spec.workload.seed = w.get("seed").as_uint();
  spec.workload.budget_per_tx = w.get("budget_per_tx").as_uint();
  spec.plan = FaultPlan::from_json(doc.get("plan"));
  // Optional: specs written before the flight recorder omit the field.
  if (const obs::Json* tail = doc.find("flight")) {
    for (const auto& e : tail->as_array())
      spec.flight.push_back(obs::flight_event_from_json(e));
  }
  return spec;
}

ReproSpec ReproSpec::parse(const std::string& text) {
  return from_json(obs::Json::parse(text));
}

ReproSpec make_repro(const Protocol& proto, const Counterexample& cex,
                     const CampaignConfig& cfg) {
  ReproSpec spec;
  spec.protocol = proto.name();
  spec.cluster = cfg.cluster;
  spec.workload = cfg.workload;
  spec.client_retransmit_after = cfg.client_retransmit_after;
  spec.plan = cex.minimized;
  spec.expected = cex.cls;
  spec.flight = cex.flight;
  return spec;
}

RunOutcome run_repro(const ReproSpec& spec) {
  auto proto = proto::protocol_by_name(spec.protocol);
  CampaignConfig cfg;
  cfg.cluster = spec.cluster;
  cfg.workload = spec.workload;
  cfg.client_retransmit_after = spec.client_retransmit_after;
  return run_once(*proto, spec.plan, cfg);
}

}  // namespace discs::chaos
