#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "chaos/chaos.h"
#include "consistency/checkers.h"
#include "fault/session.h"
#include "impossibility/progress.h"
#include "obs/registry.h"
#include "obs/trace_io.h"
#include "proto/common/client.h"
#include "proto/registry.h"
#include "rt/runtime.h"
#include "sim/schedule.h"
#include "spans.h"
#include "stats.h"
#include "util/check.h"
#include "workload/workload.h"

namespace perfbench {

using namespace discs;
using proto::ClientBase;
using Scope = Tracer::Scope;

namespace {

// --- sizes ------------------------------------------------------------------
// Run lengths are part of each workload's definition: cops-snow's cost per
// transaction grows with the run, the checker's grows faster than the
// history, and rt throughput falls with run length on 8 objects.  Changing
// a size changes what is measured.

constexpr std::size_t kSimTxs = 2000;     ///< per cluster, sim-sustained
constexpr std::size_t kChaosPlans = 120;  ///< per protocol, chaos-audit
constexpr std::size_t kChaosTxs = 24;     ///< per plan (chaos_lab default)
constexpr std::size_t kRtTxs = 20000;     ///< per rt::run, rt-closed
constexpr std::size_t kOracleTxs = 2000;  ///< per oracle loop, rt-oracle
constexpr std::size_t kRtWorkers = 2;
constexpr std::size_t kRtClients = 2;

const std::vector<std::string> kSimProtocols = {
    "cops", "cops-snow", "eiger", "fatcops",
    "gentlerain", "ramp", "spanner", "wren"};
const std::vector<std::string> kChaosProtocols = {"cops", "fatcops",
                                                  "gentlerain", "wren"};
const std::vector<std::string> kRtProtocols = {"cops", "eiger"};
const std::string kOracleProtocol = "wren";

const char* kRotLatency = "client.rot.latency_events";

double secs(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double ratio(double a, double b) { return b > 0 ? a / b : 0; }
double ratio(std::uint64_t a, std::uint64_t b) {
  return ratio(static_cast<double>(a), static_cast<double>(b));
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().value(name);
}

/// Registry counter growth around a call: construct before, read after.
class Deltas {
 public:
  explicit Deltas(std::vector<const char*> names) : names_(std::move(names)) {
    for (const char* n : names_) before_.push_back(counter(n));
  }
  /// Adds each counter's growth since construction into `into`.
  void add_to(std::map<std::string, std::uint64_t>& into) const {
    for (std::size_t i = 0; i < names_.size(); ++i)
      into[names_[i]] += counter(names_[i]) - before_[i];
  }

 private:
  std::vector<const char*> names_;
  std::vector<std::uint64_t> before_;
};

/// Empties the registry's ROT latency histogram so the next call's samples
/// can be read on their own.
obs::Histogram& fresh_rot_latency() {
  auto& h = obs::Registry::global().histogram(kRotLatency);
  h.reset();
  return h;
}

struct Usage {
  double cpu_s = 0;
  long ctx_switches = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return {tv(ru.ru_utime) + tv(ru.ru_stime), ru.ru_nvcsw + ru.ru_nivcsw};
}

/// Pins the calling thread to one allowed CPU for a scope, then restores
/// its mask.  Single-threaded work rotates its rounds over the CPUs: on a
/// shared machine one CPU can run 1.3x slower than another for minutes,
/// and the fast end of the rounds should find the quiet one.  Threads
/// created inside the scope would inherit the pin, so it never covers a
/// first rt::run.
class PinnedRound {
 public:
  explicit PinnedRound(std::size_t round) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &saved_)) cpus.push_back(c);
    if (cpus.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[round % cpus.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinnedRound() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedRound(const PinnedRound&) = delete;
  PinnedRound& operator=(const PinnedRound&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// The checker for the protocol's claimed consistency level — the mapping
/// chaos::run_once uses.
cons::CheckResult check_claimed(const proto::Protocol& p,
                                const hist::History& h) {
  const std::string claim = p.consistency_claim();
  if (claim.find("strict") != std::string::npos)
    return cons::check_strict_serializability(h);
  if (claim.find("read-atomic") != std::string::npos)
    return cons::check_read_atomicity(h);
  return cons::check_causal_consistency(h);
}

/// Latency percentiles per protocol, one entry per round.  Reported per
/// protocol at quantile `over_rounds` of its rounds, then as the geometric
/// mean over protocols.  p90 is the tail: on chaos-audit p99 is set by the
/// few plans with the longest fault windows and moves by ~50% between seeds.
class Latencies {
 public:
  explicit Latencies(double over_rounds) : over_rounds_(over_rounds) {}

  void note(const std::string& proto, const obs::Histogram& h, double scale) {
    if (h.count() == 0) return;
    p50_[proto].push_back(percentile(h, 0.50).value * scale);
    p90_[proto].push_back(percentile(h, 0.90).value * scale);
    samples_ += h.count();
  }

  void report(Report& rep, const std::string& base,
              const std::string& unit) const {
    rep.add(base + ".p50", combine(p50_), unit, samples_);
    rep.add(base + ".p90", combine(p90_), unit, samples_);
  }

 private:
  double combine(const std::map<std::string, std::vector<double>>& m) const {
    std::vector<double> per_proto;
    for (const auto& [name, rounds] : m)
      per_proto.push_back(quantile(rounds, over_rounds_));
    return geomean(per_proto);
  }

  double over_rounds_;
  std::map<std::string, std::vector<double>> p50_, p90_;
  std::uint64_t samples_ = 0;
};

// --- the workload interface -------------------------------------------------

class Workload {
 public:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the next round's inputs; timed by the caller as setup_s.
  virtual void setup(Tracer& t) = 0;
  /// One measured round over every protocol of the workload.
  virtual void round(Tracer& t, Report& rep) = 0;
  /// Checks that need the whole run.
  virtual void finish(Report&) {}
  /// Per-layer metrics of this (traced) instance's rounds.  May run extra
  /// probes (the layer-ledger ratios).
  virtual void layers(Tracer& t, Report& rep) = 0;

  /// End-to-end metrics other than setup_s and peak_rss_mb.
  void report(Report& rep) const {
    rep.add("tx_per_s", tx_per_s(), "1/s");
    wall_.report(rep, "latency_us", "us");
    events_.report(rep, "latency_ev", "events");
  }

  /// Geometric mean over protocols of each protocol's tx/s at the fast end
  /// of its rounds.
  double tx_per_s() const {
    std::vector<double> per_proto;
    for (const auto& [name, rates] : rates_)
      per_proto.push_back(quantile(rates, kFastRate));
    return geomean(per_proto);
  }

 protected:
  void rate(const std::string& proto, std::size_t txs, std::uint64_t ns) {
    rates_[proto].push_back(ratio(static_cast<double>(txs), secs(ns)));
  }

  std::uint64_t seed_;
  /// Invoke to complete on the wall clock, at the fast end of the rounds.
  Latencies wall_{kFastTime};
  /// ROT invoke to complete in events: noise moves it only through the
  /// interleavings it causes, so the median.
  Latencies events_{0.5};

 private:
  std::map<std::string, std::vector<double>> rates_;  ///< per proto, per round
};

// --- sim-sustained -----------------------------------------------------------

proto::ClusterConfig sim_cluster() {
  proto::ClusterConfig c;
  c.num_servers = 4;
  c.num_clients = 6;
  c.num_objects = 8;
  return c;
}

wl::WorkloadConfig sim_workload(std::uint64_t seed) {
  wl::WorkloadConfig w;
  w.num_txs = kSimTxs;
  w.write_fraction = 0.3;
  w.seed = seed;
  w.collect_history = false;
  return w;
}

/// One protocol's cluster on a fresh simulator with trace retention off.
struct SimCell {
  std::string name;
  std::unique_ptr<proto::Protocol> proto;
  std::unique_ptr<sim::Simulation> sim;
  proto::IdSource ids;
  proto::Cluster cluster;
};

SimCell make_cell(const std::string& name, const proto::ClusterConfig& cfg,
                  Tracer& t) {
  SimCell c;
  c.name = name;
  c.proto = proto::protocol_by_name(name);
  c.sim = std::make_unique<sim::Simulation>();
  c.sim->set_trace_retention(false);
  Scope s(t, "proto.build");
  c.cluster = c.proto->build(*c.sim, cfg, c.ids);
  return c;
}

/// wl::run_workload_sequential's loop — same spec stream, same schedule —
/// with a clock read at each invoke and completion, so each transaction's
/// wall-clock latency is measured.  Returns the events applied; equal to the
/// library driver's count iff the execution is the same.
std::size_t timed_sequential(SimCell& c, const wl::WorkloadConfig& cfg,
                             obs::Histogram& lat_ns, std::size_t& incomplete) {
  sim::Simulation& sim = *c.sim;
  Rng rng(cfg.seed);
  std::vector<sim::ProcessHandle<ClientBase>> clients;
  std::vector<sim::ProcessHandle<const ClientBase>> clients_ro;
  for (auto id : c.cluster.clients) {
    clients.emplace_back(sim, id);
    clients_ro.emplace_back(std::as_const(sim), id);
  }
  const std::vector<sim::ProcessId> parts = sim::all_processes(sim);
  for (std::size_t i = 0; i < cfg.num_txs; ++i) {
    const std::size_t slot = i % c.cluster.clients.size();
    proto::TxSpec spec = wl::next_tx(
        c.ids, c.cluster, cfg, c.proto->supports_write_tx(), rng, nullptr);
    const std::uint64_t t0 = now_ns();
    clients[slot]->invoke(spec);
    sim::run_fair_with(
        sim, parts,
        [&](const sim::Simulation&) { return clients_ro[slot]->idle(); },
        cfg.budget_per_tx);
    const std::uint64_t t1 = now_ns();
    if (clients_ro[slot]->has_completed(spec.id))
      lat_ns.record(t1 - t0);
    else
      ++incomplete;
  }
  return sim.trace().size();
}

class SimSustained : public Workload {
 public:
  using Workload::Workload;

  /// Two clusters per protocol: one for the library driver (throughput),
  /// one for its timed copy (per-transaction latency).
  void setup(Tracer& t) override {
    for (const auto& name : kSimProtocols) {
      cells_.push_back(make_cell(name, sim_cluster(), t));
      timed_cells_.push_back(make_cell(name, sim_cluster(), t));
    }
  }

  void round(Tracer& t, Report& rep) override {
    PinnedRound pin(rounds_++);
    const wl::WorkloadConfig cfg = sim_workload(seed_);
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      SimCell& c = cells_[i];
      obs::Histogram& rot = fresh_rot_latency();
      Deltas d({"sim.steps", "sim.deliveries", "sim.messages_sent",
                "client.rot.rounds", "client.rot.completed"});
      const std::uint64_t t0 = now_ns();
      wl::WorkloadResult res;
      {
        Scope s(t, "workload.run_workload_sequential");
        res = wl::run_workload_sequential(*c.sim, *c.proto, c.cluster, c.ids,
                                          cfg);
      }
      const std::uint64_t ns = now_ns() - t0;
      d.add_to(counts_);
      const std::size_t done = cfg.num_txs - res.incomplete;
      rep.attempted += cfg.num_txs;
      for (std::size_t k = 0; k < res.incomplete; ++k)
        rep.miss("sim-sustained: " + c.name + " transaction incomplete");
      rate(c.name, done, ns);
      ns_per_tx_[c.name].push_back(ratio(static_cast<double>(ns),
                                         static_cast<double>(done)));
      txs_ += done;
      ns_ += ns;

      // Same seed, same protocol: the event count must repeat exactly, in
      // every round and in the timed copy of the driver.
      const std::size_t events = c.sim->trace().size();
      events_total_ += events;
      auto [it, first] = event_counts_.emplace(c.name, events);
      if (first) events_.note(c.name, rot, 1.0);
      if (it->second != events)
        rep.miss("sim-sustained: " + c.name + " event count changed between "
                 "rounds of the same seed");

      if (t.on()) continue;  // the traced run measures layers only
      obs::Histogram wall_ns;
      std::size_t incomplete = 0;
      if (timed_sequential(timed_cells_[i], cfg, wall_ns, incomplete) != events)
        rep.miss("sim-sustained: " + c.name + " timed driver diverged from "
                 "wl::run_workload_sequential");
      rep.attempted += cfg.num_txs;
      for (std::size_t k = 0; k < incomplete; ++k)
        rep.miss("sim-sustained: " + c.name +
                 " transaction incomplete (timed)");
      wall_.note(c.name, wall_ns, 1e-3);
    }
    cells_.clear();  // teardown belongs to neither setup nor the timed work
    timed_cells_.clear();
  }

  void layers(Tracer&, Report& rep) override {
    for (const auto& name : kSimProtocols)
      rep.add("workload.seq_ns_per_tx." + name, median(ns_per_tx_[name]), "ns");
    rep.add("sim.ns_per_event", ratio(ns_, events_total_), "ns");
    rep.add("sim.events_per_tx", ratio(events_total_, txs_), "count");
    rep.add("sim.deliveries_per_step",
            ratio(counts_["sim.deliveries"], counts_["sim.steps"]), "count");
    rep.add("sim.messages_per_tx", ratio(counts_["sim.messages_sent"], txs_),
            "count");
    rep.add("client.rot_rounds_per_rot",
            ratio(counts_["client.rot.rounds"],
                  counts_["client.rot.completed"]),
            "count");
  }

 private:
  std::size_t rounds_ = 0;
  std::vector<SimCell> cells_, timed_cells_;
  std::map<std::string, std::size_t> event_counts_;  ///< first round
  std::map<std::string, std::vector<double>> ns_per_tx_;
  std::map<std::string, std::uint64_t> counts_;
  std::uint64_t txs_ = 0, ns_ = 0, events_total_ = 0;
};

// --- chaos-audit -------------------------------------------------------------

/// chaos_lab's hardened defaults: exactly-once and journal on, 24
/// transactions per plan, 2 servers, 4 clients, 2 objects, retransmit
/// after 8 stalled steps.
chaos::CampaignConfig chaos_config(std::uint64_t seed) {
  chaos::CampaignConfig cfg;
  cfg.cluster.exactly_once = true;
  cfg.cluster.durable_journal = true;
  cfg.workload.num_txs = kChaosTxs;
  cfg.workload.seed = seed;
  cfg.seed = seed;
  return cfg;
}

/// Outcome identity compared between run_once and its split.
std::string outcome_key(const chaos::RunOutcome& o) {
  return chaos::violation_class_str(o.violation) + "|" + o.detail + "|" +
         std::to_string(o.incomplete);
}

/// What one split execution leaves behind besides its outcome.
struct SplitExtras {
  std::vector<wl::TxWindow> windows;
  obs::Histogram rot_latency;
  std::map<std::string, std::uint64_t> driver_counts;  ///< around the driver
  std::map<std::string, std::uint64_t> plan_counts;    ///< whole plan
};

/// The cluster run_once builds: retransmits armed on every client.
proto::Cluster build_armed(const proto::Protocol& p, sim::Simulation& sim,
                           proto::IdSource& ids,
                           const chaos::CampaignConfig& cfg) {
  proto::Cluster cluster = p.build(sim, cfg.cluster, ids);
  if (cfg.client_retransmit_after > 0)
    for (auto c : cluster.clients)
      sim.process_as<ClientBase>(c).set_retransmit_after(
          cfg.client_retransmit_after);
  return cluster;
}

/// chaos::run_once as its public steps, each in its own span: build and arm
/// retransmits, fault session, faulted concurrent driver, read validity,
/// claimed checker, progress audit.
chaos::RunOutcome split_run_once(const proto::Protocol& p,
                                 const fault::FaultPlan& plan,
                                 const chaos::CampaignConfig& cfg, Tracer& t,
                                 SplitExtras& x) {
  chaos::RunOutcome out;
  Deltas plan_d({"fault.drops", "fault.delays", "fault.duplicates",
                 "fault.crashes", "server.recovery.replayed",
                 "server.dedup.evicted"});
  sim::Simulation sim;
  try {
    proto::IdSource ids;
    proto::Cluster cluster;
    {
      Scope s(t, "proto.build");
      cluster = build_armed(p, sim, ids, cfg);
    }
    std::optional<fault::FaultSession> session;
    {
      Scope s(t, "fault.session");
      session.emplace(plan, fault::FaultTopology{cluster.view.servers,
                                                 cluster.clients});
    }
    wl::WorkloadResult result;
    {
      obs::Histogram& rot = fresh_rot_latency();
      Deltas d({"sim.messages_sent", "client.retransmits",
                "server.journal.appends", "client.tx.completed"});
      Scope s(t, "workload.run_workload_concurrent_faulted");
      result = wl::run_workload_concurrent_faulted(sim, p, cluster, ids,
                                                   cfg.workload, *session);
      d.add_to(x.driver_counts);
      x.rot_latency = rot;
    }
    x.windows = result.windows;
    auto flag = [&](const cons::CheckResult& r) {
      if (r.verdict != cons::Verdict::kViolation) return false;
      const auto& v = r.violations.front();
      out.violation = chaos::ViolationClass::kSafety;
      out.detail = v.kind + ": " + v.detail;
      return true;
    };
    {
      Scope s(t, "consistency.check_reads_valid");
      if (flag(cons::check_reads_valid(result.history))) return out;
    }
    {
      Scope s(t, "consistency.check_claimed");
      if (flag(check_claimed(p, result.history))) return out;
    }
    out.incomplete = result.incomplete;
    if (result.incomplete > 0) {
      out.violation = chaos::ViolationClass::kLiveness;
      out.detail = std::to_string(result.incomplete) +
                   " workload transaction(s) never completed";
      return out;
    }
    if (cfg.audit_liveness) {
      Scope s(t, "impossibility.audit_progress");
      imposs::ProgressOptions popts;
      popts.cluster = cfg.cluster;
      popts.client_retransmit_after = cfg.client_retransmit_after;
      auto report = imposs::audit_progress(p, plan, popts);
      if (report.starved()) {
        out.violation = chaos::ViolationClass::kLiveness;
        out.detail = report.detail;
      }
    }
  } catch (const CheckFailure& e) {
    out.violation = chaos::ViolationClass::kSafety;
    out.detail = std::string("invariant failure: ") + e.what();
  }
  plan_d.add_to(x.plan_counts);
  return out;
}

/// run_workload_concurrent_faulted's loop — same spec stream, same
/// schedule — with a clock read at each invoke and at the harvest that
/// sees the completion (the driver's own granularity: one slice of at most
/// 8 events).  Fills `windows` the way the library driver does.
void timed_concurrent(sim::Simulation& sim, const proto::Protocol& p,
                      const proto::Cluster& cluster, proto::IdSource& ids,
                      const wl::WorkloadConfig& cfg,
                      fault::FaultSession& session, obs::Histogram& lat_ns,
                      std::vector<wl::TxWindow>& windows) {
  Rng rng(cfg.seed);
  std::size_t issued = 0;
  std::size_t spent = 0;
  const std::size_t budget = cfg.budget_per_tx * cfg.num_txs;
  std::map<std::uint64_t, std::pair<TxId, std::uint64_t>> active;
  std::map<std::uint64_t, sim::ProcessHandle<ClientBase>> clients;
  std::map<std::uint64_t, sim::ProcessHandle<const ClientBase>> clients_ro;
  for (auto c : cluster.clients) {
    clients.emplace(c.value(), sim::ProcessHandle<ClientBase>(sim, c));
    clients_ro.emplace(
        c.value(), sim::ProcessHandle<const ClientBase>(std::as_const(sim), c));
  }
  while (spent < budget) {
    for (auto client : cluster.clients) {
      if (issued >= cfg.num_txs) break;
      if (active.count(client.value()) > 0) continue;
      if (!clients_ro.at(client.value())->idle()) continue;
      proto::TxSpec spec = wl::next_tx(ids, cluster, cfg,
                                       p.supports_write_tx(), rng, nullptr);
      wl::TxWindow w;
      w.id = spec.id;
      w.client = client;
      w.read_only = spec.read_only();
      w.trace_begin = sim.trace().size();
      windows.push_back(w);
      clients.at(client.value())->invoke(spec);
      active[client.value()] = {spec.id, now_ns()};
      ++issued;
    }
    const std::uint64_t harvest_ns = now_ns();
    for (auto it = active.begin(); it != active.end();) {
      if (clients_ro.at(it->first)->has_completed(it->second.first)) {
        for (auto& w : windows)
          if (w.id == it->second.first) {
            w.completed = true;
            w.trace_end = sim.trace().size();
          }
        lat_ns.record(harvest_ns - it->second.second);
        it = active.erase(it);
      } else {
        ++it;
      }
    }
    if (issued >= cfg.num_txs && active.empty()) break;
    auto stats = fault::run_random_faulted(sim, session, {}, rng, nullptr, 8);
    spent += std::max<std::size_t>(stats.events(), 1);
  }
}

bool same_windows(const std::vector<wl::TxWindow>& a,
                  const std::vector<wl::TxWindow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].id != b[i].id || a[i].trace_begin != b[i].trace_begin ||
        a[i].trace_end != b[i].trace_end || a[i].completed != b[i].completed)
      return false;
  return true;
}

using PlanKey = std::pair<std::string, std::size_t>;  ///< (protocol, plan)

class ChaosAudit : public Workload {
 public:
  explicit ChaosAudit(std::uint64_t seed)
      : Workload(seed), cfg_(chaos_config(seed)) {
    for (const auto& name : kChaosProtocols)
      protos_.push_back(proto::protocol_by_name(name));
  }

  void setup(Tracer& t) override {
    plans_.clear();
    for (std::size_t i = 0; i < kChaosPlans; ++i) {
      Scope s(t, "chaos.random_plan");
      plans_.push_back(chaos::random_plan(cfg_.seed, i, cfg_.cluster));
    }
    // run_once builds its cluster inside; time the same build on a
    // bootstrap simulation.
    for (const auto& p : protos_) {
      sim::Simulation sim;
      proto::IdSource ids;
      Scope s(t, "proto.build");
      p->build(sim, cfg_.cluster, ids);
    }
  }

  void round(Tracer& t, Report& rep) override {
    PinnedRound pin(rounds_++);
    Deltas faults({"fault.drops", "fault.delays", "fault.duplicates",
                   "fault.crashes"});
    for (const auto& p : protos_) {
      std::size_t done = 0;
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < plans_.size(); ++i) {
        chaos::RunOutcome out;
        if (t.on()) {
          SplitExtras x;
          out = split_run_once(*p, plans_[i], cfg_, t, x);
          for (const auto& [n, v] : x.driver_counts) driver_counts_[n] += v;
          for (const auto& [n, v] : x.plan_counts) plan_counts_[n] += v;
        } else {
          out = chaos::run_once(*p, plans_[i], cfg_);
        }
        done += kChaosTxs - std::min(kChaosTxs, out.incomplete);
        ++rep.attempted;
        if (out.violation != chaos::ViolationClass::kNone)
          rep.miss("chaos-audit: " + p->name() + " plan " + std::to_string(i) +
                   " " + chaos::violation_class_str(out.violation) + ": " +
                   out.detail);
        outcomes_[{p->name(), i}] = outcome_key(out);
      }
      const std::uint64_t ns = now_ns() - t0;
      rate(p->name(), done, ns);
      plans_run_ += plans_.size();
      plan_ns_ += ns;
      if (!t.on()) time_transactions(*p);
    }
    faults.add_to(fault_counts_);
  }

  void finish(Report& rep) override {
    for (const char* kind : {"fault.drops", "fault.delays", "fault.duplicates",
                             "fault.crashes"})
      if (fault_counts_[kind] == 0)
        rep.miss(std::string("chaos-audit: no plan fired ") + kind);

    // The split must reproduce run_once's outcome plan by plan, and its
    // library driver the timed copy's windows.
    Tracer off(false);
    for (const auto& p : protos_) {
      for (std::size_t i = 0; i < plans_.size(); ++i) {
        SplitExtras x;
        const chaos::RunOutcome out =
            split_run_once(*p, plans_[i], cfg_, off, x);
        ++rep.attempted;
        const PlanKey key{p->name(), i};
        auto it = outcomes_.find(key);
        if (it == outcomes_.end() || it->second != outcome_key(out))
          rep.miss("chaos-audit: split of run_once changed the outcome of " +
                   p->name() + " plan " + std::to_string(i));
        auto w = timed_windows_.find(key);
        if (w == timed_windows_.end() || !same_windows(w->second, x.windows))
          rep.miss("chaos-audit: timed driver diverged from "
                   "run_workload_concurrent_faulted on " + p->name() +
                   " plan " + std::to_string(i));
        rot_[p->name()].merge(x.rot_latency);
      }
    }
    for (const auto& [name, h] : rot_) events_.note(name, h, 1.0);
  }

  std::uint64_t plan_ns() const { return plan_ns_; }
  const std::map<PlanKey, std::string>& outcomes() const { return outcomes_; }

  void layers(Tracer& t, Report& rep) override {
    const double plans = static_cast<double>(plans_run_);
    const double txs =
        static_cast<double>(driver_counts_["client.tx.completed"]);
    auto per_plan = [&](const char* n) {
      return ratio(static_cast<double>(plan_counts_[n]), plans);
    };
    auto per_tx = [&](std::uint64_t v) {
      return ratio(static_cast<double>(v), txs);
    };
    rep.add("chaos.plan_ns",
            ratio(static_cast<double>(t.total_ns("chaos.random_plan")),
                  static_cast<double>(span_count(t, "chaos.random_plan"))),
            "ns");
    rep.add("workload.faulted_ns_per_tx",
            per_tx(t.total_ns("workload.run_workload_concurrent_faulted")),
            "ns");
    rep.add("consistency.check_ns_per_tx",
            per_tx(t.total_ns("consistency.check_reads_valid") +
                   t.total_ns("consistency.check_claimed")),
            "ns");
    rep.add("impossibility.progress_ns_per_plan",
            ratio(static_cast<double>(
                      t.total_ns("impossibility.audit_progress")),
                  plans),
            "ns");
    rep.add("fault.drops_per_plan", per_plan("fault.drops"), "count");
    rep.add("fault.delays_per_plan", per_plan("fault.delays"), "count");
    rep.add("fault.duplicates_per_plan", per_plan("fault.duplicates"), "count");
    rep.add("fault.crashes_per_plan", per_plan("fault.crashes"), "count");
    rep.add("client.retransmits_per_tx",
            per_tx(driver_counts_["client.retransmits"]), "count");
    rep.add("sim.useful_msg_frac",
            1.0 - ratio(driver_counts_["client.retransmits"],
                        driver_counts_["sim.messages_sent"]),
            "ratio");
    rep.add("server.journal_appends_per_tx",
            per_tx(driver_counts_["server.journal.appends"]), "count");
    rep.add("server.recovery_replayed_per_plan",
            per_plan("server.recovery.replayed"), "count");
    rep.add("server.dedup_evicted_per_plan", per_plan("server.dedup.evicted"),
            "count");
    rep.add("fault.empty_plan_ratio", empty_plan_ratio(), "ratio");
  }

 private:
  /// The timed copy of the faulted driver over every plan: per-transaction
  /// wall-clock latency, and the windows finish() checks.
  void time_transactions(const proto::Protocol& p) {
    obs::Histogram lat_ns;
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      sim::Simulation sim;
      proto::IdSource ids;
      proto::Cluster cluster = build_armed(p, sim, ids, cfg_);
      fault::FaultSession session(
          plans_[i],
          fault::FaultTopology{cluster.view.servers, cluster.clients});
      std::vector<wl::TxWindow> windows;
      timed_concurrent(sim, p, cluster, ids, cfg_.workload, session, lat_ns,
                       windows);
      timed_windows_.emplace(PlanKey{p.name(), i}, std::move(windows));
    }
    wall_.note(p.name(), lat_ns, 1e-3);
  }

  static std::size_t span_count(const Tracer& t, const std::string& name) {
    return static_cast<std::size_t>(std::count_if(
        t.spans().begin(), t.spans().end(),
        [&](const Span& s) { return s.name == name; }));
  }

  /// Layer ledger: the faulted driver with an empty plan over the plain
  /// concurrent driver, on the chaos-audit cluster and workload.  Geometric
  /// mean over protocols of the ratio of median times.
  double empty_plan_ratio() const {
    constexpr int kReps = 15;
    std::vector<double> per_proto;
    for (const auto& p : protos_) {
      std::vector<double> faulted, plain;
      for (int r = 0; r < kReps; ++r) {
        for (bool with_engine : {true, false}) {
          sim::Simulation sim;
          proto::IdSource ids;
          proto::Cluster cluster = build_armed(*p, sim, ids, cfg_);
          fault::FaultSession session(
              fault::FaultPlan{},
              fault::FaultTopology{cluster.view.servers, cluster.clients});
          const std::uint64_t t0 = now_ns();
          if (with_engine)
            wl::run_workload_concurrent_faulted(sim, *p, cluster, ids,
                                                cfg_.workload, session);
          else
            wl::run_workload_concurrent(sim, *p, cluster, ids, cfg_.workload);
          (with_engine ? faulted : plain)
              .push_back(static_cast<double>(now_ns() - t0));
        }
      }
      per_proto.push_back(ratio(median(faulted), median(plain)));
    }
    return geomean(per_proto);
  }

  chaos::CampaignConfig cfg_;
  std::size_t rounds_ = 0;
  std::vector<std::unique_ptr<proto::Protocol>> protos_;
  std::vector<fault::FaultPlan> plans_;
  std::map<PlanKey, std::string> outcomes_;
  std::map<PlanKey, std::vector<wl::TxWindow>> timed_windows_;
  std::map<std::string, obs::Histogram> rot_;
  std::map<std::string, std::uint64_t> fault_counts_, driver_counts_,
      plan_counts_;
  std::uint64_t plans_run_ = 0, plan_ns_ = 0;
};

// --- rt-closed and rt-oracle ------------------------------------------------

proto::ClusterConfig rt_cluster() {
  proto::ClusterConfig c;
  c.num_servers = 4;
  c.num_clients = kRtClients;
  c.num_objects = 8;
  return c;
}

wl::WorkloadConfig rt_workload(std::uint64_t seed, std::size_t txs) {
  wl::WorkloadConfig w;
  w.num_txs = txs;
  w.write_fraction = 0.3;
  w.seed = seed;
  return w;
}

/// rt::run builds its cluster and draws its spec stream inside; time the
/// same build on a bootstrap simulation and the same draws.
void rt_setup(const proto::Protocol& p, std::uint64_t seed, std::size_t txs,
              Tracer& t) {
  sim::Simulation sim;
  proto::IdSource ids;
  proto::Cluster cluster;
  {
    Scope s(t, "proto.build");
    cluster = p.build(sim, rt_cluster(), ids);
  }
  const wl::WorkloadConfig cfg = rt_workload(seed, txs);
  Rng rng(cfg.seed);
  std::size_t reads = 0;
  for (std::size_t i = 0; i < txs; ++i)
    reads += wl::next_tx(ids, cluster, cfg, p.supports_write_tx(), rng, nullptr)
                 .read_set.size();
  if (reads == 0) throw std::logic_error("rt setup drew no reads");
}

/// Max over mean of per-worker step counts in the run's final sample.
double step_imbalance(const rt::RunReport& r) {
  if (r.metrics.samples.empty()) return 0;
  const auto& shards = r.metrics.samples.back().shards;
  auto it = shards.find("rt.steps");
  if (it == shards.end() || it->second.size() < kRtWorkers) return 0;
  double sum = 0, mx = 0;
  for (std::size_t w = 0; w < kRtWorkers; ++w) {
    const auto v = static_cast<double>(it->second[w]);
    sum += v;
    mx = std::max(mx, v);
  }
  return ratio(mx, sum / static_cast<double>(kRtWorkers));
}

class RtClosed : public Workload {
 public:
  explicit RtClosed(std::uint64_t seed) : Workload(seed) {
    for (const auto& name : kRtProtocols)
      protos_.push_back(proto::protocol_by_name(name));
  }

  void setup(Tracer& t) override {
    for (const auto& p : protos_) rt_setup(*p, seed_, kRtTxs, t);
  }

  void round(Tracer& t, Report& rep) override {
    for (const auto& p : protos_) {
      rt::Options opts;
      opts.workers = kRtWorkers;
      opts.capture = false;
      if (t.on()) opts.metrics_interval_us = 2000;  // per-worker step counts
      obs::Histogram& rot = fresh_rot_latency();
      Deltas d({"rt.steps", "rt.deliveries", "rt.messages_sent"});
      const Usage u0 = usage_now();
      const std::uint64_t t0 = now_ns();
      rt::RunReport r;
      {
        Scope s(t, "rt.run");
        r = rt::run(*p, rt_cluster(), rt_workload(seed_, kRtTxs), opts);
      }
      const std::uint64_t ns = now_ns() - t0;
      const Usage u1 = usage_now();
      d.add_to(counts_);
      const std::string& n = p->name();
      rep.attempted += kRtTxs;
      for (std::size_t k = r.txs_completed; k < kRtTxs; ++k)
        rep.miss("rt-closed: " + n + " transaction incomplete");
      if (r.timed_out) rep.miss("rt-closed: " + n + " run timed out");
      rate(n, r.txs_completed, ns);
      wall_.note(n, r.latency_us, 1.0);
      events_.note(n, rot, 1.0);
      by_proto_[n].merge(r.latency_us);
      ns_per_tx_[n].push_back(
          ratio(static_cast<double>(ns), static_cast<double>(r.txs_completed)));
      txs_ += r.txs_completed;
      rt_events_ += r.events;
      cpu_s_ += u1.cpu_s - u0.cpu_s;
      ctx_ += u1.ctx_switches - u0.ctx_switches;
      if (t.on()) imbalance_.push_back(step_imbalance(r));
    }
  }

  void layers(Tracer&, Report& rep) override {
    const double txs = static_cast<double>(txs_);
    rep.add("rt.events_per_tx", ratio(static_cast<double>(rt_events_), txs),
            "count");
    rep.add("rt.steps_per_tx",
            ratio(static_cast<double>(counts_["rt.steps"]), txs), "count");
    rep.add("rt.deliveries_per_step",
            ratio(counts_["rt.deliveries"], counts_["rt.steps"]), "count");
    rep.add("rt.messages_per_tx",
            ratio(static_cast<double>(counts_["rt.messages_sent"]), txs),
            "count");
    rep.add("rt.cpu_s_per_ktx", ratio(cpu_s_, txs / 1000), "s");
    rep.add("rt.ctx_switches_per_tx", ratio(static_cast<double>(ctx_), txs),
            "count");
    rep.add("rt.worker_step_imbalance", median(imbalance_), "ratio");
    for (const auto& p : protos_) {
      const std::string& n = p->name();
      const obs::Histogram& h = by_proto_[n];
      rep.add("rt.ns_per_tx." + n, median(ns_per_tx_[n]), "ns");
      for (auto [q, label] : {std::pair{0.50, ".p50"}, {0.99, ".p99"}})
        rep.add("rt.latency_us." + n + label, percentile(h, q).value, "us",
                h.count());
    }
  }

 private:
  std::vector<std::unique_ptr<proto::Protocol>> protos_;
  std::map<std::string, obs::Histogram> by_proto_;
  std::map<std::string, std::vector<double>> ns_per_tx_;
  std::map<std::string, std::uint64_t> counts_;
  std::vector<double> imbalance_;
  std::uint64_t txs_ = 0, rt_events_ = 0;
  double cpu_s_ = 0;
  long ctx_ = 0;
};

rt::Options oracle_options(bool capture) {
  rt::Options opts;
  opts.workers = kRtWorkers;
  opts.capture = capture;
  return opts;
}

class RtOracle : public Workload {
 public:
  RtOracle(std::uint64_t seed, std::string artifact)
      : Workload(seed),
        proto_(proto::protocol_by_name(kOracleProtocol)),
        artifact_(std::move(artifact)) {}

  void setup(Tracer& t) override { rt_setup(*proto_, seed_, kOracleTxs, t); }

  void round(Tracer& t, Report& rep) override {
    const std::string& n = proto_->name();
    const std::uint64_t t0 = now_ns();
    obs::Histogram& rot = fresh_rot_latency();
    rt::RunReport r;
    {
      Scope s(t, "rt.run");
      r = rt::run(*proto_, rt_cluster(), rt_workload(seed_, kOracleTxs),
                  oracle_options(true));
    }
    events_.note(n, rot, 1.0);
    wall_.note(n, r.latency_us, 1.0);
    // The rest of the loop is single-threaded.  The rt pool's threads
    // already exist, so pinning this thread does not constrain them.
    PinnedRound pin(rounds_++);
    std::string text;
    {
      Scope s(t, "obs.export_jsonl");
      text = obs::export_jsonl(r.doc);
    }
    obs::TraceDoc doc;
    {
      Scope s(t, "obs.import_jsonl");
      doc = obs::import_jsonl(text);
    }
    obs::DocReplay replay;
    {
      Scope s(t, "sim.replay_doc");
      replay = obs::replay_doc(doc, *proto_);
    }
    bool same_bytes = false;
    {
      Scope s(t, "obs.export_jsonl");
      same_bytes = obs::export_jsonl(replay.reexport) == text;
    }
    cons::CheckResult check;
    {
      Scope s(t, "consistency.check_claimed");
      check = check_claimed(*proto_, doc.history);
    }
    const std::uint64_t ns = now_ns() - t0;

    ++rep.attempted;
    std::string why;
    if (r.txs_completed != kOracleTxs || r.timed_out)
      why = "rt run incomplete or timed out";
    else if (!replay.ok)
      why = "replay failed: " + replay.error;
    else if (!replay.digest_match)
      why = "replayed digest differs";
    else if (!same_bytes)
      why = "re-export is not byte-identical";
    else if (!check.ok())
      why = "claimed checker: " + check.summary();
    if (!why.empty()) rep.miss("rt-oracle: " + why);
    rate(n, r.txs_completed, ns);

    txs_ += r.txs_completed;
    trace_events_ += doc.events.size();
    trace_bytes_ += text.size();
    if (t.on() && first_text_.empty()) first_text_ = std::move(text);
  }

  void layers(Tracer& t, Report& rep) override {
    const double txs = static_cast<double>(txs_);
    const double events = static_cast<double>(trace_events_);
    auto per = [](std::uint64_t ns, double n) {
      return ratio(static_cast<double>(ns), n);
    };
    rep.add("rt.capture_ns_per_tx", per(t.total_ns("rt.run"), txs), "ns");
    // Two exports per round: the capture and the replay's re-export.
    rep.add("obs.export_ns_per_event",
            per(t.total_ns("obs.export_jsonl"), 2 * events), "ns");
    rep.add("obs.import_ns_per_event",
            per(t.total_ns("obs.import_jsonl"), events), "ns");
    rep.add("obs.trace_bytes_per_event",
            ratio(static_cast<double>(trace_bytes_), events), "B");
    rep.add("sim.replay_ns_per_event",
            per(t.total_ns("sim.replay_doc"), events), "ns");
    rep.add("consistency.oracle_check_ns_per_tx",
            per(t.total_ns("consistency.check_claimed"), txs), "ns");
    rep.add("rt.capture_cost_ratio", capture_cost_ratio(), "ratio");
    // The first traced capture, for `trace_explorer hist` and friends.
    if (!artifact_.empty() && !first_text_.empty()) {
      std::ofstream out(artifact_, std::ios::binary | std::ios::trunc);
      out << first_text_;
      if (!out) rep.miss("rt-oracle: cannot write " + artifact_);
    }
  }

 private:
  /// Layer ledger: rt::run with capture on over capture off, same config.
  double capture_cost_ratio() const {
    constexpr int kReps = 3;
    std::vector<double> on, off;
    for (int r = 0; r < kReps; ++r)
      for (bool capture : {true, false}) {
        const std::uint64_t t0 = now_ns();
        rt::run(*proto_, rt_cluster(), rt_workload(seed_, kOracleTxs),
                oracle_options(capture));
        (capture ? on : off).push_back(static_cast<double>(now_ns() - t0));
      }
    return ratio(median(on), median(off));
  }

  std::unique_ptr<proto::Protocol> proto_;
  std::size_t rounds_ = 0;
  std::string artifact_;
  std::string first_text_;
  std::uint64_t txs_ = 0, trace_events_ = 0, trace_bytes_ = 0;
};

// --- drivers ----------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunArgs& args) {
  if (name == "sim-sustained") return std::make_unique<SimSustained>(args.seed);
  if (name == "chaos-audit") return std::make_unique<ChaosAudit>(args.seed);
  if (name == "rt-closed") return std::make_unique<RtClosed>(args.seed);
  if (name == "rt-oracle")
    return std::make_unique<RtOracle>(
        args.seed,
        args.out_dir.empty() ? "" : args.out_dir + "/rt-oracle.trace.jsonl");
  throw std::invalid_argument("unknown workload '" + name + "'");
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sim-sustained", "chaos-audit",
                                                 "rt-closed", "rt-oracle"};
  return names;
}

Report run_end_to_end(const std::string& workload, const RunArgs& args) {
  Report rep;
  auto w = make_workload(workload, args);
  Tracer off(false);
  std::vector<double> setup_s;
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
  do {
    const std::uint64_t t0 = now_ns();
    w->setup(off);
    setup_s.push_back(secs(now_ns() - t0));
    w->round(off, rep);
  } while (now_ns() < end);
  w->finish(rep);
  w->report(rep);
  rep.add("setup_s", quantile(setup_s, kFastTime), "s", setup_s.size());
  rep.add("peak_rss_mb", peak_rss_mib(), "MiB");
  return rep;
}

Report run_traced(const std::string& first, const RunArgs& args) {
  Report rep;
  std::vector<std::string> order = {first};
  for (const auto& n : workload_names())
    if (n != first) order.push_back(n);
  // Each workload gets a quarter of the run: half untraced, then the same
  // number of rounds traced.
  const double half = args.seconds / 8;

  obs::Registry summary;
  std::vector<double> build_s;
  for (const auto& name : order) {
    auto plain = make_workload(name, args);
    auto traced = make_workload(name, args);
    Tracer off(false), on(true);
    int rounds = 0;
    const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(half * 1e9);
    do {
      plain->setup(off);
      plain->round(off, rep);
      ++rounds;
    } while (now_ns() < end);
    for (int r = 0; r < rounds; ++r) {
      {
        Scope s(on, "bench.setup");
        traced->setup(on);
      }
      Scope s(on, "bench.round");
      traced->round(on, rep);
    }
    plain->finish(rep);  // correctness checks over the untraced rounds

    traced->layers(on, rep);
    rep.add("trace.overhead." + name,
            ratio(plain->tx_per_s(), traced->tx_per_s()), "ratio");
    if (name == "chaos-audit") {
      // The split's stage sum against run_once over the same plans and
      // rounds, and the same outcome plan by plan.
      const auto& p = static_cast<const ChaosAudit&>(*plain);
      const auto& q = static_cast<const ChaosAudit&>(*traced);
      const double split =
          ratio(static_cast<double>(on.total_ns("bench.round")),
                static_cast<double>(p.plan_ns()));
      rep.add("chaos.split_over_run_once", split, "ratio");
      if (split < 0.5 || split > 2.0)
        rep.miss("chaos-audit: split stage sum is not run_once's time");
      if (p.outcomes() != q.outcomes())
        rep.miss("chaos-audit: traced split changed a run_once outcome");
    }
    const double total = static_cast<double>(on.total_ns("bench.setup") +
                                              on.total_ns("bench.round"));
    for (const auto& [layer, ns] : on.self_ns_by_layer())
      rep.add("self_share." + name + "." + layer,
              ratio(static_cast<double>(ns), total), "ratio");
    for (const auto& s : on.spans())
      if (s.name == "proto.build")
        build_s.push_back(secs(s.end_ns - s.start_ns));
    on.summarize(summary, name + ".");
  }
  rep.add("proto.build_s", median(build_s), "s", build_s.size());

  if (!args.out_dir.empty()) {
    summary.absorb(obs::Registry::global());
    const std::string path = args.out_dir + "/traced.metrics.jsonl";
    if (!write_metrics_sample(path, "perfbench:traced:" + first, summary, 0))
      rep.miss("cannot write " + path);
  }
  return rep;
}

}  // namespace perfbench
