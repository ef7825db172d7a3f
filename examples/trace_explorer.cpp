// trace_explorer: the observability CLI.
//
// Two families of commands:
//
//   Artifact commands (work on exported JSONL traces, see docs/TRACING.md):
//     export <protocol> <scenario> <file> [--spans]
//                                           capture a scenario and write it;
//                                           --spans adds span/cause
//                                           annotations (docs/PROFILING.md)
//     inspect <file> [--process N] [--kind K]
//                                           pretty-print an exported trace,
//                                           optionally filtered
//     replay <file>                         re-execute on a fresh simulation
//                                           and verify the byte-exact
//                                           round-trip guarantee
//     check <file>                          re-run the consistency checkers
//                                           on the imported history
//     spans <file>                          list the span notes of a --spans
//                                           capture
//     critpath <file> [--tx N]              per-ROT critical-path latency
//                                           attribution + offline Table-1
//                                           profile (needs --spans capture)
//     hist <file>                           latency histograms from the
//                                           artifact (plus segment breakdown
//                                           when span-annotated)
//     counters <protocol> <scenario> [--robust] [--out FILE]
//                                           run a scenario and print the
//                                           counter registry; --out dumps a
//                                           discs.counters.v1 JSON file
//     counters --diff <runA> <runB>         compare two counter dumps,
//                                           printing only changed families
//     timeline <file>                       render a discs.metrics.v1
//                                           timeline (sampled by rt runs /
//                                           bench_rt --metrics-out): per-
//                                           counter activity sparklines,
//                                           final gauges/histograms, and
//                                           per-shard breakdowns
//     timeline --diff <runA> <runB>         compare the final samples of
//                                           two metrics timelines
//     flight <file>                         pretty-print a discs.flight.v1
//                                           dump (chaos_lab, rt flight
//                                           recorder)
//
//   Live-run commands (the original debugging lens; also the default when
//   the first argument is a protocol name):
//     run [protocol] [scenario]             annotated trace + property audit
//       scenario: quickread | chase | fracture | lag | induction
//
// Exportable scenarios: quickread | mixed | violation.  The induction
// scenario is intentionally not exportable — it branches configurations,
// which is not a single linear event sequence (see docs/TRACING.md).
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "consistency/checkers.h"
#include "impossibility/induction.h"
#include "impossibility/scenarios.h"
#include "obs/flight.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/metrics_io.h"
#include "obs/registry.h"
#include "obs/span_dag.h"
#include "obs/trace_io.h"
#include "proto/common/client.h"
#include "proto/registry.h"
#include "sim/schedule.h"
#include "util/fmt.h"

using namespace discs;
using proto::ClientBase;

namespace {

proto::ClusterConfig default_cluster() {
  proto::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 5;
  cfg.num_objects = 2;
  return cfg;
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  trace_explorer export <protocol> <scenario> <file> [--spans]\n"
      "  trace_explorer inspect <file> [--process N] [--kind K]\n"
      "  trace_explorer replay <file>\n"
      "  trace_explorer check <file>\n"
      "  trace_explorer spans <file>\n"
      "  trace_explorer critpath <file> [--tx N]\n"
      "  trace_explorer hist <file>\n"
      "  trace_explorer counters <protocol> <scenario> [--robust] [--out F]\n"
      "  trace_explorer counters --diff <runA> <runB>\n"
      "  trace_explorer timeline <file>\n"
      "  trace_explorer timeline --diff <runA> <runB>\n"
      "  trace_explorer flight <file>\n"
      "  trace_explorer run [protocol] [scenario]\n"
      "exportable scenarios: " << join(obs::exportable_scenarios(), " | ")
      << "\nrun scenarios: quickread | chase | fracture | lag | induction\n"
      "protocols:";
  for (const auto& p : proto::all_protocols()) std::cerr << " " << p->name();
  std::cerr << "\n";
  return 2;
}

std::unique_ptr<proto::Protocol> resolve_protocol(const std::string& name) {
  try {
    return proto::protocol_by_name(name);
  } catch (const CheckFailure& e) {
    std::cerr << e.what() << "\nknown protocols:";
    for (const auto& p : proto::all_protocols())
      std::cerr << " " << p->name();
    std::cerr << "\n";
    return nullptr;
  }
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::optional<obs::TraceDoc> load_doc(const std::string& path) {
  auto text = read_file(path);
  if (!text) return std::nullopt;
  try {
    return obs::import_jsonl(*text);
  } catch (const CheckFailure& e) {
    std::cerr << path << ": " << e.what() << "\n";
    return std::nullopt;
  }
}

std::string message_line(const obs::ExportedMessage& m) {
  std::ostringstream os;
  os << to_string(m.id) << " " << to_string(m.src) << "->" << to_string(m.dst)
     << " [" << m.kind << "] " << m.desc << " (" << m.bytes << "B";
  if (!m.values.empty())
    os << ", carries " << join(m.values, ",", [](ValueId v) {
      return to_string(v);
    });
  os << ")";
  return os.str();
}

// --- export ---------------------------------------------------------------

int cmd_export(const std::string& proto_name, const std::string& scenario,
               const std::string& path, bool spans) {
  auto protocol = resolve_protocol(proto_name);
  if (!protocol) return 2;
  proto::ClusterConfig cluster = default_cluster();
  cluster.record_spans = spans;
  obs::TraceDoc doc;
  try {
    doc = obs::capture_scenario(*protocol, scenario, cluster);
  } catch (const CheckFailure& e) {
    std::cerr << e.what() << "\nexportable scenarios: "
              << join(obs::exportable_scenarios(), " | ") << "\n";
    return 2;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out << obs::export_jsonl(doc);
  std::cout << "wrote " << path << ": " << doc.protocol << "/" << doc.scenario
            << ", " << doc.events.size() << " events, "
            << doc.invokes.size() << " invokes, "
            << doc.history.txs().size() << " transactions";
  if (!doc.spans.empty()) std::cout << ", " << doc.spans.size() << " spans";
  std::cout << "\n";
  return 0;
}

// --- spans / critpath / hist ----------------------------------------------

/// The span commands need a document exported with --spans.
bool require_spans(const std::string& path, const obs::TraceDoc& doc) {
  if (doc.cluster.record_spans) return true;
  std::cerr << path << ": no span annotations (re-export with --spans)\n";
  return false;
}

int cmd_spans(const std::string& path) {
  auto doc = load_doc(path);
  if (!doc || !require_spans(path, *doc)) return 1;
  std::cout << doc->spans.size() << " span notes:\n";
  for (const auto& s : doc->spans) {
    std::cout << "  at=" << s.at << " "
              << pad(std::string(obs::span_kind_str(s.kind)), 12)
              << " " << to_string(TxId(s.tx)) << " "
              << to_string(ProcessId(s.proc));
    if (s.kind == obs::SpanNote::Kind::kRound ||
        s.kind == obs::SpanNote::Kind::kTxEnd)
      std::cout << " waves=" << s.round;
    std::cout << "\n";
  }
  return 0;
}

int cmd_critpath(const std::string& path, std::optional<std::uint64_t> tx) {
  auto doc = load_doc(path);
  if (!doc || !require_spans(path, *doc)) return 1;
  try {
    obs::SpanDag dag(*doc);
    std::vector<obs::SpanDag::TxInfo> targets;
    if (tx) {
      for (const auto& t : dag.transactions())
        if (t.id == TxId(*tx)) targets.push_back(t);
      if (targets.empty()) {
        std::cerr << "transaction T" << *tx << " not in this trace\n";
        return 1;
      }
    } else {
      targets = dag.completed_rots();
    }
    for (const auto& t : targets) {
      if (!t.completed) {
        std::cout << to_string(t.id) << ": incomplete, skipped\n";
        continue;
      }
      auto cp = dag.critical_path(t.id);
      std::cout << cp.summary() << "\n";
      for (const auto& seg : cp.segments)
        std::cout << "    [" << seg.from << "," << seg.to << ") "
                  << pad(std::string(obs::segment_kind_str(seg.kind)), 14)
                  << " "
                  << to_string(seg.process) << " +" << seg.length() << "\n";
      if (t.read_only) {
        auto p = dag.profile(t.id);
        std::cout << "    profile: rounds=" << p.rounds
                  << " N=" << (p.nonblocking ? "yes" : "NO")
                  << " vals/msg=" << p.max_values_per_message
                  << " vals/obj=" << p.max_values_per_object
                  << (p.leaked_foreign_values ? " foreign-values!" : "")
                  << " bytes=" << p.reply_bytes << "\n";
      }
    }
  } catch (const CheckFailure& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}

int cmd_hist(const std::string& path) {
  auto doc = load_doc(path);
  if (!doc) return 1;
  obs::Histogram all, rot;
  for (const auto& t : doc->history.txs()) {
    if (!t.completed) continue;
    std::uint64_t latency = t.complete_seq - t.invoke_seq;
    all.record(latency);
    if (!t.reads.empty() && t.writes.empty()) rot.record(latency);
  }
  std::cout << "tx latency (events):  " << all.str() << "\n"
            << "rot latency (events): " << rot.str() << "\n";
  if (!doc->cluster.record_spans) {
    std::cout << "(no span annotations; re-export with --spans for the "
                 "critical-path breakdown)\n";
    return 0;
  }
  try {
    obs::SpanDag dag(*doc);
    std::map<obs::SegmentKind, obs::Histogram> by_kind;
    for (const auto& t : dag.completed_rots()) {
      auto cp = dag.critical_path(t.id);
      for (obs::SegmentKind k :
           {obs::SegmentKind::kClientThink, obs::SegmentKind::kNetRequest,
            obs::SegmentKind::kServerQueue, obs::SegmentKind::kServerService,
            obs::SegmentKind::kNetReply, obs::SegmentKind::kClientFinish})
        by_kind[k].record(cp.total(k));
    }
    std::cout << "critical-path segments per ROT (events):\n";
    for (const auto& [k, h] : by_kind)
      std::cout << "  " << pad(std::string(obs::segment_kind_str(k)), 14)
                << " " << h.str() << "\n";
  } catch (const CheckFailure& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}

// --- inspect --------------------------------------------------------------

struct InspectFilter {
  std::optional<std::uint64_t> process;
  std::optional<std::string> kind;

  bool matches(const obs::TraceDoc& doc, const obs::ExportedEvent& e) const {
    const obs::ExportedMessage* msg = doc.message(e);
    if (process) {
      ProcessId p(*process);
      // Steps, crashes and restarts name a process; the rest a message.
      bool hit = !msg && e.event.process == p;
      if (msg) hit |= (msg->src == p || msg->dst == p);
      for (const auto& m : doc.sent(e)) hit |= (m.src == p || m.dst == p);
      for (const auto& m : doc.consumed(e)) hit |= (m.src == p || m.dst == p);
      if (!hit) return false;
    }
    if (kind) {
      bool hit = false;
      if (msg) hit |= (msg->kind == *kind);
      for (const auto& m : doc.sent(e)) hit |= (m.kind == *kind);
      for (const auto& m : doc.consumed(e)) hit |= (m.kind == *kind);
      if (!hit) return false;
    }
    return true;
  }
};

int cmd_inspect(const std::string& path, const InspectFilter& filter) {
  auto doc = load_doc(path);
  if (!doc) return 1;

  std::cout << "schema:   " << doc->schema << "\n"
            << "protocol: " << doc->protocol << "\n"
            << "scenario: " << doc->scenario << "\n"
            << "cluster:  " << doc->cluster.num_servers << " servers, "
            << doc->cluster.num_clients << " clients, "
            << doc->cluster.num_objects << " objects\n";
  std::cout << "initial: ";
  for (const auto& [obj, v] : doc->initial)
    std::cout << " " << to_string(obj) << "=" << to_string(v);
  std::cout << "\n\ninvocations:\n";
  for (const auto& inv : doc->invokes)
    std::cout << "  at=" << inv.at << " " << to_string(inv.client) << " "
              << inv.spec.describe() << "\n";

  std::cout << "\nevents (" << doc->events.size() << " total";
  if (filter.process) std::cout << ", filter process=p" << *filter.process;
  if (filter.kind) std::cout << ", filter kind=" << *filter.kind;
  std::cout << "):\n";
  std::size_t shown = 0;
  for (const auto& e : doc->events) {
    if (!filter.matches(*doc, e)) continue;
    ++shown;
    std::cout << "  #" << e.seq << " " << obs::event_kind_str(e.event.kind)
              << " ";
    if (const obs::ExportedMessage* m = doc->message(e)) {
      std::cout << message_line(*m) << "\n";
      continue;
    }
    std::cout << to_string(e.event.process);
    if (e.event.kind == sim::Event::Kind::kCrash)
      std::cout << (e.event.lossy ? " lossy" : " recover");
    std::cout << "\n";
    for (const auto& m : doc->consumed(e))
      std::cout << "      consumed " << message_line(m) << "\n";
    for (const auto& m : doc->sent(e))
      std::cout << "      sent     " << message_line(m) << "\n";
  }
  std::cout << "  (" << shown << " shown)\n";

  std::cout << "\nhistory (" << doc->history.txs().size()
            << " transactions):\n";
  for (const auto& tx : doc->history.txs())
    std::cout << "  " << tx.describe() << "\n";
  std::cout << "\nfinal digest: " << doc->final_digest << "\n";
  return 0;
}

// --- replay ---------------------------------------------------------------

int cmd_replay(const std::string& path) {
  auto doc = load_doc(path);
  if (!doc) return 1;
  std::unique_ptr<proto::Protocol> protocol;
  try {
    protocol = proto::protocol_by_name(doc->protocol);
  } catch (const CheckFailure&) {
    std::cerr << path << ": unknown protocol: " << doc->protocol << "\n";
    return 1;
  }
  obs::DocReplay replay = obs::replay_doc(*doc, *protocol);
  std::cout << "replayed " << replay.applied << "/" << doc->events.size()
            << " events\n";
  if (!replay.ok) {
    std::cout << "replay FAILED: " << replay.error << "\n";
    return 1;
  }
  bool bytes_equal =
      obs::export_jsonl(replay.reexport) == obs::export_jsonl(*doc);
  std::cout << "final digest match: " << (replay.digest_match ? "yes" : "NO")
            << "\nbyte-exact re-export: " << (bytes_equal ? "yes" : "NO")
            << "\nreplayed history: " << replay.history.txs().size()
            << " transactions\n";
  return (replay.digest_match && bytes_equal) ? 0 : 1;
}

// --- check ----------------------------------------------------------------

int cmd_check(const std::string& path) {
  auto doc = load_doc(path);
  if (!doc) return 1;
  std::cout << "checking " << doc->history.txs().size()
            << " transactions from " << doc->protocol << "/" << doc->scenario
            << "\n";
  bool violated = false;
  struct Named {
    const char* name;
    cons::CheckResult result;
  };
  for (const auto& [name, result] :
       {Named{"reads-valid", cons::check_reads_valid(doc->history)},
        Named{"causal", cons::check_causal_consistency(doc->history)},
        Named{"read-atomicity", cons::check_read_atomicity(doc->history)}}) {
    std::cout << "  " << pad(name, 16) << " " << result.summary() << "\n";
    violated |= !result.ok();
  }
  return violated ? 1 : 0;
}

// --- counters -------------------------------------------------------------

int cmd_counters(const std::string& proto_name, const std::string& scenario,
                 bool robust, const std::optional<std::string>& out_path) {
  auto protocol = resolve_protocol(proto_name);
  if (!protocol) return 2;
  proto::ClusterConfig cluster = default_cluster();
  if (robust) {
    // Run the scenario on the hardened stack so the exactly-once and
    // recovery counter families (client.backoff.*, server.dedup.*,
    // server.journal.*, server.recovery.*) show up in the table.
    cluster.exactly_once = true;
    cluster.durable_journal = true;
  }
  obs::Registry::global().reset();
  try {
    obs::capture_scenario(*protocol, scenario, cluster);
  } catch (const CheckFailure& e) {
    std::cerr << e.what() << "\nexportable scenarios: "
              << join(obs::exportable_scenarios(), " | ") << "\n";
    return 2;
  }
  std::cout << "counters for " << protocol->name() << "/" << scenario
            << ":\n"
            << obs::Registry::global().table();
  if (out_path) {
    // Machine-readable dump for `counters --diff` (and anything else that
    // wants to compare runs).
    obs::JsonObject counters;
    for (const auto& [name, v] : obs::Registry::global().counters())
      counters.emplace_back(name, obs::Json(v));
    obs::Json doc(obs::JsonObject{
        {"schema", obs::Json("discs.counters.v1")},
        {"protocol", obs::Json(protocol->name())},
        {"scenario", obs::Json(scenario)},
        {"counters", obs::Json(std::move(counters))}});
    std::ofstream out(*out_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write " << *out_path << "\n";
      return 1;
    }
    out << doc.dump() << "\n";
    std::cout << "wrote " << *out_path << "\n";
  }
  return 0;
}

int cmd_counters_diff(const std::string& path_a, const std::string& path_b) {
  auto load = [](const std::string& path)
      -> std::optional<std::map<std::string, std::uint64_t>> {
    auto text = read_file(path);
    if (!text) return std::nullopt;
    std::map<std::string, std::uint64_t> out;
    try {
      obs::Json doc = obs::Json::parse(*text);
      DISCS_CHECK_MSG(doc.get("schema").as_string() == "discs.counters.v1",
                      "not a discs.counters.v1 dump");
      for (const auto& [name, v] : doc.get("counters").as_object())
        out.emplace(name, v.as_uint());
    } catch (const CheckFailure& e) {
      std::cerr << path << ": " << e.what() << "\n";
      return std::nullopt;
    }
    return out;
  };
  auto a = load(path_a);
  if (!a) return 1;
  auto b = load(path_b);
  if (!b) return 1;

  // Only changed families are printed; absent == 0 on either side.
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"counter", "A", "B", "delta"});
  std::set<std::string> names;
  for (const auto& [name, v] : *a) names.insert(name);
  for (const auto& [name, v] : *b) names.insert(name);
  for (const auto& name : names) {
    auto ia = a->find(name);
    auto ib = b->find(name);
    std::uint64_t va = ia == a->end() ? 0 : ia->second;
    std::uint64_t vb = ib == b->end() ? 0 : ib->second;
    if (va == vb) {
      // A zero-valued family that exists on one side only is still a real
      // difference (the run stopped/started emitting it); don't let the
      // 0 == 0 comparison swallow it.
      if (ia != a->end() && ib != b->end()) continue;
      if (ia == a->end() && ib == b->end()) continue;
      rows.push_back({name, ia == a->end() ? "-" : cat(va),
                      ib == b->end() ? "-" : cat(vb),
                      ib == b->end() ? "gone" : "new"});
      continue;
    }
    std::string delta =
        vb >= va ? cat("+", vb - va) : cat("-", va - vb);
    rows.push_back({name, cat(va), cat(vb), delta});
  }
  if (rows.size() == 1) {
    std::cout << "no counter differences\n";
    return 0;
  }
  std::cout << ascii_table(rows);
  return 0;
}

// --- timeline / flight ----------------------------------------------------

std::optional<obs::MetricsSeries> load_series(const std::string& path) {
  auto text = read_file(path);
  if (!text) return std::nullopt;
  try {
    return obs::import_metrics_jsonl(*text);
  } catch (const CheckFailure& e) {
    std::cerr << path << ": " << e.what() << "\n";
    return std::nullopt;
  }
}

// ASCII activity strip: one glyph per interval, scaled to the busiest one.
std::string sparkline(const std::vector<std::uint64_t>& vals) {
  static constexpr char kLevels[] = ".:-=+*#%@";  // 9 nonzero levels
  std::uint64_t mx = 0;
  for (auto v : vals) mx = std::max(mx, v);
  std::string out;
  out.reserve(vals.size());
  for (auto v : vals)
    out += v == 0 ? ' '
                  : kLevels[static_cast<std::size_t>(
                        8.0 * static_cast<double>(v) /
                        static_cast<double>(mx))];
  return out;
}

// Buckets a long interval series down to `width` glyphs (sums per bucket)
// so a long-running timeline still fits one terminal row.
std::vector<std::uint64_t> downsample(const std::vector<std::uint64_t>& vals,
                                      std::size_t width) {
  if (vals.size() <= width) return vals;
  std::vector<std::uint64_t> out(width, 0);
  for (std::size_t i = 0; i < vals.size(); ++i)
    out[i * width / vals.size()] += vals[i];
  return out;
}

int cmd_timeline(const std::string& path) {
  auto series = load_series(path);
  if (!series) return 1;
  std::cout << "source:  " << series->source << "\n"
            << "samples: " << series->samples.size();
  if (!series->samples.empty())
    std::cout << ", " << series->samples.front().at_us << ".."
              << series->samples.back().at_us << " us";
  std::cout << "\n";
  if (series->samples.empty()) return 0;
  const auto& last = series->samples.back();

  // Counters: per-interval growth (counters are monotone across samples —
  // each sample is a full snapshot, so adjacent differences are activity).
  std::set<std::string> names;
  for (const auto& s : series->samples)
    for (const auto& [n, v] : s.counters) names.insert(n);
  auto counter_at = [](const obs::MetricsSample& s, const std::string& n) {
    auto it = s.counters.find(n);
    return it == s.counters.end() ? std::uint64_t{0} : it->second;
  };
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"counter", "activity", "final", "delta"});
  for (const auto& n : names) {
    std::vector<std::uint64_t> deltas;
    for (std::size_t i = 1; i < series->samples.size(); ++i) {
      std::uint64_t prev = counter_at(series->samples[i - 1], n);
      std::uint64_t cur = counter_at(series->samples[i], n);
      deltas.push_back(cur >= prev ? cur - prev : 0);
    }
    if (deltas.empty()) deltas.push_back(counter_at(series->samples[0], n));
    std::uint64_t first = counter_at(series->samples.front(), n);
    std::uint64_t final = counter_at(last, n);
    rows.push_back({n, sparkline(downsample(deltas, 48)), cat(final),
                    cat("+", final - std::min(first, final))});
  }
  if (rows.size() > 1) std::cout << "\n" << ascii_table(rows);

  if (!last.gauges.empty()) {
    std::cout << "\ngauges (final sample):\n";
    for (const auto& [n, v] : last.gauges)
      std::cout << "  " << pad(n, 28) << " " << v << "\n";
  }
  if (!last.hists.empty()) {
    std::vector<std::vector<std::string>> hrows;
    hrows.push_back({"histogram", "count", "p50", "p95", "p99", "max"});
    for (const auto& [n, h] : last.hists)
      hrows.push_back({n, cat(h.count), cat(h.p50), cat(h.p95), cat(h.p99),
                       cat(h.max)});
    std::cout << "\n" << ascii_table(hrows);
  }
  if (!last.shards.empty()) {
    std::cout << "\nper-shard (final sample):\n";
    for (const auto& [n, vals] : last.shards)
      std::cout << "  " << pad(n, 28) << " ["
                << join(vals, " ", [](std::uint64_t v) { return cat(v); })
                << "]\n";
  }
  return 0;
}

int cmd_timeline_diff(const std::string& path_a, const std::string& path_b) {
  auto a = load_series(path_a);
  if (!a) return 1;
  auto b = load_series(path_b);
  if (!b) return 1;
  std::cout << "A: " << a->source << ", " << a->samples.size()
            << " sample(s)\nB: " << b->source << ", " << b->samples.size()
            << " sample(s)\n";
  obs::MetricsSample fa =
      a->samples.empty() ? obs::MetricsSample{} : a->samples.back();
  obs::MetricsSample fb =
      b->samples.empty() ? obs::MetricsSample{} : b->samples.back();

  // Same contract as `counters --diff`: only changed families, and a
  // family present on one side only is a difference even at value 0.
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"counter", "A", "B", "delta"});
  std::set<std::string> names;
  for (const auto& [n, v] : fa.counters) names.insert(n);
  for (const auto& [n, v] : fb.counters) names.insert(n);
  for (const auto& n : names) {
    auto ia = fa.counters.find(n);
    auto ib = fb.counters.find(n);
    std::uint64_t va = ia == fa.counters.end() ? 0 : ia->second;
    std::uint64_t vb = ib == fb.counters.end() ? 0 : ib->second;
    if (va == vb) {
      if (ia != fa.counters.end() && ib != fb.counters.end()) continue;
      if (ia == fa.counters.end() && ib == fb.counters.end()) continue;
      rows.push_back({n, ia == fa.counters.end() ? "-" : cat(va),
                      ib == fb.counters.end() ? "-" : cat(vb),
                      ib == fb.counters.end() ? "gone" : "new"});
      continue;
    }
    rows.push_back({n, cat(va), cat(vb),
                    vb >= va ? cat("+", vb - va) : cat("-", va - vb)});
  }
  if (rows.size() == 1) {
    std::cout << "no counter differences in the final samples\n";
    return 0;
  }
  std::cout << ascii_table(rows);
  return 0;
}

int cmd_flight(const std::string& path) {
  auto text = read_file(path);
  if (!text) return 1;
  try {
    std::istringstream in(*text);
    std::string line;
    std::size_t shown = 0;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      obs::Json j = obs::Json::parse(line);
      const std::string rec = j.get("record").as_string();
      if (rec == "header") {
        DISCS_CHECK_MSG(j.get("schema").as_string() == obs::kFlightSchema,
                        "not a discs.flight.v1 dump");
        std::cout << "reason: " << j.get("reason").as_string() << "\n"
                  << j.get("events").as_uint() << " event(s), oldest first:\n";
        continue;
      }
      DISCS_CHECK_MSG(rec == "flight", "unexpected record '" << rec << "'");
      obs::FlightEvent e = obs::flight_event_from_json(j);
      std::cout << "  #" << e.seq << " " << pad(e.kind, 10) << " "
                << to_string(ProcessId(e.process));
      if (e.kind == "step")
        std::cout << " consumed=" << e.consumed << " sent=" << e.sent;
      else if (e.kind != "crash" && e.kind != "restart")
        std::cout << " " << to_string(MsgId(e.msg_id)) << " <- "
                  << to_string(ProcessId(e.src)) << " [" << e.payload << "]";
      std::cout << "\n";
      ++shown;
    }
    std::cout << "(" << shown << " shown)\n";
  } catch (const CheckFailure& e) {
    std::cerr << path << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}

// --- live-run commands (the original explorer) ----------------------------

int quickread(const proto::Protocol& protocol) {
  sim::Simulation sim;
  proto::IdSource ids;
  auto cluster = protocol.build(sim, default_cluster(), ids);

  // One write (the richest the protocol supports), then one read.
  proto::TxSpec w = protocol.supports_write_tx()
                        ? ids.write_tx(cluster.view.objects)
                        : ids.write_one(cluster.view.objects[0]);
  sim.process_as<ClientBase>(cluster.clients[0]).invoke(w);
  sim::run_to_quiescence(sim, {}, 60000);

  std::size_t begin = sim.trace().size();
  proto::TxSpec rot = ids.read_tx(cluster.view.objects);
  sim.process_as<ClientBase>(cluster.clients[1]).invoke(rot);
  sim::run_fair(sim, {},
                [&](const sim::Simulation& s) {
                  return s.process_as<const ClientBase>(cluster.clients[1])
                      .has_completed(rot.id);
                },
                60000);

  std::cout << sim.trace().render(begin, sim.trace().size());
  auto audit = imposs::audit_rot(sim.trace(), begin, sim.trace().size(),
                                 rot.id, cluster.clients[1], cluster.view);
  std::cout << "\naudit: " << audit.summary() << "\n";
  return 0;
}

int cmd_run(const std::string& proto_name, const std::string& scenario) {
  auto protocol = resolve_protocol(proto_name);
  if (!protocol) return 2;

  std::cout << "protocol: " << protocol->name() << " ("
            << protocol->consistency_claim() << ")\nscenario: " << scenario
            << "\n\n";

  if (scenario == "quickread") return quickread(*protocol);
  if (scenario == "chase") {
    auto audit = imposs::run_dependency_chase(*protocol, default_cluster());
    std::cout << "dependency chase audit: " << audit.summary() << "\n";
    return 0;
  }
  if (scenario == "fracture") {
    auto audit = imposs::run_fracture_chase(*protocol, default_cluster());
    if (!audit.completed) {
      std::cout << "not applicable (protocol rejects write transactions or "
                   "reader stuck)\n";
      return 0;
    }
    std::cout << "fracture chase audit: " << audit.summary() << "\n";
    return 0;
  }
  if (scenario == "lag") {
    auto audit = imposs::run_stabilization_lag(*protocol, default_cluster());
    std::cout << "stabilization lag audit: " << audit.summary() << "\n";
    return 0;
  }
  if (scenario == "induction") {
    imposs::InductionOptions options;
    options.max_steps = 8;
    auto report = imposs::run_induction(*protocol, default_cluster(),
                                        options);
    std::cout << report.summary();
    return 0;
  }

  std::cerr << "unknown scenario '" << scenario
            << "' (quickread | chase | fracture | lag | induction)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);

  if (args.empty()) return cmd_run("cops-snow", "quickread");

  const std::string& cmd = args[0];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") return usage();

  if (cmd == "export") {
    bool spans = false;
    std::vector<std::string> rest;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--spans")
        spans = true;
      else
        rest.push_back(args[i]);
    }
    if (rest.size() != 3) return usage();
    return cmd_export(rest[0], rest[1], rest[2], spans);
  }
  if (cmd == "inspect") {
    if (args.size() < 2) return usage();
    InspectFilter filter;
    for (std::size_t i = 2; i < args.size(); i += 2) {
      if (i + 1 >= args.size()) return usage();
      if (args[i] == "--process")
        filter.process = std::stoull(args[i + 1]);
      else if (args[i] == "--kind")
        filter.kind = args[i + 1];
      else
        return usage();
    }
    return cmd_inspect(args[1], filter);
  }
  if (cmd == "replay") {
    if (args.size() != 2) return usage();
    return cmd_replay(args[1]);
  }
  if (cmd == "check") {
    if (args.size() != 2) return usage();
    return cmd_check(args[1]);
  }
  if (cmd == "spans") {
    if (args.size() != 2) return usage();
    return cmd_spans(args[1]);
  }
  if (cmd == "critpath") {
    if (args.size() != 2 && args.size() != 4) return usage();
    std::optional<std::uint64_t> tx;
    if (args.size() == 4) {
      if (args[2] != "--tx") return usage();
      tx = std::stoull(args[3]);
    }
    return cmd_critpath(args[1], tx);
  }
  if (cmd == "hist") {
    if (args.size() != 2) return usage();
    return cmd_hist(args[1]);
  }
  if (cmd == "counters") {
    if (args.size() == 4 && args[1] == "--diff")
      return cmd_counters_diff(args[2], args[3]);
    bool robust = false;
    std::optional<std::string> out_path;
    std::vector<std::string> rest;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--robust") {
        robust = true;
      } else if (args[i] == "--out") {
        if (i + 1 >= args.size()) return usage();
        out_path = args[++i];
      } else {
        rest.push_back(args[i]);
      }
    }
    if (rest.size() != 2) return usage();
    return cmd_counters(rest[0], rest[1], robust, out_path);
  }
  if (cmd == "timeline") {
    if (args.size() == 4 && args[1] == "--diff")
      return cmd_timeline_diff(args[2], args[3]);
    if (args.size() != 2) return usage();
    return cmd_timeline(args[1]);
  }
  if (cmd == "flight") {
    if (args.size() != 2) return usage();
    return cmd_flight(args[1]);
  }
  if (cmd == "run") {
    return cmd_run(args.size() > 1 ? args[1] : "cops-snow",
                   args.size() > 2 ? args[2] : "quickread");
  }

  // Back-compat: `trace_explorer <protocol> [scenario]` still works when
  // the first argument names a registered protocol.
  for (const auto& p : proto::all_protocols()) {
    if (p->name() == cmd)
      return cmd_run(cmd, args.size() > 1 ? args[1] : "quickread");
  }
  return usage();
}
