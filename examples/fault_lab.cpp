// Fault lab: run programmable fault plans against the protocol corpus.
//
// With no arguments this is a guided tour: the paper's delay adversary
// (Figures 2-3) and a lossy-but-live drop+retransmit network are audited
// against every flagship protocol, and the progress reports show which
// plans starve eventual visibility (Theorem 1's progress property) and
// which merely slow the system down.
//
// Usage:
//   fault_lab                          guided tour over scripted plans
//   fault_lab --plan FILE [...]        audit a JSON fault plan (see
//                                      docs/FAULTS.md for the schema)
//   fault_lab --scripted NAME [...]    audit a scripted plan by name
//                                      (paper-delay-adversary | drop-retransmit)
//   fault_lab --protocol NAME          audit one protocol (default: all)
//   fault_lab --export FILE            also capture a faulted execution as
//                                      a discs.trace.v2 JSONL artifact
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "impossibility/progress.h"
#include "obs/trace_io.h"
#include "proto/registry.h"
#include "util/check.h"

using namespace discs;

namespace {

const std::vector<std::string> kDefaultProtocols{
    "cops", "cops-snow", "gentlerain", "wren", "fatcops", "eiger", "spanner"};

void audit(const fault::FaultPlan& plan,
           const std::vector<std::string>& protocols) {
  std::cout << "plan '" << plan.name << "' (seed " << plan.seed << ", "
            << plan.rules.size() << " rule"
            << (plan.rules.size() == 1 ? "" : "s") << ")\n";
  for (const auto& name : protocols) {
    auto protocol = proto::protocol_by_name(name);
    auto report = imposs::audit_progress(*protocol, plan);
    std::cout << "  " << name << ": "
              << (report.progress() ? "PROGRESS" : "STARVED") << " — "
              << report.detail << "\n";
  }
  std::cout << "\n";
}

fault::FaultPlan scripted_by_name(const std::string& name) {
  if (name == "paper-delay-adversary") return fault::paper_delay_adversary();
  if (name == "drop-retransmit") return fault::drop_retransmit_plan(0.3, 6);
  DISCS_CHECK_MSG(false, "unknown scripted plan '"
                             << name
                             << "' (paper-delay-adversary | drop-retransmit)");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fault::FaultPlan> plans;
  std::vector<std::string> plan_files;  // parallel to plans; "" if scripted
  std::vector<std::string> protocols = kDefaultProtocols;
  std::string export_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      DISCS_CHECK_MSG(i + 1 < argc, arg << " needs an argument");
      return argv[++i];
    };
    if (arg == "--plan") {
      std::string path = next();
      std::ifstream in(path);
      if (!in.good()) {
        std::cerr << "fault_lab: cannot open plan file '" << path << "'\n";
        return 1;
      }
      std::ostringstream text;
      text << in.rdbuf();
      // A malformed plan is an input error, not a programming error: report
      // it on one line and exit nonzero instead of CHECK-aborting.
      try {
        plans.push_back(fault::FaultPlan::parse(text.str()));
      } catch (const discs::CheckFailure& e) {
        std::cerr << "fault_lab: invalid plan '" << path
                  << "': " << e.what() << "\n";
        return 1;
      }
      plan_files.push_back(path);
    } else if (arg == "--scripted") {
      plans.push_back(scripted_by_name(next()));
      plan_files.emplace_back();
    } else if (arg == "--protocol") {
      protocols = {next()};
    } else if (arg == "--export") {
      export_path = next();
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  if (plans.empty()) {
    // Guided tour: the theorem's adversary, then a survivable lossy network.
    plans.push_back(fault::paper_delay_adversary());
    plans.push_back(fault::drop_retransmit_plan(0.3, 6));
    std::cout << "The paper's delay adversary holds every server->server\n"
                 "message in flight forever; a protocol whose fresh readers\n"
                 "wait on inter-server stabilization starves (Theorem 1's\n"
                 "lost progress).  A lossy network with retransmissions only\n"
                 "slows protocols down — every one still makes progress.\n\n";
  }

  // A plan that names a process outside the cluster it runs on is an input
  // error too: check every plan against every protocol's cluster (the
  // audits' and the export's) before any event runs.
  for (const auto& name : protocols) {
    auto protocol = proto::protocol_by_name(name);
    sim::Simulation sim;
    proto::IdSource ids;
    proto::Cluster cluster = protocol->build(sim, {}, ids);
    for (std::size_t i = 0; i < plan_files.size(); ++i) {
      try {
        plans[i].check_against({cluster.view.servers, cluster.clients});
      } catch (const discs::CheckFailure& e) {
        std::cerr << "fault_lab: invalid plan '" << plan_files[i] << "' for "
                  << name << ": " << e.what() << "\n";
        return 1;
      }
    }
  }

  for (const auto& plan : plans) audit(plan, protocols);

  if (!export_path.empty()) {
    auto protocol = proto::protocol_by_name(protocols.front());
    obs::FaultedCaptureOptions options;
    options.plan = plans.front();
    auto doc = obs::capture_faulted(*protocol, options);
    std::ofstream out(export_path);
    out << obs::export_jsonl(doc);
    std::cout << "exported " << doc.events.size() << " events (" << doc.schema
              << ") to " << export_path << "\n";
  }
  return 0;
}
