// Chaos lab: randomized fault campaigns with counterexample shrinking.
//
// Runs seeded chaos campaigns (src/chaos) against the protocol corpus:
// each run draws a random fault plan inside the fairness envelope, executes
// a concurrent workload under it, and certifies safety (consistency
// checkers) and liveness (progress audit).  Violations are shrunk to a
// minimal reproducing plan and written as "discs.chaosrepro.v1" JSON.
//
//   chaos_lab [--protocol NAME] [--runs N] [--seed S] [--txs N]
//             [--shards N] [--servers M] [--objects K] [--replicas R]
//             [--no-exactly-once] [--no-journal] [--out DIR] [--flight N]
//   chaos_lab --repro FILE        re-execute a saved counterexample
//
// Flight recorder (--flight N, default 64, 0 = off): every violation's
// trace tail is embedded in the repro spec AND written standalone as
// "discs.flight.v1" JSONL next to it (chaos-<proto>-<i>.flight.json).  A
// crash signal (SIGSEGV/SIGABRT) dumps the most recent tail to
// <out>/chaos-crash.flight.json from an async-signal-safe handler that
// write()s a buffer pre-serialized between campaigns.
//
// --shards sets the shard count (docs/SHARDING.md; the default is one
// shard per object); pair with --servers/--objects/--replicas to shape
// the cluster (e.g. `--shards 64 --servers 8 --objects 1000000 --replicas 2`
// runs the campaign over the Appendix A general model at scale).
//
// Default configuration runs with the exactly-once session layer and the
// durable journal ON — the hardened stack the campaign certifies.  The
// --no-* switches expose the unhardened corners (and make for interesting
// counterexamples: try `--protocol cops --no-journal`).
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "obs/flight.h"
#include "proto/registry.h"
#include "util/check.h"

using namespace discs;

namespace {

// Crash dump plumbing.  The handler may run at any point, so it cannot
// allocate, format, or touch stdio — it write()s bytes that were fully
// serialized earlier, on the main thread, between campaign runs.  The
// ready flag gates the handler off while the buffers are being refreshed.
std::string g_crash_dump_path;
std::string g_crash_dump;
std::atomic<bool> g_crash_dump_ready{false};

extern "C" void flight_signal_handler(int sig) {
  if (g_crash_dump_ready.load(std::memory_order_acquire)) {
    int fd = ::open(g_crash_dump_path.c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ssize_t n = ::write(fd, g_crash_dump.data(), g_crash_dump.size());
      (void)n;
      ::close(fd);
    }
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void refresh_crash_dump(const std::string& path, const std::string& dump) {
  g_crash_dump_ready.store(false, std::memory_order_release);
  g_crash_dump_path = path;
  g_crash_dump = dump;
  g_crash_dump_ready.store(true, std::memory_order_release);
}

}  // namespace

int main(int argc, char** argv) {
  chaos::CampaignConfig cfg;
  cfg.cluster.exactly_once = true;
  cfg.cluster.durable_journal = true;
  cfg.workload.num_txs = 24;
  std::vector<std::string> protocols;
  std::string out_dir = ".";
  std::string repro_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      DISCS_CHECK_MSG(i + 1 < argc, arg << " needs an argument");
      return argv[++i];
    };
    if (arg == "--protocol") {
      protocols.push_back(next());
    } else if (arg == "--runs") {
      cfg.runs = std::stoul(next());
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(next());
    } else if (arg == "--txs") {
      cfg.workload.num_txs = std::stoul(next());
    } else if (arg == "--shards") {
      cfg.cluster.num_shards = std::stoul(next());
    } else if (arg == "--servers") {
      cfg.cluster.num_servers = std::stoul(next());
    } else if (arg == "--objects") {
      cfg.cluster.num_objects = std::stoul(next());
    } else if (arg == "--replicas") {
      cfg.cluster.replication = std::stoul(next());
    } else if (arg == "--no-exactly-once") {
      cfg.cluster.exactly_once = false;
    } else if (arg == "--no-journal") {
      cfg.cluster.durable_journal = false;
    } else if (arg == "--flight") {
      cfg.flight_capacity = std::stoul(next());
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--repro") {
      repro_path = next();
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  if (!repro_path.empty()) {
    std::ifstream in(repro_path);
    if (!in.good()) {
      std::cerr << "chaos_lab: cannot open repro file '" << repro_path
                << "'\n";
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    // One diagnostic contract for every malformed input: bad JSON syntax,
    // missing/mistyped fields, and specs naming unknown protocols all print
    // a single "chaos_lab: invalid repro" line and exit nonzero (pinned by
    // ctest) instead of dying on an unhandled exception.
    chaos::ReproSpec spec;
    chaos::RunOutcome outcome;
    try {
      spec = chaos::ReproSpec::parse(text.str());
      outcome = chaos::run_repro(spec);
    } catch (const std::exception& e) {
      std::cerr << "chaos_lab: invalid repro '" << repro_path
                << "': " << e.what() << "\n";
      return 1;
    }
    std::cout << "repro " << repro_path << " (" << spec.protocol
              << ", expected " << chaos::violation_class_str(spec.expected)
              << "): observed " << chaos::violation_class_str(outcome.violation)
              << (outcome.detail.empty() ? "" : " — " + outcome.detail)
              << "\n";
    if (!spec.flight.empty())
      std::cout << "  flight: " << spec.flight.size()
                << " event(s) recorded at capture\n";
    // Exit 0 when the observation matches the expectation recorded in the
    // spec — for pinned-known-bad specs that means "still reproduces".
    return outcome.violation == spec.expected ? 0 : 1;
  }

  if (protocols.empty())
    for (const auto& p : proto::correct_protocols())
      protocols.push_back(p->name());

  if (cfg.flight_capacity > 0) {
    std::signal(SIGSEGV, flight_signal_handler);
    std::signal(SIGABRT, flight_signal_handler);
  }

  int violations = 0;
  for (const auto& name : protocols) {
    auto protocol = proto::protocol_by_name(name);
    auto result = chaos::run_campaign(*protocol, cfg);
    std::cout << name << ": " << result.runs << " runs, "
              << result.counterexamples.size() << " violation(s)\n";
    for (std::size_t i = 0; i < result.counterexamples.size(); ++i) {
      const auto& cex = result.counterexamples[i];
      ++violations;
      std::cout << "  [" << chaos::violation_class_str(cex.cls) << "] "
                << cex.detail << "\n    rules " << cex.original.rules.size()
                << " -> " << cex.minimized.rules.size() << " after "
                << cex.shrink_steps << " shrink step(s)\n";
      auto spec = chaos::make_repro(*protocol, cex, cfg);
      std::string base =
          out_dir + "/chaos-" + name + "-" + std::to_string(i);
      std::string path = base + ".repro.json";
      std::ofstream out(path);
      out << spec.dump() << "\n";
      std::cout << "    repro written to " << path << "\n";
      if (!cex.flight.empty()) {
        std::string reason = chaos::violation_class_str(cex.cls) + ": " +
                             cex.detail;
        std::string dump = obs::export_flight_jsonl(cex.flight, reason);
        std::string fpath = base + ".flight.json";
        std::ofstream fout(fpath);
        fout << dump;
        std::cout << "    flight tail (" << cex.flight.size()
                  << " events) written to " << fpath << "\n";
        refresh_crash_dump(out_dir + "/chaos-crash.flight.json", dump);
      }
    }
  }
  std::cout << (violations == 0 ? "no violations found\n" : "") << std::flush;
  return violations == 0 ? 0 : 3;
}
