#include "impossibility/progress.h"

#include "fault/session.h"
#include "obs/registry.h"
#include "proto/common/client.h"
#include "util/fmt.h"

namespace discs::imposs {

using discs::fault::FaultSession;
using discs::fault::FaultTopology;
using discs::proto::ClientBase;
using discs::proto::Cluster;
using discs::proto::IdSource;
using discs::proto::Protocol;
using discs::proto::TxSpec;

ProgressReport audit_progress(const Protocol& proto,
                              const discs::fault::FaultPlan& plan,
                              const ProgressOptions& options) {
  ProgressReport report;
  report.protocol = proto.name();
  report.plan = plan.name.empty() ? "(unnamed)" : plan.name;
  obs::Registry::global().inc("fault.progress_audits");

  // The report reads only client state, so the audit keeps no trace: with
  // retention on, the probe's first event would copy the shared prefix.
  // Events, digests, counters and Trace::size() are the same either way.
  sim::Simulation sim;
  sim.set_trace_retention(false);
  IdSource ids;
  Cluster cluster = proto.build(sim, options.cluster, ids);
  FaultSession session(plan, {cluster.view.servers, cluster.clients});

  // A write-only transaction on the first object, from the first client —
  // the w(X) of Theorem 1's construction.
  const ObjectId obj = cluster.view.objects.front();
  const ProcessId writer = cluster.clients.front();
  TxSpec write = ids.write_one(obj);
  const ValueId written = write.write_set.front().second;
  if (options.client_retransmit_after > 0)
    sim.process_as<ClientBase>(writer).set_retransmit_after(
        options.client_retransmit_after);
  sim.process_as<ClientBase>(writer).invoke(write);

  fault::run_fair_faulted(
      sim, session, {},
      [&](const sim::Simulation& sm) {
        return sm.process_as<const ClientBase>(writer).has_completed(write.id);
      },
      options.drive_budget);
  report.write_completed =
      sim.process_as<const ClientBase>(writer).has_completed(write.id);

  // Let the faulted system run on: whatever propagation the adversary
  // permits (gossip, stabilization, retransmissions) happens here.
  fault::run_fair_faulted(sim, session, {}, nullptr, options.settle_budget);

  // Probe on a branch, still under the adversary: copy the simulation AND
  // the session (its fates, queues and crash progress are part of the
  // adversary's state), add a fresh reader, and run the ROT to completion.
  sim::Simulation probe = sim;
  FaultSession probe_session = session;
  const ProcessId reader = proto.add_client(probe, cluster.view);
  probe_session.note_client(reader);
  TxSpec rot = ids.read_tx({obj});
  if (options.client_retransmit_after > 0)
    probe.process_as<ClientBase>(reader).set_retransmit_after(
        options.client_retransmit_after);
  probe.process_as<ClientBase>(reader).invoke(rot);
  fault::run_fair_faulted(
      probe, probe_session, {},
      [&](const sim::Simulation& sm) {
        return sm.process_as<const ClientBase>(reader).has_completed(rot.id);
      },
      options.probe_budget);

  auto& client = probe.process_as<ClientBase>(reader);
  report.probe_completed = client.has_completed(rot.id);
  if (report.probe_completed) {
    auto got = client.result_of(rot.id);
    auto it = got.find(obj);
    report.value_visible = it != got.end() && it->second == written;
    report.detail = cat("write ", to_string(written),
                        report.write_completed ? " completed" : " incomplete",
                        "; probe read ",
                        it != got.end() ? to_string(it->second) : "nothing",
                        report.value_visible ? " (progress)" : " (starved)");
  } else {
    report.detail = cat("write ", to_string(written),
                        report.write_completed ? " completed" : " incomplete",
                        "; probe ROT did not complete (starved)");
  }
  if (report.starved()) obs::Registry::global().inc("fault.starvations");
  return report;
}

}  // namespace discs::imposs
