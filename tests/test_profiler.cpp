// The causal span profiler: histogram bucket math, registry integration,
// SpanDag latency attribution on a hand-authored fixture, and the
// acceptance pin — the offline Table-1 profile re-derived from a
// span-annotated artifact matches what imposs::audit_rot measured live,
// for every registry protocol.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "impossibility/properties.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "obs/span_dag.h"
#include "obs/trace_io.h"
#include "proto/registry.h"
#include "util/check.h"
#include "workload/workload.h"

namespace discs {
namespace {

using obs::Histogram;
using obs::SegmentKind;
using obs::SpanDag;

// --- Histogram -------------------------------------------------------------

TEST(Histogram, EmptyIsInert) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_TRUE(std::isnan(h.mean()));
  EXPECT_TRUE(std::isnan(h.p50()));
  EXPECT_TRUE(std::isnan(h.percentile(1.0)));
}

TEST(Histogram, SingleSmallSampleIsExact) {
  // Values below 2^kSubBits land in width-1 buckets, so percentiles are
  // exact, not bucket-representative.
  Histogram h;
  h.record(7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 7u);
  EXPECT_EQ(h.min(), 7u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_DOUBLE_EQ(h.mean(), 7.0);
  EXPECT_DOUBLE_EQ(h.p50(), 7.0);
  EXPECT_DOUBLE_EQ(h.p99(), 7.0);
}

TEST(Histogram, ExtremesDoNotOverflow) {
  Histogram h;
  h.record(0);
  h.record(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), std::numeric_limits<std::uint64_t>::max());
  // Percentiles stay clamped into [min, max] even at the top bucket.
  EXPECT_GE(h.percentile(1.0), h.percentile(0.0));
  EXPECT_LE(h.percentile(1.0), static_cast<double>(h.max()));
}

TEST(Histogram, PercentilesAreMonotoneInQ) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v * 13);
  double prev = h.percentile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    double cur = h.percentile(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
  EXPECT_GE(h.p50(), static_cast<double>(h.min()));
  EXPECT_LE(h.p99(), static_cast<double>(h.max()));
}

TEST(Histogram, MergeIsSampleUnion) {
  Histogram a, b;
  for (std::uint64_t v = 0; v < 100; ++v) a.record(v);
  for (std::uint64_t v = 1000; v < 1100; ++v) b.record(v);
  Histogram merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count(), a.count() + b.count());
  EXPECT_EQ(merged.sum(), a.sum() + b.sum());
  EXPECT_EQ(merged.min(), a.min());
  EXPECT_EQ(merged.max(), b.max());
  // Half the mass is below 100: the lower quartile comes from a's range,
  // the upper quartile from b's.
  EXPECT_LE(merged.percentile(0.25), 100.0);
  EXPECT_GE(merged.percentile(0.75), 1000.0);
}

TEST(Histogram, BucketMappingBracketsEveryValue) {
  std::size_t prev_index = 0;
  for (std::uint64_t v :
       {std::uint64_t(0), std::uint64_t(1), std::uint64_t(31),
        std::uint64_t(32), std::uint64_t(33), std::uint64_t(1000),
        std::uint64_t(1) << 40,
        std::numeric_limits<std::uint64_t>::max()}) {
    std::size_t idx = Histogram::bucket_index(v);
    EXPECT_GE(idx, prev_index) << "v=" << v;
    prev_index = idx;
    std::uint64_t low = Histogram::bucket_low(idx);
    std::uint64_t width = Histogram::bucket_width(idx);
    EXPECT_LE(low, v);
    EXPECT_GE(width, 1u);
    if (v - low >= width) {
      ADD_FAILURE() << "v=" << v << " outside bucket [" << low << ", " << low
                    << "+" << width << ")";
    }
  }
}

TEST(Registry, HistogramNodesSurviveResetAndAbsorb) {
  obs::Registry reg;
  EXPECT_EQ(reg.find_histogram("lat"), nullptr);
  Histogram& h = reg.histogram("lat");
  h.record(5);
  h.record(500);
  EXPECT_EQ(reg.find_histogram("lat"), &h);
  reg.reset();
  EXPECT_EQ(h.count(), 0u);  // emptied, but the reference stays valid
  h.record(9);

  obs::Registry other;
  other.histogram("lat").record(90);
  other.histogram("other").record(1);
  reg.absorb(other);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), 90u);
  ASSERT_NE(reg.find_histogram("other"), nullptr);
  EXPECT_EQ(reg.find_histogram("other")->count(), 1u);
}

// --- SpanDag on the hand-authored fixture ----------------------------------
//
// tests/data/span_fixture.jsonl encodes one ROT (tx 7, client 2, objects
// 0+1 across servers 0+1).  Server 0 answers in its consuming step; server
// 1 consumes at seq 4 and replies at seq 5 (a deferred, blocking reply).
// The late reply chain (through server 1) is the critical path.

std::string fixture_path() {
  return std::string(DISCS_TEST_DATA_DIR) + "/span_fixture.jsonl";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(SpanFixture, ImportExportIsByteExact) {
  std::string bytes = slurp(fixture_path());
  obs::TraceDoc doc = obs::import_jsonl(bytes);
  EXPECT_EQ(obs::export_jsonl(doc), bytes);
}

TEST(SpanFixture, ProfileRederivesTableOneMetrics) {
  std::string bytes = slurp(fixture_path());
  obs::TraceDoc doc = obs::import_jsonl(bytes);
  SpanDag dag(doc);

  auto rots = dag.completed_rots();
  ASSERT_EQ(rots.size(), 1u);
  EXPECT_EQ(rots[0].id, TxId(7));
  EXPECT_EQ(rots[0].client, ProcessId(2));

  obs::RotProfile p = dag.profile(TxId(7));
  EXPECT_EQ(p.rounds, 1u);
  EXPECT_TRUE(p.one_round);
  EXPECT_FALSE(p.nonblocking);  // server 1 deferred its reply
  EXPECT_EQ(p.deferred_replies, 1u);
  EXPECT_EQ(p.max_values_per_message, 1u);
  EXPECT_EQ(p.max_values_per_object, 1u);
  EXPECT_FALSE(p.leaked_foreign_values);
  EXPECT_TRUE(p.single_server_per_object);
  EXPECT_TRUE(p.one_value);
  EXPECT_EQ(p.reply_bytes, 84u);  // 40 + 44
}

TEST(SpanFixture, CriticalPathFollowsTheLateReply) {
  std::string bytes = slurp(fixture_path());
  obs::TraceDoc doc = obs::import_jsonl(bytes);
  SpanDag dag(doc);

  obs::CriticalPath cp = dag.critical_path(TxId(7));
  EXPECT_EQ(cp.begin, 0u);
  EXPECT_EQ(cp.end, 8u);
  EXPECT_EQ(cp.latency(), 8u);

  std::vector<obs::Segment> expected{
      {SegmentKind::kNetRequest, 0, 3, ProcessId(1)},
      {SegmentKind::kServerQueue, 3, 4, ProcessId(1)},
      {SegmentKind::kServerService, 4, 5, ProcessId(1)},
      {SegmentKind::kNetReply, 5, 7, ProcessId(1)},
      {SegmentKind::kClientFinish, 7, 8, ProcessId(2)},
  };
  EXPECT_EQ(cp.segments, expected);

  // Segments tile [begin, end): adjacent endpoints meet and lengths sum to
  // the end-to-end latency.
  ASSERT_FALSE(cp.segments.empty());
  EXPECT_EQ(cp.segments.front().from, cp.begin);
  EXPECT_EQ(cp.segments.back().to, cp.end);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < cp.segments.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(cp.segments[i].from, cp.segments[i - 1].to);
    }
    sum += cp.segments[i].length();
  }
  EXPECT_EQ(sum, cp.latency());
}

TEST(SpanDagErrors, RejectsSpanFreeDocuments) {
  auto protocol = proto::protocol_by_name("cops");
  obs::TraceDoc doc =
      obs::capture_scenario(*protocol, "quickread", proto::ClusterConfig{});
  EXPECT_THROW(SpanDag dag(doc), CheckFailure);
}

// --- opt-in byte discipline ------------------------------------------------

TEST(SpanExport, SpanFreeArtifactsCarryNoSpanBytes) {
  auto protocol = proto::protocol_by_name("cops");
  obs::TraceDoc doc =
      obs::capture_scenario(*protocol, "quickread", proto::ClusterConfig{});
  std::string bytes = obs::export_jsonl(doc);
  EXPECT_EQ(bytes.find("record_spans"), std::string::npos);
  EXPECT_EQ(bytes.find("\"record\":\"span\""), std::string::npos);
  EXPECT_EQ(bytes.find("rotreq"), std::string::npos);
  EXPECT_EQ(bytes.find("rotrep"), std::string::npos);
}

TEST(SpanExport, SpanCarryingArtifactsReplayByteExactly) {
  auto protocol = proto::protocol_by_name("cops");
  proto::ClusterConfig cfg;
  cfg.record_spans = true;
  obs::TraceDoc doc = obs::capture_scenario(*protocol, "quickread", cfg);
  EXPECT_FALSE(doc.spans.empty());

  obs::DocReplay replay = obs::replay_doc(doc, *protocol);
  ASSERT_TRUE(replay.ok) << replay.error;
  // Replay regenerated the identical span notes and cause annotations.
  EXPECT_EQ(obs::export_jsonl(replay.reexport), obs::export_jsonl(doc));
}

TEST(SpanExport, WorkloadCaptureEmbedsReplayableInvokes) {
  auto protocol = proto::protocol_by_name("ramp");
  obs::WorkloadCaptureOptions options;
  options.cluster.num_servers = 3;
  options.cluster.num_clients = 4;
  options.cluster.num_objects = 6;
  options.cluster.record_spans = true;
  options.workload.num_txs = 12;
  options.workload.read_objects = 2;
  options.workload.seed = 3;
  obs::WorkloadCapture capture = obs::capture_workload(*protocol, options);
  EXPECT_EQ(capture.doc.invokes.size(), capture.result.windows.size());

  std::string bytes = obs::export_jsonl(capture.doc);
  obs::TraceDoc back = obs::import_jsonl(bytes);
  EXPECT_EQ(obs::export_jsonl(back), bytes);

  obs::DocReplay replay = obs::replay_doc(capture.doc, *protocol);
  EXPECT_TRUE(replay.ok) << replay.error;
}

// --- acceptance: offline profile == live audit -----------------------------
//
// For every registry protocol, run a mixed workload with spans on, audit
// each completed ROT live from the simulation trace, then re-derive the
// same metrics offline from the exported document alone.  Field-for-field
// equality pins that artifacts are sufficient to re-audit Table 1.

TEST(OfflineAudit, MatchesLiveAuditForEveryRegistryProtocol) {
  std::size_t audited = 0;
  for (const auto& protocol : proto::all_protocols()) {
    proto::ClusterConfig cfg;
    cfg.num_servers = 3;
    cfg.num_clients = 4;
    cfg.num_objects = 6;
    cfg.record_spans = true;
    wl::WorkloadConfig wcfg;
    wcfg.num_txs = 30;
    wcfg.write_fraction = 0.3;
    wcfg.read_objects = 2;
    wcfg.seed = 7;

    sim::Simulation sim;
    proto::IdSource ids;
    proto::Cluster cluster = protocol->build(sim, cfg, ids);
    wl::WorkloadResult result =
        wl::run_workload_sequential(sim, *protocol, cluster, ids, wcfg);

    std::vector<obs::InvokeRecord> invokes;
    for (const auto& w : result.windows)
      invokes.push_back({w.invoked_at, w.client, w.spec});
    obs::TraceDoc doc = obs::make_doc(*protocol, "xcheck", cfg, sim, cluster,
                                      std::move(invokes));
    SpanDag dag(doc);

    for (const auto& w : result.windows) {
      if (!w.read_only || !w.completed) continue;
      imposs::RotAudit live =
          imposs::audit_rot(sim.trace(), w.trace_begin, w.trace_end, w.id,
                            w.client, cluster.view);
      obs::RotProfile offline = dag.profile(w.id);
      SCOPED_TRACE(protocol->name() + " " + to_string(w.id));
      EXPECT_EQ(offline.rounds, live.rounds);
      EXPECT_EQ(offline.one_round, live.one_round);
      EXPECT_EQ(offline.nonblocking, live.nonblocking);
      EXPECT_EQ(offline.deferred_replies, live.deferred_replies);
      EXPECT_EQ(offline.max_values_per_message, live.max_values_per_message);
      EXPECT_EQ(offline.max_values_per_object_per_message,
                live.max_values_per_object_per_message);
      EXPECT_EQ(offline.max_values_per_object, live.max_values_per_object);
      EXPECT_EQ(offline.leaked_foreign_values, live.leaked_foreign_values);
      EXPECT_EQ(offline.single_server_per_object,
                live.single_server_per_object);
      EXPECT_EQ(offline.one_value, live.one_value);
      EXPECT_EQ(offline.reply_bytes, live.reply_bytes);
      ++audited;
    }
  }
  // The loop actually exercised ROTs for the whole registry.
  EXPECT_GE(audited, 10u * 15u);
}

// --- always-on client latency histograms -----------------------------------

TEST(LatencyHistograms, RecordedForEveryCompletedTransaction) {
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  auto protocol = proto::protocol_by_name("cops");
  proto::ClusterConfig cfg;
  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 10;
  wcfg.seed = 11;

  sim::Simulation sim;
  proto::IdSource ids;
  proto::Cluster cluster = protocol->build(sim, cfg, ids);
  wl::WorkloadResult result =
      wl::run_workload_sequential(sim, *protocol, cluster, ids, wcfg);

  std::size_t completed = 0;
  for (const auto& w : result.windows)
    if (w.completed) ++completed;
  ASSERT_GT(completed, 0u);

  const Histogram* all = reg.find_histogram("client.tx.latency_events");
  ASSERT_NE(all, nullptr);
  EXPECT_GE(all->count(), completed);
  EXPECT_GT(all->max(), 0u);
}

}  // namespace
}  // namespace discs
