// Real-threads runtime backend tests (src/rt).
//
// The load-bearing property is *oracle agreement*: an rt run captured as a
// TraceDoc must replay byte-for-byte on the single-threaded simulator —
// same events, same history, same final digest — for every registry
// protocol.  Everything the repo already knows how to check (consistency
// checkers, SpanDag re-audit of Table 1) then applies to real-thread
// executions for free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "consistency/checkers.h"
#include "impossibility/properties.h"
#include "obs/flight.h"
#include "obs/metrics_io.h"
#include "obs/registry.h"
#include "obs/span_dag.h"
#include "obs/trace_io.h"
#include "par/parallel.h"
#include "par/pool.h"
#include "proto/common/client.h"
#include "proto/registry.h"
#include "rt/clock.h"
#include "rt/mpsc.h"
#include "rt/runtime.h"
#include "sim/simulation.h"
#include "trace_table.h"

namespace discs {
namespace {

using cons::Verdict;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- MPSC inbox ------------------------------------------------------------

struct Tag : sim::Payload {
  explicit Tag(std::uint64_t v) : value(v) {}
  std::uint64_t value;
  std::string describe() const override {
    return "Tag(" + std::to_string(value) + ")";
  }
};

sim::Message tagged(std::size_t producer, std::uint64_t n) {
  sim::Message m;
  m.id = sim::make_msg_id(ProcessId(producer), n);
  m.src = ProcessId(producer);
  m.dst = ProcessId(99);
  m.payload = sim::make_payload<Tag>(n);
  return m;
}

TEST(MpscInbox, ConcurrentProducersSingleDrainer) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5000;
  // Small capacity so producers actually hit the backpressure path.
  rt::MpscInbox inbox(64);
  std::atomic<std::uint64_t> ticket{0};

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (std::uint64_t n = 0; n < kPerProducer; ++n)
        ASSERT_TRUE(inbox.push(tagged(p, n), ticket.fetch_add(1)));
    });

  // Concurrent drain: tickets must come out globally sorted per batch and
  // each producer's messages in send order across batches.
  sim::MessageVec got;
  std::vector<std::uint64_t> tickets;
  while (got.size() < kProducers * kPerProducer) {
    std::size_t before = tickets.size();
    inbox.drain(got, &tickets);
    for (std::size_t i = before + 1; i < tickets.size(); ++i)
      ASSERT_LT(tickets[i - 1], tickets[i]);
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(inbox.empty());
  EXPECT_EQ(inbox.approx_size(), 0u);

  std::vector<std::uint64_t> next(kProducers, 0);
  for (const auto& m : got) {
    std::size_t p = m.src.value();
    const auto* tag = m.as<Tag>();
    ASSERT_NE(tag, nullptr);
    EXPECT_EQ(tag->value, next[p]) << "producer " << p << " reordered";
    ++next[p];
  }
  for (std::size_t p = 0; p < kProducers; ++p)
    EXPECT_EQ(next[p], kPerProducer);
}

TEST(MpscInbox, CloseInterleavedWithPushes) {
  rt::MpscInbox inbox(1024);
  std::atomic<std::uint64_t> ticket{0};
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < 3; ++p)
    producers.emplace_back([&, p] {
      for (std::uint64_t n = 0; n < 2000; ++n) {
        if (inbox.push(tagged(p, n), ticket.fetch_add(1)))
          accepted.fetch_add(1);
        else
          break;  // closed: every later push would fail too
      }
    });
  sim::MessageVec got;
  std::size_t drained = inbox.drain(got);
  inbox.close();
  for (auto& t : producers) t.join();
  EXPECT_TRUE(inbox.closed());
  EXPECT_FALSE(inbox.push(tagged(0, 9999), ticket.fetch_add(1)));
  // Every accepted message is drainable; none is lost, none duplicated.
  drained += inbox.drain(got);
  EXPECT_EQ(drained, accepted.load());
  EXPECT_EQ(got.size(), accepted.load());
}

// --- shared worker pool ----------------------------------------------------

TEST(ThreadPool, ParallelForFoldsRegistryIntoCaller) {
  const std::uint64_t before = obs::Registry::global().value("test.pool.hits");
  std::atomic<std::uint64_t> sum{0};
  par::parallel_for(1000, [&](std::size_t i) {
    obs::Registry::global().inc("test.pool.hits");
    sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 1000u * 999u / 2);
  // Worker-thread shards were absorbed into this thread's registry at the
  // join — the persistent pool keeps its threads (and their cached counter
  // references) across calls, so run it twice to cover reuse.
  EXPECT_EQ(obs::Registry::global().value("test.pool.hits"), before + 1000);
  par::parallel_for(500, [&](std::size_t) {
    obs::Registry::global().inc("test.pool.hits");
  });
  EXPECT_EQ(obs::Registry::global().value("test.pool.hits"), before + 1500);
}

TEST(ThreadPool, PropagatesJobErrors) {
  EXPECT_THROW(
      par::parallel_for(64,
                        [&](std::size_t i) {
                          if (i == 33) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

// --- backend agreement with the simulator oracle ---------------------------

rt::RunReport run_rt(const proto::Protocol& protocol, std::size_t workers,
                     std::size_t num_txs, std::size_t num_clients = 3,
                     std::uint64_t seed = 11) {
  proto::ClusterConfig ccfg;
  ccfg.num_servers = 3;
  ccfg.num_clients = num_clients;
  ccfg.num_objects = 6;
  wl::WorkloadConfig wcfg;
  wcfg.num_txs = num_txs;
  wcfg.write_fraction = 0.3;
  wcfg.read_objects = 2;
  wcfg.seed = seed;
  rt::Options opts;
  opts.workers = workers;
  return rt::run(protocol, ccfg, wcfg, opts);
}

bool is_strawman(const std::string& name) {
  return name == "naivefast" || name == "stubborn";
}

TEST(RtBackend, AgreesWithSimulatorOracleForEveryProtocol) {
  for (const auto& protocol : proto::all_protocols()) {
    SCOPED_TRACE(protocol->name());
    rt::RunReport rep = run_rt(*protocol, /*workers=*/2, /*num_txs=*/21);
    ASSERT_FALSE(rep.timed_out);
    EXPECT_EQ(rep.txs_completed, 21u);
    EXPECT_EQ(rep.txs_incomplete, 0u);
    EXPECT_EQ(rep.latency_us.count(), 21u);
    EXPECT_GE(rep.events, 21u);

    // The captured artifact replays byte-for-byte on the simulator.
    obs::DocReplay replay = obs::replay_doc(rep.doc, *protocol);
    ASSERT_TRUE(replay.ok) << replay.error;
    EXPECT_TRUE(replay.digest_match);
    EXPECT_EQ(obs::export_jsonl(replay.reexport), obs::export_jsonl(rep.doc));

    // The replayed history equals the live one and passes the checkers.
    EXPECT_EQ(replay.history.describe(), rep.doc.history.describe());
    EXPECT_NE(cons::check_reads_valid(rep.doc.history).verdict,
              Verdict::kViolation);
    if (is_strawman(protocol->name())) continue;
    // Under a genuinely concurrent schedule the strawmen may violate
    // their nominal level (that is their point); correct protocols must
    // hold their claim.
    const std::string claim = protocol->consistency_claim();
    cons::CheckResult claimed;
    if (claim.find("strict") != std::string::npos)
      claimed = cons::check_strict_serializability(rep.doc.history);
    else if (claim.find("read-atomic") != std::string::npos)
      claimed = cons::check_read_atomicity(rep.doc.history);
    else
      claimed = cons::check_causal_consistency(rep.doc.history);
    EXPECT_NE(claimed.verdict, Verdict::kViolation)
        << (claimed.violations.empty() ? ""
                                       : claimed.violations.front().detail);
  }
}

TEST(RtBackend, IssuesTheSequentialDriversSpecStream) {
  // One spec stream for both backends (wl::tx_stream): per client, the rt
  // run's captured invokes are the specs the sequential driver issues for
  // the same configuration, in the same order — skewed draws and
  // multi-object writes included.
  proto::ClusterConfig ccfg;
  ccfg.num_servers = 3;
  ccfg.num_clients = 3;
  ccfg.num_objects = 6;
  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 17;
  wcfg.write_fraction = 0.5;
  wcfg.zipf_theta = 0.8;
  wcfg.seed = 7;
  rt::Options opts;
  opts.workers = 2;
  for (const std::string name : {"cops", "ramp"}) {
    SCOPED_TRACE(name);
    auto protocol = proto::protocol_by_name(name);
    rt::RunReport rep = rt::run(*protocol, ccfg, wcfg, opts);
    ASSERT_FALSE(rep.timed_out);

    sim::Simulation sim;
    proto::IdSource ids;
    proto::Cluster cluster = protocol->build(sim, ccfg, ids);
    wl::WorkloadResult seq =
        wl::run_workload_sequential(sim, *protocol, cluster, ids, wcfg);

    std::map<std::uint64_t, std::vector<std::string>> rt_specs, seq_specs;
    for (const auto& inv : rep.doc.invokes)
      rt_specs[inv.client.value()].push_back(inv.spec.describe());
    for (const auto& w : seq.windows)
      seq_specs[w.client.value()].push_back(w.spec.describe());
    EXPECT_EQ(rep.doc.invokes.size(), wcfg.num_txs);
    EXPECT_EQ(rt_specs, seq_specs);
  }
}

TEST(RtBackend, CaptureOffStillCompletes) {
  auto protocol = proto::protocol_by_name("cops");
  proto::ClusterConfig ccfg;
  ccfg.num_servers = 3;
  ccfg.num_clients = 2;
  ccfg.num_objects = 4;
  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 10;
  wcfg.seed = 5;
  rt::Options opts;
  opts.workers = 2;
  opts.capture = false;
  rt::RunReport rep = rt::run(*protocol, ccfg, wcfg, opts);
  EXPECT_FALSE(rep.timed_out);
  EXPECT_EQ(rep.txs_completed, 10u);
  EXPECT_TRUE(rep.doc.events.empty());
  EXPECT_GT(rep.events, 0u);
}

TEST(RtBackend, CaptureHoldsEachMessageOnce) {
  // The engine threads' records are gone after the run; a replay on the
  // simulator re-creates them (the oracle test above pins that it is the
  // same execution), and the capture's table must be what the builder
  // makes of them.
  auto protocol = proto::protocol_by_name("wren");
  rt::RunReport rep = run_rt(*protocol, /*workers=*/2, /*num_txs=*/40);
  ASSERT_FALSE(rep.timed_out);
  ASSERT_EQ(rep.txs_incomplete, 0u);
  const obs::TraceDoc& doc = rep.doc;
  sim::Simulation sim;
  proto::IdSource ids;
  proto::Cluster cluster = protocol->build(sim, doc.cluster, ids);
  std::size_t next_invoke = 0;
  auto run_invokes = [&] {
    while (next_invoke < doc.invokes.size() &&
           doc.invokes[next_invoke].at <= sim.now()) {
      const obs::InvokeRecord& inv = doc.invokes[next_invoke++];
      sim.process_as<proto::ClientBase>(inv.client).invoke(inv.spec);
    }
  };
  for (const auto& e : doc.events) {
    run_invokes();
    ASSERT_TRUE(sim.apply(e.event)) << e.event.describe();
  }
  EXPECT_EQ(sim.digest(), doc.final_digest);
  const std::vector<sim::EventRecord> records(sim.trace().records().begin(),
                                              sim.trace().records().end());
  test::expect_table_matches(doc, records, /*spans=*/false);
  std::size_t appearances = doc.refs.size();
  for (const auto& e : doc.events) appearances += doc.message(e) != nullptr;
  EXPECT_GT(appearances, 2 * doc.messages.size());
}

// --- SpanDag Table-1 re-audit over rt-captured traces ----------------------
//
// Span recording is thread-local, so rt captures run without it; the
// captured doc is then replayed on the main thread *with* spans (spans are
// digest- and behavior-invariant), and the re-captured document must
// profile identically to a live audit of the replayed trace — the same
// field-for-field pin tests/test_profiler.cpp establishes for simulator
// captures.

TEST(RtBackend, SpanDagReauditMatchesLiveAuditForEveryProtocol) {
  std::size_t audited = 0;
  for (const auto& protocol : proto::all_protocols()) {
    SCOPED_TRACE(protocol->name());
    // One client so transaction windows do not overlap.
    rt::RunReport rep =
        run_rt(*protocol, /*workers=*/2, /*num_txs=*/12, /*num_clients=*/1,
               /*seed=*/3);
    ASSERT_FALSE(rep.timed_out);
    ASSERT_EQ(rep.txs_incomplete, 0u);

    obs::TraceDoc sdoc = rep.doc;
    sdoc.cluster.record_spans = true;

    // Manual main-thread replay with span recording on.
    sim::Simulation sim;
    proto::IdSource ids;
    proto::Cluster cluster = protocol->build(sim, sdoc.cluster, ids);
    std::size_t next_invoke = 0;
    auto run_invokes = [&] {
      while (next_invoke < sdoc.invokes.size() &&
             sdoc.invokes[next_invoke].at <= sim.now()) {
        const obs::InvokeRecord& inv = sdoc.invokes[next_invoke++];
        sim.process_as<proto::ClientBase>(inv.client).invoke(inv.spec);
      }
    };
    for (const auto& e : sdoc.events) {
      run_invokes();
      ASSERT_TRUE(sim.apply(e.event)) << e.event.describe();
    }
    run_invokes();
    // Spans change nothing observable: the replay still lands on the
    // digest the rt run captured without them.
    EXPECT_EQ(sim.digest(), rep.doc.final_digest);

    obs::TraceDoc spanned =
        obs::make_doc(*protocol, sdoc.scenario, sdoc.cluster, sim, cluster,
                      sdoc.invokes);
    obs::SpanDag dag(spanned);
    const hist::History replayed = proto::collect_history(
        sim, cluster.clients, cluster.initial_values);
    for (const auto& tx : replayed.txs()) {
      if (!tx.read_only() || !tx.completed) continue;
      imposs::RotAudit live =
          imposs::audit_rot(sim.trace(), tx.invoke_seq, tx.complete_seq + 1,
                            tx.id, tx.client, cluster.view);
      obs::RotProfile offline = dag.profile(tx.id);
      SCOPED_TRACE(to_string(tx.id));
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
  // The sweep exercised real ROTs across the registry.
  EXPECT_GE(audited, 5u * proto::all_protocols().size());
}

// --- wall-clock retransmits ------------------------------------------------

TEST(RtBackend, WallClockRetransmitRecoversDroppedRequest) {
  auto protocol = proto::protocol_by_name("cops");
  proto::ClusterConfig ccfg;
  ccfg.num_servers = 3;
  ccfg.num_clients = 1;
  ccfg.num_objects = 4;
  ccfg.exactly_once = true;  // retransmits are dup-safe
  ccfg.client_retransmit_after = 2;
  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 6;
  wcfg.seed = 9;

  rt::FakeClock clock;
  std::atomic<bool> dropped_once{false};
  rt::Options opts;
  opts.workers = 2;
  opts.clock = &clock;
  // Streamed too: the only streamed run with a fault event (a published
  // batch carrying a drop after its step), so the file must say v2.
  opts.stream_path = testing::TempDir() + "rt_stream_drop.jsonl";
  opts.drop_filter = [&](const sim::Message& m) {
    // Drop the first client-originated request, exactly once.
    if (m.src.value() < ccfg.num_servers) return false;
    bool expected = false;
    return dropped_once.compare_exchange_strong(expected, true);
  };

  const std::uint64_t rtx_before =
      obs::Registry::global().value("client.retransmits");
  rt::RunReport rep = rt::run(*protocol, ccfg, wcfg, opts);
  ASSERT_FALSE(rep.timed_out);
  EXPECT_EQ(rep.txs_completed, 6u);
  EXPECT_EQ(rep.drops, 1u);
  EXPECT_TRUE(dropped_once.load());
  // The ladder fired off fake wall-clock periods, not simulator steps.
  EXPECT_GE(obs::Registry::global().value("client.retransmits"), rtx_before + 1);
  // The drop is a first-class v2 event and the run replays byte-exactly —
  // including the rearmed ladder, whose base travels in the header.
  EXPECT_EQ(rep.doc.schema, obs::kTraceSchemaV2);
  obs::DocReplay replay = obs::replay_doc(rep.doc, *protocol);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(obs::export_jsonl(replay.reexport), obs::export_jsonl(rep.doc));
  // The file sink made the same v2 decision and wrote the same bytes.
  const std::string streamed = slurp(opts.stream_path);
  EXPECT_EQ(streamed, obs::export_jsonl(rep.doc));
  EXPECT_EQ(obs::import_jsonl(streamed).schema, obs::kTraceSchemaV2);
  std::remove(opts.stream_path.c_str());
}

TEST(RtBackend, FakeClockAutoAdvances) {
  rt::FakeClock clock(100);
  EXPECT_EQ(clock.now_us(), 100u);
  clock.on_wait_until(500);
  EXPECT_EQ(clock.now_us(), 500u);
  clock.on_wait_until(200);  // never moves backwards
  EXPECT_EQ(clock.now_us(), 500u);
  clock.advance(50);
  EXPECT_EQ(clock.now_us(), 550u);
  EXPECT_FALSE(clock.real_time());
}

// --- streaming trace export ------------------------------------------------

rt::RunReport run_rt_streamed(const proto::Protocol& protocol,
                              std::size_t workers, bool capture,
                              const std::string& path) {
  proto::ClusterConfig ccfg;
  ccfg.num_servers = 3;
  ccfg.num_clients = 3;
  ccfg.num_objects = 6;
  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 15;
  wcfg.write_fraction = 0.3;
  wcfg.read_objects = 2;
  wcfg.seed = 11;
  rt::Options opts;
  opts.workers = workers;
  opts.capture = capture;
  opts.stream_path = path;
  return rt::run(protocol, ccfg, wcfg, opts);
}

TEST(RtStreaming, StreamedBytesMatchFinalizeExportForEveryProtocol) {
  for (const auto& protocol : proto::all_protocols()) {
    for (std::size_t workers : {1u, 8u}) {
      SCOPED_TRACE(protocol->name() + "/w" + std::to_string(workers));
      std::string path = testing::TempDir() + "rt_stream_" +
                         protocol->name() + "_w" + std::to_string(workers) +
                         ".jsonl";
      rt::RunReport rep =
          run_rt_streamed(*protocol, workers, /*capture=*/true, path);
      ASSERT_FALSE(rep.timed_out);
      ASSERT_EQ(rep.txs_incomplete, 0u);
      // The live merge produced byte-for-byte the canonical finalize
      // export of the same run — the streaming tentpole guarantee.
      EXPECT_EQ(slurp(path), obs::export_jsonl(rep.doc));
      // The spool is consumed into the artifact.
      EXPECT_FALSE(std::ifstream(path + ".spool").is_open());
      std::remove(path.c_str());
    }
  }
}

TEST(RtStreaming, CaptureOffStreamedArtifactReplaysOnOracle) {
  for (const auto& protocol : proto::all_protocols()) {
    for (std::size_t workers : {1u, 8u}) {
      SCOPED_TRACE(protocol->name() + "/w" + std::to_string(workers));
      std::string path = testing::TempDir() + "rt_stream_nocap_" +
                         protocol->name() + "_w" + std::to_string(workers) +
                         ".jsonl";
      rt::RunReport rep =
          run_rt_streamed(*protocol, workers, /*capture=*/false, path);
      ASSERT_FALSE(rep.timed_out);
      ASSERT_EQ(rep.txs_incomplete, 0u);
      // Capture off: no in-memory doc, yet the streamed file is the run's
      // full record...
      EXPECT_TRUE(rep.doc.events.empty());
      obs::TraceDoc doc = obs::import_jsonl(slurp(path));
      EXPECT_EQ(doc.events.size(), rep.events);
      // ...that re-executes byte-for-byte on the simulator oracle.
      obs::DocReplay replay = obs::replay_doc(doc, *protocol);
      ASSERT_TRUE(replay.ok) << replay.error;
      EXPECT_TRUE(replay.digest_match);
      EXPECT_EQ(obs::export_jsonl(replay.reexport), obs::export_jsonl(doc));
      std::remove(path.c_str());
    }
  }
}

// --- metrics timelines -----------------------------------------------------

TEST(RtMetrics, FakeClockCadenceSamplesAndFileMatchesSeries) {
  auto protocol = proto::protocol_by_name("cops");
  proto::ClusterConfig ccfg;
  ccfg.num_servers = 3;
  ccfg.num_clients = 2;
  ccfg.num_objects = 4;
  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 12;
  wcfg.seed = 5;
  rt::FakeClock clock;
  rt::Options opts;
  opts.workers = 2;
  opts.clock = &clock;
  opts.metrics_interval_us = 1000;
  opts.metrics_path = testing::TempDir() + "rt_metrics.jsonl";
  rt::RunReport rep = rt::run(*protocol, ccfg, wcfg, opts);
  ASSERT_FALSE(rep.timed_out);
  EXPECT_EQ(rep.txs_completed, 12u);

  // At least the final post-join sample exists and reflects the full run.
  ASSERT_GE(rep.metrics.samples.size(), 1u);
  EXPECT_EQ(rep.metrics.source, "rt:cops:w2");
  const obs::MetricsSample& last = rep.metrics.samples.back();
  EXPECT_GE(last.counters.at("rt.steps"), 1u);
  EXPECT_GE(last.counters.at("client.tx.completed"), 12u);
  // Hot families carry per-engine-thread shard breakdowns that sum to the
  // aggregate.
  ASSERT_TRUE(last.shards.count("rt.steps"));
  std::uint64_t sum = 0;
  for (auto v : last.shards.at("rt.steps")) sum += v;
  EXPECT_EQ(sum, last.counters.at("rt.steps"));

  // The live-appended file carries exactly the series the report carries.
  EXPECT_EQ(slurp(opts.metrics_path),
            obs::export_metrics_jsonl(rep.metrics));
  obs::MetricsSeries back =
      obs::import_metrics_jsonl(slurp(opts.metrics_path));
  EXPECT_EQ(back, rep.metrics);
  std::remove(opts.metrics_path.c_str());
}

TEST(RtMetrics, RealClockSamplerStressStaysConsistent) {
  // TSan coverage for the hub: 8 workers folding at high cadence while the
  // sampler aggregates on a 200us period.  The assertion is consistency of
  // the final sample; the sanitizer job asserts the absence of races.
  auto protocol = proto::protocol_by_name("cops");
  proto::ClusterConfig ccfg;
  ccfg.num_servers = 8;
  ccfg.num_clients = 3;
  ccfg.num_objects = 8;
  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 60;
  wcfg.seed = 17;
  rt::Options opts;
  opts.workers = 8;
  opts.capture = false;
  opts.metrics_interval_us = 200;
  rt::RunReport rep = rt::run(*protocol, ccfg, wcfg, opts);
  ASSERT_FALSE(rep.timed_out);
  EXPECT_EQ(rep.txs_completed, 60u);
  ASSERT_GE(rep.metrics.samples.size(), 1u);
  for (std::size_t i = 1; i < rep.metrics.samples.size(); ++i) {
    const auto& prev = rep.metrics.samples[i - 1];
    const auto& cur = rep.metrics.samples[i];
    EXPECT_GE(cur.at_us, prev.at_us);
    // Counters are monotone across samples: folds are full snapshots, so
    // a torn or double-counted aggregate would show up as a regression.
    for (const auto& [name, v] : prev.counters) {
      auto it = cur.counters.find(name);
      ASSERT_NE(it, cur.counters.end()) << name;
      EXPECT_GE(it->second, v) << name;
    }
  }
  EXPECT_GE(rep.metrics.samples.back().counters.at("rt.steps"), 1u);
}

// --- flight recorder -------------------------------------------------------

TEST(RtFlight, RingsRetainTheMostRecentEventsSortedBySeq) {
  auto protocol = proto::protocol_by_name("cops");
  proto::ClusterConfig ccfg;
  ccfg.num_servers = 3;
  ccfg.num_clients = 2;
  ccfg.num_objects = 4;
  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 10;
  wcfg.seed = 7;
  rt::Options opts;
  opts.workers = 2;
  opts.capture = false;
  opts.flight_capacity = 16;
  rt::RunReport rep = rt::run(*protocol, ccfg, wcfg, opts);
  ASSERT_FALSE(rep.timed_out);
  ASSERT_FALSE(rep.flight.empty());
  // Bounded by (workers + submitters) rings of 16.
  EXPECT_LE(rep.flight.size(), 16u * rep.threads_used);
  for (std::size_t i = 1; i < rep.flight.size(); ++i)
    EXPECT_LT(rep.flight[i - 1].seq, rep.flight[i].seq);
  // Every remembered event is a real, compactable kind.
  for (const auto& e : rep.flight)
    EXPECT_TRUE(e.kind == "step" || e.kind == "deliver" || e.kind == "drop")
        << e.kind;
  // The dump serializes like any discs artifact.
  std::string dump = obs::export_flight_jsonl(rep.flight, "test");
  EXPECT_NE(dump.find("discs.flight.v1"), std::string::npos);
}

}  // namespace
}  // namespace discs
