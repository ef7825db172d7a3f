#include "rt/runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "history/history.h"
#include "obs/registry.h"
#include "obs/ring.h"
#include "obs/trace_stream.h"
#include "par/pool.h"
#include "proto/common/client.h"
#include "rt/mpsc.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "util/check.h"
#include "util/fmt.h"
#include "util/pool.h"

namespace discs::rt {

namespace {

using discs::proto::ClientBase;
using discs::proto::Cluster;
using discs::proto::IdSource;
using discs::proto::TxSpec;

// Counter references cached per engine thread (the Registry idiom of
// sim/simulation.cpp): nodes are stable, so the hot path pays one map
// lookup per thread lifetime.  ThreadPool::run_batch absorbs every engine
// thread's shard into the caller at join.
std::uint64_t& counter_steps() {
  static thread_local std::uint64_t& c =
      obs::Registry::global().counter("rt.steps");
  return c;
}
std::uint64_t& counter_deliveries() {
  static thread_local std::uint64_t& c =
      obs::Registry::global().counter("rt.deliveries");
  return c;
}
std::uint64_t& counter_sent() {
  static thread_local std::uint64_t& c =
      obs::Registry::global().counter("rt.messages_sent");
  return c;
}

/// Bound on queued messages per inbox; producers backpressure when full.
constexpr std::size_t kInboxCapacity = 4096;
/// Wall-clock microseconds per client retransmit-ladder tick.  Only
/// meaningful when ClusterConfig::client_retransmit_after armed the
/// ladder; each elapsed period feeds the ladder one stalled step.
constexpr std::uint64_t kRetransmitTickUs = 200;
/// Parked worker idle-tick period: a worker whose inboxes stay empty
/// this long steps its servers once anyway (empty-inbox steps drive
/// time-based deferred work: commit-wait, gossip stabilization).
constexpr std::uint64_t kIdleTickUs = 200;
/// Parked submitter re-check period when the ladder is off.
constexpr std::uint64_t kSubmitterTickUs = 500;
/// Real-wall-clock budget for the whole run; exceeded => RunReport
/// timed_out and remaining transactions counted incomplete.
constexpr std::uint64_t kWallBudgetMs = 30000;

/// One rt process: the protocol object plus its mailbox and scratch
/// buffers.  Only the owning engine thread (its worker, or its submitter
/// for clients) ever steps it; any thread pushes into the inbox.
struct Station {
  std::unique_ptr<sim::Process> proc;
  ClientBase* client = nullptr;  ///< non-null iff the process is a client
  std::unique_ptr<MpscInbox> inbox;
  Parker* parker = nullptr;  ///< the owning thread's parker (wakeups)
  std::uint64_t send_seq = 0;
  sim::MessageVec drain_scratch;
  std::vector<std::pair<ProcessId, std::shared_ptr<const sim::Payload>>>
      out_scratch;
  std::vector<ProcessId> dst_scratch;
};

/// Per-engine-thread capture inputs that are not events; merged at
/// finalize.
struct ThreadSink {
  std::vector<obs::InvokeRecord> invokes;
  std::vector<std::uint64_t> dropped_ids;
};

/// Everything one engine thread owns besides its stations: its invokes and
/// dropped ids, the step batch, the flight ring and its metrics fold
/// bookkeeping.  Indexed like the merge queues: workers first, then
/// submitters.
struct EngineThread {
  ThreadSink sink;
  /// The current step's records, sorted by seq: the only record a step
  /// produces.  The flight ring reads it and the merge takes it.
  std::vector<sim::EventRecord> batch;
  std::unique_ptr<obs::Ring<obs::FlightEvent>> flight;
  std::size_t slot = 0;  ///< MetricsHub slot == thread index
  std::uint64_t steps_since_fold = 0;
  std::uint64_t last_fold_us = 0;  ///< clock time of the last fold
};

/// The seq-frontier merge: the one path from the engine threads' step
/// batches to the run's obs::TraceSink.  Each engine thread publishes every
/// step's records as one batch sorted by seq; within a thread, every seq of
/// batch i+1 was claimed after every seq of batch i (the step's fetch_add
/// happens-after the previous step's routing), so each per-thread queue is
/// seq-monotone and the merge only ever inspects queue heads: it pops a
/// head exactly when its seq equals the number of records the sink holds.
///
/// With a file to stream to, a merger thread pumps while the run executes
/// and producers block once their queue holds kStreamQueueCap records —
/// that bound, plus the sink's spool, is what makes streaming memory
/// proportional to inter-thread skew instead of run length.  Among the
/// publishers alone a blocked producer cannot deadlock the merge: if the
/// frontier seq is in a thread's *unpublished* batch, everything in that
/// thread's queue is older than the frontier and hence already consumed —
/// the queue is empty, so the producer was never blocked.  The inboxes can
/// still close a cycle: a producer blocked on the cap cannot drain its own
/// inboxes, and a peer that holds the frontier seq may be spinning in
/// MpscInbox::push on one of them.
///
/// Without a file nothing pumps until drain() after the join, so the queues
/// are unbounded: a capture-only run never waits on the merge, and so can
/// never close that cycle.
class FrontierMerge {
 public:
  FrontierMerge(std::size_t nthreads, bool keep_events,
                const std::string& path)
      : sink_(keep_events, path), live_(!path.empty()) {
    queues_.reserve(nthreads);
    for (std::size_t i = 0; i < nthreads; ++i)
      queues_.push_back(std::make_unique<Queue>());
    if (live_) merger_ = std::thread([this] { merger_loop(); });
  }

  ~FrontierMerge() { stop(); }

  FrontierMerge(const FrontierMerge&) = delete;
  FrontierMerge& operator=(const FrontierMerge&) = delete;

  /// Producer (thread t): moves `batch` (sorted by seq) into t's queue,
  /// waiting while a live merger has the queue over capacity.  Clears
  /// `batch`.
  void publish(std::size_t t, std::vector<sim::EventRecord>& batch) {
    Queue& q = *queues_[t];
    {
      std::unique_lock<std::mutex> lock(q.mu);
      if (live_)
        q.not_full.wait(lock, [&] {
          return q.records.size() - q.head < kStreamQueueCap;
        });
      for (auto& rec : batch) q.records.push_back(std::move(rec));
    }
    batch.clear();
    if (live_) wake_.notify_one();
  }

  /// Called after the engine threads joined: stops the merger, if any, and
  /// pumps every record still queued into the sink.
  obs::TraceSink& drain() {
    stop();
    while (pump()) {
    }
    return sink_;
  }

 private:
  static constexpr std::size_t kStreamQueueCap = 1 << 14;

  void merger_loop() {
    for (;;) {
      if (pump()) continue;
      if (stop_.load(std::memory_order_acquire)) {
        // Engine threads have joined: everything is published.  Drain the
        // backlog here rather than in drain(): records freed on this thread
        // return their pooled blocks (util/pool.h) to the shared store when
        // it exits, where the engine threads' next allocations find them.
        while (pump()) {
        }
        return;
      }
      std::unique_lock<std::mutex> lock(wake_mu_);
      // Timed wait: publish() notifies without knowing the frontier, so a
      // missed wakeup only costs one period, never liveness.
      wake_.wait_for(lock, std::chrono::microseconds(200));
    }
  }

  void stop() {
    if (!merger_.joinable()) return;
    stop_.store(true, std::memory_order_release);
    wake_.notify_one();
    merger_.join();
  }

  /// One frontier pass over all queues; true when any record was appended.
  bool pump() {
    bool progressed = false;
    for (auto& qp : queues_) {
      Queue& q = *qp;
      // Pop the longest frontier-contiguous run under the lock, export it
      // outside so producers never wait on the sink.
      run_.clear();
      {
        std::lock_guard<std::mutex> lock(q.mu);
        std::uint64_t next = sink_.events();
        while (q.head < q.records.size() && q.records[q.head].seq == next) {
          run_.push_back(std::move(q.records[q.head++]));
          ++next;
        }
        // Reclaim the merged prefix once it is half the queue: amortized
        // O(1) per record, and a live queue stays within twice its cap.
        if (2 * q.head >= q.records.size()) {
          q.records.erase(q.records.begin(), q.records.begin() + q.head);
          q.head = 0;
        }
      }
      if (run_.empty()) continue;
      if (live_) q.not_full.notify_one();
      for (const auto& rec : run_) sink_.append(rec);
      progressed = true;
    }
    return progressed;
  }

  /// A vector with a merged-prefix index, not a deque: under CPU
  /// oversubscription (six concurrent ShardedRt processes on a 4-core
  /// machine) the inbox livelock — MpscInbox::push spinning on a full
  /// inbox — hung 16% of runs with a deque here and 11% with the vector.
  struct Queue {
    std::mutex mu;
    std::condition_variable not_full;
    std::vector<sim::EventRecord> records;  ///< unmerged from `head` on
    std::size_t head = 0;
  };

  obs::TraceSink sink_;
  const bool live_;  ///< a merger thread pumps while the run executes
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<sim::EventRecord> run_;  ///< pump-local scratch
  std::atomic<bool> stop_{false};
  std::mutex wake_mu_;
  std::condition_variable wake_;
  std::thread merger_;
};

struct SubmitterStats {
  std::size_t completed = 0;
  std::size_t incomplete = 0;
  obs::Histogram latency_us;
};

class Engine {
 public:
  Engine(const proto::Protocol& protocol, const proto::ClusterConfig& ccfg,
         const wl::WorkloadConfig& wcfg, const Options& opts)
      : protocol_(protocol), ccfg_(ccfg), wcfg_(wcfg), opts_(opts) {
    clock_ = opts_.clock != nullptr ? opts_.clock : &WallClock::instance();
  }

  ~Engine() {
    // Defensive: run() joins the sampler on the normal path; a CheckFailure
    // escaping mid-run must not terminate on a joinable thread.
    if (sampler_.joinable()) stop_sampler();
  }

  RunReport run();

 private:
  void build_cluster();
  void step_station(Station& s, EngineThread& t);
  void route(sim::Message m, EngineThread& t);
  void worker_loop(const std::vector<Station*>& owned, Parker& parker,
                   EngineThread& t);
  void submitter_loop(Station& st, const std::vector<TxSpec>& specs,
                      Parker& parker, EngineThread& t, SubmitterStats& stats);
  void request_stop();
  bool over_budget() const {
    return WallClock::instance().now_us() - wall_start_us_ >
           kWallBudgetMs * 1000;
  }
  void fold_metrics(EngineThread& t);
  void maybe_fold(EngineThread& t);
  void take_sample();
  void sampler_loop();
  RunReport finalize(std::vector<SubmitterStats> stats, double wall_seconds);

  const proto::Protocol& protocol_;
  proto::ClusterConfig ccfg_;
  wl::WorkloadConfig wcfg_;
  Options opts_;
  Clock* clock_ = nullptr;
  /// Capture, streaming or the flight ring: step batches are built at all.
  bool record_ = true;

  Cluster cluster_;
  std::vector<std::unique_ptr<Station>> stations_;  ///< indexed by pid
  std::vector<std::vector<TxSpec>> specs_;          ///< per client slot
  std::vector<std::unique_ptr<Parker>> parkers_;    ///< one per engine thread
  std::vector<EngineThread> threads_;               ///< one per engine thread
  std::size_t workers_ = 1;

  /// Capture or streaming: the merge into the run's trace sink.
  std::unique_ptr<FrontierMerge> merge_;

  // Metrics sampling (Options::metrics_interval_us).
  std::unique_ptr<obs::MetricsHub> metrics_hub_;
  std::thread sampler_;
  std::atomic<bool> sampler_stop_{false};
  std::mutex sampler_mu_;              ///< guards the sampler's timed wait
  std::condition_variable sampler_cv_; ///< stop_sampler() wakes the wait

  /// Stops and joins the sampler thread promptly: the flag is set under
  /// sampler_mu_ so the notify cannot slip between the sampler's predicate
  /// check and its wait — the join never sits out a cadence interval.
  void stop_sampler() {
    {
      std::lock_guard<std::mutex> lock(sampler_mu_);
      sampler_stop_.store(true, std::memory_order_release);
    }
    sampler_cv_.notify_all();
    sampler_.join();
  }
  obs::MetricsSeries series_;
  std::ofstream metrics_out_;
  std::uint64_t metrics_start_us_ = 0;
  /// Steps between registry folds into the hub: bounds both the fold cost
  /// (one registry copy per period) and a sample's staleness.
  static constexpr std::uint64_t kFoldEverySteps = 256;

  /// Event sequence counter: every deliver/step/drop claims the next value
  /// the instant it happens, defining the one total order the captured
  /// trace replays in.  Claimed even with capture off — it *is* virtual
  /// time (StepContext::now), so capture cannot change protocol behavior.
  std::atomic<std::uint64_t> seq_{0};
  /// Enqueue tickets: globally unique per push, so each inbox drain can
  /// reconstruct one total enqueue order (rt/mpsc.h).
  std::atomic<std::uint64_t> ticket_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> timed_out_{false};
  std::atomic<std::uint64_t> drops_{0};
  /// Transactions currently in flight; parked workers idle-tick their
  /// servers only while nonzero (time-based deferred work needs steps, but
  /// a fully idle system should not spin virtual time forward).
  std::atomic<std::size_t> active_txs_{0};
  std::atomic<std::size_t> submitters_left_{0};
  std::uint64_t wall_start_us_ = 0;
};

void Engine::build_cluster() {
  // Protocol::build wants a Simulation; boot one, then lift every process
  // out of it.  The bootstrap sim never steps, so the clones carry exactly
  // the post-build state — the same state a simulator run starts from.
  sim::Simulation boot;
  IdSource ids;
  cluster_ = protocol_.build(boot, ccfg_, ids);
  DISCS_CHECK_MSG(!ccfg_.record_spans,
                  "rt: span recording is thread-local; capture without "
                  "spans and replay with them (tests/test_rt.cpp)");
  DISCS_CHECK_MSG(!cluster_.clients.empty(), "rt: cluster has no clients");

  stations_.reserve(boot.process_count());
  for (std::size_t i = 0; i < boot.process_count(); ++i) {
    auto st = std::make_unique<Station>();
    st->proc = std::as_const(boot).process(ProcessId(i)).clone();
    st->client = dynamic_cast<ClientBase*>(st->proc.get());
    st->inbox = std::make_unique<MpscInbox>(kInboxCapacity);
    stations_.push_back(std::move(st));
  }

  // Continue the bootstrap IdSource: the workload mints transaction ids
  // after build minted the initial values, exactly like the sequential
  // driver.
  specs_ = wl::tx_stream(ids, cluster_, wcfg_, protocol_.supports_write_tx());
}

void Engine::route(sim::Message m, EngineThread& t) {
  if (opts_.drop_filter && opts_.drop_filter(m)) {
    const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_acq_rel);
    drops_.fetch_add(1, std::memory_order_relaxed);
    if (merge_) t.sink.dropped_ids.push_back(m.id.value());
    if (record_) {
      // Into the step's batch, after the step's own record: the drop
      // claimed a later seq, so the batch stays sorted.
      sim::EventRecord& rec = t.batch.emplace_back();
      rec.event = sim::Event::drop(m.id);
      rec.seq = seq;
      rec.delivered = std::move(m);
    }
    return;
  }
  Station& dst = *stations_[m.dst.value()];
  Parker* parker = dst.parker;
  if (dst.inbox->push(std::move(m), ticket_.fetch_add(
                                        1, std::memory_order_relaxed)) &&
      parker != nullptr)
    parker->notify();
}

void Engine::step_station(Station& s, EngineThread& t) {
  s.drain_scratch.clear();
  const std::size_t k = s.inbox->drain(s.drain_scratch);
  // Claim the step's whole sequence range atomically: deliveries get
  // base..base+k-1, the step itself base+k.  Any message this step sends
  // is pushed *after* this claim, so the consumer's drain (and therefore
  // its deliver seqs) is ordered after this step's seq — the captured
  // order is a valid simulator schedule.
  const std::uint64_t base =
      seq_.fetch_add(k + 1, std::memory_order_acq_rel);
  t.batch.clear();
  if (record_) {
    for (std::size_t i = 0; i < k; ++i) {
      sim::EventRecord rec;
      rec.event = sim::Event::deliver(s.drain_scratch[i].id);
      rec.seq = base + i;
      rec.delivered = s.drain_scratch[i];
      t.batch.push_back(std::move(rec));
    }
  }
  const std::uint64_t step_seq = base + k;
  sim::StepContext ctx(s.proc->id(), step_seq, std::move(s.out_scratch));
  s.proc->on_step(ctx, s.drain_scratch);
  counter_steps() += 1;
  counter_deliveries() += k;

  // The step's record goes at batch[k], right after its k deliveries and
  // before any drop route() appends (those claim later seqs): the batch is
  // sorted by seq, which the merge requires of every published batch.
  if (record_) {
    sim::EventRecord& rec = t.batch.emplace_back();
    rec.event = sim::Event::step(s.proc->id());
    rec.seq = step_seq;
    rec.consumed = s.drain_scratch;
  }
  sim::batch_outgoing(s.proc->id(), stations_.size(), ctx.outgoing(),
                      s.dst_scratch, s.send_seq, [&](sim::Message m) {
                        counter_sent() += 1;
                        if (record_) t.batch[k].sent.push_back(m);
                        route(std::move(m), t);
                      });
  s.out_scratch = ctx.take_outgoing();
  if (t.flight)
    for (const auto& rec : t.batch) t.flight->push(obs::flight_from(rec));
  if (merge_) merge_->publish(t.slot, t.batch);
  if (metrics_hub_ && ++t.steps_since_fold >= kFoldEverySteps)
    fold_metrics(t);
}

void Engine::worker_loop(const std::vector<Station*>& owned, Parker& parker,
                         EngineThread& t) {
  for (;;) {
    bool stepped = false;
    for (Station* s : owned) {
      if (!s->inbox->empty()) {
        step_station(*s, t);
        stepped = true;
      }
    }
    if (stop_.load(std::memory_order_acquire)) {
      fold_metrics(t);
      return;
    }
    if (stepped) continue;
    // About to park: fold the registry shard so the sampler sees this
    // thread's latest counts even while it idles — but rate-limited to
    // the sampler cadence.  Under bursty load a worker parks after nearly
    // every batch, and an unconditional fold here (a full registry copy,
    // tens of thousands of times per second) is what the ≤5% sampler
    // budget of BM_RtSustainedSampled caught.  Folding at most once per
    // interval keeps the staleness bound at one sample period, which is
    // the honest semantics of sampling anyway.
    maybe_fold(t);
    const bool woken =
        parker.wait_for(kIdleTickUs, [&] {
          if (stop_.load(std::memory_order_acquire)) return true;
          for (Station* s : owned)
            if (!s->inbox->empty()) return true;
          return false;
        });
    if (stop_.load(std::memory_order_acquire)) {
      fold_metrics(t);
      return;
    }
    if (!woken && active_txs_.load(std::memory_order_acquire) > 0) {
      // Idle tick: step every owned server once on an empty inbox.  Empty
      // steps advance virtual time, which drives time-based deferred work
      // (TrueTime commit-wait, gossip stabilization) exactly as the
      // simulator's fair scheduler does.
      for (Station* s : owned) step_station(*s, t);
    }
  }
}

void Engine::submitter_loop(Station& st, const std::vector<TxSpec>& specs,
                            Parker& parker, EngineThread& t,
                            SubmitterStats& stats) {
  ClientBase* client = st.client;
  const std::uint64_t tick_us = ccfg_.client_retransmit_after > 0
                                    ? kRetransmitTickUs
                                    : kSubmitterTickUs;
  std::size_t done_specs = 0;
  for (const TxSpec& spec : specs) {
    if (timed_out_.load(std::memory_order_acquire)) break;
    active_txs_.fetch_add(1, std::memory_order_acq_rel);
    if (merge_) {
      obs::InvokeRecord inv;
      inv.at = seq_.load(std::memory_order_relaxed);
      inv.client = st.proc->id();
      inv.spec = spec;
      t.sink.invokes.push_back(std::move(inv));
    }
    client->invoke(spec);
    const std::uint64_t t0 = clock_->now_us();
    step_station(st, t);  // the start_tx step
    std::uint64_t next_tick = t0 + tick_us;
    while (!client->idle()) {
      if (!st.inbox->empty()) {
        step_station(st, t);
        continue;
      }
      if (over_budget()) {
        timed_out_.store(true, std::memory_order_release);
        break;
      }
      const std::uint64_t now = clock_->now_us();
      if (now >= next_tick) {
        // One elapsed period with nothing delivered: an empty-inbox step.
        // With the ladder armed this is the stalled step that drives the
        // retransmit arithmetic; it also advances the client through any
        // time-based wait (commit-wait).
        step_station(st, t);
        next_tick = now + tick_us;
        continue;
      }
      if (clock_->real_time()) {
        parker.wait_for(next_tick - now, [&] {
          return !st.inbox->empty() ||
                 stop_.load(std::memory_order_acquire);
        });
      } else {
        // Fake time: a "wait" jumps the clock to the deadline; yield so
        // worker threads (always on real time) keep making progress.
        clock_->on_wait_until(next_tick);
        std::this_thread::yield();
      }
    }
    active_txs_.fetch_sub(1, std::memory_order_acq_rel);
    maybe_fold(t);  // per-transaction, rate-limited to the sample cadence
    if (client->has_completed(spec.id)) {
      ++done_specs;
      ++stats.completed;
      stats.latency_us.record(clock_->now_us() - t0);
    } else {
      // Incomplete (wall budget): the client is still mid-transaction, so
      // no further spec can be invoked on it.
      break;
    }
  }
  stats.incomplete += specs.size() - done_specs;
  fold_metrics(t);  // final fold: the join-time sample sees exact totals
  if (submitters_left_.fetch_sub(1, std::memory_order_acq_rel) == 1)
    request_stop();
}

void Engine::request_stop() {
  stop_.store(true, std::memory_order_release);
  for (auto& p : parkers_) p->notify();
}

void Engine::fold_metrics(EngineThread& t) {
  if (!metrics_hub_) return;
  t.steps_since_fold = 0;
  t.last_fold_us = clock_->now_us();
  // A fold copies the *calling* thread's registry — the one place the
  // thread-local Registry may be read while engine threads run (see the
  // MetricsHub contract in obs/metrics_io.h).
  metrics_hub_->fold(t.slot, obs::Registry::global());
}

void Engine::maybe_fold(EngineThread& t) {
  // The opportunistic fold points (pre-park, per-transaction): skip when
  // nothing moved since the last fold, and never fold more often than the
  // sampler can observe.  The cadence fold in step_station and the
  // unconditional folds at thread exit bound the staleness either way.
  if (!metrics_hub_ || t.steps_since_fold == 0) return;
  if (clock_->now_us() - t.last_fold_us < opts_.metrics_interval_us) return;
  fold_metrics(t);
}

void Engine::take_sample() {
  static constexpr std::string_view kShardFamilies[] = {
      "rt.steps", "rt.deliveries", "rt.messages_sent"};
  const std::uint64_t at =
      clock_->now_us() - std::min(clock_->now_us(), metrics_start_us_);
  obs::MetricsSample s = metrics_hub_->sample(at, kShardFamilies);
  if (metrics_out_.is_open()) {
    metrics_out_ << obs::metrics_sample_line(s) << '\n';
    metrics_out_.flush();  // live artifact: complete after every sample
  }
  series_.samples.push_back(std::move(s));
}

void Engine::sampler_loop() {
  const std::uint64_t interval = opts_.metrics_interval_us;
  std::uint64_t next = clock_->now_us() + interval;
  while (!sampler_stop_.load(std::memory_order_acquire)) {
    const std::uint64_t now = clock_->now_us();
    if (now >= next) {
      take_sample();
      next = now + interval;
      continue;
    }
    if (clock_->real_time()) {
      // Wait out the remaining interval on a condition variable, not a
      // sleep: stop_sampler() notifies, so the join at the end of run()
      // returns immediately instead of waiting out the tail of a sleep.
      // (A sliced sleep_for looked harmless but charged every run up to
      // one cadence of pure join latency — on a short run that alone
      // blew the ≤5% sampler budget.)  Spurious wakeups just re-check
      // the clock; the predicate only short-circuits the stop flag.
      std::unique_lock<std::mutex> lock(sampler_mu_);
      sampler_cv_.wait_for(
          lock, std::chrono::microseconds(next - now),
          [this] { return sampler_stop_.load(std::memory_order_acquire); });
    } else {
      // Fake time: the sampler participates in virtual time like any
      // waiter — on_wait_until jumps the clock monotonically to the
      // deadline (rt/clock.h), so cadence is deterministic in `now_us`
      // space even though the thread interleaving is not.
      clock_->on_wait_until(next);
      std::this_thread::yield();
    }
  }
}

RunReport Engine::run() {
  build_cluster();

  const std::size_t nclients = cluster_.clients.size();
  workers_ = std::clamp<std::size_t>(opts_.workers, 1,
                                     cluster_.view.servers.size());
  const std::size_t nthreads = workers_ + nclients;
  parkers_.reserve(nthreads);
  for (std::size_t i = 0; i < nthreads; ++i)
    parkers_.push_back(std::make_unique<Parker>());
  threads_.resize(nthreads);
  for (std::size_t i = 0; i < nthreads; ++i) {
    threads_[i].slot = i;
    if (opts_.flight_capacity > 0)
      threads_[i].flight = std::make_unique<obs::Ring<obs::FlightEvent>>(
          opts_.flight_capacity);
  }
  if (opts_.capture || !opts_.stream_path.empty())
    merge_ = std::make_unique<FrontierMerge>(nthreads, opts_.capture,
                                             opts_.stream_path);
  record_ = merge_ || opts_.flight_capacity > 0;
  if (opts_.metrics_interval_us > 0) {
    metrics_hub_ = std::make_unique<obs::MetricsHub>(nthreads);
    series_.source = cat("rt:", protocol_.name(), ":w", workers_);
    metrics_start_us_ = clock_->now_us();
    if (!opts_.metrics_path.empty()) {
      metrics_out_.open(opts_.metrics_path,
                        std::ios::binary | std::ios::trunc);
      DISCS_CHECK_MSG(metrics_out_.is_open(),
                      "rt: cannot open metrics path '" << opts_.metrics_path
                                                       << "'");
      metrics_out_ << obs::metrics_header_line(series_) << '\n';
      metrics_out_.flush();
    }
    sampler_ = std::thread([this] { sampler_loop(); });
  }
  std::vector<SubmitterStats> stats(nclients);

  // Ownership: server i -> worker (i % workers_); client c -> submitter c.
  std::vector<std::vector<Station*>> owned(workers_);
  for (std::size_t i = 0; i < cluster_.view.servers.size(); ++i) {
    Station* s = stations_[cluster_.view.servers[i].value()].get();
    s->parker = parkers_[i % workers_].get();
    owned[i % workers_].push_back(s);
  }
  for (std::size_t c = 0; c < nclients; ++c)
    stations_[cluster_.clients[c].value()]->parker =
        parkers_[workers_ + c].get();

  submitters_left_.store(nclients, std::memory_order_release);
  wall_start_us_ = WallClock::instance().now_us();

  std::vector<std::function<void()>> tasks;
  tasks.reserve(nthreads);
  for (std::size_t w = 0; w < workers_; ++w)
    tasks.push_back([this, w, &owned] {
      worker_loop(owned[w], *parkers_[w], threads_[w]);
    });
  for (std::size_t c = 0; c < nclients; ++c)
    tasks.push_back([this, c, &stats] {
      submitter_loop(*stations_[cluster_.clients[c].value()], specs_[c],
                     *parkers_[workers_ + c], threads_[workers_ + c],
                     stats[c]);
    });
  // One batch on the shared pool: workers + submitters run concurrently;
  // run_batch joins them all and folds their Registry shards (rt.* and
  // protocol counters) into this thread's.
  par::ThreadPool::shared().run_batch(std::move(tasks));

  // Engine threads have joined: stop the sampler (with one final sample so
  // short runs still get a data point and the timeline ends at the run's
  // true totals).
  if (metrics_hub_) {
    stop_sampler();
    take_sample();
  }

  const double wall_seconds =
      double(WallClock::instance().now_us() - wall_start_us_) / 1e6;
  return finalize(std::move(stats), wall_seconds);
}

RunReport Engine::finalize(std::vector<SubmitterStats> stats,
                           double wall_seconds) {
  RunReport rep;
  rep.events = seq_.load(std::memory_order_acquire);
  rep.drops = drops_.load(std::memory_order_relaxed);
  rep.timed_out = timed_out_.load(std::memory_order_acquire);
  rep.wall_seconds = wall_seconds;
  rep.threads_used = workers_ + cluster_.clients.size();
  for (auto& s : stats) {
    rep.txs_completed += s.completed;
    rep.txs_incomplete += s.incomplete;
    rep.latency_us.merge(s.latency_us);
  }
  obs::Registry::global().inc("rt.runs");
  obs::Registry::global().counter("rt.drops") += rep.drops;
  rep.metrics = std::move(series_);

  if (opts_.flight_capacity > 0) {
    for (auto& t : threads_)
      if (t.flight)
        for (auto& fe : t.flight->snapshot())
          rep.flight.push_back(std::move(fe));
    std::sort(rep.flight.begin(), rep.flight.end(),
              [](const obs::FlightEvent& a, const obs::FlightEvent& b) {
                return a.seq < b.seq;
              });
  }

  if (!merge_) return rep;

  // The sequence counter claimed exactly rep.events values and every claim
  // produced exactly one record; the sink took them in seq order with no
  // gap (TraceSink::append), so equal counts are a full audit of the
  // capture invariant.
  obs::TraceSink& sink = merge_->drain();
  DISCS_CHECK_MSG(sink.events() == rep.events,
                  "rt capture: record count != sequence counter");

  obs::TraceDoc doc;
  doc.protocol = protocol_.name();
  doc.scenario = cat("rt:w", workers_, ":seed", wcfg_.seed);
  doc.cluster = ccfg_;
  doc.initial = cluster_.initial_values;
  std::vector<std::uint64_t> dropped_ids;
  for (auto& t : threads_) {
    for (auto& inv : t.sink.invokes) doc.invokes.push_back(std::move(inv));
    dropped_ids.insert(dropped_ids.end(), t.sink.dropped_ids.begin(),
                       t.sink.dropped_ids.end());
  }
  obs::sort_invokes(doc.invokes);

  // History: initial values + every client's local record, exactly like
  // proto::collect_history (which wants a Simulation we no longer have).
  std::vector<hist::History> parts;
  hist::History base;
  for (const auto& [obj, v] : cluster_.initial_values) base.set_initial(obj, v);
  parts.push_back(std::move(base));
  for (auto cid : cluster_.clients)
    parts.push_back(stations_[cid.value()]->client->local_history());
  doc.history = hist::merge_histories(parts);

  // Final digest, byte-compatible with sim::Simulation::digest(): process
  // digests in id order, then the network digest over whatever is still
  // queued (undelivered == in flight), then dropped ids.  A replay of the
  // captured doc must land on exactly this string.
  std::ostringstream os;
  for (const auto& st : stations_)
    os << to_string(st->proc->id()) << ":{" << st->proc->state_digest()
       << "} ";
  sim::Network net;
  for (const auto& st : stations_) {
    sim::MessageVec leftovers;
    st->inbox->drain(leftovers);
    for (auto& m : leftovers) net.post(std::move(m));
  }
  os << "net:{" << net.digest() << "}";
  if (!dropped_ids.empty()) {
    std::sort(dropped_ids.begin(), dropped_ids.end());
    os << " dropped:{" << join(dropped_ids, ",") << "}";
  }
  doc.final_digest = os.str();

  // finish() adds the kept events, their message table and the schema, and
  // writes the streamed file when there is one.
  obs::TraceDoc finished = sink.finish(std::move(doc));
  if (opts_.capture) rep.doc = std::move(finished);
  return rep;
}

}  // namespace

RunReport run(const proto::Protocol& protocol,
              const proto::ClusterConfig& ccfg,
              const wl::WorkloadConfig& wcfg, const Options& options) {
  RunReport rep = Engine(protocol, ccfg, wcfg, options).run();
  // The engine threads allocated the capture's payloads and message
  // vectors, and this thread freed them draining and destroying the engine:
  // hand those blocks back for the next run's threads (util/pool.h).
  util::Pool::release_thread_cache();
  return rep;
}

}  // namespace discs::rt
