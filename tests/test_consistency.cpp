// Consistency checker tests, including the paper's key scenarios: the
// Lemma 1 mixed-read anomaly must be rejected by the causal checker.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "checker_reference.h"
#include "consistency/checkers.h"
#include "proto/registry.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace discs::cons {
namespace {

using hist::History;
using hist::TxRecord;

TxRecord make_tx(std::uint64_t id, std::uint64_t client,
                 std::vector<std::pair<std::uint64_t, std::uint64_t>> reads,
                 std::vector<std::pair<std::uint64_t, std::uint64_t>> writes,
                 std::uint64_t invoke = 0, std::uint64_t complete = 0) {
  static std::uint64_t seq = 0;
  TxRecord t;
  t.id = TxId(id);
  t.client = ProcessId(client);
  t.invoked = t.completed = true;
  t.invoke_seq = invoke ? invoke : ++seq;
  t.complete_seq = complete ? complete : t.invoke_seq + 1;
  for (auto [o, v] : reads)
    t.reads.push_back({ObjectId(o), ValueId(v), true});
  for (auto [o, v] : writes)
    t.writes.push_back({ObjectId(o), ValueId(v), true});
  return t;
}

History base_history() {
  History h;
  h.set_initial(ObjectId(0), ValueId(100));
  h.set_initial(ObjectId(1), ValueId(101));
  return h;
}

TEST(CausalGraph, ClosureAndCycles) {
  // One client's program order T1 -> T2 -> T3 is closed; another client's
  // T4 is unordered against it; the initializing node precedes all.
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}}));
  h.add(make_tx(2, 1, {}, {}));
  h.add(make_tx(3, 1, {}, {}));
  h.add(make_tx(4, 2, {}, {}));
  CausalGraph g(h);
  const auto n = [](std::size_t i) { return CausalGraph::node_of(i); };
  EXPECT_TRUE(g.before(n(0), n(2)));
  EXPECT_FALSE(g.before(n(2), n(0)));
  EXPECT_FALSE(g.before(n(0), n(3)));
  EXPECT_FALSE(g.before(n(3), n(0)));
  EXPECT_TRUE(g.before(CausalGraph::kInitNode, n(3)));
  EXPECT_FALSE(g.before(n(3), CausalGraph::kInitNode));
  EXPECT_FALSE(g.before(CausalGraph::kInitNode, CausalGraph::kInitNode));
  EXPECT_TRUE(g.acyclic());

  // Two transactions that read each other's writes form a cycle, and each
  // member precedes itself.
  History c = base_history();
  c.add(make_tx(1, 1, {{1, 2}}, {{0, 1}}));
  c.add(make_tx(2, 2, {{0, 1}}, {{1, 2}}));
  CausalGraph cg(c);
  EXPECT_FALSE(cg.acyclic());
  EXPECT_EQ(cg.cycle_members(), (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(cg.before(1, 1));
  EXPECT_TRUE(cg.before(1, 2));
  EXPECT_TRUE(cg.before(2, 1));
}

TEST(CausalGraph, ReadsFromAgainstIndexOrder) {
  // Reads-from edges that run against history order, T3 -> T2 -> T1, are
  // still ordered; one more read closing the loop makes all three a cycle.
  History h = base_history();
  h.add(make_tx(1, 1, {{1, 2}}, {}));
  h.add(make_tx(2, 2, {{0, 3}}, {{1, 2}}));
  h.add(make_tx(3, 3, {}, {{0, 3}}));
  CausalGraph g(h);
  EXPECT_TRUE(g.acyclic());
  EXPECT_TRUE(g.before(3, 1));
  EXPECT_FALSE(g.before(1, 3));
  EXPECT_TRUE(g.cycle_members().empty());

  History c = base_history();
  c.add(make_tx(1, 1, {{1, 2}}, {{0, 1}}));
  c.add(make_tx(2, 2, {{0, 3}}, {{1, 2}}));
  c.add(make_tx(3, 3, {{0, 1}}, {{0, 3}}));
  c.add(make_tx(4, 3, {}, {}));  // after the cycle, not on it
  CausalGraph cg(c);
  EXPECT_EQ(cg.cycle_members(), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_TRUE(cg.before(1, 4));
  EXPECT_FALSE(cg.before(4, 4));
}

TEST(Causal, EmptyAndReadInitialAreConsistent) {
  History h = base_history();
  EXPECT_TRUE(check_causal_consistency(h).ok());
  h.add(make_tx(1, 1, {{0, 100}, {1, 101}}, {}));
  EXPECT_TRUE(check_causal_consistency(h).ok());
}

TEST(Causal, ReadYourOwnSequence) {
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}}));
  h.add(make_tx(2, 1, {{0, 1}}, {}));
  EXPECT_TRUE(check_causal_consistency(h).ok());
}

TEST(Causal, GarbageReadFlagged) {
  History h = base_history();
  h.add(make_tx(1, 1, {{0, 999}}, {}));
  auto r = check_causal_consistency(h);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].kind, "garbage-read");
}

TEST(Causal, WrongObjectReadFlagged) {
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}}));
  h.add(make_tx(2, 2, {{1, 1}}, {}));  // value 1 was written to object 0
  auto r = check_causal_consistency(h);
  EXPECT_FALSE(r.ok());
  bool found = false;
  for (const auto& v : r.violations) found |= v.kind == "wrong-object-read";
  EXPECT_TRUE(found) << r.summary();
}

TEST(Causal, ReadOfASecondWriteToOneObjectIsValid) {
  // T1 writes X0 twice; T2 reads the second value, which is X0's latest.
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}, {0, 2}}));
  h.add(make_tx(2, 2, {{0, 2}}, {}));
  EXPECT_TRUE(check_reads_valid(h).ok()) << check_reads_valid(h).summary();
  EXPECT_TRUE(check_causal_consistency(h).ok())
      << check_causal_consistency(h).summary();
  EXPECT_EQ(reference::reads_valid(h).summary(),
            check_reads_valid(h).summary());
  // The own-write rule is unchanged: T1 itself must read its first write.
  History own = base_history();
  own.add(make_tx(1, 1, {{0, 2}}, {{0, 1}, {0, 2}}));
  EXPECT_EQ(check_causal_consistency(own).violations.at(0).kind,
            "own-write-missed");
}

TEST(Causal, Lemma1MixedReadIsViolation) {
  // The paper's Lemma 1 scenario: cw reads initial values, then writes
  // both objects in Tw; a reader returning (x0_new, x1_initial) — or any
  // mix — violates causal consistency.
  History h = base_history();
  h.add(make_tx(1, 1, {{0, 100}, {1, 101}}, {}));        // T_in_r by cw
  h.add(make_tx(2, 1, {}, {{0, 1}, {1, 2}}));            // Tw by cw
  h.add(make_tx(3, 2, {{0, 1}, {1, 101}}, {}));          // mixed reader
  auto r = check_causal_consistency(h);
  EXPECT_FALSE(r.ok());
  bool found = false;
  for (const auto& v : r.violations) found |= v.kind == "intervening-write";
  EXPECT_TRUE(found) << r.summary();
}

TEST(Causal, BothNewOrBothOldAreFine) {
  History h = base_history();
  h.add(make_tx(1, 1, {{0, 100}, {1, 101}}, {}));
  h.add(make_tx(2, 1, {}, {{0, 1}, {1, 2}}));
  h.add(make_tx(3, 2, {{0, 1}, {1, 2}}, {}));
  h.add(make_tx(4, 3, {{0, 100}, {1, 101}}, {}));
  EXPECT_TRUE(check_causal_consistency(h).ok())
      << check_causal_consistency(h).summary();
}

TEST(Causal, TransitiveDependencyViolation) {
  // c1 writes x0; c2 reads x0 then writes y1; a reader seeing y1 but the
  // initial x0 breaks causality (the COPS anomaly).
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}}));
  h.add(make_tx(2, 2, {{0, 1}}, {}));
  h.add(make_tx(3, 2, {}, {{1, 2}}));
  h.add(make_tx(4, 3, {{0, 100}, {1, 2}}, {}));
  auto r = check_causal_consistency(h);
  EXPECT_FALSE(r.ok());
}

TEST(Causal, OwnWriteMustBeObserved) {
  History h = base_history();
  TxRecord t = make_tx(1, 1, {{0, 100}}, {{0, 5}});
  h.add(t);
  auto r = check_causal_consistency(h);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].kind, "own-write-missed");
}

TEST(ReadAtomicity, FracturedReadFlagged) {
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}, {1, 2}}));       // atomic pair
  h.add(make_tx(2, 2, {{0, 1}, {1, 101}}, {}));     // half of it
  auto r = check_read_atomicity(h);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].kind, "fractured-read");
}

TEST(ReadAtomicity, NewerOverwriteIsNotFractured) {
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}, {1, 2}}));
  h.add(make_tx(2, 1, {}, {{1, 3}}));               // newer write on X1
  h.add(make_tx(3, 2, {{0, 1}, {1, 3}}, {}));       // sees newer: fine
  EXPECT_TRUE(check_read_atomicity(h).ok())
      << check_read_atomicity(h).summary();
}

TEST(Serializability, SimpleSerializableHistory) {
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}}));
  h.add(make_tx(2, 2, {{0, 1}}, {{1, 2}}));
  h.add(make_tx(3, 3, {{0, 1}, {1, 2}}, {}));
  EXPECT_TRUE(check_serializability(h).ok());
}

TEST(Serializability, WriteSkewStyleNonSerializable) {
  // Two readers each observe the other's write missing: T1 reads initial
  // X1 and writes X0; T2 reads initial X0 and writes X1; a third reads
  // both new values.  Serializable orders exist for subsets but reads of
  // (initial, initial) by both writers forbid any total order in which
  // each sees the other's write absent yet the final reader sees both...
  History h = base_history();
  h.add(make_tx(1, 1, {{1, 101}}, {{0, 1}}));
  h.add(make_tx(2, 2, {{0, 100}}, {{1, 2}}));
  h.add(make_tx(3, 3, {{0, 1}, {1, 2}}, {}));
  // This one IS serializable: T1, T2, T3 works (T1 sees initial X1 —
  // true before T2; T2 sees initial X0? No: T1 wrote X0 first).  Order
  // T2, T1, T3 symmetric.  Neither works, so: not serializable.
  auto r = check_serializability(h);
  EXPECT_FALSE(r.ok()) << "history should admit no legal total order";
}

TEST(Serializability, CausalButNotSerializableMix) {
  // Classic: two concurrent single writes, two readers observing them in
  // opposite orders.  Causally fine (concurrent writes), not serializable
  // ... with multi-value reads in one transaction each.
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}}));
  h.add(make_tx(2, 2, {}, {{1, 2}}));
  h.add(make_tx(3, 3, {{0, 1}, {1, 101}}, {}));  // saw w1 not w2
  h.add(make_tx(4, 4, {{0, 100}, {1, 2}}, {}));  // saw w2 not w1
  EXPECT_TRUE(check_causal_consistency(h).ok())
      << check_causal_consistency(h).summary();
  EXPECT_FALSE(check_serializability(h).ok());
}

TEST(StrictSerializability, RealTimeOrderMatters) {
  // T1 completes before T2 starts; a reader that later sees T1's value
  // but not T2's is serializable, but placing T2 before T1 is forbidden
  // by real time.
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}}, /*invoke=*/10, /*complete=*/11));
  h.add(make_tx(2, 2, {}, {{0, 2}}, /*invoke=*/20, /*complete=*/21));
  h.add(make_tx(3, 3, {{0, 1}}, {}, /*invoke=*/30, /*complete=*/31));
  EXPECT_TRUE(check_serializability(h).ok());
  EXPECT_FALSE(check_strict_serializability(h).ok());
}

TEST(Sessions, ReadYourWritesViolation) {
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}}));
  h.add(make_tx(2, 1, {{0, 100}}, {}));  // own write missing
  auto r = check_session_guarantees(h);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].kind, "read-your-writes");
}

TEST(Sessions, MonotonicReadsViolation) {
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}}));
  h.add(make_tx(2, 2, {{0, 1}}, {}));
  h.add(make_tx(3, 2, {{0, 100}}, {}));  // regressed to the initial value
  auto r = check_session_guarantees(h);
  EXPECT_FALSE(r.ok());
  bool found = false;
  for (const auto& v : r.violations) found |= v.kind == "monotonic-reads";
  EXPECT_TRUE(found) << r.summary();
}

TEST(Sessions, CleanSessionPasses) {
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}}));
  h.add(make_tx(2, 1, {{0, 1}}, {}));
  h.add(make_tx(3, 1, {{0, 1}, {1, 101}}, {}));
  EXPECT_TRUE(check_session_guarantees(h).ok());
}

TEST(Serializability, BudgetExhaustionReportsUnknown) {
  // Many concurrent writers of the same object with no reads: hugely
  // permutable; a budget of ~1 node cannot even place the first tx chain.
  History h = base_history();
  for (std::uint64_t i = 1; i <= 12; ++i)
    h.add(make_tx(i, i, {}, {{0, i}}));
  auto r = check_serializability(h, /*budget=*/1);
  EXPECT_EQ(r.verdict, Verdict::kUnknown) << r.summary();
}

TEST(Causal, IncompleteTransactionsAreIgnoredViaComplete) {
  // complete(H): a pending write-only transaction does not (yet) dictate
  // anything; its values must simply not be read.
  History h = base_history();
  auto pending = make_tx(1, 1, {}, {{0, 1}, {1, 2}});
  pending.completed = false;
  h.add(pending);
  h.add(make_tx(2, 2, {{0, 100}, {1, 101}}, {}));
  auto complete = h.complete();
  EXPECT_TRUE(check_causal_consistency(complete).ok());
}

TEST(Causal, CommHClosureReadingPendingWriteIsConsistent) {
  // comm(H) completes outstanding write responses: reading BOTH values of
  // a pending write-only transaction is legal once the record is treated
  // as completed — exactly how the mix exhibit synthesizes Tw.
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}, {1, 2}}));  // treated as completed
  h.add(make_tx(2, 2, {{0, 1}, {1, 2}}, {}));
  EXPECT_TRUE(check_causal_consistency(h).ok());
}

TEST(Causal, ConcurrentWritersNoAnomalies) {
  // Two clients write the same object concurrently; readers may disagree
  // on the order only if they never observe both in conflicting orders
  // per-object regression is what monotonic-reads would catch; a single
  // read each is fine causally.
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}}));
  h.add(make_tx(2, 2, {}, {{0, 2}}));
  h.add(make_tx(3, 3, {{0, 1}}, {}));
  h.add(make_tx(4, 4, {{0, 2}}, {}));
  EXPECT_TRUE(check_causal_consistency(h).ok());
}

TEST(Causal, ChainOfThreeTransitivity) {
  // w(X0)a -> read a, w(X1)b -> read b, w(X2... over three objects, then
  // a reader observing the end of the chain with the start stale.
  History h = base_history();
  h.set_initial(ObjectId(2), ValueId(102));
  h.add(make_tx(1, 1, {}, {{0, 1}}));
  h.add(make_tx(2, 2, {{0, 1}}, {}));
  h.add(make_tx(3, 2, {}, {{1, 2}}));
  h.add(make_tx(4, 3, {{1, 2}}, {}));
  h.add(make_tx(5, 3, {}, {{2, 3}}));
  // Reader: new X2 but initial X0 — a two-hop causality violation.
  h.add(make_tx(6, 4, {{0, 100}, {2, 3}}, {}));
  auto r = check_causal_consistency(h);
  EXPECT_FALSE(r.ok());
}

TEST(SnapshotIsolation, CleanHistoryPasses) {
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}, {1, 2}}));
  h.add(make_tx(2, 2, {{0, 1}, {1, 2}}, {}));
  h.add(make_tx(3, 3, {{0, 100}, {1, 101}}, {}));
  EXPECT_TRUE(check_snapshot_isolation(h).ok())
      << check_snapshot_isolation(h).summary();
}

TEST(SnapshotIsolation, FracturedReadFlagged) {
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}, {1, 2}}));
  h.add(make_tx(2, 2, {{0, 1}, {1, 101}}, {}));
  auto r = check_snapshot_isolation(h);
  EXPECT_FALSE(r.ok());
}

TEST(SnapshotIsolation, SkewedSnapshotFlagged) {
  // T reads X0 from init and X1 from W2, where W1 wrote X0 causally
  // between them: no snapshot contains (init X0, W2's X1).
  History h = base_history();
  h.add(make_tx(1, 1, {}, {{0, 1}}));            // W1 writes X0
  h.add(make_tx(2, 1, {{0, 1}}, {{1, 2}}));      // W2: after W1, writes X1
  h.add(make_tx(3, 2, {{0, 100}, {1, 2}}, {}));  // the skewed reader
  auto r = check_snapshot_isolation(h);
  EXPECT_FALSE(r.ok());
  bool found = false;
  for (const auto& v : r.violations) found |= v.kind == "skewed-snapshot";
  EXPECT_TRUE(found) << r.summary();
}

TEST(SnapshotIsolation, LostUpdateFlagged) {
  History h = base_history();
  h.add(make_tx(1, 1, {{0, 100}}, {{0, 1}}));  // read v100, write v1
  h.add(make_tx(2, 2, {{0, 100}}, {{0, 2}}));  // read v100 too, write v2
  auto r = check_snapshot_isolation(h);
  EXPECT_FALSE(r.ok());
  bool found = false;
  for (const auto& v : r.violations) found |= v.kind == "lost-update";
  EXPECT_TRUE(found) << r.summary();
}

TEST(SnapshotIsolation, SequentialUpdatesAreNotLost) {
  History h = base_history();
  h.add(make_tx(1, 1, {{0, 100}}, {{0, 1}}));
  h.add(make_tx(2, 2, {{0, 1}}, {{0, 2}}));  // reads T1's version: fine
  EXPECT_TRUE(check_snapshot_isolation(h).ok())
      << check_snapshot_isolation(h).summary();
}

TEST(StrictSerializability, ConcurrentTxsMayCommuteInAnyOrder) {
  History h = base_history();
  // Overlapping in real time: either order is acceptable.
  h.add(make_tx(1, 1, {}, {{0, 1}}, /*invoke=*/10, /*complete=*/30));
  h.add(make_tx(2, 2, {}, {{0, 2}}, /*invoke=*/20, /*complete=*/40));
  h.add(make_tx(3, 3, {{0, 1}}, {}, /*invoke=*/50, /*complete=*/60));
  // T3 reads T1's value although T2 committed later in real time — legal
  // iff T2 can be ordered before T1; both overlap, so yes.
  EXPECT_TRUE(check_strict_serializability(h).ok())
      << check_strict_serializability(h).summary();
}


// ------------------------------------------------- differential vs reference

/// The kinds of generated history the differential test covers.  Each kind
/// starts from a consistent sequential history and perturbs one aspect;
/// every kind but kConsistent also lets some reads return a random earlier
/// value, or one never written.
enum class Kind {
  kConsistent,    ///< every read returns the latest value: no flags
  kFuzzed,        ///< reads return random values of any object, or garbage
  kClientPerTx,   ///< no program order at all
  kUnresponded,   ///< some reads are r(X)* placeholders
  kIncomplete,    ///< some transactions never completed
  kDuplicates,    ///< some writes reuse a written or initial value
  kSeqTies,       ///< invoke_seq collides within a client
  kCyclic,        ///< some reads return a later transaction's value
};
constexpr int kKinds = 8;

History generated_history(Kind kind, std::uint64_t seed) {
  Rng rng(seed * kKinds + static_cast<std::uint64_t>(kind));
  const bool fuzzy = kind != Kind::kConsistent;
  const std::size_t objects = 1 + rng.below(6);
  const std::size_t clients = 1 + rng.below(5);
  const std::size_t n = 1 + rng.below(kind == Kind::kConsistent ? 120 : 48);
  History h;
  std::vector<ValueId> values;  // every initial and written value
  for (std::size_t o = 0; o < objects; ++o) {
    h.set_initial(ObjectId(o), ValueId(1000 + o));
    values.push_back(ValueId(1000 + o));
  }

  // Writes first, so that a read can return a later transaction's value.
  std::vector<TxRecord> txs(n);
  std::uint64_t next_value = 1;
  for (std::size_t i = 0; i < n; ++i) {
    TxRecord& t = txs[i];
    t.id = TxId(i + 1);
    t.client = ProcessId(kind == Kind::kClientPerTx ? i : rng.below(clients));
    t.invoked = true;
    t.completed = !(kind == Kind::kIncomplete && rng.chance(0.3));
    t.invoke_seq = kind == Kind::kSeqTies ? rng.below(n / 3 + 1) : 2 * i;
    t.complete_seq = t.invoke_seq + 1;
    const std::size_t writes = rng.chance(0.45) ? 1 + rng.below(3) : 0;
    for (std::size_t k = 0; k < writes; ++k) {
      ObjectId obj(rng.below(objects));
      ValueId v(next_value++);
      if (kind == Kind::kDuplicates && rng.chance(0.3))
        v = values[rng.below(values.size())];
      t.writes.push_back({obj, v, true});
      values.push_back(v);
    }
  }

  std::vector<ValueId> last(objects);
  for (std::size_t o = 0; o < objects; ++o) last[o] = ValueId(1000 + o);
  std::size_t known = objects;  // values[0, known): initial and txs[0..i]
  for (std::size_t i = 0; i < n; ++i) {
    TxRecord& t = txs[i];
    known += t.writes.size();
    const std::size_t reads = rng.below(4);
    for (std::size_t k = 0; k < reads; ++k) {
      ObjectId obj(rng.below(objects));
      ValueId v = last[obj.value()];
      auto own = t.value_written(obj);
      if (own && (!fuzzy || rng.chance(0.5))) v = *own;
      if (kind == Kind::kCyclic && i + 1 < n && rng.chance(0.15)) {
        const auto& later = txs[i + 1 + rng.below(n - i - 1)].writes;
        if (!later.empty()) v = later[rng.below(later.size())].value;
      }
      if (kind == Kind::kFuzzed && rng.chance(0.5))
        v = values[rng.below(values.size())];
      else if (fuzzy && rng.chance(0.1))
        v = values[rng.below(known)];
      if (fuzzy && rng.chance(0.03)) v = ValueId(1u << 20);  // never written
      bool responded = !(kind == Kind::kUnresponded && rng.chance(0.3));
      t.reads.push_back({obj, responded ? v : ValueId::invalid(), responded});
    }
    for (const auto& w : t.writes) last[w.object.value()] = w.value;
    h.add(std::move(t));
  }
  return h;
}

/// Runs all five graph checkers and their references on `h`, expects
/// byte-identical summaries, and tallies the flag kinds seen.
void expect_same_as_reference(const History& h, const std::string& label,
                              std::map<std::string, std::size_t>& kinds) {
  const std::pair<CheckResult, CheckResult> runs[] = {
      {check_reads_valid(h), reference::reads_valid(h)},
      {check_causal_consistency(h), reference::causal_consistency(h)},
      {check_read_atomicity(h), reference::read_atomicity(h)},
      {check_snapshot_isolation(h), reference::snapshot_isolation(h)},
      {check_session_guarantees(h), reference::session_guarantees(h)},
  };
  const char* names[] = {"reads_valid", "causal", "read_atomicity",
                         "snapshot_isolation", "sessions"};
  for (std::size_t k = 0; k < std::size(runs); ++k) {
    EXPECT_EQ(runs[k].first.summary(), runs[k].second.summary())
        << label << " " << names[k] << "\n" << h.describe();
    for (const auto& v : runs[k].second.violations) ++kinds[v.kind];
  }
}

TEST(CheckerDifferential, GeneratedHistoriesMatchReference) {
  std::map<std::string, std::size_t> kinds;
  std::size_t histories = 0, cyclic = 0, acyclic_intervening = 0;
  for (std::uint64_t seed = 1; seed <= 130; ++seed)
    for (int k = 0; k < kKinds; ++k) {
      History h = generated_history(static_cast<Kind>(k), seed);
      expect_same_as_reference(
          h, "kind " + std::to_string(k) + " seed " + std::to_string(seed),
          kinds);
      if (static_cast<Kind>(k) == Kind::kConsistent) {
        EXPECT_TRUE(check_causal_consistency(h).ok())
            << check_causal_consistency(h).summary();
      }
      CausalGraph g(h);
      cyclic += !g.acyclic();
      acyclic_intervening +=
          g.acyclic() && reference::causal_consistency(h).summary().find(
                             "[intervening-write]") != std::string::npos;
      ++histories;
    }
  EXPECT_GE(histories, 1000u);
  EXPECT_GE(cyclic, 50u);
  // Both paths of the intervening-write test: cyclic histories scan every
  // read, acyclic ones only the reads the per-client search cannot clear.
  EXPECT_GE(acyclic_intervening, 50u);
  // The generator must reach every flag the five checkers can raise.
  for (const char* kind :
       {"garbage-read", "wrong-object-read", "causal-cycle",
        "own-write-missed", "read-from-future", "intervening-write",
        "fractured-read", "skewed-snapshot", "lost-update",
        "read-your-writes", "monotonic-reads"}) {
    EXPECT_GT(kinds[kind], 0u) << kind;
  }
}

TEST(CheckerDifferential, ProtocolCapturesMatchReference) {
  std::map<std::string, std::size_t> kinds;
  std::size_t protocols = 0;
  for (const auto& protocol : proto::all_protocols()) {
    ++protocols;
    for (auto [seed, txs] : {std::pair<std::uint64_t, std::size_t>{1, 40},
                             {2, 40}, {3, 150}}) {
      sim::Simulation sim;
      proto::IdSource ids;
      proto::ClusterConfig cfg;
      cfg.num_servers = 3;
      cfg.num_clients = 5;
      cfg.num_objects = 6;
      proto::Cluster cluster = protocol->build(sim, cfg, ids);
      wl::WorkloadConfig wcfg;
      wcfg.num_txs = txs;
      wcfg.seed = seed;
      wcfg.write_fraction = 0.45;
      wcfg.zipf_theta = 0.8;
      auto result =
          wl::run_workload_concurrent(sim, *protocol, cluster, ids, wcfg);
      ASSERT_GT(result.history.size(), 0u) << protocol->name();
      expect_same_as_reference(
          result.history, protocol->name() + " seed " + std::to_string(seed),
          kinds);
    }
  }
  EXPECT_EQ(protocols, 10u);
  EXPECT_GT(kinds["intervening-write"], 0u);  // naivefast's anomaly
}

}  // namespace
}  // namespace discs::cons
