#include <gtest/gtest.h>

#include "history/history.h"
#include "util/check.h"

namespace discs::hist {
namespace {

TxRecord make_tx(std::uint64_t id, std::uint64_t client,
                 std::vector<std::pair<std::uint64_t, std::uint64_t>> reads,
                 std::vector<std::pair<std::uint64_t, std::uint64_t>> writes,
                 std::uint64_t invoke = 0, std::uint64_t complete = 1) {
  TxRecord t;
  t.id = TxId(id);
  t.client = ProcessId(client);
  t.invoked = t.completed = true;
  t.invoke_seq = invoke;
  t.complete_seq = complete;
  for (auto [o, v] : reads)
    t.reads.push_back({ObjectId(o), ValueId(v), true});
  for (auto [o, v] : writes) t.writes.push_back({ObjectId(o), ValueId(v), true});
  return t;
}

TEST(TxRecord, Accessors) {
  auto t = make_tx(1, 1, {{0, 10}}, {{1, 20}});
  EXPECT_FALSE(t.read_only());
  EXPECT_FALSE(t.write_only());
  EXPECT_EQ(t.value_read(ObjectId(0)), ValueId(10));
  EXPECT_EQ(t.value_read(ObjectId(5)), std::nullopt);
  EXPECT_TRUE(t.writes_object(ObjectId(1)));
  EXPECT_EQ(t.value_written(ObjectId(1)), ValueId(20));
  EXPECT_FALSE(t.writes_object(ObjectId(0)));
}

TEST(History, WriterOfResolvesInitialAndWritten) {
  History h;
  h.set_initial(ObjectId(0), ValueId(100));
  h.add(make_tx(1, 1, {}, {{0, 5}}));
  auto w_init = h.writer_of(ValueId(100));
  ASSERT_TRUE(w_init.has_value());
  EXPECT_TRUE(w_init->is_init());
  auto w = h.writer_of(ValueId(5));
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->tx_index, 0u);
  EXPECT_FALSE(h.writer_of(ValueId(999)).has_value());
}

TEST(History, ClientOrderFollowsInvocationTime) {
  History h;
  h.add(make_tx(1, 7, {}, {{0, 1}}, /*invoke=*/10));
  h.add(make_tx(2, 7, {}, {{0, 2}}, /*invoke=*/5));
  h.add(make_tx(3, 8, {}, {{0, 3}}, /*invoke=*/1));
  auto order = h.client_order(ProcessId(7));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(h.at(order[0]).id, TxId(2));
  EXPECT_EQ(h.at(order[1]).id, TxId(1));
  EXPECT_EQ(h.clients().size(), 2u);
}

// Transactions of one client that share an invocation time keep their
// history order.  Twenty ties: std::sort leaves runs of 16 or fewer to an
// insertion sort, which happens to keep them in order.
TEST(History, ClientOrderBreaksTiesByIndex) {
  History h;
  for (std::uint64_t i = 0; i < 20; ++i)
    h.add(make_tx(i + 1, 7, {}, {{0, i + 1}}, /*invoke=*/3));
  h.add(make_tx(21, 7, {}, {{0, 21}}, /*invoke=*/1));
  auto order = h.client_order(ProcessId(7));
  ASSERT_EQ(order.size(), 21u);
  EXPECT_EQ(order.front(), 20u);
  for (std::size_t k = 1; k < order.size(); ++k)
    EXPECT_EQ(order[k], k - 1) << "position " << k;
}

TEST(History, CompleteFiltersIncomplete) {
  History h;
  auto t = make_tx(1, 1, {}, {{0, 1}});
  t.completed = false;
  h.add(t);
  h.add(make_tx(2, 1, {}, {{0, 2}}));
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.complete().size(), 1u);
  EXPECT_EQ(h.complete().at(0).id, TxId(2));
}

TEST(History, MergeOrdersByInvocation) {
  History a, b;
  a.set_initial(ObjectId(0), ValueId(100));
  a.add(make_tx(1, 1, {}, {{0, 1}}, 20));
  b.set_initial(ObjectId(0), ValueId(100));
  b.add(make_tx(2, 2, {}, {{0, 2}}, 10));
  auto merged = merge_histories({a, b});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.at(0).id, TxId(2));
  EXPECT_EQ(merged.at(1).id, TxId(1));
  EXPECT_EQ(merged.initial_of(ObjectId(0)), ValueId(100));
}

TEST(History, MergeRejectsConflictingInitials) {
  History a, b;
  a.set_initial(ObjectId(0), ValueId(100));
  b.set_initial(ObjectId(0), ValueId(101));
  EXPECT_THROW(merge_histories({a, b}), discs::CheckFailure);
}

TEST(History, ObjectsUnion) {
  History h;
  h.set_initial(ObjectId(3), ValueId(1));
  h.add(make_tx(1, 1, {{0, 9}}, {{1, 2}}));
  auto objs = h.objects();
  EXPECT_EQ(objs.size(), 3u);
}

}  // namespace
}  // namespace discs::hist
