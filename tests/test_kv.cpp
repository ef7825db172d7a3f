#include <gtest/gtest.h>

#include "kv/store.h"
#include "util/check.h"

namespace discs::kv {
namespace {

Version v(std::uint64_t value, std::uint64_t phys, bool visible = true) {
  Version out;
  out.value = ValueId(value);
  out.ts = {phys, 0};
  out.visible = visible;
  return out;
}

TEST(Store, LatestVisibleSkipsPendingAndHidden) {
  VersionedStore s;
  ObjectId x(0);
  s.put(x, v(1, 1));
  s.put(x, v(2, 2, /*visible=*/false));
  EXPECT_EQ(s.latest_visible(x)->value, ValueId(1));

  Version hidden = v(3, 3);
  hidden.invisible_to.insert(TxId(7));
  s.put(x, hidden);
  EXPECT_EQ(s.latest_visible(x)->value, ValueId(3));
  EXPECT_EQ(s.latest_visible(x, TxId(7))->value, ValueId(1));
  EXPECT_EQ(s.latest_visible(x, TxId(8))->value, ValueId(3));
}

TEST(Store, SnapshotReads) {
  VersionedStore s;
  ObjectId x(0);
  s.put(x, v(1, 1));
  s.put(x, v(2, 5));
  s.put(x, v(3, 9));
  EXPECT_EQ(s.latest_visible_at(x, {5, 0})->value, ValueId(2));
  EXPECT_EQ(s.latest_visible_at(x, {4, 99})->value, ValueId(1));
  EXPECT_EQ(s.latest_visible_at(x, {100, 0})->value, ValueId(3));
  EXPECT_EQ(s.latest_visible_at(x, {0, 0}), nullptr);
}

TEST(Store, EarliestFrom) {
  VersionedStore s;
  ObjectId x(0);
  s.put(x, v(1, 1));
  s.put(x, v(2, 5));
  EXPECT_EQ(s.earliest_visible_from(x, {2, 0})->value, ValueId(2));
  EXPECT_EQ(s.earliest_visible_from(x, {1, 0})->value, ValueId(1));
  EXPECT_EQ(s.earliest_visible_from(x, {6, 0}), nullptr);
}

TEST(Store, OutOfOrderInsertKeepsTsOrder) {
  VersionedStore s;
  ObjectId x(0);
  s.put(x, v(2, 5));
  s.put(x, v(1, 1));  // arrives late
  EXPECT_EQ(s.latest_visible(x)->value, ValueId(2));
  EXPECT_EQ(s.chain(x).front().value, ValueId(1));
}

TEST(Store, MakeVisibleWithExclusions) {
  VersionedStore s;
  ObjectId x(0);
  s.put(x, v(1, 1));
  s.put(x, v(2, 2, /*visible=*/false));
  EXPECT_TRUE(s.has_pending());
  EXPECT_TRUE(s.make_visible(x, ValueId(2), {TxId(5)}));
  EXPECT_FALSE(s.has_pending());
  EXPECT_EQ(s.latest_visible(x, TxId(5))->value, ValueId(1));
  EXPECT_EQ(s.latest_visible(x)->value, ValueId(2));
  EXPECT_FALSE(s.make_visible(x, ValueId(99)));
  EXPECT_FALSE(s.make_visible(ObjectId(42), ValueId(1)));
}

// make_visible adopts its exclusion list as given, so the list must already
// be sorted and unique; anything else is rejected before the store changes.
TEST(Store, MakeVisibleRejectsUnsortedOrDuplicateExclusions) {
  VersionedStore s;
  ObjectId x(0);
  s.put(x, v(1, 1, /*visible=*/false));
  const std::string before = s.digest();
  EXPECT_THROW(s.make_visible(x, ValueId(1), {TxId(5), TxId(3)}),
               CheckFailure);
  EXPECT_THROW(s.make_visible(x, ValueId(1), {TxId(3), TxId(3)}),
               CheckFailure);
  EXPECT_EQ(s.digest(), before);
  EXPECT_TRUE(s.make_visible(x, ValueId(1), {TxId(3), TxId(5), TxId(9)}));
  EXPECT_EQ(s.chain(x).front().invisible_to.size(), 3u);
}

TEST(Store, FindValueAndObjects) {
  VersionedStore s;
  s.put(ObjectId(0), v(1, 1));
  s.put(ObjectId(1), v(2, 1));
  EXPECT_NE(s.find_value(ObjectId(0), ValueId(1)), nullptr);
  EXPECT_EQ(s.find_value(ObjectId(0), ValueId(2)), nullptr);
  EXPECT_EQ(s.objects().size(), 2u);
  EXPECT_TRUE(s.stores(ObjectId(1)));
  EXPECT_FALSE(s.stores(ObjectId(9)));
}

}  // namespace
}  // namespace discs::kv
