#include <gtest/gtest.h>

#include "engine/shred_cache.h"
#include "tests/test_util.h"

namespace raw {
namespace {

Column IntColumn(std::vector<int32_t> values) {
  Column col(DataType::kInt32);
  for (int32_t v : values) col.Append<int32_t>(v);
  return col;
}

TEST(ShredCacheTest, FullColumnInsertAndLookup) {
  ShredCache cache;
  ASSERT_OK(cache.Insert("t", 0, nullptr, IntColumn({10, 20, 30, 40})));
  ASSERT_OK_AND_ASSIGN(ColumnPtr full, cache.LookupFull("t", 0));
  EXPECT_EQ(full->length(), 4);
  ASSERT_OK_AND_ASSIGN(ColumnPtr some, cache.Lookup("t", 0, {3, 1}));
  EXPECT_EQ(some->Value<int32_t>(0), 40);
  EXPECT_EQ(some->Value<int32_t>(1), 20);
  // Out-of-range rows are a miss.
  EXPECT_FALSE(cache.Lookup("t", 0, {4}).ok());
}

TEST(ShredCacheTest, ShredSubsumption) {
  ShredCache cache;
  std::vector<int64_t> rows = {2, 5, 9};
  ASSERT_OK(cache.Insert("t", 1, rows.data(), IntColumn({200, 500, 900})));
  EXPECT_TRUE(cache.Covers("t", 1, {5}));
  EXPECT_TRUE(cache.Covers("t", 1, {2, 9}));
  EXPECT_FALSE(cache.Covers("t", 1, {2, 3}));
  ASSERT_OK_AND_ASSIGN(ColumnPtr vals, cache.Lookup("t", 1, {9, 2}));
  EXPECT_EQ(vals->Value<int32_t>(0), 900);
  EXPECT_EQ(vals->Value<int32_t>(1), 200);
  EXPECT_FALSE(cache.Lookup("t", 1, {3}).ok());
  EXPECT_FALSE(cache.LookupFull("t", 1).ok());  // shred, not full
}

TEST(ShredCacheTest, BiggerEntryReplacesSmaller) {
  ShredCache cache;
  std::vector<int64_t> small_rows = {1, 2};
  ASSERT_OK(cache.Insert("t", 0, small_rows.data(), IntColumn({1, 2})));
  std::vector<int64_t> big_rows = {0, 1, 2, 3};
  ASSERT_OK(cache.Insert("t", 0, big_rows.data(), IntColumn({0, 1, 2, 3})));
  EXPECT_TRUE(cache.Covers("t", 0, {0, 3}));
  // Smaller (or equal) inserts keep the existing entry.
  std::vector<int64_t> tiny = {7};
  ASSERT_OK(cache.Insert("t", 0, tiny.data(), IntColumn({70})));
  EXPECT_TRUE(cache.Covers("t", 0, {0, 3}));
  EXPECT_FALSE(cache.Covers("t", 0, {7}));
}

TEST(ShredCacheTest, FullColumnNeverDowngraded) {
  ShredCache cache;
  ASSERT_OK(cache.Insert("t", 0, nullptr, IntColumn({1, 2, 3})));
  std::vector<int64_t> rows = {0, 1, 2, 3, 4};
  ASSERT_OK(cache.Insert("t", 0, rows.data(), IntColumn({9, 9, 9, 9, 9})));
  ASSERT_OK_AND_ASSIGN(ColumnPtr full, cache.LookupFull("t", 0));
  EXPECT_EQ(full->Value<int32_t>(0), 1);  // original kept
}

TEST(ShredCacheTest, EntriesAnswerOnlyTheirOwnTableVersion) {
  ShredCache cache;
  ASSERT_OK(cache.Insert("t", 0, nullptr, IntColumn({1, 2, 3}), /*version=*/1));
  EXPECT_FALSE(cache.LookupFull("t", 0, /*version=*/0).ok());
  EXPECT_FALSE(cache.LookupFull("t", 0, /*version=*/2).ok());
  EXPECT_FALSE(cache.Covers("t", 0, {0}, /*version=*/2));
  EXPECT_FALSE(cache.Lookup("t", 0, {0}, /*version=*/2).ok());
  EXPECT_TRUE(cache.LookupFull("t", 0, /*version=*/1).ok());

  // A straggler's values of older bytes never replace newer ones...
  ASSERT_OK(cache.Insert("t", 0, nullptr, IntColumn({7, 7, 7, 7}),
                         /*version=*/0));
  ASSERT_OK_AND_ASSIGN(ColumnPtr kept, cache.LookupFull("t", 0, 1));
  EXPECT_EQ(3, kept->length());
  // ...while values of newer bytes replace older ones, even a smaller shred
  // over a full column.
  std::vector<int64_t> rows = {4};
  ASSERT_OK(cache.Insert("t", 0, rows.data(), IntColumn({40}), /*version=*/2));
  EXPECT_FALSE(cache.LookupFull("t", 0, 1).ok());
  ASSERT_OK_AND_ASSIGN(ColumnPtr fresh, cache.Lookup("t", 0, {4}, 2));
  EXPECT_EQ(40, fresh->Value<int32_t>(0));
  EXPECT_EQ(1, cache.num_entries());
}

TEST(ShredCacheTest, RejectsUnsortedRowIds) {
  ShredCache cache;
  std::vector<int64_t> rows = {5, 3};
  EXPECT_FALSE(cache.Insert("t", 0, rows.data(), IntColumn({1, 2})).ok());
  std::vector<int64_t> dup = {3, 3};
  EXPECT_FALSE(cache.Insert("t", 0, dup.data(), IntColumn({1, 2})).ok());
}

TEST(ShredCacheTest, LruEvictionUnderPressure) {
  // One shard pins the classic single-LRU semantics (the sharded default
  // spreads keys across independent LRU lists).
  ShredCache cache(/*capacity_bytes=*/1000, /*num_shards=*/1);
  // Each full column of 100 int32 = 400 bytes.
  ASSERT_OK(cache.Insert("t", 0, nullptr,
                         IntColumn(std::vector<int32_t>(100, 1))));
  ASSERT_OK(cache.Insert("t", 1, nullptr,
                         IntColumn(std::vector<int32_t>(100, 2))));
  // Touch column 0 so column 1 is LRU.
  EXPECT_TRUE(cache.LookupFull("t", 0).ok());
  ASSERT_OK(cache.Insert("t", 2, nullptr,
                         IntColumn(std::vector<int32_t>(100, 3))));
  EXPECT_GE(cache.evictions(), 1);
  EXPECT_FALSE(cache.LookupFull("t", 1).ok());  // evicted
  EXPECT_TRUE(cache.LookupFull("t", 0).ok());
  EXPECT_TRUE(cache.LookupFull("t", 2).ok());
}

TEST(ShredCacheTest, PerTableNamespacing) {
  ShredCache cache;
  ASSERT_OK(cache.Insert("a", 0, nullptr, IntColumn({1})));
  ASSERT_OK(cache.Insert("b", 0, nullptr, IntColumn({2})));
  ASSERT_OK_AND_ASSIGN(ColumnPtr a, cache.LookupFull("a", 0));
  ASSERT_OK_AND_ASSIGN(ColumnPtr b, cache.LookupFull("b", 0));
  EXPECT_EQ(a->Value<int32_t>(0), 1);
  EXPECT_EQ(b->Value<int32_t>(0), 2);
  EXPECT_EQ(cache.num_entries(), 2);
}

TEST(ShredCacheTest, ClearResets) {
  ShredCache cache;
  ASSERT_OK(cache.Insert("t", 0, nullptr, IntColumn({1, 2})));
  cache.Clear();
  EXPECT_EQ(cache.num_entries(), 0);
  EXPECT_EQ(cache.bytes_cached(), 0);
  EXPECT_FALSE(cache.LookupFull("t", 0).ok());
}

TEST(ShredCacheTest, StatsCount) {
  ShredCache cache;
  ASSERT_OK(cache.Insert("t", 0, nullptr, IntColumn({1, 2, 3})));
  EXPECT_TRUE(cache.Lookup("t", 0, {1}).ok());
  EXPECT_FALSE(cache.Lookup("t", 9, {1}).ok());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(ShredCacheTest, ContainsFullHasNoSideEffects) {
  ShredCache cache;
  ASSERT_OK(cache.Insert("t", 0, nullptr, IntColumn({1, 2})));
  EXPECT_TRUE(cache.ContainsFull("t", 0));
  EXPECT_FALSE(cache.ContainsFull("t", 1));
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
}

TEST(ShredCacheTest, ShardedCapacityStaysBounded) {
  // Many distinct columns under a small budget: the byte budget is global,
  // each over-budget insert sheds its own shard's LRU tail, so total bytes
  // stay near capacity (every shard may keep one surviving entry — the
  // same oversized-entry guard the single-LRU always had).
  const int64_t capacity = 4000;
  ShredCache cache(capacity);
  const int64_t entry_bytes =
      IntColumn(std::vector<int32_t>(100, 1)).MemoryBytes();
  for (int c = 0; c < 64; ++c) {
    ASSERT_OK(cache.Insert("t", c, nullptr,
                           IntColumn(std::vector<int32_t>(100, c))));
  }
  CacheStats stats = cache.Stats();
  EXPECT_GE(stats.evictions, 1);
  EXPECT_LE(stats.bytes,
            capacity + ShredCache::kDefaultNumShards * entry_bytes);
  // Surviving entries still serve exact lookups.
  int64_t served = 0;
  for (int c = 0; c < 64; ++c) {
    auto hit = cache.LookupFull("t", c);
    if (hit.ok()) {
      ++served;
      EXPECT_EQ((*hit)->Value<int32_t>(0), c);
    }
  }
  EXPECT_EQ(served, stats.entries);
}

TEST(ShredCacheTest, NoEvictionWhileGlobalBudgetHasHeadroom) {
  // Key skew must not evict: even if several entries hash to one shard,
  // nothing is dropped while the cache-wide total is under capacity.
  ShredCache cache(/*capacity_bytes=*/1 << 20);
  for (int c = 0; c < 64; ++c) {
    ASSERT_OK(cache.Insert("t", c, nullptr,
                           IntColumn(std::vector<int32_t>(100, c))));
  }
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.entries, 64);
}

}  // namespace
}  // namespace raw
