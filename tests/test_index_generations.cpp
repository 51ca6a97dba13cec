// Characterization tests for the generation-versioned MVCC indexes
// (rel/index.hpp), run over both physical kinds. Rows arrive in irregular
// batches with sync() between most of them, so generations are built and
// size-tier merged; every watermark probe (lookup_into_at, bucket_size_at,
// range_into_at) must then agree with a brute-force scan of the rows below
// the watermark, whether those rows sit in whole generations, in a
// generation the watermark straddles, or in the unsynced tail.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <type_traits>
#include <vector>

#include "rel/table.hpp"
#include "util/epoch.hpp"

namespace hxrc::rel {
namespace {

constexpr std::int64_t kKeys = 64;

/// Skewed deterministic key of row `r`: about three rows in four land on
/// one of four hot keys, the rest spread over kKeys.
std::int64_t key_of(std::size_t r) {
  std::uint64_t h = static_cast<std::uint64_t>(r) + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  const auto k = static_cast<std::int64_t>(h % kKeys);
  return (h >> 32) % 4 != 0 ? k % 4 : k;
}

Key key(std::int64_t k) { return Key{{Value(k)}}; }

Table make_table() { return Table("t", TableSchema{{"k", Type::kInt}}); }

void append_rows(Table& table, std::size_t n) {
  std::vector<Row> rows;
  for (std::size_t i = 0; i < n; ++i) {
    rows.push_back(Row{Value(key_of(table.row_count() + i))});
  }
  table.append_batch(std::move(rows));
}

/// Brute force: ids of rows below `limit` whose key lies in [lo, hi], in
/// key order and ascending within a key.
std::vector<RowId> scan(std::int64_t lo, std::int64_t hi, std::size_t limit) {
  std::map<std::int64_t, std::vector<RowId>> by_key;
  for (std::size_t r = 0; r < limit; ++r) {
    const std::int64_t k = key_of(r);
    if (k >= lo && k <= hi) by_key[k].push_back(r);
  }
  std::vector<RowId> out;
  for (const auto& [k, ids] : by_key) out.insert(out.end(), ids.begin(), ids.end());
  return out;
}

template <typename IndexT>
const IndexT* create(Table& table) {
  if constexpr (std::is_same_v<IndexT, OrderedIndex>) {
    return table.create_ordered_index("by_k", {"k"});
  } else {
    return table.create_hash_index("by_k", {"k"});
  }
}

template <typename IndexT>
class IndexGenerationsTest : public ::testing::Test {};

using IndexKinds = ::testing::Types<HashIndex, OrderedIndex>;
TYPED_TEST_SUITE(IndexGenerationsTest, IndexKinds);

/// Every probe at watermark `limit` against the brute-force scan.
template <typename IndexT>
void expect_probes_match(const IndexT& index, std::size_t limit) {
  const std::size_t visible = std::min(limit, index.entry_count());
  for (std::int64_t k = -1; k <= kKeys; ++k) {  // -1 and kKeys never occur
    const std::vector<RowId> expect = scan(k, k, visible);
    std::vector<RowId> got;
    index.lookup_into_at(key(k), limit, got);
    ASSERT_EQ(got, expect) << "key " << k << " limit " << limit;
    ASSERT_EQ(index.bucket_size_at(key(k), limit), expect.size())
        << "key " << k << " limit " << limit;
  }
  if constexpr (std::is_same_v<IndexT, OrderedIndex>) {
    const std::pair<std::int64_t, std::int64_t> ranges[] = {
        {0, 3}, {2, 40}, {kKeys - 1, kKeys - 1}, {-5, kKeys + 5}, {10, 5}};
    for (const auto& [lo, hi] : ranges) {
      std::vector<RowId> got;
      index.range_into_at(key(lo), key(hi), limit, got);
      ASSERT_EQ(got, scan(lo, hi, visible))
          << "range [" << lo << ", " << hi << "] limit " << limit;
    }
  }
}

TYPED_TEST(IndexGenerationsTest, WatermarkProbesMatchBruteForce) {
  Table table = make_table();
  const TypeParam* index = create<TypeParam>(table);
  // Irregular batch sizes: runs of small batches after big ones force the
  // size-tiered merge to cascade; the batches marked unsynced leave an
  // uncovered tail that the probes must scan.
  const std::size_t batches[] = {1, 2, 7, 3, 50, 1, 1, 200, 13, 5, 400, 1,
                                 33, 64, 64, 128, 9, 700, 2, 17, 90, 3};
  std::vector<std::size_t> boundaries = {0};
  for (std::size_t b = 0; b < std::size(batches); ++b) {
    append_rows(table, batches[b]);
    boundaries.push_back(table.row_count());
    if (b % 5 == 3) {
      // Unsynced: the newest rows are probed through the tail scan.
      expect_probes_match(*index, table.row_count());
      continue;
    }
    index->sync();
    EXPECT_EQ(index->stats().postings, table.row_count());
    expect_probes_match(*index, table.row_count());
  }
  index->sync();
  const std::size_t rows = table.row_count();
  EXPECT_EQ(index->stats().postings, rows);
  EXPECT_EQ(index->entry_count(), rows);

  // Sweep: every 37th watermark, each batch (generation) boundary and its
  // neighbours, and the unbounded limit.
  std::vector<std::size_t> limits;
  for (std::size_t w = 0; w <= rows; w += 37) limits.push_back(w);
  for (const std::size_t b : boundaries) {
    limits.push_back(b);
    limits.push_back(b + 1);
    if (b > 0) limits.push_back(b - 1);
  }
  for (const std::size_t w : limits) expect_probes_match(*index, std::min(w, rows));
  expect_probes_match(*index, Index::kNoLimit);
}

// One writer appends and syncs with a reclaimer attached, advancing the
// epoch after every publish; readers pin an epoch, take the row count as
// their watermark and probe both index kinds at it. Under TSan this also
// checks that publishing and disposing generations is race-free.
TEST(IndexGenerationsConcurrent, PinnedReadersSeeExactlyTheirWatermark) {
  util::EpochManager epochs;
  Table table = make_table();
  table.set_reclaimer(&epochs);
  const HashIndex* hash = create<HashIndex>(table);
  const OrderedIndex* ordered = create<OrderedIndex>(table);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> probes{0};
  auto reader = [&](int seed) {
    std::int64_t k = seed;
    std::size_t checked = 0;
    while (!done.load(std::memory_order_acquire) || checked == 0) {
      const std::size_t slot = epochs.pin();
      const std::size_t limit = table.row_count();
      k = (k + 5) % kKeys;
      const std::vector<RowId> expect = scan(k, k, limit);
      std::vector<RowId> from_hash;
      std::vector<RowId> from_ordered;
      std::vector<RowId> range;
      hash->lookup_into_at(key(k), limit, from_hash);
      ordered->lookup_into_at(key(k), limit, from_ordered);
      ordered->range_into_at(key(k), key(k + 2), limit, range);
      const std::size_t hash_count = hash->bucket_size_at(key(k), limit);
      const std::size_t ordered_count = ordered->bucket_size_at(key(k), limit);
      epochs.unpin(slot);
      ASSERT_EQ(from_hash, expect) << "key " << k << " limit " << limit;
      ASSERT_EQ(from_ordered, expect) << "key " << k << " limit " << limit;
      ASSERT_EQ(hash_count, expect.size());
      ASSERT_EQ(ordered_count, expect.size());
      ASSERT_EQ(range, scan(k, k + 2, limit)) << "key " << k << " limit " << limit;
      ++checked;
    }
    probes.fetch_add(checked);
  };

  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader, i);
  for (std::size_t b = 0; b < 300; ++b) {
    append_rows(table, 1 + (b * 37) % 61);
    table.sync_indexes();
    epochs.advance();
    epochs.reclaim();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GE(probes.load(), 3u);
  EXPECT_EQ(hash->stats().postings, table.row_count());
  EXPECT_EQ(ordered->stats().postings, table.row_count());
  epochs.quiesce();
}

}  // namespace
}  // namespace hxrc::rel
