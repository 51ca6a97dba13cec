// Unit tests for the delta/varint-compressed posting lists that back the
// generation-versioned indexes (rel/postings.hpp).
#include "rel/postings.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace hxrc::rel {
namespace {

std::vector<RowId> decode(const PostingList& pl) {
  std::vector<RowId> out;
  pl.append_to(out);
  return out;
}

class PostingsTest : public ::testing::Test {};

TEST_F(PostingsTest, RoundTripSmall) {
  PostingList pl;
  const std::vector<RowId> ids = {0, 1, 5, 6, 1000, 1000000, 1000001};
  for (const RowId id : ids) pl.push_back(id);
  EXPECT_EQ(pl.size(), ids.size());
  EXPECT_EQ(decode(pl), ids);
}

TEST_F(PostingsTest, RoundTripAcrossBlocks) {
  // Enough ids to span several blocks, with mixed small and large gaps.
  std::mt19937_64 rng(42);
  std::vector<RowId> ids;
  RowId id = 0;
  for (int i = 0; i < 5000; ++i) {
    id += 1 + (rng() % (i % 7 == 0 ? 100000 : 3));
    ids.push_back(id);
  }
  PostingList pl;
  for (const RowId v : ids) pl.push_back(v);
  EXPECT_EQ(decode(pl), ids);
}

TEST_F(PostingsTest, CountAndAppendBelowAgreeWithReference) {
  std::mt19937_64 rng(7);
  std::vector<RowId> ids;
  RowId id = 0;
  for (int i = 0; i < 1000; ++i) {
    id += 1 + rng() % 50;
    ids.push_back(id);
  }
  PostingList pl;
  for (const RowId v : ids) pl.push_back(v);

  const std::vector<std::size_t> limits = {0,         1,          ids.front(),
                                           ids[499],  ids[500] + 1, ids.back(),
                                           ids.back() + 1, SIZE_MAX};
  for (const std::size_t limit : limits) {
    std::vector<RowId> expect;
    for (const RowId v : ids) {
      if (v < limit) expect.push_back(v);
    }
    EXPECT_EQ(pl.count_below(limit), expect.size()) << "limit=" << limit;
    std::vector<RowId> got;
    pl.append_below(limit, got);
    EXPECT_EQ(got, expect) << "limit=" << limit;
  }
}

TEST_F(PostingsTest, WatermarkInsideEveryBlockPosition) {
  // Sweep a watermark across a multi-block list one id at a time; catches
  // off-by-ones at block boundaries (first id of a block lives only in the
  // skip table).
  std::vector<RowId> ids;
  for (RowId v = 0; v < 3 * PostingList::kBlockSize + 5; ++v) ids.push_back(v * 2);
  PostingList pl;
  for (const RowId v : ids) pl.push_back(v);
  for (std::size_t limit = 0; limit <= ids.back() + 2; ++limit) {
    const std::size_t expect =
        static_cast<std::size_t>(std::lower_bound(ids.begin(), ids.end(), limit) -
                                 ids.begin());
    ASSERT_EQ(pl.count_below(limit), expect) << "limit=" << limit;
  }
}

TEST_F(PostingsTest, AppendAllConcatenatesDisjointRuns) {
  PostingList older, newer;
  std::vector<RowId> all;
  for (RowId v = 0; v < 300; ++v) {
    older.push_back(v * 3);
    all.push_back(v * 3);
  }
  for (RowId v = 300; v < 650; ++v) {
    newer.push_back(v * 3);
    all.push_back(v * 3);
  }
  older.append_all(newer);
  EXPECT_EQ(older.size(), all.size());
  EXPECT_EQ(decode(older), all);
  // The concatenated list still answers watermark cuts correctly.
  EXPECT_EQ(older.count_below(900), 300u);
  EXPECT_EQ(older.count_below(901), 301u);
}

TEST_F(PostingsTest, AppendAllIntoEmpty) {
  PostingList a, b;
  b.push_back(10);
  b.push_back(20);
  a.append_all(b);
  EXPECT_EQ(decode(a), (std::vector<RowId>{10, 20}));
}

TEST_F(PostingsTest, CompressionShrinksDensePostings) {
  // Dense ids (gap 1): about one byte per id after the first of each block,
  // against 8 for a raw RowId.
  PostingList pl;
  for (RowId v = 0; v < 10000; ++v) pl.push_back(v);
  EXPECT_LT(pl.heap_bytes(), pl.raw_bytes() / 2);
}

TEST_F(PostingsTest, ShortListsCarryNoSkipTableOverhead) {
  // Block 0 has no skip entry (its first id lives in the byte stream), so a
  // singleton posting — the common case in value-keyed indexes — must cost
  // strictly less than its raw 8-byte RowId.
  PostingList pl;
  pl.push_back(9'999'999);
  pl.shrink();
  EXPECT_LT(pl.heap_bytes(), pl.raw_bytes());
}

TEST_F(PostingsTest, TieredMergesMatchDirectBuildByteForByte) {
  // Size-tiered merges fuse the appended list's first block into the tail
  // block, so a list assembled by many small merges — how index
  // generations actually grow — costs the same bytes as one built by
  // straight appends, and round-trips identically.
  constexpr RowId kGap = 770;
  PostingList direct;
  for (RowId v = 0; v < 300; ++v) direct.push_back(v * kGap);
  direct.shrink();

  PostingList merged;
  RowId next = 0;
  while (next < 300) {  // merge in runs of 1..7 ids
    PostingList run;
    const RowId stop = std::min<RowId>(next + 1 + next % 7, 300);
    for (; next < stop; ++next) run.push_back(next * kGap);
    run.shrink();
    merged.append_all(run);
    merged.shrink();
  }
  EXPECT_EQ(decode(merged), decode(direct));
  EXPECT_EQ(merged.heap_bytes(), direct.heap_bytes());
  for (const RowId limit : {0u, 1u, 770u, 771u, 120 * 770u, 299 * 770u + 1}) {
    EXPECT_EQ(merged.count_below(limit), direct.count_below(limit)) << limit;
  }
}

}  // namespace
}  // namespace hxrc::rel
