// Off-heap CLOB paging: seal/spill lifecycle, entry-aligned blocks, the
// byte-budgeted block LRU, page-file framing and its CRC through the store,
// concurrent readers beside a sealing writer, and end-to-end document
// reconstruction through the pager.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.hpp"
#include "rel/clob_store.hpp"
#include "storage/clob_pager.hpp"
#include "util/prng.hpp"
#include "workload/generator.hpp"
#include "workload/lead_schema.hpp"
#include "xml/canonical.hpp"

namespace hxrc {
namespace {

std::string temp_page_file(const char* tag) {
  return std::string(::testing::TempDir()) + "clob_pages_" + tag + ".bin";
}

std::string payload(std::size_t i) {
  std::string s = "clob-" + std::to_string(i) + "-";
  s.append(40 + (i % 17), static_cast<char>('a' + (i % 26)));
  return s;
}

/// A payload of exactly `size` bytes, distinct per id.
std::string sized_payload(std::size_t i, std::size_t size) {
  std::string s = "clob-" + std::to_string(i) + "-";
  s.resize(size, static_cast<char>('a' + (i % 26)));
  return s;
}

/// Forwards to a real pager and counts what the store asks of it.
class CountingPager final : public rel::ClobPager {
 public:
  explicit CountingPager(rel::ClobPager& inner) : inner_(inner) {}

  std::uint32_t write_segment(std::string_view payload) override {
    largest_write = std::max(largest_write, payload.size());
    return inner_.write_segment(payload);
  }

  std::string read_segment(std::uint32_t segment) override {
    std::string block = inner_.read_segment(segment);
    reads.fetch_add(1, std::memory_order_relaxed);
    bytes_read.fetch_add(block.size(), std::memory_order_relaxed);
    return block;
  }

  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> bytes_read{0};
  std::size_t largest_write = 0;  // writer-only

 private:
  rel::ClobPager& inner_;
};

TEST(ClobPaging, RoundTripThroughPageFile) {
  storage::PagedClobFile pager(temp_page_file("roundtrip"));
  rel::ClobStore store;
  store.enable_paging(&pager, /*segment_bytes=*/512, /*cache_segments=*/2);

  std::vector<std::string> originals;
  for (std::size_t i = 0; i < 200; ++i) {
    originals.push_back(payload(i));
    EXPECT_EQ(store.append(originals.back()), static_cast<rel::ClobId>(i));
  }
  store.flush();

  EXPECT_EQ(store.sealed_count(), 200u);
  EXPECT_EQ(store.resident_bytes(), 0u);
  EXPECT_GT(store.spilled_bytes(), 0u);
  EXPECT_EQ(store.payload_bytes(), store.spilled_bytes());
  EXPECT_GT(pager.segment_count(), 10u);  // 512-byte segments force many

  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(store.get(static_cast<rel::ClobId>(i)), originals[i]) << i;
  }
}

TEST(ClobPaging, TailBelowThresholdStaysResident) {
  storage::PagedClobFile pager(temp_page_file("tail"));
  rel::ClobStore store;
  store.enable_paging(&pager, /*segment_bytes=*/1u << 20);

  const std::string text = payload(7);
  store.append(text);
  EXPECT_EQ(store.sealed_count(), 0u);
  EXPECT_EQ(store.resident_bytes(), text.size());
  EXPECT_EQ(store.get(0), text);
  EXPECT_EQ(pager.segment_count(), 0u);
}

TEST(ClobPaging, LruCachesWholeBlocks) {
  storage::PagedClobFile file(temp_page_file("lru"));
  CountingPager pager(file);
  rel::ClobStore store;
  store.enable_paging(&pager, /*segment_bytes=*/1u << 20, /*cache_segments=*/1);
  // Documents of four 2 KiB CLOBs: four documents fill a block exactly, so
  // every document's CLOBs share one block.
  constexpr std::size_t kPerDoc = 4;
  constexpr std::size_t kClobBytes = 2048;
  constexpr std::size_t kDocs = 40;
  for (std::size_t i = 0; i < kDocs * kPerDoc; ++i) {
    store.append(sized_payload(i, kClobBytes));
  }
  store.flush();
  ASSERT_EQ(file.segment_count(),
            kDocs * kPerDoc * kClobBytes / rel::ClobStore::kBlockBytes);

  const auto read_doc = [&](std::size_t doc) {
    for (std::size_t k = 0; k < kPerDoc; ++k) {
      const std::size_t id = doc * kPerDoc + k;
      EXPECT_EQ(store.get(static_cast<rel::ClobId>(id)), sized_payload(id, kClobBytes));
    }
  };
  read_doc(5);  // one pager read of one block, then hits
  EXPECT_EQ(pager.reads.load(), 1u);
  EXPECT_EQ(pager.bytes_read.load(), rel::ClobStore::kBlockBytes);
  EXPECT_EQ(store.cache_misses(), 1u);
  EXPECT_EQ(store.cache_hits(), kPerDoc - 1);
  read_doc(5);
  read_doc(6);  // shares doc 5's block
  EXPECT_EQ(pager.reads.load(), 1u);
  EXPECT_EQ(store.cache_hits(), 3 * kPerDoc - 1);
  EXPECT_EQ(store.cache_bytes(), rel::ClobStore::kBlockBytes);
}

TEST(ClobPaging, CacheNeverExceedsItsByteBudget) {
  storage::PagedClobFile file(temp_page_file("budget"));
  CountingPager pager(file);
  rel::ClobStore store;
  constexpr std::size_t kSegmentBytes = 4096;
  constexpr std::size_t kCacheSegments = 2;
  constexpr std::size_t kBudget = kSegmentBytes * kCacheSegments;
  store.enable_paging(&pager, kSegmentBytes, kCacheSegments);

  std::vector<std::string> originals;
  for (std::size_t i = 0; i < 300; ++i) {
    // Every 50th entry is larger than a block (and than the whole budget).
    const std::size_t size = i % 50 == 25 ? 3 * kSegmentBytes : 100 + (i * 37) % 900;
    originals.push_back(sized_payload(i, size));
    store.append(originals.back());
  }
  store.flush();
  // Blocks end on entry boundaries: only a lone oversized entry exceeds a
  // block.
  EXPECT_EQ(pager.largest_write, 3 * kSegmentBytes);

  util::Prng rng(11);
  for (int round = 0; round < 2000; ++round) {
    const auto id = static_cast<std::size_t>(rng.uniform(0, 299));
    ASSERT_EQ(store.get(static_cast<rel::ClobId>(id)), originals[id]) << id;
    ASSERT_LE(store.cache_bytes(), kBudget) << "after reading " << id;
  }
  EXPECT_GT(store.cache_bytes(), 0u);
  EXPECT_GT(store.cache_hits(), 0u);
}

TEST(ClobPaging, ColdReadAtBenchmarkSettingsReadsOneBlock) {
  storage::PagedClobFile file(temp_page_file("cold"));
  CountingPager pager(file);
  rel::ClobStore store;
  store.enable_paging(&pager, /*segment_bytes=*/4u << 20, /*cache_segments=*/8);

  // ~6 MB of mixed sizes: more than one 4 MB run's worth of payload.
  std::vector<std::string> originals;
  std::size_t total = 0;
  std::size_t largest = 0;
  for (std::size_t i = 0; total < (6u << 20); ++i) {
    const std::size_t size = i % 400 == 7 ? 100'000 : 200 + (i * 131) % 5000;
    originals.push_back(sized_payload(i, size));
    total += size;
    largest = std::max(largest, size);
    store.append(originals.back());
  }
  store.flush();
  ASSERT_EQ(store.resident_bytes(), 0u);

  util::Prng rng(5);
  for (int round = 0; round < 200; ++round) {
    const auto id = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(originals.size()) - 1));
    const std::size_t reads = pager.reads.load();
    const std::size_t bytes = pager.bytes_read.load();
    ASSERT_EQ(store.get(static_cast<rel::ClobId>(id)), originals[id]) << id;
    EXPECT_LE(pager.reads.load() - reads, 1u);
    EXPECT_LE(pager.bytes_read.load() - bytes, rel::ClobStore::kBlockBytes + largest)
        << "cold get of " << id;
  }
  EXPECT_GT(store.cache_misses(), 0u);
}

TEST(ClobPaging, SealedPayloadsRetireThroughReclaimer) {
  storage::PagedClobFile pager(temp_page_file("epoch"));
  util::EpochManager epochs;
  rel::ClobStore store;
  store.set_reclaimer(&epochs);
  store.enable_paging(&pager, /*segment_bytes=*/64);

  for (std::size_t i = 0; i < 8; ++i) store.append(payload(i));
  store.flush();
  EXPECT_GT(epochs.retired_pending(), 0u);  // deferred, not freed in place
  epochs.quiesce();
  EXPECT_EQ(epochs.retired_pending(), 0u);
  EXPECT_EQ(store.get(3), payload(3));  // still readable from the page file
}

TEST(ClobPaging, AbsorbMovesShardClobsIntoPagedStore) {
  storage::PagedClobFile pager(temp_page_file("absorb"));
  rel::ClobStore main;
  main.enable_paging(&pager, /*segment_bytes=*/256);
  main.append("head");

  rel::ClobStore shard;  // ingest shards never page
  shard.append("alpha");
  shard.append(payload(3));

  const rel::ClobId offset = main.absorb(shard);
  EXPECT_EQ(offset, 1);
  EXPECT_EQ(shard.count(), 0u);
  main.flush();
  EXPECT_EQ(main.get(0), "head");
  EXPECT_EQ(main.get(1), "alpha");
  EXPECT_EQ(main.get(2), payload(3));
}

TEST(ClobPaging, CorruptSegmentIsDetected) {
  const std::string path = temp_page_file("corrupt");
  storage::PagedClobFile pager(path);
  const std::string text(300, 'x');
  const std::uint32_t segment = pager.write_segment(text);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);  // inside the payload, past the 12-byte header
    f.put('y');
  }
  EXPECT_THROW(pager.read_segment(segment), storage::ClobPagerError);
}

TEST(ClobPaging, CorruptBlockSurfacesThroughStore) {
  const std::string path = temp_page_file("corrupt_store");
  storage::PagedClobFile pager(path);
  rel::ClobStore store;
  // 1000-byte blocks of five 200-byte entries: frame k starts at k * 1012.
  store.enable_paging(&pager, /*segment_bytes=*/1000, /*cache_segments=*/4);
  constexpr std::size_t kEntries = 40;
  constexpr std::size_t kFrame = 12 + 1000;
  for (std::size_t i = 0; i < kEntries; ++i) store.append(sized_payload(i, 200));
  store.flush();
  ASSERT_EQ(pager.segment_count(), kEntries / 5);
  ASSERT_EQ(pager.file_bytes(), pager.segment_count() * kFrame);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(2 * kFrame + 12 + 450));  // block 2
    f.put('#');
  }
  for (std::size_t i = 0; i < kEntries; ++i) {
    const auto id = static_cast<rel::ClobId>(i);
    if (i / 5 == 2) {
      EXPECT_THROW(store.get(id), storage::ClobPagerError) << i;
    } else {
      EXPECT_EQ(store.get(id), sized_payload(i, 200)) << i;
    }
  }
  // A failed page-in caches nothing: the CRC is checked again next time.
  EXPECT_THROW(store.get(10), storage::ClobPagerError);
}

TEST(ClobPaging, ConcurrentReadersDuringSeal) {
  storage::PagedClobFile pager(temp_page_file("concurrent"));
  util::EpochManager epochs;
  rel::ClobStore store;
  store.set_reclaimer(&epochs);
  // A one-block cache: most spilled reads miss and page in outside the lock.
  store.enable_paging(&pager, /*segment_bytes=*/1024, /*cache_segments=*/1);

  constexpr std::size_t kEntries = 20000;
  const auto expected = [](std::size_t i) { return sized_payload(i, 40 + (i * 53) % 400); };
  std::atomic<std::size_t> published{0};
  std::atomic<bool> done{false};
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> reads{0};

  std::vector<std::thread> readers;
  for (std::uint64_t r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      util::Prng rng(100 + r);
      while (!done.load(std::memory_order_acquire)) {
        const util::EpochPin pin(epochs);
        const std::size_t n = published.load(std::memory_order_acquire);
        if (n == 0) continue;
        // Alternate the newest id (racing its seal) with a random older one.
        const std::size_t id = rng.uniform(0, 1) == 0
                                   ? n - 1
                                   : static_cast<std::size_t>(
                                         rng.uniform(0, static_cast<std::int64_t>(n) - 1));
        if (store.get(static_cast<rel::ClobId>(id)) != expected(id)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t i = 0; i < kEntries; ++i) {
    store.append(expected(i));
    published.store(i + 1, std::memory_order_release);
    if (i % 16 == 15) {
      epochs.advance();
      epochs.reclaim();
    }
  }
  store.flush();
  // Let the readers run over the fully spilled store for a moment too.
  const std::size_t reads_at_flush = reads.load();
  while (reads.load() < reads_at_flush + 2000) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  epochs.quiesce();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(store.resident_bytes(), 0u);
  EXPECT_GT(store.cache_misses(), 0u);
  EXPECT_LE(store.cache_bytes(), 1024u);
  for (std::size_t i = 0; i < kEntries; i += 97) {
    EXPECT_EQ(store.get(static_cast<rel::ClobId>(i)), expected(i)) << i;
  }
}

TEST(ClobPaging, UnknownSegmentIsRejected) {
  storage::PagedClobFile pager(temp_page_file("unknown"));
  EXPECT_THROW(pager.read_segment(0), storage::ClobPagerError);
}

TEST(ClobPaging, CatalogReconstructionReadsThroughPager) {
  workload::DocumentGenerator generator;
  const auto docs = generator.corpus(30);

  xml::Schema schema = workload::lead_schema();
  core::CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  core::MetadataCatalog catalog(schema, workload::lead_annotations(), config);

  storage::PagedClobFile pager(temp_page_file("catalog"));
  catalog.database().clobs().enable_paging(&pager, /*segment_bytes=*/4096,
                                           /*cache_segments=*/4);
  for (std::size_t i = 0; i < docs.size(); ++i) {
    catalog.ingest(docs[i], "doc-" + std::to_string(i), "u");
  }
  catalog.database().clobs().flush();
  EXPECT_GT(catalog.database().clobs().spilled_bytes(), 0u);

  for (std::size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(xml::canonical(docs[i]),
              xml::canonical(catalog.fetch(static_cast<core::ObjectId>(i))))
        << "document " << i;
  }
}

}  // namespace
}  // namespace hxrc
