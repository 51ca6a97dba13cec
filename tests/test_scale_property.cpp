// Scale-tier property suites (EXPERIMENTS.md E14 acceptance): the DOM
// oracle and snapshot isolation re-checked against the streamed scale
// corpus instead of the small property corpora.
//
// Gated by HXRC_SCALE_TIER ("10k" / "100k" / "1m"): unset, the suite skips
// so the tier-1 ctest run stays fast. The scale-smoke CI job and the local
// 1M acceptance runs set it explicitly:
//
//   HXRC_SCALE_TIER=100k ./tests/test_scale_property
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "baselines/dom_matcher.hpp"
#include "core/catalog.hpp"
#include "storage/clob_pager.hpp"
#include "workload/lead_schema.hpp"
#include "workload/scale.hpp"
#include "xml/canonical.hpp"

namespace hxrc {
namespace {

const workload::ScaleTier* env_tier() {
  const char* name = std::getenv("HXRC_SCALE_TIER");
  if (name == nullptr || name[0] == '\0') return nullptr;
  return &workload::scale_tier(name);
}

core::CatalogConfig auto_define_config() {
  core::CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  return config;
}

std::string temp_page_file(const char* tag) {
  return ::testing::TempDir() + "scale_property_" + tag + ".pages";
}

// The full production configuration at tier scale — compressed postings and
// CLOB paging on — must agree with DOM evaluation over the identical
// regenerated corpus, and round-trip documents byte-identically through the
// spilled CLOB path.
TEST(ScaleProperty, DomOracleAgreesAtTier) {
  const workload::ScaleTier* tier = env_tier();
  if (tier == nullptr) GTEST_SKIP() << "set HXRC_SCALE_TIER to run";

  xml::Schema schema = workload::lead_schema();
  core::MetadataCatalog catalog(schema, workload::lead_annotations(),
                                auto_define_config());
  const std::string page_path = temp_page_file("oracle");
  storage::PagedClobFile pager(page_path);
  catalog.database().clobs().enable_paging(&pager, 4u << 20, 8);

  workload::ingest_scale_corpus(catalog, *tier, [&](std::size_t done) {
    std::fprintf(stderr, "[scale-property] %zu/%zu ingested\n", done,
                 tier->documents);
  });
  catalog.database().clobs().flush();
  ASSERT_GT(catalog.database().clobs().spilled_bytes(), 0u);

  const auto queries = workload::scale_query_mix(*tier, 12);
  std::vector<std::vector<core::ObjectId>> actual;
  for (const auto& q : queries) actual.push_back(catalog.query(q));

  // Oracle sweep: regenerate the corpus (deterministic seed) one document
  // at a time and evaluate every query against the DOM. Round-trip checks
  // sample ~200 documents evenly, covering cold CLOB page-ins.
  const baselines::DomMatcher oracle(catalog.partition());
  workload::DocumentGenerator generator(workload::scale_config(*tier));
  const std::size_t roundtrip_stride = std::max<std::size_t>(tier->documents / 200, 1);
  std::vector<std::vector<core::ObjectId>> expected(queries.size());
  for (std::size_t d = 0; d < tier->documents; ++d) {
    const xml::Document doc = generator.generate(d);
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      if (oracle.matches(doc, queries[qi])) {
        expected[qi].push_back(static_cast<core::ObjectId>(d));
      }
    }
    if (d % roundtrip_stride == 0) {
      ASSERT_EQ(xml::canonical(catalog.fetch(static_cast<core::ObjectId>(d))),
                xml::canonical(doc))
          << "round-trip mismatch for document " << d;
    }
  }
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(actual[qi], expected[qi]) << "query " << qi;
  }
  std::remove(page_path.c_str());
}

// Snapshot isolation at tier scale: a reader pinned before churn must see
// byte-identical answers while writers ingest, delete, and rotate
// snapshots over the fully-loaded catalog.
TEST(ScaleProperty, PinnedSnapshotSurvivesChurnAtTier) {
  const workload::ScaleTier* tier = env_tier();
  if (tier == nullptr) GTEST_SKIP() << "set HXRC_SCALE_TIER to run";

  xml::Schema schema = workload::lead_schema();
  core::MetadataCatalog catalog(schema, workload::lead_annotations(),
                                auto_define_config());
  const std::string page_path = temp_page_file("snapshot");
  storage::PagedClobFile pager(page_path);
  catalog.database().clobs().enable_paging(&pager, 4u << 20, 8);

  workload::ingest_scale_corpus(catalog, *tier, [&](std::size_t done) {
    std::fprintf(stderr, "[scale-property] %zu/%zu ingested\n", done,
                 tier->documents);
  });

  const auto queries = workload::scale_query_mix(*tier, 12);
  constexpr int kChurnDocs = 256;
  constexpr int kChurnRounds = 16;
  workload::DocumentGenerator generator(workload::scale_config(*tier));

  {
    const core::MetadataCatalog::ReadGuard guard(catalog);
    const std::uint64_t pinned_epoch = guard.epoch();
    std::vector<std::vector<core::ObjectId>> pinned_hits;
    std::vector<std::string> pinned_responses;
    for (const auto& q : queries) {
      pinned_hits.push_back(guard.query(q));
      pinned_responses.push_back(guard.build_response(pinned_hits.back()));
    }

    std::vector<std::thread> churn;
    churn.emplace_back([&] {
      for (int i = 0; i < kChurnDocs; ++i) {
        catalog.ingest(generator.generate(tier->documents + static_cast<std::size_t>(i)),
                       "churn-" + std::to_string(i), "scale");
      }
    });
    churn.emplace_back([&] {
      for (int i = 0; i < kChurnRounds; ++i) {
        catalog.delete_object(static_cast<core::ObjectId>(i * 7 % 100));
      }
    });
    churn.emplace_back([&] {
      for (int i = 0; i < kChurnRounds; ++i) catalog.publish();
    });

    for (int round = 0; round < kChurnRounds; ++round) {
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        ASSERT_EQ(guard.query(queries[qi]), pinned_hits[qi])
            << "round " << round << " query " << qi;
        ASSERT_EQ(guard.build_response(pinned_hits[qi]), pinned_responses[qi])
            << "round " << round << " query " << qi;
      }
      ASSERT_EQ(guard.epoch(), pinned_epoch);
    }
    for (std::thread& t : churn) t.join();
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      EXPECT_EQ(guard.query(queries[qi]), pinned_hits[qi]);
    }
    EXPECT_GT(catalog.version(), pinned_epoch);
  }

  EXPECT_EQ(catalog.object_count(), tier->documents + kChurnDocs);
  EXPECT_GT(catalog.deleted_count(), 0u);
  catalog.quiesce_epochs();
  EXPECT_EQ(catalog.mvcc_stats().retired_pending, 0u);
  std::remove(page_path.c_str());
}

}  // namespace
}  // namespace hxrc
