// MetadataCatalog: the public facade of the hybrid XML-relational catalog.
//
// Wires together the partitioned schema, the definition registry, the
// relational database (shredded tables + ordering tables + CLOB store), the
// shredder, the Fig. 4 query engine, and the §5 response builder.
//
// Typical use:
//
//   xml::Schema schema = workload::lead_schema();
//   MetadataCatalog catalog(schema, workload::lead_annotations());
//   catalog.define_dynamic_attribute("grid", "ARPS", {{"dx", LeafType::kDouble}, ...});
//   ObjectId id = catalog.ingest_xml(document_text, "run-042", "alice");
//   auto ids = catalog.query(query);
//   std::string response = catalog.build_response(ids);
//
// Concurrency: MVCC snapshot reads. Mutations (ingest/add_attribute/define/
// delete/collection writes/restore) serialize on an exclusive commit lock,
// apply their rows to pointer-stable storage, sync the index generations,
// and publish an immutable CatalogSnapshot (epoch, per-table watermarks,
// definition-count watermarks, tombstone set, stats) through one atomic
// pointer. Reads (query/query_paged/fetch/build_response/browse/stats/
// collection reads) pin an epoch in a reclamation slot, load the snapshot,
// and run entirely against that epoch's watermarks — they NEVER take the
// commit lock and never block behind a commit (only short leaf locks: the
// registry's name maps, cache shards, the CLOB block LRU). Superseded
// snapshots and index generations are reclaimed once no reader pins their
// epoch (util::EpochManager). Continuation cursors carry the epoch they
// were issued at and go stale on any mutation. The accessors that hand out
// raw internals (database(), registry(), thesaurus()) are NOT
// snapshot-isolated: registry() lookups are thread-safe but see the newest
// definitions unless given a snapshot's DefinitionCounts; otherwise confine
// their use to single-threaded setup/teardown or hold read_lock() (which
// pauses writers but not other readers).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/engine.hpp"
#include "core/model.hpp"
#include "core/partition.hpp"
#include "core/query.hpp"
#include "core/query_cache.hpp"
#include "core/registry.hpp"
#include "core/response.hpp"
#include "core/shredder.hpp"
#include "rel/database.hpp"
#include "rel/read_view.hpp"
#include "util/epoch.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "xml/dom.hpp"
#include "xml/schema.hpp"

namespace hxrc::core {

struct CatalogConfig {
  ShredOptions shred;
  EngineOptions engine;
  /// Snapshot-keyed query cache (core/query_cache.hpp). Enabled by default;
  /// each published snapshot owns an empty per-generation segment.
  CacheConfig cache;
};

/// A continuation cursor named a catalog version that no longer exists: a
/// mutation (ingest, add_attribute, define, delete, ...) happened between
/// pages. Clients must restart the query; the service layer maps this to
/// `<catalogResponse status="error" code="stale_cursor">`.
class StaleCursorError : public ValidationError {
 public:
  using ValidationError::ValidationError;
};

/// One page of paginated query results (see MetadataCatalog::query_paged).
struct QueryPage {
  /// Matching ids, ascending, at most the query's limit.
  std::vector<ObjectId> ids;
  /// Opaque continuation cursor; empty when this is the last page.
  std::string next_cursor;
  /// Catalog version (epoch) the page was computed at.
  std::uint64_t version = 0;
};

/// Declaration of one element of a dynamic attribute definition.
struct DynamicElementSpec {
  std::string name;
  xml::LeafType type = xml::LeafType::kString;
  /// Defaults to the attribute's source when empty.
  std::string source;
};

/// One catalog mutation, as seen by the durability layer. Emitted by every
/// state-changing method while the exclusive commit lock is still held,
/// after the in-memory mutation succeeded and the version epoch was bumped
/// but BEFORE the snapshot is published — so an observer (the WAL appender)
/// sees mutations in exactly the order a recovery replay must reapply them,
/// and a mutation is durable before any reader can observe it. Views/
/// pointers are valid only for the duration of the callback.
struct MutationEvent {
  enum class Kind {
    kIngest,
    kDefine,
    kAddAttribute,
    kDelete,
    kCreateCollection,
    kAddToCollection,
  };
  Kind kind;
  /// Catalog version after the mutation (a parallel-ingest batch shares one).
  std::uint64_t epoch = 0;
  ObjectId object = -1;          ///< ingest / addAttribute / delete / addToCollection
  AttrDefId attr = kNoAttr;      ///< define: the assigned definition id
  AttrDefId parent = kNoAttr;    ///< define: parent definition (kNoAttr = top-level)
  CollectionId collection = kNoCollection;
  CollectionId parent_collection = kNoCollection;
  Visibility visibility = Visibility::kAdmin;
  std::string_view name;         ///< ingest doc name / define name / collection name
  std::string_view source;       ///< define source
  std::string_view owner;
  std::string_view path;         ///< addAttribute schema path
  const xml::Node* content = nullptr;  ///< ingest root / addAttribute subtree
  const std::vector<DynamicElementSpec>* elements = nullptr;  ///< define
};

/// Observer invoked under the exclusive commit lock; see MutationEvent. A
/// throwing observer propagates to the mutating caller — the in-memory
/// mutation has already been applied (and is published on the way out), so
/// the durability layer treats that as a poisoned log (the process keeps
/// serving memory but must surface the I/O failure).
using MutationObserver = std::function<void(const MutationEvent&)>;

/// The immutable state one commit published: everything a reader needs to
/// answer any read at that epoch. Rows and definitions are published by
/// count watermarks into the catalog's append-only storage; the tombstone
/// set is reference-counted and shared across snapshots that did not
/// change it. The struct itself is freed by epoch reclamation once no
/// reader pins it.
struct CatalogSnapshot {
  std::uint64_t epoch = 0;
  /// Per-table row-count watermarks: rows at or above them are invisible.
  rel::ReadView view;
  /// Definition-count watermarks into the catalog's one append-only
  /// registry: definitions at or above them are invisible.
  DefinitionCounts definitions;
  /// Frozen tombstone set (re-copied only by commits that delete).
  std::shared_ptr<const std::unordered_set<ObjectId>> deleted;
  ShredStats stats;
  ObjectId next_object = 0;
  std::size_t clob_count = 0;
  /// This generation's query-cache segment (nullptr when caching is off).
  /// Readers reach it only through their pinned snapshot, so an entry can
  /// never be observed by a reader of a different generation; the segment
  /// is reclaimed with the snapshot once no reader pins the epoch.
  std::unique_ptr<QueryCacheSegment> cache;
};

enum class ObjectState { kUnknown, kLive, kDeleted };

class MetadataCatalog {
 public:
  /// The schema is partitioned with the given annotations (see
  /// Partition::build); pass Partition::infer(schema) to auto-annotate.
  /// The schema must outlive the catalog.
  MetadataCatalog(const xml::Schema& schema, PartitionAnnotations annotations,
                  CatalogConfig config = {});
  ~MetadataCatalog();

  // ---- ingest ----

  /// Ingests a parsed document; returns the new object id.
  ObjectId ingest(const xml::Document& doc, const std::string& name,
                  const std::string& owner);

  /// Parses and ingests serialized XML.
  ObjectId ingest_xml(std::string_view xml_text, const std::string& name,
                      const std::string& owner);

  /// Adds one attribute instance to an existing object (§5: "as metadata
  /// attributes were inserted later"). `attribute_path` is the schema path
  /// of the attribute root (e.g. "data/idinfo/keywords/theme"); `content`
  /// is the attribute subtree (its root tag must match). The instance
  /// sequences after the object's existing siblings in rebuilt responses.
  void add_attribute(ObjectId object, std::string_view attribute_path,
                     const xml::Node& content, const std::string& owner = {});
  void add_attribute_xml(ObjectId object, std::string_view attribute_path,
                         std::string_view content_xml, const std::string& owner = {});

  /// Shreds documents in parallel into per-thread staging databases, then
  /// merges. Returns the assigned ids (in input order). Index maintenance
  /// happens once, after the merge.
  std::vector<ObjectId> ingest_parallel(util::ThreadPool& pool,
                                        const std::vector<xml::Document>& docs,
                                        const std::string& owner);

  // ---- definitions ----

  /// Registers a dynamic attribute (admin level by default) with its
  /// elements. Returns the attribute definition id.
  AttrDefId define_dynamic_attribute(const std::string& name, const std::string& source,
                                     const std::vector<DynamicElementSpec>& elements = {},
                                     Visibility visibility = Visibility::kAdmin,
                                     const std::string& owner = {});

  /// Registers a dynamic sub-attribute under an existing definition.
  AttrDefId define_dynamic_sub_attribute(AttrDefId parent, const std::string& name,
                                         const std::string& source,
                                         const std::vector<DynamicElementSpec>& elements = {},
                                         Visibility visibility = Visibility::kAdmin,
                                         const std::string& owner = {});

  // ---- collections (containment context, §1/§7) ----

  /// Creates a (possibly nested) collection owned by `owner`.
  CollectionId create_collection(const std::string& name, const std::string& owner,
                                 CollectionId parent = kNoCollection);

  /// Adds an object to a collection (idempotent).
  void add_to_collection(CollectionId collection, ObjectId object);

  /// Member objects; with `recursive`, members of nested collections too.
  std::vector<ObjectId> collection_members(CollectionId collection,
                                           bool recursive = true) const;

  /// Direct child collections.
  std::vector<CollectionId> child_collections(CollectionId collection) const;

  /// Runs a metadata query scoped to a collection's (recursive) members —
  /// the containment-context query of §7.
  std::vector<ObjectId> query_in_collection(CollectionId collection, const ObjectQuery& q,
                                            bool recursive = true) const;

  // ---- query & response ----

  std::vector<ObjectId> query(const ObjectQuery& q, QueryPlanInfo* info = nullptr) const;

  /// Paginated query: honors the query's `limit` and continuation `cursor`.
  /// Cursors are opaque, carry the catalog version they were issued at, and
  /// are validated here: a cursor issued before any later mutation throws
  /// StaleCursorError; a syntactically bad cursor throws ValidationError.
  /// Each page is recomputed from the engine (ids are ascending, so the
  /// cursor is a resume-after id — O(log n) to apply).
  QueryPage query_paged(const ObjectQuery& q, QueryPlanInfo* info = nullptr) const;

  /// Full tagged-XML response for a set of object ids (§5).
  std::string build_response(std::span<const ObjectId> ids) const;

  /// Projected response: only the attributes at the given schema paths
  /// (e.g. {"data/idinfo/keywords/theme"}) are returned for each object.
  std::string build_response(std::span<const ObjectId> ids,
                             const std::vector<std::string>& attribute_paths) const;

  /// One object's reconstructed document, parsed back to a DOM.
  /// Throws ValidationError for deleted objects.
  xml::Document fetch(ObjectId id) const;

  // ---- deletion ----

  /// Tombstones an object: it stops matching queries and can no longer be
  /// fetched. Storage is reclaimed lazily (the tables are append-only).
  void delete_object(ObjectId id);

  bool is_deleted(ObjectId id) const {
    ReadGuard guard(*this);
    return guard->deleted->count(id) != 0;
  }
  std::size_t deleted_count() const {
    ReadGuard guard(*this);
    return guard->deleted->size();
  }

  /// Snapshot-consistent liveness: unknown / live / deleted as of one
  /// published epoch (the service fetch/delete handlers use this so the
  /// existence check and the tombstone check cannot straddle a commit).
  ObjectState object_state(ObjectId id) const {
    ReadGuard guard(*this);
    if (id < 0 || id >= guard->next_object) return ObjectState::kUnknown;
    return guard->deleted->count(id) != 0 ? ObjectState::kDeleted : ObjectState::kLive;
  }

  // ---- persistence ----

  /// Serializes the whole catalog state: object counter, dynamic
  /// definitions, thesaurus, same-sibling counters, and the database
  /// (shredded tables, ordering tables, collections, CLOBs).
  void save(std::ostream& out) const;

  /// Like save(), but writes the format-2 stream: it carries the version
  /// epoch and serializes the tables/CLOBs in the stable binary form
  /// (rel::save_database_binary) — the snapshot format of the durability
  /// subsystem. Interned columns serialize by content, so a stream is
  /// independent of interner pointer identity.
  void save_binary(std::ostream& out) const;

  /// save_binary without taking the write-pause lock — for the durability
  /// layer's checkpoint, which already holds read_lock() so that no
  /// mutation can slip between the snapshot and the WAL rotation.
  void save_binary_unlocked(std::ostream& out) const;

  /// Restores state saved by save() or save_binary() (both format versions
  /// are detected). The catalog must have been constructed with the same
  /// schema and annotations (the structural definitions and ordering tables
  /// are rebuilt by the constructor and verified here). Existing ingested
  /// data is discarded. Format 2 restores the version epoch it recorded;
  /// format 1 bumps the current epoch. Requires quiescence (no concurrent
  /// readers): row storage and index generations are freed in place, and
  /// the rebuilt catalog republishes a clean snapshot at the restored epoch.
  void restore(std::istream& in);

  /// Overwrites the version epoch and republishes the snapshot at it.
  /// Recovery only: replay re-applies logged mutations (each bumping the
  /// epoch) and then pins the epoch to the value the original process had
  /// recorded, plus a final bump so every pre-crash cursor is stale. Not
  /// for general use — epochs must stay monotonic for cursor validation to
  /// be sound.
  void restore_version(std::uint64_t epoch);

  // ---- durability hooks ----

  /// Installs (or clears, with nullptr) the mutation observer. Install
  /// during single-threaded open/recovery, before concurrent traffic: the
  /// pointer swap itself is not synchronized against in-flight mutations.
  void set_mutation_observer(MutationObserver observer) {
    observer_ = std::move(observer);
  }

  /// Durability counters rendered by the service `stats` request; owned by
  /// the durability layer, which must outlive the catalog's use of them.
  void set_durability_metrics(const util::DurabilityMetrics* metrics) noexcept {
    durability_metrics_ = metrics;
  }
  const util::DurabilityMetrics* durability_metrics() const noexcept {
    return durability_metrics_;
  }

  /// Network-backpressure counters rendered by the service `stats` request;
  /// owned by the server (net::ServerStats), which must outlive the
  /// catalog's use of them. Wire during single-threaded startup.
  void set_server_pauses(const util::ServerPauses* pauses) noexcept {
    server_pauses_ = pauses;
  }
  const util::ServerPauses* server_pauses() const noexcept { return server_pauses_; }

  /// Replication watermarks rendered by the service `stats` request; owned
  /// by the replication apply loop (fed::ReplicationListener), which must
  /// outlive the catalog's use of them. Wire during single-threaded startup.
  void set_replication_state(const util::ReplicationState* state) noexcept {
    replication_state_ = state;
  }
  const util::ReplicationState* replication_state() const noexcept {
    return replication_state_;
  }

  // ---- concurrency ----

  /// Current catalog version (epoch). Bumped by every mutation; readable
  /// without a lock. Continuation cursors embed the version they were
  /// issued at and are rejected once it moves.
  std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// Write-pause lock: holds writers out (they take mutex_ exclusively)
  /// while readers keep running lock-free. For external code that must walk
  /// raw internals (database()/registry(), the durability checkpoint)
  /// coherently. The catalog's own read methods are snapshot-isolated and
  /// never touch this lock — holding it around them is safe but pointless.
  std::shared_lock<std::shared_mutex> read_lock() const {
    return std::shared_lock(mutex_);
  }

  /// An RAII pinned snapshot: pins the current epoch in a reclamation slot
  /// and loads the published CatalogSnapshot. Every read through the guard
  /// sees exactly the pinned epoch's state, concurrent commits and
  /// reclamation notwithstanding. Cheap (two atomic ops to pin, one to
  /// unpin); hold only for the duration of a read.
  class ReadGuard {
   public:
    explicit ReadGuard(const MetadataCatalog& catalog)
        : catalog_(&catalog),
          pin_(catalog.epochs_),
          snap_(catalog.snapshot_.load(std::memory_order_acquire)) {}

    const CatalogSnapshot& snapshot() const noexcept { return *snap_; }
    const CatalogSnapshot* operator->() const noexcept { return snap_; }
    std::uint64_t epoch() const noexcept { return snap_->epoch; }

    /// Query against the pinned snapshot (tombstones of that epoch applied).
    std::vector<ObjectId> query(const ObjectQuery& q,
                                QueryPlanInfo* info = nullptr) const {
      return catalog_->query_at(*snap_, q, info);
    }
    /// Paginated query against the pinned snapshot: cursor validation, id
    /// slicing, and the L1 memo all run at one epoch, so the service layer
    /// can compute a page AND serialize it from the same snapshot.
    QueryPage query_paged(const ObjectQuery& q) const {
      return catalog_->query_paged_at(*snap_, q, nullptr);
    }
    /// Tagged-XML response from the pinned snapshot.
    std::string build_response(std::span<const ObjectId> ids) const {
      return catalog_->build_response_at(*snap_, ids, nullptr);
    }

   private:
    const MetadataCatalog* catalog_;
    util::EpochPin pin_;
    const CatalogSnapshot* snap_;
  };

  /// Pins and returns a read guard (convenience for expression use).
  ReadGuard read_guard() const { return ReadGuard(*this); }

  /// MVCC observability for the service `stats` surface.
  util::MvccStats mvcc_stats() const noexcept {
    util::MvccStats stats;
    stats.epoch = version();
    stats.pinned_readers = epochs_.pinned_readers();
    stats.retired_pending = epochs_.retired_pending();
    stats.reclamations = epochs_.reclaimed_total();
    stats.snapshots_published = snapshots_published_.load(std::memory_order_relaxed);
    return stats;
  }

  /// Blocks until every retired snapshot/generation has been reclaimed —
  /// i.e. until all readers that pinned an old epoch have unpinned. The
  /// dispatcher calls this from drain() after its workers go idle so a
  /// shutdown cannot leak retired generations.
  void quiesce_epochs() const { epochs_.quiesce(); }

  /// Republishes the current state as a fresh snapshot (same epoch). For
  /// single-threaded setup that mutated internals directly — registry()
  /// imports, thesaurus edits — and wants snapshot readers to see them
  /// without a committing mutation.
  void publish() {
    std::unique_lock lock(mutex_);
    publish_locked();
  }

  // ---- introspection ----

  const Partition& partition() const noexcept { return partition_; }
  /// The catalog's one append-only definition registry. Readers filter it
  /// by their snapshot's DefinitionCounts.
  const DefinitionRegistry& registry() const noexcept { return registry_; }
  /// Mutable registry access for bulk definition import (e.g. replicating
  /// definitions between catalogs before parallel ingest). Single-threaded
  /// setup only; the next commit (or publish()) advances the snapshot's
  /// definition counts over the imported definitions.
  DefinitionRegistry& registry() noexcept { return registry_; }

  /// The catalog's ontology (§3): synonyms added here are consulted when a
  /// query criterion does not match a definition directly. Setup-time
  /// mutation only (snapshots share the live thesaurus).
  Thesaurus& thesaurus() noexcept { return thesaurus_; }
  const Thesaurus& thesaurus() const noexcept { return thesaurus_; }
  const rel::Database& database() const noexcept { return db_; }
  rel::Database& database() noexcept { return db_; }
  /// Unlocked reference — single-threaded use only; concurrent callers
  /// want stats_snapshot().
  const ShredStats& total_stats() const noexcept { return stats_; }
  /// Copy of the aggregate shred stats from the published snapshot.
  ShredStats stats_snapshot() const {
    ReadGuard guard(*this);
    return guard->stats;
  }
  std::size_t object_count() const noexcept {
    return static_cast<std::size_t>(next_object_.load(std::memory_order_acquire));
  }

  /// Cumulative ingest-path observability (docs/s, rows/s, arena bytes).
  /// Lock-free to read; see util::IngestMetrics.
  const util::IngestMetrics& ingest_metrics() const noexcept { return ingest_metrics_; }

  /// Query-cache observability: counters aggregated across every snapshot
  /// generation's segment (hits/misses/inserts/evictions plus resident
  /// bytes/entries gauges). Lock-free to read; see util::CacheMetrics.
  const util::CacheMetrics& cache_metrics() const noexcept { return cache_metrics_; }
  /// Mutable form for the dispatcher's bypass / inline-served accounting.
  util::CacheMetrics& cache_metrics() noexcept { return cache_metrics_; }
  bool cache_enabled() const noexcept { return config_.cache.enabled; }

 private:
  friend class ReadGuard;

  std::vector<CollectionId> child_collections_at(const CatalogSnapshot& snap,
                                                 CollectionId collection) const;
  std::vector<ObjectId> collection_members_at(const CatalogSnapshot& snap,
                                              CollectionId collection,
                                              bool recursive) const;
  std::string build_response_at(const CatalogSnapshot& snap, std::span<const ObjectId> ids,
                                const std::vector<OrderId>* orders) const;
  /// Engine run + tombstone filter against one snapshot, ids ascending.
  /// Plain runs (info == nullptr) go through the snapshot's L1 memo.
  std::vector<ObjectId> query_at(const CatalogSnapshot& snap, const ObjectQuery& q,
                                 QueryPlanInfo* info) const;
  /// query_paged against one snapshot (see query_paged).
  QueryPage query_paged_at(const CatalogSnapshot& snap, const ObjectQuery& q,
                           QueryPlanInfo* info) const;
  void save_impl(std::ostream& out, bool binary) const;
  void bump_version() noexcept {
    version_.fetch_add(1, std::memory_order_acq_rel);
  }
  /// Hands a mutation to the observer (if any); caller holds mutex_.
  void notify(const MutationEvent& event) const {
    if (observer_) observer_(event);
  }
  /// Builds and atomically publishes a fresh CatalogSnapshot of the current
  /// state, retires the superseded one, and advances the reclamation epoch.
  /// Caller holds mutex_ exclusively (or is single-threaded: ctor/restore).
  void publish_locked();
  /// notify + publish: publishes even when the observer throws, so memory
  /// keeps serving the applied mutation while the I/O failure propagates.
  void commit_locked(const MutationEvent& event) {
    try {
      notify(event);
    } catch (...) {
      publish_locked();
      throw;
    }
    publish_locked();
  }

  const xml::Schema& schema_;
  CatalogConfig config_;
  Partition partition_;
  DefinitionRegistry registry_;
  Thesaurus thesaurus_;
  /// Declared before epochs_ so it outlives every retired snapshot: a
  /// reclaimed generation's cache segment drains its resident-byte gauges
  /// into these counters from its destructor.
  util::CacheMetrics cache_metrics_;
  /// Declared before db_ so it is destroyed after it: retired index
  /// generations are freed by ~EpochManager with their deleters intact.
  mutable util::EpochManager epochs_;
  rel::Database db_;
  std::unique_ptr<Shredder> shredder_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<ResponseBuilder> responder_;
  std::atomic<ObjectId> next_object_{0};
  ShredStats stats_;
  util::IngestMetrics ingest_metrics_;
  std::unordered_set<ObjectId> deleted_;
  /// Exclusive for mutations (the commit lock); shared acquisition is the
  /// write-pause read_lock(). Serializes the writers of db_, registry_
  /// (whose name maps also have their own leaf lock for readers),
  /// thesaurus_, stats_, deleted_, the shredder counters, and snapshot
  /// publication. MVCC readers never touch it.
  mutable std::shared_mutex mutex_;
  std::atomic<std::uint64_t> version_{0};
  /// The published snapshot; never null after construction.
  std::atomic<const CatalogSnapshot*> snapshot_{nullptr};
  /// Commit-lock-guarded cache so an unchanged tombstone set is shared
  /// across snapshots instead of re-copied per commit.
  std::shared_ptr<const std::unordered_set<ObjectId>> published_deleted_;
  std::atomic<std::uint64_t> snapshots_published_{0};
  MutationObserver observer_;
  const util::DurabilityMetrics* durability_metrics_ = nullptr;
  const util::ServerPauses* server_pauses_ = nullptr;
  const util::ReplicationState* replication_state_ = nullptr;
};

}  // namespace hxrc::core
