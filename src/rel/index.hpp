// Secondary indexes over table rows, generation-versioned for MVCC reads.
//
// Two physical forms: a hash index for equality probes (the common case in
// the Fig. 4 pipeline: attribute-definition and object-ID lookups) and an
// ordered index supporting range scans (element-value range predicates).
//
// The probe API is append-to-out (`lookup_into`): hot paths reuse one
// scratch vector across thousands of probes instead of allocating a fresh
// std::vector per lookup. `bucket_size` exposes per-key entry counts as a
// cheap cardinality estimate so the query engine can order criteria by
// selectivity before touching any row.
//
// Physical layout: an index is a list of immutable GENERATIONS, each
// covering a contiguous row range [begin, end) and holding grouped postings
// (one entry per distinct key, row ids ascending — catch-up inserts rows in
// increasing id order). The generation list is published through one atomic
// pointer. sync() — called by writers under the catalog's commit lock, or
// by the first probe in single-threaded use — builds a generation over the
// un-indexed row tail and merges size-tiered from the newest end (merge
// while the older neighbour holds at most twice the rows), which bounds the
// list at O(log n) generations for amortised O(log n) work per row.
//
// Both kinds share that machinery (GenerationIndex, written once) and the
// one posting form of rel/postings.hpp. A kind supplies only one
// generation's key -> postings structure: a hash map (HashPostings) or a
// key-sorted entry vector (SortedPostings), each with find, build-from-rows
// and merge-two. GenerationIndex is a template over that structure, so a
// probe's per-generation find is a direct call.
//
// Superseded generation lists (and merged-away generations) are handed to
// an optional util::EpochManager: a concurrent reader that pinned an epoch
// before the merge keeps probing the old list safely until it unpins. With
// no reclaimer attached (staging tables, baselines, SQL examples — all
// single-threaded) superseded structures are deleted immediately.
//
// Probe forms:
//   lookup_into / bucket_size / range_into  — sync first, then probe the
//     whole index. Single-writer contexts; a probe may take sync_mutex_.
//   lookup_into_at / bucket_size_at / range_into_at — MVCC form: never
//     mutates, never locks. Probes the published generations, truncating
//     to rows below a snapshot watermark (postings are ascending, so a
//     straddling generation is cut with one binary search). Rows the
//     generations do not cover yet are matched by a linear tail scan —
//     normally empty, because the commit protocol syncs before publishing.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rel/postings.hpp"
#include "rel/stable_vector.hpp"
#include "rel/value.hpp"
#include "util/epoch.hpp"

namespace hxrc::rel {

using RowId = std::size_t;

/// Physical footprint of an index's published generations (rel/postings.hpp
/// compression surfaces here: postings_bytes vs postings_raw_bytes is the
/// ratio reported in BENCH_scale.json).
struct IndexStats {
  std::size_t keys = 0;                // distinct keys summed over generations
  std::size_t postings = 0;            // total posting entries
  std::size_t postings_bytes = 0;      // physical posting-list heap bytes
  std::size_t postings_raw_bytes = 0;  // sizeof(RowId) per entry equivalent

  IndexStats& operator+=(const IndexStats& o) noexcept {
    keys += o.keys;
    postings += o.postings;
    postings_bytes += o.postings_bytes;
    postings_raw_bytes += o.postings_raw_bytes;
    return *this;
  }
};

class Index {
 public:
  static constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();

  Index(std::string name, std::vector<std::size_t> key_columns)
      : name_(std::move(name)), key_columns_(std::move(key_columns)) {}
  virtual ~Index() = default;

  const std::string& name() const noexcept { return name_; }
  const std::vector<std::size_t>& key_columns() const noexcept { return key_columns_; }

  /// Points the index at its table's row storage. Tables hold their indexes
  /// and live behind unique_ptr, so the reference is stable for the index's
  /// whole lifetime. Called once by Table when the index is installed.
  void attach(const StableVector<Row>& rows) noexcept { rows_ = &rows; }

  /// Defers reclamation of superseded generations to `reclaimer` (nullptr:
  /// delete immediately — single-threaded use).
  void set_reclaimer(util::EpochManager* reclaimer) noexcept { reclaimer_ = reclaimer; }

  Key extract_key(const Row& row) const {
    Key key;
    key.parts.reserve(key_columns_.size());
    for (const std::size_t c : key_columns_) key.parts.push_back(row[c]);
    return key;
  }

  /// Appends every row id under `key` to `out` (does not clear it). Hot
  /// paths pass a reused scratch vector; no allocation happens when the
  /// scratch capacity suffices. Syncs first — single-writer contexts only.
  void lookup_into(const Key& key, std::vector<RowId>& out) const {
    sync();
    lookup_into_at(key, kNoLimit, out);
  }

  /// Number of entries under `key` — a cheap cardinality estimate (no row
  /// access, no predicate evaluation) used to order criteria by estimated
  /// selectivity. Syncs first — single-writer contexts only.
  std::size_t bucket_size(const Key& key) const {
    sync();
    return bucket_size_at(key, kNoLimit);
  }

  /// MVCC probe: row ids under `key` that are < `limit`, appended to `out`
  /// in ascending order. Never mutates the index, never blocks.
  virtual void lookup_into_at(const Key& key, std::size_t limit,
                              std::vector<RowId>& out) const = 0;
  virtual std::size_t bucket_size_at(const Key& key, std::size_t limit) const = 0;

  /// Every row contributes exactly one posting, so the logical entry count
  /// is the attached table's row count — no catch-up needed to answer.
  std::size_t entry_count() const noexcept { return rows_ ? rows_->size() : 0; }

  /// Physical footprint of the published generations (never syncs).
  virtual IndexStats stats() const noexcept = 0;

  /// An empty index of the same physical kind over the same key columns
  /// (used by Table::truncate to rebuild definitions without RTTI probing).
  virtual std::unique_ptr<Index> make_empty() const = 0;

  /// Convenience wrapper; allocates per probe, so hot paths should prefer
  /// lookup_into with a reused scratch vector.
  std::vector<RowId> lookup(const Key& key) const {
    std::vector<RowId> out;
    lookup_into(key, out);
    return out;
  }

  /// Brings the generations up to date with the attached row store.
  /// Lock-free when already synced (one acquire load); the catalog's commit
  /// protocol calls this for every index before publishing a snapshot, so
  /// MVCC probes never find uncovered rows.
  void sync() const {
    if (rows_ == nullptr) return;
    if (synced_rows() >= rows_->size()) return;
    const std::lock_guard<std::mutex> lock(sync_mutex_);
    const_cast<Index*>(this)->rebuild_to(rows_->size());
  }

 protected:
  /// Rows covered by the published generations (acquire load; no lock).
  virtual std::size_t synced_rows() const noexcept = 0;

  /// Builds/merges generations so they cover rows [0, target). Called with
  /// sync_mutex_ held; must re-check the covered prefix under the lock.
  virtual void rebuild_to(std::size_t target) = 0;

  /// Deletes `object` once no pinned reader can still reach it.
  template <typename T>
  void dispose(const T* object) const {
    if (object == nullptr) return;
    if (reclaimer_ != nullptr) {
      reclaimer_->retire(object);
    } else {
      delete object;
    }
  }

  bool row_matches(const Row& row, const Key& key) const {
    if (key.parts.size() != key_columns_.size()) return false;
    for (std::size_t i = 0; i < key_columns_.size(); ++i) {
      if (!(row[key_columns_[i]] == key.parts[i])) return false;
    }
    return true;
  }

  /// Defensive fallback for MVCC probes: linear scan of rows the published
  /// generations do not cover (normally an empty range — the commit
  /// protocol syncs before publishing).
  void scan_tail(const Key& key, std::size_t from, std::size_t limit,
                 std::vector<RowId>& out) const {
    if (rows_ == nullptr) return;
    const std::size_t to = std::min(limit, rows_->size());
    for (std::size_t r = from; r < to; ++r) {
      if (row_matches((*rows_)[r], key)) out.push_back(r);
    }
  }

  std::size_t count_tail(const Key& key, std::size_t from, std::size_t limit) const {
    if (rows_ == nullptr) return 0;
    const std::size_t to = std::min(limit, rows_->size());
    std::size_t n = 0;
    for (std::size_t r = from; r < to; ++r) {
      if (row_matches((*rows_)[r], key)) ++n;
    }
    return n;
  }

  const StableVector<Row>* rows_ = nullptr;
  mutable std::mutex sync_mutex_;

 private:
  std::string name_;
  std::vector<std::size_t> key_columns_;
  util::EpochManager* reclaimer_ = nullptr;
};

/// The generation machinery both physical kinds share: the published
/// generation list, its atomic publish with epoch disposal, the size-tiered
/// merge loop and the watermark probes. `Map` is one generation's key ->
/// PostingList structure and supplies only
///   static Map build(const Index&, const StableVector<Row>&, RowId from, RowId to);
///   static Map merge(const Map& older, const Map& newer);  // older ids first
///   const PostingList* find(const Key&) const;
///   void for_each(F f) const;                               // f(const PostingList&)
/// so every probe calls the map directly (no per-posting virtual call).
template <typename Map>
class GenerationIndex : public Index {
 public:
  using Index::Index;
  ~GenerationIndex() override {
    const GenList* list = published_.load(std::memory_order_relaxed);
    if (list != nullptr) {
      for (const Gen* gen : list->gens) delete gen;
      delete list;
    }
  }

  void lookup_into_at(const Key& key, std::size_t limit,
                      std::vector<RowId>& out) const final {
    const GenList* list = published();
    std::size_t covered = 0;
    if (list != nullptr) {
      covered = list->end;
      for (const Gen* gen : list->gens) {
        if (gen->begin >= limit) break;
        const PostingList* postings = gen->map.find(key);
        if (postings == nullptr) continue;
        if (gen->end <= limit) {
          postings->append_to(out);
        } else {
          postings->append_below(limit, out);
        }
      }
    }
    if (covered < limit) scan_tail(key, covered, limit, out);
  }

  std::size_t bucket_size_at(const Key& key, std::size_t limit) const final {
    const GenList* list = published();
    std::size_t covered = 0;
    std::size_t n = 0;
    if (list != nullptr) {
      covered = list->end;
      for (const Gen* gen : list->gens) {
        if (gen->begin >= limit) break;
        const PostingList* postings = gen->map.find(key);
        if (postings == nullptr) continue;
        n += gen->end <= limit ? postings->size() : postings->count_below(limit);
      }
    }
    if (covered < limit) n += count_tail(key, covered, limit);
    return n;
  }

  IndexStats stats() const noexcept final {
    IndexStats st;
    const GenList* list = published();
    if (list == nullptr) return st;
    for (const Gen* gen : list->gens) {
      gen->map.for_each([&st](const PostingList& postings) {
        ++st.keys;
        st.postings += postings.size();
        st.postings_bytes += postings.heap_bytes();
        st.postings_raw_bytes += postings.raw_bytes();
      });
    }
    return st;
  }

 protected:
  struct Gen {
    std::size_t begin = 0;
    std::size_t end = 0;
    Map map;
    std::size_t row_span() const noexcept { return end - begin; }
  };
  struct GenList {
    std::vector<const Gen*> gens;  // oldest first; row ranges contiguous
    std::size_t end = 0;
  };

  const GenList* published() const noexcept {
    return published_.load(std::memory_order_acquire);
  }

  std::size_t synced_rows() const noexcept final {
    const GenList* list = published();
    return list == nullptr ? 0 : list->end;
  }

  void rebuild_to(std::size_t target) final {
    const GenList* current = published_.load(std::memory_order_relaxed);
    const std::size_t from = current == nullptr ? 0 : current->end;
    if (from >= target) return;

    auto* next = new GenList;
    if (current != nullptr) next->gens = current->gens;
    next->gens.push_back(new Gen{from, target, Map::build(*this, *rows_, from, target)});
    next->end = target;

    // Size-tiered merge from the newest end: keeps O(log n) generations.
    while (next->gens.size() >= 2) {
      const Gen* older = next->gens[next->gens.size() - 2];
      const Gen* newer = next->gens.back();
      if (older->row_span() > 2 * newer->row_span()) break;
      const Gen* merged = new Gen{older->begin, newer->end, Map::merge(older->map, newer->map)};
      dispose(older);
      dispose(newer);
      next->gens.pop_back();
      next->gens.back() = merged;
    }

    published_.store(next, std::memory_order_release);
    dispose(current);
  }

 private:
  std::atomic<const GenList*> published_{nullptr};
};

/// A hash generation: one unordered map from key to postings.
struct HashPostings {
  std::unordered_map<Key, PostingList, KeyHash> map;

  static HashPostings build(const Index& index, const StableVector<Row>& rows,
                            RowId from, RowId to) {
    HashPostings gen;
    // Probe with a reused scratch key: on the hit path (almost every insert
    // of a catch-up pass) nothing is allocated. Only a first-seen key pays
    // the copy-into-the-map cost.
    Key scratch;
    for (RowId r = from; r < to; ++r) {
      scratch.parts.clear();
      for (const std::size_t c : index.key_columns()) scratch.parts.push_back(rows[r][c]);
      const auto it = gen.map.find(scratch);
      if (it != gen.map.end()) {
        it->second.push_back(r);
      } else {
        gen.map.emplace(std::move(scratch), PostingList{}).first->second.push_back(r);
      }
    }
    // The generation is immutable once published; drop building slack.
    for (auto& [key, ids] : gen.map) ids.shrink();
    return gen;
  }

  static HashPostings merge(const HashPostings& older, const HashPostings& newer) {
    HashPostings out = older;
    for (const auto& [key, ids] : newer.map) {
      PostingList& list = out.map[key];
      list.append_all(ids);
      list.shrink();
    }
    return out;
  }

  const PostingList* find(const Key& key) const {
    const auto it = map.find(key);
    return it == map.end() ? nullptr : &it->second;
  }

  template <typename F>
  void for_each(F f) const {
    for (const auto& entry : map) f(entry.second);
  }
};

/// An ordered generation: (key, postings) entries sorted by key.
struct SortedPostings {
  using Entry = std::pair<Key, PostingList>;
  std::vector<Entry> entries;

  static SortedPostings build(const Index& index, const StableVector<Row>& rows,
                              RowId from, RowId to) {
    std::map<Key, PostingList> building;
    for (RowId r = from; r < to; ++r) building[index.extract_key(rows[r])].push_back(r);
    SortedPostings gen;
    gen.entries.reserve(building.size());
    for (auto& [key, ids] : building) {
      ids.shrink();  // immutable once published; drop building slack
      gen.entries.emplace_back(key, std::move(ids));
    }
    return gen;
  }

  /// Key-merge of two sorted entry lists; `older`'s ids precede `newer`'s
  /// under a shared key (it covers older rows, so ids stay ascending).
  static SortedPostings merge(const SortedPostings& older, const SortedPostings& newer) {
    const std::vector<Entry>& a = older.entries;
    const std::vector<Entry>& b = newer.entries;
    SortedPostings out;
    out.entries.reserve(a.size() + b.size());
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i].first < b[j].first) {
        out.entries.push_back(a[i++]);
      } else if (b[j].first < a[i].first) {
        out.entries.push_back(b[j++]);
      } else {
        Entry entry = a[i++];
        entry.second.append_all(b[j++].second);
        entry.second.shrink();
        out.entries.push_back(std::move(entry));
      }
    }
    while (i < a.size()) out.entries.push_back(a[i++]);
    while (j < b.size()) out.entries.push_back(b[j++]);
    return out;
  }

  /// First entry whose key is >= `key`.
  std::vector<Entry>::const_iterator lower_bound(const Key& key) const {
    return std::lower_bound(entries.begin(), entries.end(), key,
                            [](const Entry& e, const Key& k) { return e.first < k; });
  }

  const PostingList* find(const Key& key) const {
    const auto it = lower_bound(key);
    if (it == entries.end() || key < it->first) return nullptr;
    return &it->second;
  }

  template <typename F>
  void for_each(F f) const {
    for (const Entry& entry : entries) f(entry.second);
  }
};

class HashIndex final : public GenerationIndex<HashPostings> {
 public:
  using GenerationIndex::GenerationIndex;

  std::unique_ptr<Index> make_empty() const override {
    return std::make_unique<HashIndex>(name(), key_columns());
  }
};

class OrderedIndex final : public GenerationIndex<SortedPostings> {
 public:
  using GenerationIndex::GenerationIndex;

  std::unique_ptr<Index> make_empty() const override {
    return std::make_unique<OrderedIndex>(name(), key_columns());
  }

  /// Rows with lo <= key <= hi (inclusive bounds on the full composite
  /// key), in key order, ids ascending within a key. Syncs first.
  std::vector<RowId> range(const Key& lo, const Key& hi) const {
    std::vector<RowId> out;
    range_into(lo, hi, out);
    return out;
  }

  void range_into(const Key& lo, const Key& hi, std::vector<RowId>& out) const {
    sync();
    range_into_at(lo, hi, kNoLimit, out);
  }

  /// MVCC range probe: never mutates, never blocks. Output is globally
  /// key-ordered (matches produced by multiple generations are merged).
  void range_into_at(const Key& lo, const Key& hi, std::size_t limit,
                     std::vector<RowId>& out) const {
    const GenList* list = published();
    std::map<Key, std::vector<RowId>> merged;
    std::size_t covered = 0;
    if (list != nullptr) {
      covered = list->end;
      for (const Gen* gen : list->gens) {  // oldest first: ids stay ascending
        if (gen->begin >= limit) break;
        for (auto it = gen->map.lower_bound(lo);
             it != gen->map.entries.end() && !(hi < it->first); ++it) {
          auto& postings = merged[it->first];
          if (gen->end <= limit) {
            it->second.append_to(postings);
          } else {
            it->second.append_below(limit, postings);
          }
        }
      }
    }
    if (covered < limit && rows_ != nullptr) {
      const std::size_t to = std::min(limit, rows_->size());
      for (std::size_t r = covered; r < to; ++r) {
        Key key = extract_key((*rows_)[r]);
        if (!(key < lo) && !(hi < key)) merged[std::move(key)].push_back(r);
      }
    }
    for (const auto& [key, ids] : merged) {
      out.insert(out.end(), ids.begin(), ids.end());
    }
  }
};

}  // namespace hxrc::rel
