// Character-large-object storage with off-heap paging.
//
// The hybrid approach stores one CLOB per metadata attribute instance; the
// pure-CLOB and DB2/Oracle-style baselines store one per document. CLOBs are
// immutable once appended, matching the catalog's insert-and-query workload.
//
// At million-object scale the response-reconstruction payloads dominate the
// catalog's memory footprint while being touched only when a full document
// is rebuilt. The store therefore spills COLD payloads to a page file. Once
// enable_paging() is armed, the pager's unit of I/O is a BLOCK: a run of
// consecutive CLOBs of at most kBlockBytes payload (an entry larger than that
// gets a block of its own). Blocks end on entry boundaries and each is
// written as one ClobPager segment, so it carries its own frame and CRC.
// An entry's (block, offset, length) therefore points into a small block,
// and reconstructing one document (whose attribute CLOBs were appended
// together and so mostly share a block) pages in about one block, not a
// whole multi-megabyte run.
//
// Readers fetch spilled payloads through an LRU of whole blocks bounded in
// BYTES (cache_segments x segment_bytes). A miss pages its block in outside
// the cache lock, so it stalls only its own caller; two readers racing on
// one block both read it and the block is inserted once.
//
// Concurrency contract (mirrors the MVCC row stores): ONE serialized writer
// appends and seals; any number of readers call get() on ids below a
// published snapshot watermark. Entries live in a StableVector (never
// moved); each entry's resident payload is published through one atomic
// pointer. Sealing retires the resident string through the epoch reclaimer,
// so a reader that loaded the pointer before the seal keeps dereferencing a
// live string; a reader that observes nullptr sees the entry's block
// coordinates (release/acquire on the pointer exchange orders them).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "rel/stable_vector.hpp"
#include "util/epoch.hpp"

namespace hxrc::rel {

using ClobId = std::int64_t;

/// Backing storage for sealed CLOB blocks (one segment per block).
/// Implemented by storage::PagedClobFile; the interface lives here so the
/// rel layer does not depend on the storage layer. The page file is derived
/// cache data — it is rebuilt by re-ingest/recovery, never part of the
/// WAL/snapshot durability contract.
class ClobPager {
 public:
  virtual ~ClobPager() = default;

  /// Persists one segment and returns its id. Writer-only.
  virtual std::uint32_t write_segment(std::string_view payload) = 0;

  /// Reads a whole segment back, verified. Called by concurrent readers
  /// without the store's cache lock; must tolerate concurrent
  /// write_segment of LATER segments (sealed segments are immutable).
  virtual std::string read_segment(std::uint32_t segment) = 0;
};

class ClobStore {
 public:
  static constexpr std::uint32_t kNoBlock = 0xffffffffu;
  /// Payload bytes per sealed block (smaller if enable_paging's
  /// segment_bytes is). About one document's CLOBs plus its neighbours: a
  /// cold read pages in this much, not a whole multi-megabyte run.
  static constexpr std::size_t kBlockBytes = 32u << 10;

  ClobStore() = default;
  ClobStore(const ClobStore&) = delete;
  ClobStore& operator=(const ClobStore&) = delete;
  ClobStore(ClobStore&& other) noexcept { steal(other); }
  ClobStore& operator=(ClobStore&& other) noexcept {
    if (this != &other) {
      clear();
      steal(other);
    }
    return *this;
  }
  ~ClobStore() { clear(); }

  /// Arms paging: payloads spill to `pager` in blocks of
  /// min(segment_bytes, kBlockBytes) payload bytes, one pager segment per
  /// block; readers keep up to cache_segments x segment_bytes bytes of
  /// spilled blocks resident. The pager is borrowed, must outlive the store
  /// (or a clear()), and must be empty. Writer-context; call before the
  /// first append that should page.
  void enable_paging(ClobPager* pager, std::size_t segment_bytes = 4u << 20,
                     std::size_t cache_segments = 8) {
    pager_ = pager;
    segment_bytes = std::max<std::size_t>(segment_bytes, 1);
    block_bytes_ = std::min(segment_bytes, kBlockBytes);
    cache_budget_ = segment_bytes * std::max<std::size_t>(cache_segments, 1);
  }

  bool paging_enabled() const noexcept { return pager_ != nullptr; }

  /// Defers freeing of sealed entries' resident strings so concurrent MVCC
  /// readers holding the pointer stay safe. Without one, sealing frees
  /// immediately (single-threaded use).
  void set_reclaimer(util::EpochManager* reclaimer) noexcept {
    reclaimer_ = reclaimer;
  }

  /// Stores a CLOB and returns its id (ids are dense, starting at 0).
  /// Writer-only (external serialization). May seal a block: the pending
  /// run is sealed before a payload that would overflow it (blocks end on
  /// entry boundaries) and once it reaches the block size.
  ClobId append(std::string content) {
    const std::size_t size = content.size();
    if (pager_ != nullptr && pending_bytes_ > 0 &&
        pending_bytes_ + size > block_bytes_) {
      seal_pending();
    }
    auto* owned = new std::string(std::move(content));
    Entry entry;
    entry.resident.store(owned, std::memory_order_relaxed);
    entry.length = static_cast<std::uint32_t>(size);
    entries_.push_back(std::move(entry));
    bytes_.fetch_add(size, std::memory_order_relaxed);
    resident_bytes_.fetch_add(size, std::memory_order_relaxed);
    pending_bytes_ += size;
    if (pager_ != nullptr && pending_bytes_ >= block_bytes_) seal_pending();
    return static_cast<ClobId>(entries_.size() - 1);
  }

  /// The payload, resident or paged back in. By value: a spilled payload
  /// has no stable address to reference (it is copied out of a cached
  /// block that LRU eviction may drop).
  std::string get(ClobId id) const {
    const auto index = static_cast<std::size_t>(id);
    if (id < 0 || index >= entries_.size()) {
      throw std::out_of_range("clob id out of range");
    }
    const Entry& entry = entries_[index];
    if (const std::string* resident =
            entry.resident.load(std::memory_order_acquire)) {
      return *resident;
    }
    return read_spilled(entry);
  }

  /// Force-seals the pending tail into a (possibly short) block.
  /// Writer-context; no-op without a pager or pending payload. Benches call
  /// this after ingest so the resident footprint reflects steady state.
  void flush() {
    if (pager_ != nullptr) seal_pending();
  }

  std::size_t count() const noexcept { return entries_.size(); }

  /// Total logical payload bytes, resident or spilled.
  std::size_t payload_bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// Payload bytes currently held on-heap (the footprint approx_bytes
  /// charges; spilled payload is off-heap by design).
  std::size_t resident_bytes() const noexcept {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

  std::size_t spilled_bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed) -
           resident_bytes_.load(std::memory_order_relaxed);
  }

  /// Entries sealed into blocks so far (a prefix of all ids).
  std::size_t sealed_count() const noexcept { return sealed_; }

  std::size_t cache_hits() const noexcept {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  std::size_t cache_misses() const noexcept {
    return cache_misses_.load(std::memory_order_relaxed);
  }

  /// Bytes of spilled blocks the read cache holds (never above its budget).
  std::size_t cache_bytes() const {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    return cache_bytes_;
  }

  /// Moves every CLOB of `other` into this store (ids continue densely),
  /// leaving `other` empty. Returns the id offset applied to `other`'s ids.
  /// `other` must not have paging enabled (shard-local ingest stores don't).
  ClobId absorb(ClobStore& other) {
    const auto offset = static_cast<ClobId>(entries_.size());
    const std::size_t moved = other.entries_.size();
    for (std::size_t i = 0; i < moved; ++i) {
      const std::string* payload =
          other.entries_[i].resident.exchange(nullptr, std::memory_order_relaxed);
      append(std::move(*const_cast<std::string*>(payload)));
      delete payload;
    }
    other.clear();
    return offset;
  }

  /// Requires quiescence (restore/teardown paths). Drops block
  /// coordinates too: re-enable paging with a fresh pager afterwards.
  void clear() noexcept {
    const std::size_t n = entries_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::string* resident =
          entries_[i].resident.exchange(nullptr, std::memory_order_relaxed);
      delete resident;
    }
    entries_.clear();
    bytes_.store(0, std::memory_order_relaxed);
    resident_bytes_.store(0, std::memory_order_relaxed);
    pending_bytes_ = 0;
    sealed_ = 0;
    pager_ = nullptr;
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    cache_.clear();
    cache_index_.clear();
    cache_bytes_ = 0;
  }

 private:
  struct Entry {
    std::atomic<const std::string*> resident{nullptr};
    std::uint32_t block = kNoBlock;
    std::uint32_t offset = 0;
    std::uint32_t length = 0;

    Entry() = default;
    // Writer-side only (StableVector::push_back constructs in place before
    // the slot is published).
    Entry(Entry&& other) noexcept
        : resident(other.resident.exchange(nullptr, std::memory_order_relaxed)),
          block(other.block),
          offset(other.offset),
          length(other.length) {}
  };

  /// Seals entries [sealed_, count) into one block: concatenated payload
  /// goes to the pager, then each entry's coordinates are set and its
  /// resident string retired. Coordinate stores happen BEFORE the pointer
  /// exchange (release) so a reader seeing nullptr (acquire) sees them.
  void seal_pending() {
    const std::size_t end = entries_.size();
    if (sealed_ == end) return;
    std::string payload;
    payload.reserve(pending_bytes_);
    for (std::size_t i = sealed_; i < end; ++i) {
      payload += *entries_[i].resident.load(std::memory_order_relaxed);
    }
    const std::uint32_t block = pager_->write_segment(payload);
    std::uint32_t offset = 0;
    for (std::size_t i = sealed_; i < end; ++i) {
      Entry& entry = entries_[i];
      entry.block = block;
      entry.offset = offset;
      offset += entry.length;
      const std::string* resident =
          entry.resident.exchange(nullptr, std::memory_order_release);
      resident_bytes_.fetch_sub(resident->size(), std::memory_order_relaxed);
      if (reclaimer_ != nullptr) {
        reclaimer_->retire(resident);
      } else {
        delete resident;
      }
    }
    sealed_ = end;
    pending_bytes_ = 0;
  }

  std::string read_spilled(const Entry& entry) const {
    {
      const std::lock_guard<std::mutex> lock(cache_mutex_);
      const auto hit = cache_index_.find(entry.block);
      if (hit != cache_index_.end()) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        cache_.splice(cache_.begin(), cache_, hit->second);
        return hit->second->second.substr(entry.offset, entry.length);
      }
    }
    // Page in without the lock: the read (and its CRC check) stalls only
    // this caller. A racing reader may page in the same block; it is
    // inserted once.
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    std::string block = pager_->read_segment(entry.block);
    std::string payload = block.substr(entry.offset, entry.length);
    if (block.size() > cache_budget_) return payload;  // would never fit
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    if (cache_index_.count(entry.block) != 0) return payload;
    cache_bytes_ += block.size();
    cache_.emplace_front(entry.block, std::move(block));
    cache_index_.emplace(entry.block, cache_.begin());
    while (cache_bytes_ > cache_budget_) {
      cache_bytes_ -= cache_.back().second.size();
      cache_index_.erase(cache_.back().first);
      cache_.pop_back();
    }
    return payload;
  }

  void steal(ClobStore& other) noexcept {
    entries_ = std::move(other.entries_);
    bytes_.store(other.bytes_.exchange(0, std::memory_order_relaxed),
                 std::memory_order_relaxed);
    resident_bytes_.store(
        other.resident_bytes_.exchange(0, std::memory_order_relaxed),
        std::memory_order_relaxed);
    pending_bytes_ = std::exchange(other.pending_bytes_, 0);
    sealed_ = std::exchange(other.sealed_, 0);
    pager_ = std::exchange(other.pager_, nullptr);
    block_bytes_ = other.block_bytes_;
    cache_budget_ = other.cache_budget_;
    reclaimer_ = std::exchange(other.reclaimer_, nullptr);
    cache_ = std::move(other.cache_);
    cache_index_ = std::move(other.cache_index_);
    cache_bytes_ = std::exchange(other.cache_bytes_, 0);
    other.cache_.clear();
    other.cache_index_.clear();
  }

  StableVector<Entry> entries_;
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::size_t> resident_bytes_{0};
  std::size_t pending_bytes_ = 0;
  std::size_t sealed_ = 0;
  ClobPager* pager_ = nullptr;
  std::size_t block_bytes_ = kBlockBytes;
  util::EpochManager* reclaimer_ = nullptr;

  // Byte-budgeted LRU of whole blocks for spilled reads; front = most recent.
  mutable std::mutex cache_mutex_;
  mutable std::list<std::pair<std::uint32_t, std::string>> cache_;
  mutable std::unordered_map<
      std::uint32_t, std::list<std::pair<std::uint32_t, std::string>>::iterator>
      cache_index_;
  mutable std::size_t cache_bytes_ = 0;        // guarded by cache_mutex_
  std::size_t cache_budget_ = 8 * (4u << 20);  // cache_segments x segment_bytes
  mutable std::atomic<std::size_t> cache_hits_{0};
  mutable std::atomic<std::size_t> cache_misses_{0};
};

}  // namespace hxrc::rel
