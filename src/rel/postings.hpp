// Compressed sorted posting lists for the generation-versioned indexes.
//
// A posting list is a strictly-ascending sequence of row ids. The
// generation machinery in rel/index.hpp only ever (a) appends ids in
// ascending order while building a generation, (b) concatenates an older
// generation's list with a newer one during a size-tiered merge (every id
// in the older generation precedes every id in the newer one), and
// (c) reads: decode all, decode the prefix below a snapshot watermark, or
// count that prefix. That access pattern makes delta/varint block
// compression safe to slot in at publish time with zero change to the MVCC
// contract — a published list is immutable and fully decodable without
// touching the writer.
//
// Wire format (per list):
//   byte stream : the first block's first id as an absolute LEB128 varint,
//                 then, per block, the 2nd..Nth ids as varints of the gap
//                 minus one (ids are strictly ascending, so every gap is
//                 >= 1);
//   skip table  : one SkipEntry {first id : u64, count : u32, byte offset
//                 : u32} per block AFTER the first, kept uncompressed so
//                 watermark cuts and bucket-size estimates are answered by
//                 binary search without decoding. Lists of up to kBlockSize
//                 ids — the overwhelming majority in value-keyed indexes —
//                 carry no skip table at all, which is what keeps the
//                 compressed form strictly smaller than raw even for
//                 singleton postings.
//
// Typical cost: dense postings (attribute-definition buckets, where gaps
// hover around the table's rows-per-document) take 1-2 bytes per id
// against 8 for a raw RowId — the compression ratio surfaced in
// BENCH_scale.json. This is the only physical form; raw_bytes() reports
// what a plain RowId vector would cost, for the ratio's denominator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hxrc::rel {

using RowId = std::size_t;

class PostingList {
 public:
  static constexpr std::size_t kBlockSize = 128;

  PostingList() = default;

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  /// Appends `id`; ids must be strictly ascending. Build-side only (runs
  /// under the index's sync mutex); published lists are never appended to.
  void push_back(RowId id) {
    if (count_ == 0) {
      first_ = static_cast<std::uint64_t>(id);
      put_varint(first_);  // block 0's first id, absolute, in-stream
    } else if (tail_full()) {
      skip_.push_back(SkipEntry{static_cast<std::uint64_t>(id), 1,
                                static_cast<std::uint32_t>(bytes_.size())});
    } else {
      put_varint(static_cast<std::uint64_t>(id) - last_ - 1);
      if (!skip_.empty()) ++skip_.back().count;
    }
    ++count_;
    last_ = static_cast<std::uint64_t>(id);
  }

  /// Concatenates `other` (all of whose ids exceed back()). The size-tiered
  /// merge path: older ++ newer is just a skip-table splice plus a byte
  /// append — no re-encoding. `other`'s first block becomes a skip block of
  /// this list (its in-stream absolute first id is dropped; the new skip
  /// entry carries it).
  void append_all(const PostingList& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    // Drop other's leading absolute varint; its value is other.first_.
    const std::uint8_t* p = other.bytes_.data();
    std::uint64_t absolute = 0;
    p = get_varint(p, absolute);
    const auto lead =
        static_cast<std::size_t>(p - other.bytes_.data());
    const std::uint32_t other_b0 = other.block0_count();
    const std::uint32_t tail =
        skip_.empty() ? block0_count() : skip_.back().count;
    if (tail + other_b0 <= kBlockSize) {
      // Fuse other's first block into this list's tail block: gap varints
      // are position-independent, so one bridging gap varint followed by a
      // verbatim byte copy re-blocks without re-encoding. This is what
      // keeps size-tiered merges of short lists — the common case for
      // value-keyed indexes — from accreting one skip entry per merge.
      put_varint(other.first_ - last_ - 1);
      const auto base = static_cast<std::uint32_t>(bytes_.size());
      bytes_.insert(bytes_.end(), other.bytes_.begin() + lead, other.bytes_.end());
      if (!skip_.empty()) skip_.back().count += other_b0;
      skip_.reserve(skip_.size() + other.skip_.size());
      for (const SkipEntry& entry : other.skip_) {
        skip_.push_back(SkipEntry{entry.first, entry.count,
                                  entry.offset - static_cast<std::uint32_t>(lead) +
                                      base});
      }
    } else {
      const auto base = static_cast<std::uint32_t>(bytes_.size());
      bytes_.insert(bytes_.end(), other.bytes_.begin() + lead, other.bytes_.end());
      skip_.reserve(skip_.size() + 1 + other.skip_.size());
      skip_.push_back(SkipEntry{other.first_, other_b0, base});
      for (const SkipEntry& entry : other.skip_) {
        skip_.push_back(SkipEntry{entry.first, entry.count,
                                  entry.offset - static_cast<std::uint32_t>(lead) +
                                      base});
      }
    }
    count_ += other.count_;
    last_ = other.last_;
  }

  /// Appends every id to `out` (does not clear it).
  void append_to(std::vector<RowId>& out) const {
    if (count_ == 0) return;
    decode_run(bytes_.data(), block0_count(), true, out);
    for (const SkipEntry& entry : skip_) {
      decode_skip_block(entry, entry.count, out);
    }
  }

  /// Appends the ids strictly below `limit` — the MVCC watermark cut. Whole
  /// blocks below the watermark decode without comparisons; at most one
  /// straddling block pays a per-id check.
  void append_below(std::size_t limit, std::vector<RowId>& out) const {
    if (count_ == 0) return;
    if (first_ >= static_cast<std::uint64_t>(limit)) return;
    // Skip blocks whose first id is below the watermark; the LAST such
    // block (or block 0 when there is none) straddles, everything before
    // it is entirely below.
    const std::size_t s = blocks_starting_below(limit);
    if (s == 0) {
      decode_run_below(bytes_.data(), block0_count(), true, limit, out);
      return;
    }
    decode_run(bytes_.data(), block0_count(), true, out);
    for (std::size_t b = 0; b + 1 < s; ++b) {
      decode_skip_block(skip_[b], skip_[b].count, out);
    }
    decode_skip_block_below(skip_[s - 1], limit, out);
  }

  /// Number of ids strictly below `limit`; answered from the skip table
  /// plus one partial block decode.
  std::size_t count_below(std::size_t limit) const noexcept {
    if (count_ == 0) return 0;
    if (first_ >= static_cast<std::uint64_t>(limit)) return 0;
    const std::size_t s = blocks_starting_below(limit);
    if (s == 0) {
      return count_run_below(bytes_.data(), block0_count(), true, limit);
    }
    std::size_t n = block0_count();
    for (std::size_t b = 0; b + 1 < s; ++b) n += skip_[b].count;
    const SkipEntry& straddler = skip_[s - 1];
    n += count_skip_block_below(straddler, limit);
    return n;
  }

  /// Releases building slack (vector growth headroom). Publish-time call:
  /// generations are immutable once published, so exact-fit storage is
  /// free thereafter.
  void shrink() noexcept {
    bytes_.shrink_to_fit();
    skip_.shrink_to_fit();
  }

  /// Heap bytes held by this list's physical representation.
  std::size_t heap_bytes() const noexcept {
    return bytes_.capacity() + skip_.capacity() * sizeof(SkipEntry);
  }

  /// Bytes an uncompressed RowId vector of the same ids would take — the
  /// denominator of the compression ratio.
  std::size_t raw_bytes() const noexcept { return count_ * sizeof(RowId); }

 private:
  struct SkipEntry {
    std::uint64_t first = 0;   // the block's first id (not in the byte stream)
    std::uint32_t count = 0;   // ids in the block (<= kBlockSize)
    std::uint32_t offset = 0;  // byte offset of the block's varint gap run
  };

  /// Ids in block 0 (blocks >= 1 carry their count in their skip entry).
  std::uint32_t block0_count() const noexcept {
    std::size_t tail = 0;
    for (const SkipEntry& entry : skip_) tail += entry.count;
    return static_cast<std::uint32_t>(count_ - tail);
  }

  /// Whether the current (last) block is full.
  bool tail_full() const noexcept {
    return (skip_.empty() ? block0_count() : skip_.back().count) == kBlockSize;
  }

  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    bytes_.push_back(static_cast<std::uint8_t>(v));
  }

  static const std::uint8_t* get_varint(const std::uint8_t* p, std::uint64_t& v) {
    std::uint64_t out = 0;
    int shift = 0;
    while (*p & 0x80) {
      out |= static_cast<std::uint64_t>(*p++ & 0x7f) << shift;
      shift += 7;
    }
    v = out | (static_cast<std::uint64_t>(*p++) << shift);
    return p;
  }

  /// Number of skip blocks whose first id is < limit (they and block 0 hold
  /// every id below the watermark; the last of them straddles it).
  std::size_t blocks_starting_below(std::size_t limit) const noexcept {
    std::size_t lo = 0, hi = skip_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (skip_[mid].first < static_cast<std::uint64_t>(limit)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Decodes a run of `count` ids starting at `p`. With `leading_absolute`
  /// the run begins with an absolute varint (block 0); otherwise the caller
  /// supplies the first id via decode_skip_block.
  void decode_run(const std::uint8_t* p, std::uint32_t count, bool leading_absolute,
                  std::vector<RowId>& out) const {
    std::uint64_t id = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (i == 0 && leading_absolute) {
        p = get_varint(p, id);
      } else if (i != 0) {
        std::uint64_t gap = 0;
        p = get_varint(p, gap);
        id += gap + 1;
      }
      out.push_back(static_cast<RowId>(id));
    }
  }

  void decode_run_below(const std::uint8_t* p, std::uint32_t count,
                        bool leading_absolute, std::size_t limit,
                        std::vector<RowId>& out) const {
    std::uint64_t id = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (i == 0 && leading_absolute) {
        p = get_varint(p, id);
      } else if (i != 0) {
        std::uint64_t gap = 0;
        p = get_varint(p, gap);
        id += gap + 1;
      }
      if (id >= static_cast<std::uint64_t>(limit)) return;
      out.push_back(static_cast<RowId>(id));
    }
  }

  std::size_t count_run_below(const std::uint8_t* p, std::uint32_t count,
                              bool leading_absolute, std::size_t limit) const noexcept {
    std::uint64_t id = 0;
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (i == 0 && leading_absolute) {
        p = get_varint(p, id);
      } else if (i != 0) {
        std::uint64_t gap = 0;
        p = get_varint(p, gap);
        id += gap + 1;
      }
      if (id >= static_cast<std::uint64_t>(limit)) return n;
      ++n;
    }
    return n;
  }

  void decode_skip_block(const SkipEntry& entry, std::uint32_t count,
                         std::vector<RowId>& out) const {
    std::uint64_t id = entry.first;
    out.push_back(static_cast<RowId>(id));
    const std::uint8_t* p = bytes_.data() + entry.offset;
    for (std::uint32_t i = 1; i < count; ++i) {
      std::uint64_t gap = 0;
      p = get_varint(p, gap);
      id += gap + 1;
      out.push_back(static_cast<RowId>(id));
    }
  }

  void decode_skip_block_below(const SkipEntry& entry, std::size_t limit,
                               std::vector<RowId>& out) const {
    std::uint64_t id = entry.first;
    const std::uint8_t* p = bytes_.data() + entry.offset;
    for (std::uint32_t i = 0; i < entry.count; ++i) {
      if (i != 0) {
        std::uint64_t gap = 0;
        p = get_varint(p, gap);
        id += gap + 1;
      }
      if (id >= static_cast<std::uint64_t>(limit)) break;
      out.push_back(static_cast<RowId>(id));
    }
  }

  std::size_t count_skip_block_below(const SkipEntry& entry,
                                     std::size_t limit) const noexcept {
    std::uint64_t id = entry.first;
    const std::uint8_t* p = bytes_.data() + entry.offset;
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < entry.count; ++i) {
      if (i != 0) {
        std::uint64_t gap = 0;
        p = get_varint(p, gap);
        id += gap + 1;
      }
      if (id >= static_cast<std::uint64_t>(limit)) break;
      ++n;
    }
    return n;
  }

  std::vector<std::uint8_t> bytes_;  // varint stream
  std::vector<SkipEntry> skip_;      // one entry per block AFTER the first
  std::uint64_t first_ = 0;          // block 0's first id (also in-stream)
  std::uint64_t last_ = 0;
  std::size_t count_ = 0;
};

}  // namespace hxrc::rel
