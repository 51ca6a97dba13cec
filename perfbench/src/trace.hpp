// Spans and the pass-through decorators that record them.
//
// The benchmark attributes time to the catalog's layers without touching the
// program: every decorator here implements one of the program's own public
// interfaces (core::RequestBroker, rel::ClobPager, storage::Fs / File),
// forwards each call unchanged, and records a span around it while tracing
// is on. With tracing off a decorator costs one relaxed atomic load.
//
// A span is (name, start, end, id, parent, request). Spans are appended to
// per-thread buffers owned by the Tracer and read only after every thread
// that could record has been joined.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/broker.hpp"
#include "rel/clob_store.hpp"
#include "storage/fs.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Span names. Broker spans are per request type so self times can be
/// split by type; `kExec*` is the worker-side execution inside a dispatcher
/// (from the before_execute seam to the completion callback).
enum SpanName : std::uint16_t {
  kClientRequest,   // scheduled send -> response received (load generator)
  kDispatcherQuery,
  kDispatcherFetch,
  kDispatcherIngest,
  kDispatcherOther,
  kTryCached,       // L2 probe on the event loop
  kExecQuery,
  kExecFetch,
  kExecIngest,
  kExecOther,
  kRouter,          // router submit -> done (fed)
  kShardLeg,        // shard dispatcher submit -> done, seen from the shard
  kClobRead,        // ClobPager::read_segment
  kClobWrite,       // ClobPager::write_segment
  kWalWrite,        // File::write on the WAL
  kWalFsync,        // File::sync on the WAL
  kReplayRequest,   // one sampled in-process replay
  kReplayParse,     // xml::parse_arena of the request
  kReplayDecode,    // core::query_from_xml
  kReplayEngine,    // MetadataCatalog::query(q, &info)
  kReplayResponse,  // ReadGuard::build_response
  kReplayDocParse,  // xml::parse_arena of an ingest document
  kSpanNameCount
};

const char* span_name(std::uint16_t name);

struct Span {
  std::uint16_t name = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t id = -1;
  std::int64_t parent = -1;
  std::int64_t request = -1;
  std::uint8_t phase = 0;  // set by Tracer::record from the current phase
};

/// Client spans use the request's schedule index as their id; every other
/// span draws from this range so the two never collide.
inline constexpr std::int64_t kSpanIdBase = std::int64_t{1} << 40;

class Tracer {
 public:
  bool on() const noexcept { return on_.load(std::memory_order_relaxed); }
  void set(bool on) noexcept { on_.store(on, std::memory_order_seq_cst); }
  /// Stamped on every span recorded from now on, so a run with several
  /// traced phases can attribute each span to its phase.
  void set_phase(std::uint8_t phase) noexcept {
    phase_.store(phase, std::memory_order_seq_cst);
  }
  std::int64_t next_id() noexcept {
    return kSpanIdBase + next_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(const Span& span);
  /// Every span recorded so far. Call only after the recording threads
  /// have been joined.
  std::vector<Span> collect() const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint8_t> phase_{0};
  std::atomic<std::int64_t> next_{0};
  mutable std::mutex mutex_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

Tracer& tracer();

/// Per-thread "span currently executing here": set by the dispatcher's
/// before_execute seam (and by the replay), read by the pager and WAL
/// decorators to name their parent.
struct ExecContext {
  std::int64_t id = -1;
  std::int64_t start = 0;
  bool active = false;
};
ExecContext& exec_context();

/// Starts an execution span on the calling worker thread; installed as
/// DispatcherConfig::before_execute.
void begin_exec();

/// Links a broker-side request to its schedule index. The sender
/// registers each request before writing it; the front broker claims the
/// oldest outstanding index for the same body. Bodies are unique on the
/// cold workload, so the join is exact there; on the hot workload equal
/// bodies sent on different connections may be claimed out of order.
class RequestJoin {
 public:
  explicit RequestJoin(const std::vector<std::string>& bodies);
  void push(std::uint32_t body, std::int64_t request);
  std::int64_t claim(std::string_view body);

 private:
  std::unordered_map<std::string_view, std::uint32_t> index_;
  std::mutex mutex_;  // guards pending_
  std::vector<std::deque<std::int64_t>> pending_;
};

/// core::RequestBroker decorator: a dispatcher, the router, or a shard.
class TimedBroker final : public hxrc::core::RequestBroker {
 public:
  enum class Role { kDispatcher, kRouter, kShard };

  TimedBroker(hxrc::core::RequestBroker& inner, Role role) : inner_(inner), role_(role) {}

  /// Names client requests from here on (front broker, traced run only).
  void set_join(RequestJoin* join) noexcept { join_.store(join, std::memory_order_release); }

  void submit_async(std::string request_xml, std::function<void(std::string)> done,
                    bool probe_cache) override;
  std::shared_ptr<const hxrc::core::CachedResponse> try_cached(
      std::string_view request_xml) override;
  std::size_t queue_depth() const noexcept override { return inner_.queue_depth(); }
  std::size_t max_queue() const noexcept override { return inner_.max_queue(); }
  void begin_drain() override { inner_.begin_drain(); }
  void drain() override { inner_.drain(); }
  bool draining() const noexcept override { return inner_.draining(); }
  hxrc::util::CacheMetrics* cache_metrics_hook() noexcept override {
    return inner_.cache_metrics_hook();
  }

  /// Queue depth sampled at each traced admission.
  std::vector<double> depth_samples() const;

 private:
  hxrc::core::RequestBroker& inner_;
  Role role_;
  std::atomic<RequestJoin*> join_{nullptr};
  mutable std::mutex depth_mutex_;  // guards depths_
  std::vector<double> depths_;
};

/// rel::ClobPager decorator around storage::PagedClobFile.
class TimedPager final : public hxrc::rel::ClobPager {
 public:
  explicit TimedPager(hxrc::rel::ClobPager& inner) : inner_(inner) {}
  std::uint32_t write_segment(std::string_view payload) override;
  std::string read_segment(std::uint32_t segment) override;

  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> read_bytes{0};
  std::atomic<std::uint64_t> writes{0};

 private:
  hxrc::rel::ClobPager& inner_;
};

/// storage::Fs decorator handed to DurableCatalog: files it opens are
/// wrapped so WAL writes and fsyncs are timed.
class TimedFs final : public hxrc::storage::Fs {
 public:
  explicit TimedFs(hxrc::storage::Fs& inner) : inner_(inner) {}
  std::unique_ptr<hxrc::storage::File> open_append(const std::string& path) override;
  std::unique_ptr<hxrc::storage::File> create(const std::string& path) override;
  std::string read_file(const std::string& path) override { return inner_.read_file(path); }
  bool exists(const std::string& path) override { return inner_.exists(path); }
  void rename(const std::string& from, const std::string& to) override {
    inner_.rename(from, to);
  }
  void remove(const std::string& path) override { inner_.remove(path); }
  void truncate(const std::string& path, std::uint64_t size) override {
    inner_.truncate(path, size);
  }
  std::vector<std::string> list(const std::string& dir) override { return inner_.list(dir); }
  void create_dirs(const std::string& dir) override { inner_.create_dirs(dir); }
  void sync_dir(const std::string& dir) override { inner_.sync_dir(dir); }

 private:
  hxrc::storage::Fs& inner_;
};

/// Per-span-name roll-up: count, duration and self-time percentiles.
struct LayerTimes {
  std::size_t count = 0;
  std::vector<double> duration_us;
  std::vector<double> self_us;
};

/// Self time of a span = its duration minus the part of its interval that
/// its children (spans naming it as parent) cover.
std::vector<LayerTimes> layer_times(const std::vector<Span>& spans);

/// Writes spans as tab-separated rows with a header; returns false on I/O
/// failure.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
