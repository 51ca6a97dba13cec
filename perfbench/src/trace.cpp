#include "trace.hpp"

#include <algorithm>
#include <cstdio>

#include "core/service.hpp"

namespace perfbench {

namespace hc = hxrc::core;

const char* span_name(std::uint16_t name) {
  static constexpr const char* kNames[kSpanNameCount] = {
      "client.request",    "dispatcher.query", "dispatcher.fetch",  "dispatcher.ingest",
      "dispatcher.other",  "dispatcher.try_cached", "exec.query",   "exec.fetch",
      "exec.ingest",       "exec.other",       "fed.route",         "fed.leg",
      "clob.read_segment", "clob.write_segment", "wal.write",       "wal.fsync",
      "replay.request",    "replay.xml_parse", "replay.query_from_xml", "replay.engine",
      "replay.build_response", "replay.doc_parse"};
  return name < kSpanNameCount ? kNames[name] : "?";
}

void Tracer::record(const Span& span) {
  thread_local std::vector<Span>* buffer = nullptr;
  thread_local const Tracer* owner = nullptr;
  if (buffer == nullptr || owner != this) {
    auto fresh = std::make_unique<std::vector<Span>>();
    fresh->reserve(4096);
    buffer = fresh.get();
    owner = this;
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(fresh));
  }
  buffer->push_back(span);
  buffer->back().phase = phase_.load(std::memory_order_relaxed);
}

std::vector<Span> Tracer::collect() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) all.insert(all.end(), buffer->begin(), buffer->end());
  return all;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

ExecContext& exec_context() {
  thread_local ExecContext context;
  return context;
}

void begin_exec() {
  ExecContext& ctx = exec_context();
  if (!tracer().on()) {
    ctx.active = false;
    return;
  }
  ctx.id = tracer().next_id();
  ctx.start = now_ns();
  ctx.active = true;
}

RequestJoin::RequestJoin(const std::vector<std::string>& bodies) : pending_(bodies.size()) {
  for (std::uint32_t i = 0; i < bodies.size(); ++i) index_.emplace(bodies[i], i);
}

void RequestJoin::push(std::uint32_t body, std::int64_t request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  pending_[body].push_back(request);
}

std::int64_t RequestJoin::claim(std::string_view body) {
  const auto it = index_.find(body);
  if (it == index_.end()) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& queue = pending_[it->second];
  if (queue.empty()) return -1;
  const std::int64_t request = queue.front();
  queue.pop_front();
  return request;
}

namespace {

std::uint16_t broker_span(TimedBroker::Role role, std::string_view type) {
  if (role == TimedBroker::Role::kRouter) return kRouter;
  if (role == TimedBroker::Role::kShard) return kShardLeg;
  if (type == "query" || type == "queryIds") return kDispatcherQuery;
  if (type == "fetch") return kDispatcherFetch;
  if (type == "ingest") return kDispatcherIngest;
  return kDispatcherOther;
}

std::uint16_t exec_span(std::string_view type) {
  if (type == "query" || type == "queryIds") return kExecQuery;
  if (type == "fetch") return kExecFetch;
  if (type == "ingest") return kExecIngest;
  return kExecOther;
}

}  // namespace

void TimedBroker::submit_async(std::string request_xml,
                               std::function<void(std::string)> done, bool probe_cache) {
  if (!tracer().on()) {
    inner_.submit_async(std::move(request_xml), std::move(done), probe_cache);
    return;
  }
  const std::int64_t start = now_ns();
  {
    const std::lock_guard<std::mutex> lock(depth_mutex_);
    depths_.push_back(static_cast<double>(inner_.queue_depth()));
  }
  RequestJoin* join = join_.load(std::memory_order_acquire);
  const std::int64_t request = join != nullptr ? join->claim(request_xml) : -1;
  const std::string type = hc::peek_request_type(request_xml);
  const std::int64_t id = tracer().next_id();
  const std::uint16_t name = broker_span(role_, type);
  const std::uint16_t exec = exec_span(type);
  inner_.submit_async(
      std::move(request_xml),
      [done = std::move(done), start, id, request, name, exec](std::string response) {
        const std::int64_t end = now_ns();
        ExecContext& ctx = exec_context();
        if (ctx.active) {
          tracer().record(Span{exec, ctx.start, end, ctx.id, id, request});
          ctx.active = false;
        }
        tracer().record(Span{name, start, end, id, request, request});
        done(std::move(response));
      },
      probe_cache);
}

std::shared_ptr<const hc::CachedResponse> TimedBroker::try_cached(
    std::string_view request_xml) {
  if (!tracer().on()) return inner_.try_cached(request_xml);
  const std::int64_t start = now_ns();
  auto hit = inner_.try_cached(request_xml);
  const std::int64_t end = now_ns();
  RequestJoin* join = join_.load(std::memory_order_acquire);
  const std::int64_t request = hit != nullptr && join != nullptr ? join->claim(request_xml) : -1;
  tracer().record(Span{kTryCached, start, end, tracer().next_id(), request, request});
  return hit;
}

std::vector<double> TimedBroker::depth_samples() const {
  const std::lock_guard<std::mutex> lock(depth_mutex_);
  return depths_;
}

namespace {

std::int64_t exec_parent() {
  const ExecContext& ctx = exec_context();
  return ctx.active ? ctx.id : -1;
}

}  // namespace

std::uint32_t TimedPager::write_segment(std::string_view payload) {
  if (!tracer().on()) return inner_.write_segment(payload);
  const std::int64_t start = now_ns();
  const std::uint32_t segment = inner_.write_segment(payload);
  tracer().record(Span{kClobWrite, start, now_ns(), tracer().next_id(), exec_parent(), -1});
  writes.fetch_add(1, std::memory_order_relaxed);
  return segment;
}

std::string TimedPager::read_segment(std::uint32_t segment) {
  if (!tracer().on()) return inner_.read_segment(segment);
  const std::int64_t start = now_ns();
  std::string payload = inner_.read_segment(segment);
  tracer().record(Span{kClobRead, start, now_ns(), tracer().next_id(), exec_parent(), -1});
  reads.fetch_add(1, std::memory_order_relaxed);
  read_bytes.fetch_add(payload.size(), std::memory_order_relaxed);
  return payload;
}

namespace {

class TimedFile final : public hxrc::storage::File {
 public:
  TimedFile(std::unique_ptr<hxrc::storage::File> inner, bool wal)
      : inner_(std::move(inner)), wal_(wal) {}
  void write(const void* data, std::size_t size) override {
    if (!wal_ || !tracer().on()) return inner_->write(data, size);
    const std::int64_t start = now_ns();
    inner_->write(data, size);
    tracer().record(Span{kWalWrite, start, now_ns(), tracer().next_id(), exec_parent(), -1});
  }
  void sync() override {
    if (!wal_ || !tracer().on()) return inner_->sync();
    const std::int64_t start = now_ns();
    inner_->sync();
    tracer().record(Span{kWalFsync, start, now_ns(), tracer().next_id(), -1, -1});
  }
  std::uint64_t size() const override { return inner_->size(); }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<hxrc::storage::File> inner_;
  bool wal_;
};

bool is_wal_path(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string_view file =
      std::string_view(path).substr(slash == std::string::npos ? 0 : slash + 1);
  return file.find("wal") != std::string_view::npos;
}

}  // namespace

std::unique_ptr<hxrc::storage::File> TimedFs::open_append(const std::string& path) {
  return std::make_unique<TimedFile>(inner_.open_append(path), is_wal_path(path));
}

std::unique_ptr<hxrc::storage::File> TimedFs::create(const std::string& path) {
  return std::make_unique<TimedFile>(inner_.create(path), is_wal_path(path));
}

std::vector<LayerTimes> layer_times(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id.emplace(spans[i].id, i);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const auto it = by_id.find(span.parent);
    if (it != by_id.end()) children[it->second].emplace_back(span.start, span.end);
  }
  std::vector<LayerTimes> layers(kSpanNameCount);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = span.start;
    for (const auto& [lo, hi] : kids) {
      const std::int64_t from = std::max(lo, cursor);
      const std::int64_t to = std::min(hi, span.end);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    const double duration = static_cast<double>(span.end - span.start) / 1e3;
    LayerTimes& layer = layers[span.name];
    ++layer.count;
    layer.duration_us.push_back(duration);
    layer.self_us.push_back(duration - static_cast<double>(covered) / 1e3);
  }
  return layers;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "phase\tname\tstart_ns\tend_ns\tid\tparent\trequest\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%u\t%s\t%lld\t%lld\t%lld\t%lld\t%lld\n", s.phase, span_name(s.name),
                 static_cast<long long>(s.start), static_cast<long long>(s.end),
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
