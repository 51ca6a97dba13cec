// Self-test of the benchmark's own machinery: exact percentiles against a
// sorted reference, the seeded schedule, and the absence of coordinated
// omission when a server stall or a late sender delays requests.
//
//   python3 perfbench/run.py --self-test
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.hpp"
#include "core/dispatcher.hpp"
#include "core/service.hpp"
#include "loadgen.hpp"
#include "net/server.hpp"
#include "stats.hpp"
#include "util/prng.hpp"
#include "workload/generator.hpp"
#include "workload/lead_schema.hpp"
#include "workload/query_gen.hpp"

namespace pb = perfbench;
using namespace hxrc;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

/// Reference: the smallest sample value v with count(x <= v) >= p * n,
/// found by scanning a sorted copy.
double reference_percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  for (const double x : v) {
    const auto at_or_below = static_cast<double>(
        std::upper_bound(v.begin(), v.end(), x) - v.begin());
    if (at_or_below >= p * static_cast<double>(v.size())) return x;
  }
  return v.back();
}

void test_percentiles() {
  util::Prng rng(7);
  bool all_match = true;
  for (const std::size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 4097u}) {
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<double> v;
      for (std::size_t i = 0; i < n; ++i) {
        // Ties on purpose: a percentile must land on a sample value.
        v.push_back(static_cast<double>(rng.uniform(0, static_cast<std::int64_t>(n / 2 + 1))));
      }
      std::vector<double> sorted = v;
      std::sort(sorted.begin(), sorted.end());
      for (const double p : {0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        if (pb::percentile_sorted(sorted, p) != reference_percentile(v, p)) all_match = false;
      }
      const pb::Summary s = pb::summarize(v);
      if (s.n != n || s.p50 != reference_percentile(v, 0.5) ||
          s.p99 != reference_percentile(v, 0.99)) {
        all_match = false;
      }
    }
  }
  check(all_match, "exact percentiles equal the sorted reference");
  check(pb::samples_beyond(1000, 0.99) == 10 && pb::samples_beyond(999, 0.99) == 9,
        "samples beyond p99 counted exactly");
  check(pb::summarize(std::vector<double>(1000, 1.0)).supported_pct == 99 &&
            pb::summarize(std::vector<double>(999, 1.0)).supported_pct == 90,
        "p99 is supported only with 10 samples beyond it");
}

void test_schedule() {
  const auto a = pb::poisson_schedule(42, 200, 5);
  const auto b = pb::poisson_schedule(42, 200, 5);
  const auto c = pb::poisson_schedule(43, 200, 5);
  check(a == b, "same seed gives an identical schedule");
  check(a != c, "another seed gives another schedule");
  check(a.size() == 1000, "schedule holds rate * seconds arrivals");
  check(std::is_sorted(a.begin(), a.end()) && a.front() >= 0 && a.back() < 5'000'000'000,
        "arrivals are ordered and inside the window");
  // Exponential gaps: the coefficient of variation is ~1.
  double mean = 0;
  double sq = 0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    const double gap = static_cast<double>(a[i] - a[i - 1]);
    mean += gap;
    sq += gap * gap;
  }
  const double k = static_cast<double>(a.size() - 1);
  mean /= k;
  const double cv = std::sqrt(sq / k - mean * mean) / mean;
  check(cv > 0.85 && cv < 1.15, "inter-arrival gaps look exponential");
}

struct StallServer {
  StallServer()
      : schema(workload::lead_schema()),
        catalog(schema, workload::lead_annotations(), [] {
          core::CatalogConfig config;
          config.cache.enabled = false;  // every request reaches a worker
          return config;
        }()) {
    workload::DocumentGenerator generator;
    for (int i = 0; i < 40; ++i) {
      catalog.ingest(generator.generate(static_cast<std::uint64_t>(i)),
                     "doc-" + std::to_string(i), "test");
    }
    core::DispatcherConfig config;
    config.workers = 1;
    config.before_execute = [this] {
      if (executed.fetch_add(1) == stall_at) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    };
    dispatcher = std::make_unique<core::ServiceDispatcher>(catalog, config);
    server = std::make_unique<net::CatalogServer>(*dispatcher);
    server->start();
  }
  ~StallServer() {
    server->drain();
    dispatcher->drain();
  }

  xml::Schema schema;
  core::MetadataCatalog catalog;
  std::atomic<int> executed{0};
  int stall_at = -1;
  std::unique_ptr<core::ServiceDispatcher> dispatcher;
  std::unique_ptr<net::CatalogServer> server;
};

struct Timing {
  std::vector<double> from_schedule_ms;
  std::vector<double> lag_ms;
  std::size_t failed = 0;
};

Timing drive(StallServer& s, const std::function<void(std::size_t)>& before_send) {
  const std::vector<std::string> bodies = {
      core::query_to_xml(workload::paper_example_query())};
  const std::vector<std::int64_t> at = pb::poisson_schedule(5, 200, 2);
  const std::vector<std::uint32_t> plan(at.size(), 0);
  pb::OpenLoopConfig config;
  config.port = s.server->port();
  config.before_send = before_send;
  const std::int64_t start = pb::now_ns() + 10'000'000;
  const pb::OpenLoopResult r = pb::run_open_loop(
      config, bodies, plan, at,
      [](std::uint32_t, std::string_view payload) {
        return payload.find("status=\"ok\"") != std::string_view::npos ? pb::Status::kOk
                                                                       : pb::Status::kError;
      },
      start);
  Timing t;
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    const pb::Outcome& o = r.outcomes[i];
    if (o.status != pb::Status::kOk) {
      ++t.failed;
      continue;
    }
    t.from_schedule_ms.push_back(static_cast<double>(o.done_ns - (start + at[i])) / 1e6);
    t.lag_ms.push_back(static_cast<double>(o.sent_ns - (start + at[i])) / 1e6);
  }
  return t;
}

std::size_t at_least(const std::vector<double>& v, double ms) {
  return static_cast<std::size_t>(std::count_if(v.begin(), v.end(), [ms](double x) {
    return x >= ms;
  }));
}

void test_server_stall() {
  StallServer quiet;
  const Timing base = drive(quiet, {});
  check(base.failed == 0, "baseline run: every request answered");
  check(pb::summarize(base.from_schedule_ms).p99 < 50, "baseline p99 stays well under 50 ms");

  StallServer stalled;
  stalled.stall_at = 150;
  const Timing t = drive(stalled, {});
  const pb::Summary s = pb::summarize(t.from_schedule_ms);
  check(t.failed == 0, "stalled run: every request answered");
  // At 200/s a 100 ms stall delays ~20 requests by up to 100 ms; timed from
  // their scheduled send they all carry the wait, so the stall dominates p99.
  check(at_least(t.from_schedule_ms, 50) >= 8, "requests queued behind the stall carry it");
  check(s.p99 >= 50, "a single 100 ms worker stall shows in p99");
  check(pb::summarize(t.lag_ms).p99 < 20, "the sender was not late: the stall is the server's");
}

void test_sender_lag() {
  StallServer quiet;
  const Timing t = drive(quiet, [](std::size_t i) {
    if (i == 150) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });
  check(t.failed == 0, "late-sender run: every request answered");
  check(at_least(t.lag_ms, 50) >= 8, "send lag reports the generator falling behind");
  check(pb::summarize(t.lag_ms).p99 >= 50, "send lag p99 shows a 100 ms sender stall");
  check(pb::summarize(t.from_schedule_ms).p99 >= 50,
        "latency from the scheduled time includes the sender's lateness");
}

}  // namespace

int main() {
  test_percentiles();
  test_schedule();
  test_server_stall();
  test_sender_lag();
  std::printf("%s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
