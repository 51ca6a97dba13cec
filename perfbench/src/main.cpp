// catalog_bench — the catalog's open-loop, layer-attributed benchmark.
//
//   catalog_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --workdir <dir>
//
// The catalog runs in-process and is driven over real loopback sockets.
// Single node: MetadataCatalog (auto-define on) + storage::DurableCatalog
// (default WalOptions: fsync every 20 ms or 256 records, sync on) +
// storage::PagedClobFile (4 MB segments, 8-segment LRU = 32 MB, the
// bench_scale settings) + ServiceDispatcher (4 workers) behind
// net::CatalogServer (2 event loops). Federation: the same catalog, paging
// and dispatcher (2 workers, no WAL) per shard, 2 shards behind a
// fed::FederationRouter served by its own CatalogServer.
//
// Every workload preloads the streamed scale-profile corpus
// (workload::scale_config: long boilerplate, ~16.8 KB documents, CLOB
// heavy) generated from --seed: 4000 documents, ~67 MB of XML, ~63 MB of
// it spilled to the page file, i.e. about twice the 32 MB segment LRU. The
// L2 response cache holds 4096 entries / 64 MB; a paged query response
// (20 documents) is ~340 KB, so ~190 of them fill it.
//
// Workloads (rates are offered load, open loop, Poisson arrivals, 3
// pipelined connections, one sender and one receiver thread):
//
//   read_cold   150 reads/s: 30% paged query (limit 20), 40% queryIds, 30%
//               fetch. Every request is distinct (fresh range thresholds, one
//               of 50k users, swept objects), so the request space is far
//               larger than L2. Paged queries use broad criteria (full first
//               pages of the lowest matching ids); fetches sweep the id space
//               slice by slice, so nearly every fetch misses the segment LRU.
//               Why: the Fig. 4 engine, the §5 response build and the CLOB
//               pager do the work; the query cache is bypassed.
//   read_hot    1000 reads/s over 256 distinct requests: 64 paged queries
//               (32 broad criteria x 2 users, full pages), 64 queryIds, 128
//               fetches. Kinds are drawn 30/40/30 as in read_cold, then a
//               request of the kind by Zipf rank (s=0.9), so the kind and
//               response-size mix does not vary with the seed. Warmed before
//               timing; their responses (~24 MB) fit in L2. Why: the L2 hit
//               path served inline on the event loops and the net layer; the
//               control on which engine/response/pager changes should show
//               no change.
//
// read_cold's traced run adds two phases whose figures are per-layer only:
//
//   live ingest one closed-loop writer connection ingests 1500 fresh scale
//               documents through the wire `ingest` request (WAL fsync on)
//               beside read_cold's mix at 40 reads/s: commit, registry copy,
//               a new snapshot (and cold cache segment) per commit, WAL group
//               commit next to reads.
//   federation  read_cold's mix and rate through a FederationRouter over 2
//               shard servers (2 workers each, no WAL), preloaded through the
//               router's wire ingest, one connection per shard's documents:
//               scatter legs and the k-way merge.
//
// Both were workloads of their own (ingest_live, fed_scatter) and were
// dropped as such: over 10 seeds their end-to-end figures spread 0.38-0.59
// (ingest_live: ingest rate and latency, read medians) and 0.2-0.6
// (fed_scatter) as IQR over median on a 4-core host, where a writer and
// readers sharing snapshots, or ~13 threads of a 2-shard topology, swing
// with the host's speed.
//
// Correctness inside the run: every response frame is checked for the
// echoed request id, protocol="1" and status="ok"; query pages must hold
// ascending ids, at most 20. Oracles recorded at set-up: query id sets from
// baselines::DomMatcher over the generated documents for 64 sampled
// criteria (1 in 8 query requests uses one); fetch bytes for every 16th
// object, answered in-process (CatalogService::handle, or the router's
// route() on a federation) on the first of the throwaway set-ups, so no
// request of the run is pre-cached on the serving one. On the federation, ids
// map through the preload's name -> gid table, so the comparison is of
// single-node name sets; in the live-ingest phase, answers may also hold a
// prefix of the fresh documents' matches. A mismatch counts as a failure
// and fails the run.
//
// End-to-end metrics (--trace 0), latency from the scheduled send time,
// exact percentiles over raw samples (sample counts and the highest
// percentile with 10 samples beyond it are in the detail line):
//   setup_s                     median of 5 full set-ups (stack + preload)
//   query_p50_ms, fetch_p50_ms  paged query / fetch latency
//   read_goodput_rps            ok reads / (last completion - window start)
//   peak_rss_mb                 RSS sampled during the window
//   stored_bytes_per_input_byte tables + page file + WAL over XML bytes
// Failures are `failed` of `attempted` in the result line (a metric may not
// be 0). Tails (p90/p99 of query, fetch and ingest) are per-layer figures:
// 10 s windows at these rates hold a few hundred samples per kind, too few
// for a steady p99, and the p90 of a cold read sits on the edge between
// requests that did and did not queue behind a 4 MB segment read. So are
// the preload's ingest rate and latency (e2e.ingest_*): the preload is ~95%
// of set-up, which setup_s bounds, and on their own they only repeat the
// host's speed (spreads up to 0.3 over 10 seeds).
//
// Per-layer metrics (--trace 1): half the window untraced, half traced;
// spans come from decorators over the program's public interfaces (see
// trace.hpp) plus a sampled in-process replay of read requests
// (parse_arena -> query_from_xml -> query(q, &info) -> build_response).
// Which end-to-end metric each layer metric should move:
//
//   net.*            query_p50_ms on read_hot; e2e.query_p99_ms on read_cold
//   dispatcher.*     e2e.query_p99_ms on read_cold
//   cache.*          query_p50_ms on read_hot (~no effect on read_cold)
//   xml.*            query_p50_ms on read_cold; setup_s
//   engine.*         query_p50_ms on read_cold
//   response.*       query_p50_ms, fetch_p50_ms on read_cold
//   clob.*           fetch_p50_ms, e2e.fetch_p99_ms on read_cold; peak_rss_mb
//   catalog/registry/mvcc/ingest.*   setup_s; live.ingest_docs_per_s
//   wal.*            e2e.ingest_p99_ms; live.ingest_p99_ms
//   fed.*            latency through a router (no bounded metric yet)
//   driver.send_lag_p99_ms, trace.overhead_frac: validity of the run (a
//                    run whose generator fell behind is reported, not scored)
//
// Data dir, WAL and page files live in a temp dir under --workdir that is
// removed at exit; spans are written to <workdir>/traces/.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/dom_matcher.hpp"
#include "core/catalog.hpp"
#include "core/dispatcher.hpp"
#include "core/service.hpp"
#include "fed/merge.hpp"
#include "fed/router.hpp"
#include "loadgen.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "stats.hpp"
#include "storage/clob_pager.hpp"
#include "storage/recovery.hpp"
#include "trace.hpp"
#include "util/prng.hpp"
#include "workload/generator.hpp"
#include "workload/lead_schema.hpp"
#include "workload/query_gen.hpp"
#include "workload/scale.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace pb = perfbench;
namespace hc = hxrc::core;
namespace fs = std::filesystem;
using namespace hxrc;

namespace {

// ---------------------------------------------------------------------------
// Workload table.

struct WorkloadSpec {
  const char* name;
  bool hot;
  double read_rate;  // offered reads per second (open loop)
  /// The traced run also runs the live-ingest and the federation phases.
  bool extra_phases;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"read_cold", false, 150, true},
    {"read_hot", true, 1000, false},
};

// Live-ingest phase: a closed-loop wire writer beside cold reads at this rate.
constexpr std::size_t kLiveDocs = 1500;
constexpr double kLiveReadRate = 40;

constexpr std::size_t kDocs = 4000;
constexpr int kValueCardinality = 7;   // ~ the 10k tier's 16, scaled to 4k docs
constexpr std::size_t kOracleCriteria = 64;
constexpr std::size_t kFetchOracleStride = 16;
constexpr std::size_t kFetchSlices = 16;  // ~ the 16 page-file segments of 4000 docs
constexpr std::size_t kHotFetches = 128;
constexpr double kHotZipf = 0.9;  // Zipf exponent of read_hot's ranks
constexpr std::size_t kQueryLimit = 20;
constexpr std::size_t kUsers = 50'000;
constexpr int kSetups = 5;
constexpr std::size_t kShards = 2;
constexpr double kWarmupSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "catalog_bench: %s\nusage: catalog_bench --workload <read_cold|read_hot> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir>\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workdir.empty()) usage("--workdir is required");
  if (args.seconds <= 0) usage("--seconds must be positive");
  return args;
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return spec;
  }
  usage(("unknown workload '" + name + "'").c_str());
}

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

const std::int64_t kProcessStart = pb::now_ns();

/// Progress line on stderr, stamped with seconds since start.
template <typename... T>
void note(const char* format, T... args) {
  std::fprintf(stderr, "[perfbench %7.2fs] ", seconds_between(kProcessStart, pb::now_ns()));
  std::fprintf(stderr, format, args...);
  std::fputc('\n', stderr);
}

double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

/// Removes the run's temp dir on every exit path.
struct TempDir {
  explicit TempDir(const std::string& parent) {
    fs::create_directories(parent);
    std::string pattern = parent + "/run-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
    path = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  std::string path;
};

// ---------------------------------------------------------------------------
// Corpus and oracles.

struct Criterion {
  std::string group;
  std::string model;
  std::string param;
  double value = 0;
  hc::CompareOp op = hc::CompareOp::kEq;
};

hc::ObjectQuery to_query(const Criterion& c) {
  return workload::dynamic_param_query(c.group, c.model, c.param, c.value, c.op);
}

/// A dynamic-parameter criterion. Broad criteria (paged `query`) are range
/// predicates that admit 6 of the 7 stored values, so a first page holds the
/// lowest matching ids and a full page is the norm; narrow ones (`queryIds`)
/// are equalities or ranges at any threshold. Range thresholds fall strictly
/// between two stored values: every draw is a distinct request with a well
/// defined answer.
Criterion random_criterion(util::Prng& rng, bool broad) {
  Criterion c;
  c.group = rng.pick(workload::grid_group_names());
  c.model = rng.pick(workload::model_names());
  c.param = rng.pick(workload::parameter_names());
  const double step = workload::parameter_value(c.param, 0);
  const double between = step * rng.uniform_real(0.05, 0.95);
  const double roll = rng.uniform01();
  if (broad) {
    c.op = roll < 0.5 ? hc::CompareOp::kGe : hc::CompareOp::kLt;
    const int v = c.op == hc::CompareOp::kGe ? 0 : kValueCardinality - 2;
    c.value = workload::parameter_value(c.param, v) + between;
    return c;
  }
  const int v = static_cast<int>(rng.uniform(0, kValueCardinality - 1));
  c.value = workload::parameter_value(c.param, v);
  if (roll >= 0.5) {
    c.op = roll < 0.75 ? hc::CompareOp::kLt : hc::CompareOp::kGe;
    c.value += between;
  }
  return c;
}

struct Corpus {
  std::vector<std::string> texts;        // preload documents
  std::vector<std::string> fresh;        // writer documents (live-ingest phase)
  std::size_t preload_bytes = 0;
  std::vector<Criterion> criteria;       // oracle criteria
  std::vector<std::vector<std::uint32_t>> match_preload;  // doc indices, ascending
  std::vector<std::vector<std::uint32_t>> match_fresh;    // fresh indices, ascending
  std::vector<std::string> parse_samples;  // for the document-parse replay
};

Corpus make_corpus(std::uint64_t seed, std::size_t fresh_docs) {
  Corpus corpus;
  const workload::ScaleTier tier{"perfbench", kDocs, kValueCardinality};
  workload::GeneratorConfig config = workload::scale_config(tier);
  config.seed = seed;
  workload::DocumentGenerator generator(config);

  util::Prng rng(seed ^ 0x0c0ffee5eedULL);
  // Even indices broad (paged `query`), odd ones narrow (`queryIds`).
  for (std::size_t i = 0; i < kOracleCriteria; ++i) {
    corpus.criteria.push_back(random_criterion(rng, i % 2 == 0));
  }
  std::vector<hc::ObjectQuery> queries;
  for (const Criterion& c : corpus.criteria) queries.push_back(to_query(c));
  corpus.match_preload.resize(kOracleCriteria);
  corpus.match_fresh.resize(kOracleCriteria);

  // The matcher needs only the partition, which an empty catalog provides.
  const xml::Schema schema = workload::lead_schema();
  const hc::MetadataCatalog empty(schema, workload::lead_annotations());
  const baselines::DomMatcher matcher(empty.partition());

  for (std::size_t i = 0; i < kDocs + fresh_docs; ++i) {
    const xml::Document doc = generator.generate(i);
    std::string text = xml::write(doc);
    const bool fresh = i >= kDocs;
    const auto index = static_cast<std::uint32_t>(fresh ? i - kDocs : i);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      if (matcher.matches(doc, queries[q])) {
        (fresh ? corpus.match_fresh : corpus.match_preload)[q].push_back(index);
      }
    }
    if (i % 80 == 0) corpus.parse_samples.push_back(text);
    if (fresh) {
      corpus.fresh.push_back(std::move(text));
    } else {
      corpus.preload_bytes += text.size();
      corpus.texts.push_back(std::move(text));
    }
  }
  return corpus;
}

std::string doc_name(std::size_t index) { return "lead-" + std::to_string(index); }

std::string ingest_body(const std::string& text, const std::string& name) {
  return "<catalogRequest type=\"ingest\" version=\"1\" name=\"" + name +
         "\" user=\"bench\">" + text + "</catalogRequest>";
}

std::string fetch_body(std::uint64_t id, const std::string& user) {
  return "<catalogRequest type=\"fetch\" version=\"1\" objectID=\"" + std::to_string(id) +
         "\" user=\"" + user + "\"/>";
}

std::string query_body(const Criterion& c, const std::string& user, bool ids_only) {
  hc::ObjectQuery q = to_query(c);
  q.set_user(user);
  if (!ids_only) q.set_limit(kQueryLimit);
  std::string body = hc::query_to_xml(q);
  if (ids_only) body.replace(0, 28, "<catalogRequest type=\"queryIds\"");
  return body;
}

// ---------------------------------------------------------------------------
// Stacks.

hc::CatalogConfig catalog_config() {
  hc::CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  return config;
}

struct NodeStack {
  NodeStack(const std::string& dir, bool durable_on, std::size_t workers,
            std::size_t event_threads, pb::TimedBroker::Role broker_role)
      : schema(workload::lead_schema()),
        pages(std::make_unique<storage::PagedClobFile>(dir + "/clob.pages")),
        pager(std::make_unique<pb::TimedPager>(*pages)),
        fs(std::make_unique<pb::TimedFs>(storage::real_fs())),
        catalog(std::make_unique<hc::MetadataCatalog>(schema, workload::lead_annotations(),
                                                      catalog_config())),
        role(broker_role) {
    catalog->database().clobs().enable_paging(pager.get(), 4u << 20, 8);
    if (durable_on) {
      storage::DurabilityConfig config;
      config.data_dir = dir + "/data";
      durable = std::make_unique<storage::DurableCatalog>(*catalog, config, *fs);
    }
    dispatch.workers = workers;
    dispatch.before_execute = pb::begin_exec;
    server_config.event_threads = event_threads;
  }

  /// Starts the dispatcher and server once the preload is in.
  void serve() {
    catalog->database().clobs().flush();
    dispatcher = std::make_unique<hc::ServiceDispatcher>(*catalog, dispatch);
    broker = std::make_unique<pb::TimedBroker>(*dispatcher, role);
    server = std::make_unique<net::CatalogServer>(*broker, server_config);
    server->start();
  }

  void stop() {
    if (server) server->drain();
    if (dispatcher) dispatcher->drain();
    if (durable) durable->close();
  }

  ~NodeStack() { stop(); }

  NodeStack(const NodeStack&) = delete;
  NodeStack& operator=(const NodeStack&) = delete;

  std::size_t stored_bytes() const {
    return catalog->database().approx_bytes() + pages->file_bytes() +
           (durable ? durable->metrics().wal_bytes.load() : 0);
  }

  xml::Schema schema;
  std::unique_ptr<storage::PagedClobFile> pages;
  std::unique_ptr<pb::TimedPager> pager;
  std::unique_ptr<pb::TimedFs> fs;
  std::unique_ptr<hc::MetadataCatalog> catalog;
  std::unique_ptr<storage::DurableCatalog> durable;
  pb::TimedBroker::Role role;
  hc::DispatcherConfig dispatch;
  net::ServerConfig server_config;
  std::unique_ptr<hc::ServiceDispatcher> dispatcher;
  std::unique_ptr<pb::TimedBroker> broker;
  std::unique_ptr<net::CatalogServer> server;
};

/// One single-node or federated deployment, preloaded.
struct Deployment {
  std::vector<std::unique_ptr<NodeStack>> nodes;  // 1 (single) or the shards
  std::unique_ptr<fed::FederationRouter> router;
  std::unique_ptr<pb::TimedBroker> router_broker;
  std::unique_ptr<net::CatalogServer> front;
  std::vector<std::uint64_t> id_of_doc;  // server-visible id per preload doc
  std::vector<double> ingest_ms;         // per preload document
  double preload_s = 0;                  // wall time of the preload alone
  double setup_s = 0;

  std::uint16_t port() const { return front ? front->port() : nodes[0]->server->port(); }
  /// The broker the load generator's connections reach first.
  pb::TimedBroker& front_broker() { return router_broker ? *router_broker : *nodes[0]->broker; }
  NodeStack& node() { return *nodes[0]; }

  void stop() {
    if (front) front->drain();
    if (router) router->drain();
    for (auto& n : nodes) n->stop();
  }
  ~Deployment() { stop(); }
};

std::unique_ptr<Deployment> deploy(bool federated, const Corpus& corpus,
                                   const std::string& dir) {
  auto d = std::make_unique<Deployment>();
  const std::int64_t t0 = pb::now_ns();
  d->ingest_ms.reserve(kDocs);
  if (!federated) {
    fs::create_directories(dir);
    d->nodes.push_back(std::make_unique<NodeStack>(dir, true, 4, 2,
                                                   pb::TimedBroker::Role::kDispatcher));
    hc::MetadataCatalog& catalog = *d->node().catalog;
    const std::int64_t p0 = pb::now_ns();
    for (std::size_t i = 0; i < corpus.texts.size(); ++i) {
      const std::int64_t a = pb::now_ns();
      const hc::ObjectId id = catalog.ingest_xml(corpus.texts[i], doc_name(i), "bench");
      d->ingest_ms.push_back(static_cast<double>(pb::now_ns() - a) / 1e6);
      if (id != static_cast<hc::ObjectId>(i)) throw std::runtime_error("preload id skew");
      d->id_of_doc.push_back(static_cast<std::uint64_t>(id));
    }
    d->preload_s = seconds_between(p0, pb::now_ns());
    d->node().serve();
  } else {
    fed::RouterOptions options;
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::string shard_dir = dir + "/shard" + std::to_string(s);
      fs::create_directories(shard_dir);
      d->nodes.push_back(std::make_unique<NodeStack>(shard_dir, false, 2, 1,
                                                     pb::TimedBroker::Role::kShard));
      d->nodes.back()->serve();
      fed::ShardEndpoint endpoint;
      endpoint.primary_port = d->nodes.back()->server->port();
      options.shards.push_back(endpoint);
    }
    options.workers = 4;
    options.io_timeout_ms = 10000;
    options.probe_interval_ms = 0;
    d->router = std::make_unique<fed::FederationRouter>(std::move(options));
    d->router_broker =
        std::make_unique<pb::TimedBroker>(*d->router, pb::TimedBroker::Role::kRouter);
    net::ServerConfig front_config;
    front_config.event_threads = 2;
    d->front = std::make_unique<net::CatalogServer>(*d->router_broker, front_config);
    d->front->start();
    // One closed-loop connection per shard's documents (placement is the
    // router's own name hash), so the shards ingest in parallel while each
    // shard still sees its documents in corpus order and assigns the same
    // gids on every set-up.
    d->id_of_doc.assign(corpus.texts.size(), 0);
    d->ingest_ms.assign(corpus.texts.size(), 0);
    std::vector<std::string> errors(kShards);
    std::vector<std::thread> loaders;
    const std::int64_t p0 = pb::now_ns();
    for (std::uint32_t s = 0; s < kShards; ++s) {
      loaders.emplace_back([&, s] {
        try {
          net::BlockingClient client("127.0.0.1", d->front->port());
          for (std::size_t i = 0; i < corpus.texts.size(); ++i) {
            if (fed::placement_shard(doc_name(i), kShards) != s) continue;
            const std::int64_t a = pb::now_ns();
            const std::string response = client.call(ingest_body(corpus.texts[i], doc_name(i)));
            d->ingest_ms[i] = static_cast<double>(pb::now_ns() - a) / 1e6;
            const std::size_t at = response.find("<objectID>");
            if (hc::peek_request_attr(response, "status") != "ok" || at == std::string::npos) {
              throw std::runtime_error("federated preload failed: " + response.substr(0, 300));
            }
            d->id_of_doc[i] = std::stoull(response.substr(at + 10));
          }
        } catch (const std::exception& e) {
          errors[s] = e.what();
        }
      });
    }
    for (std::thread& t : loaders) t.join();
    d->preload_s = seconds_between(p0, pb::now_ns());
    for (const std::string& e : errors) {
      if (!e.empty()) throw std::runtime_error(e);
    }
    // Shards are quiet now: seal their CLOB tails like the single node.
    for (auto& n : d->nodes) n->catalog->database().clobs().flush();
  }
  d->setup_s = seconds_between(t0, pb::now_ns());
  return d;
}

// ---------------------------------------------------------------------------
// Requests and the oracle check.

enum class Kind : std::uint8_t { kQuery, kQueryIds, kFetch };

struct RequestInfo {
  Kind kind = Kind::kQuery;
  std::int32_t criterion = -1;  // oracle criterion, or -1
  std::uint64_t object = 0;     // fetch target (server id)
};

struct RequestTable {
  std::vector<std::string> bodies;
  std::vector<RequestInfo> info;
  std::size_t fetches = 0;  // cold fetches drawn so far (the sweep position)
  std::uint32_t add(std::string body, RequestInfo i) {
    bodies.push_back(std::move(body));
    info.push_back(i);
    return static_cast<std::uint32_t>(bodies.size() - 1);
  }
};

struct Oracle {
  /// Per criterion: expected server ids, ascending; fresh documents'
  /// matches (live-ingest phase) follow the preload's, already ascending.
  std::vector<std::vector<std::uint64_t>> preload;
  std::vector<std::vector<std::uint64_t>> fresh;
  std::map<std::uint64_t, std::string> fetch;  // server id -> response bytes
  std::vector<std::uint64_t> fetch_ids;        // keys of `fetch`, in doc order
  bool live = false;                           // catalog changes during the run
};

std::vector<std::uint64_t> parse_ids(std::string_view payload, std::string_view open,
                                     bool& ok) {
  std::vector<std::uint64_t> ids;
  std::size_t at = 0;
  while ((at = payload.find(open, at)) != std::string_view::npos) {
    at += open.size();
    std::uint64_t v = 0;
    std::size_t digits = 0;
    while (at < payload.size() && payload[at] >= '0' && payload[at] <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(payload[at] - '0');
      ++at;
      ++digits;
    }
    if (digits == 0) ok = false;
    if (!ids.empty() && v <= ids.back()) ok = false;  // must be ascending
    ids.push_back(v);
  }
  return ids;
}

std::string_view after_root_tag(std::string_view payload) {
  const std::size_t end = payload.find('>');
  return end == std::string_view::npos ? std::string_view{} : payload.substr(end + 1);
}

struct Checker {
  const RequestTable& table;
  const Oracle& oracle;
  std::uint64_t oracle_checks = 0;
  std::uint64_t oracle_mismatches = 0;

  pb::Status operator()(std::uint32_t body, std::string_view payload) {
    const std::string_view head = payload.substr(0, payload.find('>') + 1);
    if (hc::peek_request_attr(head, "status") != "ok" ||
        hc::peek_request_attr(head, "protocol") != "1") {
      return pb::Status::kError;
    }
    const RequestInfo& info = table.info[body];
    if (info.kind == Kind::kFetch) {
      const std::string tag = "<result objectID=\"" + std::to_string(info.object) + "\">";
      if (payload.find(tag) == std::string_view::npos) return pb::Status::kMangled;
      const auto recorded = oracle.fetch.find(info.object);
      if (recorded == oracle.fetch.end()) return pb::Status::kOk;
      ++oracle_checks;
      const std::string& expected = recorded->second;
      const bool same = oracle.live ? after_root_tag(payload) == after_root_tag(expected)
                                    : payload == expected;
      if (same) return pb::Status::kOk;
      ++oracle_mismatches;
      return pb::Status::kMismatch;
    }
    bool ok = true;
    const std::vector<std::uint64_t> ids =
        info.kind == Kind::kQuery ? parse_ids(payload, "<result objectID=\"", ok)
                                  : parse_ids(payload, "<objectID>", ok);
    if (!ok || (info.kind == Kind::kQuery && ids.size() > kQueryLimit)) {
      return pb::Status::kMangled;
    }
    if (info.criterion < 0) return pb::Status::kOk;
    ++oracle_checks;
    // Expected answer: a prefix of preload ++ fresh that covers at least the
    // whole preload (fresh documents exist only in the live-ingest phase and
    // are visible up to the snapshot the request read), cut at the page limit.
    const auto& pre = oracle.preload[static_cast<std::size_t>(info.criterion)];
    const auto& fresh = oracle.fresh[static_cast<std::size_t>(info.criterion)];
    const std::size_t total = pre.size() + (oracle.live ? fresh.size() : 0);
    bool match = ids.size() <= total;
    for (std::size_t k = 0; match && k < ids.size(); ++k) {
      const std::uint64_t want = k < pre.size() ? pre[k] : fresh[k - pre.size()];
      match = ids[k] == want;
    }
    const bool full_page = info.kind == Kind::kQuery && ids.size() == kQueryLimit;
    if (match && !full_page && ids.size() < pre.size()) match = false;
    if (match) return pb::Status::kOk;
    ++oracle_mismatches;
    return pb::Status::kMismatch;
  }
};

Oracle build_oracle(const Corpus& corpus, const Deployment& d) {
  Oracle oracle;
  for (std::size_t q = 0; q < corpus.criteria.size(); ++q) {
    std::vector<std::uint64_t> ids;
    for (const std::uint32_t doc : corpus.match_preload[q]) ids.push_back(d.id_of_doc[doc]);
    std::sort(ids.begin(), ids.end());
    oracle.preload.push_back(std::move(ids));
    std::vector<std::uint64_t> fresh;
    for (const std::uint32_t j : corpus.match_fresh[q]) fresh.push_back(kDocs + j);
    oracle.fresh.push_back(std::move(fresh));
  }
  return oracle;
}

/// Fetch answers computed in-process on a throwaway deployment, before any
/// load: CatalogService::handle on the single node, the router's own
/// synchronous route() on a federation.
void record_fetch_oracle(Oracle& oracle, Deployment& d) {
  std::unique_ptr<hc::CatalogService> service;
  if (!d.router) service = std::make_unique<hc::CatalogService>(*d.node().catalog);
  for (std::size_t doc = 0; doc < d.id_of_doc.size(); doc += kFetchOracleStride) {
    const std::uint64_t id = d.id_of_doc[doc];
    const std::string body = fetch_body(id, "oracle");
    oracle.fetch[id] = service ? service->handle(body) : d.router->route(body);
    oracle.fetch_ids.push_back(id);
  }
}

/// read_cold's mix: every request distinct.
std::uint32_t add_cold_request(RequestTable& table, util::Prng& rng, const Corpus& corpus,
                               const Deployment& d) {
  const std::string user = "u" + std::to_string(rng.uniform(0, kUsers - 1));
  const double roll = rng.uniform01();
  RequestInfo info;
  if (roll < 0.7) {
    info.kind = roll < 0.3 ? Kind::kQuery : Kind::kQueryIds;
    const bool broad = info.kind == Kind::kQuery;
    Criterion c;
    if (rng.chance(1.0 / 8)) {
      const auto pick = rng.uniform(0, kOracleCriteria / 2 - 1) * 2 + (broad ? 0 : 1);
      info.criterion = static_cast<std::int32_t>(pick);
      c = corpus.criteria[static_cast<std::size_t>(info.criterion)];
    } else {
      c = random_criterion(rng, broad);
    }
    return table.add(query_body(c, user, info.kind == Kind::kQueryIds), info);
  }
  info.kind = Kind::kFetch;
  // Fetches sweep the id space in kFetchSlices slices, in order, uniformly
  // at random within each slice: a crawler-like stream whose next segment
  // is always one the 8-segment LRU evicted ~16 fetches ago. Uniform random
  // ids would hit the LRU about half the time, which puts the fetch median
  // on the edge between the hit and the miss latency.
  const std::size_t slice = table.fetches++ % kFetchSlices;
  const std::size_t width = kDocs / kFetchSlices;
  const auto doc = slice * width + static_cast<std::size_t>(rng.uniform(0, width - 1));
  info.object = d.id_of_doc[doc];
  return table.add(fetch_body(info.object, user), info);
}

/// Zipf(s) ranks over n items: rank r drawn with weight 1/(r+1)^s.
struct Zipf {
  Zipf(std::size_t n, double s) {
    double total = 0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
  }
  std::size_t draw(util::Prng& rng) const {
    return static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.uniform01()) - cdf.begin());
  }
  std::vector<double> cdf;
};

/// read_hot's 256 distinct requests, one list per kind: 64 paged queries
/// (the 32 broad oracle criteria, two users each, so every page is full),
/// 64 queryIds (every oracle criterion) and 128 fetches. A draw picks the
/// kind in read_cold's 30/40/30 mix, then a request of that kind by Zipf
/// rank, so the mix of kinds, and of response sizes, is the same for every
/// seed; only which request holds which rank follows the seed.
struct HotSet {
  std::vector<std::uint32_t> by_kind[3];
  std::vector<Zipf> zipf;

  std::uint32_t draw(util::Prng& rng) const {
    const double roll = rng.uniform01();
    const std::size_t k = roll < 0.3 ? 0 : roll < 0.7 ? 1 : 2;
    return by_kind[k][zipf[k].draw(rng)];
  }
  std::vector<std::uint32_t> all() const {
    std::vector<std::uint32_t> out;
    for (const auto& list : by_kind) out.insert(out.end(), list.begin(), list.end());
    return out;
  }
};

HotSet add_hot_requests(RequestTable& table, const Corpus& corpus, const Oracle& oracle,
                        std::uint64_t seed) {
  HotSet hot;
  for (std::size_t q = 0; q < corpus.criteria.size(); ++q) {
    RequestInfo info;
    info.criterion = static_cast<std::int32_t>(q);
    info.kind = Kind::kQueryIds;
    hot.by_kind[1].push_back(table.add(query_body(corpus.criteria[q], "hot", true), info));
    if (q % 2 != 0) continue;  // odd criteria are narrow: short pages
    info.kind = Kind::kQuery;
    for (const char* user : {"hot", "hot2"}) {
      hot.by_kind[0].push_back(table.add(query_body(corpus.criteria[q], user, false), info));
    }
  }
  for (std::size_t f = 0; f < kHotFetches && f < oracle.fetch_ids.size(); ++f) {
    RequestInfo info;
    info.kind = Kind::kFetch;
    info.object = oracle.fetch_ids[f];
    hot.by_kind[2].push_back(table.add(fetch_body(info.object, "hot"), info));
  }
  // Random rank -> request assignment, from the seed.
  util::Prng shuffle(seed + 99);
  for (auto& list : hot.by_kind) {
    shuffle.shuffle(list);
    hot.zipf.emplace_back(list.size(), kHotZipf);
  }
  return hot;
}

// ---------------------------------------------------------------------------
// Counters sampled around the traced window.

struct Counters {
  std::uint64_t l1_hits = 0, l1_misses = 0, l2_hits = 0, l2_misses = 0, l2_evictions = 0;
  std::uint64_t inline_served = 0;
  std::uint64_t frames_out = 0, bytes_out = 0, read_pauses = 0, write_pauses = 0;
  std::uint64_t wal_records = 0, wal_bytes = 0, wal_fsyncs = 0;
  std::uint64_t snapshots = 0, docs = 0, rows = 0;
  std::uint64_t seg_hits = 0, seg_misses = 0;
  std::uint64_t pager_reads = 0, pager_bytes = 0, pager_writes = 0;
};

Counters read_counters(Deployment& d) {
  Counters c;
  const net::CatalogServer& server = d.front ? *d.front : *d.node().server;
  c.frames_out = server.stats().frames_out.load();
  c.bytes_out = server.stats().bytes_out.load();
  c.read_pauses = server.stats().pauses.read_pauses.load();
  c.write_pauses = server.stats().pauses.write_pauses.load();
  for (auto& n : d.nodes) {
    const util::CacheMetrics& m = n->catalog->cache_metrics();
    c.l1_hits += m.l1.hits.load();
    c.l1_misses += m.l1.misses.load();
    c.l2_hits += m.l2.hits.load();
    c.l2_misses += m.l2.misses.load();
    c.l2_evictions += m.l2.evictions.load();
    c.inline_served += m.inline_served.load();
    if (n->durable) {
      c.wal_records += n->durable->metrics().wal_records.load();
      c.wal_bytes += n->durable->metrics().wal_bytes.load();
      c.wal_fsyncs += n->durable->metrics().wal_fsyncs.load();
    }
    c.snapshots += n->catalog->mvcc_stats().snapshots_published;
    c.docs += n->catalog->ingest_metrics().documents.load();
    c.rows += n->catalog->ingest_metrics().element_rows.load();
    c.seg_hits += n->catalog->database().clobs().cache_hits();
    c.seg_misses += n->catalog->database().clobs().cache_misses();
    c.pager_reads += n->pager->reads.load();
    c.pager_bytes += n->pager->read_bytes.load();
    c.pager_writes += n->pager->writes.load();
  }
  return c;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// One measured window.

struct WindowResult {
  std::vector<double> query_ms, ids_ms, fetch_ms, lag_ms, writer_ms, all_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t ok_reads = 0;
  double read_span_s = 0;
  double writer_docs_per_s = 0;
  double peak_rss_mb = 0;
  std::uint64_t foreign = 0;
  std::vector<pb::Outcome> outcomes;
  std::int64_t start_ns = 0;
  std::vector<std::int64_t> at;
};

struct Writer {
  std::vector<std::string> bodies;
  std::size_t next = 0;          // fresh documents already ingested
  std::uint64_t next_id = kDocs; // expected object id of the next ingest
};

WindowResult run_window(Deployment& d, const RequestTable& table,
                        const std::vector<std::uint32_t>& plan,
                        const std::vector<std::int64_t>& at, Checker& check, Writer* writer,
                        std::size_t writer_docs, pb::RequestJoin* join) {
  WindowResult w;
  w.at = at;
  double peak = rss_mb();
  pb::OpenLoopConfig config;
  config.port = d.port();
  config.join = join;
  config.tick = [&peak] { peak = std::max(peak, rss_mb()); };
  const std::int64_t start = pb::now_ns() + 20'000'000;
  w.start_ns = start;

  std::vector<double> writer_ms;
  std::size_t writer_failed = 0;
  double writer_s = 0;
  std::thread writer_thread;
  if (writer != nullptr && writer_docs > 0) {
    writer_thread = std::thread([&] {
      net::BlockingClient client("127.0.0.1", d.port());
      pb::wait_until(start);
      const std::int64_t w0 = pb::now_ns();
      for (std::size_t k = 0; k < writer_docs && writer->next < writer->bodies.size(); ++k) {
        const std::string& body = writer->bodies[writer->next++];
        const std::int64_t a = pb::now_ns();
        bool good = false;
        try {
          const std::uint32_t id = client.send_request(body);
          const net::Frame frame = client.recv_frame();
          const std::string_view p = frame.payload;
          const std::string want = "<objectID>" + std::to_string(writer->next_id) + "<";
          good = frame.request_id == id && frame.type == net::FrameType::kResponse &&
                 hc::peek_request_attr(p.substr(0, p.find('>') + 1), "status") == "ok" &&
                 hc::peek_request_attr(p.substr(0, p.find('>') + 1), "protocol") == "1" &&
                 p.find(want) != std::string_view::npos;
        } catch (const std::exception&) {
          good = false;
        }
        ++writer->next_id;
        writer_ms.push_back(static_cast<double>(pb::now_ns() - a) / 1e6);
        if (!good) ++writer_failed;
      }
      writer_s = seconds_between(w0, pb::now_ns());
    });
  }

  pb::OpenLoopResult result;
  try {
    result = pb::run_open_loop(config, table.bodies, plan, at, std::ref(check), start);
  } catch (...) {
    if (writer_thread.joinable()) writer_thread.join();
    throw;
  }
  if (writer_thread.joinable()) writer_thread.join();

  std::int64_t last_done = start;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const pb::Outcome& o = result.outcomes[i];
    const std::int64_t due = start + at[i];
    w.lag_ms.push_back(static_cast<double>(o.sent_ns - due) / 1e6);
    ++w.attempted;
    if (o.status != pb::Status::kOk) {
      ++w.failed;
      continue;
    }
    const double ms = static_cast<double>(o.done_ns - due) / 1e6;
    const Kind kind = table.info[plan[i]].kind;
    (kind == Kind::kFetch ? w.fetch_ms : kind == Kind::kQuery ? w.query_ms : w.ids_ms)
        .push_back(ms);
    w.all_ms.push_back(ms);
    ++w.ok_reads;
    last_done = std::max(last_done, o.done_ns);
  }
  w.read_span_s = seconds_between(start, last_done);
  w.failed += result.foreign_frames;
  w.foreign = result.foreign_frames;
  w.writer_ms = std::move(writer_ms);
  w.attempted += w.writer_ms.size();
  w.failed += writer_failed;
  w.writer_docs_per_s = ratio(static_cast<double>(w.writer_ms.size()), writer_s);
  w.peak_rss_mb = peak;
  w.outcomes = std::move(result.outcomes);
  return w;
}

/// Draws a window's plan: arrivals from the seed, one request per arrival.
struct Plan {
  std::vector<std::int64_t> at;
  std::vector<std::uint32_t> requests;
};

Plan make_plan(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
               RequestTable& table, const Corpus& corpus, const Deployment& d,
               const HotSet* hot) {
  Plan plan;
  plan.at = pb::poisson_schedule(seed, spec.read_rate, seconds);
  util::Prng rng(seed * 0x9e3779b97f4a7c15ULL + 0x51);
  for (std::size_t i = 0; i < plan.at.size(); ++i) {
    plan.requests.push_back(spec.hot ? hot->draw(rng)
                                     : add_cold_request(table, rng, corpus, d));
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string summary_json(const pb::Summary& s) {
  return "{\"n\": " + std::to_string(s.n) + ", \"p50\": " + json_number(s.p50) +
         ", \"p90\": " + json_number(s.p90) +
         ", \"p99\": " + json_number(s.p99) +
         ", \"supported_pct\": " + json_number(s.supported_pct) + "}";
}

// ---------------------------------------------------------------------------
// In-process replay (traced run only).

struct ReplayResult {
  std::uint64_t queries = 0, results = 0, rows_scanned = 0, probes = 0, candidates = 0;
  std::uint64_t materialized = 0, fast_path = 0;
  std::uint64_t response_bytes = 0, response_objects = 0;
};

ReplayResult replay(hc::MetadataCatalog& catalog, const RequestTable& table,
                    const std::vector<std::uint32_t>& sample, const Corpus& corpus) {
  ReplayResult r;
  pb::Tracer& t = pb::tracer();
  pb::ExecContext& ctx = pb::exec_context();
  for (const std::uint32_t body_index : sample) {
    const std::string& body = table.bodies[body_index];
    const RequestInfo& info = table.info[body_index];
    const std::int64_t rid = t.next_id();
    const std::int64_t r0 = pb::now_ns();
    const xml::Document doc = xml::parse_arena(body);
    const std::int64_t r1 = pb::now_ns();
    t.record(pb::Span{pb::kReplayParse, r0, r1, t.next_id(), rid, -1});
    std::vector<hc::ObjectId> page;
    if (info.kind == Kind::kFetch) {
      page.push_back(static_cast<hc::ObjectId>(info.object));
    } else {
      const hc::ObjectQuery q = hc::query_from_xml(*doc.root);
      const std::int64_t r2 = pb::now_ns();
      t.record(pb::Span{pb::kReplayDecode, r1, r2, t.next_id(), rid, -1});
      hc::QueryPlanInfo plan;
      const std::vector<hc::ObjectId> ids = catalog.query(q, &plan);
      const std::int64_t r3 = pb::now_ns();
      t.record(pb::Span{pb::kReplayEngine, r2, r3, t.next_id(), rid, -1});
      ++r.queries;
      r.results += ids.size();
      r.rows_scanned += plan.rows_scanned;
      r.probes += plan.index_probes;
      r.candidates += plan.candidate_rows;
      r.materialized += plan.rows_materialized;
      r.fast_path += plan.fast_path ? 1 : 0;
      if (info.kind == Kind::kQuery) {
        page.assign(ids.begin(), ids.begin() + std::min(ids.size(), kQueryLimit));
      }
    }
    if (!page.empty()) {
      const std::int64_t b0 = pb::now_ns();
      ctx = pb::ExecContext{t.next_id(), b0, true};
      const std::string response = catalog.read_guard().build_response(page);
      const std::int64_t b1 = pb::now_ns();
      t.record(pb::Span{pb::kReplayResponse, b0, b1, ctx.id, rid, -1});
      ctx.active = false;
      r.response_bytes += response.size();
      r.response_objects += page.size();
    }
    t.record(pb::Span{pb::kReplayRequest, r0, pb::now_ns(), rid, -1, -1});
  }
  for (const std::string& text : corpus.parse_samples) {
    const std::int64_t a = pb::now_ns();
    const xml::Document doc = xml::parse_arena(text);
    t.record(pb::Span{pb::kReplayDocParse, a, pb::now_ns(), t.next_id(), -1, -1});
  }
  return r;
}

double p50_of(std::vector<double> v) { return pb::summarize(std::move(v)).p50; }
double p99_of(std::vector<double> v) { return pb::summarize(std::move(v)).p99; }
double mean_of(std::vector<double> v) { return pb::summarize(std::move(v)).mean; }

std::vector<Metric> layer_metrics(Deployment& d, const WindowResult& untraced,
                                  const WindowResult& traced, const Counters& before,
                                  const Counters& after, const ReplayResult& rep,
                                  const std::vector<pb::Span>& spans, double window_s,
                                  std::uint64_t retired_max, std::string& detail) {
  const std::vector<pb::LayerTimes> layers = pb::layer_times(spans);
  auto durations = [&](std::uint16_t name) { return layers[name].duration_us; };
  auto merged = [&](std::initializer_list<std::uint16_t> names) {
    std::vector<double> all;
    for (const auto n : names) {
      all.insert(all.end(), layers[n].duration_us.begin(), layers[n].duration_us.end());
    }
    return all;
  };

  // Wire time: client latency minus the broker-side time of the same
  // request (joined through RequestJoin), for requests the join resolved.
  std::map<std::int64_t, double> broker_us;
  for (const pb::Span& s : spans) {
    const bool broker = s.name == pb::kDispatcherQuery || s.name == pb::kDispatcherFetch ||
                        s.name == pb::kDispatcherOther || s.name == pb::kTryCached ||
                        s.name == pb::kRouter;
    if (broker && s.request >= 0) {
      broker_us[s.request] = static_cast<double>(s.end - s.start) / 1e3;
    }
  }
  std::vector<double> wire_us;
  for (std::size_t i = 0; i < traced.outcomes.size(); ++i) {
    const auto it = broker_us.find(static_cast<std::int64_t>(i));
    if (it == broker_us.end() || traced.outcomes[i].status != pb::Status::kOk) continue;
    const double e2e =
        static_cast<double>(traced.outcomes[i].done_ns - (traced.start_ns + traced.at[i])) /
        1e3;
    wire_us.push_back(e2e - it->second);
  }

  std::vector<double> dispatcher_depths;
  std::vector<double> router_depths;
  for (auto& n : d.nodes) {
    const auto s = n->broker->depth_samples();
    dispatcher_depths.insert(dispatcher_depths.end(), s.begin(), s.end());
  }
  if (d.router_broker) router_depths = d.router_broker->depth_samples();

  const double frames = static_cast<double>(after.frames_out - before.frames_out);
  const double l1 = static_cast<double>(after.l1_hits - before.l1_hits);
  const double l1m = static_cast<double>(after.l1_misses - before.l1_misses);
  const double l2 = static_cast<double>(after.l2_hits - before.l2_hits);
  const double l2m = static_cast<double>(after.l2_misses - before.l2_misses);
  // Segment reads a fetch caused: pager spans whose parent is a fetch's
  // execution span (paged queries read segments too, and are not counted).
  std::set<std::int64_t> fetch_execs;
  for (const pb::Span& s : spans) {
    if (s.name == pb::kExecFetch) fetch_execs.insert(s.id);
  }
  double fetch_reads = 0;
  for (const pb::Span& s : spans) {
    if (s.name == pb::kClobRead && fetch_execs.contains(s.parent)) ++fetch_reads;
  }
  const double fetches = static_cast<double>(fetch_execs.size());
  const double pager_reads = static_cast<double>(after.pager_reads - before.pager_reads);
  const double bytes_per_read =
      ratio(static_cast<double>(after.pager_bytes - before.pager_bytes), pager_reads);
  const double seg_hits = static_cast<double>(after.seg_hits - before.seg_hits);
  const double seg_misses = static_cast<double>(after.seg_misses - before.seg_misses);
  const double ingested = static_cast<double>(after.docs - before.docs);
  const double fsyncs = static_cast<double>(after.wal_fsyncs - before.wal_fsyncs);
  const double router_spans = static_cast<double>(layers[pb::kRouter].count);
  const std::vector<double> exec_all = merged({pb::kExecQuery, pb::kExecFetch, pb::kExecOther});
  std::vector<double> exec_self;
  for (const auto n : {pb::kExecQuery, pb::kExecFetch, pb::kExecOther}) {
    exec_self.insert(exec_self.end(), layers[n].self_us.begin(), layers[n].self_us.end());
  }

  const hc::MetadataCatalog& catalog = *d.node().catalog;
  const double untraced_p50 = p50_of(untraced.all_ms);
  const double traced_p50 = p50_of(traced.all_ms);

  std::vector<Metric> m = {
      {"net.bytes_out_per_resp", ratio(static_cast<double>(after.bytes_out - before.bytes_out), frames), "bytes"},
      {"net.read_pauses", static_cast<double>(after.read_pauses - before.read_pauses), "count"},
      {"net.write_pauses", static_cast<double>(after.write_pauses - before.write_pauses), "count"},
      {"net.wire_us", p50_of(wire_us), "us"},
      {"dispatcher.try_cached_us", p50_of(durations(pb::kTryCached)), "us"},
      {"dispatcher.service_us_p50", p50_of(exec_all), "us"},
      {"dispatcher.service_us_p99", p99_of(exec_all), "us"},
      {"dispatcher.exec_self_us", p50_of(exec_self), "us"},
      {"dispatcher.queue_depth_mean", mean_of(dispatcher_depths), "count"},
      {"dispatcher.queue_depth_p99", p99_of(dispatcher_depths), "count"},
      {"cache.l1_hit_rate", ratio(l1, l1 + l1m), "ratio"},
      {"cache.l2_hit_rate", ratio(l2, l2 + l2m), "ratio"},
      {"cache.l2_evictions", static_cast<double>(after.l2_evictions - before.l2_evictions), "count"},
      {"cache.inline_served_frac", ratio(static_cast<double>(after.inline_served - before.inline_served), frames), "ratio"},
      {"xml.request_parse_us", p50_of(durations(pb::kReplayParse)), "us"},
      {"xml.doc_parse_us", p50_of(durations(pb::kReplayDocParse)), "us"},
      {"engine.query_us_p50", p50_of(durations(pb::kReplayEngine)), "us"},
      {"engine.query_us_p99", p99_of(durations(pb::kReplayEngine)), "us"},
      {"engine.rows_scanned_per_result", ratio(static_cast<double>(rep.rows_scanned), static_cast<double>(rep.results)), "rows"},
      {"engine.index_probes_per_query", ratio(static_cast<double>(rep.probes), static_cast<double>(rep.queries)), "count"},
      {"engine.candidates_per_query", ratio(static_cast<double>(rep.candidates), static_cast<double>(rep.queries)), "rows"},
      {"engine.rows_materialized_per_query", ratio(static_cast<double>(rep.materialized), static_cast<double>(rep.queries)), "rows"},
      {"engine.fast_path_frac", ratio(static_cast<double>(rep.fast_path), static_cast<double>(rep.queries)), "ratio"},
      {"response.build_us_p50", p50_of(durations(pb::kReplayResponse)), "us"},
      {"response.build_us_p99", p99_of(durations(pb::kReplayResponse)), "us"},
      {"response.bytes_per_object", ratio(static_cast<double>(rep.response_bytes), static_cast<double>(rep.response_objects)), "bytes"},
      {"clob.segment_reads_per_fetch", ratio(fetch_reads, fetches), "count"},
      {"clob.segment_read_us_p50", p50_of(durations(pb::kClobRead)), "us"},
      {"clob.segment_read_us_p99", p99_of(durations(pb::kClobRead)), "us"},
      {"clob.bytes_read_per_fetch", ratio(fetch_reads * bytes_per_read, fetches), "bytes"},
      {"clob.segment_hit_rate", ratio(seg_hits, seg_hits + seg_misses), "ratio"},
      {"clob.segment_writes", static_cast<double>(after.pager_writes - before.pager_writes), "count"},
      {"catalog.ingest_service_us_p50", p50_of(durations(pb::kExecIngest)), "us"},
      {"catalog.ingest_service_us_p99", p99_of(durations(pb::kExecIngest)), "us"},
      {"registry.element_defs", static_cast<double>(catalog.registry().element_count()), "count"},
      {"registry.attr_defs", static_cast<double>(catalog.registry().attribute_count()), "count"},
      {"mvcc.snapshots_per_s", ratio(static_cast<double>(after.snapshots - before.snapshots), window_s), "1/s"},
      {"mvcc.retired_pending_max", static_cast<double>(retired_max), "count"},
      {"ingest.rows_per_doc", ratio(static_cast<double>(after.rows - before.rows), ingested), "rows"},
      {"wal.write_us", p50_of(durations(pb::kWalWrite)), "us"},
      {"wal.fsync_us_p50", p50_of(durations(pb::kWalFsync)), "us"},
      {"wal.fsync_us_p99", p99_of(durations(pb::kWalFsync)), "us"},
      {"wal.records_per_fsync", ratio(static_cast<double>(after.wal_records - before.wal_records), fsyncs), "count"},
      {"wal.bytes_per_doc", ratio(static_cast<double>(after.wal_bytes - before.wal_bytes), ingested), "bytes"},
      {"fed.route_us_p50", p50_of(durations(pb::kRouter)), "us"},
      {"fed.route_us_p99", p99_of(durations(pb::kRouter)), "us"},
      {"fed.leg_us_p50", p50_of(durations(pb::kShardLeg)), "us"},
      {"fed.leg_us_p99", p99_of(durations(pb::kShardLeg)), "us"},
      {"fed.legs_per_request", ratio(static_cast<double>(layers[pb::kShardLeg].count), router_spans), "count"},
      {"fed.router_queue_depth_mean", mean_of(router_depths), "count"},
      {"driver.send_lag_p99_ms", p99_of(traced.lag_ms), "ms"},
      {"trace.overhead_frac", ratio(traced_p50 - untraced_p50, untraced_p50), "ratio"},
  };

  detail += ", \"wire_joined\": " + std::to_string(wire_us.size());
  detail += ", \"layers\": {";
  bool first = true;
  for (std::uint16_t n = 0; n < pb::kSpanNameCount; ++n) {
    if (layers[n].count == 0) continue;
    if (!first) detail += ", ";
    first = false;
    detail += "\"" + std::string(pb::span_name(n)) + "\": {\"count\": " +
              std::to_string(layers[n].count) +
              ", \"duration_us\": " + summary_json(pb::summarize(layers[n].duration_us)) +
              ", \"self_us\": " + summary_json(pb::summarize(layers[n].self_us)) + "}";
  }
  detail += "}";
  return m;
}

/// Traced-run phases, stamped on every span.
constexpr std::uint8_t kPhaseReads = 1;
constexpr std::uint8_t kPhaseLive = 2;
constexpr std::uint8_t kPhaseFed = 3;

std::vector<pb::Span> in_phase(const std::vector<pb::Span>& spans, std::uint8_t phase) {
  std::vector<pb::Span> out;
  for (const pb::Span& s : spans) {
    if (s.phase == phase) out.push_back(s);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Federation (read_cold's traced run): the same corpus, request mix and rate
// through a FederationRouter over 2 shard servers, preloaded through the
// router's wire ingest. Only the fed.* layer figures come from here; the
// 2-shard topology runs ~13 threads on 4 cores and its end-to-end figures
// follow the host's speed too closely to bound.

struct FedPhase {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t oracle_checks = 0;
  std::uint64_t oracle_mismatches = 0;
  std::string detail;
};

FedPhase run_fed_phase(const WorkloadSpec& spec, const Args& args, const Corpus& corpus,
                       const std::string& dir, double window) {
  FedPhase out;
  const std::unique_ptr<Deployment> d = deploy(true, corpus, dir);
  Oracle oracle = build_oracle(corpus, *d);
  record_fetch_oracle(oracle, *d);
  RequestTable table;
  const Plan plan =
      make_plan(spec, args.seed + 4, window, table, corpus, *d, nullptr);
  Checker check{table, oracle};
  pb::RequestJoin join(table.bodies);
  d->front_broker().set_join(&join);
  pb::tracer().set(true);
  const WindowResult w =
      run_window(*d, table, plan.requests, plan.at, check, nullptr, 0, &join);
  pb::tracer().set(false);
  d->stop();
  const std::vector<pb::LayerTimes> layers = pb::layer_times(pb::tracer().collect());
  const auto& route = layers[pb::kRouter].duration_us;
  const auto& leg = layers[pb::kShardLeg].duration_us;
  out.metrics = {
      {"fed.route_us_p50", pb::summarize(route).p50, "us"},
      {"fed.route_us_p99", pb::summarize(route).p99, "us"},
      {"fed.leg_us_p50", pb::summarize(leg).p50, "us"},
      {"fed.leg_us_p99", pb::summarize(leg).p99, "us"},
      {"fed.legs_per_request", ratio(static_cast<double>(leg.size()), static_cast<double>(route.size())), "count"},
      {"fed.router_queue_depth_mean", mean_of(d->router_broker->depth_samples()), "count"},
  };
  out.attempted = w.attempted;
  out.failed = w.failed;
  out.oracle_checks = check.oracle_checks;
  out.oracle_mismatches = check.oracle_mismatches;
  out.detail = ", \"query_ms\": " + summary_json(pb::summarize(w.query_ms)) +
               ", \"fetch_ms\": " + summary_json(pb::summarize(w.fetch_ms)) +
               ", \"setup_s\": " + json_number(d->setup_s);
  return out;
}

// ---------------------------------------------------------------------------

int run(const Args& args) {
  const WorkloadSpec& spec = find_workload(args.workload);
  const TempDir tmp(args.workdir + "/tmp");
  note("%s seed=%llu: generating corpus", spec.name,
       static_cast<unsigned long long>(args.seed));
  Corpus corpus = make_corpus(args.seed, args.trace && spec.extra_phases ? kLiveDocs : 0);

  // Set up kSetups times; report the median. The first deployment answers
  // the fetch oracle (so no request of the run is pre-cached on the one
  // that serves), the last one serves.
  Oracle oracle;
  std::vector<double> setup_times;
  std::vector<double> preload_rates;  // documents per second, per set-up
  std::vector<double> preload_ingest_ms;
  std::unique_ptr<Deployment> d;
  for (int k = 0; k < kSetups; ++k) {
    d.reset();
    malloc_trim(0);
    note("set-up %d/%d", k + 1, kSetups);
    d = deploy(false, corpus, tmp.path + "/setup" + std::to_string(k));
    setup_times.push_back(d->setup_s);
    preload_rates.push_back(ratio(static_cast<double>(kDocs), d->preload_s));
    preload_ingest_ms.insert(preload_ingest_ms.end(), d->ingest_ms.begin(), d->ingest_ms.end());
    if (k == 0) {
      oracle = build_oracle(corpus, *d);
      record_fetch_oracle(oracle, *d);
    }
  }
  const double setup_s = pb::summarize(setup_times).p50;
  const std::size_t xml_bytes = corpus.preload_bytes;

  // Writer bodies, then drop the preload texts before measuring memory.
  Writer writer;
  for (std::size_t j = 0; j < corpus.fresh.size(); ++j) {
    writer.bodies.push_back(ingest_body(corpus.fresh[j], doc_name(kDocs + j)));
  }
  if (!(args.trace && spec.extra_phases)) {
    corpus.texts.clear();
    corpus.texts.shrink_to_fit();
  }
  corpus.fresh.clear();
  corpus.fresh.shrink_to_fit();
  malloc_trim(0);

  RequestTable table;
  std::unique_ptr<HotSet> hot;
  if (spec.hot) {
    hot = std::make_unique<HotSet>(add_hot_requests(table, corpus, oracle, args.seed));
  }

  const double window = args.trace ? args.seconds / 2 : args.seconds;
  const Plan warm =
      make_plan(spec, args.seed + 1, kWarmupSeconds, table, corpus, *d, hot.get());
  const Plan main_plan = make_plan(spec, args.seed + 2, window, table, corpus, *d, hot.get());
  Plan traced_plan;
  Plan live_plan;
  if (args.trace) {
    traced_plan = make_plan(spec, args.seed + 3, window, table, corpus, *d, hot.get());
  }
  if (args.trace && spec.extra_phases) {
    WorkloadSpec live_spec = spec;
    live_spec.read_rate = kLiveReadRate;
    live_plan = make_plan(live_spec, args.seed + 5, window, table, corpus, *d, hot.get());
  }
  std::unique_ptr<pb::RequestJoin> join;
  if (args.trace) {
    join = std::make_unique<pb::RequestJoin>(table.bodies);
    d->front_broker().set_join(join.get());
  }

  Checker check{table, oracle};
  // Warm-up: the hot set is visited once in full so L2 holds it, then a
  // short open-loop stretch at the workload's rate.
  if (spec.hot) {
    const std::vector<std::uint32_t> all = hot->all();
    std::vector<std::int64_t> at(all.size());
    for (std::size_t i = 0; i < at.size(); ++i) at[i] = static_cast<std::int64_t>(i) * 2'000'000;
    const WindowResult w = run_window(*d, table, all, at, check, nullptr, 0, nullptr);
    if (w.failed != 0) throw std::runtime_error("hot-set warm-up failed");
  }
  note("warm-up");
  const WindowResult warmup = run_window(*d, table, warm.requests, warm.at, check, nullptr,
                                         0, nullptr);

  note("measuring %.1fs at %.0f reads/s", window, spec.read_rate);
  const WindowResult w = run_window(*d, table, main_plan.requests, main_plan.at, check,
                                    nullptr, 0, nullptr);

  std::string detail = "{\"workload\": \"" + std::string(spec.name) +
                       "\", \"seed\": " + std::to_string(args.seed) +
                       ", \"read_rate\": " + json_number(spec.read_rate) +
                       ", \"hardware_threads\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"setups_s\": [";
  for (std::size_t i = 0; i < setup_times.size(); ++i) {
    detail += (i ? ", " : "") + json_number(setup_times[i]);
  }
  detail += "], \"query_ms\": " + summary_json(pb::summarize(w.query_ms));
  detail += ", \"query_ids_ms\": " + summary_json(pb::summarize(w.ids_ms));
  detail += ", \"fetch_ms\": " + summary_json(pb::summarize(w.fetch_ms));
  detail += ", \"send_lag_ms\": " + summary_json(pb::summarize(w.lag_ms));
  detail += ", \"oracle_checks\": " + std::to_string(check.oracle_checks);
  detail += ", \"oracle_mismatches\": " + std::to_string(check.oracle_mismatches);
  detail += ", \"warmup_failed\": " + std::to_string(warmup.failed);
  detail += ", \"foreign_frames\": " + std::to_string(w.foreign);

  std::size_t attempted = warmup.attempted + w.attempted;
  std::size_t failed = warmup.failed + w.failed;
  std::vector<Metric> metrics;

  // Unbounded end-to-end figures. Read tails: p99 needs 1000 samples to
  // have 10 beyond it and the cold windows hold a few hundred per kind.
  // Preload ingest: set-up is ~95% preload, so setup_s already bounds it.
  const pb::Summary ingest = pb::summarize(preload_ingest_ms);
  const pb::Summary q = pb::summarize(w.query_ms);
  const pb::Summary f = pb::summarize(w.fetch_ms);
  detail += ", \"ingest_ms\": " + summary_json(ingest);
  const std::vector<Metric> tails = {
      {"e2e.query_p90_ms", q.p90, "ms"},
      {"e2e.query_p99_ms", q.p99, "ms"},
      {"e2e.fetch_p90_ms", f.p90, "ms"},
      {"e2e.fetch_p99_ms", f.p99, "ms"},
      {"e2e.ingest_docs_per_s", pb::summarize(preload_rates).p50, "1/s"},
      {"e2e.ingest_p50_ms", ingest.p50, "ms"},
      {"e2e.ingest_p99_ms", ingest.p99, "ms"},
      {"e2e.failed_frac", ratio(static_cast<double>(w.failed), static_cast<double>(w.attempted)), "ratio"},
  };

  if (!args.trace) {
    std::size_t stored = 0;
    for (auto& n : d->nodes) stored += n->stored_bytes();
    metrics = {
        {"setup_s", setup_s, "s"},
        {"query_p50_ms", q.p50, "ms"},
        {"fetch_p50_ms", f.p50, "ms"},
        {"read_goodput_rps", ratio(static_cast<double>(w.ok_reads), w.read_span_s), "1/s"},
        {"peak_rss_mb", w.peak_rss_mb, "MB"},
        {"stored_bytes_per_input_byte", ratio(static_cast<double>(stored), static_cast<double>(xml_bytes)), "ratio"},
    };
  } else {
    // Traced half (phase 1): counters around it, spans inside it, then the
    // replay.
    const Counters before = read_counters(*d);
    pb::tracer().set_phase(kPhaseReads);
    pb::tracer().set(true);
    const std::int64_t t0 = pb::now_ns();
    const WindowResult traced = run_window(*d, table, traced_plan.requests, traced_plan.at,
                                           check, nullptr, 0, join.get());
    const double traced_s = seconds_between(t0, pb::now_ns());
    const Counters after = read_counters(*d);
    for (std::size_t i = 0; i < traced.outcomes.size(); ++i) {
      const pb::Outcome& o = traced.outcomes[i];
      if (o.status != pb::Status::kOk) continue;
      pb::tracer().record(pb::Span{pb::kClientRequest, traced.start_ns + traced.at[i],
                                   o.done_ns, static_cast<std::int64_t>(i), -1,
                                   static_cast<std::int64_t>(i)});
    }
    std::vector<std::uint32_t> sample;
    for (std::size_t i = 0; i < traced_plan.requests.size() && sample.size() < 200; i += 3) {
      sample.push_back(traced_plan.requests[i]);
    }
    const ReplayResult rep = replay(*d->node().catalog, table, sample, corpus);
    pb::tracer().set(false);
    attempted += traced.attempted;
    failed += traced.failed;

    // Live-ingest phase (phase 2): the commit, registry, MVCC and WAL layers.
    WindowResult live;
    Counters live_before;
    Counters live_after;
    double live_s = 0;
    std::uint64_t retired_max = 0;
    if (spec.extra_phases) {
      note("live-ingest phase");
      oracle.live = true;  // answers may now also hold fresh documents
      live_before = read_counters(*d);
      std::atomic<bool> sampling{true};
      std::thread sampler([&] {
        while (sampling.load()) {
          retired_max = std::max(retired_max, d->node().catalog->mvcc_stats().retired_pending);
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      });
      pb::tracer().set_phase(kPhaseLive);
      pb::tracer().set(true);
      const std::int64_t l0 = pb::now_ns();
      try {
        live = run_window(*d, table, live_plan.requests, live_plan.at, check, &writer,
                          kLiveDocs, nullptr);
      } catch (...) {
        sampling.store(false);
        sampler.join();
        throw;
      }
      pb::tracer().set(false);
      live_s = seconds_between(l0, pb::now_ns());
      sampling.store(false);
      sampler.join();
      live_after = read_counters(*d);
      attempted += live.attempted;
      failed += live.failed;
    }
    d->stop();  // joins every thread that may record spans
    const std::vector<pb::Span> spans = pb::tracer().collect();
    metrics = layer_metrics(*d, w, traced, before, after, rep,
                            in_phase(spans, kPhaseReads), traced_s, 0, detail);
    if (spec.extra_phases) {
      std::string unused;
      const std::vector<Metric> ingest_side =
          layer_metrics(*d, w, live, live_before, live_after, ReplayResult{},
                        in_phase(spans, kPhaseLive), live_s, retired_max, unused);
      for (const Metric& m : ingest_side) {
        const bool commit_side = m.name.starts_with("catalog.") ||
                                 m.name.starts_with("registry.") ||
                                 m.name.starts_with("mvcc.") || m.name.starts_with("ingest.") ||
                                 m.name.starts_with("wal.") || m.name == "clob.segment_writes";
        if (!commit_side) continue;
        for (Metric& out : metrics) {
          if (out.name == m.name) out.value = m.value;
        }
      }
      const pb::Summary writer_ms = pb::summarize(live.writer_ms);
      detail += ", \"live_phase\": {\"ingest_ms\": " + summary_json(writer_ms) +
                ", \"query_ms\": " + summary_json(pb::summarize(live.query_ms)) +
                ", \"fetch_ms\": " + summary_json(pb::summarize(live.fetch_ms)) + "}";
    }
    metrics.insert(metrics.end(), tails.begin(), tails.end());
    // Zero on workloads without a live-ingest phase.
    metrics.push_back({"live.ingest_docs_per_s", live.writer_docs_per_s, "1/s"});
    metrics.push_back({"live.ingest_p50_ms", pb::summarize(live.writer_ms).p50, "ms"});
    metrics.push_back({"live.ingest_p99_ms", pb::summarize(live.writer_ms).p99, "ms"});
    metrics.push_back({"live.query_p50_ms", pb::summarize(live.query_ms).p50, "ms"});
    metrics.push_back({"live.fetch_p50_ms", pb::summarize(live.fetch_ms).p50, "ms"});
    if (spec.extra_phases) {
      d.reset();
      malloc_trim(0);
      note("federated phase");
      pb::tracer().set_phase(kPhaseFed);
      const FedPhase fed = run_fed_phase(spec, args, corpus, tmp.path + "/fed", window);
      attempted += fed.attempted;
      failed += fed.failed;
      check.oracle_checks += fed.oracle_checks;
      check.oracle_mismatches += fed.oracle_mismatches;
      for (const Metric& m : fed.metrics) {
        for (Metric& out : metrics) {
          if (out.name == m.name) out.value = m.value;
        }
      }
      detail += ", \"fed_phase\": {\"attempted\": " + std::to_string(fed.attempted) +
                ", \"failed\": " + std::to_string(fed.failed) + fed.detail + "}";
    }
    const std::string traces = args.workdir + "/traces";
    fs::create_directories(traces);
    const std::string path = traces + "/" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".spans.tsv";
    if (pb::write_spans(path, pb::tracer().collect())) {
      detail += ", \"spans_file\": \"" + path + "\"";
    }
  }
  d.reset();
  note("done");

  detail += ", \"oracle_checks_total\": " + std::to_string(check.oracle_checks) +
            ", \"oracle_mismatches_total\": " + std::to_string(check.oracle_mismatches) + "}";
  std::printf("{\"detail\": %s}\n", detail.c_str());
  const bool correct = failed == 0 && check.oracle_mismatches == 0 && check.oracle_checks > 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "catalog_bench: %s\n", e.what());
    return 1;
  }
}
