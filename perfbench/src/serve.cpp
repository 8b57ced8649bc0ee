// The serving workloads: one pipelined client thread over grx::Server.
//
// serve-coalesced — static power-law graph, one worker, otherwise default
//   ServerOptions (result cache off), uniform random sources, 3 BFS :
//   1 SSSP, 64 queries in flight, answers taken in submission order.
// serve-hot-churn — the same client over a DynamicGraph of the same graph
//   with the result cache on; sources drawn Zipf(1.1) from a 256-source
//   hot pool; after every 512 submissions one churn batch of 16 edge
//   updates goes through Server::apply_updates.
#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>

#include "api/server.hpp"
#include "baselines/serial/serial.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "suite.hpp"
#include "workloads.hpp"

namespace perfbench {

using grx::QueryKind;
using grx::VertexId;

namespace {

constexpr std::uint32_t kWorkers = 1;
constexpr std::uint32_t kInFlight = 64;
constexpr std::uint64_t kWarmupQueries = 2048;
constexpr std::uint64_t kWindow = 1024;       // completions per q/s window
constexpr std::uint64_t kMinQueries = 20480;  // p99 with >= 200 beyond it
constexpr double kMaxTimedSeconds = 100.0;
constexpr std::uint64_t kUpdateEvery = 512;   // submissions per churn batch
// Answers kept for the oracle: every 29th of the first kSampleSpan queries.
// The span is one every run reaches, so the memory they hold (and
// peak_rss_mb) does not depend on how fast the run went.
constexpr std::uint64_t kSampleEvery = 29;
constexpr std::uint64_t kSampleSpan = kWarmupQueries + kMinQueries;
constexpr std::uint32_t kHotPool = 256;
constexpr double kZipfExponent = 1.1;

/// The power-law serving graph: rmat(13, 16, seed 11), symmetrized,
/// weights uniform in [1, 64] from seed 7.
grx::Csr serving_graph() {
  grx::EdgeList el;
  {
    auto s = span("graph.rmat");
    el = grx::rmat(13, 16, 11);
  }
  grx::BuildOptions bo;
  bo.symmetrize = true;
  grx::Csr g;
  {
    auto s = span("graph.build_csr");
    g = grx::build_csr(el, bo);
  }
  auto s = span("graph.with_random_weights");
  return grx::with_random_weights(g, 7);
}

/// Seeded source stream of one workload.
class SourceStream {
 public:
  SourceStream(VertexId n, bool zipf, std::uint64_t seed)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + 3), n_(n), zipf_(zipf) {
    if (!zipf_) return;
    while (pool_.size() < kHotPool) {
      const auto v = static_cast<VertexId>(rng_.next_below(n));
      if (std::find(pool_.begin(), pool_.end(), v) == pool_.end())
        pool_.push_back(v);
    }
    double sum = 0.0;
    for (std::uint32_t r = 0; r < kHotPool; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_.push_back(sum);
    }
  }

  VertexId next() {
    if (!zipf_) return static_cast<VertexId>(rng_.next_below(n_));
    const double u = rng_.next_double() * cdf_.back();
    const auto r = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return pool_[std::min<std::size_t>(r, kHotPool - 1)];
  }

 private:
  grx::Rng rng_;
  VertexId n_;
  bool zipf_;
  std::vector<VertexId> pool_;
  std::vector<double> cdf_;
};

/// An answer kept for the oracle comparison.
struct Sample {
  QueryKind kind;
  VertexId source;
  grx::QueryResult result;
};

bool answer_ok(const grx::Csr& g, const Sample& s) {
  if (s.kind == QueryKind::kBfs)
    return s.result.depth == grx::serial::bfs(g, s.source);
  return s.result.dist == grx::serial::dijkstra(g, s.source);
}

/// Client-side tallies the ServerStats accounting must match.
struct ClientCounts {
  std::uint64_t submitted = 0;
  std::uint64_t answered = 0;
  std::uint64_t updates = 0;
};

bool accounting_ok(const grx::ServerStats& s, const ClientCounts& c,
                   bool cache_on) {
  bool ok = s.queries_submitted == c.submitted &&
            s.queries_served == c.answered && s.update_batches == c.updates;
  if (cache_on)
    ok = ok && s.cache_hits + s.dedup_attached + s.cache_misses == c.submitted;
  else
    ok = ok && s.cache_hits == 0 && s.cache_misses == 0;
  return ok;
}

/// An answer may not be older than the newest epoch published before its
/// submit.
bool fresh(grx::Epoch answered, grx::Epoch published_before_submit) {
  return answered >= published_before_submit;
}

struct InFlight {
  grx::QueryTicket ticket;
  Clock::time_point submitted;
  std::uint64_t qid;
  QueryKind kind;
  VertexId source;
  grx::Epoch min_epoch;
};

}  // namespace

void run_serve(const Args& a, bool churn, RunResult& r) {
  tracer().set_enabled(a.trace);
  const grx::Csr g = serving_graph();
  std::unique_ptr<grx::DynamicGraph> dyn;
  if (churn) {
    grx::DynamicGraphOptions dopt;
    dopt.symmetric = true;  // the serving graph is undirected; keep it so
    auto s = span("graph.dynamic_graph");
    dyn = std::make_unique<grx::DynamicGraph>(g, dopt);
  }
  const double graph_build_s = tracer().total_ms("graph.") / 1e3;

  // One worker at the default OpenMP width. The default worker count (one
  // per hardware thread, each with a full-width OpenMP team) runs
  // nproc x nproc threads on nproc cores and measures the scheduler: its
  // q/s ranged over a third of its median across three runs, against a
  // seventh with one worker.
  grx::ServerOptions so;
  so.num_workers = kWorkers;
  so.cache.enabled = churn;
  std::unique_ptr<grx::Server> server;
  {
    auto s = span("server.construct");
    server = churn ? std::make_unique<grx::Server>(*dyn, so)
                   : std::make_unique<grx::Server>(g, so);
  }

  SourceStream sources(g.num_vertices(), churn, a.seed);
  EdgeModel model(g);  // the generator's view of the live edge set
  grx::Rng churn_rng(a.seed ^ 0xc2b2ae3d27d4eb4fULL);
  std::vector<std::vector<grx::EdgeUpdate>> batches;  // batch i -> epoch i+1
  grx::Epoch published = 0;

  std::unique_ptr<UpdateProbe> probe;  // serve-coalesced only
  ClientCounts counts;
  std::deque<InFlight> inflight;
  std::vector<Sample> samples;
  std::uint64_t stale = 0;
  std::uint64_t cached_sampled = 0, computed_sampled = 0;

  // Timed-phase state.
  bool timing = false;
  Clock::time_point window_start;
  double window_cpu_start = 0.0;
  double timed_s = 0.0, cpu_s = 0.0;  // summed over the serving windows
  grx::ServerStats stats_start;
  std::vector<double> latency_ms, update_ms;
  std::vector<double> traced_qps, untraced_qps;
  std::vector<double> window_p50_ms, window_p99_ms;  // untraced windows
  std::size_t window_first_latency = 0;
  std::uint64_t snapshots_live_max = 0;
  bool window_traced = false;
  std::uint64_t windows = 0;

  auto submit_one = [&] {
    const std::uint64_t qid = counts.submitted;
    if (churn && qid > 0 && qid % kUpdateEvery == 0) {
      auto batch = model.churn_batch(churn_rng);
      model.apply(batch);
      const auto t0 = Clock::now();
      grx::Epoch e = 0;
      {
        auto s = span("server.apply_updates", qid);
        e = server->apply_updates(batch);
      }
      if (timing) {
        update_ms.push_back(ms_between(t0, Clock::now()));
        ++r.attempted;  // an update batch is an operation too
      }
      batches.push_back(std::move(batch));
      ++counts.updates;
      r.check(e == batches.size(), "apply_updates epoch != batch count");
      published = e;
    }
    if (probe && timing && qid % kProbeEverySubmissions == 0) {
      probe->step();
      ++r.attempted;
    }
    const QueryKind kind = qid % 4 == 3 ? QueryKind::kSssp : QueryKind::kBfs;
    const VertexId src = sources.next();
    grx::QueryRequest req;
    req.kind = kind;
    req.source = src;
    InFlight f{{}, Clock::now(), qid, kind, src, published};
    {
      auto s = span("server.submit", qid);
      f.ticket = server->submit(req);
    }
    ++counts.submitted;
    inflight.push_back(std::move(f));
  };

  auto take_one = [&] {
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    grx::QueryResult res;
    bool ok = true;
    try {
      auto s = span("client.get", f.qid);
      res = f.ticket.get();
    } catch (const std::exception&) {
      ok = false;
    }
    const auto done = Clock::now();
    if (timing) {
      ++r.attempted;
      if (!ok) ++r.failed;
    }
    if (!ok) return;
    ++counts.answered;
    if (timing) latency_ms.push_back(ms_between(f.submitted, done));
    if (!fresh(res.epoch, f.min_epoch)) ++stale;
    if (f.qid % kSampleEvery == 0 && f.qid < kSampleSpan) {
      (res.cached ? cached_sampled : computed_sampled) += 1;
      samples.push_back({f.kind, f.source, std::move(res)});
    }
  };

  // `count` queries with kInFlight in flight, answers taken in order; the
  // pipeline is empty before and after.
  auto serve_closed = [&](std::uint64_t count) {
    const std::uint64_t end = counts.submitted + count;
    while (!inflight.empty() || counts.submitted < end) {
      while (inflight.size() < kInFlight && counts.submitted < end)
        submit_one();
      take_one();
    }
  };

  // The engine floor under the server: the primitive suite on a warm
  // direct Engine over the serving graph. One pass follows every serving
  // window, so its passes spread over the whole timed phase as the
  // windows do.
  Suite floor(g, SuiteShape{}, a.seed);

  // Set-up ends after the warm-up: kWarmupQueries served, one floor pass.
  serve_closed(kWarmupQueries);
  floor.pass(false);
  r.e2e.set("setup_s", since_start_s(), "s");
  if (!churn) probe = std::make_unique<UpdateProbe>(g, a.seed);

  // Timed phase: whole windows of kWindow queries, each followed by one
  // floor pass (outside the window's timing).
  timing = true;
  stats_start = server->stats();
  const auto t_start = Clock::now();
  for (;;) {
    window_traced = a.trace && windows % 2 == 1;
    tracer().set_enabled(window_traced);
    window_first_latency = latency_ms.size();
    window_cpu_start = cpu_seconds();
    window_start = Clock::now();
    serve_closed(kWindow);
    const double wms = ms_between(window_start, Clock::now());
    timed_s += wms / 1e3;
    cpu_s += cpu_seconds() - window_cpu_start;
    ++windows;
    (window_traced ? traced_qps : untraced_qps).push_back(
        static_cast<double>(kWindow) / (wms / 1e3));
    if (!window_traced) {
      const std::vector<double> lat(
          latency_ms.begin() + static_cast<std::ptrdiff_t>(window_first_latency),
          latency_ms.end());
      window_p50_ms.push_back(percentile(lat, 50));
      window_p99_ms.push_back(percentile(lat, 99));
    }
    if (churn)
      snapshots_live_max =
          std::max(snapshots_live_max, server->stats().snapshots_live);
    floor.pass(true);
    const double elapsed = ms_between(t_start, Clock::now()) / 1e3;
    if ((elapsed >= a.seconds && windows * kWindow >= kMinQueries) ||
        elapsed >= kMaxTimedSeconds)
      break;
  }
  tracer().set_enabled(false);
  timing = false;
  server->stop();
  const grx::ServerStats st = server->stats();

  // --- end-to-end metrics --------------------------------------------------
  // Per window of kWindow answers, quiet quantile over the untraced
  // windows: q/s, the window's latency percentiles, and the median of each
  // kUpdateWindow updates.
  r.e2e.set("qps", quiet_rate(untraced_qps), "queries/s");
  r.e2e.set("latency_p50_ms", quiet(window_p50_ms), "ms");
  r.e2e.set("latency_p99_ms", quiet(window_p99_ms), "ms");
  if (churn)
    r.e2e.set("update_p50_ms",
              quiet(per_window(update_ms, kUpdateWindow, median)),
              "ms");

  floor.e2e_metrics(r);
  if (probe) probe->finish(r);

  // --- output checks (outside the timed phase) -------------------------------
  r.check(stale == 0, "an answer was older than an epoch published before "
                      "its submit");
  r.check(!fresh(0, 1), "self-test freshness: stale epoch accepted");
  r.check(accounting_ok(st, counts, churn),
          "client counts != ServerStats accounting");
  {
    grx::ServerStats bad = st;
    ++bad.queries_served;
    r.check(!accounting_ok(bad, counts, churn),
            "self-test accounting: perturbed stats accepted");
  }
  // QueryResult::cached does not tell a hit from an attach, so the run
  // must also have seen both, for the cached samples to cover them.
  r.check(computed_sampled > 0 &&
              (!churn || (cached_sampled > 0 && st.cache_hits > 0 &&
                          st.dedup_attached > 0)),
          "oracle sample misses hits, attaches or computed answers");
  // Each sampled answer against the serial oracle on its epoch's graph,
  // rebuilt from the benchmark's own edge set; the first comparison is
  // repeated on a perturbed copy, which must be rejected.
  bool self_tested = false;
  auto check_samples = [&](const grx::Csr& eg,
                           const std::vector<const Sample*>& list) {
    for (const Sample* s : list)
      r.check(answer_ok(eg, *s), "served answer != serial oracle on its "
                                 "epoch's graph");
    if (self_tested || list.empty()) return;
    Sample bad = *list.front();
    auto& v = bad.kind == QueryKind::kBfs ? bad.result.depth : bad.result.dist;
    if (!v.empty()) v[v.size() / 2] ^= 1u;
    r.check(!answer_ok(eg, bad),
            "self-test serving oracle: perturbed answer accepted");
    self_tested = true;
  };
  std::map<grx::Epoch, std::vector<const Sample*>> by_epoch;
  for (const Sample& s : samples) by_epoch[s.result.epoch].push_back(&s);
  EdgeModel replay(g);
  grx::Epoch at = 0;
  for (const auto& [epoch, list] : by_epoch) {
    if (!churn) {
      r.check(epoch == 0, "static server answered from a nonzero epoch");
      check_samples(g, list);
      continue;
    }
    r.check(epoch <= batches.size(), "answer from an unpublished epoch");
    for (; at < epoch && at < batches.size(); ++at) replay.apply(batches[at]);
    check_samples(replay.csr(), list);
  }
  floor.verify(r);
  r.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");

  if (!a.trace) return;
  // --- per-layer metrics (traced run) ------------------------------------------
  r.layer.set("graph.build_s", graph_build_s, "s");
  floor.layer_metrics(r, [&] {
    SourceStream s(g.num_vertices(), churn, a.seed);
    std::vector<VertexId> out(64);
    for (VertexId& v : out) v = s.next();
    return out;
  }(), 3);
  const double q = static_cast<double>(st.queries_served -
                                       stats_start.queries_served);
  const double enacts = static_cast<double>(st.enacts - stats_start.enacts);
  const double hits = static_cast<double>(st.cache_hits - stats_start.cache_hits);
  const double attached =
      static_cast<double>(st.dedup_attached - stats_start.dedup_attached);
  const double misses =
      static_cast<double>(st.cache_misses - stats_start.cache_misses);
  r.layer.set("server.queries", q, "count");
  r.layer.set("server.submit_us",
              median(tracer().durations_ms("server.submit")) * 1e3, "us");
  r.layer.set("server.enacts", enacts, "count");
  r.layer.set("server.lanes_per_enact",
              enacts > 0 ? (q - hits - attached) / enacts : 0, "lanes");
  r.layer.set("server.coalesced_share",
              q > 0 ? static_cast<double>(st.coalesced_queries -
                                          stats_start.coalesced_queries) / q
                    : 0,
              "ratio");
  r.layer.set("server.ms_per_enact",
              enacts > 0 ? timed_s * 1e3 * server->num_workers() / enacts : 0,
              "ms");
  r.layer.set("proc.cpu_s_per_kquery", q > 0 ? cpu_s / (q / 1e3) : 0, "s");
  r.layer.set("cache.hits", hits, "count");
  r.layer.set("cache.attached", attached, "count");
  r.layer.set("cache.misses", misses, "count");
  r.layer.set("cache.evictions",
              static_cast<double>(st.cache_evictions -
                                  stats_start.cache_evictions),
              "count");
  r.layer.set("cache.reuse_share", q > 0 ? (hits + attached) / q : 0, "ratio");
  if (churn) {
    const grx::DynamicGraphStats d = dyn->stats();
    r.layer.set("dynamic.apply_ms",
                median(tracer().durations_ms("server.apply_updates")), "ms");
    r.layer.set("dynamic.epochs",
                static_cast<double>(st.graph_epoch - stats_start.graph_epoch),
                "count");
    r.layer.set("dynamic.rebinds",
                static_cast<double>(st.epoch_rebinds - stats_start.epoch_rebinds),
                "count");
    r.layer.set("dynamic.fuse_splits",
                static_cast<double>(st.epoch_fuse_splits -
                                    stats_start.epoch_fuse_splits),
                "count");
    r.layer.set("dynamic.compactions",
                static_cast<double>(st.compactions - stats_start.compactions),
                "count");
    r.layer.set("dynamic.compact_ms_max",
                static_cast<double>(d.compact_us_max) / 1e3, "ms");
    r.layer.set("dynamic.snapshots_live_max",
                static_cast<double>(snapshots_live_max), "count");
  }
  set_trace_overhead(r, median(untraced_qps) / median(traced_qps) - 1.0);
}

}  // namespace perfbench
