#include "suite.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>

#include "baselines/serial/serial.hpp"
#include "core/advance.hpp"
#include "core/filter.hpp"

namespace perfbench {

using grx::VertexId;

namespace {

constexpr std::array<const char*, kNumPrims> kEngineSpans = {
    "engine.bfs", "engine.sssp", "engine.bc", "engine.cc", "engine.pagerank"};

CallRecord record_of(Prim p, double wall_ms, const grx::EnactSummary& s) {
  CallRecord c;
  c.prim = p;
  c.traced = tracer().enabled();
  c.wall_ms = wall_ms;
  c.device_ms = s.device_time_ms;
  c.launches = s.counters.kernel_launches;
  c.warp_cycles = s.counters.total_warp_cycles;
  c.lane_cycles = s.counters.active_lane_cycles;
  c.rounds = s.iterations;
  c.edges = s.edges_processed;
  for (const grx::IterationStats& it : s.per_iteration)
    c.pull_rounds += it.used_pull ? 1 : 0;
  return c;
}

// --- BFS level replay through the public core operators -----------------------

struct ReplayProblem {
  const std::uint32_t* depth = nullptr;
  std::uint32_t next_level = 0;
};

/// Accepts exactly the edges into the next BFS level: replaying level L's
/// frontier yields level L+1 (with the duplicates an idempotent advance
/// allows).
struct ReplayEdge {
  static bool cond_edge(VertexId, VertexId dst, grx::EdgeId,
                        ReplayProblem& p) {
    return p.depth[dst] == p.next_level;
  }
  static void apply_edge(VertexId, VertexId, grx::EdgeId, ReplayProblem&) {}
};

struct ReplayVertex {
  static bool cond_vertex(VertexId, ReplayProblem&) { return true; }
  static void apply_vertex(VertexId, ReplayProblem&) {}
};

/// Replays the level frontiers of `depth` through grx::advance and
/// grx::filter_vertices (push, idempotent, history dedup). Returns the
/// median over `reps` replays of the total advance and filter time, and
/// checks that each level's filtered output holds exactly the next level.
void bfs_replay(const grx::Csr& g, const std::vector<std::uint32_t>& depth,
                int reps, RunResult& r) {
  std::vector<std::vector<std::uint32_t>> levels;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (depth[v] == grx::kInfinity) continue;
    if (depth[v] >= levels.size()) levels.resize(depth[v] + 1);
    levels[depth[v]].push_back(v);
  }
  grx::simt::Device dev;
  grx::AdvanceConfig acfg;
  acfg.idempotent = true;
  grx::FilterConfig fcfg;
  fcfg.dedup_heuristic = true;
  while (fcfg.history_bits < 24 && (1u << fcfg.history_bits) < g.num_vertices())
    ++fcfg.history_bits;
  grx::AdvanceWorkspace aws;
  grx::FilterWorkspace fws;
  grx::Frontier in, out;
  std::vector<std::uint32_t> filtered;
  ReplayProblem prob{depth.data(), 0};
  std::vector<double> adv_ms, fil_ms;
  bool levels_ok = true;
  for (int rep = 0; rep < reps; ++rep) {
    aws.begin_enact();
    fws.new_generation();
    double adv = 0.0, fil = 0.0;
    for (std::size_t l = 0; l + 1 < levels.size(); ++l) {
      in.items().assign(levels[l].begin(), levels[l].end());
      prob.next_level = static_cast<std::uint32_t>(l + 1);
      auto t0 = Clock::now();
      {
        auto s = span("core.advance", l);
        grx::advance<ReplayEdge>(dev, g, in, out, prob, acfg, aws);
      }
      auto t1 = Clock::now();
      {
        auto s = span("core.filter", l);
        grx::filter_vertices<ReplayVertex>(dev, out.items(), filtered, prob,
                                           fcfg, fws);
      }
      auto t2 = Clock::now();
      adv += ms_between(t0, t1);
      fil += ms_between(t1, t2);
      if (rep == 0) {
        std::vector<std::uint32_t> got = filtered;
        std::sort(got.begin(), got.end());
        got.erase(std::unique(got.begin(), got.end()), got.end());
        levels_ok = levels_ok && got == levels[l + 1];
        if (l == 0) {
          std::vector<std::uint32_t> bad = levels[1];
          bad.pop_back();
          r.check(got != bad, "self-test core replay: perturbed level accepted");
        }
      }
    }
    adv_ms.push_back(adv);
    fil_ms.push_back(fil);
  }
  r.check(levels_ok, "core replay: advance+filter did not rebuild a level");
  r.layer.set("core.bfs.advance_ms", median(adv_ms), "ms");
  r.layer.set("core.bfs.filter_ms", median(fil_ms), "ms");
}

}  // namespace

// --- Suite ----------------------------------------------------------------------

Suite::Suite(const grx::Csr& g, SuiteShape shape, std::uint64_t seed)
    : g_(g),
      seed_(seed),
      engine_(dev_, g),
      bfs_out_(shape.bfs),
      sssp_out_(shape.sssp),
      bc_out_(shape.bc) {
  bfs_opts_.direction = grx::Direction::kOptimal;  // datasets are undirected
  pr_opts_.epsilon = 0.0;  // no pruning: exactly the fixed iteration count
  pr_opts_.max_iterations = kPagerankIterations;
}

void Suite::call(Prim p, std::size_t slot, bool record, std::uint64_t id) {
  const grx::EnactSummary* sum = nullptr;
  const auto t0 = Clock::now();
  {
    auto s = span(kEngineSpans[p], id);
    switch (p) {
      case kBfs:
        engine_.bfs(bfs_src_[slot], bfs_out_[slot], bfs_opts_);
        sum = &bfs_out_[slot].summary;
        break;
      case kSssp:
        engine_.sssp(sssp_src_[slot], sssp_out_[slot], sssp_opts_);
        sum = &sssp_out_[slot].summary;
        break;
      case kBc:
        engine_.bc(bc_src_[slot], bc_out_[slot]);
        sum = &bc_out_[slot].summary;
        break;
      case kCc:
        engine_.cc(cc_out_);
        sum = &cc_out_.summary;
        break;
      default:
        engine_.pagerank(pr_out_, pr_opts_);
        sum = &pr_out_.summary;
        break;
    }
  }
  const double wall = ms_between(t0, Clock::now());
  if (!record) return;
  CallRecord c = record_of(p, wall, *sum);
  if (p == kSssp) {
    const grx::PriorityQueueStats& q = sssp_out_[slot].pq_stats;
    c.pq_splits = q.splits;
    c.pq_near = q.near_total;
    c.pq_far = q.far_total;
  }
  calls_.push_back(c);
}

double Suite::pass(bool record) {
  // Every pass draws fresh spread sources, so a run's medians average over
  // many source sets instead of hanging on the few one seed picks.
  const std::uint64_t draw = seed_ * 1000003ULL + 3 * draws_++;
  bfs_src_ = spread_sources(g_, bfs_out_.size(), draw);
  sssp_src_ = spread_sources(g_, sssp_out_.size(), draw + 1);
  bc_src_ = spread_sources(g_, bc_out_.size(), draw + 2);
  auto s = span("suite.pass", next_id_);
  const std::size_t first = calls_.size();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < bfs_src_.size(); ++i)
    call(kBfs, i, record, next_id_++);
  for (std::size_t i = 0; i < sssp_src_.size(); ++i)
    call(kSssp, i, record, next_id_++);
  for (std::size_t i = 0; i < bc_src_.size(); ++i)
    call(kBc, i, record, next_id_++);
  call(kCc, 0, record, next_id_++);
  call(kPr, 0, record, next_id_++);
  const double wall = ms_between(t0, Clock::now());
  if (record) {
    PassRecord rec{tracer().enabled(), wall, 0.0};
    for (std::size_t i = first; i < calls_.size(); ++i)
      rec.device_ms += calls_[i].device_ms;
    passes_.push_back(rec);
  }
  return wall;
}

void Suite::e2e_metrics(RunResult& r) const {
  for (int p = 0; p < kNumPrims; ++p) {
    std::vector<WorkSample> w;
    for (const CallRecord& c : calls_)
      if (c.prim == p && !c.traced) w.push_back({c.wall_ms, c.device_ms});
    r.e2e.set(std::string(kPrimNames[p]) + "_ms", work_scaled(w), "ms");
  }
  std::vector<double> device;
  for (const PassRecord& pr : passes_) device.push_back(pr.device_ms);
  r.e2e.set("device_ms", median(device), "ms");
}

std::vector<double> work_scaled_samples(const std::vector<WorkSample>& s) {
  std::vector<double> device;
  for (const WorkSample& x : s) device.push_back(x.device_ms);
  const double typical = median(device);
  std::vector<double> out;
  for (const WorkSample& x : s)
    out.push_back(x.device_ms > 0 && typical > 0
                      ? x.wall_ms / x.device_ms * typical
                      : x.wall_ms);
  return out;
}

double work_scaled(const std::vector<WorkSample>& s) {
  return quiet(work_scaled_samples(s));
}

void Suite::verify(RunResult& r) const {
  namespace serial = grx::serial;
  auto same = [](const std::vector<std::uint32_t>& want) {
    return [&want](const std::vector<std::uint32_t>& got) {
      return got == want;
    };
  };
  auto bump_u32 = [](std::uint32_t& x) { x ^= 1u; };
  auto bump_f64 = [](double& x) { x = x * (1.0 + 1e-6) + 1e-6; };

  for (std::size_t i = 0; i < bfs_src_.size(); ++i) {
    const auto want = serial::bfs(g_, bfs_src_[i]);
    r.check(bfs_out_[i].depth == want, "bfs depth != serial::bfs");
    if (i == 0) self_test(r, "bfs", bfs_out_[i].depth, same(want), bump_u32);
  }
  for (std::size_t i = 0; i < sssp_src_.size(); ++i) {
    const auto want = serial::dijkstra(g_, sssp_src_[i]);
    r.check(sssp_out_[i].dist == want, "sssp dist != serial::dijkstra");
    if (i == 0) self_test(r, "sssp", sssp_out_[i].dist, same(want), bump_u32);
  }
  for (std::size_t i = 0; i < bc_src_.size(); ++i) {
    const auto want = serial::brandes_bc(g_, bc_src_[i]);
    auto check = [&want](const std::vector<double>& got) {
      return close_rel(got, want, 1e-8);
    };
    r.check(check(bc_out_[i].bc_values), "bc != serial::brandes_bc");
    if (i == 0) self_test(r, "bc", bc_out_[i].bc_values, check, bump_f64);
  }
  {
    const auto want = serial::connected_components(g_);
    r.check(cc_out_.component == want &&
                cc_out_.num_components == serial::count_components(want),
            "cc labels != serial::connected_components");
    self_test(r, "cc", cc_out_.component, same(want), bump_u32);
  }
  {
    const auto want =
        serial::pagerank(g_, pr_opts_.damping, kPagerankIterations);
    auto check = [&want](const std::vector<double>& got) {
      return pagerank_ok(got, want, 1e-10);
    };
    r.check(check(pr_out_.rank), "pagerank != serial::pagerank");
    self_test(r, "pagerank", pr_out_.rank, check, bump_f64);
  }
}

void Suite::layer_metrics(RunResult& r,
                          const std::vector<VertexId>& batch_sources,
                          int batch_reps) {
  bool any_traced = false;
  for (const CallRecord& c : calls_) any_traced = any_traced || c.traced;
  for (int pi = 0; pi < kNumPrims; ++pi) {
    const auto p = static_cast<Prim>(pi);
    const std::string name = kPrimNames[p];
    std::vector<double> launches, device, rounds, edges, us_per_round;
    double lane = 0.0, warp = 0.0;
    for (const CallRecord& c : calls_) {
      if (c.prim != p || (any_traced && !c.traced)) continue;
      launches.push_back(static_cast<double>(c.launches));
      device.push_back(c.device_ms);
      rounds.push_back(c.rounds);
      edges.push_back(static_cast<double>(c.edges));
      us_per_round.push_back(c.wall_ms * 1e3 / std::max(1u, c.rounds));
      lane += static_cast<double>(c.lane_cycles);
      warp += static_cast<double>(c.warp_cycles);
    }
    r.layer.set("simt." + name + ".launches", median(launches), "count");
    r.layer.set("simt." + name + ".warp_eff",
                warp > 0 ? lane / (32.0 * warp) : 1.0, "ratio");
    r.layer.set("simt." + name + ".device_ms", median(device), "ms");
    r.layer.set("primitives." + name + ".rounds", median(rounds), "count");
    r.layer.set("primitives." + name + ".edges", median(edges), "count");
    r.layer.set("primitives." + name + ".us_per_round", median(us_per_round),
                "us");
    r.layer.set("engine." + name + ".ms",
                median(tracer().durations_ms(kEngineSpans[p])), "ms");
  }

  std::vector<double> pull, splits;
  double near = 0.0, far = 0.0;
  for (const CallRecord& c : calls_) {
    if (any_traced && !c.traced) continue;
    if (c.prim == kBfs) pull.push_back(c.pull_rounds);
    if (c.prim == kSssp) {
      splits.push_back(static_cast<double>(c.pq_splits));
      near += static_cast<double>(c.pq_near);
      far += static_cast<double>(c.pq_far);
    }
  }
  r.layer.set("core.bfs.pull_rounds", median(pull), "count");
  r.layer.set("core.sssp.pq_splits", median(splits), "count");
  r.layer.set("core.sssp.far_share", near + far > 0 ? far / (near + far) : 0,
              "ratio");
  bfs_replay(g_, bfs_out_[0].depth, 3, r);

  // Heap allocations of one warm call per primitive (the engine's
  // zero-steady-state-allocation contract, counted from outside).
  for (int pi = 0; pi < kNumPrims; ++pi) {
    count_allocs(true);
    call(static_cast<Prim>(pi), 0, false, next_id_++);
    count_allocs(false);
    r.layer.set(std::string("engine.") + kPrimNames[pi] + ".allocs",
                static_cast<double>(allocs_counted()), "count");
  }

  // The 64-lane batch floor: what one fused server enact of these sources
  // costs on a direct Engine.
  grx::BatchBfsResult bb;
  grx::BatchSsspResult bs;
  std::vector<double> bms, sms;
  for (int rep = 0; rep <= batch_reps; ++rep) {
    auto t0 = Clock::now();
    {
      auto s = span("engine.batch_bfs", rep);
      engine_.batch_bfs(batch_sources, bb);
    }
    auto t1 = Clock::now();
    {
      auto s = span("engine.batch_sssp", rep);
      engine_.batch_sssp(batch_sources, bs);
    }
    auto t2 = Clock::now();
    if (rep > 0) {
      bms.push_back(ms_between(t0, t1));
      sms.push_back(ms_between(t1, t2));
    }
  }
  r.layer.set("engine.batch_bfs.ms", median(bms), "ms");
  r.layer.set("engine.batch_sssp.ms", median(sms), "ms");
}

// --- EdgeModel -------------------------------------------------------------------

EdgeModel::EdgeModel(const grx::Csr& g) : adj_(g.num_vertices()) {
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto nb = g.neighbors(u);
    const auto w = g.edge_weights(u);
    for (std::size_t i = 0; i < nb.size(); ++i) adj_[u][nb[i]] = w[i];
  }
}

void EdgeModel::apply(std::span<const grx::EdgeUpdate> batch) {
  for (const grx::EdgeUpdate& e : batch) {
    if (e.insert) {
      adj_[e.src][e.dst] = e.weight;
      adj_[e.dst][e.src] = e.weight;
    } else {
      adj_[e.src].erase(e.dst);
      adj_[e.dst].erase(e.src);
    }
  }
}

grx::Csr EdgeModel::csr() const {
  std::vector<grx::EdgeId> offsets(adj_.size() + 1, 0);
  std::vector<VertexId> cols;
  std::vector<grx::Weight> weights;
  for (std::size_t u = 0; u < adj_.size(); ++u) {
    for (const auto& [v, w] : adj_[u]) {
      cols.push_back(v);
      weights.push_back(w);
    }
    offsets[u + 1] = cols.size();
  }
  return grx::Csr(static_cast<VertexId>(adj_.size()), std::move(offsets),
                  std::move(cols), std::move(weights));
}

bool EdgeModel::pick_edge(grx::Rng& rng, VertexId& u, VertexId& v) const {
  for (int tries = 0; tries < 256; ++tries) {
    u = static_cast<VertexId>(rng.next_below(adj_.size()));
    if (adj_[u].empty()) continue;
    v = std::next(adj_[u].begin(),
                  static_cast<std::ptrdiff_t>(rng.next_below(adj_[u].size())))
            ->first;
    return true;
  }
  return false;
}

std::vector<grx::EdgeUpdate> EdgeModel::churn_batch(grx::Rng& rng) const {
  const std::uint64_t n = adj_.size();
  auto weight = [&rng] { return static_cast<grx::Weight>(rng.next_in(1, 64)); };
  auto random_pair = [&](VertexId& u, VertexId& v) {
    u = static_cast<VertexId>(rng.next_below(n));
    do {
      v = static_cast<VertexId>(rng.next_below(n));
    } while (v == u);
  };
  std::vector<grx::EdgeUpdate> batch;
  VertexId u = 0, v = 0;
  for (int i = 0; i < 7; ++i) {
    random_pair(u, v);
    batch.push_back(grx::EdgeUpdate::insert_edge(u, v, weight()));
  }
  if (!pick_edge(rng, u, v)) random_pair(u, v);
  batch.push_back(grx::EdgeUpdate::insert_edge(u, v, weight()));
  for (int i = 0; i < 7; ++i) {
    if (!pick_edge(rng, u, v)) random_pair(u, v);
    batch.push_back(grx::EdgeUpdate::remove_edge(u, v));
  }
  random_pair(u, v);
  batch.push_back(grx::EdgeUpdate::remove_edge(u, v));
  return batch;
}

bool same_csr(const grx::Csr& a, const grx::Csr& b) {
  auto eq = [](auto x, auto y) { return std::ranges::equal(x, y); };
  return a.num_vertices() == b.num_vertices() &&
         eq(a.row_offsets(), b.row_offsets()) &&
         eq(a.col_indices(), b.col_indices()) && eq(a.weights(), b.weights());
}

UpdateProbe::UpdateProbe(const grx::Csr& g, std::uint64_t seed)
    : model_(g), rng_(seed ^ 0x5bd1e995ULL) {
  grx::DynamicGraphOptions o;
  o.symmetric = true;
  auto s = span("graph.dynamic_graph");
  dyn_ = std::make_unique<grx::DynamicGraph>(g, o);
}

void UpdateProbe::step() {
  const auto batch = model_.churn_batch(rng_);
  model_.apply(batch);
  const auto t0 = Clock::now();
  {
    auto s = span("dynamic.apply_updates", ms_.size());
    dyn_->apply_updates(batch);
  }
  ms_.push_back(ms_between(t0, Clock::now()));
  live_max_ = std::max(live_max_, dyn_->stats().live_snapshots);
}

void UpdateProbe::finish(RunResult& r) {
  {
    const grx::SnapshotView view = dyn_->snapshot();
    grx::Csr want = model_.csr();
    r.check(same_csr(view.csr(), want),
            "dynamic graph != the benchmark's replayed edge set");
    std::vector<grx::Weight> w(want.weights().begin(), want.weights().end());
    w[w.size() / 2] += 1;
    const grx::Csr bad(want.num_vertices(),
                       {want.row_offsets().begin(), want.row_offsets().end()},
                       {want.col_indices().begin(), want.col_indices().end()},
                       std::move(w));
    r.check(!same_csr(view.csr(), bad),
            "self-test dynamic graph: perturbed edge set accepted");
  }
  const grx::DynamicGraphStats d = dyn_->stats();
  r.e2e.set("update_p50_ms",
            quiet(per_window(ms_, kUpdateWindow, median)), "ms");
  r.layer.set("dynamic.apply_ms", median(ms_), "ms");
  r.layer.set("dynamic.epochs", static_cast<double>(d.epoch), "count");
  r.layer.set("dynamic.compactions", static_cast<double>(d.compactions),
              "count");
  r.layer.set("dynamic.compact_ms_max",
              static_cast<double>(d.compact_us_max) / 1e3, "ms");
  r.layer.set("dynamic.snapshots_live_max", static_cast<double>(live_max_),
              "count");
}

// --- checks -----------------------------------------------------------------------

bool close_rel(const std::vector<double>& got, const std::vector<double>& want,
               double rel) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!(std::fabs(got[i] - want[i]) <= rel * std::max(1.0, std::fabs(want[i]))))
      return false;
  return true;
}

bool pagerank_ok(const std::vector<double>& got,
                 const std::vector<double>& want, double tol) {
  if (got.size() != want.size()) return false;
  double sum = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <= tol)) return false;
    sum += got[i];
  }
  return std::fabs(sum - 1.0) <= tol * static_cast<double>(got.size());
}

}  // namespace perfbench
