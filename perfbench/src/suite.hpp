// The paper's primitive suite on a warm grx::Engine, the side probes that
// give every workload the full metric set, and the output checks against
// the serial oracles (baselines/serial, which shares no code with the
// engines).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "bench.hpp"
#include "graph/dynamic.hpp"
#include "simt/device.hpp"
#include "util/rng.hpp"

namespace perfbench {

enum Prim : std::uint8_t { kBfs, kSssp, kBc, kCc, kPr, kNumPrims };
inline constexpr std::array<const char*, kNumPrims> kPrimNames = {
    "bfs", "sssp", "bc", "cc", "pagerank"};

inline constexpr std::uint32_t kPagerankIterations = 20;

/// Sources per pass of the suite, per source-driven primitive.
struct SuiteShape {
  std::uint32_t bfs = 8;
  std::uint32_t sssp = 8;
  std::uint32_t bc = 2;
};

/// What the driver keeps of one suite pass.
struct PassRecord {
  bool traced = false;
  double wall_ms = 0.0;
  double device_ms = 0.0;  ///< summed over the pass's calls
};

/// What the driver keeps of one engine call.
struct CallRecord {
  Prim prim = kBfs;
  bool traced = false;
  double wall_ms = 0.0;
  double device_ms = 0.0;
  std::uint64_t launches = 0;
  std::uint64_t warp_cycles = 0;
  std::uint64_t lane_cycles = 0;
  std::uint32_t rounds = 0;
  std::uint64_t edges = 0;
  std::uint32_t pull_rounds = 0;
  std::uint64_t pq_splits = 0;
  std::uint64_t pq_near = 0;
  std::uint64_t pq_far = 0;
};

/// One warm Engine over `g` running passes of the suite: direction-optimal
/// BFS and SSSP from spread sources, BC, CC, and PageRank for a fixed
/// iteration count, with as many sources per pass as `shape` says. Each pass draws its own sources from the seed. Each
/// source slot has its own pooled result object, so the last pass's
/// outputs stay available for the oracle checks and warm calls allocate
/// nothing.
class Suite {
 public:
  Suite(const grx::Csr& g, SuiteShape shape, std::uint64_t seed);

  /// Runs one pass; returns its wall time in ms. `record` keeps the calls
  /// (warm-up passes are not recorded); spans are taken when the tracer
  /// is on.
  double pass(bool record);

  const std::vector<CallRecord>& calls() const { return calls_; }
  const std::vector<PassRecord>& passes() const { return passes_; }

  /// Compares the last pass's outputs with the serial oracles and runs
  /// every check once more on a perturbed copy, which it must reject.
  void verify(RunResult& r) const;

  /// simt / core / primitives / engine per-layer metrics from the
  /// recorded traced calls, plus warm-call allocation counts, the BFS
  /// level replay through the core operators, and the 64-lane batch floor
  /// over `batch_sources` (median of `batch_reps` calls after a warm-up
  /// call). Runs extra (untimed) calls on the engine.
  void layer_metrics(RunResult& r,
                     const std::vector<grx::VertexId>& batch_sources,
                     int batch_reps);

  /// Sets the suite's end-to-end metrics: <p>_ms (work_scaled over the
  /// untraced calls of p) and device_ms, the median per pass.
  void e2e_metrics(RunResult& r) const;


 private:
  void call(Prim p, std::size_t slot, bool record, std::uint64_t id);

  const grx::Csr& g_;
  std::uint64_t seed_;
  std::uint64_t draws_ = 0;  // passes run, warm-up included
  grx::simt::Device dev_;
  grx::Engine engine_;
  grx::QueryOptions bfs_opts_, sssp_opts_, pr_opts_;
  std::vector<grx::VertexId> bfs_src_, sssp_src_, bc_src_;
  std::vector<grx::BfsResult> bfs_out_;
  std::vector<grx::SsspResult> sssp_out_;
  std::vector<grx::BcResult> bc_out_;
  grx::CcResult cc_out_;
  grx::PagerankResult pr_out_;
  std::vector<CallRecord> calls_;
  std::vector<PassRecord> passes_;
  std::uint64_t next_id_ = 0;
};

/// The benchmark's own copy of a mutable undirected edge set, updated with
/// the documented DynamicGraph semantics (graph/dynamic.hpp) for a
/// symmetric graph: every update applies in both directions, an insert
/// upserts the weight, a delete of an absent edge is ignored.
class EdgeModel {
 public:
  explicit EdgeModel(const grx::Csr& g);
  void apply(std::span<const grx::EdgeUpdate> batch);
  /// The model as a canonical CSR (neighbors ascending, weights kept).
  grx::Csr csr() const;

  /// One seeded churn batch of 16 updates: 7 inserts between random
  /// distinct vertices, 1 re-weight of an existing edge, 7 deletes of
  /// existing edges and 1 delete of a random pair (usually absent).
  /// Weights are uniform in [1, 64]. The model is not changed.
  std::vector<grx::EdgeUpdate> churn_batch(grx::Rng& rng) const;

 private:
  /// A random existing edge (u, v); false when none was found.
  bool pick_edge(grx::Rng& rng, grx::VertexId& u, grx::VertexId& v) const;

  std::vector<std::map<grx::VertexId, grx::Weight>> adj_;
};

/// Update batches per window of update_p50_ms.
inline constexpr std::size_t kUpdateWindow = 8;

/// True iff `a` and `b` have identical offsets, neighbors and weights.
bool same_csr(const grx::Csr& a, const grx::Csr& b);

/// The update probe of workloads whose main phase publishes no epochs: a
/// symmetric DynamicGraph copy of `g` that takes churn batches
/// (EdgeModel::churn_batch) paced through the timed phase, so its timings
/// are spread over the same stretch as the main measurement.
class UpdateProbe {
 public:
  UpdateProbe(const grx::Csr& g, std::uint64_t seed);

  /// Applies and times one churn batch.
  void step();
  std::uint32_t batches() const { return static_cast<std::uint32_t>(ms_.size()); }

  /// Checks the final snapshot against the benchmark's EdgeModel and sets
  /// update_p50_ms (the median DynamicGraph::apply_updates time of each
  /// kUpdateWindow consecutive batches, quiet quantile over the windows) and
  /// the dynamic.* per-layer metrics.
  void finish(RunResult& r);

 private:
  std::unique_ptr<grx::DynamicGraph> dyn_;
  EdgeModel model_;
  grx::Rng rng_;
  std::vector<double> ms_;
  std::uint64_t live_max_ = 0;
};

/// Wall times made comparable across sources. A call's cost depends on its
/// source (rounds, reach), and every pass draws new sources, so a plain
/// quantile of wall times would read which sources a seed drew. Each
/// sample's wall ms is divided by its simulated device ms (the library's
/// own work count for the same call), the quiet quantile of that ratio is
/// taken, and it is scaled back by the median device ms: the wall time of
/// a median-work sample at quiet-host speed. Each sample is (wall_ms,
/// device_ms); device_ms <= 0 falls back to the plain quiet quantile.
struct WorkSample {
  double wall_ms;
  double device_ms;
};
/// One work-scaled value per sample, in order (the input of per_window).
std::vector<double> work_scaled_samples(const std::vector<WorkSample>& s);
/// The quiet quantile of work_scaled_samples.
double work_scaled(const std::vector<WorkSample>& s);

// --- checks -------------------------------------------------------------------

/// |got - want| <= rel * max(1, |want|) elementwise.
bool close_rel(const std::vector<double>& got, const std::vector<double>& want,
               double rel);
/// Elementwise within `tol` and summing to 1 within `tol` * n.
bool pagerank_ok(const std::vector<double>& got,
                 const std::vector<double>& want, double tol);

/// Feeds `check` a copy of `good` with one element changed by `perturb`;
/// records a problem unless the check rejects it.
template <typename V, typename Check, typename Perturb>
void self_test(RunResult& r, const std::string& name, const V& good,
               Check&& check, Perturb&& perturb) {
  V bad = good;
  if (bad.empty()) {
    r.check(false, "self-test " + name + ": empty result");
    return;
  }
  perturb(bad[bad.size() / 2]);
  r.check(!check(bad), "self-test " + name + ": perturbed result accepted");
}

}  // namespace perfbench
