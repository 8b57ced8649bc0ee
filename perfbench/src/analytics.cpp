// The analytics workloads: passes of the paper's primitive suite on one
// warm grx::Engine at the default OpenMP width.
//
// analytics-scalefree — soc-orkut-s (few BFS rounds over huge, skewed
//   frontiers): BFS from 8 spread sources, SSSP from 2, BC from 1.
// analytics-road — roadnet-s (hundreds of rounds per traversal): BFS from
//   4 sources, SSSP from 1, BC from 1.
// Both run CC and 20 fixed PageRank iterations once per pass. Passes are
// kept short (about 0.4 s) so a run holds many of them: every wall-clock
// metric is a quiet quantile over calls, passes or windows of passes.
#include "graph/datasets.hpp"
#include "suite.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {
constexpr int kMinPasses = 8;
/// Passes per window of the pass-latency percentiles.
constexpr std::size_t kLatencyWindow = 5;
constexpr SuiteShape kScalefreeShape{8, 2, 1};
constexpr SuiteShape kRoadShape{4, 1, 1};
}

void run_analytics(const Args& a, bool road, RunResult& r) {
  tracer().set_enabled(a.trace);
  grx::Csr g;
  {
    auto s = span("graph.build_dataset");
    g = grx::build_dataset(road ? "roadnet-s" : "soc-orkut-s", 0);
  }
  const double graph_build_s = tracer().total_ms("graph.") / 1e3;
  Suite suite(g, road ? kRoadShape : kScalefreeShape, a.seed);
  suite.pass(false);  // warm-up: pools sized, pages touched
  tracer().set_enabled(false);
  r.e2e.set("setup_s", since_start_s(), "s");

  // Timed phase: whole passes until the time is up.
  const auto t0 = Clock::now();
  for (int p = 0;; ++p) {
    tracer().set_enabled(a.trace && p % 2 == 1);
    suite.pass(true);
    if (p + 1 >= kMinPasses &&
        ms_between(t0, Clock::now()) / 1e3 >= a.seconds)
      break;
  }
  tracer().set_enabled(false);
  // The engine's footprint: read before the update probe, whose edge-set
  // model and snapshot churn are the benchmark's, not the engine's.
  r.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Update probe phase: whole windows of churn batches on a DynamicGraph
  // copy of the dataset.
  tracer().set_enabled(a.trace);
  UpdateProbe probe(g, a.seed);
  const auto probe_start = Clock::now();
  do {
    for (std::size_t k = 0; k < kUpdateWindow; ++k) probe.step();
  } while (ms_between(probe_start, Clock::now()) / 1e3 <
           kProbeShare * a.seconds);
  tracer().set_enabled(false);

  // An analytics client's request is one pass of the suite: latency is
  // per pass (p50 and p99 within windows of kLatencyWindow passes, quiet
  // quantile over the windows), throughput counts engine calls per second
  // of a pass at the quiet quantile of pass time. Pass times are
  // work-scaled, as call times are: every pass draws new sources.
  r.attempted = suite.calls().size() + probe.batches();
  suite.e2e_metrics(r);
  std::vector<WorkSample> passes;
  std::vector<double> traced_ms, untraced_ms;
  for (const PassRecord& p : suite.passes()) {
    (p.traced ? traced_ms : untraced_ms).push_back(p.wall_ms);
    if (!p.traced) passes.push_back({p.wall_ms, p.device_ms});
  }
  const std::vector<double> pass_ms = work_scaled_samples(passes);
  const double calls_per_pass = static_cast<double>(suite.calls().size()) /
                                static_cast<double>(suite.passes().size());
  r.e2e.set("qps", calls_per_pass / (quiet(pass_ms) / 1e3), "queries/s");
  r.e2e.set("latency_p50_ms",
            quiet(per_window(pass_ms, kLatencyWindow, median)), "ms");
  r.e2e.set("latency_p99_ms",
            quiet(per_window(pass_ms, kLatencyWindow,
                             [](std::vector<double> v) {
                               return percentile(std::move(v), 99);
                             })),
            "ms");
  probe.finish(r);

  suite.verify(r);

  if (!a.trace) return;
  r.layer.set("graph.build_s", graph_build_s, "s");
  suite.layer_metrics(r, spread_sources(g, 64, a.seed + 3), 1);
  set_trace_overhead(r, median(traced_ms) / median(untraced_ms) - 1.0);
}

}  // namespace perfbench
