// The four workloads the driver can run (perfbench/README.md says why each
// exists). Each fills a RunResult: end-to-end metrics, per-layer metrics
// when traced, operation counts and output-check problems.
#pragma once

#include "bench.hpp"

namespace perfbench {

/// Update probe: on analytics its own phase after the passes, whole
/// windows of churn batches for this share of --seconds; on
/// serve-coalesced one batch per this many submissions.
inline constexpr double kProbeShare = 0.25;
inline constexpr std::uint64_t kProbeEverySubmissions = 128;

/// analytics-scalefree (soc-orkut-s) and analytics-road (roadnet-s).
void run_analytics(const Args& a, bool road, RunResult& r);
/// serve-coalesced (static graph, cache off) and serve-hot-churn.
void run_serve(const Args& a, bool churn, RunResult& r);

/// Per-layer metrics of layers a workload does not drive, at zero, so
/// every traced run prints the full set; a workload overwrites the ones
/// it measures.
void zero_layers(RunResult& r);
/// trace.overhead_pct: how much slower the traced passes or windows of a
/// traced run were than the untraced ones interleaved with them.
void set_trace_overhead(RunResult& r, double ratio_minus_one);

}  // namespace perfbench
