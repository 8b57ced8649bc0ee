// grx_perfbench — the end-to-end benchmark driver (perfbench/run.py builds
// and runs it).
//
//   grx_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--source-id <id>] [--commit <id>] [--trace-out <file>]
//
// Prints an environment line, any output-check problems, and as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics; traced runs the per-layer
// ones (and write the recorded spans to --trace-out).
#include <omp.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "api/server.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "simt/vec.hpp"
#include "workloads.hpp"

namespace perfbench {

void zero_layers(RunResult& r) {
  r.layer.set("graph.build_s", 0, "s");
  for (const char* p : {"bfs", "sssp", "bc", "cc", "pagerank"}) {
    const std::string n = p;
    r.layer.set("simt." + n + ".launches", 0, "count");
    r.layer.set("simt." + n + ".warp_eff", 0, "ratio");
    r.layer.set("simt." + n + ".device_ms", 0, "ms");
  }
  r.layer.set("core.bfs.advance_ms", 0, "ms");
  r.layer.set("core.bfs.filter_ms", 0, "ms");
  r.layer.set("core.bfs.pull_rounds", 0, "count");
  r.layer.set("core.sssp.pq_splits", 0, "count");
  r.layer.set("core.sssp.far_share", 0, "ratio");
  for (const char* p : {"bfs", "sssp", "bc", "cc", "pagerank"}) {
    const std::string n = p;
    r.layer.set("primitives." + n + ".rounds", 0, "count");
    r.layer.set("primitives." + n + ".edges", 0, "count");
    r.layer.set("primitives." + n + ".us_per_round", 0, "us");
  }
  for (const char* p : {"bfs", "sssp", "bc", "cc", "pagerank"}) {
    const std::string n = p;
    r.layer.set("engine." + n + ".ms", 0, "ms");
    r.layer.set("engine." + n + ".allocs", 0, "count");
  }
  r.layer.set("engine.batch_bfs.ms", 0, "ms");
  r.layer.set("engine.batch_sssp.ms", 0, "ms");
  r.layer.set("server.queries", 0, "count");
  r.layer.set("server.submit_us", 0, "us");
  r.layer.set("server.enacts", 0, "count");
  r.layer.set("server.lanes_per_enact", 0, "lanes");
  r.layer.set("server.coalesced_share", 0, "ratio");
  r.layer.set("server.ms_per_enact", 0, "ms");
  r.layer.set("proc.cpu_s_per_kquery", 0, "s");
  for (const char* c : {"hits", "attached", "misses", "evictions"})
    r.layer.set(std::string("cache.") + c, 0, "count");
  r.layer.set("cache.reuse_share", 0, "ratio");
  for (const char* d : {"apply_ms", "epochs", "rebinds", "fuse_splits",
                        "compactions", "compact_ms_max",
                        "snapshots_live_max"})
    r.layer.set(std::string("dynamic.") + d, 0,
                std::strstr(d, "ms") ? "ms" : "count");
  r.layer.set("trace.spans", 0, "count");
  r.layer.set("trace.overhead_pct", 0, "%");
}

void set_trace_overhead(RunResult& r, double ratio_minus_one) {
  r.layer.set("trace.overhead_pct", 100.0 * ratio_minus_one, "%");
}

}  // namespace perfbench

namespace {

using perfbench::Args;

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--source-id") a.source_id = v;
      else if (k == "--commit") a.commit = v;
      else if (k == "--trace-out") a.trace_out = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Workers and OpenMP threads per worker a default-constructed Server
/// resolves to where the benchmark runs (its own resolution, read back from a
/// throwaway server over a tiny graph).
std::string server_defaults() {
  const grx::Csr tiny = grx::build_csr(grx::rmat(4, 2, 1));
  grx::Server s(tiny);
  const std::string workers = std::to_string(s.num_workers());
  s.stop();
  const grx::ServerOptions so;
  const int omp = so.omp_threads_per_worker != 0
                      ? static_cast<int>(so.omp_threads_per_worker)
                      : omp_get_max_threads();
  return workers + "x" + std::to_string(omp);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::mark_start();
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: grx_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--source-id <id>] "
                 "[--commit <id>] [--trace-out <file>]\n");
    return 2;
  }
  perfbench::RunResult r;
  perfbench::zero_layers(r);
  try {
    if (a.workload == "analytics-scalefree") perfbench::run_analytics(a, false, r);
    else if (a.workload == "analytics-road") perfbench::run_analytics(a, true, r);
    else if (a.workload == "serve-coalesced") perfbench::run_serve(a, false, r);
    else if (a.workload == "serve-hot-churn") perfbench::run_serve(a, true, r);
    else {
      std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grx_perfbench: %s\n", e.what());
    return 1;
  }

  if (a.trace) {
    const auto& spans = perfbench::tracer().spans();
    r.layer.set("trace.spans", static_cast<double>(spans.size()), "count");
    if (!a.trace_out.empty() && !perfbench::tracer().write(a.trace_out))
      std::fprintf(stderr, "cannot write trace to %s\n", a.trace_out.c_str());
  }

  // The environment record: what the numbers were measured on.
  std::string env = "{";
  auto field = [&env](const std::string& k, const std::string& v) {
    if (env.size() > 1) env += ", ";
    env += "\"" + k + "\": \"" + json_escape(v) + "\"";
  };
  field("workload", a.workload);
  field("seed", std::to_string(a.seed));
  field("nproc", std::to_string(std::thread::hardware_concurrency()));
  field("omp_width", std::to_string(omp_get_max_threads()));
  field("vec_backend", grx::simt::to_string(
                           grx::simt::resolve_backend(grx::simt::VecBackend::kAuto)));
  field("server_workers_x_omp", server_defaults());
#if defined(__clang__)
  field("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  field("compiler", "gcc " __VERSION__);
#else
  field("compiler", "unknown");
#endif
  field("commit", a.commit);
  field("source", a.source_id);
  std::printf("env %s}\n", env.c_str());
  for (const std::string& p : r.problems) std::printf("CHECK FAILED: %s\n", p.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              (a.trace ? r.layer : r.e2e).json().c_str());
  return 0;
}
