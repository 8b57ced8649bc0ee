// Shared plumbing of the end-to-end benchmark driver: run arguments, the
// metric sink, the span tracer, the heap-allocation counter, and small
// statistics helpers. Every layer is timed from outside, around calls into
// the library's public functions; nothing here reaches into src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id = "unknown";
  std::string commit = "unknown";
  std::string trace_out;
};

/// Named metric values in insertion order, printed as the result's
/// "metrics" object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Outcome of one run. `attempted` counts the timed operations (engine
/// calls, served queries, update batches); `failed` those that threw or
/// resolved without a value. `correct` is false when any output check
/// failed; `problems` says which.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  Metrics e2e;    ///< printed by untraced runs
  Metrics layer;  ///< printed by traced runs

  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

/// Seconds since the driver's main() began (the set-up clock).
double since_start_s();
void mark_start();

// --- tracing ----------------------------------------------------------------

/// One recorded call into a layer.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  ///< index of the enclosing span, -1 at top level
  std::uint64_t query;  ///< query / call id the span belongs to
};

/// In-memory span recorder for the driver's own thread (the only thread
/// that calls into the library on the benchmark's behalf). Disabled, a
/// Scope costs one branch.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t query);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_ = nullptr;
    std::int32_t index_ = -1;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in milliseconds of every span named `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Sum of durations of spans whose name starts with `prefix`.
  double total_ms(const std::string& prefix) const;

  /// Writes every span as a tab-separated line: name, start_ns, end_ns,
  /// parent, query. Returns false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::int32_t current_ = -1;
  std::vector<Span> spans_;
};

Tracer& tracer();

/// Span around one call into a layer: `auto s = span("engine.bfs", id);`
inline Tracer::Scope span(const char* name, std::uint64_t query = 0) {
  return Tracer::Scope(tracer(), name, query);
}

// --- heap allocation counter -----------------------------------------------

/// Counts every operator new in the process while armed (all threads).
/// The benchmark binary replaces the global allocation functions.
void count_allocs(bool on);
std::uint64_t allocs_counted();

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);
/// Linearly interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
/// The quantile at which a run reports a wall-clock metric over its
/// samples (calls, passes or windows, in time order). The host's slow-downs
/// are intermittent: in any stretch of a run some samples run at full
/// speed, and how many does not depend on the program. A low quantile of
/// many short samples reads the program's own speed; the median reads how
/// busy the host was.
inline constexpr double kQuietQuantile = 0.1;
/// A time (lower is better) at kQuietQuantile.
inline double quiet(const std::vector<double>& samples) {
  return quantile(samples, kQuietQuantile);
}
/// A rate (higher is better) at 1 - kQuietQuantile.
inline double quiet_rate(const std::vector<double>& samples) {
  return quantile(samples, 1.0 - kQuietQuantile);
}

/// `stat` of each run of `window` consecutive samples of `samples` (in
/// time order). A tail shorter than a window is left out; with fewer than
/// `window` samples the whole sequence is one window.
template <typename Stat>
std::vector<double> per_window(const std::vector<double>& samples,
                               std::size_t window, Stat stat) {
  std::vector<double> out;
  for (std::size_t i = 0; window > 0 && i + window <= samples.size();
       i += window)
    out.push_back(stat(std::vector<double>(
        samples.begin() + static_cast<std::ptrdiff_t>(i),
        samples.begin() + static_cast<std::ptrdiff_t>(i + window))));
  if (out.empty() && !samples.empty()) out.push_back(stat(samples));
  return out;
}
double ms_between(Clock::time_point a, Clock::time_point b);
/// User + system CPU seconds of the process so far.
double cpu_seconds();
/// Peak resident set size of the process, in MB.
double peak_rss_mb();

// --- inputs -----------------------------------------------------------------

/// `count` sources spread over the vertex-id range by stratified sampling:
/// source k is the highest-degree vertex of the 64 ids from
/// (k + u_k) * n / count, each u_k uniform in [0, 1) from `seed`. The
/// spread keeps the total work of a source set steady from seed to seed;
/// the degree pick keeps sources off isolated vertices.
std::vector<grx::VertexId> spread_sources(const grx::Csr& g,
                                          std::uint32_t count,
                                          std::uint64_t seed);

}  // namespace perfbench
