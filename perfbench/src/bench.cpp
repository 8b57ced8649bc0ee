#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "util/rng.hpp"

namespace perfbench {

// --- metrics ------------------------------------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    // Non-finite values are not JSON numbers; they would be a driver bug.
    const double v = std::isfinite(e.value) ? e.value : -1.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

// --- clocks -------------------------------------------------------------------

namespace {
Clock::time_point g_start = Clock::now();
}

void mark_start() { g_start = Clock::now(); }

double since_start_s() {
  return std::chrono::duration<double>(Clock::now() - g_start).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- tracing ------------------------------------------------------------------

namespace {
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - g_start)
      .count();
}
}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

Tracer::Scope::Scope(Tracer& t, const char* name, std::uint64_t query) {
  if (!t.enabled_) return;
  t_ = &t;
  index_ = static_cast<std::int32_t>(t.spans_.size());
  t.spans_.push_back({name, now_ns(), 0, t.current_, query});
  t.current_ = index_;
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  Span& s = t_->spans_[static_cast<std::size_t>(index_)];
  s.end_ns = now_ns();
  t_->current_ = s.parent;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  return out;
}

double Tracer::total_ms(const std::string& prefix) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (std::string_view(s.name).starts_with(prefix))
      sum += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  return sum;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\tquery\n");
  for (const Span& s : spans_)
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%llu\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.query));
  return std::fclose(f) == 0;
}

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// --- inputs -------------------------------------------------------------------

std::vector<grx::VertexId> spread_sources(const grx::Csr& g,
                                          std::uint32_t count,
                                          std::uint64_t seed) {
  grx::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  const std::uint64_t n = g.num_vertices();
  std::vector<grx::VertexId> out;
  for (std::uint32_t k = 0; k < count; ++k) {
    const auto start = static_cast<std::uint64_t>(
        (static_cast<double>(k) + rng.next_double()) *
        static_cast<double>(n) / count);
    auto best = static_cast<grx::VertexId>(start % n);
    for (std::uint64_t i = 0; i < 64; ++i) {
      const auto v = static_cast<grx::VertexId>((start + i) % n);
      if (g.degree(v) > g.degree(best)) best = v;
    }
    out.push_back(best);
  }
  return out;
}

// --- heap allocation counter ----------------------------------------------------

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else {
    n = (n + align - 1) / align * align;  // aligned_alloc needs a multiple
    p = std::aligned_alloc(align, n);
  }
  return p;
}
}  // namespace

void count_allocs(bool on) {
  if (on) g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocs_counted() {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace perfbench

// Global allocation functions, replaced so warm engine calls can be shown
// allocation-free (engine.<p>.allocs). Plain and aligned forms both go
// through counted_alloc; every delete form frees with std::free.
void* operator new(std::size_t n) {
  if (void* p = perfbench::counted_alloc(n, 0)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = perfbench::counted_alloc(n, 0)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = perfbench::counted_alloc(n, static_cast<std::size_t>(a)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = perfbench::counted_alloc(n, static_cast<std::size_t>(a)))
    return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(n, 0);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
