// Support code of tvs-bench: clocks, sample statistics, the in-memory span
// tracer, host probes (cache sizes, STREAM-style triad, calibration
// kernel, peak RSS) and the metric sink the driver prints at the end.
//
// Everything here is the benchmark's own code; nothing in src/ is
// instrumented.  Spans are recorded around the calls the benchmark makes
// into each layer's public functions.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace tb {

// ---- clocks -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- sample statistics ------------------------------------------------------

// Nearest-rank percentile (q in [0, 100]) of an unsorted sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

inline double median(const std::vector<double>& v) { return percentile(v, 50); }

// The tail rule: the highest percentile of the ladder below that has at
// least kTailMinBeyond samples strictly beyond its rank.  `pct` is 0 when
// no percentile above p50 qualifies (fewer than ~20 samples).
inline constexpr std::size_t kTailMinBeyond = 10;
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 60.0};

struct Tail {
  double pct = 0;
  double value = 0;
  std::size_t beyond = 0;
  std::size_t n = 0;
};

inline Tail tail(const std::vector<double>& v) {
  Tail t;
  t.n = v.size();
  for (const double q : kTailLadder) {
    const double rank = std::ceil(q / 100.0 * static_cast<double>(t.n));
    const std::size_t beyond = t.n - static_cast<std::size_t>(rank);
    if (beyond >= kTailMinBeyond) {
      t.pct = q;
      t.value = percentile(v, q);
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

// ---- span tracer ------------------------------------------------------------

// In-memory spans (name, start, end, parent, per-solve id), recorded by
// the benchmark's single driving thread only — no locking.  Disabled
// tracers record nothing; begin() returns -1 and end(-1) is a no-op.
class Tracer {
 public:
  struct Span {
    const char* name;
    double t0;
    double t1;
    int parent;
    long id;
  };

  void enable(bool on) {
    on_ = on;
    if (on) spans_.reserve(1 << 20);
  }

  int begin(const char* name, int parent = -1, long id = -1) {
    if (!on_) return -1;
    spans_.push_back(Span{name, now_s(), 0.0, parent, id});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int s) {
    if (s >= 0) spans_[static_cast<std::size_t>(s)].t1 = now_s();
  }

  struct Totals {
    long count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };

  // Per-name totals; self time is a span's duration minus the part its
  // children cover (children of one span never overlap: they are made
  // one after another by the driving thread).
  std::map<std::string, Totals> totals() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      const double d = spans_[i].t1 - spans_[i].t0;
      ++t.count;
      t.total_ms += d * 1e3;
      t.self_ms += (d - child[i]) * 1e3;
    }
    return out;
  }

  // One JSON object per line: {"i":..,"name":..,"t0_us":..,"t1_us":..,
  // "parent":..,"id":..}.  Returns false when the file cannot be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"i\":%zu,\"name\":\"%s\",\"t0_us\":%.3f,\"t1_us\":%.3f,"
                   "\"parent\":%d,\"id\":%ld}\n",
                   i, s.name, s.t0 * 1e6, s.t1 * 1e6, s.parent, s.id);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
};

// RAII span on a tracer.
class Scope {
 public:
  Scope(Tracer& t, const char* name, int parent = -1, long id = -1)
      : t_(t), s_(t.begin(name, parent, id)) {}
  ~Scope() { t_.end(s_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int idx() const { return s_; }

 private:
  Tracer& t_;
  int s_;
};

// ---- host probes ------------------------------------------------------------

// Cache sizes of cpu0 from sysfs, in KiB (0 when unreadable).
struct CacheSizes {
  long l2_kib = 0;
  long llc_kib = 0;
};

inline long read_kib(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  if (!(in >> s) || s.empty()) return 0;
  long v = std::atol(s.c_str());
  if (s.back() == 'M') v *= 1024;
  return v;
}

inline CacheSizes cache_sizes() {
  CacheSizes c;
  int llc_level = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream lv(dir + "level"), ty(dir + "type");
    int level = 0;
    std::string type;
    if (!(lv >> level) || !(ty >> type) || type == "Instruction") continue;
    const long kib = read_kib(dir + "size");
    if (level == 2) c.l2_kib = kib;
    if (level >= llc_level) {
      llc_level = level;
      c.llc_kib = kib;
    }
  }
  return c;
}

// Peak resident set of this process, MiB.
inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

inline int nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// STREAM-style triad a[i] = b[i] + s * c[i] over three arrays of `bytes`
// each, on `threads` threads (each first-touches its own slice).  Returns
// the median over `reps` of computed GB/s: 3 arrays x 8 bytes per index
// (two reads, one write; write-allocate traffic not counted).
inline double stream_triad_gbs(std::size_t bytes, int threads, int reps) {
  const std::size_t n = bytes / sizeof(double);
  // Default-initialized (untouched) storage, so each thread's first touch
  // below places its own slice.
  const std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
  auto parallel = [&](auto body) {
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
      const std::size_t lo = n * static_cast<std::size_t>(t) / static_cast<std::size_t>(threads);
      const std::size_t hi = n * static_cast<std::size_t>(t + 1) / static_cast<std::size_t>(threads);
      ts.emplace_back([=] { body(lo, hi); });
    }
    for (std::thread& t : ts) t.join();
  };
  parallel([=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pa[i] = 0.0;
      pb[i] = 1.0;
      pc[i] = 2.0;
    }
  });
  std::vector<double> gbs;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    parallel([=](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + 3.0 * pc[i];
    });
    const double dt = now_s() - t0;
    gbs.push_back(3.0 * static_cast<double>(n) * sizeof(double) / dt / 1e9);
  }
  volatile double sink = pa[n / 2];
  (void)sink;
  return median(gbs);
}

// Fixed calibration kernel: 20 steps of a plain 5-point Jacobi on a
// 256 x 256 double grid (L2-resident), owned by the benchmark so it moves
// only with the host.  Returns its wall time in ms.
inline double calib_ms() {
  constexpr int n = 256;
  static std::vector<double> u(static_cast<std::size_t>(n * n), 1.0),
      v(static_cast<std::size_t>(n * n), 0.0);
  const double t0 = now_s();
  for (int s = 0; s < 20; ++s) {
    for (int x = 1; x < n - 1; ++x)
      for (int y = 1; y < n - 1; ++y)
        v[static_cast<std::size_t>(x * n + y)] =
            0.2 * (u[static_cast<std::size_t>(x * n + y)] +
                   u[static_cast<std::size_t>((x - 1) * n + y)] +
                   u[static_cast<std::size_t>((x + 1) * n + y)] +
                   u[static_cast<std::size_t>(x * n + y - 1)] +
                   u[static_cast<std::size_t>(x * n + y + 1)]);
    u.swap(v);
  }
  return (now_s() - t0) * 1e3;
}

// ---- metric sink ------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    m_[name] = Metric{value, unit};
  }
  const std::map<std::string, Metric>& all() const { return m_; }

 private:
  std::map<std::string, Metric> m_;
};

}  // namespace tb
