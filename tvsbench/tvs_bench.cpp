// tvs-bench driver: runs one workload for a fixed measured time, checks
// every timed solve's output, and prints its metrics.
//
//   tvs_bench --workload engine-cache|tiled-dram|serve-mixed
//             --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// runs the same workload with its measured time split in two halves, the
// second one traced, and adds the per-layer probes (layer ladder, direct
// engine probe, host probes); it prints the per-layer metrics.  The last
// line of stdout is "RESULT {json}"; tvsbench/run.py turns it into the
// benchmark's result line.  See tvsbench/README.md for what each workload
// and metric means.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cases.hpp"
#include "dispatch/backend.hpp"
#include "serve/batch.hpp"
#include "serve/executor.hpp"
#include "serve/sched.hpp"
#include "solver/builder.hpp"
#include "solver/plan_cache.hpp"
#include "solver/solver.hpp"

namespace tb {
namespace {

using sv::Family;
namespace serve = tvs::serve;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

// Everything one run reports.
struct Run {
  long attempted = 0;
  long failed = 0;
  bool probes_ok = true;  // outputs of the per-layer probes matched
  Metrics m;
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

sv::StencilProblem problem(Family f, dp::DType dt, int nx, int ny, int nz,
                           long steps, int threads) {
  sv::ProblemBuilder b(f);
  const int dim = sv::family_dim(f);
  if (dim == 1) b.extents(nx);
  if (dim == 2) b.extents(nx, ny);
  if (dim == 3) b.extents(nx, ny, nz);
  return b.steps(steps).threads(threads).dtype(dt).build();
}

// Steps giving about `work` updates on `points` points, within [lo, hi].
long steps_for(double work, double points, long lo, long hi) {
  return std::clamp(static_cast<long>(work / points), lo, hi);
}

void print_tail(const char* name, const std::vector<double>& v) {
  const Tail t = tail(v);
  if (t.pct > 0)
    std::printf("  %-22s p%-5g = %10.4f ms  (n=%zu, %zu beyond)\n", name,
                t.pct, t.value, t.n, t.beyond);
  else
    std::printf("  %-22s no percentile above p50 has %zu samples beyond it "
                "(n=%zu)\n",
                name, kTailMinBeyond, t.n);
}

// ---- the case sets ----------------------------------------------------------

const Family kFpFamilies[] = {Family::kJacobi1D3, Family::kJacobi1D5,
                              Family::kJacobi2D5, Family::kJacobi2D9,
                              Family::kJacobi3D7, Family::kGs1D3,
                              Family::kGs2D5,     Family::kGs3D7};

// engine-cache: every family, FP families in f64 and f32, at fixed sizes
// whose grids fit one core's L2 (<= 1 MiB of f64 each), each solve about
// 2^19 updates.  1D sizes start at 2^7 (the fig4a small-size regime).
// The case counts (81 in all, 19 small ones) are odd on purpose: every case
// is solved equally often, so with an even count the p50 rank would fall
// exactly between two cases' latency clusters.
std::vector<sv::StencilProblem> engine_cache_problems() {
  constexpr double kWork = 1 << 19;
  std::vector<sv::StencilProblem> ps;
  for (const dp::DType dt : {dp::DType::kF64, dp::DType::kF32}) {
    for (const Family f : kFpFamilies) {
      const int dim = sv::family_dim(f);
      std::vector<int> sizes;
      if (dim == 1) sizes = {1 << 7, 1 << 9, 1 << 12, 1 << 15, 1 << 17};
      if (dim == 2) sizes = {32, 64, 128, 256, 360};
      if (dim == 3) sizes = {32, 40, 50};
      for (const int n : sizes) {
        const double pts = dim == 1 ? n : dim == 2 ? double(n) * n : double(n) * n * n;
        ps.push_back(problem(f, dt, n, n, n, steps_for(kWork, pts, 8, 4096), 0));
      }
    }
  }
  for (const int n : {32, 64, 128, 256, 512})
    ps.push_back(problem(Family::kLife, dp::DType::kF64, n, n, 0,
                         steps_for(kWork, double(n) * n, 8, 4096), 0));
  for (const int n : {256, 724, 1024, 2048})
    ps.push_back(problem(Family::kLcs, dp::DType::kF64, n, n, 0, 0, 0));
  return ps;
}

// engine-cache's small requests: grid problems whose array is at most
// 18 KiB (L1-sized).
bool is_small(const Case& c) {
  return c.prob.family != Family::kLcs && c.array_bytes() <= 18 * 1024;
}

// serve-mixed small requests: sub-millisecond problems of mixed families
// (31 of them: an odd count, see above).
std::vector<sv::StencilProblem> small_problems() {
  constexpr double kWork = 1 << 16;
  std::vector<sv::StencilProblem> ps;
  for (const dp::DType dt : {dp::DType::kF64, dp::DType::kF32}) {
    for (const Family f : kFpFamilies) {
      const int dim = sv::family_dim(f);
      for (const int n : dim == 1 ? std::vector<int>{1 << 10, 1 << 12}
                         : dim == 2 ? std::vector<int>{32, 64}
                                    : std::vector<int>{32}) {
        const double pts = dim == 1 ? n : dim == 2 ? double(n) * n : double(n) * n * n;
        ps.push_back(problem(f, dt, n, n, n, steps_for(kWork, pts, 8, 256), 0));
      }
    }
  }
  ps.push_back(problem(Family::kLife, dp::DType::kF64, 32, 32, 0, 32, 0));
  ps.push_back(problem(Family::kLife, dp::DType::kF64, 64, 64, 0, 16, 0));
  ps.push_back(problem(Family::kLcs, dp::DType::kF64, 256, 256, 0, 0, 0));
  return ps;
}

std::vector<std::unique_ptr<Case>> make_cases(
    const std::vector<sv::StencilProblem>& ps) {
  std::vector<std::unique_ptr<Case>> cs;
  for (const sv::StencilProblem& p : ps) cs.push_back(make_case(p));
  return cs;
}

// A seeded endless sequence over [0, n): each cycle is a fresh shuffle, so
// every index is used equally often and the mix does not depend on the
// seed, only the order does.
class Cycle {
 public:
  Cycle(std::size_t n, std::uint64_t seed) : order_(n), rng_(seed) {
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    pos_ = n;
  }
  std::size_t next() {
    if (pos_ == order_.size()) {
      std::shuffle(order_.begin(), order_.end(), rng_);
      pos_ = 0;
    }
    return order_[pos_++];
  }
  // True between cycles: every index has been returned equally often.
  bool at_cycle_end() const { return pos_ == order_.size(); }

 private:
  std::vector<std::size_t> order_;
  std::mt19937_64 rng_;
  std::size_t pos_;
};

// ---- set-up -----------------------------------------------------------------

struct SetupTimes {
  std::vector<double> total_s;        // per set-up
  std::vector<double> alloc_fill_ms;  // per set-up
  std::vector<double> plan_miss_us;   // per signature planned
};

// Plans every case's signature (the caller cleared the plan cache, so
// each is a miss) and allocates and fills every grid; returns the solvers
// and adds the planning and alloc+fill times to `st`.
std::vector<sv::Solver> setup_cases(std::vector<std::unique_ptr<Case>>& cs,
                                    int nwork, std::uint64_t seed,
                                    std::uint64_t salt, SetupTimes& st,
                                    double& alloc_ms) {
  std::vector<sv::Solver> solvers;
  for (const auto& c : cs) {
    const double p0 = now_s();
    solvers.emplace_back(c->prob);
    st.plan_miss_us.push_back((now_s() - p0) * 1e6);
  }
  const double a0 = now_s();
  for (std::size_t i = 0; i < cs.size(); ++i)
    cs[i]->alloc_fill(nwork, mix(seed, salt + i));
  alloc_ms += (now_s() - a0) * 1e3;
  return solvers;
}

// Set-ups per run on engine-cache and serve-mixed; setup_s is their median.
constexpr int kSetupReps = 9;

double plan_hit_us(const std::vector<std::unique_ptr<Case>>& cs) {
  std::vector<double> us;
  for (const auto& c : cs) {
    const double t0 = now_s();
    const sv::Solver s(c->prob);
    us.push_back((now_s() - t0) * 1e6);
  }
  return median(us);
}

// ---- end-to-end metric assembly --------------------------------------------

struct Samples {
  std::vector<double> solve_ms;  // large / all solves
  std::vector<double> small_ms;  // small requests
  double work = 0;               // updates completed
  long solves = 0;               // solves completed
  double phase_s = 0;            // timed-phase duration
  // The reported rates (updates/s, solves/s): each workload's median-based
  // estimate of work / time, robust to a burst of contention inside a run.
  double work_rate = 0;
  double solve_rate = 0;
};

// Median over windows of (work / seconds) and (solves / seconds).
struct Windows {
  std::vector<double> work, solves, seconds;
  void add(double w, double n, double s) {
    work.push_back(w);
    solves.push_back(n);
    seconds.push_back(s);
  }
  void rates(Samples& out) const {
    std::vector<double> wr, sr;
    for (std::size_t i = 0; i < work.size(); ++i) {
      wr.push_back(work[i] / seconds[i]);
      sr.push_back(solves[i] / seconds[i]);
    }
    out.work_rate = median(wr);
    out.solve_rate = median(sr);
  }
};

void end_to_end(const Samples& s, double setup_s, Run& run) {
  Metrics& m = run.m;
  m.set("gstencils_per_s", s.work_rate / 1e9, "Gstencils/s");
  m.set("problems_per_s", s.solve_rate, "1/s");
  m.set("solve_ms_p50", median(s.solve_ms), "ms");
  m.set("solve_ms_tail", tail(s.solve_ms).value, "ms");
  m.set("small_ms_p50", median(s.small_ms), "ms");
  m.set("small_ms_tail", tail(s.small_ms).value, "ms");
  m.set("setup_s", setup_s, "s");
  m.set("peak_rss_mb", peak_rss_mib(), "MiB");
  std::printf("end-to-end:\n");
  std::printf("  gstencils_per_s        %10.4f Gstencils/s  (whole phase: %.4f)\n",
              s.work_rate / 1e9, s.work / s.phase_s / 1e9);
  std::printf("  problems_per_s         %10.2f 1/s  (whole phase: %ld solves in %.3f s)\n",
              s.solve_rate, s.solves, s.phase_s);
  std::printf("  solve_ms_p50           %10.4f ms  (n=%zu)\n", median(s.solve_ms),
              s.solve_ms.size());
  print_tail("solve_ms_tail", s.solve_ms);
  std::printf("  small_ms_p50           %10.4f ms  (n=%zu)\n", median(s.small_ms),
              s.small_ms.size());
  print_tail("small_ms_tail", s.small_ms);
  std::printf("  failed_frac            %10.6f ratio (%ld failed / %ld attempted)\n",
              run.attempted > 0 ? double(run.failed) / double(run.attempted) : 0.0,
              run.failed, run.attempted);
  std::printf("  setup_s                %10.4f s\n", setup_s);
  std::printf("  peak_rss_mb            %10.1f MiB\n", peak_rss_mib());
}

// Serve-layer per-layer metrics from submitted solves: wait = latency
// minus RunResult::seconds, exec = RunResult::seconds.
struct ServeSamples {
  std::vector<double> wait_ms, exec_ms;
  double decomposed_s = 0;  // RunResult::seconds of decomposed runs
};

void serve_layer(const ServeSamples& s, const serve::ExecutorStats& e0,
                 const serve::ExecutorStats& e1, const serve::SchedStats& s0,
                 const serve::SchedStats& s1, Metrics& m) {
  const double tasks = double(e1.tasks_run - e0.tasks_run);
  const double stages = double(s1.stages - s0.stages);
  const double tiles = double(s1.tile_tasks - s0.tile_tasks);
  const double helpers = double(s1.helper_tasks - s0.helper_tasks);
  m.set("serve.wait_ms_p50", median(s.wait_ms), "ms");
  m.set("serve.wait_ms_tail", tail(s.wait_ms).value, "ms");
  m.set("serve.exec_ms_p50", median(s.exec_ms), "ms");
  m.set("serve.steals_per_task", tasks > 0 ? double(e1.steals - e0.steals) / tasks : 0, "ratio");
  m.set("serve.interactive_run", double(e1.interactive_run - e0.interactive_run), "count");
  m.set("serve.sched.stages", stages, "count");
  m.set("serve.sched.tiles_per_stage", stages > 0 ? tiles / stages : 0, "ratio");
  m.set("serve.sched.tiles_per_helper", helpers > 0 ? tiles / helpers : 0, "ratio");
  m.set("serve.sched.stage_ms", stages > 0 ? s.decomposed_s * 1e3 / stages : 0, "ms");
  if (s.exec_ms.empty()) return;
  double exec_sum = 0;
  for (const double x : s.exec_ms) exec_sum += x;
  std::printf("  serve: wait p50 %.4f ms, exec p50 %.4f ms, exec total %.1f ms over %zu solves\n",
              median(s.wait_ms), median(s.exec_ms), exec_sum, s.exec_ms.size());
  print_tail("serve.wait_ms_tail", s.wait_ms);
}

// ---- workload: engine-cache -------------------------------------------------

// Closed loop, one caller thread: Solver(p).run(Workload) back to back,
// threads = 0, over the engine-cache case set in a seeded order.  The
// timed phase is the sum of the solve spans; the benchmark's own reset
// and check between solves are outside it.  It runs kCyclesPerSecond
// cycles per requested second (a cycle took ~0.2 s on the reference
// host): 120 cycles at 30 s, 9720 solves, whose tail is p99.
constexpr double kCyclesPerSecond = 4.0;
Run engine_cache(const Args& a, Tracer& tr, double registry_s,
                 std::vector<std::unique_ptr<Case>>& cs) {
  Run run;
  cs = make_cases(engine_cache_problems());
  SetupTimes st;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    double alloc_ms = 0;
    sv::plan_cache_clear();
    setup_cases(cs, 1, a.seed, 0, st, alloc_ms);
    st.total_s.push_back(now_s() - t0);
    st.alloc_fill_ms.push_back(alloc_ms);
  }
  const double setup_s = registry_s + median(st.total_s);
  const double hit_us = plan_hit_us(cs);
  for (auto& c : cs) c->make_ref_oracle();
  const sv::PlanCacheStats pc0 = sv::plan_cache_stats();

  std::printf("engine-cache: %zu cases (10 families, FP in f64+f32), "
              "largest array %.0f KiB (computed) vs L2 %ld KiB\n",
              cs.size(),
              std::max_element(cs.begin(), cs.end(), [](auto& x, auto& y) {
                return x->array_bytes() < y->array_bytes();
              })->get()->array_bytes() / 1024.0,
              cache_sizes().l2_kib);

  Samples s, half[2];
  Windows cycles;
  double cyc_work = 0, cyc_s = 0, cyc_n = 0;
  Cycle order(cs.size(), mix(a.seed, 99));
  std::vector<double> calib;
  double next_calib = 0;
  long id = 0;
  // A fixed number of whole cycles: every case is solved equally often,
  // and the sample count (so the tail percentile the rule picks) does not
  // depend on host speed.
  const long cycles_total = std::max(2L, std::lround(kCyclesPerSecond * a.seconds));
  while (static_cast<long>(cycles.work.size()) < cycles_total) {
    const int h = a.trace && 2 * static_cast<long>(cycles.work.size()) >= cycles_total ? 1 : 0;
    tr.enable(h == 1);
    if (a.trace && s.phase_s >= next_calib) {
      calib.push_back(calib_ms());
      next_calib += 0.25;
    }
    const std::size_t i = order.next();
    Case& c = *cs[i];
    const Scope iter(tr, "iter", -1, id);
    {
      const Scope sp(tr, "bench.reset", iter.idx(), id);
      c.reset(0);
    }
    ++run.attempted;
    sv::RunResult r;
    bool ok = true;
    const double t0 = now_s();
    try {
      const Scope sp(tr, "solver.run", iter.idx(), id);
      r = sv::Solver(c.prob).run(c.workload(0));
    } catch (const std::exception& e) {
      ok = false;
      std::fprintf(stderr, "solve failed (%s): %s\n", c.prob.signature().c_str(), e.what());
    }
    const double dt = now_s() - t0;
    {
      const Scope sp(tr, "bench.check", iter.idx(), id);
      if (ok && !c.check(0, r)) {
        ok = false;
        std::fprintf(stderr, "wrong output: %s\n", c.prob.signature().c_str());
      }
    }
    ++id;
    if (!ok) {
      ++run.failed;
      continue;
    }
    for (Samples* x : {&s, &half[h]}) {
      x->solve_ms.push_back(dt * 1e3);
      if (is_small(c)) x->small_ms.push_back(dt * 1e3);
      x->work += c.work();
      ++x->solves;
      x->phase_s += dt;
    }
    cyc_work += c.work();
    cyc_s += dt;
    ++cyc_n;
    if (order.at_cycle_end()) {
      cycles.add(cyc_work, cyc_n, cyc_s);
      cyc_work = cyc_s = cyc_n = 0;
    }
  }
  tr.enable(false);
  cycles.rates(s);  // one window per full cycle over the cases
  end_to_end(s, setup_s, run);
  std::printf("  (rates: median over %zu cycles; small = the %ld cases whose array is "
              "<= 18 KiB)\n",
              cycles.work.size(),
              static_cast<long>(std::count_if(cs.begin(), cs.end(),
                                              [](const auto& c) { return is_small(*c); })));

  const sv::PlanCacheStats pc1 = sv::plan_cache_stats();
  Metrics& m = run.m;
  m.set("solver.plan_miss_us", median(st.plan_miss_us), "us");
  m.set("solver.plan_hit_us", hit_us, "us");
  const double lookups = double(pc1.hits - pc0.hits + pc1.misses - pc0.misses);
  m.set("solver.plan_cache_hit_ratio", lookups > 0 ? double(pc1.hits - pc0.hits) / lookups : 0, "ratio");
  m.set("grid.alloc_fill_ms", median(st.alloc_fill_ms), "ms");
  m.set("host.calib_ms", median(calib), "ms");
  m.set("gen.late_ms_max", 0.0, "ms");
  if (a.trace)
    m.set("trace.overhead_pct",
          100.0 * ((half[0].work / half[0].phase_s) / (half[1].work / half[1].phase_s) - 1.0),
          "%");
  serve_layer(ServeSamples{}, {}, {}, {}, {}, m);
  return run;
}

// ---- workload: tiled-dram ---------------------------------------------------

// Closed loop, one problem in flight: submit_on(pool, ...).get() with
// threads = nproc on a pool of nproc workers, the caller blocked in get().
// The four problems run one after another, an epoch each of a fixed
// number of solves (25 in all: a fixed mix whose p60 has 10 solves beyond
// it).  The counts put the mix's p50 and p60 ranks inside the largest
// cluster, jacobi2d5's, which sits in the middle of the four problems'
// latencies on the reference host, rather than on the edge between two
// problems' clusters.  A DRAM-sized solve takes 0.4-2.5 s here, so the
// epochs, not --seconds, set the measured time (about 25-30 s).  Only one
// DRAM-sized problem is resident at a time: its input grid, solved in
// place solve after solve, and the chain reference the serial temporal
// engine advances once per epoch.

Run tiled_dram(const Args& a, Tracer& tr, double registry_s) {
  Run run;
  const int np = nproc();
  const CacheSizes cz = cache_sizes();
  // Steps are a multiple of the engines' lane count (4 for the f64 tiled
  // drivers, 16 for the f32 serial engine under AVX-512), so the vector
  // paths run rather than the scalar remainder loops.
  struct Spec {
    Family f;
    dp::DType dt;
    int nx, ny, nz;
    long steps;
    int solves;
  };
  const Spec specs[] = {
      {Family::kJacobi3D7, dp::DType::kF64, 368, 368, 368, 4, 4},
      {Family::kJacobi2D5, dp::DType::kF64, 7424, 7424, 0, 4, 11},
      {Family::kGs2D5, dp::DType::kF64, 7424, 7424, 0, 4, 6},
      {Family::kJacobi2D5, dp::DType::kF32, 10496, 10496, 0, 16, 4},
  };
  double setup_s = registry_s;
  const double pool0 = now_s();
  serve::ThreadPool pool(np);
  setup_s += now_s() - pool0;

  Samples s, half[2];
  Windows epochs;
  ServeSamples ss;
  std::vector<double> calib, alloc_ms, miss_us;
  const serve::ExecutorStats e0 = pool.stats();
  const serve::SchedStats s0 = serve::sched_stats();
  const sv::PlanCacheStats pc0 = sv::plan_cache_stats();
  long id = 0;
  for (std::size_t k = 0; k < std::size(specs); ++k) {
    const Spec& sp = specs[k];
    const sv::StencilProblem p = problem(sp.f, sp.dt, sp.nx, sp.ny, sp.nz, sp.steps, np);
    std::unique_ptr<Case> c = make_case(p);
    const double t0 = now_s();
    const sv::Solver solver(p);
    miss_us.push_back((now_s() - t0) * 1e6);
    const double a0 = now_s();
    c->alloc_fill(0, mix(a.seed, k));
    alloc_ms.push_back((now_s() - a0) * 1e3);
    setup_s += now_s() - t0;
    c->make_ref_copy();
    sv::StencilProblem ps = p;
    ps.threads = 0;
    const sv::ExecutionPlan serial = sv::plan_for(ps);
    std::printf("tiled-dram: %-28s path=%s  array %.0f MiB (computed) = %.2f x LLC %ld KiB\n",
                p.signature().c_str(), std::string(sv::path_name(solver.plan().path)).c_str(),
                c->array_bytes() / 1048576.0, c->array_bytes() / 1024.0 / double(cz.llc_kib),
                cz.llc_kib);
    // Samples of this epoch count once the chain check confirms them.
    Samples ep[2];
    ServeSamples es;
    long epoch_solves = 0;
    bool ok = true;
    for (int n = 0; ok && n < sp.solves; ++n) {
      const int h = a.trace && n >= sp.solves / 2 ? 1 : 0;
      tr.enable(h == 1);
      if (a.trace) calib.push_back(calib_ms());
      ++run.attempted;
      ++epoch_solves;
      sv::RunResult r;
      const double q0 = now_s();
      {
        const Scope solve(tr, "solve", -1, id);
        try {
          sv::Future<sv::RunResult> fut;
          {
            const Scope sub(tr, "serve.submit_on", solve.idx(), id);
            fut = serve::submit_on(pool, solver, c->workload(-1));
          }
          const Scope get(tr, "future.get", solve.idx(), id);
          r = fut.get();
        } catch (const std::exception& e) {
          ok = false;
          std::fprintf(stderr, "solve failed (%s): %s\n", p.signature().c_str(), e.what());
        }
      }
      const double dt = now_s() - q0;
      ++id;
      es.wait_ms.push_back((dt - r.seconds) * 1e3);
      es.exec_ms.push_back(r.seconds * 1e3);
      if (solver.plan().path == sv::Path::kTiledParallel) es.decomposed_s += r.seconds;
      ep[h].solve_ms.push_back(dt * 1e3);
      ep[h].work += c->work();
      ++ep[h].solves;
      ep[h].phase_s += dt;
    }
    tr.enable(false);
    // The chain check: the serial engine advances the reference by every
    // step this epoch took, and the in-place result must match it.  The
    // solves are chained (each one's output is the next one's input), so
    // a wrong solve anywhere in the epoch shows here; the whole epoch is
    // then counted as failed.
    {
      const Scope chk(tr, "bench.chain_check", -1, id);
      c->advance_ref(serial, p.steps * epoch_solves);
      if (ok && !c->check(-1, sv::RunResult{})) {
        ok = false;
        std::fprintf(stderr, "wrong output: %s\n", p.signature().c_str());
      }
    }
    if (!ok) {
      run.failed += epoch_solves;
      continue;
    }
    for (int h = 0; h < 2; ++h)
      for (Samples* x : {&s, &half[h]}) {
        x->solve_ms.insert(x->solve_ms.end(), ep[h].solve_ms.begin(), ep[h].solve_ms.end());
        x->work += ep[h].work;
        x->solves += ep[h].solves;
        x->phase_s += ep[h].phase_s;
      }
    const std::vector<double> all_ms = [&] {
      std::vector<double> v = ep[0].solve_ms;
      v.insert(v.end(), ep[1].solve_ms.begin(), ep[1].solve_ms.end());
      return v;
    }();
    epochs.add(c->work() * double(all_ms.size()), double(all_ms.size()),
               median(all_ms) * 1e-3 * double(all_ms.size()));
    std::printf("  %zu solves, median %.1f ms, %.3f Gstencils/s at the median\n",
                all_ms.size(), median(all_ms), c->work() / median(all_ms) / 1e6);
    ss.wait_ms.insert(ss.wait_ms.end(), es.wait_ms.begin(), es.wait_ms.end());
    ss.exec_ms.insert(ss.exec_ms.end(), es.exec_ms.begin(), es.exec_ms.end());
    ss.decomposed_s += es.decomposed_s;
  }
  // Rates: every solve of a problem counted at its problem's median time.
  double ew = 0, en = 0, es_s = 0;
  for (std::size_t i = 0; i < epochs.work.size(); ++i) {
    ew += epochs.work[i];
    en += epochs.solves[i];
    es_s += epochs.seconds[i];
  }
  s.work_rate = ew / es_s;
  s.solve_rate = en / es_s;
  end_to_end(s, setup_s, run);
  std::printf("  (rates: each solve at its problem's median time; no small requests)\n");

  Metrics& m = run.m;
  const sv::PlanCacheStats pc1 = sv::plan_cache_stats();
  const double lookups = double(pc1.hits - pc0.hits + pc1.misses - pc0.misses);
  m.set("solver.plan_miss_us", median(miss_us), "us");
  m.set("solver.plan_hit_us", 0.0, "us");
  m.set("solver.plan_cache_hit_ratio", lookups > 0 ? double(pc1.hits - pc0.hits) / lookups : 0, "ratio");
  m.set("grid.alloc_fill_ms", median(alloc_ms), "ms");
  m.set("host.calib_ms", median(calib), "ms");
  m.set("gen.late_ms_max", 0.0, "ms");
  if (a.trace)
    m.set("trace.overhead_pct",
          100.0 * ((half[0].work / half[0].phase_s) / (half[1].work / half[1].phase_s) - 1.0),
          "%");
  serve_layer(ss, e0, pool.stats(), s0, serve::sched_stats(), m);
  return run;
}

// ---- workload: serve-mixed --------------------------------------------------

// One generator thread (this one) drives a pool of nproc - 1 workers.
// Two large L3-sized tiled jobs are kept in flight (closed loop, one per
// slot, decomposed into tiles on the pool); small sub-millisecond
// problems arrive open-loop at kSmallRate per second, tagged
// Priority::kInteractive, timed from when each was due.
constexpr double kSmallRate = 450.0;
constexpr int kSmallBuffers = 4;

Run serve_mixed(const Args& a, Tracer& tr, double registry_s) {
  Run run;
  const int workers = std::max(1, nproc() - 1);
  const CacheSizes cz = cache_sizes();

  std::vector<sv::StencilProblem> large_ps = {
      problem(Family::kJacobi2D5, dp::DType::kF64, 768, 768, 0, 16, workers),
      problem(Family::kJacobi3D7, dp::DType::kF64, 80, 80, 80, 16, workers)};
  auto large = make_cases(large_ps);
  auto smalls = make_cases(small_problems());

  SetupTimes st;
  std::vector<sv::Solver> large_solvers, small_solvers;
  std::unique_ptr<serve::ThreadPool> pool;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pool.reset();
    const double t0 = now_s();
    double alloc_ms = 0;
    pool = std::make_unique<serve::ThreadPool>(workers);
    sv::plan_cache_clear();
    large_solvers = setup_cases(large, 2, a.seed, 0, st, alloc_ms);
    small_solvers = setup_cases(smalls, kSmallBuffers, a.seed, 1000, st, alloc_ms);
    st.total_s.push_back(now_s() - t0);
    st.alloc_fill_ms.push_back(alloc_ms);
  }
  const double setup_s = registry_s + median(st.total_s);
  const double hit_us = plan_hit_us(large);
  for (auto& c : large) c->make_ref_oracle();
  for (auto& c : smalls) {
    c->make_ref_oracle();
    for (int k = 0; k < kSmallBuffers; ++k) c->reset(k);
  }
  for (auto& c : large)
    for (int k = 0; k < 2; ++k) c->reset(k);
  for (const auto& c : large)
    std::printf("serve-mixed large: %-40s array %.1f MiB (computed), LLC %ld KiB\n",
                c->prob.signature().c_str(), c->array_bytes() / 1048576.0, cz.llc_kib);
  std::printf("serve-mixed: %d workers, %zu small problems at %.0f/s open loop\n",
              workers, smalls.size(), kSmallRate);

  // In-flight bookkeeping.
  struct SmallReq {
    std::size_t c;
    int k;
    double due, sent;
    long id;
    sv::Future<sv::RunResult> fut;
  };
  struct Slot {
    int cur = 0;  // buffer of the job in flight
    bool busy = false;
    double sent = 0;
    long id = 0;
    sv::Future<sv::RunResult> fut;
    // Pending check (units [0, u)) then reset (units [u, 2u)) of buffer
    // 1 - cur, which holds the previous job's output.
    bool chores = false;
    int chore_unit = 0;
  };
  std::vector<std::vector<int>> free_bufs(smalls.size());
  for (auto& f : free_bufs)
    for (int k = 0; k < kSmallBuffers; ++k) f.push_back(k);
  std::deque<SmallReq> inflight;
  std::vector<Slot> slots(large.size());
  Cycle order(smalls.size(), mix(a.seed, 97));

  Samples s, half[2];
  ServeSamples ss;
  std::vector<double> calib;
  // Completions per 1-s window of the issuing phase.
  const int nwin = std::max(1, static_cast<int>(a.seconds));
  std::vector<double> win_work(static_cast<std::size_t>(nwin), 0.0),
      win_n(static_cast<std::size_t>(nwin), 0.0);
  double late_max = 0;
  long id = 0;
  const serve::ExecutorStats e0 = pool->stats();
  const serve::SchedStats sc0 = serve::sched_stats();

  const double t_start = now_s();
  const double t_end = t_start + a.seconds;
  const double t_half = t_start + a.seconds / 2;
  const double period = 1.0 / kSmallRate;
  double next_due = t_start;
  double next_calib = t_start;
  bool issuing = true;

  auto half_of = [&](double t) { return a.trace && t >= t_half ? 1 : 0; };
  auto credit = [&](double t, double work) {
    const int i = static_cast<int>(t - t_start);
    if (i >= 0 && i < nwin) {
      win_work[static_cast<std::size_t>(i)] += work;
      win_n[static_cast<std::size_t>(i)] += 1;
    }
  };
  auto submit_large = [&](std::size_t j) {
    Slot& sl = slots[j];
    sl.sent = now_s();
    sl.id = id++;
    const Scope sp(tr, "serve.submit_on.large", -1, sl.id);
    ++run.attempted;
    sl.fut = serve::submit_on(*pool, large_solvers[j], large[j]->workload(sl.cur));
    sl.busy = true;
  };
  // One unit of slot j's pending check + reset; false when none is pending.
  auto chore = [&](std::size_t j) {
    Slot& sl = slots[j];
    if (!sl.chores) return false;
    Case& c = *large[j];
    const int k = 1 - sl.cur;
    const int u = c.units();
    if (sl.chore_unit < u && !c.check_unit(k, sl.chore_unit)) {
      ++run.failed;  // the job whose output sits in buffer k
      std::fprintf(stderr, "wrong output: %s\n", c.prob.signature().c_str());
      sl.chore_unit = u;
      return true;
    }
    if (sl.chore_unit >= u) c.reset_unit(k, sl.chore_unit - u);
    if (++sl.chore_unit == 2 * u) sl.chores = false;
    return true;
  };
  for (std::size_t j = 0; j < slots.size(); ++j) submit_large(j);

  while (issuing || !inflight.empty() ||
         std::any_of(slots.begin(), slots.end(), [](const Slot& x) { return x.busy; })) {
    double now = now_s();
    tr.enable(half_of(now) == 1);
    if (issuing && now >= t_end) issuing = false;
    if (a.trace && issuing && now >= next_calib) {
      calib.push_back(calib_ms());
      next_calib += 0.25;
    }
    // Due small requests.
    while (issuing && now >= next_due) {
      // The next case in the seeded order with a free buffer; when every
      // buffer is in flight the request waits (its lateness shows).
      std::size_t c = order.next();
      for (std::size_t tries = 1; free_bufs[c].empty() && tries < smalls.size(); ++tries)
        c = order.next();
      if (free_bufs[c].empty()) break;
      const int k = free_bufs[c].back();
      free_bufs[c].pop_back();
      SmallReq rq{c, k, next_due, now_s(), id++, {}};
      {
        const Scope sp(tr, "serve.submit_on.small", -1, rq.id);
        rq.fut = serve::submit_on(
            *pool, small_solvers[c],
            smalls[c]->workload(k).priority(sv::Priority::kInteractive));
      }
      late_max = std::max(late_max, rq.sent - rq.due);
      ++run.attempted;
      inflight.push_back(std::move(rq));
      next_due += period;
      now = now_s();
    }
    // Completed small requests.
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++it;
        continue;
      }
      const double done = now_s();
      const Scope sp(tr, "bench.complete.small", -1, it->id);
      Case& c = *smalls[it->c];
      bool ok = true;
      sv::RunResult r;
      try {
        r = it->fut.get();
      } catch (const std::exception& e) {
        ok = false;
        std::fprintf(stderr, "small failed: %s\n", e.what());
      }
      if (ok && !c.check(it->k, r)) {
        ok = false;
        std::fprintf(stderr, "wrong output: %s\n", c.prob.signature().c_str());
      }
      c.reset(it->k);
      free_bufs[it->c].push_back(it->k);
      if (ok) {
        const int h = half_of(done);
        for (Samples* x : {&s, &half[h]}) {
          x->small_ms.push_back((done - it->due) * 1e3);
          x->work += c.work();
          ++x->solves;
        }
        credit(done, c.work());
        if (h == 1 || !a.trace) {
          ss.wait_ms.push_back((done - it->sent - r.seconds) * 1e3);
          ss.exec_ms.push_back(r.seconds * 1e3);
        }
      } else {
        ++run.failed;
      }
      it = inflight.erase(it);
    }
    // Completed large jobs: resubmit on the other buffer, then check and
    // reset the finished one in units between other duties.
    for (std::size_t j = 0; j < slots.size(); ++j) {
      Slot& sl = slots[j];
      if (!sl.busy || sl.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
        continue;
      const double done = now_s();
      const Scope sp(tr, "bench.complete.large", -1, sl.id);
      sl.busy = false;
      bool ok = true;
      try {
        const sv::RunResult r = sl.fut.get();
        const int h = half_of(done);
        for (Samples* x : {&s, &half[h]}) {
          x->solve_ms.push_back((done - sl.sent) * 1e3);
          x->work += large[j]->work();
          ++x->solves;
        }
        credit(done, large[j]->work());
        if (h == 1 || !a.trace) ss.decomposed_s += r.seconds;
      } catch (const std::exception& e) {
        ok = false;
        ++run.failed;
        std::fprintf(stderr, "large failed: %s\n", e.what());
      }
      while (chore(j)) {
      }  // the other buffer must be ready before it is resubmitted
      sl.cur = 1 - sl.cur;
      if (issuing) submit_large(j);
      sl.chores = true;
      sl.chore_unit = ok ? 0 : large[j]->units();  // a failed job: reset only
    }
    // Pending check + reset of finished large buffers, until the next
    // small request is due.
    for (std::size_t j = 0; j < slots.size(); ++j) {
      if (!slots[j].chores || (issuing && now_s() >= next_due)) continue;
      const Scope sp(tr, "bench.chores", -1, slots[j].id);
      while ((!issuing || now_s() < next_due) && chore(j)) {
      }
    }
  }
  const double t_stop = now_s();
  tr.enable(false);
  s.phase_s = t_stop - t_start;
  // The halves are split by completion time at t_half.
  half[0].phase_s = t_half - t_start;
  half[1].phase_s = t_stop - t_half;
  Windows wins;
  for (int i = 0; i < nwin; ++i)
    wins.add(win_work[static_cast<std::size_t>(i)], win_n[static_cast<std::size_t>(i)], 1.0);
  wins.rates(s);
  // Solves per window are whole counts, mostly the fixed open-loop rate;
  // the whole-phase ratio keeps the digits of the measured time.
  s.solve_rate = static_cast<double>(s.solves) / s.phase_s;
  end_to_end(s, setup_s, run);
  std::printf("  (rates: median over %d 1-s windows; solve = large jobs only; "
              "small = open-loop requests from due time)\n", nwin);

  Metrics& m = run.m;
  m.set("solver.plan_miss_us", median(st.plan_miss_us), "us");
  m.set("solver.plan_hit_us", hit_us, "us");
  m.set("solver.plan_cache_hit_ratio", 1.0, "ratio");
  m.set("grid.alloc_fill_ms", median(st.alloc_fill_ms), "ms");
  m.set("host.calib_ms", median(calib), "ms");
  m.set("gen.late_ms_max", late_max * 1e3, "ms");
  if (a.trace)
    m.set("trace.overhead_pct",
          100.0 * ((half[0].work / half[0].phase_s) / (half[1].work / half[1].phase_s) - 1.0),
          "%");
  serve_layer(ss, e0, pool->stats(), sc0, serve::sched_stats(), m);
  return run;
}

// ---- per-layer probes -------------------------------------------------------

// Direct engine probe: for each case, the raw registry engine (and the
// `auto` comparator where one exists) on the case's own input, 3 times
// each, median; rates per class.  Engine outputs are checked.
void tv_probe(std::vector<std::unique_ptr<Case>>& cs, double triad_gbs, Run& run) {
  struct Acc {
    double work = 0, bytes = 0, tv_s = 0, auto_s = 0, tv_s_auto = 0;
  };
  std::map<std::string, Acc> acc;
  for (auto& cp : cs) {
    Case& c = *cp;
    const sv::ExecutionPlan plan = sv::plan_for(c.prob);
    std::vector<double> te, ta;
    for (int r = 0; r < 3; ++r) {
      c.reset(0);
      const double t0 = now_s();
      c.engine(0, plan);
      te.push_back(now_s() - t0);
      if (c.units() > 0 && !c.check(0, sv::RunResult{})) {
        run.probes_ok = false;
        std::fprintf(stderr, "engine probe mismatch: %s\n", c.prob.signature().c_str());
      }
      if (c.has_autovec()) {
        c.reset(0);
        const double t1 = now_s();
        c.autovec(0);
        ta.push_back(now_s() - t1);
      }
    }
    Acc& x = acc[c.cls()];
    x.work += c.work();
    x.bytes += c.computed_bytes();
    x.tv_s += median(te);
    if (!ta.empty()) {
      x.auto_s += median(ta);
      x.tv_s_auto += median(te);
    }
  }
  std::printf("tv probe (direct registry engine, cache-resident inputs):\n");
  for (const auto& [cls, x] : acc) {
    const double gst = x.work / x.tv_s / 1e9;
    const double gbs = x.bytes / x.tv_s / 1e9;
    run.m.set("tv.gstencils_per_s." + cls, gst, "Gstencils/s");
    run.m.set("tv.bw_frac." + cls, gbs / triad_gbs, "ratio");
    std::printf("  %-16s %8.3f Gst/s  %8.1f GB/s computed (%.2f x triad)", cls.c_str(),
                gst, gbs, gbs / triad_gbs);
    if (x.auto_s > 0) {
      run.m.set("tv.speedup_vs_autovec." + cls, x.auto_s / x.tv_s_auto, "ratio");
      std::printf("  %.2f x auto", x.auto_s / x.tv_s_auto);
    }
    std::printf("\n");
  }
}

// The layer ladder: for one problem per dimension at tiny, cache-resident
// and DRAM sizes, time in turn the raw registry engine, Solver::run,
// submit_on().get() on an idle pool, a one-problem Batch, a decomposed
// tiled submit and the OpenMP tiled Solver::run (threads = nproc).
// Every rung starts from the same input and is checked against the
// serial engine's output.
void ladder(serve::ThreadPool& pool, std::uint64_t seed, double llc_bytes,
            double triad_gbs, Run& run) {
  const int np = nproc();
  struct Cell {
    const char* size;
    int dim;
    int n;
    long steps;
    int rounds;
  };
  // DRAM cells hold ~2.5x LLC per array (input, work, reference, plus the
  // tiled path's second parity buffer: >= 5x LLC in flight).
  const double dram_pts = 2.5 * llc_bytes / 8.0;
  const int d1 = static_cast<int>(dram_pts);
  const int d2 = static_cast<int>(std::sqrt(dram_pts));
  const int d3 = static_cast<int>(std::cbrt(dram_pts));
  const Cell cells[] = {
      {"tiny", 1, 256, 64, 300},   {"tiny", 2, 16, 16, 300},   {"tiny", 3, 16, 8, 300},
      {"cache", 1, 1 << 17, 32, 15}, {"cache", 2, 362, 32, 15}, {"cache", 3, 50, 32, 15},
      {"dram", 1, d1, 8, 2},       {"dram", 2, d2, 8, 2},      {"dram", 3, d3, 8, 2},
  };
  const char* rungs[] = {"engine", "run", "submit", "batch", "decomposed", "omp"};
  constexpr int kRungs = 6;
  std::map<std::string, std::vector<double>> med[kRungs];  // size -> per-dim medians
  double dram_bytes = 0;
  std::printf("layer ladder (median us per solve; overheads vs engine):\n");
  for (const Cell& cell : cells) {
    const Family f = cell.dim == 1 ? Family::kJacobi1D3
                     : cell.dim == 2 ? Family::kJacobi2D5 : Family::kJacobi3D7;
    const sv::StencilProblem p = problem(f, dp::DType::kF64, cell.n, cell.n, cell.n, cell.steps, 0);
    sv::StencilProblem pt = p;
    pt.threads = np;
    std::unique_ptr<Case> c = make_case(p);
    c->alloc_fill(1, mix(seed, 500 + static_cast<std::uint64_t>(cell.dim)));
    const sv::Solver serial(p), tiled(pt);
    // Reference: the serial engine's output on the input.
    c->reset(0);
    c->engine(0, serial.plan());
    c->ref_from_work(0);
    std::vector<double> t[kRungs];
    for (int r = 0; r < cell.rounds; ++r) {
      for (int g = 0; g < kRungs; ++g) {
        c->reset(0);
        sv::Workload w = c->workload(0);
        sv::RunResult res;
        const double t0 = now_s();
        switch (g) {
          case 0: c->engine(0, serial.plan()); break;
          case 1: res = serial.run(w); break;
          case 2: res = serve::submit_on(pool, serial, w).get(); break;
          case 3: {
            serve::Batch b(&pool);
            b.add(p, w);
            res = b.run().front();
            break;
          }
          case 4: res = serve::submit_on(pool, tiled, w).get(); break;
          case 5: res = tiled.run(w); break;
        }
        t[g].push_back((now_s() - t0) * 1e6);
        if (!c->check(0, res)) {
          run.probes_ok = false;
          std::fprintf(stderr, "ladder mismatch: %s rung %s\n", p.signature().c_str(), rungs[g]);
        }
      }
    }
    std::printf("  %-5s %dD %-36s", cell.size, cell.dim, p.signature().c_str());
    for (int g = 0; g < kRungs; ++g) {
      med[g][cell.size].push_back(median(t[g]));
      std::printf(" %s=%.1f", rungs[g], median(t[g]));
    }
    std::printf("\n");
    if (std::string(cell.size) == "dram") dram_bytes += c->computed_bytes();
  }
  Metrics& m = run.m;
  auto sum = [](const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); };
  for (const char* size : {"tiny", "cache", "dram"}) {
    auto diff = [&](int hi, int lo) {
      std::vector<double> d;
      for (std::size_t i = 0; i < med[hi][size].size(); ++i)
        d.push_back(med[hi][size][i] - med[lo][size][i]);
      return median(d);
    };
    auto pct = [&](int hi, int lo) {
      std::vector<double> d;
      for (std::size_t i = 0; i < med[hi][size].size(); ++i)
        d.push_back(100.0 * (med[hi][size][i] - med[lo][size][i]) / med[0][size][i]);
      return median(d);
    };
    const std::string sfx = std::string(".") + size;
    m.set("solver.run_overhead_us" + sfx, diff(1, 0), "us");
    m.set("solver.run_overhead_pct" + sfx, pct(1, 0), "%");
    m.set("serve.submit_overhead_us" + sfx, diff(2, 1), "us");
    m.set("serve.submit_overhead_pct" + sfx, pct(2, 1), "%");
    m.set("serve.batch_overhead_us" + sfx, diff(3, 1), "us");
    m.set("serve.batch_overhead_pct" + sfx, pct(3, 1), "%");
  }
  const double serial_us = sum(med[0]["dram"]);
  const double dec_us = sum(med[4]["dram"]);
  const double omp_us = sum(med[5]["dram"]);
  const double gbs = dram_bytes / (dec_us * 1e-6) / 1e9;
  m.set("tiling.omp_ms", omp_us / 1e3, "ms");
  m.set("tiling.decomposed_ms", dec_us / 1e3, "ms");
  m.set("tiling.decompose_overhead_pct", 100.0 * (dec_us - omp_us) / omp_us, "%");
  m.set("tiling.par_eff", serial_us / (np * dec_us), "ratio");
  m.set("tiling.gbytes_per_s_computed", gbs, "GB/s");
  m.set("tiling.bw_frac", gbs / triad_gbs, "ratio");
}

// ---- output -----------------------------------------------------------------

void print_result(const Run& run) {
  std::string js = "{\"correct\": ";
  js += run.failed == 0 && run.probes_ok ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(run.attempted);
  js += ", \"failed\": " + std::to_string(run.failed);
  js += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, mt] : run.m.all()) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", mt.value);
    if (!first) js += ", ";
    first = false;
    js += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + mt.unit + "\"}";
  }
  js += "}}";
  std::printf("RESULT %s\n", js.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: tvs_bench --workload engine-cache|tiled-dram|serve-mixed "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

}  // namespace
}  // namespace tb

int main(int argc, char** argv) {
  using namespace tb;
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else return usage();
  }
  if ((argc - 1) % 2 != 0 || a.seconds <= 0) return usage();

  const double r0 = now_s();
  dp::KernelRegistry::instance();
  const double registry_s = now_s() - r0;
  std::printf("tvs-bench: workload=%s seed=%llu seconds=%g trace=%d backend=%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, std::string(dp::backend_name(dp::selected_backend())).c_str());

  Tracer tr;
  Run run;
  std::vector<std::unique_ptr<Case>> probe_cases;
  try {
    if (a.workload == "engine-cache") run = engine_cache(a, tr, registry_s, probe_cases);
    else if (a.workload == "tiled-dram") run = tiled_dram(a, tr, registry_s);
    else if (a.workload == "serve-mixed") run = serve_mixed(a, tr, registry_s);
    else return usage();

    if (a.trace) {
      const auto totals = tr.totals();
      std::printf("trace spans (benchmark-side; self = duration minus children):\n");
      for (const auto& [name, t] : totals)
        std::printf("  %-24s n=%-8ld total=%10.2f ms  self=%10.2f ms\n", name.c_str(),
                    t.count, t.total_ms, t.self_ms);
      const std::string path = a.out + "/spans_" + a.workload + "_" + std::to_string(a.seed) + ".jsonl";
      if (!tr.write(path)) std::fprintf(stderr, "cannot write %s\n", path.c_str());

      const CacheSizes cz = cache_sizes();
      const double llc = double(std::max(cz.llc_kib, 1024L)) * 1024.0;
      const double t0 = now_s();
      const double triad = stream_triad_gbs(static_cast<std::size_t>(4 * llc), nproc(), 5);
      std::printf("host: triad %.2f GB/s (computed; 3 arrays of %.0f MiB = 4x LLC) in %.1f s\n",
                  triad, 4 * llc / 1048576.0, now_s() - t0);
      run.m.set("host.stream_triad_gbs", triad, "GB/s");
      run.m.set("host.l2_kib", double(cz.l2_kib), "KiB");
      run.m.set("host.llc_kib", double(cz.llc_kib), "KiB");
      if (probe_cases.empty()) {
        probe_cases = make_cases(engine_cache_problems());
        for (std::size_t i = 0; i < probe_cases.size(); ++i) {
          probe_cases[i]->alloc_fill(1, mix(a.seed, i));
          probe_cases[i]->make_ref_oracle();
        }
      }
      tv_probe(probe_cases, triad, run);
      probe_cases.clear();
      serve::ThreadPool pool(nproc());
      ladder(pool, a.seed, llc, triad, run);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tvs_bench: %s\n", e.what());
    return 1;
  }
  print_result(run);
  return 0;
}
