// Serving-layer throughput: problems/second through serve::Batch on a
// work-stealing ThreadPool, sweeping 1..P workers (TVS_BENCH_MAXTHREADS
// caps the sweep) over a mixed set of small problems — four instances each
// of jacobi1d3/f64, jacobi2d5/f64, gs1d3/f32 and LCS.  The serving layer
// schedules whole problems across workers; speedup is relative to the
// single-worker row.  A second sweep mixes large tiled problems with small
// interactive ones and reports small-problem latency with the priority
// hint off vs on — the number that used to degrade when a big job parked
// on every worker.  A final table snapshots the serving counters
// (serve::Stats plus the last pool's executor stats) so a run records how
// much planning the cache amortized, whether the plan store fired, where
// workers landed across NUMA nodes, and how many tile tasks the
// decomposed-run scheduler pushed through the shared pool.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util/bench.hpp"
#include "dispatch/dtype.hpp"
#include "grid/grid1d.hpp"
#include "grid/grid2d.hpp"
#include "serve/batch.hpp"
#include "serve/executor.hpp"
#include "serve/stats.hpp"
#include "solver/builder.hpp"
#include "solver/solver.hpp"
#include "stencil/coefficients.hpp"

int main() {
  using namespace tvs;
  namespace b = tvs::bench;

  const int scale = b::full_mode() ? 4 : 1;
  const int n1 = 2048 * scale;   // 1D rods
  const int n2 = 64 * scale;     // 2D squares
  const int nl = 512 * scale;    // LCS sequence length
  const long steps1 = 32;
  const long steps2 = 16;
  constexpr int kCopies = 4;  // instances per problem kind

  const solver::StencilProblem p_j1 =
      solver::ProblemBuilder(solver::Family::kJacobi1D3)
          .extents(n1)
          .steps(steps1)
          .build();
  const solver::StencilProblem p_j2 =
      solver::ProblemBuilder(solver::Family::kJacobi2D5)
          .extents(n2, n2)
          .steps(steps2)
          .build();
  const solver::StencilProblem p_gs =
      solver::ProblemBuilder(solver::Family::kGs1D3)
          .extents(n1)
          .steps(steps1)
          .dtype(dispatch::DType::kF32)
          .build();
  const solver::StencilProblem p_lcs =
      solver::ProblemBuilder(solver::Family::kLcs).extents(nl, nl).build();

  const stencil::C1D3 c_j1 = stencil::heat1d(0.25);
  const stencil::C2D5 c_j2 = stencil::heat2d(0.2);
  const stencil::C1D3f c_gs = stencil::heat1d<float>(0.25);

  // One grid / sequence pair per instance; storage outlives every future.
  std::mt19937_64 rng(11);
  std::vector<grid::Grid1D<double>> g_j1;
  std::vector<grid::Grid2D<double>> g_j2;
  std::vector<grid::Grid1D<float>> g_gs;
  std::vector<std::vector<std::int32_t>> seq_a, seq_b;
  std::uniform_int_distribution<std::int32_t> d(0, 3);
  for (int i = 0; i < kCopies; ++i) {
    g_j1.emplace_back(n1).fill_random(rng, -1.0, 1.0);
    g_j2.emplace_back(n2, n2).fill_random(rng, -1.0, 1.0);
    g_gs.emplace_back(n1).fill_random(rng, -1.0f, 1.0f);
    auto& a = seq_a.emplace_back(static_cast<std::size_t>(nl));
    auto& s = seq_b.emplace_back(static_cast<std::size_t>(nl));
    for (auto& v : a) v = d(rng);
    for (auto& v : s) v = d(rng);
  }
  const int kProblems = 4 * kCopies;

  b::print_title("Serving throughput  mixed small-problem batch");
  b::print_header({"workers", "probs_per_sec", "speedup"});

  serve::ExecutorStats last_pool{};
  double base_rate = 0.0;
  for (const int w : b::thread_sweep()) {
    serve::ThreadPool pool(w);
    serve::Batch batch(&pool);
    const auto pass = [&] {
      for (int i = 0; i < kCopies; ++i) {
        batch.add(p_j1, solver::Workload(c_j1, g_j1[static_cast<size_t>(i)]));
        batch.add(p_j2, solver::Workload(c_j2, g_j2[static_cast<size_t>(i)]));
        batch.add(p_gs, solver::Workload(c_gs, g_gs[static_cast<size_t>(i)]));
        batch.add(p_lcs, solver::Workload(seq_a[static_cast<size_t>(i)],
                                          seq_b[static_cast<size_t>(i)]));
      }
      batch.run();
    };
    pass();  // warm: plans land in the process-wide cache
    double best = 0.0;
    for (double spent = 0.0; spent < 0.2;) {
      const double t0 = b::now_sec();
      pass();
      const double dt = b::now_sec() - t0;
      best = std::max(best, static_cast<double>(kProblems) / dt);
      spent += dt;
    }
    if (base_rate == 0.0) base_rate = best;
    last_pool = pool.stats();
    b::print_row({std::to_string(w), b::fmt(best), b::fmt(best / base_rate)});
  }

  // --- Mixed large+small latency: does a small problem still return fast
  // while large tiled jobs occupy the pool?  Large jacobi2d5/f64 runs take
  // the tiled-parallel path (decomposed into per-tile pool tasks); the
  // small probes are sub-millisecond
  // jacobi1d3 runs submitted one at a time while the big jobs are in
  // flight.  hint=off leaves the probes on the batch band, hint=on marks
  // them interactive so they bypass queued tile/batch work.
  const int nbig = 256 * scale;
  const solver::StencilProblem p_big =
      solver::ProblemBuilder(solver::Family::kJacobi2D5)
          .extents(nbig, nbig)
          .steps(64)
          .threads(4)
          .build();
  const solver::StencilProblem p_small =
      solver::ProblemBuilder(solver::Family::kJacobi1D3)
          .extents(256)
          .steps(8)
          .build();
  const stencil::C1D3 c_small = stencil::heat1d(0.25);
  constexpr int kBig = 6;
  constexpr int kProbes = 12;
  std::vector<grid::Grid2D<double>> g_big;
  for (int i = 0; i < kBig; ++i) {
    g_big.emplace_back(nbig, nbig).fill_random(rng, -1.0, 1.0);
  }
  std::vector<grid::Grid1D<double>> g_small;
  for (int i = 0; i < kProbes; ++i) {
    g_small.emplace_back(256).fill_random(rng, -1.0, 1.0);
  }

  b::print_title("Serving latency  small probes among large tiled jobs");
  b::print_header({"big_jobs", "hint", "probe_p50_ms", "probe_max_ms",
                   "elapsed_ms"});
  // whole/off replays the pre-decomposition serving layer: each big job is
  // one closure that parks on a worker until done, so probes queue behind
  // entire problems.  tiles/* submit through the serving funnel, which
  // decomposes the tiled plan into per-stage pool tasks.
  struct Config {
    const char* mode;
    bool interactive;
  };
  for (const Config cfg : {Config{"whole", false}, Config{"tiles", false},
                           Config{"tiles", true}}) {
    const bool whole = std::string_view(cfg.mode) == "whole";
    const bool interactive = cfg.interactive;
    serve::ThreadPool pool(4);
    const solver::Solver s_big(p_big);
    const solver::Solver s_small(p_small);
    const double t_all = b::now_sec();
    std::vector<solver::Future<solver::RunResult>> big;
    std::vector<std::future<void>> big_whole;
    big.reserve(kBig);
    big_whole.reserve(kBig);
    for (int i = 0; i < kBig; ++i) {
      solver::Workload w(c_j2, g_big[static_cast<size_t>(i)]);
      if (whole) {
        auto done = std::make_shared<std::promise<void>>();
        big_whole.push_back(done->get_future());
        pool.submit([&s_big, w, done] {
          s_big.run(w);
          done->set_value();
        });
      } else {
        big.push_back(serve::submit_on(pool, s_big, std::move(w)));
      }
    }
    // Pace the probes across the big jobs' whole in-flight window instead
    // of firing them all up front, so the percentile samples contention at
    // many points of the tiled runs rather than just the initial burst.
    std::vector<double> lat;
    lat.reserve(kProbes);
    for (int i = 0; i < kProbes; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      solver::Workload w(c_small, g_small[static_cast<size_t>(i)]);
      if (interactive) w.priority(solver::Priority::kInteractive);
      const double t0 = b::now_sec();
      serve::submit_on(pool, s_small, std::move(w)).get();
      lat.push_back((b::now_sec() - t0) * 1e3);
    }
    for (auto& f : big) f.get();
    for (auto& f : big_whole) f.get();
    const double elapsed = (b::now_sec() - t_all) * 1e3;
    std::sort(lat.begin(), lat.end());
    b::print_row({cfg.mode, interactive ? "on" : "off",
                  b::fmt(lat[lat.size() / 2]), b::fmt(lat.back()),
                  b::fmt(elapsed)});
    last_pool = pool.stats();
  }

  const serve::Stats s = serve::stats();
  std::string per_node;
  for (std::size_t i = 0; i < last_pool.workers_per_node.size(); ++i) {
    if (i > 0) per_node += ",";
    per_node += std::to_string(last_pool.workers_per_node[i]);
  }
  b::print_title("serve stats");
  b::print_header({"counter", "value"});
  b::print_row({"plan_cache_hits", std::to_string(s.plan_cache.hits)});
  b::print_row({"plan_cache_misses", std::to_string(s.plan_cache.misses)});
  b::print_row({"plan_store_loads", std::to_string(s.plan_store.loads)});
  b::print_row({"plan_store_saves", std::to_string(s.plan_store.saves)});
  b::print_row({"plan_store_rejects", std::to_string(s.plan_store.rejects)});
  b::print_row({"executor_tasks_run", std::to_string(last_pool.tasks_run)});
  b::print_row({"executor_steals", std::to_string(last_pool.steals)});
  b::print_row({"executor_workers", std::to_string(last_pool.workers)});
  b::print_row({"executor_nodes", std::to_string(last_pool.nodes)});
  b::print_row({"workers_per_node", per_node});
  b::print_row({"interactive_submitted",
                std::to_string(last_pool.interactive_submitted)});
  b::print_row({"interactive_run", std::to_string(last_pool.interactive_run)});
  b::print_row(
      {"sched_decomposed_runs", std::to_string(s.sched.decomposed_runs)});
  b::print_row({"sched_stages", std::to_string(s.sched.stages)});
  b::print_row({"sched_tile_tasks", std::to_string(s.sched.tile_tasks)});
  b::print_row({"sched_helper_tasks", std::to_string(s.sched.helper_tasks)});
  return 0;
}
