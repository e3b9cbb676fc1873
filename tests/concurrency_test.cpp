// Concurrency guard for the process-wide plan cache (added in the Solver
// PR): N threads plan + run the SAME problem signature simultaneously.
// The contract under test:
//   * exactly ONE plan-cache miss (one planner execution is stored; racing
//     first-callers adopt the cached plan and count as hits);
//   * every thread runs the same plan, so outputs are bit-identical across
//     threads and to the scalar reference.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "solver/builder.hpp"
#include "solver/plan_cache.hpp"
#include "solver/solver.hpp"
#include "stencil/reference2d.hpp"
#include "tolerance.hpp"

namespace {

using namespace tvs;

constexpr int kThreads = 8;

TEST(Concurrency, SameSignatureSingleMissBitIdentical) {
  if (std::getenv("TVS_PLAN") != nullptr) {
    GTEST_SKIP() << "TVS_PLAN pins plans and bypasses the cache";
  }
  solver::plan_cache_clear();

  const int nx = 48, ny = 18;
  const long steps = 9;
  const stencil::C2D5 c = stencil::heat2d(0.2);
  const solver::StencilProblem p =
      solver::ProblemBuilder(solver::Family::kJacobi2D5)
          .extents(nx, ny)
          .steps(steps)
          .build();

  // One shared initial state; each thread gets its own copy.
  grid::Grid2D<double> init(nx, ny);
  {
    std::mt19937_64 rng(4242);
    init.fill_random(rng, -1.0, 1.0);
  }

  std::vector<std::unique_ptr<grid::Grid2D<double>>> outs(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    outs[t] = std::make_unique<grid::Grid2D<double>>(nx, ny);
    for (int x = 0; x <= nx + 1; ++x)
      for (int y = 0; y <= ny + 1; ++y) outs[t]->at(x, y) = init.at(x, y);
  }

  // Start barrier so all threads hit plan_for for a cold signature at once.
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) {
      }
      const solver::Solver s(p);  // races the first plan of this signature
      s.run(solver::Workload(c, *outs[t]));
    });
  }
  while (ready.load() != kThreads) {
  }
  go.store(true);
  for (auto& w : workers) w.join();

  const solver::PlanCacheStats stats = solver::plan_cache_stats();
  EXPECT_EQ(stats.misses, 1) << "racing first-callers must store one plan";
  EXPECT_EQ(stats.hits, kThreads - 1);
  EXPECT_EQ(stats.pinned, 0);

  // Bit-identical across threads and to the scalar oracle.
  grid::Grid2D<double> ref(nx, ny);
  for (int x = 0; x <= nx + 1; ++x)
    for (int y = 0; y <= ny + 1; ++y) ref.at(x, y) = init.at(x, y);
  stencil::jacobi2d5_run(c, ref, steps);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(test::grids_allclose(ref, *outs[t])) << "thread " << t;
  }
}

// Repeated solves after the first keep hitting the cache (no extra misses).
TEST(Concurrency, SteadyStateAllHits) {
  if (std::getenv("TVS_PLAN") != nullptr) {
    GTEST_SKIP() << "TVS_PLAN pins plans and bypasses the cache";
  }
  solver::plan_cache_clear();
  const solver::StencilProblem p =
      solver::ProblemBuilder(solver::Family::kJacobi1D3)
          .extents(128)
          .steps(5)
          .build();
  const stencil::C1D3 c = stencil::heat1d(0.25);
  { const solver::Solver warm(p); }  // the single miss
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 16; ++i) {
        const solver::Solver s(p);
        grid::Grid1D<double> u(p.nx);
        u.fill(1.0);
        s.run(solver::Workload(c, u));
      }
    });
  }
  for (auto& w : workers) w.join();
  const solver::PlanCacheStats stats = solver::plan_cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, kThreads * 16);
}

}  // namespace
