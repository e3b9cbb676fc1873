// Parallelogram-tiled, wavefront-parallel Gauss-Seidel must match the
// in-place scalar sweeps exactly, across tile geometries, stage executors
// (stage_execs.hpp) and thread counts.
#include <gtest/gtest.h>

#include "util/omp_compat.hpp"

#include <random>
#include <tuple>

#include "kernel.hpp"
#include "stage_execs.hpp"
#include "stencil/reference1d.hpp"

namespace {

using namespace tvs;
using Grid = grid::Grid1D<double>;

Grid make_random(int nx, unsigned seed) {
  std::mt19937_64 rng(seed);
  Grid g(nx);
  g.fill_random(rng, -1.0, 1.0);
  return g;
}

void copy(const Grid& src, Grid& dst) {
  for (int x = -2; x <= src.nx() + 3; ++x) dst.at(x) = src.at(x);
}

// (nx, sweeps, width, height, stride)
using P = std::tuple<int, long, int, int, int>;
class ParaGs1dSweep : public ::testing::TestWithParam<P> {};

TEST_P(ParaGs1dSweep, MatchesOracleExactly) {
  const auto [nx, sweeps, w, h, s] = GetParam();
  const stencil::C1D3 c{0.33, 0.37, 0.3};
  const Grid init = make_random(nx, 700u + static_cast<unsigned>(nx));
  Grid ref(nx);
  copy(init, ref);
  stencil::gs1d3_run(c, ref, sweeps);
  for (const tiling::StageExec* exec : test::kStageExecs) {
    Grid got(nx);
    copy(init, got);
    const tiling::TileOptions opt{w, h, s, true, exec};
    test::resolve<dispatch::ParallelogramGs1D3Fn>(
        dispatch::kParallelogramGs1D3)(c, got, sweeps, opt);
    EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
        << "nx=" << nx << " sweeps=" << sweeps << " W=" << w << " H=" << h
        << " s=" << s << " exec=" << test::exec_name(exec);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ParaGs1dSweep,
    ::testing::Values(
        // tiny tiles (scalar-fallback path), skew crossing both edges
        P{64, 8, 16, 4, 2}, P{100, 16, 16, 8, 2}, P{128, 12, 32, 4, 3},
        // regular tiles
        P{512, 32, 64, 16, 3}, P{777, 40, 64, 16, 3}, P{1000, 64, 128, 32, 7},
        // sweeps off the 4-step and band grids
        P{512, 33, 64, 16, 3}, P{512, 30, 64, 16, 2}, P{512, 3, 64, 16, 3},
        P{400, 1, 64, 16, 3}, P{333, 21, 48, 12, 2},
        // domain smaller than a tile; very tall bands
        P{90, 24, 2048, 64, 3}, P{2048, 128, 256, 128, 3},
        P{1500, 100, 200, 60, 5},
        // shared-tile branches: all-scalar fallback (domain too short for
        // the steady loop), the read-cap clamp on tiles clipped at the
        // right domain edge, the largest stride the driver runs (12;
        // larger requests clamp to it), steps < vl and steps % vl != 0
        P{20, 16, 16, 4, 3}, P{1003, 28, 90, 16, 3}, P{900, 40, 120, 16, 12},
        P{900, 24, 120, 16, 32}, P{500, 2, 64, 16, 3}, P{500, 23, 64, 16, 5}),
    [](const auto& info) {
      return "nx" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_W" +
             std::to_string(std::get<2>(info.param)) + "_H" +
             std::to_string(std::get<3>(info.param)) + "_s" +
             std::to_string(std::get<4>(info.param));
    });

TEST(ParaGs1d, MultiThreadedMatchesOracle) {
  const stencil::C1D3 c = stencil::heat1d(0.25);
  const int nx = 1 << 15;
  Grid ref = make_random(nx, 177), got(nx);
  copy(ref, got);
  stencil::gs1d3_run(c, ref, 96);
  const tiling::TileOptions opt{512, 16, 3};
  const int saved = omp_get_max_threads();
  omp_set_num_threads(8);
  test::resolve<dispatch::ParallelogramGs1D3Fn>(dispatch::kParallelogramGs1D3)(
      c, got, 96, opt);
  omp_set_num_threads(saved);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0);
}

TEST(ParaGs1d, BoundaryDrivenConvergence) {
  const stencil::C1D3 c = stencil::heat1d(0.25);
  Grid u(31);
  u.fill(0.0);
  u.at(0) = 1.0;
  const tiling::TileOptions opt{32, 8, 3};
  test::resolve<dispatch::ParallelogramGs1D3Fn>(dispatch::kParallelogramGs1D3)(
      c, u, 30000, opt);
  for (int x = 1; x <= 31; ++x) {
    const double exact = 1.0 - static_cast<double>(x) / 32.0;
    EXPECT_NEAR(u.at(x), exact, 1e-6) << "x=" << x;
  }
}

}  // namespace
