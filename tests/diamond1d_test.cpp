// Diamond tiling + temporal vectorization must reproduce the scalar oracle
// exactly, for every tile geometry: wide/narrow tiles, short/tall bands,
// step counts off the band and vl grid, single- and multi-threaded, on
// every stage executor (stage_execs.hpp).  The
// f32 driver (8-lane float tiles) must equal the serial float engine
// exactly and the float oracle within the scaled-ULP contract.
#include <gtest/gtest.h>

#include "util/omp_compat.hpp"

#include <random>
#include <tuple>

#include "dispatch/kernels.hpp"
#include "f32_diamond.hpp"
#include "kernel.hpp"
#include "stage_execs.hpp"
#include "stencil/reference1d.hpp"
#include "tiling/pingpong_convert.hpp"

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

// (nx, steps, width, height, stride)
using P = std::tuple<int, long, int, int, int>;
class Diamond1DSweep : public ::testing::TestWithParam<P> {};

TEST_P(Diamond1DSweep, MatchesOracleExactly) {
  const auto [nx, steps, w, h, s] = GetParam();
  const stencil::C1D3 c{0.3, 0.42, 0.28};
  const Grid init = make_random(nx, 600u + static_cast<unsigned>(nx));
  Grid ref(nx);
  copy(init, ref);
  stencil::jacobi1d3_run(c, ref, steps);
  auto* const run = test::resolve<dispatch::DiamondJacobi1D3Fn>(
      dispatch::kDiamondJacobi1D3);
  for (const tiling::StageExec* exec : test::kStageExecs) {
    Grid got(nx);
    copy(init, got);
    const tiling::TileOptions opt{w, h, s, true, exec};
    tiling::with_pingpong(got, steps,
                          [&](auto& pp) { run(c, pp, steps, opt); });
    EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
        << "nx=" << nx << " steps=" << steps << " W=" << w << " H=" << h
        << " s=" << s << " exec=" << test::exec_name(exec);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Diamond1DSweep,
    ::testing::Values(
        // narrow tiles force scalar-fallback trapezoids
        P{64, 8, 16, 8, 2}, P{100, 12, 16, 4, 2}, P{128, 16, 32, 8, 3},
        // regular tiles, steady vector loop active
        P{512, 32, 64, 16, 7}, P{777, 35, 64, 16, 7}, P{1000, 64, 128, 32, 7},
        // steps not a multiple of 4 / not a multiple of the band height
        P{512, 33, 64, 16, 7}, P{512, 30, 64, 16, 7}, P{512, 7, 64, 16, 7},
        P{512, 18, 64, 16, 2}, P{400, 1, 64, 16, 7}, P{400, 2, 64, 16, 3},
        // domain smaller than one tile
        P{100, 24, 4096, 64, 7}, P{37, 16, 4096, 64, 2},
        // odd sizes, stride at minimum
        P{333, 40, 48, 12, 2}, P{513, 28, 96, 24, 5},
        // tall bands (heavy phase-2 growth)
        P{2048, 128, 512, 128, 7}, P{2048, 100, 512, 128, 7},
        // shared-tile branches: all-scalar fallback (every trapezoid too
        // narrow for the steady loop), the read-cap clamp where the last
        // tile is clipped at the right domain edge, the largest stride the
        // driver runs (8; larger requests clamp to it), steps < vl and
        // steps % vl != 0
        P{30, 12, 8, 4, 2}, P{1001, 24, 96, 16, 7}, P{997, 40, 160, 16, 8},
        P{700, 36, 128, 16, 32}, P{300, 3, 64, 16, 7},
        P{300, 13, 64, 16, 5}, P{641, 45, 100, 20, 3}),
    [](const auto& info) {
      return "nx" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_W" +
             std::to_string(std::get<2>(info.param)) + "_H" +
             std::to_string(std::get<3>(info.param)) + "_s" +
             std::to_string(std::get<4>(info.param));
    });

TEST(Diamond1D, MultiThreadedMatchesOracle) {
  const stencil::C1D3 c = stencil::heat1d(0.25);
  const int nx = 1 << 15;
  Grid ref = make_random(nx, 77), got(nx);
  copy(ref, got);
  stencil::jacobi1d3_run(c, ref, 96);
  const tiling::TileOptions opt{1024, 32, 7};
  auto* const run = test::resolve<dispatch::DiamondJacobi1D3Fn>(
      dispatch::kDiamondJacobi1D3);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(8);
  tiling::with_pingpong(got, 96, [&](auto& pp) { run(c, pp, 96, opt); });
  omp_set_num_threads(saved);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0);
}

TEST(Diamond1D, RepeatedRunsDeterministic) {
  const stencil::C1D3 c = stencil::heat1d(0.2);
  const int nx = 5000;
  Grid a = make_random(nx, 88), b(nx);
  copy(a, b);
  const tiling::TileOptions opt{256, 32, 7};
  auto* const run = test::resolve<dispatch::DiamondJacobi1D3Fn>(
      dispatch::kDiamondJacobi1D3);
  tiling::with_pingpong(a, 64, [&](auto& pp) { run(c, pp, 64, opt); });
  tiling::with_pingpong(b, 64, [&](auto& pp) { run(c, pp, 64, opt); });
  EXPECT_EQ(grid::max_abs_diff(a, b), 0.0);
}

TEST(Diamond1D, PingPongApiParityContract) {
  const stencil::C1D3 c = stencil::heat1d(0.25);
  const int nx = 3000;
  Grid ref = make_random(nx, 99);
  grid::PingPong<Grid> pp(nx);
  for (int x = -grid::kPad; x <= nx + 1 + grid::kPad; ++x)
    pp.even().at(x) = ref.at(x);
  // The driver mirrors the boundary and halo cells into the odd array
  // itself; a sentinel there must not reach the result.
  for (int x = -grid::kPad; x <= 0; ++x) pp.odd().at(x) = 1e30;
  for (int x = nx + 1; x <= nx + 1 + grid::kPad; ++x) pp.odd().at(x) = 1e30;
  stencil::jacobi1d3_run(c, ref, 31);  // odd step count
  const tiling::TileOptions opt{512, 16, 7};
  test::resolve<dispatch::DiamondJacobi1D3Fn>(dispatch::kDiamondJacobi1D3)(
      c, pp, 31, opt);
  EXPECT_EQ(grid::max_abs_diff(ref, pp.by_parity(31)), 0.0);
}

TEST(Diamond1DF32, MatchesSerialEngineAndFloatOracle) {
  const stencil::C1D3f c{0.3f, 0.42f, 0.28f};
  using G = grid::Grid1D<float>;
  test::expect_f32_diamond<dispatch::DiamondJacobi1D3F32Fn>(
      dispatch::kDiamondJacobi1D3, c, tiling::TileOptions{128, 16, 7},
      test::float_grid<G>(650u, 1000),
      [&](G& u, long t) { stencil::jacobi1d3_run(c, u, t); },
      [&](G& u, long t) {
        test::resolve<dispatch::TvJacobi1D3F32Fn>(
            dispatch::kTvJacobi1D3, dispatch::DType::kF32)(c, u, t, 7);
      });
}

}  // namespace
