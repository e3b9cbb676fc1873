// Property tests for the 3D temporal-vectorization engines: Jacobi 3D7P and
// Gauss-Seidel 3D7P, bit-exact against the scalar oracles.
#include <gtest/gtest.h>

#include "tolerance.hpp"

#include <random>
#include <tuple>

#include "kernel.hpp"
#include "stencil/reference3d.hpp"
#include "tv/functors3d.hpp"
#include "tv/tv_plane_impl.hpp"

namespace {

using namespace tvs;
using Grid = grid::Grid3D<double>;

Grid make_random(int nx, int ny, int nz, unsigned seed) {
  std::mt19937_64 rng(seed);
  Grid g(nx, ny, nz);
  g.fill_random(rng, -1.0, 1.0);
  return g;
}

void copy(const Grid& src, Grid& dst) {
  for (int x = 0; x <= src.nx() + 1; ++x)
    for (int y = 0; y <= src.ny() + 1; ++y)
      for (int z = 0; z <= src.nz() + 1; ++z)
        dst.at(x, y, z) = src.at(x, y, z);
}

// (nx, ny, nz, steps, stride)
using P = std::tuple<int, int, int, long, int>;
class Tv3dSweep : public ::testing::TestWithParam<P> {};

TEST_P(Tv3dSweep, JacobiMatchesOracleExactly) {
  const auto [nx, ny, nz, steps, s] = GetParam();
  const stencil::C3D7 c{0.28, 0.14, 0.12, 0.13, 0.11, 0.12, 0.1};
  Grid ref = make_random(nx, ny, nz, 44u + static_cast<unsigned>(nx + ny + nz));
  Grid got(nx, ny, nz);
  copy(ref, got);
  stencil::jacobi3d7_run(c, ref, steps);
  test::resolve<dispatch::TvJacobi3D7Fn>(dispatch::kTvJacobi3D7)(
      c, got, steps, s);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "n=(" << nx << "," << ny << "," << nz << ") steps=" << steps
      << " s=" << s;
}

TEST_P(Tv3dSweep, GaussSeidelMatchesOracleExactly) {
  const auto [nx, ny, nz, steps, s] = GetParam();
  const stencil::C3D7 c{0.3, 0.13, 0.11, 0.12, 0.1, 0.13, 0.11};
  Grid ref = make_random(nx, ny, nz, 54u + static_cast<unsigned>(nx + ny + nz));
  Grid got(nx, ny, nz);
  copy(ref, got);
  stencil::gs3d7_run(c, ref, steps);
  test::resolve<dispatch::TvGs3D7Fn>(dispatch::kTvGs3D7)(c, got, steps, s);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "n=(" << nx << "," << ny << "," << nz << ") steps=" << steps
      << " s=" << s;
}

TEST_P(Tv3dSweep, ScalarBackendJacobiMatchesOracle) {
  const auto [nx, ny, nz, steps, s] = GetParam();
  const stencil::C3D7 c = stencil::heat3d(0.1);
  Grid ref = make_random(nx, ny, nz, 64u + static_cast<unsigned>(nx));
  Grid got(nx, ny, nz);
  copy(ref, got);
  stencil::jacobi3d7_run(c, ref, steps);
  using SV = simd::ScalarVec<double, 4>;
  tv::tv_plane_run<SV>(tv::J3D7F<SV>(c), got, steps, s);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, Tv3dSweep,
    ::testing::Values(P{1, 6, 6, 4, 2},     // no pipeline
                      P{7, 6, 5, 5, 2},     // below threshold
                      P{8, 8, 8, 4, 2},     // exactly 4s
                      P{9, 7, 6, 6, 2},     // odd everything
                      P{16, 10, 12, 8, 2},  // two tiles
                      P{17, 5, 9, 9, 2},    // residual step
                      P{24, 12, 8, 4, 3},   // stride 3
                      P{25, 9, 11, 7, 2}, P{33, 14, 10, 12, 2},
                      // degenerate planes: one or two interior lines, one
                      // or three columns
                      P{24, 1, 3, 8, 2}, P{33, 2, 1, 9, 2},
                      P{40, 1, 1, 17, 2}, P{40, 2, 3, 16, 3}),
    [](const auto& info) {
      return "nx" + std::to_string(std::get<0>(info.param)) + "_ny" +
             std::to_string(std::get<1>(info.param)) + "_nz" +
             std::to_string(std::get<2>(info.param)) + "_t" +
             std::to_string(std::get<3>(info.param)) + "_s" +
             std::to_string(std::get<4>(info.param));
    });

TEST(Tv3d, ConstantFieldSteadyState) {
  Grid u(12, 10, 8);
  u.fill(3.25);
  test::resolve<dispatch::TvJacobi3D7Fn>(dispatch::kTvJacobi3D7)(
      stencil::heat3d(0.05), u, 8, 2);
  for (int x = 0; x <= 13; ++x)
    for (int y = 0; y <= 11; ++y)
      for (int z = 0; z <= 9; ++z)
        EXPECT_TRUE(test::near_ulp(u.at(x, y, z), 3.25));
}

}  // namespace
