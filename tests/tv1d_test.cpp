// Property tests for the temporally vectorized 1D Jacobi kernels.
//
// The engine and the scalar oracle evaluate the identical canonical fma
// formulas, so every comparison here is *exact* (bit-for-bit), on both the
// intrinsic and the scalar vector backend, across:
//   - strides s from the legal minimum to 9 (paper default 7),
//   - sizes crossing the nx >= 4s steady-region threshold,
//   - step counts with T % 4 != 0 (scalar residual path),
//   - random coefficients and boundary values,
//   - radius 1 (1D3P) and radius 2 (1D5P) stencils.
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "kernel.hpp"
#include "stencil/reference1d.hpp"
#include "tv/functors1d.hpp"
#include "tv/tv1d_impl.hpp"

namespace {

using namespace tvs;
using Grid = grid::Grid1D<double>;

Grid make_random(int nx, unsigned seed) {
  std::mt19937_64 rng(seed);
  Grid g(nx);
  g.fill_random(rng, -1.0, 1.0);
  // Radius-2 boundary cells too.
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  g.at(-1) = d(rng);
  g.at(nx + 2) = d(rng);
  return g;
}

void copy(const Grid& src, Grid& dst) {
  for (int x = -2; x <= src.nx() + 3; ++x) dst.at(x) = src.at(x);
}

// ---- parameterized sweep: (nx, steps, stride) ------------------------------

using P = std::tuple<int, long, int>;
class Tv1dSweep : public ::testing::TestWithParam<P> {};

TEST_P(Tv1dSweep, MatchesOracleExactly3P) {
  const auto [nx, steps, s] = GetParam();
  const stencil::C1D3 c{0.3, 0.45, 0.25};
  Grid ref = make_random(nx, 7u + static_cast<unsigned>(nx)), got(nx);
  copy(ref, got);
  stencil::jacobi1d3_run(c, ref, steps);
  test::resolve<dispatch::TvJacobi1D3Fn>(dispatch::kTvJacobi1D3)(
      c, got, steps, s);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "nx=" << nx << " steps=" << steps << " s=" << s;
}

TEST_P(Tv1dSweep, ScalarBackendMatchesOracleExactly3P) {
  const auto [nx, steps, s] = GetParam();
  const stencil::C1D3 c{0.28, 0.5, 0.22};
  Grid ref = make_random(nx, 11u + static_cast<unsigned>(nx)), got(nx);
  copy(ref, got);
  stencil::jacobi1d3_run(c, ref, steps);
  using SV = simd::ScalarVec<double, 4>;
  tv::tv1d_run<SV>(tv::J1D3F<SV>(c), got, steps, s);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "nx=" << nx << " steps=" << steps << " s=" << s;
}

INSTANTIATE_TEST_SUITE_P(
    SizeStepsStride, Tv1dSweep,
    ::testing::Combine(
        // sizes: below/at/above the 4s threshold for every stride, odd sizes
        ::testing::Values(1, 5, 7, 8, 16, 27, 28, 29, 36, 37, 63, 64, 65, 100,
                          129, 257, 1000),
        ::testing::Values(1L, 2L, 3L, 4L, 5L, 8L, 11L),
        ::testing::Values(2, 3, 5, 7, 9)),
    [](const auto& info) {
      return "nx" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// ---- 1D5P (radius 2) --------------------------------------------------------

using P5 = std::tuple<int, long, int>;
class Tv1dSweep5P : public ::testing::TestWithParam<P5> {};

TEST_P(Tv1dSweep5P, MatchesOracleExactly5P) {
  const auto [nx, steps, s] = GetParam();
  const stencil::C1D5 c{0.05, 0.2, 0.5, 0.15, 0.1};
  Grid ref = make_random(nx, 101u + static_cast<unsigned>(nx)), got(nx);
  copy(ref, got);
  stencil::jacobi1d5_run(c, ref, steps);
  test::resolve<dispatch::TvJacobi1D5Fn>(dispatch::kTvJacobi1D5)(
      c, got, steps, s);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "nx=" << nx << " steps=" << steps << " s=" << s;
}

INSTANTIATE_TEST_SUITE_P(
    SizeStepsStride, Tv1dSweep5P,
    ::testing::Combine(::testing::Values(4, 11, 12, 13, 40, 57, 128, 399),
                       ::testing::Values(1L, 4L, 6L, 9L),
                       ::testing::Values(3, 4, 7)),
    [](const auto& info) {
      return "nx" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// ---- targeted cases ---------------------------------------------------------

TEST(Tv1d, RandomCoefficientsProperty) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> d(-0.5, 0.5);
  for (int it = 0; it < 25; ++it) {
    const stencil::C1D3 c{d(rng), d(rng), d(rng)};
    const int nx = 30 + it * 13;
    const long steps = 1 + it % 9;
    const int s = 2 + it % 7;
    Grid ref = make_random(nx, 200u + static_cast<unsigned>(it)), got(nx);
    copy(ref, got);
    stencil::jacobi1d3_run(c, ref, steps);
    test::resolve<dispatch::TvJacobi1D3Fn>(dispatch::kTvJacobi1D3)(
        c, got, steps, s);
    ASSERT_EQ(grid::max_abs_diff(ref, got), 0.0)
        << "it=" << it << " nx=" << nx << " steps=" << steps << " s=" << s;
  }
}

TEST(Tv1d, NonZeroBoundaryValuesStayFixed) {
  const stencil::C1D3 c = stencil::heat1d(0.25);
  Grid u(64);
  u.fill(0.0);
  u.at(0) = 3.5;
  u.at(65) = -2.5;
  test::resolve<dispatch::TvJacobi1D3Fn>(dispatch::kTvJacobi1D3)(c, u, 40, 7);
  EXPECT_EQ(u.at(0), 3.5);
  EXPECT_EQ(u.at(65), -2.5);
  // Interior pulled towards the boundary values.
  EXPECT_GT(u.at(1), 0.0);
  EXPECT_LT(u.at(64), 0.0);
}

TEST(Tv1d, ZeroStepsIsIdentity) {
  Grid a = make_random(77, 5), b(77);
  copy(a, b);
  test::resolve<dispatch::TvJacobi1D3Fn>(dispatch::kTvJacobi1D3)(
      stencil::heat1d(0.2), b, 0, 7);
  EXPECT_EQ(grid::max_abs_diff(a, b), 0.0);
}

TEST(Tv1d, LongRunStability) {
  // Heat kernel is a contraction: values must remain bounded by the initial
  // envelope under many tiles.
  Grid u = make_random(513, 31);
  u.at(0) = 0.0;
  u.at(514) = 0.0;
  test::resolve<dispatch::TvJacobi1D3Fn>(dispatch::kTvJacobi1D3)(
      stencil::heat1d(0.25), u, 1000, 7);
  for (int x = 1; x <= 513; ++x) {
    EXPECT_LT(std::abs(u.at(x)), 1.0 + 1e-9);
  }
}

TEST(Tv1d, StrideEqualsMinimumLegal) {
  // s = radius+1 is the smallest legal stride; the paper's Algorithm 3 uses
  // s = 2 for the 1D3P illustration.
  const stencil::C1D3 c{0.25, 0.5, 0.25};
  Grid ref = make_random(240, 77), got(240);
  copy(ref, got);
  stencil::jacobi1d3_run(c, ref, 16);
  test::resolve<dispatch::TvJacobi1D3Fn>(dispatch::kTvJacobi1D3)(c, got, 16, 2);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0);
}

}  // namespace
