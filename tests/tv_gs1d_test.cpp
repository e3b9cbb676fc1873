// Property tests for the temporally vectorized Gauss-Seidel 1D kernel.
// The kernel chains the newest-west value exactly like the in-place scalar
// sweep, so comparisons are exact.
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
  return g;
}

void copy(const Grid& src, Grid& dst) {
  for (int x = -2; x <= src.nx() + 3; ++x) dst.at(x) = src.at(x);
}

using P = std::tuple<int, long, int>;
class TvGs1dSweep : public ::testing::TestWithParam<P> {};

TEST_P(TvGs1dSweep, MatchesOracleExactly) {
  const auto [nx, sweeps, s] = GetParam();
  const stencil::C1D3 c{0.35, 0.4, 0.25};
  Grid ref = make_random(nx, 300u + static_cast<unsigned>(nx)), got(nx);
  copy(ref, got);
  stencil::gs1d3_run(c, ref, sweeps);
  test::resolve<dispatch::TvGs1D3Fn>(dispatch::kTvGs1D3)(c, got, sweeps, s);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "nx=" << nx << " sweeps=" << sweeps << " s=" << s;
}

TEST_P(TvGs1dSweep, ScalarBackendMatchesOracleExactly) {
  const auto [nx, sweeps, s] = GetParam();
  const stencil::C1D3 c{0.4, 0.35, 0.25};
  Grid ref = make_random(nx, 500u + static_cast<unsigned>(nx)), got(nx);
  copy(ref, got);
  stencil::gs1d3_run(c, ref, sweeps);
  using V = simd::ScalarVec<double, 4>;
  tv::tv1d_run<V>(tv::Gs1D3F<V>(c), got, sweeps, s);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "nx=" << nx << " sweeps=" << sweeps << " s=" << s;
}

INSTANTIATE_TEST_SUITE_P(
    SizeSweepsStride, TvGs1dSweep,
    ::testing::Combine(::testing::Values(1, 7, 8, 9, 12, 13, 27, 28, 29, 40,
                                         63, 64, 65, 128, 200, 1001),
                       ::testing::Values(1L, 2L, 3L, 4L, 5L, 8L, 10L),
                       ::testing::Values(2, 3, 4, 7)),
    [](const auto& info) {
      return "nx" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

TEST(TvGs1d, RandomCoefficientsProperty) {
  std::mt19937_64 rng(71);
  std::uniform_real_distribution<double> d(-0.5, 0.5);
  for (int it = 0; it < 20; ++it) {
    const stencil::C1D3 c{d(rng), d(rng), d(rng)};
    const int nx = 25 + it * 17;
    const long sweeps = 1 + it % 7;
    const int s = 2 + it % 5;
    Grid ref = make_random(nx, 900u + static_cast<unsigned>(it)), got(nx);
    copy(ref, got);
    stencil::gs1d3_run(c, ref, sweeps);
    test::resolve<dispatch::TvGs1D3Fn>(dispatch::kTvGs1D3)(c, got, sweeps, s);
    ASSERT_EQ(grid::max_abs_diff(ref, got), 0.0)
        << "it=" << it << " nx=" << nx << " sweeps=" << sweeps << " s=" << s;
  }
}

TEST(TvGs1d, BoundaryValuesStayFixed) {
  const stencil::C1D3 c = stencil::heat1d(0.2);
  Grid u(100);
  u.fill(0.5);
  u.at(0) = 2.0;
  u.at(101) = -1.0;
  test::resolve<dispatch::TvGs1D3Fn>(dispatch::kTvGs1D3)(c, u, 24, 3);
  EXPECT_EQ(u.at(0), 2.0);
  EXPECT_EQ(u.at(101), -1.0);
}

TEST(TvGs1d, ConvergesToLinearProfile) {
  // Gauss-Seidel on the heat kernel converges to the boundary-driven
  // linear steady state.
  const stencil::C1D3 c = stencil::heat1d(0.25);
  Grid u(63);
  u.fill(0.0);
  u.at(0) = 1.0;
  u.at(64) = 0.0;
  test::resolve<dispatch::TvGs1D3Fn>(dispatch::kTvGs1D3)(c, u, 20000, 3);
  for (int x = 1; x <= 63; ++x) {
    const double exact = 1.0 - static_cast<double>(x) / 64.0;
    EXPECT_NEAR(u.at(x), exact, 1e-6) << "x=" << x;
  }
}

}  // namespace
