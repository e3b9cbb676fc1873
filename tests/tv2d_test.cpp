// Property tests for the 2D temporal-vectorization engine: Jacobi 2D5P,
// 2D9P, Game of Life (int32 x 8) and Gauss-Seidel 2D5P, all bit-exact
// against the scalar oracles, on both vector backends.
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "kernel.hpp"
#include "stencil/life_ref.hpp"
#include "stencil/reference2d.hpp"
#include "tv/functors2d.hpp"
#include "tv/tv_plane_impl.hpp"

namespace {

using namespace tvs;
using GridD = grid::Grid2D<double>;
using GridI = grid::Grid2D<std::int32_t>;

GridD make_random(int nx, int ny, unsigned seed) {
  std::mt19937_64 rng(seed);
  GridD g(nx, ny);
  g.fill_random(rng, -1.0, 1.0);
  return g;
}

template <class G>
void copy(const G& src, G& dst) {
  for (int x = 0; x <= src.nx() + 1; ++x)
    for (int y = 0; y <= src.ny() + 1; ++y) dst.at(x, y) = src.at(x, y);
}

// (nx, ny, steps, stride)
using P = std::tuple<int, int, long, int>;

class Tv2dSweep : public ::testing::TestWithParam<P> {};

TEST_P(Tv2dSweep, Jacobi5PMatchesOracleExactly) {
  const auto [nx, ny, steps, s] = GetParam();
  const stencil::C2D5 c{0.32, 0.2, 0.18, 0.14, 0.16};
  GridD ref = make_random(nx, ny, 40u + static_cast<unsigned>(nx * 31 + ny));
  GridD got(nx, ny);
  copy(ref, got);
  stencil::jacobi2d5_run(c, ref, steps);
  test::resolve<dispatch::TvJacobi2D5Fn>(dispatch::kTvJacobi2D5)(
      c, got, steps, s);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "nx=" << nx << " ny=" << ny << " steps=" << steps << " s=" << s;
}

TEST_P(Tv2dSweep, Jacobi9PMatchesOracleExactly) {
  const auto [nx, ny, steps, s] = GetParam();
  const stencil::C2D9 c{0.2, 0.15, 0.12, 0.1, 0.08, 0.09, 0.07, 0.1, 0.09};
  GridD ref = make_random(nx, ny, 50u + static_cast<unsigned>(nx * 37 + ny));
  GridD got(nx, ny);
  copy(ref, got);
  stencil::jacobi2d9_run(c, ref, steps);
  test::resolve<dispatch::TvJacobi2D9Fn>(dispatch::kTvJacobi2D9)(
      c, got, steps, s);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "nx=" << nx << " ny=" << ny << " steps=" << steps << " s=" << s;
}

TEST_P(Tv2dSweep, GaussSeidelMatchesOracleExactly) {
  const auto [nx, ny, steps, s] = GetParam();
  const stencil::C2D5 c{0.3, 0.22, 0.16, 0.18, 0.14};
  GridD ref = make_random(nx, ny, 60u + static_cast<unsigned>(nx * 41 + ny));
  GridD got(nx, ny);
  copy(ref, got);
  stencil::gs2d5_run(c, ref, steps);
  test::resolve<dispatch::TvGs2D5Fn>(dispatch::kTvGs2D5)(c, got, steps, s);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "nx=" << nx << " ny=" << ny << " steps=" << steps << " s=" << s;
}

TEST_P(Tv2dSweep, ScalarBackendJacobi5PMatchesOracle) {
  const auto [nx, ny, steps, s] = GetParam();
  const stencil::C2D5 c{0.3, 0.2, 0.2, 0.15, 0.15};
  GridD ref = make_random(nx, ny, 70u + static_cast<unsigned>(nx + ny));
  GridD got(nx, ny);
  copy(ref, got);
  stencil::jacobi2d5_run(c, ref, steps);
  using SV = simd::ScalarVec<double, 4>;
  tv::tv_plane_run<SV>(tv::J2D5F<SV>(c), got, steps, s);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, Tv2dSweep,
    ::testing::Values(
        // nx below/at/above the 4s pipeline threshold, odd sizes
        P{1, 8, 4, 2}, P{7, 5, 5, 2}, P{8, 8, 4, 2}, P{9, 9, 6, 2},
        P{16, 4, 8, 2}, P{17, 33, 9, 2}, P{24, 16, 4, 3}, P{31, 7, 10, 2},
        P{40, 40, 12, 2}, P{64, 48, 7, 2}, P{65, 3, 4, 2}, P{100, 20, 2, 2},
        // larger strides
        P{56, 24, 8, 5}, P{60, 31, 8, 7},
        // inner extent 1 and vl-1 (vl = 4 and 8): one-line planes shorter
        // than a top-store group
        P{40, 1, 9, 2}, P{33, 3, 8, 2}, P{48, 7, 17, 2}, P{50, 1, 16, 3}),
    [](const auto& info) {
      return "nx" + std::to_string(std::get<0>(info.param)) + "_ny" +
             std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param)) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

// ---- Life (vl = 8 int32 lanes: one tile is 8 generations) ------------------

using PL = std::tuple<int, int, long, int>;
class TvLifeSweep : public ::testing::TestWithParam<PL> {};

TEST_P(TvLifeSweep, MatchesOracleExactly) {
  const auto [nx, ny, steps, s] = GetParam();
  const stencil::LifeRule rule{};  // B2S23
  std::mt19937_64 rng(80u + static_cast<unsigned>(nx * 13 + ny));
  GridI ref(nx, ny);
  std::uniform_int_distribution<std::int32_t> d(0, 1);
  for (int x = 0; x <= nx + 1; ++x)
    for (int y = 0; y <= ny + 1; ++y) ref.at(x, y) = d(rng);
  GridI got(nx, ny);
  copy(ref, got);
  stencil::life_run(rule, ref, steps);
  test::resolve<dispatch::TvLifeFn>(dispatch::kTvLife, dispatch::DType::kI32)(
      rule, got, steps, s);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "nx=" << nx << " ny=" << ny << " steps=" << steps << " s=" << s;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TvLifeSweep,
    ::testing::Values(
        // vl = 8: pipeline needs nx >= 8s; hit both sides plus odd steps
        PL{15, 10, 9, 2}, PL{16, 16, 8, 2}, PL{17, 9, 10, 2}, PL{33, 20, 16, 2},
        PL{40, 12, 7, 2}, PL{48, 31, 11, 2}, PL{64, 16, 24, 3},
        PL{70, 25, 8, 2},
        // inner extent 1 and vl-1 (vl = 8 and 16)
        PL{40, 1, 16, 2}, PL{48, 7, 17, 2}, PL{64, 15, 33, 2}),
    [](const auto& info) {
      return "nx" + std::to_string(std::get<0>(info.param)) + "_ny" +
             std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param)) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

TEST(TvLife, ConwayGliderTravels) {
  const stencil::LifeRule conway{3, 2, 3};
  GridI u(40, 40);
  u.fill(0);
  // Glider heading south-east.
  u.at(2, 3) = u.at(3, 4) = u.at(4, 2) = u.at(4, 3) = u.at(4, 4) = 1;
  GridI ref(40, 40);
  copy(u, ref);
  stencil::life_run(conway, ref, 32);
  test::resolve<dispatch::TvLifeFn>(dispatch::kTvLife, dispatch::DType::kI32)(
      conway, u, 32, 2);
  EXPECT_EQ(grid::max_abs_diff(ref, u), 0.0);
  // After 32 steps the glider has moved 8 cells diagonally.
  EXPECT_EQ(u.at(10, 11), 1);
}

TEST(Tv2d, BoundaryStaysFixedAndRandomCoeffs) {
  std::mt19937_64 rng(91);
  std::uniform_real_distribution<double> d(-0.4, 0.4);
  for (int it = 0; it < 8; ++it) {
    const stencil::C2D5 c{d(rng), d(rng), d(rng), d(rng), d(rng)};
    const int nx = 20 + 7 * it, ny = 10 + 5 * it;
    GridD ref = make_random(nx, ny, 900u + static_cast<unsigned>(it));
    GridD got(nx, ny);
    copy(ref, got);
    stencil::jacobi2d5_run(c, ref, 9);
    test::resolve<dispatch::TvJacobi2D5Fn>(dispatch::kTvJacobi2D5)(
        c, got, 9, 2);
    ASSERT_EQ(grid::max_abs_diff(ref, got), 0.0) << "it=" << it;
    EXPECT_EQ(got.at(0, 3), ref.at(0, 3));
  }
}

}  // namespace
