// The parallel tiled drivers (diamond on x for Jacobi/Life, parallelogram
// wavefront for Gauss-Seidel) must reproduce the scalar oracles exactly,
// across tile geometries, on every stage executor (stage_execs.hpp) and
// under many threads.  The f32 diamonds (8-lane
// float tiles) must equal the serial float engines exactly and the float
// oracles within the scaled-ULP contract.
#include <gtest/gtest.h>

#include "util/omp_compat.hpp"

#include <random>
#include <tuple>

#include "dispatch/kernels.hpp"
#include "f32_diamond.hpp"
#include "stage_execs.hpp"
#include "stencil/life_ref.hpp"
#include "stencil/reference2d.hpp"
#include "stencil/reference3d.hpp"
#include "tiling/diamond2d.hpp"
#include "tiling/diamond3d.hpp"
#include "tiling/parallelogram2d.hpp"
#include "tv/tv2d.hpp"
#include "tv/tv3d.hpp"

namespace {

using namespace tvs;
using GridD2 = grid::Grid2D<double>;
using GridI2 = grid::Grid2D<std::int32_t>;
using GridD3 = grid::Grid3D<double>;

template <class G>
void copy(const G& src, G& dst) {
  for (int x = 0; x <= src.nx() + 1; ++x)
    for (int y = 0; y <= src.ny() + 1; ++y) dst.at(x, y) = src.at(x, y);
}

// (nx, ny, steps, W, H, s)
using P2 = std::tuple<int, int, long, int, int, int>;
class Diamond2DSweep : public ::testing::TestWithParam<P2> {};

TEST_P(Diamond2DSweep, Jacobi5PMatchesOracle) {
  const auto [nx, ny, steps, w, h, s] = GetParam();
  const stencil::C2D5 c{0.31, 0.2, 0.17, 0.17, 0.15};
  std::mt19937_64 rng(1000u + static_cast<unsigned>(nx * 7 + ny));
  GridD2 init(nx, ny);
  init.fill_random(rng, -1.0, 1.0);
  GridD2 ref(nx, ny);
  copy(init, ref);
  stencil::jacobi2d5_run(c, ref, steps);
  for (const tiling::StageExec* exec : test::kStageExecs) {
    GridD2 got(nx, ny);
    copy(init, got);
    tiling::Diamond2DOptions opt;
    opt.width = w;
    opt.height = h;
    opt.stride = s;
    opt.exec = exec;
    tiling::diamond_jacobi2d5_run(c, got, steps, opt);
    EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
        << "nx=" << nx << " ny=" << ny << " t=" << steps << " W=" << w
        << " H=" << h << " s=" << s << " exec=" << test::exec_name(exec);
  }
}

TEST_P(Diamond2DSweep, Jacobi9PMatchesOracle) {
  const auto [nx, ny, steps, w, h, s] = GetParam();
  const stencil::C2D9 c{0.2, 0.14, 0.12, 0.1, 0.09, 0.08, 0.09, 0.09, 0.09};
  std::mt19937_64 rng(1100u + static_cast<unsigned>(nx * 11 + ny));
  GridD2 init(nx, ny);
  init.fill_random(rng, -1.0, 1.0);
  GridD2 ref(nx, ny);
  copy(init, ref);
  stencil::jacobi2d9_run(c, ref, steps);
  for (const tiling::StageExec* exec : test::kStageExecs) {
    GridD2 got(nx, ny);
    copy(init, got);
    tiling::Diamond2DOptions opt;
    opt.width = w;
    opt.height = h;
    opt.stride = s;
    opt.exec = exec;
    tiling::diamond_jacobi2d9_run(c, got, steps, opt);
    EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
        << "exec=" << test::exec_name(exec);
  }
}

TEST_P(Diamond2DSweep, GaussSeidel2DMatchesOracle) {
  const auto [nx, ny, steps, w, h, s] = GetParam();
  const stencil::C2D5 c{0.3, 0.2, 0.16, 0.19, 0.15};
  std::mt19937_64 rng(1200u + static_cast<unsigned>(nx * 13 + ny));
  GridD2 init(nx, ny);
  init.fill_random(rng, -1.0, 1.0);
  GridD2 ref(nx, ny);
  copy(init, ref);
  stencil::gs2d5_run(c, ref, steps);
  // Vector tiles, then the identical tiling with scalar tiles (the
  // bench/fig*_par comparators' baseline).
  for (const bool use_vector : {true, false})
    for (const tiling::StageExec* exec : test::kStageExecs) {
      GridD2 got(nx, ny);
      copy(init, got);
      tiling::ParallelogramNDOptions opt;
      opt.width = w;
      opt.height = h;
      opt.stride = s;
      opt.use_vector = use_vector;
      opt.exec = exec;
      tiling::parallelogram_gs2d5_run(c, got, steps, opt);
      EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
          << "nx=" << nx << " ny=" << ny << " t=" << steps << " W=" << w
          << " H=" << h << " s=" << s << " use_vector=" << use_vector
          << " exec=" << test::exec_name(exec);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Diamond2DSweep,
    ::testing::Values(P2{48, 20, 8, 24, 8, 2},    // narrow tiles
                      P2{100, 30, 16, 32, 8, 2},  // several tiles
                      P2{100, 30, 18, 32, 8, 2},  // off-grid steps
                      P2{100, 30, 3, 32, 8, 2},   // scalar residual only
                      P2{64, 17, 12, 4096, 64, 2},  // single huge tile
                      P2{130, 20, 24, 48, 12, 2}, P2{97, 13, 9, 40, 8, 2},
                      // shared-tile branches: all-scalar fallback (tiles
                      // too short for the steady loop), the read-cap clamp
                      // on tiles clipped at the right domain edge, the
                      // largest stride (32 for the diamonds; the
                      // parallelograms clamp it to 12), steps < vl and
                      // steps % vl != 0
                      P2{14, 9, 12, 8, 4, 3}, P2{131, 7, 16, 40, 8, 5},
                      P2{300, 6, 12, 64, 8, 32}, P2{90, 11, 2, 32, 8, 3},
                      P2{110, 10, 13, 36, 8, 3}),
    [](const auto& info) {
      return "nx" + std::to_string(std::get<0>(info.param)) + "_ny" +
             std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param)) + "_W" +
             std::to_string(std::get<3>(info.param)) + "_H" +
             std::to_string(std::get<4>(info.param)) + "_s" +
             std::to_string(std::get<5>(info.param));
    });

TEST(DiamondLife, MatchesOracleAcrossGeometries) {
  const stencil::LifeRule rule{};  // B2S23
  for (const auto& [nx, ny, steps, w, h] :
       {std::tuple{120, 24, 16, 48, 8}, std::tuple{200, 16, 24, 64, 16},
        std::tuple{90, 20, 9, 2048, 32}}) {
    std::mt19937_64 rng(2000u + static_cast<unsigned>(nx));
    GridI2 ref(nx, ny);
    std::uniform_int_distribution<std::int32_t> d(0, 1);
    for (int x = 0; x <= nx + 1; ++x)
      for (int y = 0; y <= ny + 1; ++y) ref.at(x, y) = d(rng);
    GridI2 init(nx, ny);
    copy(ref, init);
    stencil::life_run(rule, ref, steps);
    for (const tiling::StageExec* exec : test::kStageExecs) {
      GridI2 got(nx, ny);
      copy(init, got);
      tiling::Diamond2DOptions opt;
      opt.width = w;
      opt.height = h;
      opt.exec = exec;
      tiling::diamond_life_run(rule, got, steps, opt);
      ASSERT_EQ(grid::max_abs_diff(ref, got), 0.0)
          << "nx=" << nx << " steps=" << steps
          << " exec=" << test::exec_name(exec);
    }
  }
}

void copy3(const GridD3& src, GridD3& dst) {
  for (int x = 0; x <= src.nx() + 1; ++x)
    for (int y = 0; y <= src.ny() + 1; ++y)
      for (int z = 0; z <= src.nz() + 1; ++z) dst.at(x, y, z) = src.at(x, y, z);
}

// (nx, ny, nz, steps, W, H, s): the first rows are regular geometries; the
// rest hit the shared-tile branches — all-scalar fallback, the read-cap
// clamp on a tile clipped at the right domain edge, a large stride (the
// parallelograms clamp it to 12), steps < vl and steps % vl != 0.
constexpr std::tuple<int, int, int, long, int, int, int> kGeom3D[] = {
    {40, 10, 12, 8, 20, 4, 2},  {64, 12, 8, 12, 24, 8, 2},
    {30, 8, 8, 7, 1024, 8, 2},  {64, 12, 8, 13, 24, 8, 2},
    {30, 8, 8, 12, 1024, 8, 2}, {12, 5, 6, 8, 8, 4, 3},
    {53, 6, 7, 12, 20, 4, 3},   {120, 4, 5, 8, 48, 4, 16},
    {40, 6, 6, 3, 20, 4, 2},    {45, 6, 9, 13, 20, 8, 3}};

TEST(Diamond3D, JacobiMatchesOracleAcrossGeometries) {
  const stencil::C3D7 c{0.28, 0.13, 0.12, 0.12, 0.11, 0.13, 0.11};
  for (const auto& [nx, ny, nz, steps, w, h, s] : kGeom3D) {
    std::mt19937_64 rng(3000u + static_cast<unsigned>(nx));
    GridD3 init(nx, ny, nz);
    init.fill_random(rng, -1.0, 1.0);
    GridD3 ref(nx, ny, nz);
    copy3(init, ref);
    stencil::jacobi3d7_run(c, ref, steps);
    for (const bool use_vector : {true, false})
      for (const tiling::StageExec* exec : test::kStageExecs) {
        GridD3 got(nx, ny, nz);
        copy3(init, got);
        tiling::Diamond3DOptions opt;
        opt.width = w;
        opt.height = h;
        opt.stride = s;
        opt.use_vector = use_vector;
        opt.exec = exec;
        tiling::diamond_jacobi3d7_run(c, got, steps, opt);
        ASSERT_EQ(grid::max_abs_diff(ref, got), 0.0)
            << "nx=" << nx << " steps=" << steps << " s=" << s
            << " use_vector=" << use_vector
            << " exec=" << test::exec_name(exec);
      }
  }
}

TEST(ParaGs3D, MatchesOracleAcrossGeometries) {
  const stencil::C3D7 c{0.3, 0.12, 0.11, 0.12, 0.1, 0.13, 0.12};
  for (const auto& [nx, ny, nz, steps, w, h, s] : kGeom3D) {
    std::mt19937_64 rng(4000u + static_cast<unsigned>(nx));
    GridD3 init(nx, ny, nz);
    init.fill_random(rng, -1.0, 1.0);
    GridD3 ref(nx, ny, nz);
    copy3(init, ref);
    stencil::gs3d7_run(c, ref, steps);
    for (const bool use_vector : {true, false})
      for (const tiling::StageExec* exec : test::kStageExecs) {
        GridD3 got(nx, ny, nz);
        copy3(init, got);
        tiling::ParallelogramNDOptions opt;
        opt.width = w;
        opt.height = h;
        opt.stride = s;
        opt.use_vector = use_vector;
        opt.exec = exec;
        tiling::parallelogram_gs3d7_run(c, got, steps, opt);
        ASSERT_EQ(grid::max_abs_diff(ref, got), 0.0)
            << "nx=" << nx << " steps=" << steps << " s=" << s
            << " use_vector=" << use_vector
            << " exec=" << test::exec_name(exec);
      }
  }
}

TEST(Parallel2D, ManyThreadsDeterministicAndExact) {
  const stencil::C2D5 c = stencil::heat2d(0.2);
  const int nx = 400, ny = 64;
  std::mt19937_64 rng(5000);
  GridD2 ref(nx, ny);
  ref.fill_random(rng, -1.0, 1.0);
  GridD2 got(nx, ny);
  copy(ref, got);
  stencil::jacobi2d5_run(c, ref, 32);
  tiling::Diamond2DOptions opt;
  opt.width = 64;
  opt.height = 16;
  const int saved = omp_get_max_threads();
  omp_set_num_threads(12);
  tiling::diamond_jacobi2d5_run(c, got, 32, opt);
  omp_set_num_threads(saved);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0);
}

// ---- single precision (f32_diamond.hpp) ------------------------------------

TEST(DiamondF32, Jacobi2D5MatchesSerialEngineAndFloatOracle) {
  const stencil::C2D5f c{0.31f, 0.2f, 0.17f, 0.17f, 0.15f};
  using G = grid::Grid2D<float>;
  test::expect_f32_diamond<dispatch::DiamondJacobi2D5F32Fn>(
      dispatch::kDiamondJacobi2D5, c, tiling::Diamond2DOptions{48, 16, 2},
      test::float_grid<G>(6000u, 130, 21),
      [&](G& u, long t) { stencil::jacobi2d5_run(c, u, t); },
      [&](G& u, long t) { tv::tv_jacobi2d5_run(c, u, t, 2); });
}

TEST(DiamondF32, Jacobi2D9MatchesSerialEngineAndFloatOracle) {
  const stencil::C2D9f c{0.2f,  0.14f, 0.12f, 0.1f, 0.09f,
                         0.08f, 0.09f, 0.09f, 0.09f};
  using G = grid::Grid2D<float>;
  test::expect_f32_diamond<dispatch::DiamondJacobi2D9F32Fn>(
      dispatch::kDiamondJacobi2D9, c, tiling::Diamond2DOptions{48, 16, 3},
      test::float_grid<G>(6100u, 130, 21),
      [&](G& u, long t) { stencil::jacobi2d9_run(c, u, t); },
      [&](G& u, long t) { tv::tv_jacobi2d9_run(c, u, t, 3); });
}

TEST(DiamondF32, Jacobi3D7MatchesSerialEngineAndFloatOracle) {
  const stencil::C3D7f c{0.28f, 0.13f, 0.12f, 0.12f, 0.11f, 0.13f, 0.11f};
  using G = grid::Grid3D<float>;
  test::expect_f32_diamond<dispatch::DiamondJacobi3D7F32Fn>(
      dispatch::kDiamondJacobi3D7, c, tiling::Diamond3DOptions{20, 8, 2},
      test::float_grid<G>(6200u, 90, 6, 9),
      [&](G& u, long t) { stencil::jacobi3d7_run(c, u, t); },
      [&](G& u, long t) { tv::tv_jacobi3d7_run(c, u, t, 2); });
}

}  // namespace
