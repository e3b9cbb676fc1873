// Width-property suite: lane-genericity is a CONTRACT, not an accident.
//
// Every temporal engine is instantiated at explicit ScalarVec widths —
// ScalarVec<double, 4> and ScalarVec<double, 8> for the double kernels,
// ScalarVec<int32, 8> and ScalarVec<int32, 16> for Life/LCS — and checked
// lane for lane (bit-exact) against the scalar reference oracles.  A
// literal 4 or 8 reintroduced into ring, prologue/epilogue or grouping
// logic shows up here as a mismatch at the other width, on any host: the
// ScalarVec instantiations exercise the full vl-dependent tile geometry
// without needing AVX-512 hardware.
//
// Sizes are chosen so the vector pipeline engages at the widest tested
// width (nx >= vl*s) AND so short-grid scalar fallbacks are covered.  The
// Jacobi and Gauss-Seidel cases also run every step count in 1 .. 2vl+1:
// residual-only, exact-tile and tile-plus-residual runs of the one tile.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "simd/vec.hpp"
#include "stencil/lcs_ref.hpp"
#include "stencil/life_ref.hpp"
#include "stencil/reference1d.hpp"
#include "stencil/reference2d.hpp"
#include "stencil/reference3d.hpp"
#include "tv/functors1d.hpp"
#include "tv/functors2d.hpp"
#include "tv/functors3d.hpp"
#include "tv/tv1d_impl.hpp"
#include "tv/tv_lcs_impl.hpp"
#include "tv/tv_plane_impl.hpp"

namespace {

using namespace tvs;

template <int N>
using SD = simd::ScalarVec<double, N>;
template <int N>
using SI = simd::ScalarVec<std::int32_t, N>;

// Runs check(steps) for steps = 1 .. 2vl+1, then for the case's own count.
template <class V, class Check>
void each_steps(long own, const Check& check) {
  for (long t = 1; t <= 2L * V::lanes + 1; ++t) check(t);
  check(own);
}

grid::Grid1D<double> random1d(int nx, unsigned seed) {
  std::mt19937_64 rng(seed);
  grid::Grid1D<double> g(nx);
  g.fill_random(rng, -1.0, 1.0);
  return g;
}

grid::Grid2D<double> random2d(int nx, int ny, unsigned seed) {
  std::mt19937_64 rng(seed);
  grid::Grid2D<double> g(nx, ny);
  g.fill_random(rng, -1.0, 1.0);
  return g;
}

grid::Grid3D<double> random3d(int nx, int ny, int nz, unsigned seed) {
  std::mt19937_64 rng(seed);
  grid::Grid3D<double> g(nx, ny, nz);
  g.fill_random(rng, -1.0, 1.0);
  return g;
}

// ---- 1D Jacobi --------------------------------------------------------------

template <class V>
void check_tv1d(int nx, long steps, int s, unsigned seed) {
  const stencil::C1D3 c3 = stencil::heat1d(0.25);
  auto ref = random1d(nx, seed);
  auto got = random1d(nx, seed);
  stencil::jacobi1d3_run(c3, ref, steps);
  tv::tv1d_run<V>(tv::J1D3F<V>(c3), got, steps, s);
  ASSERT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "vl=" << V::lanes << " nx=" << nx << " steps=" << steps << " s=" << s;
  auto re = random1d(nx, seed);
  tv::tv1d_run<V, /*Re=*/true>(tv::J1D3F<V>(c3), re, steps, s);
  ASSERT_EQ(grid::max_abs_diff(ref, re), 0.0)
      << "re vl=" << V::lanes << " nx=" << nx << " steps=" << steps
      << " s=" << s;

  const stencil::C1D5 c5{0.05, 0.2, 0.5, 0.15, 0.1};
  auto ref5 = random1d(nx + 11, seed + 1);
  auto got5 = random1d(nx + 11, seed + 1);
  stencil::jacobi1d5_run(c5, ref5, steps);
  tv::tv1d_run<V>(tv::J1D5F<V>(c5), got5, steps, s >= 3 ? s : 3);
  ASSERT_EQ(grid::max_abs_diff(ref5, got5), 0.0) << "vl=" << V::lanes;
  auto re5 = random1d(nx + 11, seed + 1);
  tv::tv1d_run<V, /*Re=*/true>(tv::J1D5F<V>(c5), re5, steps, s >= 3 ? s : 3);
  ASSERT_EQ(grid::max_abs_diff(ref5, re5), 0.0) << "re vl=" << V::lanes;
}

TEST(WidthProperty, TvJacobi1D) {
  for (const auto& [nx, steps, s] :
       {std::tuple{200, 9, 7}, std::tuple{200, 16, 3}, std::tuple{45, 9, 2},
        std::tuple{13, 6, 3}}) {
    const unsigned seed = 101u + static_cast<unsigned>(nx);
    each_steps<SD<4>>(steps,
                      [&](long t) { check_tv1d<SD<4>>(nx, t, s, seed); });
    each_steps<SD<8>>(steps,
                      [&](long t) { check_tv1d<SD<8>>(nx, t, s, seed); });
  }
}

// ---- 1D Gauss-Seidel --------------------------------------------------------

template <class V>
void check_gs1d(int nx, long sweeps, int s, unsigned seed) {
  const stencil::C1D3 c = stencil::heat1d(0.25);
  auto ref = random1d(nx, seed);
  auto got = random1d(nx, seed);
  stencil::gs1d3_run(c, ref, sweeps);
  tv::tv1d_run<V>(tv::Gs1D3F<V>(c), got, sweeps, s);
  ASSERT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "vl=" << V::lanes << " nx=" << nx << " sweeps=" << sweeps
      << " s=" << s;
}

TEST(WidthProperty, TvGs1D) {
  for (const auto& [nx, sweeps, s] :
       {std::tuple{150, 10, 3}, std::tuple{150, 13, 2}, std::tuple{40, 8, 2},
        std::tuple{9, 5, 2}}) {
    const unsigned seed = 201u + static_cast<unsigned>(nx);
    each_steps<SD<4>>(sweeps,
                      [&](long t) { check_gs1d<SD<4>>(nx, t, s, seed); });
    each_steps<SD<8>>(sweeps,
                      [&](long t) { check_gs1d<SD<8>>(nx, t, s, seed); });
  }
}

// ---- 2D Jacobi --------------------------------------------------------------

template <class V>
void check_tv2d(int nx, int ny, long steps, int s, unsigned seed) {
  const stencil::C2D5 c5{0.3, 0.2, 0.18, 0.17, 0.15};
  auto ref = random2d(nx, ny, seed);
  auto got = random2d(nx, ny, seed);
  stencil::jacobi2d5_run(c5, ref, steps);
  tv::tv_plane_run<V>(tv::J2D5F<V>(c5), got, steps, s);
  ASSERT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "vl=" << V::lanes << " nx=" << nx;
  auto re = random2d(nx, ny, seed);
  tv::tv_plane_run<V, /*Re=*/true>(tv::J2D5F<V>(c5), re, steps, s);
  ASSERT_EQ(grid::max_abs_diff(ref, re), 0.0)
      << "re vl=" << V::lanes << " nx=" << nx;

  const stencil::C2D9 c9{0.2, 0.14, 0.12, 0.1, 0.09, 0.08, 0.09, 0.09, 0.09};
  auto ref9 = random2d(nx, ny, seed + 1);
  auto got9 = random2d(nx, ny, seed + 1);
  stencil::jacobi2d9_run(c9, ref9, steps);
  tv::tv_plane_run<V>(tv::J2D9F<V>(c9), got9, steps, s);
  ASSERT_EQ(grid::max_abs_diff(ref9, got9), 0.0)
      << "vl=" << V::lanes << " nx=" << nx;
  auto re9 = random2d(nx, ny, seed + 1);
  tv::tv_plane_run<V, /*Re=*/true>(tv::J2D9F<V>(c9), re9, steps, s);
  ASSERT_EQ(grid::max_abs_diff(ref9, re9), 0.0)
      << "re vl=" << V::lanes << " nx=" << nx;
}

TEST(WidthProperty, TvJacobi2D) {
  for (const auto& [nx, ny, steps, s] :
       {std::tuple{40, 18, 9, 2}, std::tuple{48, 10, 17, 2},
        std::tuple{50, 9, 8, 3}, std::tuple{15, 9, 9, 2}}) {
    const unsigned seed = 301u + static_cast<unsigned>(nx);
    each_steps<SD<4>>(steps,
                      [&](long t) { check_tv2d<SD<4>>(nx, ny, t, s, seed); });
    each_steps<SD<8>>(steps,
                      [&](long t) { check_tv2d<SD<8>>(nx, ny, t, s, seed); });
  }
}

// ---- 3D Jacobi --------------------------------------------------------------

template <class V>
void check_tv3d(int nx, int ny, int nz, long steps, int s, unsigned seed) {
  const stencil::C3D7 c{0.28, 0.13, 0.12, 0.12, 0.11, 0.13, 0.11};
  auto ref = random3d(nx, ny, nz, seed);
  auto got = random3d(nx, ny, nz, seed);
  stencil::jacobi3d7_run(c, ref, steps);
  tv::tv_plane_run<V>(tv::J3D7F<V>(c), got, steps, s);
  ASSERT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "vl=" << V::lanes << " nx=" << nx;
  auto re = random3d(nx, ny, nz, seed);
  tv::tv_plane_run<V, /*Re=*/true>(tv::J3D7F<V>(c), re, steps, s);
  ASSERT_EQ(grid::max_abs_diff(ref, re), 0.0)
      << "re vl=" << V::lanes << " nx=" << nx;
}

TEST(WidthProperty, TvJacobi3D) {
  for (const auto& [nx, ny, nz, steps] :
       {std::tuple{36, 8, 8, 9}, std::tuple{40, 6, 10, 17},
        std::tuple{14, 6, 6, 9}}) {
    const unsigned seed = 401u + static_cast<unsigned>(nx);
    each_steps<SD<4>>(
        steps, [&](long t) { check_tv3d<SD<4>>(nx, ny, nz, t, 2, seed); });
    each_steps<SD<8>>(
        steps, [&](long t) { check_tv3d<SD<8>>(nx, ny, nz, t, 2, seed); });
  }
}

// ---- 2D / 3D Gauss-Seidel ---------------------------------------------------

template <class V>
void check_gs2d(int nx, int ny, long sweeps, int s, unsigned seed) {
  const stencil::C2D5 c{0.3, 0.2, 0.18, 0.17, 0.15};
  auto ref = random2d(nx, ny, seed);
  auto got = random2d(nx, ny, seed);
  stencil::gs2d5_run(c, ref, sweeps);
  tv::tv_plane_run<V>(tv::Gs2D5F<V>(c), got, sweeps, s);
  ASSERT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "vl=" << V::lanes << " nx=" << nx;
}

TEST(WidthProperty, TvGs2D) {
  for (const auto& [nx, ny, sweeps, s] :
       {std::tuple{40, 12, 6, 2}, std::tuple{52, 9, 10, 3},
        std::tuple{14, 8, 5, 2}}) {
    const unsigned seed = 501u + static_cast<unsigned>(nx);
    each_steps<SD<4>>(sweeps,
                      [&](long t) { check_gs2d<SD<4>>(nx, ny, t, s, seed); });
    each_steps<SD<8>>(sweeps,
                      [&](long t) { check_gs2d<SD<8>>(nx, ny, t, s, seed); });
  }
}

template <class V>
void check_gs3d(int nx, int ny, int nz, long sweeps, int s, unsigned seed) {
  const stencil::C3D7 c{0.28, 0.13, 0.12, 0.12, 0.11, 0.13, 0.11};
  auto ref = random3d(nx, ny, nz, seed);
  auto got = random3d(nx, ny, nz, seed);
  stencil::gs3d7_run(c, ref, sweeps);
  tv::tv_plane_run<V>(tv::Gs3D7F<V>(c), got, sweeps, s);
  ASSERT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "vl=" << V::lanes << " nx=" << nx;
}

TEST(WidthProperty, TvGs3D) {
  for (const auto& [nx, ny, nz, sweeps] :
       {std::tuple{36, 8, 8, 5}, std::tuple{40, 6, 6, 9},
        std::tuple{12, 6, 6, 5}}) {
    const unsigned seed = 601u + static_cast<unsigned>(nx);
    each_steps<SD<4>>(
        sweeps, [&](long t) { check_gs3d<SD<4>>(nx, ny, nz, t, 2, seed); });
    each_steps<SD<8>>(
        sweeps, [&](long t) { check_gs3d<SD<8>>(nx, ny, nz, t, 2, seed); });
  }
}

// ---- Game of Life (int32 lanes: 8 and 16) -----------------------------------

template <class V>
void check_life(int nx, int ny, long steps, int s, unsigned seed) {
  const stencil::LifeRule rule{};
  std::mt19937_64 rng(seed);
  grid::Grid2D<std::int32_t> ref(nx, ny);
  ref.fill_random(rng, 0, 1);
  grid::Grid2D<std::int32_t> got(nx, ny);
  for (int x = 0; x <= nx + 1; ++x)
    for (int y = 0; y <= ny + 1; ++y) got.at(x, y) = ref.at(x, y);
  stencil::life_run(rule, ref, steps);
  tv::tv_plane_run<V>(tv::LifeF<V>(rule), got, steps, s);
  ASSERT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "vl=" << V::lanes << " nx=" << nx;
}

TEST(WidthProperty, TvLife) {
  for (const auto& [nx, ny, steps, s] :
       {std::tuple{40, 20, 16, 2}, std::tuple{50, 9, 18, 3},
        std::tuple{20, 8, 9, 2}}) {
    check_life<SI<8>>(nx, ny, steps, s, 701u + static_cast<unsigned>(nx));
    check_life<SI<16>>(nx, ny, steps, s, 701u + static_cast<unsigned>(nx));
  }
}

// ---- LCS (int32 lanes: 8 and 16) --------------------------------------------

template <class V>
void check_lcs(int na, int nb, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int32_t> d(0, 3);
  std::vector<std::int32_t> a(static_cast<std::size_t>(na)),
      b(static_cast<std::size_t>(nb));
  for (auto& v : a) v = d(rng);
  for (auto& v : b) v = d(rng);
  const auto expect = stencil::lcs_ref_row(a, b);
  std::vector<std::int32_t> row(b.size() + 1 + tv::kLcsRowPad, 0);
  tv::tv_lcs_rows_impl<V>(a, b, row.data());
  for (std::size_t i = 0; i < expect.size(); ++i)
    ASSERT_EQ(row[i], expect[i]) << "vl=" << V::lanes << " i=" << i;
}

TEST(WidthProperty, TvLcs) {
  for (const auto& [na, nb] : {std::pair{150, 130}, std::pair{64, 33},
                               std::pair{23, 17}, std::pair{40, 9}}) {
    check_lcs<SI<8>>(na, nb, 801u + static_cast<unsigned>(na));
    check_lcs<SI<16>>(na, nb, 801u + static_cast<unsigned>(na));
  }
}

}  // namespace
