// The Gauss-Seidel engines' halving cascade, through the registry.
//
// A flat Gauss-Seidel engine runs floor(sweeps / vl) tiles at its width and
// hands the residual sweeps — all of them when the grid is too short for
// the width's pipeline — to the same engine at half the width, down to 2
// lanes on planes (tv_plane_run) and 4 on lines (tv1d_run).  For every registered width of tv_gs1d3,
// tv_gs2d5 and tv_gs3d7 that the selected backend resolves, in f64 and
// f32, sweeps 1 .. 2·vl+1 must equal the plain in-place scalar sweep
// (tv::detail::scalar_steps) exactly: every width evaluates the canonical
// functor in the same order, so f32 is exact too.  Each width runs on a
// grid long enough for its pipeline and on one too short for it but long
// enough for vl/2.
#include <gtest/gtest.h>

#include <random>
#include <string_view>
#include <type_traits>

#include "kernel.hpp"
#include "simd/vec.hpp"
#include "tv/functors1d.hpp"
#include "tv/functors2d.hpp"
#include "tv/functors3d.hpp"
#include "tv/tv1d_impl.hpp"
#include "tv/tv_plane_impl.hpp"

namespace {

using namespace tvs;
using dispatch::DType;

template <int VL>
bool pipeline_fits(int nx, int s) {
  return tv::TileRows<VL>::full(nx, 1).vector_ok(s);
}

bool pipeline_fits(int vl, int nx, int s) {
  switch (vl) {
    case 2: return pipeline_fits<2>(nx, s);
    case 4: return pipeline_fits<4>(nx, s);
    case 8: return pipeline_fits<8>(nx, s);
    case 16: return pipeline_fits<16>(nx, s);
    default: ADD_FAILURE() << "unexpected width " << vl; return false;
  }
}

// The smallest nx whose flat rows run the vl-lane pipeline at stride s.
int pipeline_nx(int vl, int s) { return (vl - 1) * s + vl + 1; }

// For each registered width of `id` at dtype T: make(nx) builds a freshly
// filled grid (identically on every call), oracle(g, sweeps) advances it by
// the scalar sweep and run(engine, g, sweeps, s) by the registry engine.
template <class Fn, class T, class Make, class Oracle, class Run>
void check_cascade(std::string_view id, Make make, Oracle oracle, Run run) {
  const DType dt = std::is_same_v<T, float> ? DType::kF32 : DType::kF64;
  const auto widths = dispatch::KernelRegistry::instance().registered_widths(
      id, dispatch::selected_backend(), dt);
  ASSERT_FALSE(widths.empty()) << id;
  for (const int vl : widths) {
    Fn* const engine = test::resolve<Fn>(id, dt, vl);
    ASSERT_NE(engine, nullptr) << id << " vl=" << vl;
    for (const int s : {2, 3}) {
      const int fits = pipeline_nx(vl, s) + 5, half = pipeline_nx(vl / 2, s);
      ASSERT_TRUE(pipeline_fits(vl, fits, s));
      ASSERT_FALSE(pipeline_fits(vl, half, s));
      ASSERT_TRUE(pipeline_fits(vl / 2, half, s));
      for (const int nx : {fits, half})
        for (long sweeps = 1; sweeps <= 2L * vl + 1; ++sweeps) {
          auto want = make(nx), got = make(nx);
          oracle(want, sweeps);
          run(engine, got, sweeps, s);
          ASSERT_EQ(grid::max_abs_diff(want, got), 0.0)
              << id << " dtype=" << (dt == DType::kF32 ? "f32" : "f64")
              << " vl=" << vl << " nx=" << nx << " s=" << s
              << " sweeps=" << sweeps;
        }
    }
  }
}

template <class G, class... Extents>
G random_grid(unsigned seed, Extents... n) {
  std::mt19937_64 rng(seed);
  G g(n...);
  g.fill_random(rng, -1, 1);
  return g;
}

template <class T, class Fn>
void check_gs1d3() {
  using S = simd::ScalarVec<T, 2>;
  const auto c = stencil::heat1d<T>(0.3);
  check_cascade<Fn, T>(
      dispatch::kTvGs1D3,
      [](int nx) { return random_grid<grid::Grid1D<T>>(11u, nx); },
      [&](grid::Grid1D<T>& g, long sweeps) {
        tv::Workspace1D<T> ws;
        tv::detail::scalar_steps(tv::Gs1D3F<S>(c), g.p(), g.nx(), sweeps, ws);
      },
      [&](Fn* engine, grid::Grid1D<T>& g, long sweeps, int s) {
        engine(c, g, sweeps, s);
      });
}

template <class T, class Fn>
void check_gs2d5() {
  using S = simd::ScalarVec<T, 2>;
  const auto c = stencil::heat2d<T>(0.2);
  check_cascade<Fn, T>(
      dispatch::kTvGs2D5,
      [](int nx) { return random_grid<grid::Grid2D<T>>(22u, nx, 13); },
      [&](grid::Grid2D<T>& g, long sweeps) {
        tv::detail::scalar_steps(tv::Gs2D5F<S>(c), g, sweeps);
      },
      [&](Fn* engine, grid::Grid2D<T>& g, long sweeps, int s) {
        engine(c, g, sweeps, s);
      });
}

template <class T, class Fn>
void check_gs3d7() {
  using S = simd::ScalarVec<T, 2>;
  const auto c = stencil::heat3d<T>(0.15);
  check_cascade<Fn, T>(
      dispatch::kTvGs3D7,
      [](int nx) { return random_grid<grid::Grid3D<T>>(33u, nx, 3, 6); },
      [&](grid::Grid3D<T>& g, long sweeps) {
        tv::detail::scalar_steps(tv::Gs3D7F<S>(c), g, sweeps);
      },
      [&](Fn* engine, grid::Grid3D<T>& g, long sweeps, int s) {
        engine(c, g, sweeps, s);
      });
}

TEST(GsCascade, Gs1D3F64) { check_gs1d3<double, dispatch::TvGs1D3Fn>(); }
TEST(GsCascade, Gs1D3F32) { check_gs1d3<float, dispatch::TvGs1D3F32Fn>(); }
TEST(GsCascade, Gs2D5F64) { check_gs2d5<double, dispatch::TvGs2D5Fn>(); }
TEST(GsCascade, Gs2D5F32) { check_gs2d5<float, dispatch::TvGs2D5F32Fn>(); }
TEST(GsCascade, Gs3D7F64) { check_gs3d7<double, dispatch::TvGs3D7Fn>(); }
TEST(GsCascade, Gs3D7F32) { check_gs3d7<float, dispatch::TvGs3D7F32Fn>(); }

}  // namespace
