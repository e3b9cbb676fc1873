// Reorganization count: the temporal scheme's shuffle cost per vector does
// not depend on the stencil family.  Gauss-Seidel runs the same steady
// loop as Jacobi — one shift-in and one bottom dispense per output vector,
// one top-assembly tree per vl outputs — only its west operands come from
// output registers instead of the ring (§3.4), so on the same grid, steps
// and stride each Gauss-Seidel engine books exactly the shuffles of its
// Jacobi counterpart.  A Gauss-Seidel residual shorter than vl goes to the
// same engine at half the width (the halving cascade, down to 2 lanes on
// planes and 4 on lines), so it books the shuffles of the narrower tile
// instead of none.
//
// TVS_REORG_COUNT (simd/reorg.hpp) instruments this TU's local ScalarVec
// instantiations only, as in bench/ablation_redundancy.cpp; the registry
// engines in the backend libraries stay uncounted.
#define TVS_REORG_COUNT 1

#include <gtest/gtest.h>

#include <cstdint>

#include "simd/reorg.hpp"
#include "simd/vec.hpp"
#include "tv/functors1d.hpp"
#include "tv/functors2d.hpp"
#include "tv/functors3d.hpp"
#include "tv/tv1d_impl.hpp"
#include "tv/tv_plane_impl.hpp"

namespace {

using namespace tvs;

template <class Run>
std::uint64_t shuffles(Run&& run) {
  simd::reorg_shuffle_count() = 0;
  run();
  return simd::reorg_shuffle_count();
}

// Steps are whole tiles (no scalar residual) and the strides avoid the
// unrolled Jacobi s = 7 path, so both families walk the same steady loop.
template <int VL>
void check_family_independent() {
  using V = simd::ScalarVec<double, VL>;
  const long steps = 2L * VL;
  {
    const stencil::C1D3 c = stencil::heat1d(0.25);
    grid::Grid1D<double> a(4096), b(4096);
    const auto j =
        shuffles([&] { tv::tv1d_run<V>(tv::J1D3F<V>(c), a, steps, 5); });
    const auto gs =
        shuffles([&] { tv::tv1d_run<V>(tv::Gs1D3F<V>(c), b, steps, 5); });
    EXPECT_GT(j, 0u);
    EXPECT_EQ(gs, j) << "gs1d3 vs jacobi1d3, vl=" << VL;
  }
  {
    const stencil::C2D5 c = stencil::heat2d(0.2);
    grid::Grid2D<double> a(96, 64), b(96, 64);
    const auto j =
        shuffles([&] { tv::tv_plane_run<V>(tv::J2D5F<V>(c), a, steps, 2); });
    const auto gs =
        shuffles([&] { tv::tv_plane_run<V>(tv::Gs2D5F<V>(c), b, steps, 2); });
    EXPECT_GT(j, 0u);
    EXPECT_EQ(gs, j) << "gs2d5 vs jacobi2d5, vl=" << VL;
  }
  {
    const stencil::C3D7 c = stencil::heat3d(0.15);
    grid::Grid3D<double> a(48, 12, 20), b(48, 12, 20);
    const auto j =
        shuffles([&] { tv::tv_plane_run<V>(tv::J3D7F<V>(c), a, steps, 2); });
    const auto gs =
        shuffles([&] { tv::tv_plane_run<V>(tv::Gs3D7F<V>(c), b, steps, 2); });
    EXPECT_GT(j, 0u);
    EXPECT_EQ(gs, j) << "gs3d7 vs jacobi3d7, vl=" << VL;
  }
}

TEST(ReorgCount, GaussSeidelBooksTheJacobiShufflesAtVl4) {
  check_family_independent<4>();
}

TEST(ReorgCount, GaussSeidelBooksTheJacobiShufflesAtVl8) {
  check_family_independent<8>();
}

// steps = vl/2: no vl-lane tile, one vl/2-lane tile.  The run books the
// shuffles of a direct vl/2-lane run — non-zero, where a scalar residual
// books none — except on a line at vl 4, whose cascade stops at 4 lanes:
// there the 2 sweeps stay scalar.
template <int VL>
void check_residual_vectorized() {
  using V = simd::ScalarVec<double, VL>;
  using H = simd::ScalarVec<double, VL / 2>;
  const long steps = VL / 2;
  {
    const stencil::C1D3 c = stencil::heat1d(0.25);
    grid::Grid1D<double> a(4096), b(4096);
    const auto gs =
        shuffles([&] { tv::tv1d_run<V>(tv::Gs1D3F<V>(c), a, steps, 5); });
    const auto half =
        shuffles([&] { tv::tv1d_run<H>(tv::Gs1D3F<H>(c), b, steps, 5); });
    if constexpr (VL / 2 >= 4) {
      EXPECT_GT(gs, 0u) << "gs1d3, vl=" << VL;
      EXPECT_EQ(gs, half) << "gs1d3, vl=" << VL;
    } else {
      EXPECT_EQ(gs, 0u) << "gs1d3, vl=" << VL;
    }
  }
  {
    const stencil::C2D5 c = stencil::heat2d(0.2);
    grid::Grid2D<double> a(96, 64), b(96, 64);
    const auto gs =
        shuffles([&] { tv::tv_plane_run<V>(tv::Gs2D5F<V>(c), a, steps, 2); });
    const auto half =
        shuffles([&] { tv::tv_plane_run<H>(tv::Gs2D5F<H>(c), b, steps, 2); });
    EXPECT_GT(gs, 0u) << "gs2d5, vl=" << VL;
    EXPECT_EQ(gs, half) << "gs2d5, vl=" << VL;
  }
  {
    const stencil::C3D7 c = stencil::heat3d(0.15);
    grid::Grid3D<double> a(48, 12, 20), b(48, 12, 20);
    const auto gs =
        shuffles([&] { tv::tv_plane_run<V>(tv::Gs3D7F<V>(c), a, steps, 2); });
    const auto half =
        shuffles([&] { tv::tv_plane_run<H>(tv::Gs3D7F<H>(c), b, steps, 2); });
    EXPECT_GT(gs, 0u) << "gs3d7, vl=" << VL;
    EXPECT_EQ(gs, half) << "gs3d7, vl=" << VL;
  }
}

TEST(ReorgCount, GaussSeidelResidualRunsAtHalfWidthAtVl4) {
  check_residual_vectorized<4>();
}

TEST(ReorgCount, GaussSeidelResidualRunsAtHalfWidthAtVl8) {
  check_residual_vectorized<8>();
}

}  // namespace
