// Parallelogram + wavefront tiling for the 2D and 3D Gauss-Seidel stencils
// (Figures 5d/5f; Table 1: GS-2D 128^2 x 32, GS-3D 32^3 x 32), one body
// for gs2d5 and gs3d7.  The tiling acts on (t, x-rows, z-columns): level l
// of a tile covers rows [xl0-(l-1), xr0-(l-1)] x every y line x columns
// [zl0-(l-1), zr0-(l-1)] of the unit-stride axis z (a Grid2D's y, a
// Grid3D's z), or whole lines when the inner extent fits one block (the
// tile width).  The anti-diagonal wavefront schedule w = 3*bt + bx + bz
// (tiling/schedule.hpp; 2*bt + bx without a z cut, as in 1D) runs the
// tiles of one band in parallel.  Each tile is the flat engine's plane
// tile (tv/tv_plane_impl.hpp) with the Gauss-Seidel functor on the
// parallelogram's rows and columns, with every level read from and written
// to the single array — the slope -1 interface ladder on both axes
// guarantees each slot holds exactly the level its reader needs (see
// parallelogram.cpp for the 1D argument, which lifts to each axis
// verbatim).  Only the ring state is per runner.  The drivers are registry
// ids parallelogram_gs2d5 and parallelogram_gs3d7 (dispatch/kernels.hpp),
// in place on the grid.
#include "dispatch/backend_variant.hpp"

#include <vector>

#include "tiling/schedule.hpp"
#include "tv/functors2d.hpp"
#include "tv/functors3d.hpp"
#include "tv/tv_plane_impl.hpp"

namespace tvs::tiling {
namespace {

using V = simd::NativeVec<double, 4>;
constexpr int VL = V::lanes;

// Level storage of a parallelogram tile: every level is the array itself.
template <class G>
struct ArrayLevels {
  G* g;
  tv::LevelSlab<double> lo(int /*l*/, int r) const {
    return tv::LevelSlab<double>::of(*g, r);
  }
  tv::LevelSlab<double> hi(int /*l*/, int r) const { return lo(0, r); }
};

// The wavefront of parallelogram tiles on u for the Gauss-Seidel plane
// functor f.
template <class F, class G>
void gs_tiled(const F& f, G& u, long sweeps,
              const TileOptions& opt) {
  std::vector<tv::SlabRing<V>> tls(stage_slots(opt.exec));
  const ArrayLevels<G> lev{&u};
  wavefront_schedule<VL>(
      opt, u.nx(), tv::plane_shape(u).n, sweeps,
      // tvsrace: partitioned(rows)
      [&](int slot, int s, const tv::TileRows<VL>& rows,
          const tv::TileCols<VL>& cols) {
        tv::tv_plane_tile<V, false, true>(
            f, u, lev, tls[static_cast<std::size_t>(slot)], rows, cols, s,
            !opt.use_vector);
      },
      [&] { tv::detail::scalar_steps(f, u, 1); });
}

void gs2d5_tiled(const stencil::C2D5& c, grid::Grid2D<double>& u,
                 long sweeps, const TileOptions& opt) {
  gs_tiled(tv::Gs2D5F<V>(c), u, sweeps, opt);
}

void gs3d7_tiled(const stencil::C3D7& c, grid::Grid3D<double>& u,
                 long sweeps, const TileOptions& opt) {
  gs_tiled(tv::Gs3D7F<V>(c), u, sweeps, opt);
}

}  // namespace

TVS_BACKEND_REGISTRAR(parallelogram2d) {
  TVS_REGISTER(kParallelogramGs2D5, ParallelogramGs2D5Fn, gs2d5_tiled);
  TVS_REGISTER(kParallelogramGs3D7, ParallelogramGs3D7Fn, gs3d7_tiled);
}

}  // namespace tvs::tiling
