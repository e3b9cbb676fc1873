// Parallelogram tiles for GS-2D/3D: the flat Gauss-Seidel engines' tiles
// (tv/tv_gs2d_impl.hpp / tv/tv_gs3d_impl.hpp) on a row-parallelogram, with
// every level read from and written to the single array — the slope -1
// interface ladder guarantees each slot holds exactly the level its reader
// needs (see parallelogram.hpp for the 1D argument, which lifts row-wise /
// plane-wise verbatim).  Only the ring state is per runner.
#include "dispatch/backend_variant.hpp"
#include "tiling/parallelogram2d.hpp"

#include <vector>

#include "tiling/schedule.hpp"
#include "tv/tv_gs2d_impl.hpp"
#include "tv/tv_gs3d_impl.hpp"

namespace tvs::tiling {
namespace {

using V = simd::NativeVec<double, 4>;
constexpr int VL = V::lanes;

// Level storage of a parallelogram tile: every level is the array itself.
struct ArrayLevels2D {
  grid::Grid2D<double>* g;
  double* lo(int /*l*/, int r) const { return g->row(r); }
  double* hi(int /*l*/, int r) const { return g->row(r); }
};
struct ArrayLevels3D {
  grid::Grid3D<double>* g;
  tv::LevelSlab<double> lo(int /*l*/, int r) const {
    return tv::LevelSlab<double>::of(*g, r);
  }
  tv::LevelSlab<double> hi(int /*l*/, int r) const { return lo(0, r); }
};

void gs2d5_tiled(const stencil::C2D5& c, grid::Grid2D<double>& u,
                 long sweeps, const ParallelogramNDOptions& opt) {
  std::vector<tv::GsRing<V>> tls(stage_slots(opt.exec));
  const ArrayLevels2D lev{&u};
  wavefront_schedule<VL>(
      opt, u.nx(), sweeps,
      // tvsrace: partitioned(rows)
      [&](int slot, int s, const tv::TileRows<VL>& rows) {
        tv::GsRing<V>& rs = tls[static_cast<std::size_t>(slot)];
        rs.prepare(s, 1, u.ny());
        tv::tv_gs2d_tile<V>(c, u, lev, rs, rows, s, !opt.use_vector);
      },
      [&] {
        for (int r = 1; r <= u.nx(); ++r)
          tv::detailgs2d::gs_row(c, u.row(r), u.row(r), u.row(r + 1),
                                 u.row(r - 1), u.ny());
      });
}

void gs3d7_tiled(const stencil::C3D7& c, grid::Grid3D<double>& u,
                 long sweeps, const ParallelogramNDOptions& opt) {
  std::vector<tv::GsRing<V>> tls(stage_slots(opt.exec));
  const ArrayLevels3D lev{&u};
  using Slab = tv::LevelSlab<double>;
  wavefront_schedule<VL>(
      opt, u.nx(), sweeps,
      // tvsrace: partitioned(rows)
      [&](int slot, int s, const tv::TileRows<VL>& rows) {
        tv::GsRing<V>& rs = tls[static_cast<std::size_t>(slot)];
        rs.prepare(s, u.ny() + 2, u.nz());
        tv::tv_gs3d_tile<V>(c, u, lev, rs, rows, s, !opt.use_vector);
      },
      [&] {
        for (int r = 1; r <= u.nx(); ++r)
          tv::detailgs3d::gs_plane(c, Slab::of(u, r), Slab::of(u, r),
                                   Slab::of(u, r + 1), Slab::of(u, r - 1),
                                   u.ny(), u.nz());
      });
}

}  // namespace

TVS_BACKEND_REGISTRAR(parallelogram2d) {
  TVS_REGISTER(kParallelogramGs2D5, ParallelogramGs2D5Fn, gs2d5_tiled);
  TVS_REGISTER(kParallelogramGs3D7, ParallelogramGs3D7Fn, gs3d7_tiled);
}

}  // namespace tvs::tiling
