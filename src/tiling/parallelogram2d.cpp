// Parallelogram tiles for GS-2D/3D: the flat Gauss-Seidel engines' tiles
// (tv/tv_gs2d_impl.hpp / tv/tv_gs3d_impl.hpp) on a row-parallelogram, with
// every level read from and written to the single array — the slope -1
// interface ladder guarantees each slot holds exactly the level its reader
// needs (see parallelogram.hpp for the 1D argument, which lifts row-wise /
// plane-wise verbatim).  Only the ring state is per runner.
#include "dispatch/backend_variant.hpp"
#include "tiling/parallelogram2d.hpp"

#include "util/omp_compat.hpp"

#include <algorithm>
#include <vector>

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

// Level l (1..vl) of a tile anchored at [xl0, xr0] covers
// [xl0-(l-1), xr0-(l-1)], clipped to the domain.
tv::TileRows<VL> para_rows(int xl0, int xr0, int nx) {
  return tv::TileRows<VL>::sloped(xl0 + 1, xr0 + 1, -1, -1, nx, 1);
}

// ---------------------------------------------------------------------------
// Shared wavefront driver
// ---------------------------------------------------------------------------
template <class Tile, class Residual>
void wavefront_run(int nx, long sweeps, ParallelogramNDOptions opt, int min_s,
                   Tile tile, Residual residual) {
  const int s = std::clamp(opt.stride, min_s, 12);
  int H = std::max(((s + 2 * VL - 1) / VL) * VL, opt.height - opt.height % VL);
  const int W = std::max(opt.width, VL * s + 8);
  const long t_vec = sweeps - sweeps % VL;
  const int nbt = static_cast<int>((t_vec + H - 1) / H);

  if (nbt > 0) {
    const auto div_floor = [](long a, long b) {
      return a >= 0 ? a / b : -((-a + b - 1) / b);
    };
    const auto div_ceil = [&](long a, long b) { return -div_floor(-a, b); };
    const auto band_h = [&](int bt) {
      return static_cast<int>(std::min<long>(H, t_vec - static_cast<long>(bt) * H));
    };
    const auto lo = [&](int bt) {
      return static_cast<int>(div_ceil(static_cast<long>(bt) * H - W + 1, W));
    };
    const auto hi = [&](int bt) {
      return static_cast<int>(
          div_floor(nx - 2 + static_cast<long>(bt) * H + band_h(bt), W));
    };
    const int bx_min_all = std::min(lo(0), lo(nbt - 1));
    const int bx_max_all = std::max(hi(0), hi(nbt - 1));
    const int wmax = 2 * (nbt - 1) + (bx_max_all - bx_min_all);
    for (int w = 0; w <= wmax; ++w) {
      // Same wavefront argument as the 1D driver: tiles on one anti-diagonal
      // are disjoint in x, so the tile callback touches non-overlapping
      // regions per bt (its scratch is per-runner, indexed by slot).
      const auto diag = [&](int bt, int slot) {
        const int bx = w - 2 * bt + bx_min_all;
        if (bx < lo(bt) || bx > hi(bt)) return;
        const long tb = static_cast<long>(bt) * H;
        const int hb = band_h(bt);
        const int xl0 = static_cast<int>(1 + static_cast<long>(bx) * W - tb);
        for (int j = 0; j < hb / VL; ++j)
          tile(s, xl0 - VL * j, xl0 + W - 1 - VL * j, slot);
      };
      if (opt.exec != nullptr) {
        stage_run(opt.exec, nbt, diag);
      } else {
        // tvsrace: partitioned(bt)
#pragma omp parallel for schedule(dynamic, 1)
        for (int bt = 0; bt < nbt; ++bt) diag(bt, omp_get_thread_num());
      }
    }
  }
  for (long t = t_vec; t < sweeps; ++t) residual();
}


void gs2d5_tiled(const stencil::C2D5& c, grid::Grid2D<double>& u,
                             long sweeps, const ParallelogramNDOptions& opt) {
  const int nslots = std::max(
      omp_get_max_threads(), opt.exec != nullptr ? opt.exec->slots : 0);
  std::vector<tv::GsRing<V>> tls(static_cast<std::size_t>(nslots));
  ArrayLevels2D lev{&u};
  wavefront_run(
      u.nx(), sweeps, opt, 2,
      [&](int s, int xl0, int xr0, int slot) {
        tv::GsRing<V>& rs = tls[static_cast<std::size_t>(slot)];
        rs.prepare(s, 1, u.ny());
        tv::tv_gs2d_tile<V>(c, u, lev, rs, para_rows(xl0, xr0, u.nx()), s,
                            !opt.use_vector);
      },
      [&] {
        for (int r = 1; r <= u.nx(); ++r)
          tv::detailgs2d::gs_row(c, u.row(r), u.row(r), u.row(r + 1),
                                 u.row(r - 1), u.ny());
      });
}

void gs3d7_tiled(const stencil::C3D7& c, grid::Grid3D<double>& u,
                             long sweeps, const ParallelogramNDOptions& opt) {
  const int nslots = std::max(
      omp_get_max_threads(), opt.exec != nullptr ? opt.exec->slots : 0);
  std::vector<tv::GsRing<V>> tls(static_cast<std::size_t>(nslots));
  ArrayLevels3D lev{&u};
  using Slab = tv::LevelSlab<double>;
  wavefront_run(
      u.nx(), sweeps, opt, 2,
      [&](int s, int xl0, int xr0, int slot) {
        tv::GsRing<V>& rs = tls[static_cast<std::size_t>(slot)];
        rs.prepare(s, u.ny() + 2, u.nz());
        tv::tv_gs3d_tile<V>(c, u, lev, rs, para_rows(xl0, xr0, u.nx()), s,
                            !opt.use_vector);
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
