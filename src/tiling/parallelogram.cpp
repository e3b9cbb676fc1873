// Parallelogram-tiled 1D Gauss-Seidel driver — compiled once per SIMD
// backend.  A tile is the Gauss-Seidel engine tile (tv/tv_gs1d_impl.hpp)
// on sloped rows with every level in the single array; see
// parallelogram.hpp for the legality argument.
#include "dispatch/backend_variant.hpp"
#include "tiling/parallelogram.hpp"

#include <algorithm>

#include "tv/tv_gs1d_impl.hpp"

namespace tvs::tiling {
namespace {

using V = simd::NativeVec<double, 4>;
constexpr int VL = V::lanes;

// Level storage of a parallelogram tile: every level is the array itself.
// Because the tile edges slope exactly -1, the last write to an interface
// slot is always the level its reader needs, so no interface buffers.
struct ArrayLevels1D {
  double* a;
  tv::LevelLine<double> lo(int /*l*/) const { return {a, 0}; }
  tv::LevelLine<double> hi(int /*l*/) const { return {a, 0}; }
};

void gs1d3_tiled(const stencil::C1D3& c, grid::Grid1D<double>& u,
                             long sweeps, const Parallelogram1DOptions& opt) {
  const int nx = u.nx();
  double* a = u.p();
  const int s = std::clamp(opt.stride, 2, 12);
  // Band height: multiple of vl, at least s+vl so a tile's base-row
  // footprint stays within the two band-(bt-1) tiles it depends on.
  int H = std::max(((s + 2 * VL - 1) / VL) * VL, opt.height - opt.height % VL);
  const int W = std::max(opt.width, VL * s + 8);

  const long t_vec = sweeps - sweeps % VL;
  const int nbt = static_cast<int>((t_vec + H - 1) / H);

  if (nbt > 0) {
    // Tile (bt, bx): band base tb = bt*H, height hb; anchor (level-1 range
    // at the band base) [1 + bx*W - tb, bx*W + W - tb].  The skew makes bx
    // negative on the left; valid bx per band:
    //   xr0 >= 1            ->  bx >= ceil((tb - W + 1)/W)
    //   xl0 - (hb-1) <= nx  ->  bx <= floor((nx - 2 + tb + hb)/W)
    const auto div_floor = [](long a_, long b_) {
      return a_ >= 0 ? a_ / b_ : -((-a_ + b_ - 1) / b_);
    };
    const auto div_ceil = [&](long a_, long b_) { return -div_floor(-a_, b_); };

    const auto band_h = [&](int bt) {
      const long tb = static_cast<long>(bt) * H;
      return static_cast<int>(std::min<long>(H, t_vec - tb));
    };
    const auto lo = [&](int bt) {
      const long tb = static_cast<long>(bt) * H;
      return static_cast<int>(div_ceil(tb - W + 1, W));
    };
    const auto hi = [&](int bt) {
      const long tb = static_cast<long>(bt) * H;
      return static_cast<int>(div_floor(nx - 2 + tb + band_h(bt), W));
    };

    // The skew moves tiles left as bt grows; take the union over bands.
    const int bx_min_all = std::min(lo(0), lo(nbt - 1));
    const int bx_max_all = std::max(hi(0), hi(nbt - 1));
    const int wmax = 2 * (nbt - 1) + (bx_max_all - bx_min_all);
    for (int w = 0; w <= wmax; ++w) {
      // Tiles on one anti-diagonal w = 2*bt + bx are >= 2W+H points apart
      // (file comment): each writes only its own sloped interval of `a`, so
      // the array is partitioned by the band index.
      const auto tile = [&](int bt, int /*slot*/) {
        const int bx = w - 2 * bt + bx_min_all;
        if (bx < lo(bt) || bx > hi(bt)) return;
        const long tb = static_cast<long>(bt) * H;
        const int hb = band_h(bt);
        const int xl0 = static_cast<int>(1 + static_cast<long>(bx) * W - tb);
        const int xr0 = xl0 + W - 1;
        ArrayLevels1D lev{a};
        // Level l (1..vl) covers [xl0-(l-1), xr0-(l-1)] shifted down by
        // vl per stacked tile.
        for (int j = 0; j < hb / VL; ++j) {
          const auto rows = tv::TileRows<VL>::sloped(
              xl0 + 1 - VL * j, xr0 + 1 - VL * j, -1, -1, nx, 1);
          tv::tv_gs1d_tile<V>(c, a, lev, rows, s, !opt.use_vector);
        }
      };
      if (opt.exec != nullptr) {
        stage_run(opt.exec, nbt, tile);
      } else {
        // tvsrace: partitioned(bt)
#pragma omp parallel for schedule(dynamic, 1)
        for (int bt = 0; bt < nbt; ++bt) tile(bt, 0);
      }
    }
  }

  // Residual scalar sweeps.
  for (long t = t_vec; t < sweeps; ++t) {
    double west = a[0];
    for (int x = 1; x <= nx; ++x) {
      const double v = stencil::gs1d3(c.w, c.c, c.e, west, a[x], a[x + 1]);
      a[x] = v;
      west = v;
    }
  }
}

}  // namespace

TVS_BACKEND_REGISTRAR(parallelogram1d) {
  TVS_REGISTER(kParallelogramGs1D3, ParallelogramGs1D3Fn, gs1d3_tiled);
}

}  // namespace tvs::tiling
