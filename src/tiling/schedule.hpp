// The tiled drivers' two stage schedules, written once: the diamond
// band/phase schedule of the Jacobi and Life drivers (diamond.cpp,
// diamond2d.cpp, diamond3d.cpp) and the parallelogram wavefront of the
// Gauss-Seidel drivers (parallelogram.cpp, parallelogram2d.cpp).  Both cut
// the outermost space axis — points in 1D, rows in 2D, planes in 3D, all
// called rows here — into tiles and run every stage through stage_run().
// A driver supplies only the bodies: how one tile, one halo mirror or one
// residual step acts on its storage.  A body the schedule calls inside a
// stage is one of tvsrace's C1 regions, parallel over its parameter that
// carries the stage index; the driver certifies it where the tile geometry,
// not a syntactic index, partitions its writes.  Internal to the kernel
// TUs.
#pragma once

#include <algorithm>

#include "tiling/stage_exec.hpp"
#include "tv/tile.hpp"

namespace tvs::tiling {

// ---- diamond ---------------------------------------------------------------
//
// Decomposition per band of height H (a multiple of vl) over rows [1, nx]
// cut into nb blocks of width W:
//   phase 1: shrinking trapezoids based at [1+kW, (k+1)W] — their edges
//            move inward R rows per level, so each writes only its own
//            base block and the nb tiles are mutually independent;
//   phase 2: growing trapezoids from the nb+1 seams kW (empty base) — the
//            widest level of seam k still ends left of where the next
//            seam's starts, so once phase 1 finished they are mutually
//            independent too.
// The union of a phase-2 tile and the next band's phase-1 tile above it is
// the classic diamond.  A band's tile stacks h/vl trapezoids of vl levels;
// every value another tile may read lives in the two parity arrays (level l
// of a trapezoid based at step tt in parity(tt + l)), and the slope-R edges
// guarantee a slot is only overwritten after its last reader ran.
//
// The driver's bodies:
//   mirror(x0, x1)           copy the boundary and halo cells of rows
//                            [x0, x1] from parity 0 into parity 1 (the
//                            first stage: the parity-pair invariant);
//   trapezoid(slot, tt, rows) one engine tile based at step tt on the
//                            clipped, sloped rows (tv/tile.hpp); slot
//                            indexes the runner's private scratch;
//   residual(t, x0, x1)      one scalar step t -> t+1 on rows [x0, x1]
//                            (the steps % vl left after the last band).
// The result of step `steps` is in parity(steps).
template <int VL, int R, class Mirror, class Trapezoid, class Residual>
void diamond_schedule(const TileOptions& opt, int s, int nx, long steps,
                      Mirror&& mirror, Trapezoid&& trapezoid,
                      Residual&& residual) {
  static_assert(VL % 2 == 0, "level vl must share parity(t0) with level 0");
  // Band height a positive multiple of vl; width wide enough that
  // concurrent tiles never touch each other's working set (see the read
  // cap in tv/tile.hpp) and phase-1 tiles stay non-empty at the band top.
  int H = std::max(VL, opt.height - opt.height % VL);
  int W = std::max(opt.width, 2 * H * R + VL * s + 8);
  if (W >= nx) {  // single tile column: degenerate but still correct
    W = nx;
    H = std::min(H, std::max(VL, (W / (2 * R) / VL) * VL));
    W = std::max(W, 2 * H * R + VL * s + 8);
  }
  const int nb = (nx + W - 1) / W;

  // Same row blocks as phase 1, the first and last block also taking the
  // boundary rows 0 and nx+1; the blocks' rows are disjoint.
  stage_run(opt.exec, nb, [&](int k, int /*slot*/) {
    mirror(k == 0 ? 0 : 1 + k * W, k == nb - 1 ? nx + 1 : (k + 1) * W);
  });

  const long t_vec = steps - steps % VL;
  long t0 = 0;
  while (t0 < t_vec) {
    const int h = static_cast<int>(std::min<long>(H, t_vec - t0));
    // Phase 1 (edges moving d = +R rows per level): the shrinking
    // trapezoids of the nb blocks [1+kW, (k+1)W].  Phase 2 (d = -R): the
    // growing trapezoids of the nb+1 seams, empty bases [1+kW, kW].
    for (const int d : {+R, -R}) {
      stage_run(opt.exec, d > 0 ? nb : nb + 1, [&](int k, int slot) {
        const int x0 = 1 + k * W, x1 = d > 0 ? (k + 1) * W : k * W;
        for (int j = 0; j < h / VL; ++j)
          trapezoid(slot, t0 + VL * j,
                    tv::TileRows<VL>::sloped(x0 + d * VL * j,
                                             x1 - d * VL * j, d, -d, nx, R));
      });
    }
    t0 += h;
  }
  // One stage per residual step over phase 1's blocks: block k writes rows
  // [1 + k*W, (k+1)*W] of parity(t0 + 1) only.
  for (; t0 < steps; ++t0) {
    stage_run(opt.exec, nb, [&](int k, int /*slot*/) {
      residual(t0, 1 + k * W, std::min(nx, (k + 1) * W));
    });
  }
}

// ---- parallelogram wavefront ------------------------------------------------
//
// Gauss-Seidel tiles (parallelogram.cpp): tile (bt, bx) is anchored at rows
// [1 + bx*W - bt*H, (bx+1)*W - bt*H] at band base bt*H, and level l of each
// of its stacked vl-level engine tiles covers the anchor slid l-1 rows
// left.  Tile (bt, bx) needs (bt, bx-1) [west interface] and (bt-1, bx),
// (bt-1, bx+1) [base row], so the anti-diagonals w = 2*bt + bx run in
// order, one stage each, over the bands; tiles on one anti-diagonal are
// >= 2W+H rows apart and write disjoint row ranges.
//
// The driver's bodies:
//   tile(slot, s, rows)  one engine tile at stride s on the clipped,
//                        sloped rows; slot indexes the runner's scratch;
//   residual()           one scalar sweep (the sweeps % vl left over).
template <int VL, class Tile, class Residual>
void wavefront_schedule(const TileOptions& opt, int nx, long sweeps,
                        Tile&& tile, Residual&& residual) {
  const int s = std::clamp(opt.stride, 2, kMaxParallelogramStride);
  // Band height: multiple of vl, at least s+vl so a tile's base-row
  // footprint stays within the two band-(bt-1) tiles it depends on.
  const int H =
      std::max(((s + 2 * VL - 1) / VL) * VL, opt.height - opt.height % VL);
  const int W = std::max(opt.width, VL * s + 8);
  const long t_vec = sweeps - sweeps % VL;
  const int nbt = static_cast<int>((t_vec + H - 1) / H);

  if (nbt > 0) {
    // The skew makes bx negative on the left; valid bx per band:
    //   xr0 >= 1            ->  bx >= ceil((tb - W + 1)/W)
    //   xl0 - (hb-1) <= nx  ->  bx <= floor((nx - 2 + tb + hb)/W)
    // with ceil(a/b) taken as -floor(-a/b).
    const auto div_floor = [](long a, long b) {
      return a >= 0 ? a / b : -((-a + b - 1) / b);
    };
    const auto band_h = [&](int bt) {
      return static_cast<int>(
          std::min<long>(H, t_vec - static_cast<long>(bt) * H));
    };
    const auto lo = [&](int bt) {
      return static_cast<int>(
          -div_floor(W - 1 - static_cast<long>(bt) * H, W));
    };
    const auto hi = [&](int bt) {
      return static_cast<int>(
          div_floor(nx - 2 + static_cast<long>(bt) * H + band_h(bt), W));
    };
    // The skew moves tiles left as bt grows; take the union over bands.
    const int bx_min_all = std::min(lo(0), lo(nbt - 1));
    const int bx_max_all = std::max(hi(0), hi(nbt - 1));
    const int wmax = 2 * (nbt - 1) + (bx_max_all - bx_min_all);
    for (int w = 0; w <= wmax; ++w) {
      stage_run(opt.exec, nbt, [&](int bt, int slot) {
        const int bx = w - 2 * bt + bx_min_all;
        if (bx < lo(bt) || bx > hi(bt)) return;
        const long tb = static_cast<long>(bt) * H;
        const int xl0 = static_cast<int>(1 + static_cast<long>(bx) * W - tb);
        for (int j = 0; j < band_h(bt) / VL; ++j)
          tile(slot, s,
               tv::TileRows<VL>::sloped(xl0 + 1 - VL * j, xl0 + W - VL * j,
                                        -1, -1, nx, 1));
      });
    }
  }
  for (long t = t_vec; t < sweeps; ++t) residual();
}

}  // namespace tvs::tiling
