// The tiled drivers' two stage schedules, written once: the diamond
// band/phase schedule of the Jacobi and Life drivers (diamond.cpp,
// diamond2d.cpp, diamond3d.cpp) and the parallelogram wavefront of the
// Gauss-Seidel drivers (parallelogram.cpp, parallelogram2d.cpp), with the
// anti-diagonal helper it shares with the LCS wavefront.  Both cut the
// outermost space axis — points in 1D, rows in 2D, planes in 3D, all
// called rows here — into tiles, the parallelograms the unit-stride axis
// of a wide plane too, and run every stage through stage_run().
// A driver supplies only the bodies: how one tile, one halo mirror or one
// residual step acts on its storage.  A body the schedule calls inside a
// stage is one of tvsrace's C1 regions, parallel over its parameter that
// carries the stage index; the driver certifies it where the tile geometry,
// not a syntactic index, partitions its writes.  Internal to the kernel
// TUs.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

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

// ---- anti-diagonal wavefront ------------------------------------------------
//
// The blocks of an N-axis block grid [0, extent[0]) x ... x [0,
// extent[N-1]) in wavefront order: block b runs in the stage
// sum_a weight[a] * b[a], after every block whose sum is lower.  A driver
// whose blocks depend only on blocks of a lower sum runs the stages in
// order, one stage_run each, and the blocks of one stage in parallel.
// Blocks `keep` rejects are left out, and so are the stages they leave
// empty; a stage lists its blocks in lexicographic order.  Serves the
// parallelograms (band x row block x column block) and the LCS wavefront
// (row band x column block).
template <int N>
class Wavefront {
 public:
  template <class Keep>
  Wavefront(const std::array<int, N>& extent, const std::array<int, N>& weight,
            Keep&& keep) {
    long nstage = 1;
    for (int a = 0; a < N; ++a) {
      if (extent[a] <= 0) return;
      nstage += static_cast<long>(weight[a]) * (extent[a] - 1);
    }
    // The kept blocks in lexicographic order (last axis fastest), then a
    // counting sort by stage.
    std::vector<int> kept, stage;
    std::array<int, N> b{};
    for (bool more = true; more;) {
      if (keep(b)) {
        long w = 0;
        for (int a = 0; a < N; ++a) {
          kept.push_back(b[a]);
          w += static_cast<long>(weight[a]) * b[a];
        }
        stage.push_back(static_cast<int>(w));
      }
      more = false;
      for (int a = N - 1; a >= 0 && !more; --a) {
        more = ++b[a] < extent[a];
        if (!more) b[a] = 0;
      }
    }
    std::vector<int> at(static_cast<std::size_t>(nstage) + 1, 0);
    for (const int w : stage) ++at[static_cast<std::size_t>(w) + 1];
    for (std::size_t w = 0; w + 1 < at.size(); ++w) {
      if (at[w + 1] > 0) {
        start_.push_back(at[w]);
        ++nstages_;
      }
      at[w + 1] += at[w];
    }
    start_.push_back(at.back());
    blocks_.resize(kept.size());
    for (std::size_t k = 0; k < stage.size(); ++k) {
      const int p = at[static_cast<std::size_t>(stage[k])]++;
      for (int a = 0; a < N; ++a)
        blocks_[static_cast<std::size_t>(p * N + a)] = kept[k * N + a];
    }
  }

  int stages() const { return nstages_; }
  int size(int w) const {
    return start_[static_cast<std::size_t>(w) + 1] -
           start_[static_cast<std::size_t>(w)];
  }
  std::array<int, N> block(int w, int i) const {
    std::array<int, N> b;
    const int p = start_[static_cast<std::size_t>(w)] + i;
    for (int a = 0; a < N; ++a)
      b[a] = blocks_[static_cast<std::size_t>(p * N + a)];
    return b;
  }

 private:
  std::vector<int> blocks_;  // N indices per block, stage by stage
  std::vector<int> start_;   // first block of each stage, then the count
  int nstages_ = 0;
};

// ---- parallelogram wavefront ------------------------------------------------
//
// Gauss-Seidel tiles (parallelogram.cpp, parallelogram2d.cpp): tile
// (bt, bx) is anchored at rows [1 + bx*W - bt*H, (bx+1)*W - bt*H] at band
// base bt*H, and level l of each of its stacked vl-level engine tiles
// covers the anchor slid l-1 rows left.  Tile (bt, bx) needs (bt, bx-1)
// [west interface] and (bt-1, bx), (bt-1, bx+1) [base row].
//
// A plane grid whose inner extent nz exceeds one column block (W columns
// too) is also cut along z, the same way: tile (bt, bx, bz) is anchored
// at columns [1 + bz*W - bt*H, (bz+1)*W - bt*H], every level slid l-1
// columns left (tv/tile.hpp TileCols), and it also needs (bt, bx, bz-1)
// and (bt-1, bx..bx+1, bz..bz+1).  The anti-diagonals w = 3*bt + bx + bz
// then run in order, one stage each — 2*bt + bx without a z cut — so one
// band holds up to min(nbx, nbz) tiles per stage.  Tiles on one
// anti-diagonal write disjoint cells: the same-band ones (bx+1, bz-1)
// apart meet only at cells neither reads from the other, since each
// level of both slides the same way, and the others are >= 2W+H rows or
// columns apart.
//
// The driver's bodies:
//   tile(slot, s, rows, cols)  one engine tile at stride s on the clipped,
//                              sloped rows and columns (whole lines
//                              without a z cut, and in 1D where nz = 1);
//                              slot indexes the runner's scratch;
//   residual()                 one scalar sweep (the sweeps % vl left over).
template <int VL, class Tile, class Residual>
void wavefront_schedule(const TileOptions& opt, int nx, int nz, long sweeps,
                        Tile&& tile, Residual&& residual) {
  const int s = std::clamp(opt.stride, 2, kMaxParallelogramStride);
  // Band height: multiple of vl, at least s+vl so a tile's base-row
  // footprint stays within the two band-(bt-1) tiles it depends on.
  const int H =
      std::max(((s + 2 * VL - 1) / VL) * VL, opt.height - opt.height % VL);
  const int W = std::max(opt.width, VL * s + 8);
  const bool zcut = W < nz;
  const long t_vec = sweeps - sweeps % VL;
  const int nbt = static_cast<int>((t_vec + H - 1) / H);

  if (nbt > 0) {
    // The skew makes block indices negative on the left; valid blocks b
    // along an axis of n cells per band:
    //   xr0 >= 1            ->  b >= ceil((tb - W + 1)/W)
    //   xl0 - (hb-1) <= n   ->  b <= floor((n - 2 + tb + hb)/W)
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
    const auto hi = [&](int n, int bt) {
      return static_cast<int>(
          div_floor(n - 2 + static_cast<long>(bt) * H + band_h(bt), W));
    };
    // The skew moves tiles left as bt grows; take the union over bands.
    const int b0 = std::min(lo(0), lo(nbt - 1));
    const int bx1 = std::max(hi(nx, 0), hi(nx, nbt - 1));
    const int bz1 = zcut ? std::max(hi(nz, 0), hi(nz, nbt - 1)) : b0;
    const std::array<int, 3> extent{nbt, bx1 - b0 + 1, bz1 - b0 + 1};
    const Wavefront<3> wf(
        extent, {1 + (extent[1] > 1) + (extent[2] > 1), 1, 1},
        [&](const std::array<int, 3>& b) {
          return b0 + b[1] >= lo(b[0]) && b0 + b[1] <= hi(nx, b[0]) &&
                 (!zcut || (b0 + b[2] >= lo(b[0]) &&
                            b0 + b[2] <= hi(nz, b[0])));
        });
    const auto whole = tv::TileCols<VL>::full(nz);
    for (int w = 0; w < wf.stages(); ++w) {
      stage_run(opt.exec, wf.size(w), [&](int i, int slot) {
        const std::array<int, 3> b = wf.block(w, i);
        const int bx = b0 + b[1];
        const int bz = b0 + b[2];
        const long tb = static_cast<long>(b[0]) * H;
        const int xl0 = static_cast<int>(1 + static_cast<long>(bx) * W - tb);
        const int zl0 = static_cast<int>(1 + static_cast<long>(bz) * W - tb);
        for (int j = 0; j < band_h(b[0]) / VL; ++j)
          tile(slot, s,
               tv::TileRows<VL>::sloped(xl0 + 1 - VL * j, xl0 + W - VL * j,
                                        -1, -1, nx, 1),
               zcut ? tv::TileCols<VL>::sloped(zl0 + 1 - VL * j,
                                               zl0 + W - VL * j, -1, -1, nz)
                    : whole);
      });
    }
  }
  for (long t = t_vec; t < sweeps; ++t) residual();
}

}  // namespace tvs::tiling
