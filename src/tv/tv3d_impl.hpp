// Temporal vectorization for 3D stencils: the stride-s lanes live on the
// outermost x dimension, the inner (y, z) loops sweep whole planes.  The
// ring holds s+2 *slabs* of input vectors:
//
//   ring(p)[y][z] = [ lvl0 @ (p+(vl-1)s, y, z) , ... , lvl(vl-1) @ (p, y, z) ]
//
// Structure is the 2D engine's with rows generalized to planes (the same
// tile over the per-level ranges of tv/tile.hpp); grouped top stores /
// bottom loads run along the unit-stride z dimension.  The flat engine
// updates the main array in place (top plane x trails bottom reads
// x+vl*s); the diamond driver (tiling/diamond3d.cpp) runs the same tile on
// clipped plane ranges with its levels in the two parity grids.
//
// The functor F supplies:
//   static constexpr int radius = 1;
//   V apply(const V* bm1, const V* b0c, const V* b0m, const V* b0p,
//           const V* bp1, int z)
//     — slab lines for (x-1, y), (x, y), (x, y-1), (x, y+1), (x+1, y),
//       indexable at z-1 .. z+1;
//   T apply_scalar(At&& at, int r, int y, int z) with at(r, y, z).
#pragma once

#include <algorithm>
#include <cassert>

#include "grid/aligned.hpp"
#include "grid/grid3d.hpp"
#include "simd/reorg.hpp"
#include "simd/vec.hpp"
#include "tv/ring.hpp"
#include "tv/tile.hpp"

namespace tvs::tv {

// Scratch for one flat 3D run: ring slabs, the edge planes holding levels
// 1..vl-1 (the flat engine's level-storage policy, tv/tile.hpp) and a
// residual-step grid, allocated only when a residual step runs.
template <class V, class T>
struct Workspace3D {
  SlabRing<V> ring;       // s+2 slabs of (ny+2) lines
  EdgePlanes<T> planes;   // levels 1..vl-1 at the two edges
  grid::Grid3D<T> tmp;

  void prepare(int s, int nx, int ny, int nz) {
    ring.prepare(s + 2, ny + 2, nz);
    planes.prepare(V::lanes, s, nx, ny + 2, nz);
  }
  grid::Grid3D<T>& residual(int nx, int ny, int nz) {
    if (tmp.nx() != nx || tmp.ny() != ny || tmp.nz() != nz)
      tmp = grid::Grid3D<T>(nx, ny, nz);
    return tmp;
  }
};

namespace detail3d {

// One scalar plane of level l: dst from the level-(l-1) planes r-1, r, r+1.
template <class F, class T>
void scalar_plane(const F& f, LevelSlab<T> dst, LevelSlab<T> sm,
                  LevelSlab<T> s0, LevelSlab<T> sp, int r, int ny, int nz) {
  const LevelSlab<T> planes[3] = {sm, s0, sp};
  const auto at = [&](int rr, int y, int z) -> T {
    return planes[rr - r + 1].line(y)[z];
  };
  for (int y = 1; y <= ny; ++y) {
    T* d = dst.line(y);
    for (int z = 1; z <= nz; ++z) d[z] = f.apply_scalar(at, r, y, z);
  }
}

template <class F, class T>
void scalar_steps(const F& f, grid::Grid3D<T>& g, grid::Grid3D<T>& tmp,
                  int nsteps) {
  const int nx = g.nx(), ny = g.ny(), nz = g.nz();
  for (int t = 0; t < nsteps; ++t) {
    const auto at = [&](int r, int y, int z) -> T { return g.at(r, y, z); };
    for (int r = 1; r <= nx; ++r)
      for (int y = 1; y <= ny; ++y)
        for (int z = 1; z <= nz; ++z)
          tmp.at(r, y, z) = f.apply_scalar(at, r, y, z);
    for (int r = 1; r <= nx; ++r)
      for (int y = 1; y <= ny; ++y)
        for (int z = 1; z <= nz; ++z) g.at(r, y, z) = tmp.at(r, y, z);
  }
}

}  // namespace detail3d

// One vl-step tile over the planes `rows`; the 3D analogue of tv2d_tile
// (same level-storage contract, with lo(l, r) / hi(l, r) returning a
// LevelSlab).  `ring` holds s+2 slabs of ny+2 lines.  s >= 2.
//
// Re = the redundancy-eliminated inner loop (arXiv:2103.08825 /
// 2103.09235, see tv3d_re_impl.hpp): identical wedges / gather / flush and
// bit-identical arithmetic, but each produced ring vector costs ONE
// shuffle (simd::retire_shift_in) and the functor's F::Carry slides the
// shared center-line operands in registers across consecutive z.
template <class V, class F, class T, bool Re = false, class Levels>
void tv3d_tile(const F& f, grid::Grid3D<T>& g, Levels& lev, SlabRing<V>& ring,
               const TileRows<V::lanes>& rows, int s,
               bool scalar_only = false) {
  static_assert(F::radius == 1);
  constexpr int VL = V::lanes;
  const int nx = g.nx(), ny = g.ny(), nz = g.nz();
  assert(s >= 2);

  const auto lo = [&](int l, int r) -> LevelSlab<T> {
    return l == 0 || l == VL || r < 1 || r > nx ? LevelSlab<T>::of(g, r)
                                                : lev.lo(l, r);
  };
  const auto hi = [&](int l, int r) -> LevelSlab<T> {
    return l == 0 || l == VL || r < 1 || r > nx ? LevelSlab<T>::of(g, r)
                                                : lev.hi(l, r);
  };
  const auto scalar_planes = [&](const auto& L, int l, int r0, int r1) {
    for (int r = r0; r <= r1; ++r)
      detail3d::scalar_plane(f, L(l, r), L(l - 1, r - 1), L(l - 1, r),
                             L(l - 1, r + 1), r, ny, nz);
  };

  const int x_begin = rows.x_begin(s), x_end = rows.x_end(s);
  if (scalar_only || !rows.vector_ok(s)) {
    for (int l = 1; l <= VL; ++l)
      scalar_planes(lo, l, rows.xl(l), rows.xr(l));
    return;
  }

  // ---- left wedges (levels ascending, final level last) --------------------
  for (int l = 1; l <= VL - 1; ++l)
    scalar_planes(lo, l, rows.xl(l),
                  std::min(rows.xr(l), x_begin + (VL - l) * s - 1));
  scalar_planes(lo, VL, rows.xl(VL), x_begin - 1);

  // ---- gather slabs p = x_begin-1 .. x_begin+s-1 ----------------------------
  alignas(64) T lanes[VL];
  for (int p = x_begin - 1; p <= x_begin + s - 1; ++p) {
    LevelSlab<T> src[VL];
    for (int k = 0; k < VL; ++k)
      src[k] = lo(k, std::min(p + (VL - 1 - k) * s, nx + 1));
    for (int y = 0; y <= ny + 1; ++y) {
      V* line = ring.line(p, y);
      for (int z = 0; z <= nz + 1; ++z) {
        for (int k = 0; k < VL; ++k) lanes[k] = src[k].line(y)[z];
        line[z] = V::load(lanes);
      }
    }
  }

  // ---- steady loop ----------------------------------------------------------
  for (int x = x_begin; x <= x_end; ++x) {
    // Boundary rows/columns of the produced slab: constant at every level.
    {
      const int p = x + s;
      const auto fill = [&](int y, int z) {
        for (int k = 0; k < VL; ++k)
          lanes[k] = g.at(std::min(p + (VL - 1 - k) * s, nx + 1), y, z);
        ring.line(p, y)[z] = V::load(lanes);
      };
      for (int z = 0; z <= nz + 1; ++z) {
        fill(0, z);
        fill(ny + 1, z);
      }
      for (int y = 1; y <= ny; ++y) {
        fill(y, 0);
        fill(y, nz + 1);
      }
    }
    // Bottom planes past the read cap are never consumed: clamp (tile.hpp).
    const int bx = std::min(x + VL * s, rows.read_cap);
    for (int y = 1; y <= ny; ++y) {
      const V* bm1 = ring.line(x - 1, y);
      const V* b0c = ring.line(x, y);
      const V* b0m = ring.line(x, y - 1);
      const V* b0p = ring.line(x, y + 1);
      const V* bp1 = ring.line(x + 1, y);
      V* lout = ring.line(x + s, y);
      T* tline = g.line(x, y);
      const T* bline = g.line(bx, y);

      if constexpr (Re) {
        // Redundancy-eliminated inner loop: one retire_shift_in shuffle
        // per produced vector and register-carried center-line operands.
        // Bit-identical to the baseline loop below.
        typename F::Carry carry(bm1, b0c, b0m, b0p, bp1);
        for (int z = 1; z <= nz; ++z) {
          const V w = carry.apply(f, bm1, b0c, b0m, b0p, bp1, z);
          lout[z] = simd::retire_shift_in(w, bline[z], &tline[z]);
        }
      } else {
        int z = 1;
        V wbuf[VL];
        for (; z + VL - 1 <= nz; z += VL) {
          V bot = V::loadu(bline + z);
          for (int j = 0; j < VL - 1; ++j) {
            wbuf[j] = f.apply(bm1, b0c, b0m, b0p, bp1, z + j);
            lout[z + j] = simd::shift_in_low_v(wbuf[j], bot);
            bot = simd::dispense_low(bot);
          }
          wbuf[VL - 1] = f.apply(bm1, b0c, b0m, b0p, bp1, z + VL - 1);
          lout[z + VL - 1] = simd::shift_in_low_v(wbuf[VL - 1], bot);
          simd::collect_tops_arr(wbuf).storeu(tline + z);
        }
        for (; z <= nz; ++z) {
          const V w = f.apply(bm1, b0c, b0m, b0p, bp1, z);
          lout[z] = simd::shift_in_low(w, bline[z]);
          tline[z] = simd::top_lane(w);
        }
      }
    }
  }

  // ---- flush surviving ring lanes into their levels -------------------------
  for (int p = x_end; p <= x_end + s; ++p) {
    for (int k = 1; k <= VL - 1; ++k) {
      const int r = p + (VL - 1 - k) * s;
      if (r < rows.xl(k) || r > rows.xr(k)) continue;
      const LevelSlab<T> dst = hi(k, r);
      for (int y = 1; y <= ny; ++y) {
        const V* line = ring.line(p, y);
        T* d = dst.line(y);
        for (int z = 1; z <= nz; ++z) d[z] = line[z][k];
      }
    }
  }

  // ---- right wedges (levels ascending, final level last) --------------------
  for (int l = 1; l <= VL; ++l)
    scalar_planes(hi, l, std::max(rows.xl(l), x_end + (VL - l) * s + 1),
                  rows.xr(l));
}

template <class V, class F, class T, bool Re = false>
void tv3d_run(const F& f, grid::Grid3D<T>& g, long steps, int s,
              Workspace3D<V, T>& ws) {
  static_assert(simd::LaneGeneric<V> && simd::lane_layout_ok<V>);
  constexpr int VL = V::lanes;
  ws.prepare(s, g.nx(), g.ny(), g.nz());
  const auto rows = TileRows<VL>::full(g.nx(), F::radius);
  long t = 0;
  if (rows.vector_ok(s) && steps >= VL) {
    ws.planes.copy_frames([&](int r, int y, int z) { return g.at(r, y, z); });
    EdgeSlabs<T> lev{&ws.planes};
    for (; t + VL <= steps; t += VL)
      tv3d_tile<V, F, T, Re>(f, g, lev, ws.ring, rows, s);
  }
  if (t < steps)
    detail3d::scalar_steps(f, g, ws.residual(g.nx(), g.ny(), g.nz()),
                           static_cast<int>(steps - t));
}

}  // namespace tvs::tv
