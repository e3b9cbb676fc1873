// Temporal vectorization of the 2D5P and 3D7P Gauss-Seidel stencils
// (§3.4), one plane tile for both, generalized to any vector length
// vl = V::lanes.
//
// Update (ascending x, then y, then z; a 2D grid has the one line y = 0
// and z is its column):
//   a[x][y][z] <- cc*a[x][y][z]      + cw*a[x][y][z-1](new)
//              + ce*a[x][y][z+1]     + cs*a[x][y-1][z](new)
//              + cn*a[x][y+1][z]     + cb*a[x-1][y][z](new)
//              + cf*a[x+1][y][z]
// (2D5P: the same without the y terms, with cs/cn on the x-1 / x+1 rows.)
//
// On top of the Jacobi plane ring (tv/tv_plane_impl.hpp) the newest-value
// operands are forwarded from output vectors, exactly as in the 1D
// Gauss-Seidel kernel: newest west (z-1) is the previous z iteration's
// output register, and one slab buffer `w` holds the rest.  During
// iteration x it is read at line y for the newest *back* value (x-1, still
// holding the x-1 output) and at line y-1 for the newest *south* value
// (already overwritten with the current x output) — read-then-overwrite
// gives both for free; a one-line plane has no south.  Old values come
// from ring slabs x and x+1 (the window is {x, x+1}): s+1 slots.
//
// The functor F supplies (tv/functors2d.hpp Gs2D5F, functors3d.hpp Gs3D7F):
//   V apply(V west, const LineWindow<V>& w, int z)
//   T apply_scalar(T west, const LineWindow<T>& w, int z)
// where w.xm / w.ym are the newest back / south lines and w.c, w.xp, w.yp
// old values.  The flat engine runs in place on the single Gauss-Seidel
// array with levels 1..vl-1 in edge scratch planes; the parallelogram
// drivers (tiling/parallelogram2d.cpp) run the same tile on sloped row
// ranges with every level in the array itself.
#pragma once

#include <algorithm>
#include <cassert>

#include "simd/reorg.hpp"
#include "simd/vec.hpp"
#include "tv/ring.hpp"
#include "tv/tile.hpp"

namespace tvs::tv {

namespace detail {

// One scalar Gauss-Seidel plane of level l, y then z ascending: newest
// values (west, south, back) from level l — dst's own lines and the plane
// r-1 `back` — old values from level l-1's planes r and r+1.  dst may
// alias old (the single Gauss-Seidel array).
template <class F, class T>
void gs_scalar_plane(const F& f, LevelSlab<T> dst, LevelSlab<T> old,
                     LevelSlab<T> old_f, LevelSlab<T> back,
                     PlaneShape pl) {
  for (int y = pl.y0; y <= pl.y1; ++y) {
    T* d = dst.line(y);
    const LineWindow<T> w{back.line(y), old.line(y), old_f.line(y),
                          dst.line(y - 1), old.line(y + 1)};
    T west = d[0];
    for (int z = 1; z <= pl.n; ++z) {
      const T v = f.apply_scalar(west, w, z);
      d[z] = v;
      west = v;
    }
  }
}

// One scalar Gauss-Seidel sweep over the whole grid, in place.
template <class F, class G>
void gs_sweep(const F& f, G& g) {
  using Slab = LevelSlab<typename F::value_type>;
  const PlaneShape pl = plane_shape(g);
  for (int r = 1; r <= g.nx(); ++r)
    gs_scalar_plane(f, Slab::of(g, r), Slab::of(g, r), Slab::of(g, r + 1),
                    Slab::of(g, r - 1), pl);
}

}  // namespace detail

// One vl-sweep tile over the rows `rows`, with the level-storage contract
// of tv_plane_tile.  s >= 2.
template <class V, class F, class G, class Levels>
void tv_gs_plane_tile(const F& f, G& g, Levels& lev, GsRing<V>& rs,
                      const TileRows<V::lanes>& rows, int s,
                      bool scalar_only = false) {
  using T = typename V::value_type;
  using Slab = LevelSlab<T>;
  constexpr int VL = V::lanes;
  const int nx = g.nx();
  const PlaneShape pl = plane_shape(g);
  assert(s >= 2);

  const auto lo = [&](int l, int r) -> Slab {
    return l == 0 || l == VL || r < 1 || r > nx ? Slab::of(g, r)
                                                : lev.lo(l, r);
  };
  const auto hi = [&](int l, int r) -> Slab {
    return l == 0 || l == VL || r < 1 || r > nx ? Slab::of(g, r)
                                                : lev.hi(l, r);
  };
  const auto scalar_planes = [&](const auto& L, int l, int r0, int r1) {
    for (int r = r0; r <= r1; ++r)
      detail::gs_scalar_plane(f, L(l, r), L(l - 1, r), L(l - 1, r + 1),
                              L(l, r - 1), pl);
  };

  const int x_begin = rows.x_begin(s), x_end = rows.x_end(s);
  if (scalar_only || !rows.vector_ok(s)) {
    for (int l = 1; l <= VL; ++l)
      scalar_planes(lo, l, rows.xl(l), rows.xr(l));
    return;
  }

  // ---- left wedges, levels ascending ----------------------------------------
  for (int l = 1; l <= VL - 1; ++l)
    scalar_planes(lo, l, rows.xl(l),
                  std::min(rows.xr(l), x_begin + (VL - l) * s - 1));
  scalar_planes(lo, VL, rows.xl(VL), x_begin - 1);

  // ---- gather ring slabs x_begin .. x_begin+s-1 and the initial w slab ------
  Slab src[VL];
  for (int p = x_begin; p <= x_begin + s - 1; ++p) {
    for (int k = 0; k < VL; ++k)
      src[k] = lo(k, std::min(p + (VL - 1 - k) * s, nx + 1));
    gather_slab(rs.ring, p, src, pl);
  }
  // w lane k = lvl(k+1) @ plane x_begin-1 + (vl-1-k)s: the wedges' tips.
  for (int k = 0; k < VL; ++k)
    src[k] = lo(k + 1, x_begin - 1 + (VL - 1 - k) * s);
  gather_slab(rs.w, 0, src, pl);

  // ---- steady loop ----------------------------------------------------------
  alignas(64) T lanes[VL];
  for (int x = x_begin; x <= x_end; ++x) {
    fill_frame(rs.ring, x + s, g, s, pl);
    // Lane k works on plane x + (vl-1-k)s, whose boundary cells give the
    // newest values at the frame: west at z = 0, south on halo line 0.
    for (int k = 0; k < VL; ++k) src[k] = Slab::of(g, x + (VL - 1 - k) * s);
    if (pl.halo(0)) {
      V* line = rs.w.line(0, 0);
      for (int z = 0; z <= pl.n + 1; ++z) {
        for (int k = 0; k < VL; ++k) lanes[k] = src[k].line(0)[z];
        line[z] = V::load(lanes);
      }
    }
    const Slab top = Slab::of(g, x);
    const Slab bot = Slab::of(g, std::min(x + VL * s, rows.read_cap));
    for (int y = pl.y0; y <= pl.y1; ++y) {
      V* wl = rs.w.line(0, y);  // line y: x-1 output until overwritten
      const LineWindow<V> w{wl, rs.ring.line(x, y), rs.ring.line(x + 1, y),
                            rs.w.line(0, y - 1), rs.ring.line(x, y + 1)};
      V* lout = rs.ring.line(x + s, y);
      T* tline = top.line(y);
      const T* bline = bot.line(y);

      for (int k = 0; k < VL; ++k) lanes[k] = src[k].line(y)[0];
      V wprev = V::load(lanes);

      int z = 1;
      V wbuf[VL];
      for (; z + VL - 1 <= pl.n; z += VL) {
        V b = V::loadu(bline + z);
        for (int j = 0; j < VL; ++j) {
          const int zz = z + j;
          const V v = f.apply(wprev, w, zz);
          wbuf[j] = v;
          wl[zz] = v;  // becomes the newest back for iteration x+1
          lout[zz] = simd::shift_in_low_v(v, b);
          if (j != VL - 1) b = simd::rotate_down(b);
          wprev = v;
        }
        simd::collect_tops_arr(wbuf).storeu(tline + z);
      }
      for (; z <= pl.n; ++z) {
        const V v = f.apply(wprev, w, z);
        wl[z] = v;
        lout[z] = simd::shift_in_low(v, bline[z]);
        tline[z] = simd::top_lane(v);
        wprev = v;
      }
    }
  }

  // ---- flush surviving ring lanes into their levels -------------------------
  for (int p = x_end + 1; p <= x_end + s; ++p)
    flush_slab(rs.ring, p, rows, s, hi, pl);

  // ---- right wedges: levels ascending, lvl vl into the base grid last -------
  for (int l = 1; l <= VL; ++l)
    scalar_planes(hi, l, std::max(rows.xl(l), x_end + (VL - l) * s + 1),
                  rows.xr(l));
}

// Advance g by `sweeps` Gauss-Seidel sweeps.
template <class V, class F, class G>
void tv_gs_plane_run(const F& f, G& g, long sweeps, int s) {
  static_assert(simd::LaneGeneric<V> && simd::lane_layout_ok<V>);
  constexpr int VL = V::lanes;
  const PlaneShape pl = plane_shape(g);
  const auto rows = TileRows<VL>::full(g.nx(), 1);
  long t = 0;
  if (rows.vector_ok(s) && sweeps >= VL) {
    GsRing<V> rs;
    EdgePlanes<typename V::value_type> planes;  // levels 1..vl-1 at the edges
    rs.prepare(s, pl);
    planes.prepare(VL, s, g.nx(), pl);
    planes.copy_frames(g);
    for (; t + VL <= sweeps; t += VL)
      tv_gs_plane_tile<V>(f, g, planes, rs, rows, s);
  }
  for (; t < sweeps; ++t) detail::gs_sweep(f, g);
}

}  // namespace tvs::tv
