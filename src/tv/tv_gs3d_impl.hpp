// Temporal vectorization of the 3D7P Gauss-Seidel stencil (§3.4),
// generalized to any vector length vl = V::lanes.
//
// Update (ascending x, y, z):
//   a[x][y][z] <- cc*a[x][y][z]      + cw*a[x][y][z-1](new)
//              + ce*a[x][y][z+1]     + cs*a[x][y-1][z](new)
//              + cn*a[x][y+1][z]     + cb*a[x-1][y][z](new)
//              + cf*a[x+1][y][z]
//
// Newest-value forwarding needs one register (west, the previous z output)
// plus a single slab buffer `wslab`: during iteration x it is read at
// (y, z) for the newest *back* value (still holding the x-1 output) and at
// (y-1, z) for the newest *south* value (already overwritten with the
// current x output) — read-then-overwrite gives both for free.  Old values
// come from ring slabs x and x+1 (s+1 slots).  The flat engine runs in
// place with levels 1..vl-1 in edge scratch planes; the parallelogram
// driver (tiling/parallelogram2d.cpp) runs the same tile on sloped plane
// ranges with every level in the array itself.
#pragma once

#include <algorithm>
#include <cassert>

#include "grid/aligned.hpp"
#include "grid/grid3d.hpp"
#include "simd/reorg.hpp"
#include "simd/vec.hpp"
#include "stencil/coefficients.hpp"
#include "stencil/kernels.hpp"
#include "tv/ring.hpp"
#include "tv/tile.hpp"

namespace tvs::tv {

// Scratch for one flat run: the ring state and the edge planes holding
// levels 1..vl-1 (the flat engine's level-storage policy, tv/tile.hpp).
template <class V>
struct WorkspaceGs3D {
  GsRing<V> ring;
  EdgePlanes<typename V::value_type> planes;

  void prepare(int s, int nx, int ny, int nz) {
    ring.prepare(s, ny + 2, nz);
    planes.prepare(V::lanes, s, nx, ny + 2, nz);
  }
};

namespace detailgs3d {

// One scalar Gauss-Seidel plane of level l, y then z ascending: newest
// values (west, south, back) from level l — dst's own lines and the plane
// r-1 `back` — old values from level l-1's planes r and r+1.  dst may
// alias old (the single Gauss-Seidel array).
template <class T>
inline void gs_plane(const stencil::C3D7T<T>& c, LevelSlab<T> dst,
                     LevelSlab<T> old, LevelSlab<T> old_f, LevelSlab<T> back,
                     int ny, int nz) {
  for (int y = 1; y <= ny; ++y) {
    T* d = dst.line(y);
    const T* ds = dst.line(y - 1);
    const T* o = old.line(y);
    const T* on = old.line(y + 1);
    const T* of = old_f.line(y);
    const T* b = back.line(y);
    T west = d[0];
    for (int z = 1; z <= nz; ++z) {
      const T v = stencil::gs3d7(c.c, c.w, c.e, c.s, c.n, c.b, c.f, o[z], west,
                                 o[z + 1], ds[z], on[z], b[z], of[z]);
      d[z] = v;
      west = v;
    }
  }
}

}  // namespace detailgs3d

// One vl-sweep tile over the planes `rows`, with the level-storage
// contract of tv3d_tile.  s >= 2.
template <class V, class Levels>
void tv_gs3d_tile(const stencil::C3D7T<typename V::value_type>& c,
                  grid::Grid3D<typename V::value_type>& g, Levels& lev,
                  GsRing<V>& rs, const TileRows<V::lanes>& rows, int s,
                  bool scalar_only = false) {
  using T = typename V::value_type;
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
      detailgs3d::gs_plane(c, L(l, r), L(l - 1, r), L(l - 1, r + 1),
                           L(l, r - 1), ny, nz);
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

  // ---- gather ring slabs x_begin .. x_begin+s-1 and the initial wslab -------
  alignas(64) T lanes[VL];
  LevelSlab<T> src[VL];
  const auto gather = [&](SlabRing<V>& dst, int p) {
    for (int y = 0; y <= ny + 1; ++y) {
      V* line = dst.line(p, y);
      for (int z = 0; z <= nz + 1; ++z) {
        for (int k = 0; k < VL; ++k) lanes[k] = src[k].line(y)[z];
        line[z] = V::load(lanes);
      }
    }
  };
  for (int p = x_begin; p <= x_begin + s - 1; ++p) {
    for (int k = 0; k < VL; ++k)
      src[k] = lo(k, std::min(p + (VL - 1 - k) * s, nx + 1));
    gather(rs.ring, p);
  }
  // wslab lane k = lvl(k+1) @ plane x_begin-1 + (vl-1-k)s.
  for (int k = 0; k < VL; ++k)
    src[k] = lo(k + 1, x_begin - 1 + (VL - 1 - k) * s);
  gather(rs.w, 0);

  const V cc = V::set1(c.c), cw = V::set1(c.w), ce = V::set1(c.e),
          cs = V::set1(c.s), cn = V::set1(c.n), cb = V::set1(c.b),
          cf = V::set1(c.f);

  // ---- steady loop ----------------------------------------------------------
  for (int x = x_begin; x <= x_end; ++x) {
    // Boundary rows/columns of the produced slab.
    {
      const int p = x + s;
      const auto fill = [&](int y, int z) {
        for (int k = 0; k < VL; ++k)
          lanes[k] = g.at(std::min(p + (VL - 1 - k) * s, nx + 1), y, z);
        rs.ring.line(p, y)[z] = V::load(lanes);
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
    // Boundary row y = 0 of wslab: newest-south values are the constant
    // boundary plane at each lane's row.
    {
      V* line = rs.w.line(0, 0);
      for (int z = 0; z <= nz + 1; ++z) {
        for (int k = 0; k < VL; ++k)
          lanes[k] = g.at(x + (VL - 1 - k) * s, 0, z);
        line[z] = V::load(lanes);
      }
    }
    const int bx = std::min(x + VL * s, rows.read_cap);
    for (int y = 1; y <= ny; ++y) {
      const V* b0c = rs.ring.line(x, y);
      const V* b0p = rs.ring.line(x, y + 1);
      const V* bp1 = rs.ring.line(x + 1, y);
      V* lout = rs.ring.line(x + s, y);
      V* wsl = rs.w.line(0, y);         // (y,z): x-1 output until overwritten
      const V* wsm = rs.w.line(0, y - 1);  // (y-1,z): current-x output
      T* tline = g.line(x, y);
      const T* bline = g.line(bx, y);

      V wprev;
      {
        for (int k = 0; k < VL; ++k)
          lanes[k] = g.at(x + (VL - 1 - k) * s, y, 0);
        wprev = V::load(lanes);
      }

      int z = 1;
      V wbuf[VL];
      for (; z + VL - 1 <= nz; z += VL) {
        V bot = V::loadu(bline + z);
        for (int j = 0; j < VL; ++j) {
          const int zz = z + j;
          const V w = stencil::gs3d7(cc, cw, ce, cs, cn, cb, cf, b0c[zz],
                                     wprev, b0c[zz + 1], wsm[zz], b0p[zz],
                                     wsl[zz], bp1[zz]);
          wbuf[j] = w;
          wsl[zz] = w;
          lout[zz] = simd::shift_in_low_v(w, bot);
          if (j != VL - 1) bot = simd::rotate_down(bot);
          wprev = w;
        }
        simd::collect_tops_arr(wbuf).storeu(tline + z);
      }
      for (; z <= nz; ++z) {
        const V w = stencil::gs3d7(cc, cw, ce, cs, cn, cb, cf, b0c[z], wprev,
                                   b0c[z + 1], wsm[z], b0p[z], wsl[z], bp1[z]);
        wsl[z] = w;
        lout[z] = simd::shift_in_low(w, bline[z]);
        tline[z] = simd::top_lane(w);
        wprev = w;
      }
    }
  }

  // ---- flush surviving ring lanes into their levels -------------------------
  for (int p = x_end + 1; p <= x_end + s; ++p) {
    for (int k = 1; k <= VL - 1; ++k) {
      const int r = p + (VL - 1 - k) * s;
      if (r < rows.xl(k) || r > rows.xr(k)) continue;
      const LevelSlab<T> dst = hi(k, r);
      for (int y = 1; y <= ny; ++y) {
        const V* line = rs.ring.line(p, y);
        T* d = dst.line(y);
        for (int z = 1; z <= nz; ++z) d[z] = line[z][k];
      }
    }
  }

  // ---- right wedges: levels ascending, lvl vl into the base grid last -------
  for (int l = 1; l <= VL; ++l)
    scalar_planes(hi, l, std::max(rows.xl(l), x_end + (VL - l) * s + 1),
                  rows.xr(l));
}

// Advance g by `sweeps` Gauss-Seidel sweeps.
template <class V>
void tv_gs3d_run_impl(const stencil::C3D7T<typename V::value_type>& c,
                      grid::Grid3D<typename V::value_type>& g, long sweeps,
                      int s) {
  static_assert(simd::LaneGeneric<V> && simd::lane_layout_ok<V>);
  using T = typename V::value_type;
  constexpr int VL = V::lanes;
  WorkspaceGs3D<V> ws;
  ws.prepare(s, g.nx(), g.ny(), g.nz());
  const auto rows = TileRows<VL>::full(g.nx(), 1);
  long t = 0;
  if (rows.vector_ok(s) && sweeps >= VL) {
    ws.planes.copy_frames([&](int r, int y, int z) { return g.at(r, y, z); });
    EdgeSlabs<T> lev{&ws.planes};
    for (; t + VL <= sweeps; t += VL)
      tv_gs3d_tile<V>(c, g, lev, ws.ring, rows, s);
  }
  for (; t < sweeps; ++t)
    for (int r = 1; r <= g.nx(); ++r)
      detailgs3d::gs_plane(c, LevelSlab<T>::of(g, r), LevelSlab<T>::of(g, r),
                           LevelSlab<T>::of(g, r + 1),
                           LevelSlab<T>::of(g, r - 1), g.ny(), g.nz());
}

}  // namespace tvs::tv
