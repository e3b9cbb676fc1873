// Temporal vectorization of the 2D5P Gauss-Seidel stencil (§3.4),
// generalized to any vector length vl = V::lanes.
//
// Update (ascending x, then y):
//   a[x][y] <- cc*a[x][y] + cw*a[x][y-1](new) + ce*a[x][y+1]
//            + cs*a[x-1][y](new) + cn*a[x+1][y]
//
// On top of the Jacobi 2D ring (see tv2d_impl.hpp) the two newest-value
// operands are forwarded from output vectors, exactly as in the 1D
// Gauss-Seidel kernel:
//   * newest west  (x, y-1): the previous y iteration's output register;
//   * newest south (x-1, y): the previous x iteration's output at the same
//     column — buffered in one extra row of vectors, `wrow`, which is read
//     and then overwritten in place as the y loop advances.
// The ring needs only rows x .. x+s (window is {x, x+1}): s+1 slots.
// The flat engine runs in place on the single Gauss-Seidel array with
// levels 1..vl-1 in edge scratch planes; the parallelogram driver
// (tiling/parallelogram2d.cpp) runs the same tile on sloped row ranges
// with every level in the array itself.
#pragma once

#include <algorithm>
#include <cassert>

#include "grid/aligned.hpp"
#include "grid/grid2d.hpp"
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
struct WorkspaceGs2D {
  GsRing<V> ring;
  EdgePlanes<typename V::value_type> planes;

  void prepare(int s, int nx, int ny) {
    ring.prepare(s, 1, ny);
    planes.prepare(V::lanes, s, nx, 1, ny);
  }
};

namespace detailgs2d {

// One scalar Gauss-Seidel row of level l, in order of increasing y: the
// newest west value chains from dst[0], the newest south comes from level
// l's row r-1, old values from level l-1's rows r and r+1.  dst may alias
// old (the single Gauss-Seidel array).
template <class T>
inline void gs_row(const stencil::C2D5T<T>& c, T* dst, const T* old,
                   const T* old_n, const T* south, int ny) {
  T west = dst[0];
  for (int y = 1; y <= ny; ++y) {
    const T v = stencil::gs2d5(c.c, c.w, c.e, c.s, c.n, old[y], west,
                               old[y + 1], south[y], old_n[y]);
    dst[y] = v;
    west = v;
  }
}

}  // namespace detailgs2d

// One vl-sweep tile over the rows `rows`, with the level-storage contract
// of tv2d_tile.  s >= 2.
template <class V, class Levels>
void tv_gs2d_tile(const stencil::C2D5T<typename V::value_type>& c,
                  grid::Grid2D<typename V::value_type>& g, Levels& lev,
                  GsRing<V>& rs, const TileRows<V::lanes>& rows, int s,
                  bool scalar_only = false) {
  using T = typename V::value_type;
  constexpr int VL = V::lanes;
  const int nx = g.nx(), ny = g.ny();
  assert(s >= 2);

  const auto lo = [&](int l, int r) -> T* {
    return l == 0 || l == VL || r < 1 || r > nx ? g.row(r) : lev.lo(l, r);
  };
  const auto hi = [&](int l, int r) -> T* {
    return l == 0 || l == VL || r < 1 || r > nx ? g.row(r) : lev.hi(l, r);
  };
  const auto scalar_rows = [&](const auto& L, int l, int r0, int r1) {
    for (int r = r0; r <= r1; ++r)
      detailgs2d::gs_row(c, L(l, r), L(l - 1, r), L(l - 1, r + 1),
                         L(l, r - 1), ny);
  };

  const int x_begin = rows.x_begin(s), x_end = rows.x_end(s);
  if (scalar_only || !rows.vector_ok(s)) {
    for (int l = 1; l <= VL; ++l) scalar_rows(lo, l, rows.xl(l), rows.xr(l));
    return;
  }

  // ---- left wedges, levels ascending ----------------------------------------
  for (int l = 1; l <= VL - 1; ++l)
    scalar_rows(lo, l, rows.xl(l),
                std::min(rows.xr(l), x_begin + (VL - l) * s - 1));
  scalar_rows(lo, VL, rows.xl(VL), x_begin - 1);

  // ---- gather: ring rows x_begin .. x_begin+s-1 and the initial wrow --------
  alignas(64) T lanes[VL];
  const auto gather = [&](V* row, const T* const* src) {
    for (int y = 0; y <= ny + 1; ++y) {
      for (int k = 0; k < VL; ++k) lanes[k] = src[k][y];
      row[y] = V::load(lanes);
    }
  };
  const T* src[VL];
  for (int p = x_begin; p <= x_begin + s - 1; ++p) {
    for (int k = 0; k < VL; ++k)
      src[k] = lo(k, std::min(p + (VL - 1 - k) * s, nx + 1));
    gather(rs.ring.row(p), src);
  }
  // wrow lane k = lvl(k+1) @ row x_begin-1 + (vl-1-k)s: the wedges' tips.
  for (int k = 0; k < VL; ++k)
    src[k] = lo(k + 1, x_begin - 1 + (VL - 1 - k) * s);
  gather(rs.w.row(0), src);

  const V cc = V::set1(c.c), cw = V::set1(c.w), ce = V::set1(c.e),
          cs = V::set1(c.s), cn = V::set1(c.n);

  // ---- steady loop ----------------------------------------------------------
  V* wr = rs.w.row(0);
  for (int x = x_begin; x <= x_end; ++x) {
    const V* r0 = rs.ring.row(x);
    const V* rp1 = rs.ring.row(x + 1);
    V* rout = rs.ring.row(x + s);
    T* trow = g.row(x);
    const T* brow = g.row(std::min(x + VL * s, rows.read_cap));

    // Boundary columns of the produced input-vector row.
    {
      const int p = x + s;
      for (const int y : {0, ny + 1}) {
        for (int k = 0; k < VL; ++k)
          lanes[k] = g.at(std::min(p + (VL - 1 - k) * s, nx + 1), y);
        rout[y] = V::load(lanes);
      }
    }
    // Newest-west at y = 0: the boundary column at each lane's row.
    V wprev;
    {
      for (int k = 0; k < VL; ++k) lanes[k] = g.at(x + (VL - 1 - k) * s, 0);
      wprev = V::load(lanes);
    }

    int y = 1;
    V wbuf[VL];
    for (; y + VL - 1 <= ny; y += VL) {
      V bot = V::loadu(brow + y);
      for (int j = 0; j < VL; ++j) {
        const int yy = y + j;
        const V w = stencil::gs2d5(cc, cw, ce, cs, cn, r0[yy], wprev,
                                   r0[yy + 1], wr[yy], rp1[yy]);
        wbuf[j] = w;
        wr[yy] = w;  // becomes the newest-south for iteration x+1
        rout[yy] = simd::shift_in_low_v(w, bot);
        if (j != VL - 1) bot = simd::rotate_down(bot);
        wprev = w;
      }
      simd::collect_tops_arr(wbuf).storeu(trow + y);
    }
    for (; y <= ny; ++y) {
      const V w = stencil::gs2d5(cc, cw, ce, cs, cn, r0[y], wprev, r0[y + 1],
                                 wr[y], rp1[y]);
      wr[y] = w;
      rout[y] = simd::shift_in_low(w, brow[y]);
      trow[y] = simd::top_lane(w);
      wprev = w;
    }
  }

  // ---- flush surviving ring lanes into their levels -------------------------
  for (int p = x_end + 1; p <= x_end + s; ++p) {
    const V* row = rs.ring.row(p);
    for (int k = 1; k <= VL - 1; ++k) {
      const int r = p + (VL - 1 - k) * s;
      if (r < rows.xl(k) || r > rows.xr(k)) continue;
      T* dst = hi(k, r);
      for (int y = 1; y <= ny; ++y) dst[y] = row[y][k];
    }
  }

  // ---- right wedges: levels ascending, lvl vl into the base grid last -------
  for (int l = 1; l <= VL; ++l)
    scalar_rows(hi, l, std::max(rows.xl(l), x_end + (VL - l) * s + 1),
                rows.xr(l));
}

// Advance g by `sweeps` Gauss-Seidel sweeps.
template <class V>
void tv_gs2d_run_impl(const stencil::C2D5T<typename V::value_type>& c,
                      grid::Grid2D<typename V::value_type>& g, long sweeps,
                      int s) {
  static_assert(simd::LaneGeneric<V> && simd::lane_layout_ok<V>);
  constexpr int VL = V::lanes;
  WorkspaceGs2D<V> ws;
  ws.prepare(s, g.nx(), g.ny());
  const auto rows = TileRows<VL>::full(g.nx(), 1);
  long t = 0;
  if (rows.vector_ok(s) && sweeps >= VL) {
    ws.planes.copy_frames([&](int r, int, int y) { return g.at(r, y); });
    for (; t + VL <= sweeps; t += VL)
      tv_gs2d_tile<V>(c, g, ws.planes, ws.ring, rows, s);
  }
  for (; t < sweeps; ++t)
    for (int r = 1; r <= g.nx(); ++r)
      detailgs2d::gs_row(c, g.row(r), g.row(r), g.row(r + 1), g.row(r - 1),
                         g.ny());
}

}  // namespace tvs::tv
