// Temporal vectorization for 2D stencils (§3.2 "High-dimensional stencils").
//
// The stride-s lanes live on the *outermost* space dimension x (rows); the
// inner y loop runs over whole rows.  Unlike the 1D kernel, the reorganized
// input vectors cannot stay in registers — each x iteration produces a full
// row of them, consumed s iterations later — so they are stored in a ring
// of s+2 rows of vectors (vl = V::lanes: 4/8 for doubles, 8/16 for int32,
// or any ScalarVec width the tests instantiate):
//
//   ring(p)[y] = [ lvl0 @ (p+(vl-1)s, y) , ... , lvl(vl-1) @ (p, y) ]
//
// This ring is the paper's "transposed data layout" made explicit: one
// aligned vector store per produced input vector, one aligned load per
// consumed one (§3.3).  Everything else mirrors the 1D kernel over the
// per-level row ranges of tv/tile.hpp: scalar left wedges forward rows to
// each level, the steady loop advances whole rows vl time steps with
// grouped top stores / bottom loads along y, the ring is flushed into the
// levels, and scalar right wedges finish each level.  The flat engine
// updates the main array in place (the top-row write at x trails every
// bottom read at x+vl*s) with levels 1..vl-1 in two edge scratch planes;
// the diamond driver (tiling/diamond2d.cpp) runs the same tile on clipped
// row ranges with its levels in the two parity grids.
//
// The stencil functor F supplies (V = vector type, T = element type):
//   static constexpr int radius = 1;
//   V apply(const V* rm1, const V* r0, const V* rp1, int y)
//       — rm1/r0/rp1 are ring rows for x-1, x, x+1, indexable at y-1..y+1;
//   T apply_scalar(At&& at, int r, int y)
//       — `at(r, y)` reads the previous level.
#pragma once

#include <algorithm>
#include <cassert>
#include <utility>

#include "grid/aligned.hpp"
#include "grid/grid2d.hpp"
#include "simd/reorg.hpp"
#include "simd/vec.hpp"
#include "tv/ring.hpp"
#include "tv/tile.hpp"

namespace tvs::tv {

// Scratch for one flat 2D run: ring rows, the edge planes holding levels
// 1..vl-1 (the flat engine's level-storage policy, tv/tile.hpp) and a
// residual-step grid, allocated only when a residual step runs.
template <class V, class T>
struct Workspace2D {
  SlabRing<V> ring;       // s+2 rows of input vectors
  EdgePlanes<T> planes;   // levels 1..vl-1 at the two edges
  grid::Grid2D<T> tmp;    // residual / fallback ping-pong partner

  void prepare(int s, int nx, int ny) {
    ring.prepare(s + 2, 1, ny);
    planes.prepare(V::lanes, s, nx, 1, ny);
  }
  grid::Grid2D<T>& residual(int nx, int ny) {
    if (tmp.nx() != nx || tmp.ny() != ny) tmp = grid::Grid2D<T>(nx, ny);
    return tmp;
  }
};

namespace detail2d {

// One scalar row of level l: dst[y] from the level-(l-1) rows r-1, r, r+1.
template <class F, class T>
void scalar_row(const F& f, T* dst, const T* sm, const T* s0, const T* sp,
                int r, int ny) {
  const T* const rows[3] = {sm, s0, sp};
  const auto at = [&](int rr, int y) -> T { return rows[rr - r + 1][y]; };
  for (int y = 1; y <= ny; ++y) dst[y] = f.apply_scalar(at, r, y);
}

// Plain scalar steps for grids too small for the pipeline and for the
// T % vl residual.
template <class F, class T>
void scalar_steps(const F& f, grid::Grid2D<T>& g, grid::Grid2D<T>& tmp,
                  int nsteps) {
  const int nx = g.nx(), ny = g.ny();
  for (int t = 0; t < nsteps; ++t) {
    const auto at = [&](int r, int y) -> T { return g.at(r, y); };
    for (int r = 1; r <= nx; ++r)
      for (int y = 1; y <= ny; ++y) tmp.at(r, y) = f.apply_scalar(at, r, y);
    for (int r = 1; r <= nx; ++r)
      for (int y = 1; y <= ny; ++y) g.at(r, y) = tmp.at(r, y);
  }
}

}  // namespace detail2d

// One vl-step temporally vectorized tile over the rows `rows`.  Levels 0
// and vl are the base grid g (as are the boundary rows 0 and nx+1 of every
// level); levels 1..vl-1 live where the level-storage policy `lev` says
// (lo(l, r) / hi(l, r) return row pointers; see tv/tile.hpp).  `ring`
// holds s+2 rows.  With scalar_only, or when the steady interval is
// shorter than vl, every level is updated in scalar, levels ascending,
// through lev.lo — a path only the tiled drivers take.  s >= 2.
//
// Re = the redundancy-eliminated inner loop (arXiv:2103.08825 /
// 2103.09235, see tv2d_re_impl.hpp): identical wedges / gather / flush and
// bit-identical arithmetic, but each produced ring vector costs ONE
// shuffle (simd::retire_shift_in) and the functor's F::Carry slides the
// shared column operands in registers across consecutive y.
template <class V, class F, class T, bool Re = false, class Levels>
void tv2d_tile(const F& f, grid::Grid2D<T>& g, Levels& lev, SlabRing<V>& ring,
               const TileRows<V::lanes>& rows, int s,
               bool scalar_only = false) {
  static_assert(F::radius == 1, "2D engine covers radius-1 stencils");
  constexpr int VL = V::lanes;
  const int nx = g.nx(), ny = g.ny();
  assert(s >= 2);

  // Row r of level l for the left wedges / gather (lo) and for the flush /
  // right wedges (hi) — one policy call per row, never per point.
  const auto lo = [&](int l, int r) -> T* {
    return l == 0 || l == VL || r < 1 || r > nx ? g.row(r) : lev.lo(l, r);
  };
  const auto hi = [&](int l, int r) -> T* {
    return l == 0 || l == VL || r < 1 || r > nx ? g.row(r) : lev.hi(l, r);
  };
  // Scalar rows of level l over [r0, r1].
  const auto scalar_rows = [&](const auto& L, int l, int r0, int r1) {
    for (int r = r0; r <= r1; ++r)
      detail2d::scalar_row(f, L(l, r), L(l - 1, r - 1), L(l - 1, r),
                           L(l - 1, r + 1), r, ny);
  };

  const int x_begin = rows.x_begin(s), x_end = rows.x_end(s);
  if (scalar_only || !rows.vector_ok(s)) {
    for (int l = 1; l <= VL; ++l) scalar_rows(lo, l, rows.xl(l), rows.xr(l));
    return;
  }

  // ---- left wedges (levels ascending, final level last) --------------------
  for (int l = 1; l <= VL - 1; ++l)
    scalar_rows(lo, l, rows.xl(l),
                std::min(rows.xr(l), x_begin + (VL - l) * s - 1));
  scalar_rows(lo, VL, rows.xl(VL), x_begin - 1);

  // ---- gather ring rows p = x_begin-1 .. x_begin+s-1 ------------------------
  alignas(64) T lanes[VL];
  for (int p = x_begin - 1; p <= x_begin + s - 1; ++p) {
    V* row = ring.row(p);
    const T* src[VL];
    for (int k = 0; k < VL; ++k)
      src[k] = lo(k, std::min(p + (VL - 1 - k) * s, nx + 1));
    for (int y = 0; y <= ny + 1; ++y) {
      for (int k = 0; k < VL; ++k) lanes[k] = src[k][y];
      row[y] = V::load(lanes);
    }
  }

  // ---- steady loop ----------------------------------------------------------
  for (int x = x_begin; x <= x_end; ++x) {
    const V* rm1 = ring.row(x - 1);
    const V* r0 = ring.row(x);
    const V* rp1 = ring.row(x + 1);
    V* rout = ring.row(x + s);
    T* trow = g.row(x);
    // Bottom rows past the read cap are never consumed: clamp (tile.hpp).
    const T* brow = g.row(std::min(x + VL * s, rows.read_cap));

    // Boundary columns of the produced row: constant at every level.
    {
      const int p = x + s;
      for (const int y : {0, ny + 1}) {
        for (int k = 0; k < VL; ++k)
          lanes[k] = g.at(std::min(p + (VL - 1 - k) * s, nx + 1), y);
        rout[y] = V::load(lanes);
      }
    }

    if constexpr (Re) {
      // Redundancy-eliminated inner loop: one retire_shift_in shuffle per
      // produced vector (tops stream out scalar, fresh bottoms stream in
      // scalar) and the functor's Carry slides the shared column operands
      // in registers.  Bit-identical to the baseline loop below.
      typename F::Carry carry(rm1, r0, rp1);
      for (int y = 1; y <= ny; ++y) {
        const V w = carry.apply(f, rm1, r0, rp1, y);
        rout[y] = simd::retire_shift_in(w, brow[y], &trow[y]);
      }
    } else {
      int y = 1;
      V wbuf[VL];
      for (; y + VL - 1 <= ny; y += VL) {
        V bot = V::loadu(brow + y);
        for (int j = 0; j < VL - 1; ++j) {
          wbuf[j] = f.apply(rm1, r0, rp1, y + j);
          rout[y + j] = simd::shift_in_low_v(wbuf[j], bot);
          bot = simd::dispense_low(bot);
        }
        wbuf[VL - 1] = f.apply(rm1, r0, rp1, y + VL - 1);
        rout[y + VL - 1] = simd::shift_in_low_v(wbuf[VL - 1], bot);
        simd::collect_tops_arr(wbuf).storeu(trow + y);
      }
      for (; y <= ny; ++y) {
        const V w = f.apply(rm1, r0, rp1, y);
        rout[y] = simd::shift_in_low(w, brow[y]);
        trow[y] = simd::top_lane(w);
      }
    }
  }

  // ---- flush surviving ring lanes into their levels -------------------------
  for (int p = x_end; p <= x_end + s; ++p) {
    const V* row = ring.row(p);
    for (int k = 1; k <= VL - 1; ++k) {
      const int r = p + (VL - 1 - k) * s;
      if (r < rows.xl(k) || r > rows.xr(k)) continue;
      T* dst = hi(k, r);
      for (int y = 1; y <= ny; ++y) dst[y] = row[y][k];
    }
  }

  // ---- right wedges (levels ascending; the final level writes to the base
  // grid last so level 1 can still read lvl0) ---------------------------------
  for (int l = 1; l <= VL; ++l)
    scalar_rows(hi, l, std::max(rows.xl(l), x_end + (VL - l) * s + 1),
                rows.xr(l));
}

// Advance g by `steps` time steps (vl per tile + scalar residual).
template <class V, class F, class T, bool Re = false>
void tv2d_run(const F& f, grid::Grid2D<T>& g, long steps, int s,
              Workspace2D<V, T>& ws) {
  static_assert(simd::LaneGeneric<V> && simd::lane_layout_ok<V>);
  constexpr int VL = V::lanes;
  ws.prepare(s, g.nx(), g.ny());
  const auto rows = TileRows<VL>::full(g.nx(), F::radius);
  long t = 0;
  if (rows.vector_ok(s) && steps >= VL) {
    ws.planes.copy_frames([&](int r, int, int y) { return g.at(r, y); });
    for (; t + VL <= steps; t += VL)
      tv2d_tile<V, F, T, Re>(f, g, ws.planes, ws.ring, rows, s);
  }
  if (t < steps)
    detail2d::scalar_steps(f, g, ws.residual(g.nx(), g.ny()),
                           static_cast<int>(steps - t));
}

}  // namespace tvs::tv
