// Temporal vectorization of the 1D3P *Gauss-Seidel* stencil (§3.4),
// generalized to any vector length vl = V::lanes.
//
// Gauss-Seidel updates in place, sweeping x ascending:
//
//     a[x] <- cw*a[x-1](newest) + cc*a[x](old) + ce*a[x+1](old)
//
// Every loop of the naive code carries a dependence, so no spatial
// vectorization is legal — this scheme is, to the paper's knowledge, the
// first SIMD execution of Gauss-Seidel stencils.  The temporal layout is
// the same as the Jacobi kernel's (lane k = level k, top position p):
//
//   input  u(p) = [ lvl0 @ p+(vl-1)s , ... , lvl(vl-1) @ p ]
//   output w(x) = [ lvl1 @ x+(vl-1)s , ... , lvl(vl)  @ x ]
//
// The only difference from Jacobi: the *newest west* operand of lane k,
// lvl(k+1) @ (x-1 + (vl-1-k)s), is exactly lane k of the previous
// iteration's output vector — so the (dt=0, dx=-1) dependence is satisfied
// by keeping w as a loop-carried register (the paper: "the temporal
// vectorization uses their corresponding output vectors").  Legality needs
// s >= 2 (old east dependence (1,1)); the serial w chain is inherent to
// Gauss-Seidel.
//
// Structure (left wedges / gather / steady / flush / right wedges over the
// per-level ranges of tv/tile.hpp) mirrors tv1d_impl.hpp; the scalar wedges
// chain the newest-west value exactly like the in-place scalar sweep, so
// results are bit-identical to the oracle.  The parallelogram driver
// (tiling/parallelogram.cpp) runs the same tile on sloped rows with every
// level in the single Gauss-Seidel array.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>

#include "grid/grid1d.hpp"
#include "simd/reorg.hpp"
#include "simd/vec.hpp"
#include "stencil/coefficients.hpp"
#include "stencil/kernels.hpp"
#include "tv/ring.hpp"       // kMaxStride, kRingCapacity, RingIndex
#include "tv/tile.hpp"
#include "tv/tv1d_impl.hpp"  // Workspace1D

namespace tvs::tv {

// One vl-sweep temporally vectorized Gauss-Seidel tile over the rows
// `rows`; levels 0 and vl are the base array `a`, levels 1..vl-1 live where
// the level-storage policy `lev` says (see tv1d_tile for the lo/hi
// contract and the scalar fallback).  Requires s >= 2.
template <class V, class Levels>
void tv_gs1d_tile(const stencil::C1D3T<typename V::value_type>& c,
                  typename V::value_type* a, Levels& lev,
                  const TileRows<V::lanes>& rows, int s,
                  bool scalar_only = false) {
  static_assert(simd::LaneGeneric<V> && simd::lane_layout_ok<V>);
  using T = typename V::value_type;
  constexpr int VL = V::lanes;
  const int M = s;  // ring slots: live positions [x, x+s-1]
  assert(s >= 2 && s <= kMaxStride);

  LevelLine<T> lo[VL + 1], hi[VL + 1];
  lo[0] = hi[0] = lo[VL] = hi[VL] = LevelLine<T>{a, 0};
  for (int l = 1; l <= VL - 1; ++l) {
    lo[l] = lev.lo(l);
    hi[l] = lev.hi(l);
  }

  // Scalar Gauss-Seidel sweep of level l over [x0, x1]: the newest west
  // value chains from level l at x0-1, old values come from level l-1.
  const auto scalar_range = [&](const LevelLine<T>* L, int l, int x0,
                                int x1) {
    // Right-edge parallelogram tiles can clamp a level to an empty range
    // with x0 far beyond nx; bail before touching x0 - 1.
    if (x0 > x1) return;
    const LevelLine<T> src = L[l - 1], dst = L[l];
    T west = dst[x0 - 1];
    for (int x = x0; x <= x1; ++x) {
      const T v = stencil::gs1d3(c.w, c.c, c.e, west, src[x], src[x + 1]);
      dst[x] = v;
      west = v;
    }
  };

  const int x_begin = rows.x_begin(s), x_end = rows.x_end(s);
  if (scalar_only || !rows.vector_ok(s)) {
    for (int l = 1; l <= VL; ++l) scalar_range(lo, l, rows.xl(l), rows.xr(l));
    return;
  }

  // ---- left wedges, levels ascending ---------------------------------------
  for (int l = 1; l <= VL - 1; ++l)
    scalar_range(lo, l, rows.xl(l),
                 std::min(rows.xr(l), x_begin + (VL - l) * s - 1));
  scalar_range(lo, VL, rows.xl(VL), x_begin - 1);

  // ---- gather: ring positions [x_begin, x_begin+s-1] and the initial w -----
  std::array<V, kRingCapacity> ring;
  const RingIndex rix(M);
  for (int p = x_begin; p <= x_begin + s - 1; ++p) {
    alignas(64) T lanes[VL];
    for (int k = 0; k < VL; ++k) lanes[k] = lo[k][p + (VL - 1 - k) * s];
    ring[static_cast<std::size_t>(rix.slot(p))] = V::load(lanes);
  }
  V w;  // lane k = lvl(k+1) @ (x-1 + (vl-1-k)s): the left wedges' tips
  {
    alignas(64) T lanes[VL];
    for (int k = 0; k < VL; ++k)
      lanes[k] = lo[k + 1][x_begin - 1 + (VL - 1 - k) * s];
    w = V::load(lanes);
  }

  const V cw = V::set1(c.w), cc = V::set1(c.c), ce = V::set1(c.e);

  // ---- steady loop (bottom reads capped as in tv1d_tile) -------------------
  const int x_fast = std::min(x_end, rows.read_cap - VL * s);
  int ic = rix.slot(x_begin);  // slot of the center vector (position x)
  int x = x_begin;
  V wbuf[VL];
  for (; x + VL - 1 <= x_fast; x += VL) {
    V bot = V::loadu(a + x + VL * s);
    for (int j = 0; j < VL; ++j) {
      const int ie = rix.inc(ic);
      wbuf[j] = stencil::gs1d3(cw, cc, ce, w, ring[ic], ring[ie]);
      ring[ic] = simd::shift_in_low_v(wbuf[j], bot);
      if (j != VL - 1) bot = simd::rotate_down(bot);
      w = wbuf[j];
      ic = ie;
    }
    simd::collect_tops_arr(wbuf).storeu(a + x);
  }
  for (; x <= x_end; ++x) {
    const int ie = rix.inc(ic);
    const V wv = stencil::gs1d3(cw, cc, ce, w, ring[ic], ring[ie]);
    ring[ic] = simd::shift_in_low(wv, a[std::min(x + VL * s, rows.read_cap)]);
    a[x] = simd::top_lane(wv);
    w = wv;
    ic = ie;
  }

  // ---- flush surviving ring lanes into their levels -------------------------
  for (int p = x_end + 1; p <= x_end + s; ++p) {
    const V& u = ring[static_cast<std::size_t>(rix.slot(p))];
    for (int k = 1; k <= VL - 1; ++k) {
      const int q = p + (VL - 1 - k) * s;
      if (q >= rows.xl(k) && q <= rows.xr(k)) hi[k][q] = u[k];
    }
  }

  // ---- right wedges (levels ascending; lvl vl into the base array last) -----
  for (int l = 1; l <= VL; ++l)
    scalar_range(hi, l, std::max(rows.xl(l), x_end + (VL - l) * s + 1),
                 rows.xr(l));
}

// Advance `u` by `sweeps` Gauss-Seidel sweeps (vl per vector tile).
template <class V>
void tv_gs1d_run_impl(const stencil::C1D3T<typename V::value_type>& c,
                      grid::Grid1D<typename V::value_type>& u, long sweeps,
                      int s) {
  using T = typename V::value_type;
  constexpr int VL = V::lanes;
  assert(s >= 2);
  T* a = u.p();
  const int nx = u.nx();
  Workspace1D<T> ws;
  ws.prepare(s, nx, 1, VL);
  const auto rows = TileRows<VL>::full(nx, 1);
  long t = 0;
  if (rows.vector_ok(s) && sweeps >= VL) {
    ws.copy_boundaries(a);
    for (; t + VL <= sweeps; t += VL) tv_gs1d_tile<V>(c, a, ws, rows, s);
  }
  for (; t < sweeps; ++t) {
    T west = a[0];
    for (int x = 1; x <= nx; ++x) {
      const T v = stencil::gs1d3(c.w, c.c, c.e, west, a[x], a[x + 1]);
      a[x] = v;
      west = v;
    }
  }
}

}  // namespace tvs::tv
