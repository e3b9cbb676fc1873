// Temporal vectorization, 1D Jacobi and Gauss-Seidel kernels — the
// paper's Algorithm 3 (§3.4 for Gauss-Seidel) generalized to any stencil
// radius R, any legal space stride s, and any vector length vl = V::lanes.
//
// Vector layout (lane 0 is the lowest):
//
//   input  u(p) = [ lvl0 @ p+(vl-1)s , lvl1 @ p+(vl-2)s , ... , lvl(vl-1) @ p ]
//   output w(p) = [ lvl1 @ p+(vl-1)s , lvl2 @ p+(vl-2)s , ... , lvl(vl)  @ p ]
//
// where `lvl k` is the value after k of the tile's vl time steps and p is
// the vector's *top position*.  One vector stencil application advances all
// vl lanes one time step.  The top lane of w (lvl vl @ p) is finished and
// is written back; the rest shift up one lane, a fresh lvl0 element enters
// at lane 0, and the result is the input vector for position p+s, consumed
// s iterations later (the ILP-distance knob of §3.3).
//
// One vl-step tile (src/tv/tile.hpp has the per-level ranges [XL[l],
// XR[l]] every tile walks; the flat engine's are the whole line, interior
// x = 1..nx, Dirichlet cells at x <= 0 and x >= nx+1) does:
//
//   left wedges (scalar)  lvl l over [XL[l], x_begin+(vl-l)s-1]
//   gather                ring vectors for top positions
//                         x_begin-R .. x_begin+s-1
//   steady      (vector)  x = x_begin .. x_end, grouped top stores / bottom
//                         loads, bottom reads capped at the tile's read_cap
//   flush                 dump surviving ring lanes into their levels
//   right wedges (scalar) lvl l over [x_end+(vl-l)s+1, XR[l]], lvl vl last
//
// The flat engine updates the array *in place*: the lvl vl write at x
// trails every lvl0 read (all at >= x+vl*s), which is how the paper halves
// the memory traffic of Jacobi stencils (§3.5).  Intermediate levels live
// only in registers except for the O(vl*s) scratch at the two edges — the
// "84 scalar points per tile for s=7" of the evaluation section at vl = 4;
// the scalar area grows with vl^2*s/2 at wider lengths.  The diamond
// driver (tiling/diamond.cpp) runs the same tile on a sloped, clipped
// interval with its levels in the two parity arrays, the parallelogram
// driver (tiling/parallelogram.cpp) on sloped rows with every level in the
// single Gauss-Seidel array.
//
// Gauss-Seidel sweeps x ascending in place, a[x] <- f(a[x-1](newest),
// a[x](old), a[x+1](old)): every loop of the naive code carries a
// dependence, so no spatial vectorization is legal.  In the temporal
// layout the newest west operand of lane k, lvl(k+1) @ (x-1 + (vl-1-k)s),
// is exactly lane k of the previous iteration's output vector, so the
// steady loop carries it in a register (the paper: "the temporal
// vectorization uses their corresponding output vectors") and the ring
// keeps only positions x .. x+s-1: west lag 0 instead of R (tv/ring.hpp).
// The scalar wedges chain the newest west value like the in-place sweep,
// so results are bit-identical to the oracle.  Legality needs s >= 2.
//
// The stencil functor F supplies:
//   static constexpr int radius;
//   static constexpr bool newest_west;  — win[0..R-1] the newest values
//   V      apply(const V* win)      — win[0..2R], west-most first
//   T      apply_scalar(const T* win)   — T = V::value_type
//
// Everything here is templated on the vector type V so the identical
// algorithm runs on the scalar backend in tests and at any width
// (ScalarVec<double, N>) the width-property suite asks for.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <vector>

#include "grid/grid1d.hpp"
#include "simd/reorg.hpp"
#include "simd/vec.hpp"
#include "tv/ring.hpp"  // kMaxStride, kRingCapacity, RingIndex
#include "tv/tile.hpp"

namespace tvs::tv {

// Reusable scratch for one flat run (avoids per-tile allocation): the
// edge lines of levels 1..vl-1 and the scalar-fallback line.  Templated on
// the element type T (double or float).  The left lines cover
// x in [1-R, (vl-1)s], the right lines x in [rbase+1, nx+R]; both hold
// copies of the boundary cells they reach past the interior.
template <class T>
struct Workspace1D {
  std::vector<T> left;   // vl-1 levels, left wedges + gather
  std::vector<T> right;  // vl-1 levels, flush + right wedges
  std::vector<T> sbuf;   // scalar-fallback ping-pong line
  int s = 0, nx = 0, vl = 0, radius = 0;
  int llen = 0, rlen = 0, rbase = 0;  // per-level extents, right anchor

  void prepare(int stride, int n, int r, int lanes) {
    s = stride;
    nx = n;
    vl = lanes;
    radius = r;
    llen = (vl - 1) * s + r + 1;
    rbase = nx - (vl - 1) * s - r;  // right lines start at x_end + 1 - R
    rlen = nx + r - rbase + 1;
    left.assign(static_cast<std::size_t>(vl - 1) * llen, T{0});
    right.assign(static_cast<std::size_t>(vl - 1) * rlen, T{0});
  }
  // Level l (1 .. vl-1) as seen by the left wedges / gather (lo) and by the
  // flush / right wedges (hi) — the flat engine's level-storage policy.
  LevelLine<T> lo(int lev) {
    return {left.data() + static_cast<std::size_t>(lev - 1) * llen + radius, 0};
  }
  LevelLine<T> hi(int lev) {
    return {right.data() + static_cast<std::size_t>(lev - 1) * rlen, rbase};
  }
  // Boundary cells are fixed for the whole run: copy them once.
  void copy_boundaries(const T* a) {
    for (int lev = 1; lev <= vl - 1; ++lev) {
      for (int x = 1 - radius; x <= 0; ++x) lo(lev)[x] = a[x];
      for (int x = nx + 1; x <= nx + radius; ++x) hi(lev)[x] = a[x];
    }
  }
};

namespace detail {

// One scalar level over [x0, x1]: dst[x] from the window around x on src.
// A newest-west (Gauss-Seidel) functor takes its x-R .. x-1 operands from
// dst, the level being written, chained through registers like the
// in-place sweep, so dst may alias src.  Serves the tile's wedges, the
// flat residual steps, the diamond's residual steps and the
// parallelogram's residual sweeps.
template <class F, class T>
void scalar_span(const F& f, LevelLine<T> dst, LevelLine<T> src, int x0,
                 int x1) {
  constexpr int R = F::radius;
  constexpr int k0 = F::newest_west ? R : 0;  // first operand read from src
  // Right-edge parallelogram tiles can clamp a level to an empty range
  // with x0 far beyond nx; bail before touching x0 - R.
  if (x0 > x1) return;
  T win[2 * R + 1];
  for (int k = 0; k < k0; ++k) win[k] = dst[x0 - R + k];
  for (int x = x0; x <= x1; ++x) {
    for (int k = k0; k <= 2 * R; ++k) win[k] = src[x - R + k];
    const T v = f.apply_scalar(win);
    dst[x] = v;
    if constexpr (F::newest_west) {
      for (int k = 0; k + 1 < R; ++k) win[k] = win[k + 1];
      win[R - 1] = v;
    }
  }
}

// Plain scalar time steps (used for nx too small for the vector pipeline
// and for the T % vl residual; a Gauss-Seidel run reaches them only at 4
// lanes or fewer).  A Gauss-Seidel step sweeps in place; a Jacobi step
// ping-pongs through ws.sbuf.
template <class F, class T>
void scalar_steps(const F& f, T* a, int nx, long nsteps,
                  Workspace1D<T>& ws) {
  if (nsteps <= 0) return;  // before the scratch line is sized and zeroed
  const LevelLine<T> line{a, 0};
  if constexpr (F::newest_west) {
    for (long t = 0; t < nsteps; ++t) scalar_span(f, line, line, 1, nx);
  } else {
    const std::size_t len = static_cast<std::size_t>(nx) + 1;
    if (ws.sbuf.size() < len) ws.sbuf.resize(len);
    T* b = ws.sbuf.data();  // b[1..nx]
    for (long t = 0; t < nsteps; ++t) {
      scalar_span(f, LevelLine<T>{b, 0}, line, 1, nx);
      std::copy(b + 1, b + nx + 1, a + 1);
    }
  }
}

// Compile-time-unrolled steady loop for the paper's 1D3P default (vl = 4,
// s = 7, R = 1, ring of 8 input vectors): the ring lives in eight named
// registers and every slot index is a constant, reproducing the paper's
// 13-vector-register implementation (§3.4).  x must start at 1 (slot
// arithmetic assumes x == 1 mod 8); returns the first unprocessed x.
template <class V, class F>
int steady_s7(const F& f, typename V::value_type* a, int x_end,
              std::array<V, kRingCapacity>& ring) {
  static_assert(V::lanes == 4);
  // Deliberately width-pinned fast path (see static_assert above).
  // tvslint: allow(R4)
  V r0 = ring[0], r1 = ring[1], r2 = ring[2], r3 = ring[3], r4 = ring[4],
    r5 = ring[5], r6 = ring[6], r7 = ring[7];
  int x = 1;
  for (; x + 7 <= x_end; x += 8) {
    // iterations j = 0..3: windows (r_j, r_j+1, r_j+2), produce into r_j
    V bot = V::loadu(a + x + 28);
    const V w0 = f.apply3(r0, r1, r2);
    r0 = simd::shift_in_low_v(w0, bot);
    bot = simd::dispense_low(bot);
    const V w1 = f.apply3(r1, r2, r3);
    r1 = simd::shift_in_low_v(w1, bot);
    bot = simd::dispense_low(bot);
    const V w2 = f.apply3(r2, r3, r4);
    r2 = simd::shift_in_low_v(w2, bot);
    bot = simd::dispense_low(bot);
    const V w3 = f.apply3(r3, r4, r5);
    r3 = simd::shift_in_low_v(w3, bot);
    simd::collect_tops(w0, w1, w2, w3).storeu(a + x);
    // iterations j = 4..7 (windows wrap into the freshly produced slots)
    bot = V::loadu(a + x + 32);
    const V w4 = f.apply3(r4, r5, r6);
    r4 = simd::shift_in_low_v(w4, bot);
    bot = simd::dispense_low(bot);
    const V w5 = f.apply3(r5, r6, r7);
    r5 = simd::shift_in_low_v(w5, bot);
    bot = simd::dispense_low(bot);
    const V w6 = f.apply3(r6, r7, r0);
    r6 = simd::shift_in_low_v(w6, bot);
    bot = simd::dispense_low(bot);
    const V w7 = f.apply3(r7, r0, r1);
    r7 = simd::shift_in_low_v(w7, bot);
    simd::collect_tops(w4, w5, w6, w7).storeu(a + x + 4);
  }
  ring[0] = r0;
  ring[1] = r1;
  ring[2] = r2;
  ring[3] = r3;
  ring[4] = r4;  // tvslint: allow(R4)
  ring[5] = r5;
  ring[6] = r6;
  ring[7] = r7;
  return x;
}

}  // namespace detail

// One vl-step temporally vectorized tile over the rows `rows`; see the file
// comment.  Levels 0 and vl are the base array `a`, levels 1..vl-1 live
// wherever the level-storage policy `lev` says (lo(l) / hi(l) return a
// LevelLine).  With scalar_only, or when the steady interval is shorter
// than vl (TileRows::vector_ok), every level is updated in scalar over its
// full range, levels ascending, through lev.lo — a path only the tiled
// drivers take (the flat run checks vector_ok first).  Requires
// s >= radius+1.
//
// Re selects the redundancy-eliminated steady loop.  The baseline loop
// pays ~2.5 shuffles per produced vector at vl = 4: one shift_in_low_v and
// one dispense rotate per iteration plus the vl-1-shuffle collect_tops
// assembly tree per vl outputs.  The two follow-up papers to the source
// paper show most of that reorganization is redundant ("An Efficient
// Vectorization Scheme for Stencil Computation", arXiv:2103.08825;
// "Reducing Redundancy in Data Organization and Arithmetic Calculation for
// Stencil Computations", arXiv:2103.09235).  Re applies their reuse scheme
// under the bit-exactness contract:
//   * ONE shuffle per produced vector — simd::retire_shift_in rotates the
//     finished top lane down to lane 0 (where extracting it is free on
//     every backend) and the same rotated register admits the fresh bottom
//     element via a blend; retired tops stream out as scalar stores and
//     fresh level-0 elements stream in as scalar loads;
//   * the 2R+1 window vectors slide across iterations in registers, so
//     each ring vector is loaded once instead of 2R+1 times.
// The arithmetic half of arXiv:2103.09235 (symmetric-coefficient partial
// sums) would reassociate the canonical fma chains and break the
// bit-identical-to-scalar contract the property suite and the tuner's
// candidate equivalence rely on, so it is left out: wedges, gather, flush
// and arithmetic are shared, and results are bit-identical to the
// baseline at every (dtype, vl, stride).  Jacobi functors only, as is the
// unrolled s = 7 path: a Gauss-Seidel output is the next west operand, so
// its window cannot slide ahead of the chain.
template <class V, bool Re = false, class F, class Levels>
void tv1d_tile(const F& f, typename V::value_type* a, Levels& lev,
               const TileRows<V::lanes>& rows, int s,
               bool scalar_only = false) {
  static_assert(simd::LaneGeneric<V> && simd::lane_layout_ok<V>);
  static_assert(!(Re && F::newest_west), "Re is a Jacobi steady loop");
  using T = typename V::value_type;
  constexpr int R = F::radius;
  constexpr int VL = V::lanes;
  constexpr int lag = kWestLag<F>;
  // First window operand read from the ring; a Gauss-Seidel window's
  // operands 0 .. R-1 are the previous outputs, carried in registers.
  constexpr int k0 = R - lag;
  const int M = line_ring_period(s, lag);  // live input vectors
  assert(s >= R + 1 && s <= kMaxStride);

  LevelLine<T> lo[VL + 1], hi[VL + 1];
  lo[0] = hi[0] = lo[VL] = hi[VL] = LevelLine<T>{a, 0};
  for (int l = 1; l <= VL - 1; ++l) {
    lo[l] = lev.lo(l);
    hi[l] = lev.hi(l);
  }

  // Scalar update of level l over [x0, x1] from level l-1.
  const auto scalar_range = [&](const LevelLine<T>* L, int l, int x0, int x1) {
    detail::scalar_span(f, L[l], L[l - 1], x0, x1);
  };

  const int x_begin = rows.x_begin(s), x_end = rows.x_end(s);
  if (scalar_only || !rows.vector_ok(s)) {
    for (int l = 1; l <= VL; ++l) scalar_range(lo, l, rows.xl(l), rows.xr(l));
    return;
  }

  // ---- left wedges (levels ascending; lvl vl's wedge is last so its writes
  // to the base array cannot disturb level-0 values still being read) -------
  for (int l = 1; l <= VL - 1; ++l)
    scalar_range(lo, l, rows.xl(l),
                 std::min(rows.xr(l), x_begin + (VL - l) * s - 1));
  scalar_range(lo, VL, rows.xl(VL), x_begin - 1);

  // ---- gather the initial ring -------------------------------------------
  std::array<V, kRingCapacity> ring;
  const RingIndex rix(M);
  for (int p = x_begin - lag; p <= x_begin + s - 1; ++p) {
    alignas(64) T lanes[VL];
    for (int k = 0; k < VL; ++k) lanes[k] = lo[k][p + (VL - 1 - k) * s];
    ring[static_cast<std::size_t>(rix.slot(p))] = V::load(lanes);
  }

  // ---- steady vector loop -------------------------------------------------
  // Up to x_fast every bottom read a[x + vl*s] is within the read cap; the
  // ungrouped tail clamps the rest (their lanes are never consumed).
  const int x_fast = std::min(x_end, rows.read_cap - VL * s);
  int x = x_begin;
  if constexpr (!Re && !F::newest_west && R == 1 && VL == 4) {
    if (s == 7 && x == 1) x = detail::steady_s7(f, a, x_fast, ring);
  }
  int ib = rix.slot(x - lag);  // slot of the west-most ring operand
  V winv[2 * R + 1];
  // A Gauss-Seidel window's west operands j = 0 .. R-1 (position x-R+j)
  // are output vectors, carried in registers: lane k of the first ones is
  // lvl(k+1) at x_begin-R+j, the left wedges' tips.
  for (int j = 0; j < k0; ++j) {
    alignas(64) T lanes[VL];
    for (int k = 0; k < VL; ++k)
      lanes[k] = lo[k + 1][x_begin - R + j + (VL - 1 - k) * s];
    winv[j] = V::load(lanes);
  }
  if constexpr (Re) {
    // Redundancy-eliminated steady loop: the 2R+1 window vectors slide in
    // registers (each ring vector is loaded once instead of 2R+1 times),
    // the finished top retires in the same shuffle that admits the fresh
    // bottom element, and the retired tops stream to `a` as scalar stores
    // — no collect_tops assembly tree, no separate dispense rotate.  The
    // values produced are bit-identical to the baseline loop below.
    if (x <= x_fast) {
      int iw = ib;
      for (int k = 0; k <= 2 * R; ++k) {
        winv[k] = ring[iw];
        iw = rix.inc(iw);
      }
      for (; x <= x_fast; ++x) {
        const V w = f.apply(winv);
        ring[ib] = simd::retire_shift_in(w, a[x + VL * s], &a[x]);
        ib = rix.inc(ib);
        for (int k = 0; k < 2 * R; ++k) winv[k] = winv[k + 1];
        winv[2 * R] = ring[iw];  // pos x+1+R, <= the slot written above
        iw = rix.inc(iw);
      }
    }
  } else {
    V wbuf[VL];
    for (; x + VL - 1 <= x_fast; x += VL) {
      V bot = V::loadu(a + x + VL * s);
      for (int j = 0; j < VL; ++j) {
        int iw = ib;
        for (int k = k0; k <= 2 * R; ++k) {
          winv[k] = ring[iw];
          iw = rix.inc(iw);
        }
        wbuf[j] = f.apply(winv);
        ring[ib] = simd::shift_in_low_v(wbuf[j], bot);
        if (j != VL - 1) bot = simd::dispense_low(bot);
        ib = rix.inc(ib);
        if constexpr (F::newest_west) {  // the next newest west operand
          for (int k = 0; k + 1 < k0; ++k) winv[k] = winv[k + 1];
          winv[k0 - 1] = wbuf[j];
        }
      }
      simd::collect_tops_arr(wbuf).storeu(a + x);
    }
  }
  for (; x <= x_end; ++x) {  // ungrouped tail
    int iw = ib;
    for (int k = k0; k <= 2 * R; ++k) {
      winv[k] = ring[iw];
      iw = rix.inc(iw);
    }
    const V w = f.apply(winv);
    ring[ib] = simd::shift_in_low(w, a[std::min(x + VL * s, rows.read_cap)]);
    ib = rix.inc(ib);
    a[x] = simd::top_lane(w);
    if constexpr (F::newest_west) {
      for (int k = 0; k + 1 < k0; ++k) winv[k] = winv[k + 1];
      winv[k0 - 1] = w;
    }
  }

  // ---- flush: surviving ring lanes into their levels ---------------------
  for (int p = x_end + 1 - lag; p <= x_end + s; ++p) {
    const V& u = ring[static_cast<std::size_t>(rix.slot(p))];
    for (int k = 1; k <= VL - 1; ++k) {
      const int q = p + (VL - 1 - k) * s;
      if (q >= rows.xl(k) && q <= rows.xr(k)) hi[k][q] = u[k];
    }
  }

  // ---- right wedges (levels ascending: lvl vl writes to the base array
  // last, after lvl 1 read the level-0 values there) ----------------------
  for (int l = 1; l <= VL; ++l)
    scalar_range(hi, l, std::max(rows.xl(l), x_end + (VL - l) * s + 1),
                 rows.xr(l));
}

// Advance `u` by `steps` time steps (Gauss-Seidel sweeps): floor(steps/vl)
// vector tiles plus a residual, every step when the line is too short for
// the pipeline (TileRows::vector_ok).  A Jacobi residual runs as scalar
// steps; a Gauss-Seidel one, which cannot vectorize in space, goes to the
// same engine at half the width (as in tv_plane_run), down to 4 lanes: a
// 2-lane line tile ran 1.2-1.4x slower than the two f64 sweeps it replaces
// and no faster than two f32 ones, so at most three scalar sweeps are left.
template <class V, bool Re = false, class F>
void tv1d_run(const F& f, grid::Grid1D<typename V::value_type>& u, long steps,
              int s) {
  using T = typename V::value_type;
  constexpr int R = F::radius;
  constexpr int VL = V::lanes;
  assert(s >= R + 1);
  T* a = u.p();
  const int nx = u.nx();
  Workspace1D<T> ws;
  ws.prepare(s, nx, R, VL);
  const auto rows = TileRows<VL>::full(nx, R);
  long t = 0;
  if (rows.vector_ok(s) && steps >= VL) {
    ws.copy_boundaries(a);
    for (; t + VL <= steps; t += VL) tv1d_tile<V, Re>(f, a, ws, rows, s);
  }
  if constexpr (F::newest_west && VL / 2 >= 4) {
    using H = simd::NativeVec<T, VL / 2>;
    if (t < steps) tv1d_run<H>(rebind<H>(f), u, steps - t, s);
  } else {
    detail::scalar_steps(f, a, nx, steps - t, ws);
  }
}

}  // namespace tvs::tv
