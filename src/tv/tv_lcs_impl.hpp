// Temporal vectorization of the LCS dynamic program (§3.4), generalized to
// any vector length vl = V::lanes.
//
// lcs[x][y] = A[x]==B[y] ? lcs[x-1][y-1]+1 : max(lcs[x-1][y], lcs[x][y-1])
//
// The paper views the x loop (over A) as the *time* dimension and the y loop
// (over B) as space, storing only the wavefront row; B acts as a variable
// coefficient.  The dependences (1,0), (1,-1), (0,-1) have no forward
// component, so any stride s >= 1 is legal; we use s = 1, where the B
// "coefficient vector" can be maintained with the same shift_in_low
// reorganization as the value vectors.  With int32 lanes the vector length
// is 8 under AVX2 and 16 under AVX-512, so one tile advances vl DP rows and
// the theoretical speedup bound is vl (the paper's LCS discussion).
//
// Layout (s = 1, lane k = level k = row t+k):
//
//   input  u(p) = [ lvl0 @ p+vl-1 , lvl1 @ p+vl-2 , ... , lvl(vl-1) @ p ]
//   output w(x) = [ lvl1 @ x+vl-1 , lvl2 @ x+vl-2 , ... , lvl(vl)  @ x ]
//
// Lane k of the output needs: up   = lvl k @ (x + vl-1-k)     -> u(x)  lane k
//                             diag = lvl k @ (x-1 + vl-1-k)   -> u(x-1) lane k
//                             left = lvl k+1 @ (x-1 + vl-1-k) -> previous w
// i.e. a two-slot ring plus the Gauss-Seidel-style forwarded output vector.
// The comparison is evaluated with cmpeq + blendv, which is why the paper
// expects (and observes) speedups below the lane count: both sides of the
// max/increment are always computed.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "simd/reorg.hpp"
#include "simd/vec.hpp"
#include "stencil/kernels.hpp"
#include "tv/tv_lcs.hpp"  // kLcsRowPad, the engines' row-padding contract
#include "util/checked_idx.hpp"

namespace tvs::tv {

namespace detail {

// One scalar DP row update in place; bb is 1-based over B.  `diag0` is
// lcs[t][y0-1] and `left0` is lcs[t+1][y0-1] (both 0 for a full-width row),
// so the same code serves the column-blocked parallel driver.
inline void lcs_scalar_row(std::int32_t achar, const std::int32_t* bb,
                           std::int32_t* row, int nb, std::int32_t diag0,
                           std::int32_t left0) {
  std::int32_t diag = diag0;
  std::int32_t left = left0;
  for (int y = 1; y <= nb; ++y) {
    const std::int32_t up = row[y];
    row[y] = stencil::lcs_rule(achar, bb[y], diag, row[y], left);
    left = row[y];
    diag = up;
  }
}

}  // namespace detail

// Runs the LCS DP with vl-row temporally vectorized tiles; `row` must have
// nb+1+kLcsRowPad slots (padding for grouped loads).  Returns with
// row[y] = lcs(|A|, y).
//
// For the column-blocked parallel driver (tiling/lcs_wavefront.cpp):
// `leftcol[t]` supplies lcs[t][y0-1] for t = 0..|A| (nullptr = zeros, the
// full-width case) and, when `rightcol` is non-null, the kernel exports
// lcs[t][nb] for t = 1..|A| into it.
template <class V>
void tv_lcs_rows_impl(std::span<const std::int32_t> a,
                      std::span<const std::int32_t> b, std::int32_t* row,
                      const std::int32_t* leftcol = nullptr,
                      std::int32_t* rightcol = nullptr) {
  static_assert(simd::LaneGeneric<V> && simd::lane_layout_ok<V>);
  constexpr int vl = V::lanes;
  static_assert(vl >= 2 && vl <= kLcsRowPad);
  // checked_int, not static_cast: spans past 2^31 elements must raise, not
  // silently truncate to a prefix (tvsrace C3).
  const int na = util::checked_int(a.size());
  const int nb = util::checked_int(b.size());
  const std::int32_t* bb = b.data() - 1;  // bb[y] = B[y], 1-based

  // Scratch: vl-1 intermediate levels on each edge.
  const int llen = vl;            // prologue level l covers [1, vl-l]
  const int rbase = nb - vl - 1;  // right scratch covers [rbase+1, nb]
  // Trailing slack, not a lane count.  tvslint: allow(R4)
  const int rlen = vl + 4;
  std::vector<std::int32_t> lbuf(static_cast<std::size_t>(vl - 1) * llen);
  std::vector<std::int32_t> rbuf(static_cast<std::size_t>(vl - 1) * rlen);
  const auto lptr = [&](int lev) { return lbuf.data() + (lev - 1) * llen; };
  const auto rptr = [&](int lev) { return rbuf.data() + (lev - 1) * rlen; };

  // Left-boundary value of level l (row t+l) for the current tile.
  int t = 0;
  const auto lb = [&](int lev) -> std::int32_t {
    return leftcol == nullptr ? 0 : leftcol[t + lev];
  };
  if (nb >= vl + 1) {
    for (; t + vl <= na; t += vl) {
      // ---- prologue: levels 1..vl-1 on the left triangle -------------------
      // lv(l, y): level-l value at column y (level 0 = row).
      const auto lv = [&](int lev, int y) -> std::int32_t {
        if (y <= 0) return lb(lev);
        return lev == 0 ? row[y] : lptr(lev)[y];
      };
      for (int lev = 1; lev <= vl - 1; ++lev) {
        const std::int32_t ach = a[static_cast<std::size_t>(t + lev - 1)];
        std::int32_t left = lb(lev);
        for (int y = 1; y <= vl - lev; ++y) {
          const std::int32_t v = stencil::lcs_rule(
              ach, bb[y], lv(lev - 1, y - 1), lv(lev - 1, y), left);
          lptr(lev)[y] = v;
          left = v;
        }
      }

      // ---- gather: ring positions 0 and 1, initial w, va, vb --------------
      alignas(64) std::int32_t lanes[vl];
      V ring[2];
      for (int p = 0; p <= 1; ++p) {
        for (int k = 0; k < vl; ++k) lanes[k] = lv(k, p + (vl - 1) - k);
        ring[p] = V::load(lanes);
      }
      for (int k = 0; k < vl; ++k) lanes[k] = lv(k + 1, (vl - 1) - k);
      V w = V::load(lanes);
      for (int k = 0; k < vl; ++k)
        lanes[k] = a[static_cast<std::size_t>(t + k)];
      const V va = V::load(lanes);
      for (int k = 0; k < vl; ++k) lanes[k] = bb[1 + (vl - 1) - k];
      V vb = V::load(lanes);

      // ---- steady loop -----------------------------------------------------
      const int x_end = nb - vl;
      int ip = 0;  // slot of position x-1
      int x = 1;
      V tops[vl];
      for (; x + vl - 1 <= x_end; x += vl) {
        V brow = V::loadu(row + x + vl);  // fresh lvl0 values
        V bchr = V::loadu(bb + x + vl);   // fresh B chars
        for (int j = 0; j < vl; ++j) {
          const int ic = ip ^ 1;
          const V wv = stencil::lcs_rule_v(va, vb, ring[ip], ring[ic], w);
          ring[ip] = simd::shift_in_low_v(wv, brow);
          vb = simd::shift_in_low_v(vb, bchr);
          brow = simd::rotate_down(brow);
          bchr = simd::rotate_down(bchr);
          w = wv;
          tops[j] = wv;
          ip = ic;
        }
        simd::collect_tops_arr(tops).storeu(row + x);
      }
      for (; x <= x_end; ++x) {
        const int ic = ip ^ 1;
        const V wv = stencil::lcs_rule_v(va, vb, ring[ip], ring[ic], w);
        ring[ip] = simd::shift_in_low(wv, row[x + vl]);
        vb = simd::shift_in_low(vb, bb[x + vl]);
        row[x] = simd::top_lane(wv);
        w = wv;
        ip = ic;
      }

      // ---- flush ring lanes into the right scratch -------------------------
      const auto rput = [&](int lev, int q, std::int32_t v) {
        if (q >= rbase + 1 && q <= nb) rptr(lev)[q - rbase] = v;
      };
      for (int p = x_end; p <= x_end + 1; ++p) {
        const V& u = ring[static_cast<std::size_t>(p & 1)];
        for (int k = 1; k <= vl - 1; ++k) rput(k, p + (vl - 1) - k, u[k]);
      }
      const auto rv = [&](int lev, int q) -> std::int32_t {
        return lev == 0 ? row[q] : rptr(lev)[q - rbase];
      };

      // ---- epilogue: levels 1..vl on the right triangle --------------------
      for (int lev = 1; lev <= vl; ++lev) {
        const std::int32_t ach = a[static_cast<std::size_t>(t + lev - 1)];
        // lvl vl @ x_end was stored by the steady loop's top lane.
        std::int32_t left = lev == vl ? row[nb - vl] : rv(lev, nb - lev);
        for (int y = nb - lev + 1; y <= nb; ++y) {
          const std::int32_t v = stencil::lcs_rule(
              ach, bb[y], rv(lev - 1, y - 1), rv(lev - 1, y), left);
          if (lev == vl)
            row[y] = v;
          else
            rptr(lev)[y - rbase] = v;
          left = v;
        }
      }
      if (rightcol != nullptr) {
        for (int k = 1; k <= vl - 1; ++k) rightcol[t + k] = rv(k, nb);
        rightcol[t + vl] = row[nb];
      }
    }
  }
  // Residual rows (na % vl, or everything when nb is too small).
  for (; t < na; ++t) {
    detail::lcs_scalar_row(a[static_cast<std::size_t>(t)], bb, row, nb,
                           leftcol == nullptr ? 0 : leftcol[t],
                           leftcol == nullptr ? 0 : leftcol[t + 1]);
    if (rightcol != nullptr) rightcol[t + 1] = row[nb];
  }
}

}  // namespace tvs::tv
