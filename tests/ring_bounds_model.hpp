// Compile-time trace models of the engines' ring/slot index math.
//
// Each check_* function replays, at constexpr time, the exact slot
// sequence an engine family drives through its vector ring for one tile:
// gather, steady-state window walks, and flush.  Every slot passes through
// CheckedIdx<0, kRingCapacity - 1> (the std::array<V, kRingCapacity>
// storage bound of the 1D engines) and checked_index(_, 0, M - 1) (the
// ring-period bound that makes slot/inc a correct modular walk), so an
// out-of-bounds access for a given (vl, radius/pad, stride) fails the
// enclosing static_assert - a build break, not a runtime fault.
//
// The models mirror, line for line, the index arithmetic of the one tile
// walk each geometry has, and take the ring's west lag and period from
// the definitions the tiles use (tv::west_lag, tv::line_ring_period,
// tv::slab_ring_period in src/tv/ring.hpp), with the steady interval from
// the same tv::TileRows:
//   jacobi1d   tv1d_tile in src/tv/tv1d_impl.hpp, Jacobi functor
//              (lag R, ring period M = s + R)
//   gs1d       the same tile, Gauss-Seidel functor (lag 0, M = s)
// Each is traced on the flat engine's rows (the whole line) and on the
// sloped, clipped rows of the tiled drivers that instantiate the same
// tile: diamond trapezoids (tiling/diamond.cpp, edges +-R per level) for
// jacobi1d, parallelograms (tiling/parallelogram.cpp, edges -1 per level)
// for gs1d.
//   rowring    the slab ring of the one plane tile, tv_plane_tile in
//              src/tv/tv_plane_impl.hpp, for 2D and 3D (a 2D row is a
//              one-line plane): pad = lag + 1 = 2 for Jacobi and Life
//              (flat and diamond), 1 for Gauss-Seidel (flat and
//              parallelogram); M = s + pad slabs allocated dynamically,
//              so only the [0, M) slot bound applies
//   gsplane    the Gauss-Seidel plane tile: the rowring slots, and the
//              column walk of a tile cut along z (tv::TileCols) — the
//              ring line columns, the edge table, and every grid column
//              it loads or stores — on whole lines and on the sloped,
//              clipped column blocks of the parallelograms
//              (tiling/schedule.hpp)
// If an engine's ring walk changes shape, change the model in the same
// commit - the static gate is only as honest as this correspondence.
#pragma once

#include "tv/ring.hpp"
#include "tv/tile.hpp"
#include "util/checked_idx.hpp"

namespace tvs::ringtest {

using tv::kRingCapacity;
using tv::RingIndex;
using tv::TileRows;
using util::checked_index;
using Slot = util::CheckedIdx<0, kRingCapacity - 1>;

// One checked ring access: within the fixed std::array capacity AND
// within the ring period M.
constexpr bool touch(int slot, int M) {
  (void)Slot(slot);
  (void)checked_index(slot, 0, M - 1);
  return true;
}

// The 1D tile walk over `rows`, for a Jacobi (Gs = false) or Gauss-Seidel
// (Gs = true) functor of radius R: gather positions
// [x_begin - lag, x_begin + s - 1], a steady loop whose window walks the
// R + lag + 1 consecutive ring slots from position x - lag per output (the
// Gauss-Seidel west operands are registers), and a flush over
// [x_end + 1 - lag, x_end + s].  A tile whose steady interval is too short
// runs all-scalar and never touches the ring.
template <int VL, int R, bool Gs>
constexpr bool check_tile1d(int s, const TileRows<VL>& rows) {
  if (!rows.vector_ok(s)) return true;
  constexpr int lag = tv::west_lag(R, Gs);
  const int M = tv::line_ring_period(s, lag);
  const RingIndex rix(M);
  const int x_begin = rows.x_begin(s), x_end = rows.x_end(s);
  for (int p = x_begin - lag; p <= x_begin + s - 1; ++p) touch(rix.slot(p), M);
  int ib = rix.slot(x_begin - lag);
  for (int x = x_begin; x <= x_end; ++x) {
    int iw = ib;
    for (int k = 0; k <= R + lag; ++k) {
      touch(iw, M);
      iw = rix.inc(iw);
    }
    touch(ib, M);  // the overwrite of the oldest slot
    ib = rix.inc(ib);
  }
  for (int p = x_end + 1 - lag; p <= x_end + s; ++p) touch(rix.slot(p), M);
  return true;
}

// A line long enough for a few ring periods of steady state.
constexpr int model_nx(int VL, int s) { return 2 * VL * s + 2 * VL; }

// Jacobi: the flat line, then diamond trapezoids — a phase-1 shrinking
// tile off the left edge, and phase-2 growing seam tiles at the left
// domain edge (clipped at x = 1, so gather positions reach 1 - R) and in
// the interior.
template <int VL, int R>
constexpr bool check_jacobi1d(int s, int /*base*/) {
  const int nx = model_nx(VL, s);
  using Rows = TileRows<VL>;
  const int c = nx / 2;  // an interior seam
  return check_tile1d<VL, R, false>(s, Rows::full(nx, R)) &&
         check_tile1d<VL, R, false>(
             s, Rows::sloped(1 + VL * R, nx, R, -R, nx, R)) &&
         check_tile1d<VL, R, false>(
             s, Rows::sloped(1 - VL * R, VL * R, -R, R, nx, R)) &&
         check_tile1d<VL, R, false>(
             s, Rows::sloped(c + 1 - VL * R, c + VL * R, -R, R, nx, R));
}

// Gauss-Seidel: the flat line, then parallelograms (level l covers
// [xl0-(l-1), xr0-(l-1)]) straddling the left edge, inside, and
// straddling the right edge.
template <int VL, int R>
constexpr bool check_gs1d(int s, int /*base*/) {
  static_assert(R == 1, "the GS engines are radius-1");
  const int nx = model_nx(VL, s);
  using Rows = TileRows<VL>;
  const int W = nx / 2;
  return check_tile1d<VL, R, true>(s, Rows::full(nx, R)) &&
         check_tile1d<VL, R, true>(
             s, Rows::sloped(2 - VL, W + 1, -1, -1, nx, R)) &&
         check_tile1d<VL, R, true>(
             s, Rows::sloped(VL + 1, W + VL, -1, -1, nx, R)) &&
         check_tile1d<VL, R, true>(
             s, Rows::sloped(W + 1, nx + VL, -1, -1, nx, R));
}

// Plane-tile slab rings: M = s + lag + 1 slabs, slot = RingIndex(M).slot(p)
// for plane positions p from (possibly negative, diamond) tile bases up to
// a few periods out.  Storage is allocated at exactly M slabs (plus the
// Gauss-Seidel newest slab, addressed apart), so the only invariant is
// slot in [0, M) for every p the engines form.  PAD, the matrix's ring
// parameter, names the family: it is lag + 1 for one of the two lags.
template <int VL, int PAD>
constexpr bool check_rowring(int s, int base) {
  constexpr bool gs = PAD == tv::west_lag(1, true) + 1;
  static_assert(gs || PAD == tv::west_lag(1, false) + 1,
                "a plane ring's pad is its west lag + 1");
  constexpr int lag = tv::west_lag(1, gs);
  const int M = tv::slab_ring_period(s, lag);
  const RingIndex rix(M);
  for (int p = base - (VL - 1) * s - lag - 1; p <= base + VL * s + M; ++p) {
    const int slot = rix.slot(p);
    (void)checked_index(slot, 0, M - 1);
  }
  return true;
}

// The column walk of one Gauss-Seidel plane tile over `cols`, as
// tv_plane_tile runs it: ring columns 0 .. m+1 (grid column zo + j) must
// fit a line of the ring SlabRing::prepare sizes for m columns, the edge
// columns must fit the tile's table of 2*vl, and every grid column must
// stay inside the line:
//   - loads of level 0 (bottom reads, the frame column m+1) inside
//     [ZL[1], ZR[1]+1], whose right end is the z read cap;
//   - lane k's output, stored or blended, inside level k+1's columns or
//     at ZL[k+1]-1, the one column left of them the tile reads from g;
//   - the gather of lane k inside [ZL[k+1], ZR[k+1]+1], the flush of
//     level k inside its columns.
// A tile without a column common to every level runs all-scalar and
// never walks the ring.
template <int VL>
constexpr bool check_cols(const tv::TileCols<VL>& c) {
  if (!c.vector_ok()) return true;
  const int n = c.n, zo = c.first() - 1, m = c.last() - zo;
  const int js = c.steady_begin() - zo, je = c.steady_end() - zo;
  const int zstride = ((m + 4 + 15) / 16) * 16;
  (void)checked_index(m + 1, -1, zstride - 2);
  (void)checked_index((js - 1) + (m - je), 0, 2 * VL);
  (void)checked_index(zo, 0, n);  // west of the first column
  for (int j = 1; j <= m; ++j) {
    const int z = zo + j;
    (void)checked_index(z, 1, n);
    const bool edge = j < js || j > je;
    if (!edge || c.zl(1) <= z) (void)checked_index(z, c.zl(1), c.read_cap());
    int store = -1;
    for (int k = 0; k < VL; ++k) {
      if (c.active(k, z)) store = k;
      if (!edge) (void)checked_index(z, c.zl(k + 1), c.zr(k + 1));
      if (edge && c.zl(k + 1) - 1 == z) (void)checked_index(z, 1, n);
    }
    if (store >= 0) (void)checked_index(z, c.zl(store + 1), c.zr(store + 1));
  }
  if (zo + m < n) (void)checked_index(zo + m + 1, c.zl(1), c.read_cap());
  for (int k = 0; k < VL; ++k) {
    (void)checked_index(c.zl(k + 1) - zo, 0, m + 1);
    (void)checked_index(c.zr(k + 1) + 1 - zo, 0, m + 1);
    if (k > 0) {
      (void)checked_index(c.zl(k) - zo, 1, m);
      (void)checked_index(c.zr(k) - zo, 1, m);
    }
  }
  return true;
}

// Gauss-Seidel plane tiles: the slab ring, then the columns of a whole
// line and of parallelogram column blocks of the schedule's width
// max(W, vl*s + 8) and of a narrow one, straddling the left edge, inside
// and straddling the right edge of a line of a few blocks.
template <int VL, int PAD>
constexpr bool check_gsplane(int s, int base) {
  using Cols = tv::TileCols<VL>;
  const int W = VL * s + 8, n = 3 * W + VL + 1;
  bool ok = check_rowring<VL, PAD>(s, base) && check_cols<VL>(Cols::full(n));
  for (const int w : {W, VL, 2 * VL + 1})
    for (int zl0 = 2 - w - VL; zl0 <= n + VL; zl0 += w / 2 + 1)
      ok = ok && check_cols<VL>(Cols::sloped(zl0, zl0 + w - 1, -1, -1, n));
  return ok;
}

}  // namespace tvs::ringtest
