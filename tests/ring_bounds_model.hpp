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

}  // namespace tvs::ringtest
