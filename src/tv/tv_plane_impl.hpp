// Temporal vectorization for 2D and 3D stencils (§3.2 "High-dimensional
// stencils", §3.4 Gauss-Seidel): one plane tile for Jacobi, Life and
// Gauss-Seidel, in 2D and 3D.
//
// The stride-s lanes live on the *outermost* space dimension x; each x is
// a plane (tv/tile.hpp PlaneShape: one line for a Grid2D, ny+2 lines for
// a Grid3D) and the inner loops sweep whole planes, grouped top stores /
// bottom loads running along the unit-stride dimension z (a 2D grid's y).
// Unlike the 1D kernel, the reorganized input vectors cannot stay in
// registers — each x iteration produces a full plane of them, consumed s
// iterations later — so they are stored in a ring of slabs (vl =
// V::lanes: 4/8 for doubles, 8/16 for floats and int32, or any ScalarVec
// width the tests instantiate):
//
//   ring(p)[y][z] = [ lvl0 @ (p+(vl-1)s, y, z) , ... , lvl(vl-1) @ (p, y, z) ]
//
// This ring is the paper's "transposed data layout" made explicit: one
// aligned vector store per produced input vector, one aligned load per
// consumed one (§3.3).  Everything else mirrors the 1D kernel over the
// per-level row ranges of tv/tile.hpp: scalar left wedges forward planes
// to each level, the steady loop advances whole planes vl time steps, the
// ring is flushed into the levels, and scalar right wedges finish each
// level.  The flat engine updates the main array in place (the top plane
// write at x trails every bottom read at x+vl*s) with levels 1..vl-1 in
// two edge scratch planes; the diamond drivers (tiling/diamond_plane_impl.hpp)
// run the same tile on clipped row ranges with their levels in the two
// parity grids, the parallelogram drivers (tiling/parallelogram2d.cpp) on
// sloped row ranges with every level in the single Gauss-Seidel array.
//
// A Jacobi or Life window reads ring slabs x-1, x and x+1 (s+2 slabs).  A
// Gauss-Seidel functor (newest_west, tv/tile.hpp) forwards its newest
// operands from output vectors instead: newest west (z-1) is the previous
// z iteration's output register, and the ring's `newest` slab holds the
// rest.  During iteration x it is read at line y for the newest *back*
// value (x-1, still holding the x-1 output) and at line y-1 for the
// newest *south* value (already overwritten with the current x output) —
// read-then-overwrite gives both for free; a one-line plane has no south.
// Old values come from ring slabs x and x+1: s+1 slabs.
//
// The stencil functor F supplies (V = vector type, T = element type):
//   static constexpr int radius = 1;
//   static constexpr bool newest_west;
// and, for a Jacobi functor,
//   V apply(const LineWindow<V>& w, int z)
//       — the ring lines around (x, y) (tv/tile.hpp), indexable at z±1;
//   T apply_scalar(At&& at, int r, int y, int z)
//       — `at(r, y, z)` reads the previous level (a 2D functor reads line
//         y only);
// for a Gauss-Seidel functor
//   V apply(V west, const LineWindow<V>& w, int z)
//   T apply_scalar(T west, const LineWindow<T>& w, int z)
//       — w.xm / w.ym are the newest back / south lines, w.c, w.xp and
//         w.yp old values.
#pragma once

#include <algorithm>
#include <cassert>

#include "simd/reorg.hpp"
#include "simd/vec.hpp"
#include "tv/ring.hpp"
#include "tv/tile.hpp"

namespace tvs::tv {

namespace detail {

// One scalar line: d[z], z in [z0, z1], of plane r, line y, from the
// previous level's line window w around (r, y).  Kept out of line: inlined
// into the line loop of scalar_plane, GCC stops vectorizing the z loop
// ("complicated access pattern") and Life's wedges ran 10x slower.
template <class F, class T>
[[gnu::noinline]] void scalar_line(const F& f, T* d, LineWindow<T> w, int r,
                                   int y, int z0, int z1) {
  const auto at = [&](int rr, int yy, int z) -> T {
    const T* line = rr < r   ? w.xm
                    : rr > r ? w.xp
                    : yy < y ? w.ym
                    : yy > y ? w.yp
                             : w.c;
    return line[z];
  };
  for (int z = z0; z <= z1; ++z) d[z] = f.apply_scalar(at, r, y, z);
}

// One scalar plane r of a level over columns [z0, z1], lines and then z
// ascending: dst from the previous level's planes s0 and sp (r, r+1) and
// the plane sm (r-1) — of the previous level for a Jacobi functor, of
// dst's own level for a Gauss-Seidel one, whose south and west operands
// also come from dst (the line below, and the value just written through
// a register, starting from column z0-1; dst may then alias s0, the
// in-place sweep).  Serves the wedges, the flat residual steps and the
// diamonds' residual steps.
template <class F, class T>
void scalar_plane(const F& f, LevelSlab<T> dst, LevelSlab<T> sm,
                  LevelSlab<T> s0, LevelSlab<T> sp, int r, PlaneShape pl,
                  int z0, int z1) {
  for (int y = pl.y0; y <= pl.y1; ++y) {
    T* d = dst.line(y);
    const LineWindow<T> w{sm.line(y), s0.line(y), sp.line(y),
                          (F::newest_west ? dst : s0).line(y - 1),
                          s0.line(y + 1)};
    if constexpr (F::newest_west) {
      T west = d[z0 - 1];
      for (int z = z0; z <= z1; ++z) {
        west = f.apply_scalar(west, w, z);
        d[z] = west;
      }
    } else {
      scalar_line(f, d, w, r, y, z0, z1);
    }
  }
}

// Plain scalar steps: the Jacobi and Life steps % vl residual, every step
// of a grid too short for the pipeline, the 2-lane Gauss-Seidel residual
// and the parallelograms' residual sweeps.  A Gauss-Seidel step sweeps in
// place; a Jacobi step writes plane r to a rolling two-plane buffer and
// stores plane r-1 back once plane r, its last reader, is computed.
template <class F, class G>
void scalar_steps(const F& f, G& g, long nsteps) {
  if (nsteps <= 0) return;
  using T = typename F::value_type;
  using Slab = LevelSlab<T>;
  const PlaneShape pl = plane_shape(g);
  const int nx = g.nx();
  if constexpr (F::newest_west) {
    for (long t = 0; t < nsteps; ++t)
      for (int r = 1; r <= nx; ++r)
        scalar_plane(f, Slab::of(g, r), Slab::of(g, r - 1), Slab::of(g, r),
                     Slab::of(g, r + 1), r, pl, 1, pl.n);
  } else {
    // Lines padded like the grid's, so line z = 0 is aligned in both.
    const std::ptrdiff_t zs = (pl.n + 2 + 15) / 16 * 16;
    const std::ptrdiff_t plane = pl.lines * zs;
    grid::AlignedBuffer<T> buf(2 * static_cast<std::size_t>(plane));
    const auto tmp = [&](int r) -> Slab {
      return {buf.data() + (r & 1) * plane, pl.lines > 1 ? zs : 0};
    };
    const auto store = [&](int r) {
      const Slab src = tmp(r), dst = Slab::of(g, r);
      for (int y = pl.y0; y <= pl.y1; ++y)
        std::copy(src.line(y) + 1, src.line(y) + pl.n + 1, dst.line(y) + 1);
    };
    for (long t = 0; t < nsteps; ++t) {
      for (int r = 1; r <= nx; ++r) {
        scalar_plane(f, tmp(r), Slab::of(g, r - 1), Slab::of(g, r),
                     Slab::of(g, r + 1), r, pl, 1, pl.n);
        if (r > 1) store(r - 1);
      }
      if (nx > 0) store(nx);
    }
  }
}

}  // namespace detail

// One vl-step temporally vectorized tile over the rows `rows` and the
// columns `cols`.  Levels 0 and vl are the base grid g (as are the
// boundary planes 0 and nx+1 of every level); levels 1..vl-1 live where
// the level-storage policy `lev` says (lo(l, r) / hi(l, r) return a
// LevelSlab; see tv/tile.hpp).  The tile sizes `ring` for its functor,
// stride and columns.  With scalar_only, or when the steady interval is
// shorter than vl or no column is common to every level, every level is
// updated in scalar, levels ascending, through lev.lo — a path only the
// tiled drivers take.  s >= 2.
//
// Without Cut a tile takes whole lines.  A Gauss-Seidel tile with Cut may
// take a column block (tv/tile.hpp TileCols) if every level lives in g,
// the single array of a parallelogram; the flat engines and the diamonds
// compile without the code below.  The steady loop then computes columns
// [first, last]; its body is unchanged where every lane is active,
// [steady_begin, steady_end], and the at most vl-1 edge columns at each
// end run the same vector with three per-column fixes:
//   - lane k's output at column ZL[k+1]-1, left of its level, is blended
//     in from g, which holds level k+1 there (the west neighbour wrote it
//     last), so the west register and the ring carry it into the lanes
//     that read it; further left an inactive lane is never consumed;
//   - the bottom (level 0) is read only inside [ZL[1], ZR[1]+1], whose
//     right end is the z read cap;
//   - the value stored to g is the highest active lane's: the top lane
//     wherever it is active, else the lane whose level ends at that
//     column, the value the east neighbour reads.
// Ring column m+1, right of the block, gets level 0 in lane 0 (the east
// operand of level 1); no other lane consumes it.
//
// Re selects the redundancy-eliminated inner loop of "An Efficient
// Vectorization Scheme for Stencil Computation" (arXiv:2103.08825) and
// "Reducing Redundancy in Data Organization and Arithmetic Calculation for
// Stencil Computations" (arXiv:2103.09235), restricted to bit-exact
// operand reuse: each produced ring vector costs ONE shuffle
// (simd::retire_shift_in) — no collect_tops assembly tree, no separate
// dispense rotate; tops retire as scalar stores into the top plane and
// fresh level-0 elements stream in scalar from the bottom plane — and the
// functor's nested F::Carry slides the operands shared by consecutive z in
// registers, loading each ring vector once.  The papers' symmetric-
// coefficient partial sums would reassociate the canonical fma chain, so
// they are left out: wedges, gather, flush and arithmetic are shared, and
// results are bit-identical to the baseline loop at every (dtype, vl,
// stride).  Jacobi functors only: a Gauss-Seidel output is the next
// operand, so its chain has nothing to carry.
template <class V, bool Re = false, bool Cut = false, class F, class G,
          class Levels>
void tv_plane_tile(const F& f, G& g, Levels& lev, SlabRing<V>& ring,
                   const TileRows<V::lanes>& rows,
                   const TileCols<V::lanes>& cols, int s,
                   bool scalar_only = false) {
  static_assert(F::radius == 1, "the plane engine covers radius-1 stencils");
  static_assert(!(Re && F::newest_west), "Re is a Jacobi steady loop");
  static_assert(!Cut || F::newest_west, "only Gauss-Seidel tiles cut z");
  using T = typename V::value_type;
  using Slab = LevelSlab<T>;
  constexpr int VL = V::lanes;
  constexpr bool kNewest = F::newest_west;
  constexpr int lag = kWestLag<F>;
  const int nx = g.nx();
  const PlaneShape pl = plane_shape(g);
  assert(s >= 2);
  assert(Cut || cols.whole());

  // Plane r of level l for the left wedges / gather (lo) and for the flush
  // / right wedges (hi) — one policy call per plane, never per point.
  const auto lo = [&](int l, int r) -> Slab {
    return l == 0 || l == VL || r < 1 || r > nx ? Slab::of(g, r)
                                                : lev.lo(l, r);
  };
  const auto hi = [&](int l, int r) -> Slab {
    return l == 0 || l == VL || r < 1 || r > nx ? Slab::of(g, r)
                                                : lev.hi(l, r);
  };
  // Scalar planes of level l over [r0, r1] and the level's columns; plane
  // r-1 is the newest back operand of a Gauss-Seidel functor.
  const auto scalar_planes = [&](const auto& L, int l, int r0, int r1) {
    for (int r = r0; r <= r1; ++r)
      detail::scalar_plane(f, L(l, r), L(kNewest ? l : l - 1, r - 1),
                           L(l - 1, r), L(l - 1, r + 1), r, pl, cols.zl(l),
                           cols.zr(l));
  };

  const int x_begin = rows.x_begin(s), x_end = rows.x_end(s);
  if (scalar_only || !rows.vector_ok(s) || !cols.vector_ok()) {
    for (int l = 1; l <= VL; ++l)
      scalar_planes(lo, l, rows.xl(l), rows.xr(l));
    return;
  }
  // Ring column j is grid column zo + j; the tile computes j in [1, m].
  const int zo = cols.first() - 1, m = cols.last() - zo;
  const int js = cols.steady_begin() - zo, je = cols.steady_end() - zo;
  ring.prepare(slab_ring_period(s, lag), kNewest, pl, m);

  // The edge columns, left ones then right ones (none on a whole line).
  struct EdgeCol {
    int j;
    int blend;  // lane taken from g, or -1
    int store;  // lane stored to g, or -1
    bool bottom;
    V mask;     // sign bit set in lane `blend`
  };
  EdgeCol edges[2 * VL];
  int nleft = 0, nedge = 0;
  assert(js - 1 + m - je <= 2 * VL);
  alignas(64) T lanes[VL];
  if constexpr (Cut) {
    const auto add = [&](int j) {
      const int z = zo + j;
      EdgeCol& e = edges[nedge++];
      e = {j, -1, -1, cols.zl(1) <= z && z <= cols.read_cap(), V::zero()};
      for (int k = 0; k < VL; ++k) {
        if (cols.active(k, z)) e.store = k;
        if (cols.zl(k + 1) - 1 == z) e.blend = k;
        lanes[k] = k == e.blend ? T(-1) : T(0);
      }
      e.mask = V::load(lanes);
    };
    for (int j = 1; j < js; ++j) add(j);
    nleft = nedge;
    for (int j = je + 1; j <= m; ++j) add(j);
  }

  // ---- left wedges (levels ascending, final level last) --------------------
  for (int l = 1; l <= VL - 1; ++l)
    scalar_planes(lo, l, rows.xl(l),
                  std::min(rows.xr(l), x_begin + (VL - l) * s - 1));
  scalar_planes(lo, VL, rows.xl(VL), x_begin - 1);

  // ---- gather slabs x_begin-lag .. x_begin+s-1 (and the newest slab) --------
  // Lane k of a ring slab is read at [ZL[k+1], ZR[k+1]+1] (centre and east
  // of level k+1; a Jacobi window also reads the west boundary cell), and
  // lane k of the newest slab, level k+1, at level k+1's columns.
  Slab src[VL];
  int glo[VL], ghi[VL];
  for (int k = 0; k < VL; ++k) {
    glo[k] = Cut ? cols.zl(k + 1) : 0;
    ghi[k] = cols.zr(k + 1) + 1;
  }
  for (int p = x_begin - lag; p <= x_begin + s - 1; ++p) {
    for (int k = 0; k < VL; ++k)
      src[k] = lo(k, std::min(p + (VL - 1 - k) * s, nx + 1));
    gather_slab(ring.slab(p), src, pl, zo, m, glo, ghi);
  }
  if constexpr (kNewest) {
    // lane k = lvl(k+1) @ plane x_begin-1 + (vl-1-k)s: the wedges' tips.
    for (int k = 0; k < VL; ++k) {
      src[k] = lo(k + 1, x_begin - 1 + (VL - 1 - k) * s);
      if (Cut) ghi[k] = cols.zr(k + 1);
    }
    gather_slab(ring.newest(), src, pl, zo, m, glo, ghi);
  }

  // ---- steady loop ----------------------------------------------------------
  for (int x = x_begin; x <= x_end; ++x) {
    fill_frame(ring, x + s, g, s, pl, zo, m);
    if constexpr (kNewest) {
      // Lane k works on plane x + (vl-1-k)s, whose boundary cells give the
      // newest values at the frame: west at z = 0, south on halo line 0.
      for (int k = 0; k < VL; ++k) src[k] = Slab::of(g, x + (VL - 1 - k) * s);
      if (pl.halo(0)) {
        V* line = ring.newest().line(0);
        for (int j = 0; j <= m + 1; ++j) {
          for (int k = 0; k < VL; ++k) lanes[k] = src[k].line(0)[zo + j];
          line[j] = V::load(lanes);
        }
      }
    }
    // Bottom planes past the read cap are never consumed: clamp (tile.hpp).
    const Slab top = Slab::of(g, x);
    const Slab bot = Slab::of(g, std::min(x + VL * s, rows.read_cap));
    for (int y = pl.y0; y <= pl.y1; ++y) {
      V* wl = kNewest ? ring.newest().line(y) : nullptr;
      const LineWindow<V> w{
          kNewest ? wl : ring.line(x - 1, y), ring.line(x, y),
          ring.line(x + 1, y),
          kNewest ? ring.newest().line(y - 1) : ring.line(x, y - 1),
          ring.line(x, y + 1)};
      V* lout = ring.line(x + s, y);
      T* tline = top.line(y) + zo;
      const T* bline = bot.line(y) + zo;

      if constexpr (Re) {
        typename F::Carry carry(w);
        for (int z = js; z <= je; ++z) {
          const V v = carry.apply(f, w, z);
          lout[z] = simd::retire_shift_in(v, bline[z], &tline[z]);
        }
      } else {
        // The output at z; a Gauss-Seidel one is also the next west operand
        // and, in the newest slab, the back operand of iteration x+1.
        V west{};
        if constexpr (kNewest) {
          // West of the first column: g holds level k+1 there for each lane
          // whose level starts at the first column; the others are blended
          // in before they are consumed.
          for (int k = 0; k < VL; ++k)
            lanes[k] = !Cut || cols.zl(k + 1) == zo + 1 ? src[k].line(y)[zo]
                                                        : T{};
          west = V::load(lanes);
        }
        const auto out = [&](int z) -> V {
          if constexpr (kNewest) {
            west = f.apply(west, w, z);
            wl[z] = west;
            return west;
          } else {
            return f.apply(w, z);
          }
        };
        const auto edge = [&](const EdgeCol& e) {
          if constexpr (Cut) {
            V v = f.apply(west, w, e.j);
            if (e.blend >= 0)
              v = simd::blendv(v, V::set1(src[e.blend].line(y)[zo + e.j]),
                               e.mask);
            west = v;
            wl[e.j] = v;
            lout[e.j] = simd::shift_in_low(v, e.bottom ? bline[e.j] : T{});
            if (e.store >= 0) src[e.store].line(y)[zo + e.j] = v[e.store];
          }
        };
        for (int i = 0; i < nleft; ++i) edge(edges[i]);
        // The group's last step is peeled: folded into the loop behind an
        // `if (j != VL - 1)`, GCC no longer unrolls it for J3D7F and
        // jacobi3d7 ran 11% slower.
        int z = js;
        V wbuf[VL];
        for (; z + VL - 1 <= je; z += VL) {
          V b = V::loadu(bline + z);
          for (int j = 0; j < VL - 1; ++j) {
            wbuf[j] = out(z + j);
            lout[z + j] = simd::shift_in_low_v(wbuf[j], b);
            b = simd::dispense_low(b);
          }
          wbuf[VL - 1] = out(z + VL - 1);
          lout[z + VL - 1] = simd::shift_in_low_v(wbuf[VL - 1], b);
          simd::collect_tops_arr(wbuf).storeu(tline + z);
        }
        for (; z <= je; ++z) {
          const V v = out(z);
          lout[z] = simd::shift_in_low(v, bline[z]);
          tline[z] = simd::top_lane(v);
        }
        for (int i = nleft; i < nedge; ++i) edge(edges[i]);
        if (Cut && zo + m < pl.n)
          lout[m + 1] = simd::shift_in_low(V::zero(), bline[m + 1]);
      }
    }
  }

  // ---- flush surviving ring lanes into their levels -------------------------
  for (int p = x_end + 1 - lag; p <= x_end + s; ++p)
    flush_slab(ring, p, rows, cols, s, hi, pl, zo);

  // ---- right wedges (levels ascending; the final level writes to the base
  // grid last so level 1 can still read lvl0) ---------------------------------
  for (int l = 1; l <= VL; ++l)
    scalar_planes(hi, l, std::max(rows.xl(l), x_end + (VL - l) * s + 1),
                  rows.xr(l));
}

// Advance g by `steps` time steps (Gauss-Seidel sweeps): vl per tile plus a
// residual.  A Jacobi or Life residual runs as scalar steps, whose lines
// vectorize in space.  A Gauss-Seidel sweep cannot (its west operand is the
// value just written), so its residual — every sweep, when the grid is too
// short for this width's pipeline — goes to the same engine at half the
// width, down to 2 lanes: at most one scalar sweep is left.  On AVX2 and
// AVX-512 each stage, the 2-lane ScalarVec tiles included, took 0.39-1.05x
// the time of the sweeps it replaces.
template <class V, bool Re = false, class F, class G>
void tv_plane_run(const F& f, G& g, long steps, int s) {
  static_assert(simd::LaneGeneric<V> && simd::lane_layout_ok<V>);
  using T = typename V::value_type;
  constexpr int VL = V::lanes;
  const auto rows = TileRows<VL>::full(g.nx(), F::radius);
  long t = 0;
  if (rows.vector_ok(s) && steps >= VL) {
    SlabRing<V> ring;
    EdgePlanes<T> planes;  // levels 1..vl-1 at the edges
    planes.prepare(VL, s, g.nx(), plane_shape(g));
    planes.copy_frames(g);
    const auto cols = TileCols<VL>::full(plane_shape(g).n);
    for (; t + VL <= steps; t += VL)
      tv_plane_tile<V, Re>(f, g, planes, ring, rows, cols, s);
  }
  if constexpr (F::newest_west && VL > 2) {
    using H = simd::NativeVec<T, VL / 2>;
    if (t < steps) tv_plane_run<H>(rebind<H>(f), g, steps - t, s);
  } else {
    detail::scalar_steps(f, g, steps - t);
  }
}

}  // namespace tvs::tv
