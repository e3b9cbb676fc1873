// The diamond driver body of the 2D and 3D Jacobi and Life stencils
// (diamond2d.cpp, diamond3d.cpp) — the paper's parallel scheme: "the
// diamond tiling always applies to the outermost space loop and co-works
// with the temporal vectorization" (§3.4).  Tiles are trapezoids of planes
// (rows of a 2D grid, x-slabs of a 3D grid) x the full inner dimensions,
// scheduled in bands and phases by the diamond schedule the 1D driver
// shares (tiling/schedule.hpp).  A trapezoid is the flat plane engine's
// tile (tv/tv_plane_impl.hpp) on its clipped, sloped rows with its levels
// in the parity grids: level l lives in pp.by_parity(t0 + l).  All values
// any other tile may read live in the parity grids; only the ring of
// input-vector slabs is per runner slot.  Internal to the kernel TUs
// diamond2d.cpp and diamond3d.cpp.
#pragma once

#include <algorithm>
#include <vector>

#include "grid/pingpong.hpp"
#include "tiling/schedule.hpp"
#include "tv/tv_plane_impl.hpp"

namespace tvs::tiling {

namespace detail {

// Level storage of a trapezoid based at band step t0: lev_g(l) =
// pp.by_parity(t0 + l).  Levels 0 and vl (even) are the base grid.
template <class G, class T>
struct ParityLevels {
  G* odd;   // parity(t0 + 1)
  G* even;  // parity(t0)
  tv::LevelSlab<T> lo(int l, int r) const {
    return tv::LevelSlab<T>::of((l & 1) != 0 ? *odd : *even, r);
  }
  tv::LevelSlab<T> hi(int l, int r) const { return lo(l, r); }
};

// Copies the boundary and halo cells of planes [x0, x1] from `from` into
// `to`: whole padded lines on the boundary planes 0 and nx+1 and on halo
// lines, the boundary cells z = 0 and n+1 of every other line (the pads
// beyond them are never read there).
template <class T, class G>
void mirror_planes(G& from, G& to, int x0, int x1) {
  constexpr int P = grid::kPad;
  const tv::PlaneShape pl = tv::plane_shape(from);
  const int nx = from.nx(), n = pl.n;
  for (int x = x0; x <= x1; ++x) {
    const tv::LevelSlab<T> a = tv::LevelSlab<T>::of(from, x),
                           b = tv::LevelSlab<T>::of(to, x);
    for (int y = 0; y < pl.lines; ++y) {
      const T* src = a.line(y);
      T* dst = b.line(y);
      if (x == 0 || x == nx + 1 || pl.halo(y)) {
        std::copy(src - P, src + n + 2 + P, dst - P);
      } else {
        dst[0] = src[0];
        dst[n + 1] = src[n + 1];
      }
    }
  }
}

}  // namespace detail

// The diamond schedule on the parity grids of pp for the plane functor f
// on V-lane tiles (V::value_type is the grid's element type).
template <class V, class F, class G>
void diamond_plane_run(const F& f, grid::PingPong<G>& pp, long steps,
                       const TileOptions& opt) {
  using T = typename V::value_type;
  using Slab = tv::LevelSlab<T>;
  const int nx = pp.even().nx();
  const tv::PlaneShape pl = tv::plane_shape(pp.even());
  const int s = std::max(2, opt.stride);
  // One ring workspace per runner slot; the tile sizes it lazily, so it
  // first-touches its ring on the worker that sweeps it.
  std::vector<tv::SlabRing<V>> tls(stage_slots(opt.exec));
  const auto cols = tv::TileCols<V::lanes>::full(pl.n);
  diamond_schedule<V::lanes, F::radius>(
      opt, s, nx, steps,
      // tvsrace: partitioned(x0)
      [&](int x0, int x1) {
        detail::mirror_planes<T>(pp.even(), pp.odd(), x0, x1);
      },
      // tvsrace: partitioned(rows)
      [&](int slot, long tt, const tv::TileRows<V::lanes>& rows) {
        G& a0 = pp.by_parity(tt);
        const detail::ParityLevels<G, T> lev{&pp.by_parity(tt + 1), &a0};
        tv::tv_plane_tile<V>(f, a0, lev, tls[static_cast<std::size_t>(slot)],
                             rows, cols, s, !opt.use_vector);
      },
      // tvsrace: partitioned(x0)
      [&](long t, int x0, int x1) {
        G& src = pp.by_parity(t);
        G& dst = pp.by_parity(t + 1);
        for (int r = x0; r <= x1; ++r)
          tv::detail::scalar_plane(f, Slab::of(dst, r), Slab::of(src, r - 1),
                                   Slab::of(src, r), Slab::of(src, r + 1), r,
                                   pl, 1, pl.n);
      });
}

}  // namespace tvs::tiling
