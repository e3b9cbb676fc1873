// The one temporal tile every engine walks, serial or tiled.
//
// A tile advances vl = V::lanes time levels at once.  Level l (0 .. vl)
// covers rows [XL[l], XR[l]] of the outermost dimension: the whole domain
// at every level for the flat engines, a sloped interval clipped to
// [1, nx] for a diamond trapezoid (edges move ±R per level) or a
// Gauss-Seidel parallelogram (both edges slide -1 per level).  From the
// ranges alone follow
//
//   steady interval  x in [x_begin, x_end] with
//                    x_begin = max_l (XL[l] - (vl-l)s),
//                    x_end   = min_l (XR[l] - (vl-l)s),
//   left wedges      level l over [XL[l], x_begin + (vl-l)s - 1] (scalar),
//   right wedges     level l over [x_end + (vl-l)s + 1, XR[l]]   (scalar),
//
// and the bottom-read cap: the steady loop's level-0 reads never pass row
// XR[1] + R.  Rows beyond it belong to a neighbour tile that may be running
// concurrently, and the lanes they would feed fall outside every level
// range, so a clamped re-read of a safe row is used instead.  In the flat
// engine the cap is nx + R, inside the Dirichlet boundary cells.
//
// Where levels 1 .. vl-1 live is the caller's level-storage policy, a
// template parameter of each engine's tile.  Level 0 and level vl always
// live in the base array: the flat engines update in place, a diamond's
// even levels share parity(t0), and Gauss-Seidel has one array for all.
// A policy answers two questions per level and row — where the left
// wedges and the gather find it (`lo`), and where the flush and the right
// wedges find it (`hi`) — once per row, never per point:
//   flat engine     levels in two edge scratch planes (lo = left, hi = right)
//   diamond         lev_g(l) = pp.by_parity(t0 + l) for both
//   parallelogram   the single Gauss-Seidel array for both
// Boundary cells/columns read through a policy must hold the fixed
// Dirichlet values.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>

#include "grid/aligned.hpp"
#include "tv/ring.hpp"

namespace tvs::tv {

template <int VL>
struct TileRows {
  std::array<int, VL + 1> XL{}, XR{};
  int read_cap = 0;  // last row the steady loop may read level 0 from

  // Every level over the whole domain [1, nx] (the flat engines).
  static constexpr TileRows full(int nx, int radius) {
    return sloped(1, nx, 0, 0, nx, radius);
  }
  // Level l covers [xl0 + dl*l, xr0 + dr*l] clipped to [1, nx].
  static constexpr TileRows sloped(int xl0, int xr0, int dl, int dr, int nx,
                                   int radius) {
    TileRows t;
    for (int l = 0; l <= VL; ++l) {
      t.XL[static_cast<std::size_t>(l)] = std::max(1, xl0 + dl * l);
      t.XR[static_cast<std::size_t>(l)] = std::min(nx, xr0 + dr * l);
    }
    t.read_cap = t.XR[1] + radius;
    return t;
  }

  constexpr int xl(int l) const { return XL[static_cast<std::size_t>(l)]; }
  constexpr int xr(int l) const { return XR[static_cast<std::size_t>(l)]; }

  constexpr int x_begin(int s) const {
    int x = xl(1) - (VL - 1) * s;
    for (int l = 2; l <= VL; ++l) x = std::max(x, xl(l) - (VL - l) * s);
    return x;
  }
  constexpr int x_end(int s) const {
    int x = xr(1) - (VL - 1) * s;
    for (int l = 2; l <= VL; ++l) x = std::min(x, xr(l) - (VL - l) * s);
    return x;
  }
  // False when the steady interval is too short for the vector pipeline;
  // the tile then updates every level in scalar, levels ascending.
  constexpr bool vector_ok(int s) const { return x_end(s) - x_begin(s) >= VL; }
};

// One level line of a 1D tile: element x lives at p[x - base].
template <class T>
struct LevelLine {
  T* p = nullptr;
  std::ptrdiff_t base = 0;
  T& operator[](int x) const { return p[x - base]; }
};

// One level slab of a 3D tile: line y (z-indexable) at p + y * ystride.
template <class T>
struct LevelSlab {
  T* p = nullptr;
  std::ptrdiff_t ystride = 0;
  T* line(int y) const { return p + static_cast<std::ptrdiff_t>(y) * ystride; }
  // Plane r of a Grid3D.
  template <class G>
  static LevelSlab of(G& g, int r) {
    return {g.line(r, 0), g.zstride()};
  }
};

// Ring of input vectors for the 2D/3D tiles: `period` slots, each a slab
// of `lines` lines of `zstride` vectors (a 2D row ring is a one-line
// slab).  Lines are indexable at [-1, zstride-2] so both boundary cells
// fit.  prepare() reallocates only when the shape changes, so a per-slot
// ring first-touches its pages on the worker that sweeps it.
template <class V>
struct SlabRing {
  grid::AlignedBuffer<V> buf;
  int period = 0, lines = 0;
  std::ptrdiff_t zstride = 0;

  void prepare(int period_, int lines_, int n) {
    const std::ptrdiff_t zs = ((n + 4 + 15) / 16) * 16;
    if (period_ == period && lines_ == lines && zs == zstride) return;
    period = period_;
    lines = lines_;
    zstride = zs;
    buf = grid::AlignedBuffer<V>(static_cast<std::size_t>(period) *
                                 static_cast<std::size_t>(lines) *
                                 static_cast<std::size_t>(zstride));
  }
  V* line(int p, int y) {
    const int slot = RingIndex(period).slot(p);
    return buf.data() +
           (static_cast<std::ptrdiff_t>(slot) * lines + y) * zstride + 1;
  }
  V* row(int p) { return line(p, 0); }
};

// The flat 2D/3D engines' level-storage policy: levels 1..vl-1 live in
// edge scratch planes — the left ones for rows [1, (vl-1)s] (left wedges
// and gather), the right ones for rows [rbase+1, nx] (flush and right
// wedges; rbase + 1 is the flat x_end).  A plane is `lines` lines of
// `zstride` elements (a 2D row is a one-line plane), each line indexable
// at [-1, zstride-2]; lo / hi return the plane's first line.
//
// Both sides share one allocation: the flat engines allocate their
// workspace per call, and one block is what the allocator reuses across
// calls (two equal blocks get trimmed and re-faulted on every call).
template <class T>
struct EdgePlanes {
  grid::AlignedBuffer<T> buf;  // left planes, then right planes
  int lrows = 0, rrows = 0, rbase = 0, lines = 0, n = 0, vl = 0;
  std::ptrdiff_t zstride = 0;

  void prepare(int vl_, int s, int nx, int lines_, int n_) {
    vl = vl_;
    lines = lines_;
    n = n_;
    zstride = ((n + 4 + 15) / 16) * 16;
    lrows = (vl - 1) * s + 1;
    rbase = nx - (vl - 1) * s - 1;
    rrows = nx - rbase;
    buf = grid::AlignedBuffer<T>(static_cast<std::size_t>(vl - 1) *
                                 static_cast<std::size_t>(lrows + rrows) *
                                 static_cast<std::size_t>(lines * zstride));
  }
  T* lo(int l, int r) { return plane((l - 1) * lrows + r); }
  T* hi(int l, int r) {
    return plane((vl - 1) * lrows + (l - 1) * rrows + (r - rbase - 1));
  }
  T* plane(int i) {
    return buf.data() + static_cast<std::ptrdiff_t>(i) * lines * zstride + 1;
  }
  // Boundary cells are fixed for the whole run: copy every plane's frame
  // once from the grid, at(r, y, z) (2D grids: y == 0, z is the column).
  template <class At>
  void copy_frames(At&& at) {
    const auto frame = [&](T* p, int r) {
      for (int y = 0; y < lines; ++y) {
        T* line = p + static_cast<std::ptrdiff_t>(y) * zstride;
        if (lines > 1 && (y == 0 || y == lines - 1)) {
          for (int z = 0; z <= n + 1; ++z) line[z] = at(r, y, z);
        } else {
          for (const int z : {0, n + 1}) line[z] = at(r, y, z);
        }
      }
    };
    for (int l = 1; l <= vl - 1; ++l) {
      for (int r = 1; r < lrows; ++r) frame(lo(l, r), r);
      for (int r = rbase + 1; r <= rbase + rrows; ++r) frame(hi(l, r), r);
    }
  }
};

// The same planes as 3D slabs (line y at + y * zstride).
template <class T>
struct EdgeSlabs {
  EdgePlanes<T>* e;
  LevelSlab<T> lo(int l, int r) const { return {e->lo(l, r), e->zstride}; }
  LevelSlab<T> hi(int l, int r) const { return {e->hi(l, r), e->zstride}; }
};

// Ring state of a 2D/3D Gauss-Seidel tile: s+1 input-vector slabs plus one
// slab of the previous x iteration's outputs (the newest-south / -back
// operands).
template <class V>
struct GsRing {
  SlabRing<V> ring, w;
  void prepare(int s, int lines, int n) {
    ring.prepare(s + 1, lines, n);
    w.prepare(1, lines, n);
  }
};

}  // namespace tvs::tv
