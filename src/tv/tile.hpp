// The one temporal tile every engine walks, serial or tiled, Jacobi or
// Gauss-Seidel.
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
// The stencil functor's dependence trait `newest_west` selects the family.
// A Jacobi functor (false) reads every operand from level l-1.  A
// Gauss-Seidel functor (true) reads its west operands — x-1 in 1D; the
// back (x-1), south (y-1) and west (z-1) ones on planes — from level l, the
// level being written; in the steady loop they are the previous output
// vectors (§3.4).  The trait fixes the ring's west lag (tv/ring.hpp), the
// carried west register, the plane tile's newest-value slab and the level
// the scalar wedges read those operands from; everything else is shared.
//
// Where levels 1 .. vl-1 live is the caller's level-storage policy, a
// template parameter of each tile.  Level 0 and level vl always live in
// the base array: the flat engines update in place, a diamond's even
// levels share parity(t0), and Gauss-Seidel has one array for all.
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
#include "grid/grid1d.hpp"
#include "grid/grid2d.hpp"
#include "grid/grid3d.hpp"
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

// The plane geometry of a 2D or 3D grid, taken from its type.  A plane is
// one row r of the outermost dimension x: `lines` lines of n inner cells
// plus a boundary cell at each end (z = 0 and n+1), of which the tiles
// update lines [y0, y1].  A Grid2D plane is one line with no y halo; a
// Grid3D plane is ny+2 lines whose lines 0 and ny+1 are halo (boundary)
// lines.  Every plane storage below gives a one-line plane a line stride
// of 0, so its lines y-1 and y+1 alias the centre line.
struct PlaneShape {
  int lines = 1, y0 = 0, y1 = 0, n = 0;
  constexpr bool halo(int y) const { return y < y0 || y > y1; }
};

template <class T>
constexpr PlaneShape plane_shape(const grid::Grid2D<T>& g) {
  return {1, 0, 0, g.ny()};
}
template <class T>
constexpr PlaneShape plane_shape(const grid::Grid3D<T>& g) {
  return {g.ny() + 2, 1, g.ny(), g.nz()};
}

// A zero-filled grid of g's extents.
template <class T>
grid::Grid1D<T> grid_like(const grid::Grid1D<T>& g) {
  return grid::Grid1D<T>(g.nx());
}
template <class T>
grid::Grid2D<T> grid_like(const grid::Grid2D<T>& g) {
  return {g.nx(), g.ny()};
}
template <class T>
grid::Grid3D<T> grid_like(const grid::Grid3D<T>& g) {
  return {g.nx(), g.ny(), g.nz()};
}

// Line y of a plane at p + y * ystride (each line indexable at z in
// [-1, n+1] at least).
template <class T>
struct LevelSlab {
  T* p = nullptr;
  std::ptrdiff_t ystride = 0;
  T* line(int y) const { return p + static_cast<std::ptrdiff_t>(y) * ystride; }
  // Plane r of a grid.
  static LevelSlab of(grid::Grid2D<T>& g, int r) { return {g.row(r), 0}; }
  static LevelSlab of(grid::Grid3D<T>& g, int r) {
    return {g.line(r, 0), g.zstride()};
  }
};

// The five lines a plane stencil reads at line y of plane x: lines x-1,
// x and x+1, and lines y-1 and y+1 of plane x (the centre line itself on
// a one-line plane).  U is a vector type for the steady loop and the
// element type for scalar code.
template <class U>
struct LineWindow {
  const U* xm;
  const U* c;
  const U* xp;
  const U* ym;
  const U* yp;
};

// The west lag of functor F's ring (tv/ring.hpp).
template <class F>
inline constexpr int kWestLag = west_lag(F::radius, F::newest_west);

// Functor Fn<V> re-instantiated at vector type H from its coefficients c:
// the same canonical formula, another width (the flat Gauss-Seidel runs'
// halving cascade).
template <class H, template <class> class Fn, class V>
Fn<H> rebind(const Fn<V>& f) {
  return Fn<H>(f.c);
}

// Ring of input vectors for the plane tile: `period` slots, each a slab of
// `lines` lines of `zstride` vectors, and for a newest-west functor one
// slab more, `newest`, holding the previous x iteration's outputs.  Lines
// are indexable at [-1, zstride-2] so both boundary cells fit.  prepare()
// reallocates only when the shape changes; the tile calls it, so a
// per-slot ring first-touches its pages on the worker that sweeps it.
template <class V>
struct SlabRing {
  grid::AlignedBuffer<V> buf;
  int period = 0, slabs = 0, lines = 0;
  std::ptrdiff_t zstride = 0, ystride = 0;

  void prepare(int period_, bool with_newest, PlaneShape pl) {
    const std::ptrdiff_t zs = ((pl.n + 4 + 15) / 16) * 16;
    const int slabs_ = period_ + (with_newest ? 1 : 0);
    if (period_ == period && slabs_ == slabs && pl.lines == lines &&
        zs == zstride)
      return;
    period = period_;
    slabs = slabs_;
    lines = pl.lines;
    zstride = zs;
    ystride = lines > 1 ? zstride : 0;
    buf = grid::AlignedBuffer<V>(static_cast<std::size_t>(slabs) *
                                 static_cast<std::size_t>(lines) *
                                 static_cast<std::size_t>(zstride));
  }
  LevelSlab<V> slab_at(int i) {
    return {buf.data() + static_cast<std::ptrdiff_t>(i) * lines * zstride + 1,
            ystride};
  }
  // Ring position p, and the newest-value slab.
  LevelSlab<V> slab(int p) { return slab_at(RingIndex(period).slot(p)); }
  LevelSlab<V> newest() { return slab_at(period); }
  V* line(int p, int y) { return slab(p).line(y); }
};

// The flat plane engines' level-storage policy: levels 1..vl-1 live in
// edge scratch planes — the left ones for rows [1, (vl-1)s] (left wedges
// and gather), the right ones for rows [rbase+1, nx] (flush and right
// wedges; rbase + 1 is the flat x_end).  lo / hi return the plane.
//
// Both sides share one allocation: the flat engines allocate their
// workspace per call, and one block is what the allocator reuses across
// calls (two equal blocks get trimmed and re-faulted on every call).
template <class T>
struct EdgePlanes {
  grid::AlignedBuffer<T> buf;  // left planes, then right planes
  PlaneShape pl;
  int lrows = 0, rrows = 0, rbase = 0, vl = 0;
  std::ptrdiff_t zstride = 0;

  void prepare(int vl_, int s, int nx, PlaneShape pl_) {
    vl = vl_;
    pl = pl_;
    zstride = ((pl.n + 4 + 15) / 16) * 16;
    lrows = (vl - 1) * s + 1;
    rbase = nx - (vl - 1) * s - 1;
    rrows = nx - rbase;
    buf = grid::AlignedBuffer<T>(static_cast<std::size_t>(vl - 1) *
                                 static_cast<std::size_t>(lrows + rrows) *
                                 static_cast<std::size_t>(pl.lines * zstride));
  }
  LevelSlab<T> lo(int l, int r) { return plane((l - 1) * lrows + r); }
  LevelSlab<T> hi(int l, int r) {
    return plane((vl - 1) * lrows + (l - 1) * rrows + (r - rbase - 1));
  }
  LevelSlab<T> plane(int i) {
    return {buf.data() + static_cast<std::ptrdiff_t>(i) * pl.lines * zstride + 1,
            pl.lines > 1 ? zstride : 0};
  }
  // Boundary cells are fixed for the whole run: copy every plane's frame
  // (halo lines and boundary columns) once from the grid g.
  template <class G>
  void copy_frames(G& g) {
    const auto frame = [&](LevelSlab<T> dst, int r) {
      const LevelSlab<T> src = LevelSlab<T>::of(g, r);
      for (int y = 0; y < pl.lines; ++y) {
        T* d = dst.line(y);
        const T* a = src.line(y);
        if (pl.halo(y)) {
          for (int z = 0; z <= pl.n + 1; ++z) d[z] = a[z];
        } else {
          for (const int z : {0, pl.n + 1}) d[z] = a[z];
        }
      }
    };
    for (int l = 1; l <= vl - 1; ++l) {
      for (int r = 1; r < lrows; ++r) frame(lo(l, r), r);
      for (int r = rbase + 1; r <= rbase + rrows; ++r) frame(hi(l, r), r);
    }
  }
};

// ---- steps of the plane tile -----------------------------------------------
//
// Slab p of a tile's ring holds, in lane k, plane p + (vl-1-k)s of level k.

// Gathers slab dst, every line and both boundary cells, lane k from the
// level plane src[k].
template <class V>
void gather_slab(LevelSlab<V> dst,
                 const LevelSlab<typename V::value_type>* src,
                 PlaneShape pl) {
  alignas(64) typename V::value_type lanes[V::lanes];
  for (int y = 0; y < pl.lines; ++y) {
    V* line = dst.line(y);
    for (int z = 0; z <= pl.n + 1; ++z) {
      for (int k = 0; k < V::lanes; ++k) lanes[k] = src[k].line(y)[z];
      line[z] = V::load(lanes);
    }
  }
}

// Writes the frame of produced slab p — halo lines and boundary columns,
// constant at every level — from the base grid g; lanes past the last
// plane read the boundary plane nx+1.
template <class V, class G>
void fill_frame(SlabRing<V>& ring, int p, G& g, int s, PlaneShape pl) {
  using T = typename V::value_type;
  constexpr int VL = V::lanes;
  LevelSlab<T> src[VL];
  for (int k = 0; k < VL; ++k)
    src[k] = LevelSlab<T>::of(g, std::min(p + (VL - 1 - k) * s, g.nx() + 1));
  alignas(64) T lanes[VL];
  const auto fill = [&](int y, int z) {
    for (int k = 0; k < VL; ++k) lanes[k] = src[k].line(y)[z];
    ring.line(p, y)[z] = V::load(lanes);
  };
  for (int y = 0; y < pl.lines; ++y) {
    if (pl.halo(y)) {
      for (int z = 0; z <= pl.n + 1; ++z) fill(y, z);
    } else {
      fill(y, 0);
      fill(y, pl.n + 1);
    }
  }
}

// Stores lanes 1 .. vl-1 of slab p into their levels, for each lane whose
// plane lies inside its level's rows; hi(l, r) is the tile's flush-side
// level lookup.
template <class V, class Hi>
void flush_slab(SlabRing<V>& ring, int p, const TileRows<V::lanes>& rows,
                int s, const Hi& hi, PlaneShape pl) {
  constexpr int VL = V::lanes;
  for (int k = 1; k <= VL - 1; ++k) {
    const int r = p + (VL - 1 - k) * s;
    if (r < rows.xl(k) || r > rows.xr(k)) continue;
    const auto dst = hi(k, r);
    for (int y = pl.y0; y <= pl.y1; ++y) {
      const V* line = ring.line(p, y);
      auto* d = dst.line(y);
      for (int z = 1; z <= pl.n; ++z) d[z] = line[z][k];
    }
  }
}

}  // namespace tvs::tv
