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
// A plane tile also has per-level columns on the unit-stride axis z
// (TileCols): whole lines for the flat engines and the diamonds, and for a
// Gauss-Seidel parallelogram blocked along z a range sliding -1 per level
// like its rows.  Every lane of a vector works at the same z, so where the
// levels' columns differ — at most vl-1 edge columns at each end — lane k
// is active only at the columns of level k+1 (see tv_plane_tile).
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

// The per-level columns of a plane tile: level l (1 .. vl) covers columns
// [ZL[l], ZR[l]] of the unit-stride axis, clipped to [1, n].  Level 0 is
// read, never written: at [ZL[1], ZR[1] + 1] (the z read cap) by a
// Gauss-Seidel tile, whose west operand is a newest value.
//
// In a single Gauss-Seidel array with both ends sliding -1 per level, the
// column left of a level's range, ZL[l] - 1, holds level l once the west
// neighbour tile ran (its level l ends there and was written last), and
// the column right of it, ZR[l] + 1, holds level l - 1 until the east
// neighbour runs.  So a lane's inputs outside its range are either there
// or never consumed, and no load needs a column another tile writes.
template <int VL>
struct TileCols {
  std::array<int, VL + 1> ZL{}, ZR{};
  int n = 0;

  // Every level over the whole line [1, n].
  static constexpr TileCols full(int n) { return sloped(1, n, 0, 0, n); }
  // Level l covers [zl0 + dl*l, zr0 + dr*l] clipped to [1, n].
  static constexpr TileCols sloped(int zl0, int zr0, int dl, int dr, int n) {
    TileCols c;
    c.n = n;
    for (int l = 0; l <= VL; ++l) {
      c.ZL[static_cast<std::size_t>(l)] = std::max(1, zl0 + dl * l);
      c.ZR[static_cast<std::size_t>(l)] = std::min(n, zr0 + dr * l);
    }
    return c;
  }

  constexpr int zl(int l) const { return ZL[static_cast<std::size_t>(l)]; }
  constexpr int zr(int l) const { return ZR[static_cast<std::size_t>(l)]; }

  constexpr bool whole() const {
    for (int l = 1; l <= VL; ++l)
      if (zl(l) != 1 || zr(l) != n) return false;
    return true;
  }
  // The columns some level covers, [first, last].
  constexpr int first() const {
    int z = zl(1);
    for (int l = 2; l <= VL; ++l) z = std::min(z, zl(l));
    return z;
  }
  constexpr int last() const {
    int z = zr(1);
    for (int l = 2; l <= VL; ++l) z = std::max(z, zr(l));
    return z;
  }
  // The columns every level covers, [steady_begin, steady_end]: every lane
  // of the steady loop is active there.
  constexpr int steady_begin() const {
    int z = zl(1);
    for (int l = 2; l <= VL; ++l) z = std::max(z, zl(l));
    return z;
  }
  constexpr int steady_end() const {
    int z = zr(1);
    for (int l = 2; l <= VL; ++l) z = std::min(z, zr(l));
    return z;
  }
  // False when no column is common to every level; the tile then updates
  // every level in scalar.
  constexpr bool vector_ok() const { return steady_begin() <= steady_end(); }
  // The last column a load of level 0 may touch.
  constexpr int read_cap() const { return zr(1) + 1; }
  // Whether lane k (the level k+1 output) is active at column z.
  constexpr bool active(int k, int z) const {
    return zl(k + 1) <= z && z <= zr(k + 1);
  }
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
// slab more, `newest`, holding the previous x iteration's outputs.  A line
// holds the tile's `cols` columns at 1 .. cols plus a frame column at each
// end (the boundary cells of a whole line), and is indexable at
// [-1, zstride-2].  prepare() reallocates only when the shape changes or
// the lines must grow; the tile calls it, so a per-slot ring first-touches
// its pages on the worker that sweeps it.
template <class V>
struct SlabRing {
  grid::AlignedBuffer<V> buf;
  int period = 0, slabs = 0, lines = 0;
  std::ptrdiff_t zstride = 0, ystride = 0;

  void prepare(int period_, bool with_newest, PlaneShape pl, int cols) {
    const std::ptrdiff_t zs = ((cols + 4 + 15) / 16) * 16;
    const int slabs_ = period_ + (with_newest ? 1 : 0);
    if (period_ == period && slabs_ == slabs && pl.lines == lines &&
        zs <= zstride)
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
// edge scratch planes.  The left wedges and the gather read level l at
// rows [1, (vl-l)s], the flush and the right wedges at rows [nx-ls, nx]
// (the flat x_end is nx - (vl-1)s), so level l keeps (vl-l)s planes on
// the left and ls+1 on the right: two triangles, not a rectangle per
// side.  lo / hi return the plane.
//
// Both sides share one allocation: the flat engines allocate their
// workspace per call, and one block is what the allocator reuses across
// calls (two equal blocks get trimmed and re-faulted on every call).
template <class T>
struct EdgePlanes {
  grid::AlignedBuffer<T> buf;  // left planes, then right planes
  PlaneShape pl;
  int vl = 0, s = 0, nx = 0, nleft = 0;
  std::ptrdiff_t zstride = 0;

  void prepare(int vl_, int s_, int nx_, PlaneShape pl_) {
    vl = vl_;
    s = s_;
    nx = nx_;
    pl = pl_;
    zstride = ((pl.n + 4 + 15) / 16) * 16;
    nleft = s * vl * (vl - 1) / 2;
    const int nright = nleft + vl - 1;
    buf = grid::AlignedBuffer<T>(static_cast<std::size_t>(nleft + nright) *
                                 static_cast<std::size_t>(pl.lines * zstride));
  }
  // Level l's first left plane (sum over m < l of (vl-m)s) and first right
  // plane (sum over m < l of ms+1).
  int left0(int l) const { return s * ((l - 1) * vl - (l - 1) * l / 2); }
  int right0(int l) const { return nleft + s * (l - 1) * l / 2 + (l - 1); }
  LevelSlab<T> lo(int l, int r) { return plane(left0(l) + r - 1); }
  LevelSlab<T> hi(int l, int r) {
    return plane(right0(l) + r - (nx - l * s));
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
      for (int r = 1; r <= (vl - l) * s; ++r) frame(lo(l, r), r);
      for (int r = nx - l * s; r <= nx; ++r) frame(hi(l, r), r);
    }
  }
};

// ---- steps of the plane tile -----------------------------------------------
//
// Slab p of a tile's ring holds, in lane k, plane p + (vl-1-k)s of level k.
// Ring column j holds grid column zo + j, for the tile's zo = first() - 1
// (0 for a whole line).

// Gathers slab dst at ring columns 0 .. m+1, lane k from the level plane
// src[k]: on a halo line at every column, on the other lines at columns
// [lo[k], hi[k]] only and zero elsewhere — a column outside a lane's range
// may be another tile's, and the lane never consumes it.
template <class V>
void gather_slab(LevelSlab<V> dst,
                 const LevelSlab<typename V::value_type>* src,
                 PlaneShape pl, int zo, int m, const int* lo, const int* hi) {
  using T = typename V::value_type;
  alignas(64) T lanes[V::lanes];
  for (int y = 0; y < pl.lines; ++y) {
    V* line = dst.line(y);
    const bool halo = pl.halo(y);
    for (int j = 0; j <= m + 1; ++j) {
      const int z = zo + j;
      for (int k = 0; k < V::lanes; ++k)
        lanes[k] = halo || (lo[k] <= z && z <= hi[k]) ? src[k].line(y)[z]
                                                      : T{};
      line[j] = V::load(lanes);
    }
  }
}

// Writes the frame of produced slab p — halo lines and the boundary
// columns among ring columns 0 .. m+1, constant at every level — from the
// base grid g; lanes past the last plane read the boundary plane nx+1.
template <class V, class G>
void fill_frame(SlabRing<V>& ring, int p, G& g, int s, PlaneShape pl, int zo,
                int m) {
  using T = typename V::value_type;
  constexpr int VL = V::lanes;
  LevelSlab<T> src[VL];
  for (int k = 0; k < VL; ++k)
    src[k] = LevelSlab<T>::of(g, std::min(p + (VL - 1 - k) * s, g.nx() + 1));
  alignas(64) T lanes[VL];
  const auto fill = [&](int y, int j) {
    for (int k = 0; k < VL; ++k) lanes[k] = src[k].line(y)[zo + j];
    ring.line(p, y)[j] = V::load(lanes);
  };
  for (int y = 0; y < pl.lines; ++y) {
    if (pl.halo(y)) {
      for (int j = 0; j <= m + 1; ++j) fill(y, j);
    } else {
      if (zo == 0) fill(y, 0);
      if (zo + m == pl.n) fill(y, m + 1);
    }
  }
}

// Stores lanes 1 .. vl-1 of slab p into their levels, for each lane whose
// plane lies inside its level's rows, at its level's columns; hi(l, r) is
// the tile's flush-side level lookup.
template <class V, class Hi>
void flush_slab(SlabRing<V>& ring, int p, const TileRows<V::lanes>& rows,
                const TileCols<V::lanes>& cols, int s, const Hi& hi,
                PlaneShape pl, int zo) {
  constexpr int VL = V::lanes;
  for (int k = 1; k <= VL - 1; ++k) {
    const int r = p + (VL - 1 - k) * s;
    if (r < rows.xl(k) || r > rows.xr(k)) continue;
    const auto dst = hi(k, r);
    for (int y = pl.y0; y <= pl.y1; ++y) {
      const V* line = ring.line(p, y);
      auto* d = dst.line(y);
      for (int z = cols.zl(k); z <= cols.zr(k); ++z) d[z] = line[z - zo][k];
    }
  }
}

}  // namespace tvs::tv
