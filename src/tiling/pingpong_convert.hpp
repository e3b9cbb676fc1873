// Grid <-> parity-pair conversion for Grid-form diamond solves,
// in place: the caller's grid is moved in as the even parity (no copy),
// one partner grid of the same extents is allocated as the odd parity
// (zero pages until the driver touches them, see grid/aligned.hpp), and
// the driver itself mirrors the boundary and halo cells into the partner
// as its first stage.  Afterwards the storage is moved back into the
// caller's grid — on an exception too — so the grid keeps its buffer
// address; an even step count leaves the result there already, an odd one
// copies the result's cells [0, n+1] over from the partner.  Used by the
// Solver's router (solver/solver.cpp) and by the tests and benches that
// run a diamond driver from the registry on a single grid, so the copy
// ranges live in exactly one place.
#pragma once

#include <algorithm>
#include <utility>

#include "grid/grid1d.hpp"
#include "grid/grid2d.hpp"
#include "grid/grid3d.hpp"
#include "grid/pingpong.hpp"
#include "tv/tile.hpp"

namespace tvs::tiling {

namespace detail {

// Copies the cells [0, n+1] of every dimension (boundary included).
template <class T>
void copy_cells(const grid::Grid1D<T>& src, grid::Grid1D<T>& dst) {
  std::copy(src.p(), src.p() + src.nx() + 2, dst.p());
}
template <class T>
void copy_cells(const grid::Grid2D<T>& src, grid::Grid2D<T>& dst) {
  for (int x = 0; x <= src.nx() + 1; ++x)
    std::copy(src.row(x), src.row(x) + src.ny() + 2, dst.row(x));
}
template <class T>
void copy_cells(const grid::Grid3D<T>& src, grid::Grid3D<T>& dst) {
  for (int x = 0; x <= src.nx() + 1; ++x)
    for (int y = 0; y <= src.ny() + 1; ++y)
      std::copy(src.line(x, y), src.line(x, y) + src.nz() + 2, dst.line(x, y));
}

}  // namespace detail

// Runs run(pp) on a parity pair whose even grid is u's own storage; u
// holds the result of `steps` steps afterwards.
template <class GridT, class Run>
void with_pingpong(GridT& u, long steps, Run run) {
  GridT partner = tv::grid_like(u);
  grid::PingPong<GridT> pp(std::move(u), std::move(partner));
  class Restore {
   public:
    Restore(GridT& dst, grid::PingPong<GridT>& src) : u_(dst), pp_(src) {}
    ~Restore() { u_ = std::move(pp_.even()); }
    Restore(const Restore&) = delete;
    Restore& operator=(const Restore&) = delete;

   private:
    GridT& u_;
    grid::PingPong<GridT>& pp_;
  } restore(u, pp);
  run(pp);
  if (steps % 2 != 0) detail::copy_cells(pp.odd(), pp.even());
}

}  // namespace tvs::tiling
