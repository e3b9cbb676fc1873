// Grid <-> parity-pair conversion for Grid-form diamond solves,
// in place: the caller's grid is moved in as the even parity (no copy),
// a partner grid of the same extents is moved in as the odd parity, and
// the driver itself mirrors the boundary and halo cells into the partner
// as its first stage, so the partner's prior contents do not matter.
// Afterwards the storage is moved back out — on an exception too — so the
// grid keeps its buffer address; an even step count leaves the result
// there already, an odd one copies the result's cells [0, n+1] over from
// the partner.
//
// Who owns the partner: the three-argument form allocates a fresh one
// per call (zero pages until the driver touches them, see
// grid/aligned.hpp) and frees it on return; the tests and benches that
// run a diamond driver from the registry on a single grid use it.  The
// four-argument form borrows the caller's partner for the call and hands
// it back, contents unspecified; the Solver's router (solver/solver.cpp)
// keeps one that way across the runs of a tiled plan.  Either way the
// copy ranges live in exactly one place.
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

template <class T>
bool same_extents(const grid::Grid1D<T>& a, const grid::Grid1D<T>& b) {
  return a.nx() == b.nx();
}
template <class T>
bool same_extents(const grid::Grid2D<T>& a, const grid::Grid2D<T>& b) {
  return a.nx() == b.nx() && a.ny() == b.ny();
}
template <class T>
bool same_extents(const grid::Grid3D<T>& a, const grid::Grid3D<T>& b) {
  return a.nx() == b.nx() && a.ny() == b.ny() && a.nz() == b.nz();
}

}  // namespace detail

// Runs run(pp) on a parity pair whose even grid is u's own storage and
// whose odd grid is partner's; u holds the result of `steps` steps
// afterwards, and partner its storage again.  A partner whose extents
// differ from u's (an empty grid, say) is replaced by a fresh one first.
template <class GridT, class Run>
void with_pingpong(GridT& u, GridT& partner, long steps, Run run) {
  if (!detail::same_extents(u, partner)) partner = tv::grid_like(u);
  grid::PingPong<GridT> pp(std::move(u), std::move(partner));
  class Restore {
   public:
    Restore(GridT& dst, GridT& odd, grid::PingPong<GridT>& src)
        : u_(dst), partner_(odd), pp_(src) {}
    ~Restore() {
      u_ = std::move(pp_.even());
      partner_ = std::move(pp_.odd());
    }
    Restore(const Restore&) = delete;
    Restore& operator=(const Restore&) = delete;

   private:
    GridT& u_;
    GridT& partner_;
    grid::PingPong<GridT>& pp_;
  } restore(u, partner, pp);
  run(pp);
  if (steps % 2 != 0) detail::copy_cells(pp.odd(), pp.even());
}

// The same on a fresh partner, freed on return.
template <class GridT, class Run>
void with_pingpong(GridT& u, long steps, Run run) {
  GridT partner;
  with_pingpong(u, partner, steps, std::move(run));
}

}  // namespace tvs::tiling
