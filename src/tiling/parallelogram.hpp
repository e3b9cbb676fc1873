// Parallelogram-tiled, wavefront-parallel driver for the 1D Gauss-Seidel
// stencil (Figure 5b; Table 1's GS-1D blocking 2048 x 64).
//
// Diamond tiling is illegal for Gauss-Seidel (the newest-west dependence
// kills the growing phase), so the paper uses parallelogram tiles executed
// in wavefront order.  A tile of the (t, x) plane covers, at level
// l = 1..vl of one vector tile, the interval [xl0-(l-1), xr0-(l-1)] — both
// edges slide left one point per sweep, matching the a^{t}_{x+1}
// dependence.  Each tile is the Gauss-Seidel engine tile
// (tv/tv_gs1d_impl.hpp) on those rows with every level in the *single*
// array: because the edges slope exactly -1, the last write to an
// interface slot xl0-l is always the level-l value, which is precisely the
// newest-west operand the right-hand neighbour tile needs — no interface
// buffers at all.
//
// Tile dependences: (bt, bx) needs (bt, bx-1) [west interface] and
// (bt-1, bx), (bt-1, bx+1) [base row]; all are satisfied by executing
// anti-diagonal wavefronts w = 2*bt + bx, with every tile inside one
// wavefront independent (they are >= 2W+H points apart).  Parallelism
// therefore grows with the number of *bands* in flight, T/H.  The
// wavefront schedule, one stage per anti-diagonal, is shared with the 2D
// and 3D drivers (tiling/schedule.hpp).
#pragma once

#include "grid/grid1d.hpp"
#include "stencil/coefficients.hpp"
#include "tiling/stage_exec.hpp"

namespace tvs::tiling {

struct Parallelogram1DOptions {
  int width = 2048;  // tile width W (paper Table 1)
  int height = 64;   // band height (sweeps per band)
  int stride = 3;    // temporal-vectorization stride s (>= 2)
  bool use_vector = true;  // false: identical tiling, scalar tiles
  // External stage executor (serving pool); nullptr = stage_run()'s
  // OpenMP loop.  Same tiles either way, bit-identical results.
  const StageExec* exec = nullptr;
};

// Advance u by `sweeps` Gauss-Seidel sweeps, in place.
void parallelogram_gs1d3_run(const stencil::C1D3& c, grid::Grid1D<double>& u,
                             long sweeps,
                             const Parallelogram1DOptions& opt = {});

}  // namespace tvs::tiling
