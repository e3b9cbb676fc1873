// Diamond-tiled parallel drivers for the 1D Jacobi kernels (Figure 4b;
// Table 1's Heat-1D blocking 16384 x 128).
//
// Decomposition per band of height `height` (a multiple of vl: 4 doubles,
// or 8 floats for the f32 driver the registry holds under the same id),
// the band/phase schedule of tiling/schedule.hpp that the 2D and 3D
// drivers share, each phase one stage (tiling/stage_exec.hpp):
//   phase 1: shrinking trapezoids based at [1+kW, (k+1)W], mutually
//            independent;
//   phase 2: growing trapezoids from the seams kW (empty base), mutually
//            independent once phase 1 finished.
// The union of a phase-2 tile and the next band's phase-1 tile above it is
// the classic diamond.  Each trapezoid is the flat engine's tile
// (tv/tv1d_impl.hpp) on clipped, sloped rows (tv/tile.hpp) with its levels
// in two parity arrays: every value a^t_x that any *other* tile may read
// is written to parity(t)[x], and the slope-R tile edges guarantee a slot
// is only overwritten after its last reader ran (the classic two-array
// sufficiency of diamond tiling).  The result of step T is in parity(T).
#pragma once

#include "grid/grid1d.hpp"
#include "grid/pingpong.hpp"
#include "stencil/coefficients.hpp"
#include "tiling/stage_exec.hpp"

namespace tvs::tiling {

struct Diamond1DOptions {
  int width = 16384;   // tile base width W (paper Table 1)
  int height = 128;    // band height (time steps per band)
  int stride = 7;      // temporal-vectorization stride s
  bool use_vector = true;  // false: identical tiling, scalar tiles (bench baseline)
  // External stage executor (serving pool); nullptr = stage_run()'s
  // OpenMP loop.  Same tiles either way, bit-identical results.
  const StageExec* exec = nullptr;
};

// Input: pp.by_parity(0) holds the t = 0 data, boundary and halo cells
// included; the driver mirrors those cells (x <= 0, x >= nx+1) into
// pp.by_parity(1) before the first step, so the odd array's prior
// contents do not matter.  Output: pp.by_parity(steps) holds the result.
void diamond_jacobi1d3_run(const stencil::C1D3& c,
                           grid::PingPong<grid::Grid1D<double>>& pp,
                           long steps, const Diamond1DOptions& opt = {});

// In place on u (tiling/pingpong_convert.hpp): u's storage is the even
// array and one partner array is allocated; the result ends in u.
void diamond_jacobi1d3_run(const stencil::C1D3& c, grid::Grid1D<double>& u,
                           long steps, const Diamond1DOptions& opt = {});

}  // namespace tvs::tiling
