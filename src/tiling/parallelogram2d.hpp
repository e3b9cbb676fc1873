// Parallelogram + wavefront tiling for the 2D and 3D Gauss-Seidel stencils
// (Figures 5d/5f; Table 1: GS-2D 128^2 x 32, GS-3D 32^3 x 32).  The tiling
// acts on (t, x-rows) — level l of a tile covers rows
// [xl0-(l-1), xr0-(l-1)] x the full inner dimensions — with the same
// single-array interface-ladder discipline as the 1D driver
// (parallelogram.hpp) and its anti-diagonal wavefront schedule
// w = 2*bt + bx (tiling/schedule.hpp).  Each tile is the plane tile with
// a Gauss-Seidel functor (tv/tv_plane_impl.hpp) on the parallelogram's
// rows.  The drivers are registry ids parallelogram_gs2d5 and
// parallelogram_gs3d7 (dispatch/kernels.hpp), in place on the grid.
#pragma once

#include "tiling/stage_exec.hpp"

namespace tvs::tiling {

struct ParallelogramNDOptions {
  int width = 128;  // tile width in rows
  int height = 32;  // band height in sweeps
  int stride = 2;
  bool use_vector = true;  // false: identical tiling, scalar tiles
  // External stage executor (serving pool); nullptr = stage_run()'s
  // OpenMP loop.  Same tiles either way, bit-identical results.
  const StageExec* exec = nullptr;
};

}  // namespace tvs::tiling
