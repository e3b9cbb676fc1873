// Diamond tiling on (t, x-slabs) for the 3D7P Jacobi stencil (Figure 4f;
// Table 1: 32^3 x 8 blocking).  3D analogue of diamond2d.hpp.
#pragma once

#include "grid/grid3d.hpp"
#include "grid/pingpong.hpp"
#include "stencil/coefficients.hpp"
#include "tiling/stage_exec.hpp"

namespace tvs::tiling {

struct Diamond3DOptions {
  int width = 32;   // tile base width in x-slabs
  int height = 8;   // band height in time steps (multiple of the lane count)
  int stride = 2;
  bool use_vector = true;  // false: identical tiling, scalar tiles
  // External stage executor (serving pool); nullptr = stage_run()'s
  // OpenMP loop.  Same tiles either way, bit-identical results.
  const StageExec* exec = nullptr;
};

// Same parity-pair contract as diamond2d.hpp: pp.by_parity(0) holds t = 0,
// the driver's first stage mirrors its boundary and halo cells into
// pp.by_parity(1), and the result ends in pp.by_parity(steps).  Tiles are
// 4 doubles wide; the registry's f32 driver under the same id runs 8-lane
// float tiles (dispatch/kernels.hpp).
void diamond_jacobi3d7_run(const stencil::C3D7& c,
                           grid::PingPong<grid::Grid3D<double>>& pp,
                           long steps, const Diamond3DOptions& opt = {});
// In place on u, one partner grid allocated (tiling/pingpong_convert.hpp).
void diamond_jacobi3d7_run(const stencil::C3D7& c, grid::Grid3D<double>& u,
                           long steps, const Diamond3DOptions& opt = {});

}  // namespace tvs::tiling
