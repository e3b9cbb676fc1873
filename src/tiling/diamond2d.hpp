// Diamond tiling on (t, x-rows) for 2D stencils — the paper's parallel
// scheme: "the diamond tiling always applies to the outermost space loop
// and co-works with the temporal vectorization" (§3.4).  Tiles are
// trapezoids of rows x full-width y; data lives in two parity grids; each
// thread owns a private ring of input-vector rows.
#pragma once

#include <cstdint>

#include "grid/grid2d.hpp"
#include "grid/pingpong.hpp"
#include "stencil/coefficients.hpp"
#include "stencil/kernels.hpp"
#include "tiling/stage_exec.hpp"

namespace tvs::tiling {

struct Diamond2DOptions {
  int width = 256;  // tile base width in rows (Table 1: 256^2 x 64 blocks)
  int height = 32;  // band height in time steps (multiple of the lane count)
  int stride = 2;   // temporal-vectorization stride s (paper default for 2D)
  bool use_vector = true;  // false: identical tiling, scalar tiles
  // External stage executor (serving pool); nullptr = the driver's own
  // OpenMP loops.  Same tiles either way, bit-identical results.
  const StageExec* exec = nullptr;
};

// Jacobi 2D5P / 2D9P on a parity pair: pp.by_parity(0) holds t = 0,
// boundary and halo cells included; the driver's first stage mirrors those
// cells into pp.by_parity(1), so the odd grid's prior contents do not
// matter.  Result in pp.by_parity(steps).  Tiles are one 32-byte vector
// wide: 4 doubles, 8 int32s (Life), and 8 floats for the f32 drivers the
// registry holds under the Jacobi ids (dispatch/kernels.hpp).
void diamond_jacobi2d5_run(const stencil::C2D5& c,
                           grid::PingPong<grid::Grid2D<double>>& pp,
                           long steps, const Diamond2DOptions& opt = {});
void diamond_jacobi2d9_run(const stencil::C2D9& c,
                           grid::PingPong<grid::Grid2D<double>>& pp,
                           long steps, const Diamond2DOptions& opt = {});
void diamond_life_run(const stencil::LifeRule& r,
                      grid::PingPong<grid::Grid2D<std::int32_t>>& pp,
                      long steps, const Diamond2DOptions& opt = {});

// In place on u (tiling/pingpong_convert.hpp): u's storage is the even
// grid and one partner grid is allocated; the result ends in u.
void diamond_jacobi2d5_run(const stencil::C2D5& c, grid::Grid2D<double>& u,
                           long steps, const Diamond2DOptions& opt = {});
void diamond_jacobi2d9_run(const stencil::C2D9& c, grid::Grid2D<double>& u,
                           long steps, const Diamond2DOptions& opt = {});
void diamond_life_run(const stencil::LifeRule& r,
                      grid::Grid2D<std::int32_t>& u, long steps,
                      const Diamond2DOptions& opt = {});

}  // namespace tvs::tiling
