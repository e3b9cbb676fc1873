// Public entry point for the temporally vectorized 2D5P Gauss-Seidel
// stencil (s >= 2; see tv_plane_impl.hpp).
#pragma once

#include "grid/grid2d.hpp"
#include "stencil/coefficients.hpp"

namespace tvs::tv {

void tv_gs2d5_run(const stencil::C2D5& c, grid::Grid2D<double>& u, long sweeps,
                  int stride = 2);

// Single-precision overload.
void tv_gs2d5_run(const stencil::C2D5f& c, grid::Grid2D<float>& u, long sweeps,
                  int stride = 2);

}  // namespace tvs::tv
