// Public entry point for the temporally vectorized 3D7P Gauss-Seidel
// stencil (s >= 2; see tv_plane_impl.hpp).
#pragma once

#include "grid/grid3d.hpp"
#include "stencil/coefficients.hpp"

namespace tvs::tv {

void tv_gs3d7_run(const stencil::C3D7& c, grid::Grid3D<double>& u, long sweeps,
                  int stride = 2);

// Single-precision overload.
void tv_gs3d7_run(const stencil::C3D7f& c, grid::Grid3D<float>& u, long sweeps,
                  int stride = 2);

}  // namespace tvs::tv
