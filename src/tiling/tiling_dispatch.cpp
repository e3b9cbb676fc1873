// Public tiling/ entry points: registry dispatch plus the Grid-based
// wrappers (in-place parity pair, tiling/pingpong_convert.hpp), which are
// plain memory management and therefore common code.
#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"
#include "tiling/diamond.hpp"
#include "tiling/diamond2d.hpp"
#include "tiling/diamond3d.hpp"
#include "tiling/lcs_wavefront.hpp"
#include "tiling/parallelogram.hpp"
#include "tiling/parallelogram2d.hpp"
#include "tiling/pingpong_convert.hpp"

namespace tvs::tiling {

namespace {

template <class Fn>
Fn* lookup(std::string_view id) {
  return dispatch::KernelRegistry::instance().get<Fn>(id);
}

}  // namespace

// ---- 1D diamond ------------------------------------------------------------

void diamond_jacobi1d3_run(const stencil::C1D3& c,
                           grid::PingPong<grid::Grid1D<double>>& pp,
                           long steps, const Diamond1DOptions& opt) {
  static const auto fn =
      lookup<dispatch::DiamondJacobi1D3Fn>(dispatch::kDiamondJacobi1D3);
  fn(c, pp, steps, opt);
}

void diamond_jacobi1d3_run(const stencil::C1D3& c, grid::Grid1D<double>& u,
                           long steps, const Diamond1DOptions& opt) {
  with_pingpong(u, steps,
                [&](auto& pp) { diamond_jacobi1d3_run(c, pp, steps, opt); });
}

// ---- 2D diamond ------------------------------------------------------------

void diamond_jacobi2d5_run(const stencil::C2D5& c,
                           grid::PingPong<grid::Grid2D<double>>& pp,
                           long steps, const Diamond2DOptions& opt) {
  static const auto fn =
      lookup<dispatch::DiamondJacobi2D5Fn>(dispatch::kDiamondJacobi2D5);
  fn(c, pp, steps, opt);
}

void diamond_jacobi2d9_run(const stencil::C2D9& c,
                           grid::PingPong<grid::Grid2D<double>>& pp,
                           long steps, const Diamond2DOptions& opt) {
  static const auto fn =
      lookup<dispatch::DiamondJacobi2D9Fn>(dispatch::kDiamondJacobi2D9);
  fn(c, pp, steps, opt);
}

void diamond_life_run(const stencil::LifeRule& r,
                      grid::PingPong<grid::Grid2D<std::int32_t>>& pp,
                      long steps, const Diamond2DOptions& opt) {
  static const auto fn = lookup<dispatch::DiamondLifeFn>(dispatch::kDiamondLife);
  fn(r, pp, steps, opt);
}

void diamond_jacobi2d5_run(const stencil::C2D5& c, grid::Grid2D<double>& u,
                           long steps, const Diamond2DOptions& opt) {
  with_pingpong(u, steps,
                [&](auto& pp) { diamond_jacobi2d5_run(c, pp, steps, opt); });
}

void diamond_jacobi2d9_run(const stencil::C2D9& c, grid::Grid2D<double>& u,
                           long steps, const Diamond2DOptions& opt) {
  with_pingpong(u, steps,
                [&](auto& pp) { diamond_jacobi2d9_run(c, pp, steps, opt); });
}

void diamond_life_run(const stencil::LifeRule& r,
                      grid::Grid2D<std::int32_t>& u, long steps,
                      const Diamond2DOptions& opt) {
  with_pingpong(u, steps,
                [&](auto& pp) { diamond_life_run(r, pp, steps, opt); });
}

// ---- 3D diamond ------------------------------------------------------------

void diamond_jacobi3d7_run(const stencil::C3D7& c,
                           grid::PingPong<grid::Grid3D<double>>& pp,
                           long steps, const Diamond3DOptions& opt) {
  static const auto fn =
      lookup<dispatch::DiamondJacobi3D7Fn>(dispatch::kDiamondJacobi3D7);
  fn(c, pp, steps, opt);
}

void diamond_jacobi3d7_run(const stencil::C3D7& c, grid::Grid3D<double>& u,
                           long steps, const Diamond3DOptions& opt) {
  with_pingpong(u, steps,
                [&](auto& pp) { diamond_jacobi3d7_run(c, pp, steps, opt); });
}

// ---- Gauss-Seidel parallelograms -------------------------------------------

void parallelogram_gs1d3_run(const stencil::C1D3& c, grid::Grid1D<double>& u,
                             long sweeps, const Parallelogram1DOptions& opt) {
  static const auto fn =
      lookup<dispatch::ParallelogramGs1D3Fn>(dispatch::kParallelogramGs1D3);
  fn(c, u, sweeps, opt);
}

void parallelogram_gs2d5_run(const stencil::C2D5& c, grid::Grid2D<double>& u,
                             long sweeps, const ParallelogramNDOptions& opt) {
  static const auto fn =
      lookup<dispatch::ParallelogramGs2D5Fn>(dispatch::kParallelogramGs2D5);
  fn(c, u, sweeps, opt);
}

void parallelogram_gs3d7_run(const stencil::C3D7& c, grid::Grid3D<double>& u,
                             long sweeps, const ParallelogramNDOptions& opt) {
  static const auto fn =
      lookup<dispatch::ParallelogramGs3D7Fn>(dispatch::kParallelogramGs3D7);
  fn(c, u, sweeps, opt);
}

// ---- LCS wavefront ---------------------------------------------------------

std::int32_t lcs_wavefront(std::span<const std::int32_t> a,
                           std::span<const std::int32_t> b,
                           const LcsWavefrontOptions& opt) {
  static const auto fn = lookup<dispatch::LcsWavefrontFn>(dispatch::kLcsWavefront);
  return fn(a, b, opt);
}

}  // namespace tvs::tiling
