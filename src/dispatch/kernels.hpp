// The dispatch surface: one id + one signature alias per registered kernel.
//
// This header is the single place where a kernel id and its function
// signature are tied together.  A backend TU registers `&impl` through a
// `static_cast<FnAlias*>` (backend_variant.hpp), and the public dispatcher
// looks the id up with `get<FnAlias>(id)`, so a signature mismatch between
// producer and consumer is a compile error on the producer side.
//
// Ids name the module and the stencil (`tv_jacobi1d3`, `diamond_jacobi2d5`,
// ...).  Function-pointer types carry no default arguments; the defaults
// of a solve (stride, tile sizes) come from the planner (solver/plan.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "grid/grid1d.hpp"
#include "grid/grid2d.hpp"
#include "grid/grid3d.hpp"
#include "grid/pingpong.hpp"
#include "stencil/coefficients.hpp"
#include "stencil/kernels.hpp"
#include "tiling/stage_exec.hpp"

namespace tvs::dispatch {

// ---- tv/: temporal-vectorization kernels ----------------------------------
using TvJacobi1D3Fn = void(const stencil::C1D3&, grid::Grid1D<double>&, long,
                           int);
using TvJacobi1D5Fn = void(const stencil::C1D5&, grid::Grid1D<double>&, long,
                           int);
using TvJacobi2D5Fn = void(const stencil::C2D5&, grid::Grid2D<double>&, long,
                           int);
using TvJacobi2D9Fn = void(const stencil::C2D9&, grid::Grid2D<double>&, long,
                           int);
using TvJacobi3D7Fn = void(const stencil::C3D7&, grid::Grid3D<double>&, long,
                           int);
using TvGs1D3Fn = void(const stencil::C1D3&, grid::Grid1D<double>&, long, int);
using TvGs2D5Fn = void(const stencil::C2D5&, grid::Grid2D<double>&, long, int);
using TvGs3D7Fn = void(const stencil::C3D7&, grid::Grid3D<double>&, long, int);
// Single-precision variants of the temporal engines: same ids, registered
// under DType::kF32 (the registry's dtype axis keeps the signatures
// straight).
using TvJacobi1D3F32Fn = void(const stencil::C1D3f&, grid::Grid1D<float>&,
                              long, int);
using TvJacobi1D5F32Fn = void(const stencil::C1D5f&, grid::Grid1D<float>&,
                              long, int);
using TvJacobi2D5F32Fn = void(const stencil::C2D5f&, grid::Grid2D<float>&,
                              long, int);
using TvJacobi2D9F32Fn = void(const stencil::C2D9f&, grid::Grid2D<float>&,
                              long, int);
using TvJacobi3D7F32Fn = void(const stencil::C3D7f&, grid::Grid3D<float>&,
                              long, int);
using TvGs1D3F32Fn = void(const stencil::C1D3f&, grid::Grid1D<float>&, long,
                          int);
using TvGs2D5F32Fn = void(const stencil::C2D5f&, grid::Grid2D<float>&, long,
                          int);
using TvGs3D7F32Fn = void(const stencil::C3D7f&, grid::Grid3D<float>&, long,
                          int);
using TvLifeFn = void(const stencil::LifeRule&, grid::Grid2D<std::int32_t>&,
                      long, int);
// Fills row[0..|b|] with the final DP row; row must have
// |b|+1+tv::kLcsRowPad slots (padding for the grouped loads of the widest
// engine).
using TvLcsRowsFn = void(std::span<const std::int32_t>,
                         std::span<const std::int32_t>, std::int32_t*);

inline constexpr std::string_view kTvJacobi1D3 = "tv_jacobi1d3";
inline constexpr std::string_view kTvJacobi1D5 = "tv_jacobi1d5";
inline constexpr std::string_view kTvJacobi2D5 = "tv_jacobi2d5";
inline constexpr std::string_view kTvJacobi2D9 = "tv_jacobi2d9";
inline constexpr std::string_view kTvJacobi3D7 = "tv_jacobi3d7";
// Redundancy-eliminated engine variants (the engines' Re = true steady
// loop, registered beside the baseline ids in tv1d/tv2d/tv3d.cpp):
// one-shuffle reorganization + register-carried window operands,
// bit-identical results.  Same signatures as the baseline ids — callers
// switch ids, not types.
inline constexpr std::string_view kTvJacobi1D3Re = "tv_jacobi1d3_re";
inline constexpr std::string_view kTvJacobi1D5Re = "tv_jacobi1d5_re";
inline constexpr std::string_view kTvJacobi2D5Re = "tv_jacobi2d5_re";
inline constexpr std::string_view kTvJacobi2D9Re = "tv_jacobi2d9_re";
inline constexpr std::string_view kTvJacobi3D7Re = "tv_jacobi3d7_re";
inline constexpr std::string_view kTvGs1D3 = "tv_gs1d3";
inline constexpr std::string_view kTvGs2D5 = "tv_gs2d5";
inline constexpr std::string_view kTvGs3D7 = "tv_gs3d7";
inline constexpr std::string_view kTvLife = "tv_life";
inline constexpr std::string_view kTvLcsRows = "tv_lcs_rows";

// ---- baseline/: spatial-vectorization comparison points --------------------
using BlJacobi1DFn = void(const stencil::C1D3&, grid::Grid1D<double>&, long);
using BlJacobi1D5Fn = void(const stencil::C1D5&, grid::Grid1D<double>&, long);
using BlJacobi2D5Fn = void(const stencil::C2D5&, grid::Grid2D<double>&, long);
using BlJacobi2D9Fn = void(const stencil::C2D9&, grid::Grid2D<double>&, long);
using BlJacobi3D7Fn = void(const stencil::C3D7&, grid::Grid3D<double>&, long);
using BlLifeFn = void(const stencil::LifeRule&, grid::Grid2D<std::int32_t>&,
                      long);

inline constexpr std::string_view kAutovecJacobi1D3 = "autovec_jacobi1d3";
inline constexpr std::string_view kAutovecJacobi1D5 = "autovec_jacobi1d5";
inline constexpr std::string_view kAutovecJacobi2D5 = "autovec_jacobi2d5";
inline constexpr std::string_view kAutovecJacobi2D9 = "autovec_jacobi2d9";
inline constexpr std::string_view kAutovecJacobi3D7 = "autovec_jacobi3d7";
inline constexpr std::string_view kAutovecLife = "autovec_life";
inline constexpr std::string_view kParAutovecJacobi1D3 = "par_autovec_jacobi1d3";
inline constexpr std::string_view kParAutovecJacobi2D5 = "par_autovec_jacobi2d5";
inline constexpr std::string_view kParAutovecJacobi2D9 = "par_autovec_jacobi2d9";
inline constexpr std::string_view kParAutovecJacobi3D7 = "par_autovec_jacobi3d7";
inline constexpr std::string_view kParAutovecLife = "par_autovec_life";
inline constexpr std::string_view kMultiloadJacobi1D3 = "multiload_jacobi1d3";
inline constexpr std::string_view kReorgJacobi1D3 = "reorg_jacobi1d3";
inline constexpr std::string_view kDltJacobi1D3 = "dlt_jacobi1d3";
inline constexpr std::string_view kMultiloadJacobi2D5 = "multiload_jacobi2d5";
inline constexpr std::string_view kMultiloadJacobi2D9 = "multiload_jacobi2d9";
inline constexpr std::string_view kMultiloadJacobi3D7 = "multiload_jacobi3d7";
inline constexpr std::string_view kMultiloadLife = "multiload_life";

// ---- tiling/: parallel tile schedules --------------------------------------
using DiamondJacobi1D3Fn = void(const stencil::C1D3&,
                                grid::PingPong<grid::Grid1D<double>>&, long,
                                const tiling::TileOptions&);
using DiamondJacobi2D5Fn = void(const stencil::C2D5&,
                                grid::PingPong<grid::Grid2D<double>>&, long,
                                const tiling::TileOptions&);
using DiamondJacobi2D9Fn = void(const stencil::C2D9&,
                                grid::PingPong<grid::Grid2D<double>>&, long,
                                const tiling::TileOptions&);
using DiamondLifeFn = void(const stencil::LifeRule&,
                           grid::PingPong<grid::Grid2D<std::int32_t>>&, long,
                           const tiling::TileOptions&);
using DiamondJacobi3D7Fn = void(const stencil::C3D7&,
                                grid::PingPong<grid::Grid3D<double>>&, long,
                                const tiling::TileOptions&);
// Single-precision diamond drivers: same ids, registered under
// DType::kF32 (8-lane float tiles, the f64 drivers' 32-byte tile width).
using DiamondJacobi1D3F32Fn = void(const stencil::C1D3f&,
                                   grid::PingPong<grid::Grid1D<float>>&, long,
                                   const tiling::TileOptions&);
using DiamondJacobi2D5F32Fn = void(const stencil::C2D5f&,
                                   grid::PingPong<grid::Grid2D<float>>&, long,
                                   const tiling::TileOptions&);
using DiamondJacobi2D9F32Fn = void(const stencil::C2D9f&,
                                   grid::PingPong<grid::Grid2D<float>>&, long,
                                   const tiling::TileOptions&);
using DiamondJacobi3D7F32Fn = void(const stencil::C3D7f&,
                                   grid::PingPong<grid::Grid3D<float>>&, long,
                                   const tiling::TileOptions&);
using ParallelogramGs1D3Fn = void(const stencil::C1D3&, grid::Grid1D<double>&,
                                  long, const tiling::TileOptions&);
using ParallelogramGs2D5Fn = void(const stencil::C2D5&, grid::Grid2D<double>&,
                                  long, const tiling::TileOptions&);
using ParallelogramGs3D7Fn = void(const stencil::C3D7&, grid::Grid3D<double>&,
                                  long, const tiling::TileOptions&);
using LcsWavefrontFn = std::int32_t(std::span<const std::int32_t>,
                                    std::span<const std::int32_t>,
                                    const tiling::TileOptions&);

inline constexpr std::string_view kDiamondJacobi1D3 = "diamond_jacobi1d3";
inline constexpr std::string_view kDiamondJacobi2D5 = "diamond_jacobi2d5";
inline constexpr std::string_view kDiamondJacobi2D9 = "diamond_jacobi2d9";
inline constexpr std::string_view kDiamondLife = "diamond_life";
inline constexpr std::string_view kDiamondJacobi3D7 = "diamond_jacobi3d7";
inline constexpr std::string_view kParallelogramGs1D3 = "parallelogram_gs1d3";
inline constexpr std::string_view kParallelogramGs2D5 = "parallelogram_gs2d5";
inline constexpr std::string_view kParallelogramGs3D7 = "parallelogram_gs3d7";
inline constexpr std::string_view kLcsWavefront = "lcs_wavefront";

}  // namespace tvs::dispatch
