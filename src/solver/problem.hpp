// StencilProblem: the workload descriptor behind the Solver facade.
//
// A problem names *what* to compute — kernel family, grid extents, number
// of time steps / sweeps, and the requested thread count — and nothing
// about *how* (backend, vector length, stride, tiling).  The "how" is an
// ExecutionPlan (plan.hpp), chosen per problem by the planner and cached
// process-wide under the problem's signature() (plan_cache.hpp).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "dispatch/dtype.hpp"
#include "stencil/dependence.hpp"

namespace tvs::solver {

// The nine kernel families of the paper's evaluation (§3.4): Jacobi
// 1D3P/1D5P/2D5P/2D9P/3D7P, Gauss-Seidel 1D/2D/3D, Game of Life, and the
// LCS dynamic program.
enum class Family : int {
  kJacobi1D3 = 0,
  kJacobi1D5,
  kJacobi2D5,
  kJacobi2D9,
  kJacobi3D7,
  kGs1D3,
  kGs2D5,
  kGs3D7,
  kLife,
  kLcs,
};

inline constexpr int kFamilyCount = 10;

// "jacobi1d3", "gs2d5", "life", "lcs", ... (matches the registry id stems).
std::string_view family_name(Family f);

// Inverse of family_name; throws std::invalid_argument for unknown names,
// listing the valid ones.
Family parse_family(std::string_view name);

// Spatial dimensionality of the family's grid (LCS counts as 2: |a| x |b|).
int family_dim(Family f);

// The family's dependence set projected on (t, outermost-space-dim) —
// what the §3.2 stride-legality rule is checked against.
std::vector<stencil::Dep> family_deps(Family f);

// True when the family's element type can be `dt`: the floating-point
// families (Jacobi + Gauss-Seidel) run in f64 or f32; Life and LCS are
// fixed int32.
bool family_supports_dtype(Family f, dispatch::DType dt);

struct StencilProblem {
  Family family = Family::kJacobi1D3;
  // Grid extents (interior points).  1D families use nx; 2D families
  // nx x ny; 3D families nx x ny x nz.  LCS: nx = |a|, ny = |b|.
  int nx = 0;
  int ny = 0;
  int nz = 0;
  // Time steps (Jacobi/Life), sweeps (Gauss-Seidel); ignored by LCS.
  long steps = 0;
  // Requested worker threads for the tiled path: 0 = library default
  // (serial temporal vectorization), > 1 opts into the parallel tiling
  // drivers when the family has one.
  int threads = 0;
  // Element type of the grid.  kF64 (the default) is the paper's
  // configuration for the FP families; kF32 doubles the lanes per vector
  // register.  Ignored by Life/LCS, whose storage is fixed int32 — see
  // effective_dtype().
  dispatch::DType dtype = dispatch::DType::kF64;

  // The dtype the kernels actually run at: `dtype` for the FP families,
  // kI32 for Life/LCS.
  dispatch::DType effective_dtype() const;

  // Stable cache key: family, extents, steps and threads, e.g.
  // "jacobi2d5:nx=512:ny=512:steps=100:threads=4"; single-precision
  // problems append ":dtype=f32" (the f64 default stays unsuffixed so
  // pre-dtype signatures are unchanged).
  std::string signature() const;
};

}  // namespace tvs::solver
