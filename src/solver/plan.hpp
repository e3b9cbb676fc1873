// ExecutionPlan: every tuning knob the temporal-vectorization engines
// expose, chosen once per StencilProblem.
//
// The paper's §3.3/§5 (and the temporal-blocking literature) make these
// knobs problem- and machine-dependent: the space stride s trades ILP
// distance against ring pressure, the tile width/height trade parallelism
// against cache residency, and the serial-vs-tiled path depends on the
// thread budget.  The planner centralizes the choice:
//
//   heuristic_plan()  paper-default knobs scaled by problem shape (free)
//   tune_plan()       micro-benchmarks 2-3 candidate strides/tiles on a
//                     small replica of the problem and keeps the fastest
//   parse_plan_spec() the TVS_PLAN pinning override ("stride=7,path=tv")
//
// validate_plan() enforces the §3.2 stride-legality condition (and the
// engines' capacity bounds) in exactly one place, so an illegal plan is
// rejected with a clear error before any kernel runs.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "dispatch/backend.hpp"
#include "solver/problem.hpp"

namespace tvs::solver {

// How the problem is executed.
enum class Path : int {
  kSerialTv = 0,       // one temporally vectorized sweep over the grid
  kTiledParallel = 1,  // diamond / parallelogram / wavefront tiles (OpenMP)
};

std::string_view path_name(Path p);

// Which temporal-engine generation runs on the serial path.  kRe is the
// redundancy-eliminated variant (the Re steady loop of tv1d_tile /
// tv_plane_tile, registered under the *_re ids): one reorganization
// shuffle per produced vector plus register-carried window operands,
// bit-identical results.  Registered for the five Jacobi families only;
// the tiled drivers ignore it.
enum class Variant : int {
  kTv = 0,  // baseline temporal engines (Re = false)
  kRe = 1,  // redundancy-eliminated engines (Re = true, the *_re ids)
};

std::string_view variant_name(Variant v);

struct ExecutionPlan {
  // SIMD backend the kernel ids resolve at (downward fallback applies).
  dispatch::Backend backend = dispatch::Backend::kScalar;
  // Vector length to pin the temporal engines to; 0 = the backend's
  // native width.
  int vl = 0;
  // Temporal-vectorization space stride s (§3.2/§3.3).
  int stride = 1;
  // Tile base width / band height for the tiled path (diamond W x H,
  // parallelogram W x H, LCS block x band).  Ignored on the serial path.
  int tile_w = 0;
  int tile_h = 0;
  Path path = Path::kSerialTv;
  // Engine generation on the serial path (Jacobi families only).
  Variant variant = Variant::kTv;

  // Canonical spec string, parseable by parse_plan_spec:
  // "backend=avx2,vl=0,stride=7,tile=16384x128,path=tiled".  The variant
  // clause is emitted only when it deviates from the kTv default, so specs
  // recorded before the knob existed stay canonical.
  std::string to_string() const;
};

// The paper-default plan for the problem: stride and tiling from Table 1
// (the family table, solver/family.hpp) scaled to the problem shape, tiled
// path iff the problem asks for more than one thread and the family's
// tiled driver is registered for the problem's dtype (f32 Gauss-Seidel
// therefore plans serial), backend from dispatch::selected_backend(), and
// vl = 0: the registry resolves the backend's native width for the dtype
// (the doubled float width on the serial path).
ExecutionPlan heuristic_plan(const StencilProblem& p);

// Measured refinement of heuristic_plan(): times 2-3 candidate strides
// (serial path) or tile shapes (tiled path) on a small replica of the
// problem and returns the fastest.  Deterministic inputs, wall-clock
// measured; expect run-to-run variation in the *choice* but never in the
// *result* (all candidates are bit-identical by the §3.2 contract).
ExecutionPlan tune_plan(const StencilProblem& p);

// Applies a comma-separated "key=value" spec on top of `base` and returns
// the result.  Keys: backend (scalar|avx2|avx512), vl (int), stride (int),
// tile (WxH), path (tv|tiled), variant (tv|re).  Unknown keys, malformed
// values and empty
// clauses throw std::invalid_argument naming the offending clause; the
// result is NOT validated here (validate_plan does that).
ExecutionPlan apply_plan_spec(ExecutionPlan base, std::string_view spec);

// Rejects plans that cannot run: illegal stride for the family's
// dependence set (§3.2), stride beyond an engine's ring capacity,
// non-positive tile extents on the tiled path, a tiled path for a family
// with no tiled driver registered for the problem's dtype, a tiled stride
// beyond the driver's cap (tiling::kMaxDiamond1DStride,
// kMaxParallelogramStride), or a backend this binary/CPU cannot execute.
// Throws std::invalid_argument / std::runtime_error with the reason.
void validate_plan(const StencilProblem& p, const ExecutionPlan& plan);

// True when the family has a parallel tiling driver (everything except
// Jacobi 1D5P, which only has the serial temporal engine).
bool family_has_tiled_path(Family f);

// True for the Gauss-Seidel families, whose tiled driver is a parallelogram
// wavefront that runs in place (capped at tiling::kMaxParallelogramStride).
bool family_is_gauss_seidel(Family f);

// The registry id of the family's serial temporal engine (kRe swaps in the
// redundancy-eliminated engine of a Jacobi family; the other families
// ignore the variant) and of its tiled parallel driver (diamond for
// Jacobi/Life, parallelogram for Gauss-Seidel, wavefront for LCS).
// tiled_kernel_id throws Error(kBadPath) for a family without one.
std::string_view serial_kernel_id(Family f, Variant v);
std::string_view tiled_kernel_id(Family f);

}  // namespace tvs::solver
