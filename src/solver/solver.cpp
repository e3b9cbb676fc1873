// Solver kernel routing: registry-resolved temporal engines on the serial
// path, diamond / parallelogram / wavefront drivers on the tiled path.
// Stride legality was enforced once at plan validation (validate_plan) and
// the payload was checked once by validate_workload (workload.cpp), so the
// kernels are invoked directly as the registry returns them.
//
// One router serves every grid payload: the kernel id comes from the
// family (serial_kernel_id / tiled_kernel_id, plan.hpp), the function
// signature from the payload's (coefficient set, grid) types, and the
// lookup is pinned to the problem's element type, so a payload can only be
// cast to an engine of its own dtype.
#include "solver/solver.hpp"

#include <cassert>
#include <chrono>
#include <variant>

#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"
#include "tiling/pingpong_convert.hpp"
#include "tv/tv_lcs.hpp"  // kLcsRowPad
#include "util/omp_compat.hpp"

namespace tvs::solver {

namespace {

// Resolves `id` at the planned backend (and pinned width, vl > 0 — the
// serial path only; validate_plan rejects a pin on the tiled path) for
// element type `dt`.  An (id, dtype) pair nothing registered throws
// instead of casting another dtype's engine to Fn.
template <class Fn>
Fn* resolve(const ExecutionPlan& plan, std::string_view id,
            dispatch::DType dt) {
  return dispatch::KernelRegistry::instance().get_at<Fn>(
      id, plan.backend, plan.vl > 0 ? plan.vl : dispatch::kAnyVl, dt);
}

// Applies the problem's thread request to the tiled drivers for the
// duration of one run() (no-op when threads == 0 or OpenMP is absent).
// Under an external stage executor the pool supplies the parallelism:
// every driver stage, the diamonds' residual steps included, goes through
// it, and OpenMP is pinned to one thread so nothing fans out behind the
// pool.
class ThreadScope {
 public:
  explicit ThreadScope(int threads)
      : active_(threads > 0), saved_(omp_get_max_threads()) {
    if (active_) omp_set_num_threads(threads);
  }
  ~ThreadScope() {
    if (active_) omp_set_num_threads(saved_);
  }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  bool active_;
  int saved_;
};

// The tiled drivers' options: the plan's tile shape and stride, vector
// tiles, and the stage executor (null = OpenMP).
tiling::TileOptions tile_options(const ExecutionPlan& plan,
                                 const tiling::StageExec* ex) {
  return {plan.tile_w, plan.tile_h, plan.stride, true, ex};
}

// Runs p.steps steps of the payload (c, u) on the planned path.  The
// serial path calls the temporal engine; the tiled path calls the
// parallelogram driver in place (Gauss-Seidel) or the diamond driver on a
// parity pair built around u's own storage (tiling/pingpong_convert.hpp).
template <class C, class G>
void route(const StencilProblem& p, const ExecutionPlan& plan,
           const tiling::StageExec* ex, const C& c, G& u) {
  const dispatch::DType dt = p.effective_dtype();
  if (plan.path != Path::kTiledParallel) {
    const std::string_view id = serial_kernel_id(p.family, plan.variant);
    resolve<void(const C&, G&, long, int)>(plan, id, dt)(c, u, p.steps,
                                                         plan.stride);
    return;
  }
  const ThreadScope scope(ex != nullptr ? 1 : p.threads);
  const std::string_view id = tiled_kernel_id(p.family);
  const tiling::TileOptions opt = tile_options(plan, ex);
  if (family_is_gauss_seidel(p.family)) {
    resolve<void(const C&, G&, long, const tiling::TileOptions&)>(
        plan, id, dt)(c, u, p.steps, opt);
    return;
  }
  auto* run = resolve<void(const C&, grid::PingPong<G>&, long,
                           const tiling::TileOptions&)>(plan, id, dt);
  tiling::with_pingpong(u, p.steps, [&](grid::PingPong<G>& pp) {
    run(c, pp, p.steps, opt);
  });
}

// LCS: the tiled wavefront reports the length only; the serial row engine
// also returns DP row |a| (length |b| + 1).
void route_lcs(const StencilProblem& p, const ExecutionPlan& plan,
               const tiling::StageExec* ex, const detail::LcsJob& job,
               RunResult& out) {
  const dispatch::DType dt = p.effective_dtype();
  if (plan.path == Path::kTiledParallel) {
    const ThreadScope scope(ex != nullptr ? 1 : p.threads);
    out.lcs_length = resolve<dispatch::LcsWavefrontFn>(
        plan, tiled_kernel_id(p.family), dt)(job.a, job.b,
                                             tile_options(plan, ex));
    return;
  }
  const std::string_view id = serial_kernel_id(p.family, plan.variant);
  const std::size_t nb = job.b.size();
  out.lcs_row.assign(nb + 1 + tv::kLcsRowPad, 0);
  if (nb > 0) {
    resolve<dispatch::TvLcsRowsFn>(plan, id, dt)(job.a, job.b,
                                                 out.lcs_row.data());
  }
  out.lcs_row.resize(nb + 1);
  out.lcs_length = out.lcs_row.back();
}

}  // namespace

Solver::Solver(const StencilProblem& p, PlanMode mode)
    : prob_(p), plan_(plan_for(p, mode)) {}

Solver::Solver(const StencilProblem& p, const ExecutionPlan& plan)
    : prob_(p), plan_(plan) {
  validate_plan(prob_, plan_);
}

RunResult Solver::run(const Workload& w) const {
  validate_workload(prob_, w);
  RunResult out;
  out.plan = plan_;
  const auto t0 = std::chrono::steady_clock::now();
  std::visit(
      [&](const auto& job) {
        using Job = std::decay_t<decltype(job)>;
        if constexpr (std::is_same_v<Job, detail::LcsJob>) {
          route_lcs(prob_, plan_, stage_exec_, job, out);
        } else {
          assert(job.grid != nullptr &&
                 "validate_workload admitted a null grid");
          route(prob_, plan_, stage_exec_, job.coeffs, *job.grid);
        }
      },
      w.payload());
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace tvs::solver
