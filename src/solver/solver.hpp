// Solver: the single front door over the per-kernel entry points.
//
//   StencilProblem p = solver::ProblemBuilder(solver::Family::kJacobi2D5)
//                          .extents(n, n).steps(steps).build();
//   solver::Solver s(p);          // plans once (cached process-wide)
//   s.run(solver::Workload(stencil::heat2d(0.2), u));
//
// Construction picks an ExecutionPlan for the problem — heuristic paper
// defaults, measured auto-tune (TVS_TUNE=1 / PlanMode::kTuned), or a
// TVS_PLAN pin — validates it (§3.2 stride legality, backend
// availability, tile sanity) exactly once, and run() then routes through
// the KernelRegistry: the serial path resolves the temporal engine at the
// planned (backend, vl) and calls it directly; the tiled path drives the
// diamond / parallelogram / wavefront kernels with the planned blocking.
// Every path is bit-identical to the direct tv_* / diamond_* entry points
// (and therefore to the scalar oracles).
//
// The execution API is the type-erased pair
//
//   run(const Workload&)    -> RunResult     synchronous, this thread
//   submit(Workload)        -> Future<RunResult>   async, on the serving
//                                            executor (serve/executor.hpp)
//
// sharing ONE family/dtype/extent validation (workload.hpp) and one
// generic kernel router (solver.cpp).  Every payload — the FP grids in
// f64/f32, Life, LCS — goes through this pair; errors are
// tvs::solver::Error (error.hpp), which derives std::invalid_argument.
//
// Memory: a Solver whose plan is a tiled diamond (the tiled path of the
// Jacobi families and Life) keeps the driver's odd-parity partner grid,
// one buffer the size of the problem's grid, between its runs instead of
// allocating one per run.  The Solver and all its copies (submit,
// with_stage_exec and Batch copy it) share that one partner; it is freed
// when the last of them is destroyed.  Two copies running at once take
// the partner and a fresh grid, and the slot keeps one of them afterwards.
// Every other plan holds nothing beyond the problem and the plan.
#pragma once

#include <memory>

#include "solver/error.hpp"
#include "solver/plan.hpp"
#include "solver/plan_cache.hpp"
#include "solver/problem.hpp"
#include "solver/workload.hpp"

namespace tvs::tiling {
struct StageExec;
}

namespace tvs::solver {

namespace detail {
class PartnerSlot;  // solver.cpp
}

class Solver {
 public:
  // Plans via plan_for() (cache + TVS_PLAN / TVS_TUNE aware).
  explicit Solver(const StencilProblem& p, PlanMode mode = PlanMode::kAuto);
  // Pins an explicit plan (validated here); used by benchmarks that must
  // measure one fixed configuration, and by the auto-tuner's candidates.
  Solver(const StencilProblem& p, const ExecutionPlan& plan);

  const StencilProblem& problem() const { return prob_; }
  const ExecutionPlan& plan() const { return plan_; }

  // ---- the unified execution pair -----------------------------------------

  // Validates the payload against the problem (one shared check) and runs
  // it synchronously on the calling thread.  Grid payloads update the
  // caller's grid in place; the LCS payload reports through RunResult.
  RunResult run(const Workload& w) const;

  // Same contract, asynchronous: the workload is enqueued on the serving
  // executor (serve::default_pool()) and the result — or the exception the
  // run raised — is delivered through the Future.  A non-owning workload's
  // grid/span storage must stay alive until the future is ready (see the
  // Workload lifetime contract in workload.hpp); owning workloads carry
  // their storage.  Bit-identical to run(): both resolve the same cached
  // plan and the same engines — a tiled-parallel plan may be decomposed
  // into per-tile pool tasks (serve/sched.hpp), which preserves the
  // wavefront stage order and therefore the exact results.
  Future<RunResult> submit(Workload w) const;

  // A copy of this solver whose tiled drivers hand their parallel stages
  // to `ex` instead of their own OpenMP loops (serve/sched.hpp builds one
  // over the serving pool).  `ex` must outlive every run(); nullptr
  // restores the default.  Results are bit-identical either way.
  Solver with_stage_exec(const tiling::StageExec* ex) const {
    Solver s = *this;
    s.stage_exec_ = ex;
    return s;
  }

 private:
  StencilProblem prob_;
  ExecutionPlan plan_;
  // Non-owning; set via with_stage_exec().  When non-null the tiled
  // drivers fan their stages out on it and OpenMP is held to one thread
  // (the executor provides the parallelism).
  const tiling::StageExec* stage_exec_ = nullptr;
  // The kept diamond partner grid, shared by every copy; null unless the
  // plan is a tiled diamond.
  std::shared_ptr<detail::PartnerSlot> partner_;
};

}  // namespace tvs::solver
