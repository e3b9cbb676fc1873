// Solver: the single front door over the ~20 per-kernel entry points.
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
// sharing ONE family/dtype/extent validation (workload.hpp).  The typed
// run() overloads below are thin compatibility wrappers over the same
// pair; errors from every entry point are tvs::solver::Error (error.hpp),
// which derives std::invalid_argument.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "grid/grid1d.hpp"
#include "grid/grid2d.hpp"
#include "grid/grid3d.hpp"
#include "grid/pingpong.hpp"
#include "solver/error.hpp"
#include "solver/plan.hpp"
#include "solver/plan_cache.hpp"
#include "solver/problem.hpp"
#include "solver/workload.hpp"
#include "stencil/coefficients.hpp"
#include "stencil/kernels.hpp"

namespace tvs::tiling {
struct StageExec;
}

namespace tvs::solver {

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

  // ---- typed compatibility wrappers (forward to run(Workload)) -----------

  // Jacobi1D3 / Gs1D3 (by the problem's family).
  void run(const stencil::C1D3& c, grid::Grid1D<double>& u) const;
  // Jacobi1D5.
  void run(const stencil::C1D5& c, grid::Grid1D<double>& u) const;
  // Jacobi2D5 / Gs2D5.
  void run(const stencil::C2D5& c, grid::Grid2D<double>& u) const;
  // Jacobi2D9.
  void run(const stencil::C2D9& c, grid::Grid2D<double>& u) const;
  // Jacobi3D7 / Gs3D7.
  void run(const stencil::C3D7& c, grid::Grid3D<double>& u) const;
  // Life.
  void run(const stencil::LifeRule& r, grid::Grid2D<std::int32_t>& u) const;

  // Single-precision overloads of the FP families (StencilProblem::dtype
  // must be kF32; float problems always run the serial temporal path).
  void run(const stencil::C1D3f& c, grid::Grid1D<float>& u) const;
  void run(const stencil::C1D5f& c, grid::Grid1D<float>& u) const;
  void run(const stencil::C2D5f& c, grid::Grid2D<float>& u) const;
  void run(const stencil::C2D9f& c, grid::Grid2D<float>& u) const;
  void run(const stencil::C3D7f& c, grid::Grid3D<float>& u) const;

  // Tiled-path parity-pair overloads: the caller owns both grids, fills
  // pp.even() (the driver mirrors its boundary cells into pp.odd()), and
  // finds the result of step `steps` in pp.by_parity(steps), as with the
  // raw diamond drivers.  Only valid on a kTiledParallel plan of a diamond
  // family.
  // These stay typed: their result placement differs from the Workload
  // contract, so they are not serving payloads.
  void run(const stencil::C1D3& c,
           grid::PingPong<grid::Grid1D<double>>& pp) const;
  void run(const stencil::C2D5& c,
           grid::PingPong<grid::Grid2D<double>>& pp) const;
  void run(const stencil::C2D9& c,
           grid::PingPong<grid::Grid2D<double>>& pp) const;
  void run(const stencil::C3D7& c,
           grid::PingPong<grid::Grid3D<double>>& pp) const;
  void run(const stencil::LifeRule& r,
           grid::PingPong<grid::Grid2D<std::int32_t>>& pp) const;

  // Lcs: length of the longest common subsequence (and the final DP row).
  // lcs() honours the planned path (tiled wavefront or serial rows);
  // lcs_row() always runs the serial row engine, whatever the plan.
  std::int32_t lcs(std::span<const std::int32_t> a,
                   std::span<const std::int32_t> b) const;
  std::vector<std::int32_t> lcs_row(std::span<const std::int32_t> a,
                                    std::span<const std::int32_t> b) const;

 private:
  // Kernel routing per payload shape, no validation (run(Workload) did it).
  void exec(const stencil::C1D3& c, grid::Grid1D<double>& u) const;
  void exec(const stencil::C1D5& c, grid::Grid1D<double>& u) const;
  void exec(const stencil::C2D5& c, grid::Grid2D<double>& u) const;
  void exec(const stencil::C2D9& c, grid::Grid2D<double>& u) const;
  void exec(const stencil::C3D7& c, grid::Grid3D<double>& u) const;
  void exec(const stencil::C1D3f& c, grid::Grid1D<float>& u) const;
  void exec(const stencil::C1D5f& c, grid::Grid1D<float>& u) const;
  void exec(const stencil::C2D5f& c, grid::Grid2D<float>& u) const;
  void exec(const stencil::C2D9f& c, grid::Grid2D<float>& u) const;
  void exec(const stencil::C3D7f& c, grid::Grid3D<float>& u) const;
  void exec(const stencil::LifeRule& r, grid::Grid2D<std::int32_t>& u) const;
  void exec_lcs(const detail::LcsJob& job, RunResult& out) const;
  std::vector<std::int32_t> exec_lcs_rows(
      std::span<const std::int32_t> a, std::span<const std::int32_t> b) const;

  StencilProblem prob_;
  ExecutionPlan plan_;
  // Non-owning; set via with_stage_exec().  When non-null the tiled
  // drivers fan their stages out on it and OpenMP is held to one thread
  // (the executor provides the parallelism).
  const tiling::StageExec* stage_exec_ = nullptr;
};

}  // namespace tvs::solver
