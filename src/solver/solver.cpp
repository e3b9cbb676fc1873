// Solver kernel routing: registry-resolved temporal engines on the serial
// path, diamond / parallelogram / wavefront drivers on the tiled path.
// Stride legality was enforced once at plan validation and the payload was
// checked once by validate_workload (workload.cpp), so the kernels are
// invoked directly (not through the re-validating tv_*_run wrappers).
#include "solver/solver.hpp"

#include <string>

#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"
#include "solver/error.hpp"
#include "tiling/diamond.hpp"
#include "tiling/diamond2d.hpp"
#include "tiling/diamond3d.hpp"
#include "tiling/lcs_wavefront.hpp"
#include "tiling/parallelogram.hpp"
#include "tiling/parallelogram2d.hpp"
#include "tiling/pingpong_convert.hpp"
#include "tv/tv_lcs.hpp"  // kLcsRowPad
#include "util/omp_compat.hpp"

namespace tvs::solver {

namespace {

template <class Fn>
Fn* resolve(const ExecutionPlan& plan, std::string_view id) {
  dispatch::KernelRegistry& reg = dispatch::KernelRegistry::instance();
  return plan.vl > 0 ? reg.get_at<Fn>(id, plan.backend, plan.vl)
                     : reg.get_at<Fn>(id, plan.backend);
}

// Dtype-pinned resolution for the serial temporal path (vl = 0 means the
// backend's native width for the dtype).
template <class Fn>
Fn* resolve_dt(const ExecutionPlan& plan, std::string_view id,
               dispatch::DType dt) {
  dispatch::KernelRegistry& reg = dispatch::KernelRegistry::instance();
  return reg.get_at<Fn>(id, plan.backend,
                        plan.vl > 0 ? plan.vl : dispatch::kAnyVl, dt);
}

// Serial Jacobi id selection: variant=re swaps in the
// redundancy-eliminated engine (same Fn signature, bit-identical result);
// validate_plan already rejected re plans for families without one.
std::string_view variant_id(const ExecutionPlan& plan, std::string_view tv_id,
                            std::string_view re_id) {
  return plan.variant == Variant::kRe ? re_id : tv_id;
}

// Family/extent guards for the parity-pair overloads, which do not route
// through validate_workload (they are a tiled-path special case, not a
// Workload payload).
void check_family(const StencilProblem& p, Family ok, const char* overload) {
  if (p.family == ok) return;
  throw Error(Errc::kBadFamily,
              "Solver::" + std::string(overload) + ": problem family " +
                  std::string(family_name(p.family)) +
                  " does not match this overload (expects " +
                  std::string(family_name(ok)) + ")",
              p.signature());
}

void check_extents(const StencilProblem& p, int nx, int ny, int nz) {
  const int dim = family_dim(p.family);
  if (nx != p.nx || (dim >= 2 && ny != p.ny) || (dim >= 3 && nz != p.nz)) {
    throw Error(Errc::kBadExtents,
                "Solver::run: grid extents disagree with the StencilProblem "
                "descriptor (problem " +
                    p.signature() + ")",
                p.signature());
  }
}

// Applies the problem's thread request to the tiled drivers for the
// duration of one run() (no-op when threads == 0 or OpenMP is absent).
// Under an external stage executor the pool supplies the parallelism, so
// OpenMP is pinned to one thread — any omp region a driver still reaches
// (the scalar residual loops) runs serially on the executing worker.
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

// Grid <-> parity-pair conversion comes from tiling/pingpong_convert.hpp
// (shared with tiling_dispatch.cpp); the Solver's only difference is that
// the run callback resolves the kernel at the *planned* backend.
using tiling::with_pingpong;

[[noreturn]] void throw_needs_tiled(const StencilProblem& p) {
  throw Error(Errc::kBadPath,
              "Solver::run: the parity-pair overload requires a tiled plan "
              "(problem " +
                  p.signature() + " planned path=tv); pass a Grid instead",
              p.signature());
}

}  // namespace

Solver::Solver(const StencilProblem& p, PlanMode mode)
    : prob_(p), plan_(plan_for(p, mode)) {}

Solver::Solver(const StencilProblem& p, const ExecutionPlan& plan)
    : prob_(p), plan_(plan) {
  validate_plan(prob_, plan_);
}

// ---- typed compatibility wrappers ------------------------------------------
// Each forwards through the Workload pair so validation happens in exactly
// one place (validate_workload).

void Solver::run(const stencil::C1D3& c, grid::Grid1D<double>& u) const {
  run(Workload(c, u));
}
void Solver::run(const stencil::C1D5& c, grid::Grid1D<double>& u) const {
  run(Workload(c, u));
}
void Solver::run(const stencil::C2D5& c, grid::Grid2D<double>& u) const {
  run(Workload(c, u));
}
void Solver::run(const stencil::C2D9& c, grid::Grid2D<double>& u) const {
  run(Workload(c, u));
}
void Solver::run(const stencil::C3D7& c, grid::Grid3D<double>& u) const {
  run(Workload(c, u));
}
void Solver::run(const stencil::C1D3f& c, grid::Grid1D<float>& u) const {
  run(Workload(c, u));
}
void Solver::run(const stencil::C1D5f& c, grid::Grid1D<float>& u) const {
  run(Workload(c, u));
}
void Solver::run(const stencil::C2D5f& c, grid::Grid2D<float>& u) const {
  run(Workload(c, u));
}
void Solver::run(const stencil::C2D9f& c, grid::Grid2D<float>& u) const {
  run(Workload(c, u));
}
void Solver::run(const stencil::C3D7f& c, grid::Grid3D<float>& u) const {
  run(Workload(c, u));
}
void Solver::run(const stencil::LifeRule& r,
                 grid::Grid2D<std::int32_t>& u) const {
  run(Workload(r, u));
}

// ---- 1D double families ----------------------------------------------------

void Solver::exec(const stencil::C1D3& c, grid::Grid1D<double>& u) const {
  if (prob_.family == Family::kGs1D3) {
    if (plan_.path == Path::kTiledParallel) {
      const ThreadScope scope(stage_exec_ != nullptr ? 1 : prob_.threads);
      tiling::Parallelogram1DOptions opt{plan_.tile_w, plan_.tile_h,
                                         plan_.stride, true};
      opt.exec = stage_exec_;
      resolve<dispatch::ParallelogramGs1D3Fn>(
          plan_, dispatch::kParallelogramGs1D3)(c, u, prob_.steps, opt);
    } else {
      resolve<dispatch::TvGs1D3Fn>(plan_, dispatch::kTvGs1D3)(
          c, u, prob_.steps, plan_.stride);
    }
    return;
  }
  if (plan_.path == Path::kTiledParallel) {
    with_pingpong(u, prob_.steps, [&](auto& pp) { run(c, pp); });
  } else {
    resolve<dispatch::TvJacobi1D3Fn>(
        plan_, variant_id(plan_, dispatch::kTvJacobi1D3,
                          dispatch::kTvJacobi1D3Re))(c, u, prob_.steps,
                                                     plan_.stride);
  }
}

void Solver::exec(const stencil::C1D5& c, grid::Grid1D<double>& u) const {
  resolve<dispatch::TvJacobi1D5Fn>(
      plan_,
      variant_id(plan_, dispatch::kTvJacobi1D5, dispatch::kTvJacobi1D5Re))(
      c, u, prob_.steps, plan_.stride);
}

void Solver::run(const stencil::C1D3& c,
                 grid::PingPong<grid::Grid1D<double>>& pp) const {
  check_family(prob_, Family::kJacobi1D3, "run(C1D3, PingPong)");
  check_extents(prob_, pp.even().nx(), 0, 0);
  if (plan_.path != Path::kTiledParallel) throw_needs_tiled(prob_);
  const ThreadScope scope(stage_exec_ != nullptr ? 1 : prob_.threads);
  tiling::Diamond1DOptions opt{plan_.tile_w, plan_.tile_h, plan_.stride, true};
  opt.exec = stage_exec_;
  resolve<dispatch::DiamondJacobi1D3Fn>(plan_, dispatch::kDiamondJacobi1D3)(
      c, pp, prob_.steps, opt);
}

// ---- 2D double families ----------------------------------------------------

void Solver::exec(const stencil::C2D5& c, grid::Grid2D<double>& u) const {
  if (prob_.family == Family::kGs2D5) {
    if (plan_.path == Path::kTiledParallel) {
      const ThreadScope scope(stage_exec_ != nullptr ? 1 : prob_.threads);
      tiling::ParallelogramNDOptions opt{plan_.tile_w, plan_.tile_h,
                                         plan_.stride, true};
      opt.exec = stage_exec_;
      resolve<dispatch::ParallelogramGs2D5Fn>(
          plan_, dispatch::kParallelogramGs2D5)(c, u, prob_.steps, opt);
    } else {
      resolve<dispatch::TvGs2D5Fn>(plan_, dispatch::kTvGs2D5)(
          c, u, prob_.steps, plan_.stride);
    }
    return;
  }
  if (plan_.path == Path::kTiledParallel) {
    with_pingpong(u, prob_.steps, [&](auto& pp) { run(c, pp); });
  } else {
    resolve<dispatch::TvJacobi2D5Fn>(
        plan_, variant_id(plan_, dispatch::kTvJacobi2D5,
                          dispatch::kTvJacobi2D5Re))(c, u, prob_.steps,
                                                     plan_.stride);
  }
}

void Solver::exec(const stencil::C2D9& c, grid::Grid2D<double>& u) const {
  if (plan_.path == Path::kTiledParallel) {
    with_pingpong(u, prob_.steps, [&](auto& pp) { run(c, pp); });
  } else {
    resolve<dispatch::TvJacobi2D9Fn>(
        plan_, variant_id(plan_, dispatch::kTvJacobi2D9,
                          dispatch::kTvJacobi2D9Re))(c, u, prob_.steps,
                                                     plan_.stride);
  }
}

void Solver::run(const stencil::C2D5& c,
                 grid::PingPong<grid::Grid2D<double>>& pp) const {
  check_family(prob_, Family::kJacobi2D5, "run(C2D5, PingPong)");
  check_extents(prob_, pp.even().nx(), pp.even().ny(), 0);
  if (plan_.path != Path::kTiledParallel) throw_needs_tiled(prob_);
  const ThreadScope scope(stage_exec_ != nullptr ? 1 : prob_.threads);
  tiling::Diamond2DOptions opt{plan_.tile_w, plan_.tile_h, plan_.stride, true};
  opt.exec = stage_exec_;
  resolve<dispatch::DiamondJacobi2D5Fn>(plan_, dispatch::kDiamondJacobi2D5)(
      c, pp, prob_.steps, opt);
}

void Solver::run(const stencil::C2D9& c,
                 grid::PingPong<grid::Grid2D<double>>& pp) const {
  check_family(prob_, Family::kJacobi2D9, "run(C2D9, PingPong)");
  check_extents(prob_, pp.even().nx(), pp.even().ny(), 0);
  if (plan_.path != Path::kTiledParallel) throw_needs_tiled(prob_);
  const ThreadScope scope(stage_exec_ != nullptr ? 1 : prob_.threads);
  tiling::Diamond2DOptions opt{plan_.tile_w, plan_.tile_h, plan_.stride, true};
  opt.exec = stage_exec_;
  resolve<dispatch::DiamondJacobi2D9Fn>(plan_, dispatch::kDiamondJacobi2D9)(
      c, pp, prob_.steps, opt);
}

// ---- 3D double families ----------------------------------------------------

void Solver::exec(const stencil::C3D7& c, grid::Grid3D<double>& u) const {
  if (prob_.family == Family::kGs3D7) {
    if (plan_.path == Path::kTiledParallel) {
      const ThreadScope scope(stage_exec_ != nullptr ? 1 : prob_.threads);
      tiling::ParallelogramNDOptions opt{plan_.tile_w, plan_.tile_h,
                                         plan_.stride, true};
      opt.exec = stage_exec_;
      resolve<dispatch::ParallelogramGs3D7Fn>(
          plan_, dispatch::kParallelogramGs3D7)(c, u, prob_.steps, opt);
    } else {
      resolve<dispatch::TvGs3D7Fn>(plan_, dispatch::kTvGs3D7)(
          c, u, prob_.steps, plan_.stride);
    }
    return;
  }
  if (plan_.path == Path::kTiledParallel) {
    with_pingpong(u, prob_.steps, [&](auto& pp) { run(c, pp); });
  } else {
    resolve<dispatch::TvJacobi3D7Fn>(
        plan_, variant_id(plan_, dispatch::kTvJacobi3D7,
                          dispatch::kTvJacobi3D7Re))(c, u, prob_.steps,
                                                     plan_.stride);
  }
}

void Solver::run(const stencil::C3D7& c,
                 grid::PingPong<grid::Grid3D<double>>& pp) const {
  check_family(prob_, Family::kJacobi3D7, "run(C3D7, PingPong)");
  check_extents(prob_, pp.even().nx(), pp.even().ny(), pp.even().nz());
  if (plan_.path != Path::kTiledParallel) throw_needs_tiled(prob_);
  const ThreadScope scope(stage_exec_ != nullptr ? 1 : prob_.threads);
  tiling::Diamond3DOptions opt{plan_.tile_w, plan_.tile_h, plan_.stride, true};
  opt.exec = stage_exec_;
  resolve<dispatch::DiamondJacobi3D7Fn>(plan_, dispatch::kDiamondJacobi3D7)(
      c, pp, prob_.steps, opt);
}

// ---- Single-precision FP families (serial temporal path only) --------------

void Solver::exec(const stencil::C1D3f& c, grid::Grid1D<float>& u) const {
  if (prob_.family == Family::kGs1D3) {
    resolve_dt<dispatch::TvGs1D3F32Fn>(plan_, dispatch::kTvGs1D3,
                                       dispatch::DType::kF32)(
        c, u, prob_.steps, plan_.stride);
    return;
  }
  resolve_dt<dispatch::TvJacobi1D3F32Fn>(
      plan_,
      variant_id(plan_, dispatch::kTvJacobi1D3, dispatch::kTvJacobi1D3Re),
      dispatch::DType::kF32)(c, u, prob_.steps, plan_.stride);
}

void Solver::exec(const stencil::C1D5f& c, grid::Grid1D<float>& u) const {
  resolve_dt<dispatch::TvJacobi1D5F32Fn>(
      plan_,
      variant_id(plan_, dispatch::kTvJacobi1D5, dispatch::kTvJacobi1D5Re),
      dispatch::DType::kF32)(c, u, prob_.steps, plan_.stride);
}

void Solver::exec(const stencil::C2D5f& c, grid::Grid2D<float>& u) const {
  if (prob_.family == Family::kGs2D5) {
    resolve_dt<dispatch::TvGs2D5F32Fn>(plan_, dispatch::kTvGs2D5,
                                       dispatch::DType::kF32)(
        c, u, prob_.steps, plan_.stride);
    return;
  }
  resolve_dt<dispatch::TvJacobi2D5F32Fn>(
      plan_,
      variant_id(plan_, dispatch::kTvJacobi2D5, dispatch::kTvJacobi2D5Re),
      dispatch::DType::kF32)(c, u, prob_.steps, plan_.stride);
}

void Solver::exec(const stencil::C2D9f& c, grid::Grid2D<float>& u) const {
  resolve_dt<dispatch::TvJacobi2D9F32Fn>(
      plan_,
      variant_id(plan_, dispatch::kTvJacobi2D9, dispatch::kTvJacobi2D9Re),
      dispatch::DType::kF32)(c, u, prob_.steps, plan_.stride);
}

void Solver::exec(const stencil::C3D7f& c, grid::Grid3D<float>& u) const {
  if (prob_.family == Family::kGs3D7) {
    resolve_dt<dispatch::TvGs3D7F32Fn>(plan_, dispatch::kTvGs3D7,
                                       dispatch::DType::kF32)(
        c, u, prob_.steps, plan_.stride);
    return;
  }
  resolve_dt<dispatch::TvJacobi3D7F32Fn>(
      plan_,
      variant_id(plan_, dispatch::kTvJacobi3D7, dispatch::kTvJacobi3D7Re),
      dispatch::DType::kF32)(c, u, prob_.steps, plan_.stride);
}

// ---- Life ------------------------------------------------------------------

void Solver::exec(const stencil::LifeRule& r,
                  grid::Grid2D<std::int32_t>& u) const {
  if (plan_.path == Path::kTiledParallel) {
    with_pingpong(u, prob_.steps, [&](auto& pp) { run(r, pp); });
  } else {
    resolve<dispatch::TvLifeFn>(plan_, dispatch::kTvLife)(r, u, prob_.steps,
                                                          plan_.stride);
  }
}

void Solver::run(const stencil::LifeRule& r,
                 grid::PingPong<grid::Grid2D<std::int32_t>>& pp) const {
  check_family(prob_, Family::kLife, "run(LifeRule, PingPong)");
  check_extents(prob_, pp.even().nx(), pp.even().ny(), 0);
  if (plan_.path != Path::kTiledParallel) throw_needs_tiled(prob_);
  const ThreadScope scope(stage_exec_ != nullptr ? 1 : prob_.threads);
  tiling::Diamond2DOptions opt{plan_.tile_w, plan_.tile_h, plan_.stride, true};
  opt.exec = stage_exec_;
  resolve<dispatch::DiamondLifeFn>(plan_, dispatch::kDiamondLife)(
      r, pp, prob_.steps, opt);
}

// ---- LCS -------------------------------------------------------------------

std::vector<std::int32_t> Solver::exec_lcs_rows(
    std::span<const std::int32_t> a, std::span<const std::int32_t> b) const {
  const std::size_t nb = b.size();
  std::vector<std::int32_t> row(nb + 1 + tv::kLcsRowPad, 0);
  if (nb > 0) {
    resolve<dispatch::TvLcsRowsFn>(plan_, dispatch::kTvLcsRows)(a, b,
                                                                row.data());
  }
  row.resize(nb + 1);
  return row;
}

void Solver::exec_lcs(const detail::LcsJob& job, RunResult& out) const {
  if (plan_.path == Path::kTiledParallel) {
    const ThreadScope scope(stage_exec_ != nullptr ? 1 : prob_.threads);
    tiling::LcsWavefrontOptions opt{plan_.tile_w, plan_.tile_h, true};
    opt.exec = stage_exec_;
    out.lcs_length = resolve<dispatch::LcsWavefrontFn>(
        plan_, dispatch::kLcsWavefront)(job.a, job.b, opt);
    return;
  }
  out.lcs_row = exec_lcs_rows(job.a, job.b);
  out.lcs_length = out.lcs_row.back();
}

std::vector<std::int32_t> Solver::lcs_row(
    std::span<const std::int32_t> a, std::span<const std::int32_t> b) const {
  validate_workload(prob_, Workload(a, b));
  // Always the serial row engine: the DP row is this entry point's product,
  // whatever path the plan picked for lcs().
  return exec_lcs_rows(a, b);
}

std::int32_t Solver::lcs(std::span<const std::int32_t> a,
                         std::span<const std::int32_t> b) const {
  return run(Workload(a, b)).lcs_length;
}

}  // namespace tvs::solver
