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
//
// A tiled diamond run borrows its odd-parity partner grid from the
// Solver's PartnerSlot and hands it back afterwards, so only a Solver's
// first run (or a run that overlaps another copy's) allocates one.  The
// drivers mirror the boundary and halo cells into the odd grid before
// they read it, so what a previous run left there does not matter.
#include "solver/solver.hpp"

#include <cassert>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <variant>

#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"
#include "tiling/pingpong_convert.hpp"
#include "tv/tv_lcs.hpp"  // kLcsRowPad
#include "util/omp_compat.hpp"

namespace tvs::solver {

namespace detail {

// At most one kept partner grid, of whichever grid type the Solver's
// payload has.
class PartnerSlot {
 public:
  // The kept grid, or an empty one when the slot holds none (with_pingpong
  // then allocates).
  template <class G>
  G take() {
    const std::lock_guard<std::mutex> lock(m_);
    G* kept = std::get_if<G>(&grid_);
    if (kept == nullptr) return G{};
    G g = std::move(*kept);
    grid_ = std::monostate{};
    return g;
  }
  // Keeps g unless the slot already holds a grid; g then stays with the
  // caller, which frees it outside the lock.
  template <class G>
  void give(G& g) {
    const std::lock_guard<std::mutex> lock(m_);
    if (std::holds_alternative<std::monostate>(grid_)) grid_ = std::move(g);
  }

 private:
  std::mutex m_;
  std::variant<std::monostate, grid::Grid1D<double>, grid::Grid1D<float>,
               grid::Grid2D<double>, grid::Grid2D<float>,
               grid::Grid2D<std::int32_t>, grid::Grid3D<double>,
               grid::Grid3D<float>>
      grid_;
};

}  // namespace detail

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

// Lends the slot's partner grid to one run and gives it back on scope
// exit, also when the run throws.
template <class G>
class PartnerLease {
 public:
  explicit PartnerLease(detail::PartnerSlot& slot)
      : slot_(slot), grid_(slot.take<G>()) {}
  ~PartnerLease() { slot_.give(grid_); }
  PartnerLease(const PartnerLease&) = delete;
  PartnerLease& operator=(const PartnerLease&) = delete;

  G& grid() { return grid_; }

 private:
  detail::PartnerSlot& slot_;
  G grid_;
};

// A partner slot for a tiled diamond plan (the tiled path of every family
// but Gauss-Seidel, which runs in place, and LCS, which has no grid);
// null for every other plan.
std::shared_ptr<detail::PartnerSlot> partner_slot(const StencilProblem& p,
                                                  const ExecutionPlan& plan) {
  const bool diamond = plan.path == Path::kTiledParallel &&
                       p.family != Family::kLcs &&
                       !family_is_gauss_seidel(p.family);
  return diamond ? std::make_shared<detail::PartnerSlot>() : nullptr;
}

// Runs p.steps steps of the payload (c, u) on the planned path.  The
// serial path calls the temporal engine; the tiled path calls the
// parallelogram driver in place (Gauss-Seidel) or the diamond driver on a
// parity pair of u's own storage and the partner grid borrowed from
// `partner` (tiling/pingpong_convert.hpp).
template <class C, class G>
void route(const StencilProblem& p, const ExecutionPlan& plan,
           const tiling::StageExec* ex, detail::PartnerSlot* partner,
           const C& c, G& u) {
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
  assert(partner != nullptr && "a tiled diamond plan has a partner slot");
  PartnerLease<G> lease(*partner);
  tiling::with_pingpong(u, lease.grid(), p.steps,
                        [&](grid::PingPong<G>& pp) {
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
    : prob_(p), plan_(plan_for(p, mode)), partner_(partner_slot(p, plan_)) {}

Solver::Solver(const StencilProblem& p, const ExecutionPlan& plan)
    : prob_(p), plan_(plan) {
  validate_plan(prob_, plan_);
  partner_ = partner_slot(prob_, plan_);
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
          route(prob_, plan_, stage_exec_, partner_.get(), job.coeffs,
                *job.grid);
        }
      },
      w.payload());
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace tvs::solver
