// Workload: the type-erased payload behind the unified Solver front door.
//
// A Workload erases one (coefficient set, grid) pair — or an LCS sequence
// pair — into one variant, so
//
//   Solver s(problem);
//   s.run(Workload(stencil::heat2d(0.2), u));       // synchronous
//   auto fut = s.submit(Workload(coeffs, grid));    // async, see serve/
//
// both route through ONE validation (family <-> payload alternative, dtype,
// extents — workload.cpp) and one generic kernel router (solver.cpp).
// These two calls are the only ways to run a Solver.
//
// ---- Lifetime contract ----------------------------------------------------
//
// The payload holds coefficients/rules BY VALUE (they are a few doubles,
// and callers routinely pass temporaries).  Grids and spans come in two
// flavours:
//
//   * Non-owning (the lvalue-reference / span constructors): the caller's
//     storage must outlive the run — for submit(), until the returned
//     Future is READY, not merely until submit() returns.  Destroying the
//     grid while the pool still runs the task is a use-after-free.
//   * Owning (the shared_ptr / rvalue-vector constructors): the Workload
//     keeps the storage alive itself, so a fire-and-forget submit() is
//     safe.  Callers who need the stencil result keep their own copy of
//     the shared_ptr and read the grid once the future is ready.
//
// owns() reports which flavour a Workload is; serve-layer code debug-
// asserts the grid pointer is non-null before touching it.
//
// ---- Scheduling hints -----------------------------------------------------
//
// priority() is an admission hint for the serving executor
// (serve/executor.hpp): kInteractive workloads land in the workers'
// interactive band, which is drained before batch work on both pop and
// steal.  It is a hint only: run() ignores it, and results never depend
// on it.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "grid/grid1d.hpp"
#include "grid/grid2d.hpp"
#include "grid/grid3d.hpp"
#include "solver/plan.hpp"
#include "stencil/coefficients.hpp"
#include "stencil/kernels.hpp"

namespace tvs::solver {

// Async results are delivered through std::future; the alias names the
// serving API's currency without inventing a new synchronization type.
template <class T>
using Future = std::future<T>;

// What one run produced.  Grid-payload workloads leave their result in the
// caller's grid (updated in place); the LCS payload returns its answer
// here.
struct RunResult {
  // The plan the run executed with (resolved through the plan cache).
  ExecutionPlan plan;
  // Wall-clock seconds of the kernel execution (excludes planning).
  double seconds = 0.0;
  // kLcs only: the DP answer.  lcs_row holds row nx of the DP table
  // (length ny + 1) when the serial row engine ran; the tiled wavefront
  // driver computes only the length and leaves the row empty.
  std::int32_t lcs_length = 0;
  std::vector<std::int32_t> lcs_row;
};

// Admission class for the serving executor's two-band worker deques.
enum class Priority {
  kBatch = 0,        // default: throughput work, drained after interactive
  kInteractive = 1,  // latency-sensitive: drained first on pop and steal
};

namespace detail {

// One (coefficient set, grid) payload; C is stored by value (small, often
// a temporary at the call site), the grid by pointer.
template <class C, class G>
struct StencilJob {
  C coeffs;
  G* grid;
};

struct LcsJob {
  std::span<const std::int32_t> a;
  std::span<const std::int32_t> b;
};

// Backing storage for the owning LCS constructor; spans point into it.
struct LcsOwned {
  std::vector<std::int32_t> a;
  std::vector<std::int32_t> b;
};

using WorkloadVariant = std::variant<
    StencilJob<stencil::C1D3, grid::Grid1D<double>>,
    StencilJob<stencil::C1D5, grid::Grid1D<double>>,
    StencilJob<stencil::C2D5, grid::Grid2D<double>>,
    StencilJob<stencil::C2D9, grid::Grid2D<double>>,
    StencilJob<stencil::C3D7, grid::Grid3D<double>>,
    StencilJob<stencil::C1D3f, grid::Grid1D<float>>,
    StencilJob<stencil::C1D5f, grid::Grid1D<float>>,
    StencilJob<stencil::C2D5f, grid::Grid2D<float>>,
    StencilJob<stencil::C2D9f, grid::Grid2D<float>>,
    StencilJob<stencil::C3D7f, grid::Grid3D<float>>,
    StencilJob<stencil::LifeRule, grid::Grid2D<std::int32_t>>, LcsJob>;

}  // namespace detail

class Workload {
 public:
  // ---- non-owning constructors (caller's storage outlives the run) -------
  // Jacobi/Gauss-Seidel, double precision.
  Workload(const stencil::C1D3& c, grid::Grid1D<double>& u) : v_{wrap(c, u)} {}
  Workload(const stencil::C1D5& c, grid::Grid1D<double>& u) : v_{wrap(c, u)} {}
  Workload(const stencil::C2D5& c, grid::Grid2D<double>& u) : v_{wrap(c, u)} {}
  Workload(const stencil::C2D9& c, grid::Grid2D<double>& u) : v_{wrap(c, u)} {}
  Workload(const stencil::C3D7& c, grid::Grid3D<double>& u) : v_{wrap(c, u)} {}
  // Single precision.
  Workload(const stencil::C1D3f& c, grid::Grid1D<float>& u) : v_{wrap(c, u)} {}
  Workload(const stencil::C1D5f& c, grid::Grid1D<float>& u) : v_{wrap(c, u)} {}
  Workload(const stencil::C2D5f& c, grid::Grid2D<float>& u) : v_{wrap(c, u)} {}
  Workload(const stencil::C2D9f& c, grid::Grid2D<float>& u) : v_{wrap(c, u)} {}
  Workload(const stencil::C3D7f& c, grid::Grid3D<float>& u) : v_{wrap(c, u)} {}
  // Game of Life.
  Workload(const stencil::LifeRule& r, grid::Grid2D<std::int32_t>& u)
      : v_{wrap(r, u)} {}
  // LCS over two int32 sequences.
  Workload(std::span<const std::int32_t> a, std::span<const std::int32_t> b)
      : v_{detail::LcsJob{a, b}} {}

  // ---- owning constructors (the Workload keeps the storage alive) --------
  // The shared_ptr is co-owned: keep a copy at the call site to read the
  // result after the future is ready.  A null pointer is rejected at
  // validation (Errc::kBadWorkload), not here.
  template <class C, class G>
  Workload(const C& c, std::shared_ptr<G> u)
      : v_{detail::StencilJob<C, G>{c, u.get()}}, owner_{std::move(u)} {}
  // Owning LCS: rvalue-only, so existing lvalue-vector call sites keep
  // binding the (cheap, non-owning) span constructor instead of silently
  // copying their sequences.
  Workload(std::vector<std::int32_t>&& a, std::vector<std::int32_t>&& b) {
    auto owned =
        std::make_shared<detail::LcsOwned>(std::move(a), std::move(b));
    v_ = detail::LcsJob{owned->a, owned->b};
    owner_ = std::move(owned);
  }

  // ---- scheduling hints ---------------------------------------------------
  // Fluent: Workload(c, u).priority(Priority::kInteractive).
  Workload& priority(Priority p) & {
    priority_ = p;
    return *this;
  }
  Workload&& priority(Priority p) && {
    priority_ = p;
    return std::move(*this);
  }
  Priority priority() const noexcept { return priority_; }

  // True when this workload carries (co-owns) its grid/sequence storage.
  bool owns() const noexcept { return owner_ != nullptr; }

  // True when the payload is the LCS alternative (whose result lives in
  // RunResult rather than a caller grid).
  bool is_lcs() const noexcept {
    return std::holds_alternative<detail::LcsJob>(v_);
  }

  const detail::WorkloadVariant& payload() const noexcept { return v_; }

 private:
  template <class C, class G>
  static detail::WorkloadVariant wrap(const C& c, G& g) {
    return detail::StencilJob<C, G>{c, &g};
  }

  detail::WorkloadVariant v_{detail::LcsJob{}};
  // Keeps owning payload storage alive across submit(); null when the
  // caller's storage backs the payload (the reference/span constructors).
  std::shared_ptr<void> owner_;
  Priority priority_ = Priority::kBatch;
};

// The single family/dtype/extent validation both run(Workload) and
// submit(Workload) share: rejects a payload alternative the problem's
// family cannot consume (Errc::kBadWorkload / kBadFamily), an element-type
// mismatch (kUnsupportedDtype), extents that disagree with the descriptor
// (kBadExtents), and a null grid pointer in an owning payload
// (kBadWorkload).
void validate_workload(const StencilProblem& p, const Workload& w);

}  // namespace tvs::solver
