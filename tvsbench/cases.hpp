// One benchmark problem instance ("case"): its StencilProblem, a seeded
// input grid, working copies for timed solves, and the reference output
// each timed solve is checked against.
//
// Two checking modes:
//   * oracle mode (cache-sized cases): ref = the stencil/ scalar oracle
//     applied to the input; every solve runs on a fresh copy of the input
//     (work grid k) and is compared with ref.
//   * chain mode (DRAM-sized cases): the input grid itself is solved in
//     place, solve after solve, and ref is advanced alongside it by the
//     serial temporal engine (which the test suite ties to the oracle).
//
// Comparison covers interior and boundary cells: exact for f64 and i32,
// within 4 scaled ULP for f32 (the library's engine-vs-oracle contract).
// Copies and comparisons work in "units" (a block of a 1D grid, a row of
// a 2D grid, a plane of a 3D grid) so a driver can spread them between
// other duties.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "baseline/autovec.hpp"
#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"
#include "grid/grid1d.hpp"
#include "grid/grid2d.hpp"
#include "grid/grid3d.hpp"
#include "solver/plan.hpp"
#include "solver/problem.hpp"
#include "solver/workload.hpp"
#include "stencil/coefficients.hpp"
#include "stencil/lcs_ref.hpp"
#include "stencil/life_ref.hpp"
#include "stencil/reference1d.hpp"
#include "stencil/reference2d.hpp"
#include "stencil/reference3d.hpp"
#include "tv/tv_lcs.hpp"

namespace tb {

namespace sv = tvs::solver;
namespace gd = tvs::grid;
namespace st = tvs::stencil;
namespace dp = tvs::dispatch;

inline constexpr std::int64_t kFloatUlpTol = 4;

template <class T>
bool same_value(T a, T b) {
  if constexpr (std::is_same_v<T, float>) {
    if (a == b) return true;
    if (std::isnan(a) || std::isnan(b)) return false;
    auto ordered = [](float x) {
      std::int32_t i;
      std::memcpy(&i, &x, sizeof i);
      return i < 0 ? static_cast<std::int64_t>(
                         std::numeric_limits<std::int32_t>::min()) -
                         i
                   : static_cast<std::int64_t>(i);
    };
    const std::int64_t d = ordered(a) - ordered(b);
    return (d < 0 ? -d : d) <= kFloatUlpTol;
  } else {
    return a == b;
  }
}

// ---- whole-buffer views and unit-wise copy/compare per grid shape ----------

inline constexpr int kUnit1D = 8192;

template <class T>
T* raw(gd::Grid1D<T>& u) { return u.p() - gd::kPad; }
template <class T>
T* raw(gd::Grid2D<T>& u) { return u.row(0) - gd::kPad; }
template <class T>
T* raw(gd::Grid3D<T>& u) { return u.line(0, 0) - gd::kPad; }

template <class T>
std::size_t raw_size(const gd::Grid1D<T>& u) {
  return static_cast<std::size_t>(u.nx() + 2 + 2 * gd::kPad);
}
template <class T>
std::size_t raw_size(const gd::Grid2D<T>& u) {
  return static_cast<std::size_t>(u.nx() + 2) *
         static_cast<std::size_t>(u.stride());
}
template <class T>
std::size_t raw_size(const gd::Grid3D<T>& u) {
  return static_cast<std::size_t>(u.nx() + 2) *
         static_cast<std::size_t>(u.ny() + 2) *
         static_cast<std::size_t>(u.zstride());
}

template <class T>
int units(const gd::Grid1D<T>& u) {
  return (static_cast<int>(raw_size(u)) + kUnit1D - 1) / kUnit1D;
}
template <class T>
int units(const gd::Grid2D<T>& u) { return u.nx() + 2; }
template <class T>
int units(const gd::Grid3D<T>& u) { return u.nx() + 2; }

// Raw element range [begin, end) of unit k.
template <class G>
std::pair<std::size_t, std::size_t> unit_range(const G& u, int k) {
  const std::size_t per = raw_size(u) / static_cast<std::size_t>(units(u));
  return {per * static_cast<std::size_t>(k),
          per * static_cast<std::size_t>(k + 1)};
}
template <class T>
std::pair<std::size_t, std::size_t> unit_range(const gd::Grid1D<T>& u, int k) {
  const std::size_t b = static_cast<std::size_t>(k) * kUnit1D;
  return {b, std::min(b + kUnit1D, raw_size(u))};
}

template <class G>
void copy_unit(G& dst, G& src, int k) {
  const auto [b, e] = unit_range(src, k);
  std::memcpy(raw(dst) + b, raw(src) + b, (e - b) * sizeof(*raw(src)));
}

template <class G>
void copy_all(G& dst, G& src) {
  std::memcpy(raw(dst), raw(src), raw_size(src) * sizeof(*raw(src)));
}

// Contiguous span compare: memcmp for exact types, scaled ULP for f32.
template <class T>
bool equal_span(const T* a, const T* b, int n) {
  if constexpr (std::is_same_v<T, float>) {
    for (int i = 0; i < n; ++i)
      if (!same_value(a[i], b[i])) return false;
    return true;
  } else {
    return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(T)) == 0;
  }
}

template <class T>
bool equal_unit(const gd::Grid1D<T>& a, const gd::Grid1D<T>& b, int k) {
  const int x0 = std::max(0, k * kUnit1D - gd::kPad);
  const int x1 = std::min(a.nx() + 1, (k + 1) * kUnit1D - gd::kPad - 1);
  return x1 < x0 || equal_span(&a.at(x0), &b.at(x0), x1 - x0 + 1);
}
template <class T>
bool equal_unit(const gd::Grid2D<T>& a, const gd::Grid2D<T>& b, int x) {
  return equal_span(a.row(x), b.row(x), a.ny() + 2);
}
template <class T>
bool equal_unit(const gd::Grid3D<T>& a, const gd::Grid3D<T>& b, int x) {
  for (int y = 0; y <= a.ny() + 1; ++y)
    if (!equal_span(a.line(x, y), b.line(x, y), a.nz() + 2)) return false;
  return true;
}

template <class T>
gd::Grid1D<T> make_grid(const sv::StencilProblem& p, gd::Grid1D<T>*) {
  return gd::Grid1D<T>(p.nx);
}
template <class T>
gd::Grid2D<T> make_grid(const sv::StencilProblem& p, gd::Grid2D<T>*) {
  return gd::Grid2D<T>(p.nx, p.ny);
}
template <class T>
gd::Grid3D<T> make_grid(const sv::StencilProblem& p, gd::Grid3D<T>*) {
  return gd::Grid3D<T>(p.nx, p.ny, p.nz);
}

// ---- the case interface ----------------------------------------------------

class Case {
 public:
  explicit Case(const sv::StencilProblem& p) : prob(p) {}
  virtual ~Case() = default;
  Case(const Case&) = delete;
  Case& operator=(const Case&) = delete;

  const sv::StencilProblem prob;

  // "jacobi2d5" for f64 / i32 families, "jacobi2d5.f32" for f32.
  std::string cls() const {
    std::string s(sv::family_name(prob.family));
    if (prob.effective_dtype() == dp::DType::kF32) s += ".f32";
    return s;
  }
  double points() const {
    const int dim = sv::family_dim(prob.family);
    double n = prob.nx;
    if (dim >= 2) n *= prob.ny;
    if (dim >= 3) n *= prob.nz;
    return n;
  }
  // Grid-point updates (LCS: DP cells) of one solve.
  double work() const {
    return prob.family == sv::Family::kLcs
               ? points()
               : points() * static_cast<double>(prob.steps);
  }
  // Computed bytes of one solve under the per-step streaming model: every
  // point read and written once per step (LCS: one DP-row read and write
  // per cell).  A computed count from the array sizes, not a measurement.
  double computed_bytes() const { return 2.0 * elem_bytes() * work(); }

  virtual double elem_bytes() const = 0;
  // Allocated bytes of one grid array, halo and padding included.
  virtual double array_bytes() const = 0;

  // Allocates the input grid and `nwork` working grids (grid layer), then
  // fills the input from `seed` (grid layer fill).
  virtual void alloc_fill(int nwork, std::uint64_t seed) = 0;
  // Oracle mode: ref := scalar oracle(input).
  virtual void make_ref_oracle() = 0;
  // Chain mode: ref := copy of the input; advance_ref runs the serial
  // temporal engine of `serial_plan` on ref for `steps` steps.
  virtual void make_ref_copy() = 0;
  virtual void advance_ref(const sv::ExecutionPlan& serial_plan, long steps) = 0;
  // ref := copy of work grid k.
  virtual void ref_from_work(int k) = 0;

  // Work grid k (k = -1: the input grid itself, chain mode).
  virtual int units() const = 0;
  virtual void reset_unit(int k, int u) = 0;  // work k := input, unit u
  virtual bool check_unit(int k, int u) const = 0;  // work k == ref on u
  // Result-carried checks (LCS); true for grid payloads.
  virtual bool check_result(const sv::RunResult&) const { return true; }

  void reset(int k) {
    for (int u = 0; u < units(); ++u) reset_unit(k, u);
  }
  bool check(int k, const sv::RunResult& r) const {
    if (!check_result(r)) return false;
    for (int u = 0; u < units(); ++u)
      if (!check_unit(k, u)) return false;
    return true;
  }

  // Non-owning payload over work grid k.
  virtual sv::Workload workload(int k) = 0;
  // The raw registry engine the plan's serial path resolves to, called
  // directly on work grid k.
  virtual void engine(int k, const sv::ExecutionPlan& plan) = 0;
  // The paper's `auto` spatial-vectorization comparator on work grid k;
  // false when the family has none.
  virtual bool has_autovec() const { return false; }
  virtual void autovec(int) {}
};

// Resolution of the serial engine exactly as the solver's serial path
// does it: f64/i32 by (backend, vl), f32 pinned to the f32 dtype axis.
template <class Fn>
Fn* engine_fn(const sv::ExecutionPlan& p, std::string_view id, dp::DType dt) {
  dp::KernelRegistry& reg = dp::KernelRegistry::instance();
  if (dt == dp::DType::kF32)
    return reg.get_at<Fn>(id, p.backend, p.vl > 0 ? p.vl : dp::kAnyVl, dt);
  return p.vl > 0 ? reg.get_at<Fn>(id, p.backend, p.vl)
                  : reg.get_at<Fn>(id, p.backend);
}

template <class C, class G>
struct GridFns {
  void (*oracle)(const C&, G&, long);
  void (*engine)(const C&, G&, long, const sv::ExecutionPlan&);
  void (*autovec)(const C&, G&, long);
};

template <class T, class C, class G>
class GridCase final : public Case {
 public:
  GridCase(const sv::StencilProblem& p, C c, GridFns<C, G> fns, T lo, T hi)
      : Case(p), c_(c), fns_(fns), lo_(lo), hi_(hi) {}

  double elem_bytes() const override { return sizeof(T); }
  double array_bytes() const override {
    // The grid classes' layout: the unit-stride extent padded by kPad on
    // both sides and rounded up to the alignment.
    const int dim = sv::family_dim(prob.family);
    const double q = static_cast<double>(gd::kAlignment / sizeof(T));
    const int inner = dim == 1 ? prob.nx : dim == 2 ? prob.ny : prob.nz;
    double n = std::ceil((inner + 2 + 2 * gd::kPad) / q) * q;
    if (dim == 1) n = inner + 2 + 2 * gd::kPad;
    if (dim >= 2) n *= prob.nx + 2;
    if (dim >= 3) n *= prob.ny + 2;
    return n * sizeof(T);
  }

  void alloc_fill(int nwork, std::uint64_t seed) override {
    in_ = std::make_unique<G>(make_grid(prob, static_cast<G*>(nullptr)));
    work_.clear();
    for (int k = 0; k < nwork; ++k)
      work_.push_back(std::make_unique<G>(make_grid(prob, static_cast<G*>(nullptr))));
    std::mt19937_64 rng(seed);
    in_->fill_random(rng, lo_, hi_);
  }
  void make_ref_oracle() override {
    make_ref_copy();
    fns_.oracle(c_, *ref_, prob.steps);
  }
  void make_ref_copy() override {
    ref_ = std::make_unique<G>(make_grid(prob, static_cast<G*>(nullptr)));
    copy_all(*ref_, *in_);
  }
  void advance_ref(const sv::ExecutionPlan& serial_plan, long steps) override {
    fns_.engine(c_, *ref_, steps, serial_plan);
  }
  void ref_from_work(int k) override {
    if (!ref_) ref_ = std::make_unique<G>(make_grid(prob, static_cast<G*>(nullptr)));
    copy_all(*ref_, grid(k));
  }

  int units() const override { return tb::units(*in_); }
  void reset_unit(int k, int u) override { copy_unit(grid(k), *in_, u); }
  bool check_unit(int k, int u) const override {
    return equal_unit(const_cast<GridCase*>(this)->grid(k), *ref_, u);
  }

  sv::Workload workload(int k) override { return sv::Workload(c_, grid(k)); }
  void engine(int k, const sv::ExecutionPlan& plan) override {
    fns_.engine(c_, grid(k), prob.steps, plan);
  }
  bool has_autovec() const override { return fns_.autovec != nullptr; }
  void autovec(int k) override { fns_.autovec(c_, grid(k), prob.steps); }

 private:
  G& grid(int k) { return k < 0 ? *in_ : *work_[static_cast<std::size_t>(k)]; }

  C c_;
  GridFns<C, G> fns_;
  T lo_, hi_;
  std::unique_ptr<G> in_, ref_;
  std::vector<std::unique_ptr<G>> work_;
};

// LCS over two seeded DNA-like sequences (alphabet of 4); the input is
// read-only, so there are no work grids and the check reads RunResult.
class LcsCase final : public Case {
 public:
  explicit LcsCase(const sv::StencilProblem& p) : Case(p) {}

  double elem_bytes() const override { return sizeof(std::int32_t); }
  double array_bytes() const override {
    return static_cast<double>((prob.ny + 1 + tvs::tv::kLcsRowPad) *
                               sizeof(std::int32_t));
  }
  void alloc_fill(int, std::uint64_t seed) override {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::int32_t> d(0, 3);
    a_.resize(static_cast<std::size_t>(prob.nx));
    b_.resize(static_cast<std::size_t>(prob.ny));
    for (auto& v : a_) v = d(rng);
    for (auto& v : b_) v = d(rng);
  }
  void make_ref_oracle() override { ref_ = st::lcs_ref_row(a_, b_); }
  void make_ref_copy() override { make_ref_oracle(); }
  void advance_ref(const sv::ExecutionPlan&, long) override {}
  void ref_from_work(int) override {}
  int units() const override { return 0; }
  void reset_unit(int, int) override {}
  bool check_unit(int, int) const override { return true; }
  bool check_result(const sv::RunResult& r) const override {
    if (ref_.empty() || r.lcs_length != ref_.back()) return false;
    return r.lcs_row.empty() || r.lcs_row == ref_;
  }
  sv::Workload workload(int) override {
    return sv::Workload(std::span<const std::int32_t>(a_),
                        std::span<const std::int32_t>(b_));
  }
  void engine(int, const sv::ExecutionPlan& plan) override {
    row_.assign(b_.size() + 1 + tvs::tv::kLcsRowPad, 0);
    engine_fn<dp::TvLcsRowsFn>(plan, dp::kTvLcsRows, dp::DType::kI32)(
        a_, b_, row_.data());
  }

 private:
  std::vector<std::int32_t> a_, b_, ref_, row_;
};

// ---- factory ----------------------------------------------------------------

template <class T, class F64Fn, class F32Fn>
using ByDtype = std::conditional_t<std::is_same_v<T, float>, F32Fn, F64Fn>;

template <class T>
constexpr dp::DType dtype_of() {
  return std::is_same_v<T, float> ? dp::DType::kF32 : dp::DType::kF64;
}

// Serial Jacobi engine id under the plan's variant (tv or re).
inline std::string_view variant_id(const sv::ExecutionPlan& pl,
                                   std::string_view tv, std::string_view re) {
  return pl.variant == sv::Variant::kRe ? re : tv;
}

template <class T>
std::unique_ptr<Case> make_fp_case(const sv::StencilProblem& p) {
  using P = sv::ExecutionPlan;
  using G1 = gd::Grid1D<T>;
  using G2 = gd::Grid2D<T>;
  using G3 = gd::Grid3D<T>;
  constexpr dp::DType dt = dtype_of<T>();
  constexpr bool f64 = std::is_same_v<T, double>;
  const T lo = T{0}, hi = T{1};
  switch (p.family) {
    case sv::Family::kJacobi1D3: {
      using C = st::C1D3T<T>;
      using Fn = ByDtype<T, dp::TvJacobi1D3Fn, dp::TvJacobi1D3F32Fn>;
      GridFns<C, G1> f{&st::jacobi1d3_run<T>,
                       [](const C& c, G1& u, long s, const P& pl) {
                         engine_fn<Fn>(pl, variant_id(pl, dp::kTvJacobi1D3, dp::kTvJacobi1D3Re), dt)(c, u, s, pl.stride);
                       },
                       nullptr};
      if constexpr (f64) f.autovec = &tvs::baseline::autovec_jacobi1d3_run;
      return std::make_unique<GridCase<T, C, G1>>(p, st::heat1d<T>(0.25), f, lo, hi);
    }
    case sv::Family::kJacobi1D5: {
      using C = st::C1D5T<T>;
      using Fn = ByDtype<T, dp::TvJacobi1D5Fn, dp::TvJacobi1D5F32Fn>;
      GridFns<C, G1> f{&st::jacobi1d5_run<T>,
                       [](const C& c, G1& u, long s, const P& pl) {
                         engine_fn<Fn>(pl, variant_id(pl, dp::kTvJacobi1D5, dp::kTvJacobi1D5Re), dt)(c, u, s, pl.stride);
                       },
                       nullptr};
      if constexpr (f64) f.autovec = &tvs::baseline::autovec_jacobi1d5_run;
      return std::make_unique<GridCase<T, C, G1>>(p, st::heat1d5<T>(0.2), f, lo, hi);
    }
    case sv::Family::kJacobi2D5: {
      using C = st::C2D5T<T>;
      using Fn = ByDtype<T, dp::TvJacobi2D5Fn, dp::TvJacobi2D5F32Fn>;
      GridFns<C, G2> f{&st::jacobi2d5_run<T>,
                       [](const C& c, G2& u, long s, const P& pl) {
                         engine_fn<Fn>(pl, variant_id(pl, dp::kTvJacobi2D5, dp::kTvJacobi2D5Re), dt)(c, u, s, pl.stride);
                       },
                       nullptr};
      if constexpr (f64) f.autovec = &tvs::baseline::autovec_jacobi2d5_run;
      return std::make_unique<GridCase<T, C, G2>>(p, st::heat2d<T>(0.2), f, lo, hi);
    }
    case sv::Family::kJacobi2D9: {
      using C = st::C2D9T<T>;
      using Fn = ByDtype<T, dp::TvJacobi2D9Fn, dp::TvJacobi2D9F32Fn>;
      GridFns<C, G2> f{&st::jacobi2d9_run<T>,
                       [](const C& c, G2& u, long s, const P& pl) {
                         engine_fn<Fn>(pl, variant_id(pl, dp::kTvJacobi2D9, dp::kTvJacobi2D9Re), dt)(c, u, s, pl.stride);
                       },
                       nullptr};
      if constexpr (f64) f.autovec = &tvs::baseline::autovec_jacobi2d9_run;
      return std::make_unique<GridCase<T, C, G2>>(p, st::box2d9<T>(0.1), f, lo, hi);
    }
    case sv::Family::kJacobi3D7: {
      using C = st::C3D7T<T>;
      using Fn = ByDtype<T, dp::TvJacobi3D7Fn, dp::TvJacobi3D7F32Fn>;
      GridFns<C, G3> f{&st::jacobi3d7_run<T>,
                       [](const C& c, G3& u, long s, const P& pl) {
                         engine_fn<Fn>(pl, variant_id(pl, dp::kTvJacobi3D7, dp::kTvJacobi3D7Re), dt)(c, u, s, pl.stride);
                       },
                       nullptr};
      if constexpr (f64) f.autovec = &tvs::baseline::autovec_jacobi3d7_run;
      return std::make_unique<GridCase<T, C, G3>>(p, st::heat3d<T>(0.1), f, lo, hi);
    }
    case sv::Family::kGs1D3: {
      using C = st::C1D3T<T>;
      using Fn = ByDtype<T, dp::TvGs1D3Fn, dp::TvGs1D3F32Fn>;
      GridFns<C, G1> f{&st::gs1d3_run<T>,
                       [](const C& c, G1& u, long s, const P& pl) {
                         engine_fn<Fn>(pl, dp::kTvGs1D3, dt)(c, u, s, pl.stride);
                       },
                       nullptr};
      return std::make_unique<GridCase<T, C, G1>>(p, st::heat1d<T>(0.25), f, lo, hi);
    }
    case sv::Family::kGs2D5: {
      using C = st::C2D5T<T>;
      using Fn = ByDtype<T, dp::TvGs2D5Fn, dp::TvGs2D5F32Fn>;
      GridFns<C, G2> f{&st::gs2d5_run<T>,
                       [](const C& c, G2& u, long s, const P& pl) {
                         engine_fn<Fn>(pl, dp::kTvGs2D5, dt)(c, u, s, pl.stride);
                       },
                       nullptr};
      return std::make_unique<GridCase<T, C, G2>>(p, st::heat2d<T>(0.2), f, lo, hi);
    }
    case sv::Family::kGs3D7: {
      using C = st::C3D7T<T>;
      using Fn = ByDtype<T, dp::TvGs3D7Fn, dp::TvGs3D7F32Fn>;
      GridFns<C, G3> f{&st::gs3d7_run<T>,
                       [](const C& c, G3& u, long s, const P& pl) {
                         engine_fn<Fn>(pl, dp::kTvGs3D7, dt)(c, u, s, pl.stride);
                       },
                       nullptr};
      return std::make_unique<GridCase<T, C, G3>>(p, st::heat3d<T>(0.1), f, lo, hi);
    }
    default:
      return nullptr;
  }
}

inline std::unique_ptr<Case> make_case(const sv::StencilProblem& p) {
  using G = gd::Grid2D<std::int32_t>;
  using C = st::LifeRule;
  switch (p.family) {
    case sv::Family::kLife: {
      GridFns<C, G> f{&st::life_run,
                      [](const C& r, G& u, long s, const sv::ExecutionPlan& pl) {
                        engine_fn<dp::TvLifeFn>(pl, dp::kTvLife, dp::DType::kI32)(r, u, s, pl.stride);
                      },
                      &tvs::baseline::autovec_life_run};
      return std::make_unique<GridCase<std::int32_t, C, G>>(p, C{}, f, 0, 1);
    }
    case sv::Family::kLcs:
      return std::make_unique<LcsCase>(p);
    default:
      return p.dtype == dp::DType::kF32 ? make_fp_case<float>(p)
                                        : make_fp_case<double>(p);
  }
}

}  // namespace tb
