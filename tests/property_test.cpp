// Randomized cross-backend property harness (the dtype axis's safety net).
//
// A seeded PRNG draws ~50 random (family, extents, steps, stride) problems
// per dtype (f64, f32, i32) and asserts that EVERY registered
// (backend, vl, dtype) engine of the family — enumerated from the
// KernelRegistry, i.e. exactly the surface public dispatch serves —
// matches the scalar reference: lane-for-lane bit equality for double and
// int32, <= tvs::test::kFloatUlpTol scaled-ULP equality for float (in
// practice the float engines are bit-identical too; the ULP bound is the
// documented contract).
//
// Every assertion message carries the master seed and the per-case seed,
// so a failure reproduces with TVS_PROPERTY_SEED=<master seed>.  The suite
// runs in the fast tier and under every forced backend (the registry
// enumeration is per-backend, so a forced run re-checks the same table —
// cheap insurance that dispatch and direct lookups agree).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "dispatch/backend.hpp"
#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"
#include "solver/builder.hpp"
#include "solver/solver.hpp"
#include "stencil/lcs_ref.hpp"
#include "stencil/life_ref.hpp"
#include "stencil/reference1d.hpp"
#include "stencil/reference2d.hpp"
#include "stencil/reference3d.hpp"
#include "tolerance.hpp"
#include "tv/tv_lcs.hpp"  // kLcsRowPad

namespace {

using namespace tvs;
using dispatch::Backend;
using dispatch::DType;
using dispatch::KernelRegistry;

constexpr int kCasesPerDtype = 50;

unsigned master_seed() {
  if (const char* env = std::getenv("TVS_PROPERTY_SEED");
      env != nullptr && env[0] != '\0') {
    return static_cast<unsigned>(std::strtoul(env, nullptr, 0));
  }
  return 0xC0FFEEu;
}

std::vector<Backend> executable_backends() {
  std::vector<Backend> r;
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    if (dispatch::cpu_supports(b) && KernelRegistry::instance().has_backend(b))
      r.push_back(b);
  }
  return r;
}

// Registry signature aliases + dtype tag per element type.
template <class T>
struct EngineOf;
template <>
struct EngineOf<double> {
  static constexpr DType dt = DType::kF64;
  using J1D3 = dispatch::TvJacobi1D3Fn;
  using J1D5 = dispatch::TvJacobi1D5Fn;
  using J2D5 = dispatch::TvJacobi2D5Fn;
  using J2D9 = dispatch::TvJacobi2D9Fn;
  using J3D7 = dispatch::TvJacobi3D7Fn;
  using G1D3 = dispatch::TvGs1D3Fn;
  using G2D5 = dispatch::TvGs2D5Fn;
  using G3D7 = dispatch::TvGs3D7Fn;
};
template <>
struct EngineOf<float> {
  static constexpr DType dt = DType::kF32;
  using J1D3 = dispatch::TvJacobi1D3F32Fn;
  using J1D5 = dispatch::TvJacobi1D5F32Fn;
  using J2D5 = dispatch::TvJacobi2D5F32Fn;
  using J2D9 = dispatch::TvJacobi2D9F32Fn;
  using J3D7 = dispatch::TvJacobi3D7F32Fn;
  using G1D3 = dispatch::TvGs1D3F32Fn;
  using G2D5 = dispatch::TvGs2D5F32Fn;
  using G3D7 = dispatch::TvGs3D7F32Fn;
};

// One problem case: the context string every assertion carries.
struct Ctx {
  unsigned master, seed;
  int casenum;
  std::string what;

  std::string str(Backend b, int vl) const {
    return what + " backend=" + std::string(dispatch::backend_name(b)) +
           " vl=" + std::to_string(vl) +
           " [case=" + std::to_string(casenum) +
           " seed=" + std::to_string(seed) +
           " TVS_PROPERTY_SEED=" + std::to_string(master) + "]";
  }
};

template <class T, class G, class Rng>
G random_grid1(int nx, Rng& rng) {
  G g(nx);
  g.fill_random(rng, T(-1), T(1));
  return g;
}

// The grids deliberately do not have copy constructors (AlignedBuffer is
// move-only); the harness clones via explicit element copies, padding
// included for 1D (the radius-2 kernels read boundary cells there).
template <class T>
grid::Grid1D<T> clone(const grid::Grid1D<T>& g) {
  grid::Grid1D<T> r(g.nx());
  for (int x = -grid::kPad; x <= g.nx() + 1 + grid::kPad; ++x)
    r.at(x) = g.at(x);
  return r;
}
template <class T>
grid::Grid2D<T> clone(const grid::Grid2D<T>& g) {
  grid::Grid2D<T> r(g.nx(), g.ny());
  for (int x = 0; x <= g.nx() + 1; ++x)
    for (int y = 0; y <= g.ny() + 1; ++y) r.at(x, y) = g.at(x, y);
  return r;
}
template <class T>
grid::Grid3D<T> clone(const grid::Grid3D<T>& g) {
  grid::Grid3D<T> r(g.nx(), g.ny(), g.nz());
  for (int x = 0; x <= g.nx() + 1; ++x)
    for (int y = 0; y <= g.ny() + 1; ++y)
      for (int z = 0; z <= g.nz() + 1; ++z) r.at(x, y, z) = g.at(x, y, z);
  return r;
}

// Enumerates every (backend, width) engine of `id` at dtype `dt` and runs
// `engine(fn_ptr, ctx_string)` for each.  Widths come straight from the
// registry, so a newly registered width is covered automatically.
template <class Fn, class RunFn>
void for_each_engine(std::string_view id, DType dt, const Ctx& ctx,
                     RunFn&& run) {
  KernelRegistry& reg = KernelRegistry::instance();
  for (const Backend b : executable_backends()) {
    for (const int vl : reg.registered_widths(id, b, dt)) {
      Fn* fn = reg.get_at<Fn>(id, b, vl, dt);
      ASSERT_NE(fn, nullptr) << ctx.str(b, vl);
      run(fn, ctx.str(b, vl));
    }
  }
}

// Same, across a set of interchangeable engine ids (a baseline id and its
// redundancy-eliminated twin share the Fn alias and the oracle); the id is
// appended to the assertion context so a failure names the engine.
template <class Fn, class RunFn>
void for_each_engine_of(std::initializer_list<std::string_view> ids, DType dt,
                        const Ctx& ctx, RunFn&& run) {
  for (const std::string_view id : ids) {
    Ctx named = ctx;
    named.what += " id=" + std::string(id);
    for_each_engine<Fn>(id, dt, named, run);
  }
}

// ---- FP families ------------------------------------------------------------

template <class T>
void check_case_1d(const Ctx& ctx, int which, int nx, long steps, int stride,
                   unsigned seed) {
  using E = EngineOf<T>;
  std::mt19937_64 rng(seed);
  if (which == 0) {  // jacobi1d3
    const stencil::C1D3T<T> c = stencil::heat1d<T>(0.23);
    auto ref = random_grid1<T, grid::Grid1D<T>>(nx, rng);
    const auto init = clone(ref);
    stencil::jacobi1d3_run(c, ref, steps);
    for_each_engine_of<typename E::J1D3>(
        {dispatch::kTvJacobi1D3, dispatch::kTvJacobi1D3Re}, E::dt, ctx, [&](auto* fn, const auto& what) {
          auto got = clone(init);
          fn(c, got, steps, stride);
          ASSERT_TRUE(test::grids_allclose(ref, got)) << what;
        });
  } else if (which == 1) {  // jacobi1d5 (radius 2: stride >= 3)
    const stencil::C1D5T<T> c = stencil::heat1d5<T>(0.11);
    auto ref = random_grid1<T, grid::Grid1D<T>>(nx, rng);
    const auto init = clone(ref);
    const int s = stride < 3 ? 3 : stride;
    stencil::jacobi1d5_run(c, ref, steps);
    for_each_engine_of<typename E::J1D5>(
        {dispatch::kTvJacobi1D5, dispatch::kTvJacobi1D5Re}, E::dt, ctx, [&](auto* fn, const auto& what) {
          auto got = clone(init);
          fn(c, got, steps, s);
          ASSERT_TRUE(test::grids_allclose(ref, got)) << what;
        });
  } else {  // gs1d3
    const stencil::C1D3T<T> c = stencil::heat1d<T>(0.21);
    auto ref = random_grid1<T, grid::Grid1D<T>>(nx, rng);
    const auto init = clone(ref);
    stencil::gs1d3_run(c, ref, steps);
    for_each_engine<typename E::G1D3>(
        dispatch::kTvGs1D3, E::dt, ctx, [&](auto* fn, const auto& what) {
          auto got = clone(init);
          fn(c, got, steps, stride);
          ASSERT_TRUE(test::grids_allclose(ref, got)) << what;
        });
  }
}

template <class T>
void check_case_2d(const Ctx& ctx, int which, int nx, int ny, long steps,
                   int stride, unsigned seed) {
  using E = EngineOf<T>;
  std::mt19937_64 rng(seed);
  grid::Grid2D<T> init(nx, ny);
  init.fill_random(rng, T(-1), T(1));
  if (which == 0) {  // jacobi2d5
    const stencil::C2D5T<T> c = stencil::heat2d<T>(0.19);
    auto ref = clone(init);
    stencil::jacobi2d5_run(c, ref, steps);
    for_each_engine_of<typename E::J2D5>(
        {dispatch::kTvJacobi2D5, dispatch::kTvJacobi2D5Re}, E::dt, ctx, [&](auto* fn, const auto& what) {
          auto got = clone(init);
          fn(c, got, steps, stride);
          ASSERT_TRUE(test::grids_allclose(ref, got)) << what;
        });
  } else if (which == 1) {  // jacobi2d9
    const stencil::C2D9T<T> c = stencil::box2d9<T>(0.09);
    auto ref = clone(init);
    stencil::jacobi2d9_run(c, ref, steps);
    for_each_engine_of<typename E::J2D9>(
        {dispatch::kTvJacobi2D9, dispatch::kTvJacobi2D9Re}, E::dt, ctx, [&](auto* fn, const auto& what) {
          auto got = clone(init);
          fn(c, got, steps, stride);
          ASSERT_TRUE(test::grids_allclose(ref, got)) << what;
        });
  } else {  // gs2d5
    const stencil::C2D5T<T> c = stencil::heat2d<T>(0.17);
    auto ref = clone(init);
    stencil::gs2d5_run(c, ref, steps);
    for_each_engine<typename E::G2D5>(
        dispatch::kTvGs2D5, E::dt, ctx, [&](auto* fn, const auto& what) {
          auto got = clone(init);
          fn(c, got, steps, stride);
          ASSERT_TRUE(test::grids_allclose(ref, got)) << what;
        });
  }
}

template <class T>
void check_case_3d(const Ctx& ctx, int which, int nx, int ny, int nz,
                   long steps, int stride, unsigned seed) {
  using E = EngineOf<T>;
  std::mt19937_64 rng(seed);
  grid::Grid3D<T> init(nx, ny, nz);
  init.fill_random(rng, T(-1), T(1));
  if (which == 0) {  // jacobi3d7
    const stencil::C3D7T<T> c = stencil::heat3d<T>(0.07);
    auto ref = clone(init);
    stencil::jacobi3d7_run(c, ref, steps);
    for_each_engine_of<typename E::J3D7>(
        {dispatch::kTvJacobi3D7, dispatch::kTvJacobi3D7Re}, E::dt, ctx, [&](auto* fn, const auto& what) {
          auto got = clone(init);
          fn(c, got, steps, stride);
          ASSERT_TRUE(test::grids_allclose(ref, got)) << what;
        });
  } else {  // gs3d7
    const stencil::C3D7T<T> c = stencil::heat3d<T>(0.06);
    auto ref = clone(init);
    stencil::gs3d7_run(c, ref, steps);
    for_each_engine<typename E::G3D7>(
        dispatch::kTvGs3D7, E::dt, ctx, [&](auto* fn, const auto& what) {
          auto got = clone(init);
          fn(c, got, steps, stride);
          ASSERT_TRUE(test::grids_allclose(ref, got)) << what;
        });
  }
}

template <class T>
void run_fp_cases(const char* dtype_name) {
  const unsigned master = master_seed();
  std::mt19937_64 top(master ^ (std::is_same_v<T, float> ? 0x5eedF32u : 0u));
  for (int i = 0; i < kCasesPerDtype; ++i) {
    const unsigned seed = static_cast<unsigned>(top());
    std::mt19937_64 pick(seed);
    const auto draw = [&](int lo, int hi) {
      return static_cast<int>(lo + pick() % static_cast<unsigned>(hi - lo + 1));
    };
    const int dim = draw(1, 3);
    Ctx ctx{master, seed, i, ""};
    if (dim == 1) {
      const int which = draw(0, 2);
      const int nx = draw(5, 260);
      const long steps = draw(1, 20);
      const int stride = draw(2, 9);
      ctx.what = std::string(dtype_name) + " 1D which=" +
                 std::to_string(which) + " nx=" + std::to_string(nx) +
                 " steps=" + std::to_string(steps) +
                 " s=" + std::to_string(stride);
      check_case_1d<T>(ctx, which, nx, steps, stride, seed + 1);
    } else if (dim == 2) {
      const int which = draw(0, 2);
      const int nx = draw(5, 56);
      const int ny = draw(3, 24);
      const long steps = draw(1, 12);
      const int stride = draw(2, 4);
      ctx.what = std::string(dtype_name) + " 2D which=" +
                 std::to_string(which) + " nx=" + std::to_string(nx) +
                 " ny=" + std::to_string(ny) +
                 " steps=" + std::to_string(steps) +
                 " s=" + std::to_string(stride);
      check_case_2d<T>(ctx, which, nx, ny, steps, stride, seed + 1);
    } else {
      const int which = draw(0, 1);
      const int nx = draw(5, 40);
      const int ny = draw(3, 10);
      const int nz = draw(3, 10);
      const long steps = draw(1, 10);
      const int stride = draw(2, 3);
      ctx.what = std::string(dtype_name) + " 3D which=" +
                 std::to_string(which) + " nx=" + std::to_string(nx) +
                 " ny=" + std::to_string(ny) + " nz=" + std::to_string(nz) +
                 " steps=" + std::to_string(steps) +
                 " s=" + std::to_string(stride);
      check_case_3d<T>(ctx, which, nx, ny, nz, steps, stride, seed + 1);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Property, RandomProblemsF64) { run_fp_cases<double>("f64"); }

TEST(Property, RandomProblemsF32) { run_fp_cases<float>("f32"); }

// ---- int32 families (Life + LCS) -------------------------------------------

TEST(Property, RandomProblemsI32) {
  const unsigned master = master_seed();
  std::mt19937_64 top(master ^ 0x5eed132u);
  for (int i = 0; i < kCasesPerDtype; ++i) {
    const unsigned seed = static_cast<unsigned>(top());
    std::mt19937_64 pick(seed);
    const auto draw = [&](int lo, int hi) {
      return static_cast<int>(lo + pick() % static_cast<unsigned>(hi - lo + 1));
    };
    Ctx ctx{master, seed, i, ""};
    if (draw(0, 1) == 0) {  // Life
      const int nx = draw(5, 48), ny = draw(3, 20);
      const long steps = draw(1, 12);
      const int stride = draw(2, 4);
      ctx.what = "i32 life nx=" + std::to_string(nx) +
                 " ny=" + std::to_string(ny) +
                 " steps=" + std::to_string(steps) +
                 " s=" + std::to_string(stride);
      const stencil::LifeRule rule{};
      std::mt19937_64 rng(seed + 1);
      grid::Grid2D<std::int32_t> init(nx, ny);
      init.fill_random(rng, 0, 1);
      auto ref = clone(init);
      stencil::life_run(rule, ref, steps);
      for_each_engine<dispatch::TvLifeFn>(
          dispatch::kTvLife, DType::kI32, ctx,
          [&](auto* fn, const auto& what) {
            auto got = clone(init);
            fn(rule, got, steps, stride);
            ASSERT_EQ(grid::max_abs_diff(ref, got), 0.0) << what;
          });
    } else {  // LCS
      const int na = draw(1, 160), nb = draw(1, 140);
      ctx.what = "i32 lcs na=" + std::to_string(na) +
                 " nb=" + std::to_string(nb);
      std::mt19937_64 rng(seed + 1);
      std::uniform_int_distribution<std::int32_t> d(0, 3);
      std::vector<std::int32_t> a(static_cast<std::size_t>(na)),
          b(static_cast<std::size_t>(nb));
      for (auto& v : a) v = d(rng);
      for (auto& v : b) v = d(rng);
      const auto expect = stencil::lcs_ref_row(a, b);
      for_each_engine<dispatch::TvLcsRowsFn>(
          dispatch::kTvLcsRows, DType::kI32, ctx,
          [&](auto* fn, const auto& what) {
            std::vector<std::int32_t> row(b.size() + 1 + tv::kLcsRowPad, 0);
            fn(a, b, row.data());
            for (std::size_t k = 0; k < expect.size(); ++k)
              ASSERT_EQ(row[k], expect[k]) << what << " k=" << k;
          });
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---- acceptance: float Jacobi 1D/2D/3D through Solver::run at vl=8/16 ------

template <class Problem, class CoefT, class GridT, class RefFn>
void solver_float_check(const Problem& p, const CoefT& c, const GridT& init,
                        RefFn&& ref_run, int vl) {
  solver::ExecutionPlan plan = solver::heuristic_plan(p);
  plan.vl = vl;
  const solver::Solver s(p, plan);
  GridT ref = clone(init);
  GridT got = clone(init);
  ref_run(c, ref, p.steps);
  s.run(solver::Workload(c, got));
  ASSERT_TRUE(test::grids_allclose(ref, got))
      << "float Solver::run vl=" << vl << " problem " << p.signature();
}

TEST(Property, SolverFloatJacobiMatchesFloatOracle) {
  using solver::Family;
  std::mt19937_64 rng(master_seed() ^ 0xF10A7u);
  for (const int vl : {8, 16}) {
    {
      auto p = solver::ProblemBuilder(Family::kJacobi1D3)
                   .extents(200)
                   .steps(9)
                   .dtype(DType::kF32)
                   .build();
      grid::Grid1D<float> u(p.nx);
      u.fill_random(rng, -1.0f, 1.0f);
      solver_float_check(p, stencil::heat1d<float>(0.24), u,
                         [](const auto& c, auto& g, long steps) {
                           stencil::jacobi1d3_run(c, g, steps);
                         },
                         vl);
    }
    {
      auto p = solver::ProblemBuilder(Family::kJacobi2D5)
                   .extents(48, 18)
                   .steps(9)
                   .dtype(DType::kF32)
                   .build();
      grid::Grid2D<float> u(p.nx, p.ny);
      u.fill_random(rng, -1.0f, 1.0f);
      solver_float_check(p, stencil::heat2d<float>(0.18), u,
                         [](const auto& c, auto& g, long steps) {
                           stencil::jacobi2d5_run(c, g, steps);
                         },
                         vl);
    }
    {
      auto p = solver::ProblemBuilder(Family::kJacobi3D7)
                   .extents(40, 8, 8)
                   .steps(9)
                   .dtype(DType::kF32)
                   .build();
      grid::Grid3D<float> u(p.nx, p.ny, p.nz);
      u.fill_random(rng, -1.0f, 1.0f);
      solver_float_check(p, stencil::heat3d<float>(0.08), u,
                         [](const auto& c, auto& g, long steps) {
                           stencil::jacobi3d7_run(c, g, steps);
                         },
                         vl);
    }
  }
}

}  // namespace
