// Solver facade: plan cache hit/miss accounting, TVS_PLAN override
// parsing (including malformed specs -> clear errors), and bit-for-bit
// equality of Solver::run against the registry's temporal engines and
// tiled drivers, called directly, for every kernel family.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "kernel.hpp"
#include "solver/builder.hpp"
#include "solver/solver.hpp"
#include "stage_execs.hpp"
#include "stencil/lcs_ref.hpp"
#include "tiling/pingpong_convert.hpp"
#include "tv/tv_lcs.hpp"  // kLcsRowPad

namespace tvs {
namespace {

using solver::ExecutionPlan;
using solver::Family;
using solver::Path;
using solver::PlanMode;
using solver::ProblemBuilder;
using solver::Solver;
using solver::StencilProblem;
using solver::Workload;

// Sets an environment variable for one scope and restores the previous
// state on exit (plan_for re-reads TVS_PLAN on every call).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

template <class GridT>
void fill_pattern(GridT& u) {
  if constexpr (requires(GridT g) { g.at(0, 0, 0); }) {
    for (int x = 0; x <= u.nx() + 1; ++x)
      for (int y = 0; y <= u.ny() + 1; ++y)
        for (int z = 0; z <= u.nz() + 1; ++z)
          u.at(x, y, z) = 1.0 + 0.001 * ((x + 2 * y + 3 * z) % 97);
  } else if constexpr (requires(GridT g) { g.at(0, 0); }) {
    for (int x = 0; x <= u.nx() + 1; ++x)
      for (int y = 0; y <= u.ny() + 1; ++y)
        u.at(x, y) = 1.0 + 0.001 * ((x + 2 * y) % 97);
  } else {
    for (int x = 0; x <= u.nx() + 1; ++x) u.at(x) = 1.0 + 0.001 * (x % 97);
  }
}

// The plan of p with the tiled path pinned: a Gauss-Seidel problem whose
// steps fill one band plans the serial engine.
ExecutionPlan tiled_plan(const StencilProblem& p) {
  ExecutionPlan plan = solver::plan_for(p);
  plan.path = Path::kTiledParallel;
  return plan;
}

// ---- plan cache ------------------------------------------------------------

TEST(PlanCache, SignatureHitAndMiss) {
  solver::plan_cache_clear();
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi1D3).extents(4096).steps(40).build();

  const Solver a(p);
  auto stats = solver::plan_cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 0);

  const Solver b(p);  // identical signature -> hit
  stats = solver::plan_cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(a.plan().to_string(), b.plan().to_string());

  StencilProblem q = p;
  q.nx = 8192;  // different signature -> miss
  const Solver c(q);
  stats = solver::plan_cache_stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.hits, 1);
}

TEST(PlanCache, PinnedLookupsBypassTheCache) {
  solver::plan_cache_clear();
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi1D3).extents(4096).steps(40).build();
  {
    const ScopedEnv pin("TVS_PLAN", "stride=9");
    const Solver s(p);
    EXPECT_EQ(s.plan().stride, 9);
  }
  auto stats = solver::plan_cache_stats();
  EXPECT_EQ(stats.pinned, 1);
  EXPECT_EQ(stats.misses, 0);  // the pin was not stored

  const Solver s(p);  // unpinned: plans fresh, not the pinned knobs
  EXPECT_EQ(s.plan().stride, 7);
  stats = solver::plan_cache_stats();
  EXPECT_EQ(stats.misses, 1);
}

TEST(PlanCache, ThreadsAndStepsArePartOfTheSignature) {
  solver::plan_cache_clear();
  StencilProblem p =
      ProblemBuilder(Family::kJacobi2D5).extents(96, 96).steps(12).build();
  const Solver a(p);
  p.threads = 4;
  const Solver b(p);
  p.steps = 24;
  const Solver c(p);
  const auto stats = solver::plan_cache_stats();
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.hits, 0);
}

// ---- TVS_PLAN parsing ------------------------------------------------------

TEST(TvsPlan, OverridesSelectedKnobs) {
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi2D5).extents(96, 96).steps(12).build();
  const ScopedEnv pin("TVS_PLAN", "stride=3,tile=512x32,path=tiled");
  const Solver s(p);
  EXPECT_EQ(s.plan().stride, 3);
  EXPECT_EQ(s.plan().tile_w, 512);
  EXPECT_EQ(s.plan().tile_h, 32);
  EXPECT_EQ(s.plan().path, Path::kTiledParallel);
}

TEST(TvsPlan, RoundTripsThroughToString) {
  const StencilProblem p =
      ProblemBuilder(Family::kGs1D3).extents(4096).steps(24).build();
  const ExecutionPlan plan = solver::plan_for(p);
  const ExecutionPlan again =
      solver::apply_plan_spec(solver::heuristic_plan(p), plan.to_string());
  EXPECT_EQ(plan.to_string(), again.to_string());
}

TEST(TvsPlan, MalformedSpecsThrowClearErrors) {
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi1D3).extents(4096).steps(40).build();
  const auto expect_throws = [&](const char* spec, const char* needle) {
    const ScopedEnv pin("TVS_PLAN", spec);
    try {
      const Solver s(p);
      FAIL() << "TVS_PLAN=\"" << spec << "\" was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "spec \"" << spec << "\" produced: " << e.what();
    }
  };
  expect_throws("stride=abc", "not an integer");
  expect_throws("stride", "key=value");
  expect_throws("warp=9", "unknown key");
  expect_throws("tile=12", "WxH");
  expect_throws("tile=x32", "WxH");
  expect_throws("path=warp", "unknown path");
  expect_throws("backend=mmx", "unknown backend");
  expect_throws("vl=five", "not an integer");
  expect_throws("variant=zig", "unknown variant");
}

TEST(TvsPlan, IllegalKnobValuesAreRejectedByValidation) {
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi1D3).extents(4096).steps(40).build();
  {
    // Stride 1 violates s * dt > dx for the 1D3P dependence set.
    const ScopedEnv pin("TVS_PLAN", "stride=1");
    EXPECT_THROW(Solver s(p), std::invalid_argument);
  }
  {
    // Beyond the 1D engines' ring capacity.
    const ScopedEnv pin("TVS_PLAN", "stride=64");
    EXPECT_THROW(Solver s(p), std::invalid_argument);
  }
  {
    // No engine registered at vl=5 anywhere.
    const ScopedEnv pin("TVS_PLAN", "vl=5");
    EXPECT_THROW(Solver s(p), std::invalid_argument);
  }
  {
    // Jacobi 1D5P has no tiled driver.
    const ScopedEnv pin("TVS_PLAN", "path=tiled");
    const StencilProblem q =
        ProblemBuilder(Family::kJacobi1D5).extents(4096).steps(40).build();
    EXPECT_THROW(Solver s(q), std::invalid_argument);
  }
  {
    // vl pinning is a serial-path knob.
    const ScopedEnv pin("TVS_PLAN", "path=tiled,vl=4");
    EXPECT_THROW(Solver s(p), std::invalid_argument);
  }
}

// ---- the variant knob (redundancy-eliminated engines) -----------------------

TEST(TvsPlan, VariantRoundTripsThroughToString) {
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi1D3).extents(4096).steps(40).build();
  const ScopedEnv pin("TVS_PLAN", "stride=7,variant=re");
  const Solver s(p);
  EXPECT_EQ(s.plan().variant, solver::Variant::kRe);
  EXPECT_NE(s.plan().to_string().find("variant=re"), std::string::npos)
      << s.plan().to_string();
  const ExecutionPlan again =
      solver::apply_plan_spec(solver::heuristic_plan(p), s.plan().to_string());
  EXPECT_EQ(s.plan().to_string(), again.to_string());
  // The default variant stays out of the canonical spec string.
  EXPECT_EQ(solver::heuristic_plan(p).to_string().find("variant"),
            std::string::npos);
}

TEST(TvsPlan, VariantReValidatesForEveryJacobiFamily) {
  for (const ProblemBuilder& b :
       {ProblemBuilder(Family::kJacobi1D3).extents(4096).steps(40),
        ProblemBuilder(Family::kJacobi1D5).extents(4096).steps(40),
        ProblemBuilder(Family::kJacobi2D5).extents(96, 80).steps(12),
        ProblemBuilder(Family::kJacobi2D9).extents(96, 80).steps(12),
        ProblemBuilder(Family::kJacobi3D7).extents(24, 20, 28).steps(8)}) {
    const StencilProblem p = b.build();
    ExecutionPlan plan = solver::heuristic_plan(p);
    plan.variant = solver::Variant::kRe;
    EXPECT_NO_THROW(solver::validate_plan(p, plan)) << p.signature();
  }
}

TEST(TvsPlan, VariantReIsRejectedWhereNoReEngineExists) {
  {
    // No re engine for the Gauss-Seidel families.
    const StencilProblem p =
        ProblemBuilder(Family::kGs1D3).extents(4096).steps(24).build();
    ExecutionPlan plan = solver::heuristic_plan(p);
    plan.variant = solver::Variant::kRe;
    EXPECT_THROW(solver::validate_plan(p, plan), std::invalid_argument);
  }
  {
    // variant=re is a serial-path knob.
    const StencilProblem p = ProblemBuilder(Family::kJacobi2D5)
                                 .extents(96, 96)
                                 .steps(32)
                                 .threads(4)
                                 .build();
    ExecutionPlan plan = solver::heuristic_plan(p);
    ASSERT_EQ(plan.path, Path::kTiledParallel);
    plan.variant = solver::Variant::kRe;
    EXPECT_THROW(solver::validate_plan(p, plan), std::invalid_argument);
  }
}

TEST(TvsPlan, VariantReRunsBitIdenticalToBaseline) {
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi1D3).extents(4096).steps(40).build();
  const stencil::C1D3 c = stencil::heat1d(0.25);
  grid::Grid1D<double> direct(p.nx);
  fill_pattern(direct);
  test::resolve<dispatch::TvJacobi1D3Fn>(dispatch::kTvJacobi1D3)(
      c, direct, p.steps, 7);

  const ScopedEnv pin("TVS_PLAN", "stride=7,variant=re");
  grid::Grid1D<double> got(p.nx);
  fill_pattern(got);
  const Solver s(p);
  s.run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

TEST(TvsPlan, VariantReWithWidthPinRunsBitIdentical) {
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi2D9).extents(96, 80).steps(12).build();
  const stencil::C2D9 c = stencil::box2d9(0.1);
  grid::Grid2D<double> direct(p.nx, p.ny);
  fill_pattern(direct);
  test::resolve<dispatch::TvJacobi2D9Fn>(dispatch::kTvJacobi2D9)(
      c, direct, p.steps, 2);

  const ScopedEnv pin("TVS_PLAN", "stride=2,vl=8,variant=re");
  grid::Grid2D<double> got(p.nx, p.ny);
  fill_pattern(got);
  const Solver s(p);
  EXPECT_EQ(s.plan().vl, 8);
  s.run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

TEST(TvsPlan, WidthPinningKeepsResultsBitIdentical) {
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi1D3).extents(4096).steps(40).build();
  const stencil::C1D3 c = stencil::heat1d(0.25);
  grid::Grid1D<double> direct(p.nx);
  fill_pattern(direct);
  test::resolve<dispatch::TvJacobi1D3Fn>(dispatch::kTvJacobi1D3)(
      c, direct, p.steps, 7);

  const ScopedEnv pin("TVS_PLAN", "vl=8,stride=7");
  grid::Grid1D<double> got(p.nx);
  fill_pattern(got);
  const Solver s(p);
  EXPECT_EQ(s.plan().vl, 8);
  s.run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

// ---- heuristic path choice -------------------------------------------------

TEST(Planner, ThreadsSelectTheTiledPath) {
  ProblemBuilder b(Family::kJacobi2D5);
  b.extents(96, 96).steps(12);
  EXPECT_EQ(solver::heuristic_plan(b.build()).path, Path::kSerialTv);
  EXPECT_EQ(solver::heuristic_plan(b.threads(4).build()).path,
            Path::kTiledParallel);
  // Jacobi 1D5P has no tiled driver: serial even with a thread budget.
  const StencilProblem q = ProblemBuilder(Family::kJacobi1D5)
                               .extents(4096)
                               .steps(40)
                               .threads(4)
                               .build();
  EXPECT_EQ(solver::heuristic_plan(q).path, Path::kSerialTv);
}

// The heuristic plan of every family x thread request (0, 4) x dtype (f64,
// and f32 where the family runs it) on a large shape and on one small
// enough to clamp the tile width and the band height.  The table pins the
// planner's reading of the family table (Table 1's blocking, strides,
// tiled drivers); the backend clause is the host's and is dropped.
TEST(Planner, GoldenHeuristicPlans) {
  const std::map<std::string, std::string, std::less<>> golden = {
      {"jacobi1d3:nx=1048576:steps=1000:threads=0",
       "vl=0,stride=7,path=tv"},
      {"jacobi1d3:nx=1048576:steps=1000:threads=0:dtype=f32",
       "vl=0,stride=7,path=tv"},
      {"jacobi1d3:nx=1048576:steps=1000:threads=4",
       "vl=0,stride=7,tile=16384x128,path=tiled"},
      {"jacobi1d3:nx=1048576:steps=1000:threads=4:dtype=f32",
       "vl=0,stride=7,tile=16384x128,path=tiled"},
      {"jacobi1d3:nx=100:steps=5:threads=0",
       "vl=0,stride=7,path=tv"},
      {"jacobi1d3:nx=100:steps=5:threads=0:dtype=f32",
       "vl=0,stride=7,path=tv"},
      {"jacobi1d3:nx=100:steps=5:threads=4",
       "vl=0,stride=7,tile=100x4,path=tiled"},
      {"jacobi1d3:nx=100:steps=5:threads=4:dtype=f32",
       "vl=0,stride=7,tile=100x4,path=tiled"},
      {"jacobi1d5:nx=1048576:steps=1000:threads=0",
       "vl=0,stride=7,path=tv"},
      {"jacobi1d5:nx=1048576:steps=1000:threads=0:dtype=f32",
       "vl=0,stride=7,path=tv"},
      {"jacobi1d5:nx=1048576:steps=1000:threads=4",
       "vl=0,stride=7,path=tv"},
      {"jacobi1d5:nx=1048576:steps=1000:threads=4:dtype=f32",
       "vl=0,stride=7,path=tv"},
      {"jacobi1d5:nx=100:steps=5:threads=0",
       "vl=0,stride=7,path=tv"},
      {"jacobi1d5:nx=100:steps=5:threads=0:dtype=f32",
       "vl=0,stride=7,path=tv"},
      {"jacobi1d5:nx=100:steps=5:threads=4",
       "vl=0,stride=7,path=tv"},
      {"jacobi1d5:nx=100:steps=5:threads=4:dtype=f32",
       "vl=0,stride=7,path=tv"},
      {"jacobi2d5:nx=4096:ny=4096:steps=256:threads=0",
       "vl=0,stride=2,path=tv"},
      {"jacobi2d5:nx=4096:ny=4096:steps=256:threads=0:dtype=f32",
       "vl=0,stride=2,path=tv"},
      {"jacobi2d5:nx=4096:ny=4096:steps=256:threads=4",
       "vl=0,stride=2,tile=256x32,path=tiled"},
      {"jacobi2d5:nx=4096:ny=4096:steps=256:threads=4:dtype=f32",
       "vl=0,stride=2,tile=256x32,path=tiled"},
      {"jacobi2d5:nx=100:ny=90:steps=6:threads=0",
       "vl=0,stride=2,path=tv"},
      {"jacobi2d5:nx=100:ny=90:steps=6:threads=0:dtype=f32",
       "vl=0,stride=2,path=tv"},
      {"jacobi2d5:nx=100:ny=90:steps=6:threads=4",
       "vl=0,stride=2,tile=100x16,path=tiled"},
      {"jacobi2d5:nx=100:ny=90:steps=6:threads=4:dtype=f32",
       "vl=0,stride=2,tile=100x16,path=tiled"},
      {"jacobi2d9:nx=4096:ny=4096:steps=256:threads=0",
       "vl=0,stride=2,path=tv"},
      {"jacobi2d9:nx=4096:ny=4096:steps=256:threads=0:dtype=f32",
       "vl=0,stride=2,path=tv"},
      {"jacobi2d9:nx=4096:ny=4096:steps=256:threads=4",
       "vl=0,stride=2,tile=256x32,path=tiled"},
      {"jacobi2d9:nx=4096:ny=4096:steps=256:threads=4:dtype=f32",
       "vl=0,stride=2,tile=256x32,path=tiled"},
      {"jacobi2d9:nx=100:ny=90:steps=6:threads=0",
       "vl=0,stride=2,path=tv"},
      {"jacobi2d9:nx=100:ny=90:steps=6:threads=0:dtype=f32",
       "vl=0,stride=2,path=tv"},
      {"jacobi2d9:nx=100:ny=90:steps=6:threads=4",
       "vl=0,stride=2,tile=100x16,path=tiled"},
      {"jacobi2d9:nx=100:ny=90:steps=6:threads=4:dtype=f32",
       "vl=0,stride=2,tile=100x16,path=tiled"},
      {"jacobi3d7:nx=256:ny=256:nz=256:steps=64:threads=0",
       "vl=0,stride=2,path=tv"},
      {"jacobi3d7:nx=256:ny=256:nz=256:steps=64:threads=0:dtype=f32",
       "vl=0,stride=2,path=tv"},
      {"jacobi3d7:nx=256:ny=256:nz=256:steps=64:threads=4",
       "vl=0,stride=2,tile=32x8,path=tiled"},
      {"jacobi3d7:nx=256:ny=256:nz=256:steps=64:threads=4:dtype=f32",
       "vl=0,stride=2,tile=32x8,path=tiled"},
      {"jacobi3d7:nx=20:ny=24:nz=28:steps=3:threads=0",
       "vl=0,stride=2,path=tv"},
      {"jacobi3d7:nx=20:ny=24:nz=28:steps=3:threads=0:dtype=f32",
       "vl=0,stride=2,path=tv"},
      {"jacobi3d7:nx=20:ny=24:nz=28:steps=3:threads=4",
       "vl=0,stride=2,tile=20x8,path=tiled"},
      {"jacobi3d7:nx=20:ny=24:nz=28:steps=3:threads=4:dtype=f32",
       "vl=0,stride=2,tile=20x8,path=tiled"},
      {"gs1d3:nx=1048576:steps=1000:threads=0",
       "vl=0,stride=3,path=tv"},
      {"gs1d3:nx=1048576:steps=1000:threads=0:dtype=f32",
       "vl=0,stride=3,path=tv"},
      {"gs1d3:nx=1048576:steps=1000:threads=4",
       "vl=0,stride=3,tile=2048x64,path=tiled"},
      {"gs1d3:nx=1048576:steps=1000:threads=4:dtype=f32",
       "vl=0,stride=3,path=tv"},
      {"gs1d3:nx=100:steps=5:threads=0",
       "vl=0,stride=3,path=tv"},
      {"gs1d3:nx=100:steps=5:threads=0:dtype=f32",
       "vl=0,stride=3,path=tv"},
      {"gs1d3:nx=100:steps=5:threads=4",
       "vl=0,stride=3,tile=100x4,path=tiled"},
      {"gs1d3:nx=100:steps=5:threads=4:dtype=f32",
       "vl=0,stride=3,path=tv"},
      {"gs2d5:nx=4096:ny=4096:steps=256:threads=0",
       "vl=0,stride=2,path=tv"},
      {"gs2d5:nx=4096:ny=4096:steps=256:threads=0:dtype=f32",
       "vl=0,stride=2,path=tv"},
      {"gs2d5:nx=4096:ny=4096:steps=256:threads=4",
       "vl=0,stride=2,tile=128x32,path=tiled"},
      {"gs2d5:nx=4096:ny=4096:steps=256:threads=4:dtype=f32",
       "vl=0,stride=2,path=tv"},
      {"gs2d5:nx=100:ny=90:steps=6:threads=0",
       "vl=0,stride=2,path=tv"},
      {"gs2d5:nx=100:ny=90:steps=6:threads=0:dtype=f32",
       "vl=0,stride=2,path=tv"},
      {"gs2d5:nx=100:ny=90:steps=6:threads=4",
       "vl=0,stride=2,path=tv"},
      {"gs2d5:nx=100:ny=90:steps=6:threads=4:dtype=f32",
       "vl=0,stride=2,path=tv"},
      {"gs3d7:nx=256:ny=256:nz=256:steps=64:threads=0",
       "vl=0,stride=2,path=tv"},
      {"gs3d7:nx=256:ny=256:nz=256:steps=64:threads=0:dtype=f32",
       "vl=0,stride=2,path=tv"},
      {"gs3d7:nx=256:ny=256:nz=256:steps=64:threads=4",
       "vl=0,stride=2,tile=128x32,path=tiled"},
      {"gs3d7:nx=256:ny=256:nz=256:steps=64:threads=4:dtype=f32",
       "vl=0,stride=2,path=tv"},
      {"gs3d7:nx=20:ny=24:nz=28:steps=3:threads=0",
       "vl=0,stride=2,path=tv"},
      {"gs3d7:nx=20:ny=24:nz=28:steps=3:threads=0:dtype=f32",
       "vl=0,stride=2,path=tv"},
      {"gs3d7:nx=20:ny=24:nz=28:steps=3:threads=4",
       "vl=0,stride=2,tile=20x4,path=tiled"},
      {"gs3d7:nx=20:ny=24:nz=28:steps=3:threads=4:dtype=f32",
       "vl=0,stride=2,path=tv"},
      {"life:nx=4096:ny=4096:steps=256:threads=0",
       "vl=0,stride=2,path=tv"},
      {"life:nx=4096:ny=4096:steps=256:threads=4",
       "vl=0,stride=2,tile=256x32,path=tiled"},
      {"life:nx=100:ny=90:steps=6:threads=0",
       "vl=0,stride=2,path=tv"},
      {"life:nx=100:ny=90:steps=6:threads=4",
       "vl=0,stride=2,tile=100x16,path=tiled"},
      {"lcs:nx=20000:ny=30000:steps=0:threads=0",
       "vl=0,stride=1,path=tv"},
      {"lcs:nx=20000:ny=30000:steps=0:threads=4",
       "vl=0,stride=1,tile=4096x4096,path=tiled"},
      {"lcs:nx=1000:ny=700:steps=0:threads=0",
       "vl=0,stride=1,path=tv"},
      {"lcs:nx=1000:ny=700:steps=0:threads=4",
       "vl=0,stride=1,tile=700x1000,path=tiled"},
  };
  std::size_t checked = 0;
  for (int fi = 0; fi < solver::kFamilyCount; ++fi) {
    const auto f = static_cast<Family>(fi);
    const int dim = solver::family_dim(f);
    for (const bool big : {true, false})
      for (const int threads : {0, 4})
        for (const auto dt : {dispatch::DType::kF64, dispatch::DType::kF32}) {
          StencilProblem p;
          p.family = f;
          p.threads = threads;
          p.dtype = dt;
          if (dt == dispatch::DType::kF32 &&
              !solver::family_supports_dtype(f, dt))
            continue;
          if (f == Family::kLcs) {
            p.nx = big ? 20000 : 1000;
            p.ny = big ? 30000 : 700;
          } else if (dim == 1) {
            p.nx = big ? 1 << 20 : 100;
            p.steps = big ? 1000 : 5;
          } else if (dim == 2) {
            p.nx = big ? 4096 : 100;
            p.ny = big ? 4096 : 90;
            p.steps = big ? 256 : 6;
          } else {
            p.nx = big ? 256 : 20;
            p.ny = big ? 256 : 24;
            p.nz = big ? 256 : 28;
            p.steps = big ? 64 : 3;
          }
          std::string plan = solver::heuristic_plan(p).to_string();
          plan = plan.substr(plan.find(',') + 1);  // drop backend=...
          const auto it = golden.find(p.signature());
          ASSERT_NE(it, golden.end()) << p.signature();
          EXPECT_EQ(plan, it->second) << p.signature();
          ++checked;
        }
  }
  EXPECT_EQ(checked, golden.size());
}

TEST(Planner, TileHeightsAreClampedToTheStepCount) {
  const StencilProblem p = ProblemBuilder(Family::kJacobi1D3)
                               .extents(1 << 16)
                               .steps(24)
                               .threads(4)
                               .build();
  const ExecutionPlan plan = solver::heuristic_plan(p);
  EXPECT_LE(plan.tile_h, 24);
  EXPECT_EQ(plan.tile_h % 4, 0);
}

// A Gauss-Seidel stage runs one tile per band, so where the steps fill a
// single band the heuristic plans the serial engine for gs1d3 and gs2d5
// (measured faster there); gs3d7 keeps its parallelogram.  A pinned
// path=tiled still runs the parallelogram.
// A Gauss-Seidel stage holds one tile per band and per column block of a
// plane grid's inner axis; the heuristic plans the parallelogram when one
// stage can hold the family's minimum (2 tiles for gs1d3, 3 for gs2d5,
// none for gs3d7), else the serial engine.
TEST(Planner, GaussSeidelPlansTheTiledDriverWhenAStageHoldsEnoughTiles) {
  const auto plan_of = [](ProblemBuilder b, long steps) {
    return solver::heuristic_plan(b.steps(steps).threads(4).build());
  };
  const ProblemBuilder gs1 = ProblemBuilder(Family::kGs1D3).extents(1 << 16);
  const ProblemBuilder gs2 = ProblemBuilder(Family::kGs2D5).extents(512, 512);
  const ProblemBuilder gs2narrow =
      ProblemBuilder(Family::kGs2D5).extents(512, 128);
  const ProblemBuilder gs3 =
      ProblemBuilder(Family::kGs3D7).extents(64, 64, 64);
  EXPECT_EQ(plan_of(gs1, 64).path, Path::kSerialTv);   // tile 2048x64
  EXPECT_EQ(plan_of(gs1, 65).path, Path::kTiledParallel);
  // 128-column blocks: 4 on a 512-wide line, 3 on 384, 2 on 256, 1 on
  // 128; bands of 4 sweeps at 4 to 7 sweeps, of 32 from 32 on.
  EXPECT_EQ(plan_of(gs2, 4).path, Path::kTiledParallel);  // 1 band x 4
  EXPECT_EQ(plan_of(gs2, 32).path, Path::kTiledParallel);
  const auto gs2w = [](int ny) {
    return ProblemBuilder(Family::kGs2D5).extents(512, ny);
  };
  EXPECT_EQ(plan_of(gs2w(384), 4).path, Path::kTiledParallel);
  EXPECT_EQ(plan_of(gs2w(256), 4).path, Path::kSerialTv);
  EXPECT_EQ(plan_of(gs2w(256), 6).path, Path::kTiledParallel);  // 2 x 2
  EXPECT_EQ(plan_of(gs2narrow, 4).path, Path::kSerialTv);   // 1 x 1
  EXPECT_EQ(plan_of(gs2narrow, 6).path, Path::kSerialTv);   // 2 x 1
  EXPECT_EQ(plan_of(gs2narrow, 64).path, Path::kSerialTv);  // 2 x 1
  EXPECT_EQ(plan_of(gs2narrow, 65).path, Path::kTiledParallel);  // 3 x 1
  EXPECT_EQ(plan_of(gs3, 4).path, Path::kTiledParallel);
  EXPECT_EQ(plan_of(gs3, 32).path, Path::kTiledParallel);

  // The column-blocked parallelogram through the solver (48-column
  // blocks, 5 of them) equals the driver run directly and the serial
  // engine.
  const StencilProblem p = ProblemBuilder(Family::kGs2D5)
                               .extents(48, 200)
                               .steps(8)
                               .threads(4)
                               .build();
  const Solver s(p);
  ASSERT_EQ(s.plan().path, Path::kTiledParallel);
  const stencil::C2D5 c = stencil::heat2d(0.2);
  grid::Grid2D<double> direct(p.nx, p.ny), got(p.nx, p.ny);
  fill_pattern(direct);
  fill_pattern(got);
  test::resolve<dispatch::ParallelogramGs2D5Fn>(dispatch::kParallelogramGs2D5)(
      c, direct, p.steps,
      tiling::TileOptions{s.plan().tile_w, s.plan().tile_h, s.plan().stride});
  s.run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
  grid::Grid2D<double> serial(p.nx, p.ny);
  fill_pattern(serial);
  const ScopedEnv pin("TVS_PLAN", "path=tv");
  Solver(p).run(Workload(c, serial));
  EXPECT_EQ(grid::max_abs_diff(got, serial), 0.0);
}

TEST(Planner, TunedModeProducesAValidatedPlan) {
  solver::plan_cache_clear();
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi1D3).extents(4096).steps(24).build();
  const ExecutionPlan plan = solver::plan_for(p, PlanMode::kTuned);
  EXPECT_NO_THROW(solver::validate_plan(p, plan));

  // Tuning never changes results, only speed — including when the tuner
  // picked the redundancy-eliminated variant (its candidate set races both
  // variants of every Jacobi stride; which one wins is timing-dependent,
  // but both are bit-identical to the baseline engine).
  const stencil::C1D3 c = stencil::heat1d(0.25);
  grid::Grid1D<double> direct(p.nx), got(p.nx);
  fill_pattern(direct);
  fill_pattern(got);
  test::resolve<dispatch::TvJacobi1D3Fn>(dispatch::kTvJacobi1D3)(
      c, direct, p.steps, plan.stride);
  Solver(p, plan).run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

TEST(Planner, TunedReCandidateRunsAndMatches) {
  // The tuner's re candidates are real plans: take the heuristic plan,
  // flip the variant the way candidates() does, and drive a full solve —
  // whatever the wall clock says, the answer cannot move.
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi2D5).extents(96, 80).steps(12).build();
  ExecutionPlan plan = solver::heuristic_plan(p);
  plan.variant = solver::Variant::kRe;
  solver::validate_plan(p, plan);

  const stencil::C2D5 c = stencil::heat2d(0.2);
  grid::Grid2D<double> direct(p.nx, p.ny), got(p.nx, p.ny);
  fill_pattern(direct);
  fill_pattern(got);
  test::resolve<dispatch::TvJacobi2D5Fn>(dispatch::kTvJacobi2D5)(
      c, direct, p.steps, plan.stride);
  Solver(p, plan).run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

// ---- family / extent checking ----------------------------------------------

TEST(SolverChecks, FamilyAndExtentMismatchesThrow) {
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi2D5).extents(96, 96).steps(12).build();
  const Solver s(p);
  grid::Grid1D<double> u1(96);
  EXPECT_THROW(s.run(Workload(stencil::heat1d(0.25), u1)),
               std::invalid_argument);

  grid::Grid2D<double> wrong(64, 96);
  EXPECT_THROW(s.run(Workload(stencil::heat2d(0.2), wrong)),
               std::invalid_argument);
}

// ---- plan-vs-direct equality, all nine families ----------------------------

TEST(SolverEquality, Jacobi1D3) {
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi1D3).extents(4096).steps(40).build();
  const stencil::C1D3 c = stencil::heat1d(0.25);
  grid::Grid1D<double> direct(p.nx), got(p.nx);
  fill_pattern(direct);
  fill_pattern(got);
  test::resolve<dispatch::TvJacobi1D3Fn>(dispatch::kTvJacobi1D3)(
      c, direct, p.steps, 7);
  Solver(p).run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

TEST(SolverEquality, Jacobi1D5) {
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi1D5).extents(4096).steps(40).build();
  const stencil::C1D5 c = stencil::heat1d5(0.1);
  grid::Grid1D<double> direct(p.nx), got(p.nx);
  fill_pattern(direct);
  fill_pattern(got);
  test::resolve<dispatch::TvJacobi1D5Fn>(dispatch::kTvJacobi1D5)(
      c, direct, p.steps, 7);
  Solver(p).run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

TEST(SolverEquality, Jacobi2D5) {
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi2D5).extents(96, 80).steps(12).build();
  const stencil::C2D5 c = stencil::heat2d(0.2);
  grid::Grid2D<double> direct(p.nx, p.ny), got(p.nx, p.ny);
  fill_pattern(direct);
  fill_pattern(got);
  test::resolve<dispatch::TvJacobi2D5Fn>(dispatch::kTvJacobi2D5)(
      c, direct, p.steps, 2);
  Solver(p).run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

TEST(SolverEquality, Jacobi2D9) {
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi2D9).extents(96, 80).steps(12).build();
  const stencil::C2D9 c = stencil::box2d9(0.1);
  grid::Grid2D<double> direct(p.nx, p.ny), got(p.nx, p.ny);
  fill_pattern(direct);
  fill_pattern(got);
  test::resolve<dispatch::TvJacobi2D9Fn>(dispatch::kTvJacobi2D9)(
      c, direct, p.steps, 2);
  Solver(p).run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

TEST(SolverEquality, Jacobi3D7) {
  const StencilProblem p =
      ProblemBuilder(Family::kJacobi3D7).extents(24, 20, 28).steps(8).build();
  const stencil::C3D7 c = stencil::heat3d(0.1);
  grid::Grid3D<double> direct(p.nx, p.ny, p.nz), got(p.nx, p.ny, p.nz);
  fill_pattern(direct);
  fill_pattern(got);
  test::resolve<dispatch::TvJacobi3D7Fn>(dispatch::kTvJacobi3D7)(
      c, direct, p.steps, 2);
  Solver(p).run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

TEST(SolverEquality, Gs1D3) {
  const StencilProblem p =
      ProblemBuilder(Family::kGs1D3).extents(4096).steps(24).build();
  const stencil::C1D3 c = stencil::heat1d(0.25);
  grid::Grid1D<double> direct(p.nx), got(p.nx);
  fill_pattern(direct);
  fill_pattern(got);
  test::resolve<dispatch::TvGs1D3Fn>(dispatch::kTvGs1D3)(c, direct, p.steps, 3);
  Solver(p).run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

TEST(SolverEquality, Gs2D5) {
  const StencilProblem p =
      ProblemBuilder(Family::kGs2D5).extents(96, 80).steps(12).build();
  const stencil::C2D5 c{0.0, 0.25, 0.25, 0.25, 0.25};
  grid::Grid2D<double> direct(p.nx, p.ny), got(p.nx, p.ny);
  fill_pattern(direct);
  fill_pattern(got);
  test::resolve<dispatch::TvGs2D5Fn>(dispatch::kTvGs2D5)(c, direct, p.steps, 2);
  Solver(p).run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

TEST(SolverEquality, Gs3D7) {
  const StencilProblem p =
      ProblemBuilder(Family::kGs3D7).extents(24, 20, 28).steps(8).build();
  const stencil::C3D7 c = stencil::heat3d(0.1);
  grid::Grid3D<double> direct(p.nx, p.ny, p.nz), got(p.nx, p.ny, p.nz);
  fill_pattern(direct);
  fill_pattern(got);
  test::resolve<dispatch::TvGs3D7Fn>(dispatch::kTvGs3D7)(c, direct, p.steps, 2);
  Solver(p).run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

TEST(SolverEquality, Life) {
  const StencilProblem p =
      ProblemBuilder(Family::kLife).extents(64, 72).steps(16).build();
  const stencil::LifeRule r{};
  grid::Grid2D<std::int32_t> direct(p.nx, p.ny), got(p.nx, p.ny);
  std::mt19937 rng(11);
  direct.fill(0);
  for (int x = 1; x <= p.nx; ++x)
    for (int y = 1; y <= p.ny; ++y)
      direct.at(x, y) = static_cast<std::int32_t>(rng() & 1u);
  for (int x = 0; x <= p.nx + 1; ++x)
    for (int y = 0; y <= p.ny + 1; ++y) got.at(x, y) = direct.at(x, y);
  test::resolve<dispatch::TvLifeFn>(dispatch::kTvLife, dispatch::DType::kI32)(
      r, direct, p.steps, 2);
  Solver(p).run(Workload(r, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

TEST(SolverEquality, Lcs) {
  std::mt19937 rng(13);
  std::vector<std::int32_t> a(600), b(500);
  for (auto& v : a) v = static_cast<std::int32_t>(rng() % 4);
  for (auto& v : b) v = static_cast<std::int32_t>(rng() % 4);
  const StencilProblem p =
      ProblemBuilder(Family::kLcs)
          .extents(static_cast<int>(a.size()), static_cast<int>(b.size()))
          .build();
  const Solver s(p);
  ASSERT_EQ(s.plan().path, Path::kSerialTv);
  const solver::RunResult r = s.run(Workload(a, b));
  std::vector<std::int32_t> row(b.size() + 1 + tv::kLcsRowPad, 0);
  test::resolve<dispatch::TvLcsRowsFn>(dispatch::kTvLcsRows,
                                       dispatch::DType::kI32)(a, b, row.data());
  row.resize(b.size() + 1);
  EXPECT_EQ(r.lcs_row, row);
  EXPECT_EQ(r.lcs_length, row.back());
  EXPECT_EQ(r.lcs_length, stencil::lcs_ref(a, b));
}

// ---- tiled-path equality ---------------------------------------------------

TEST(SolverEqualityTiled, Jacobi1D3Diamond) {
  const StencilProblem p = ProblemBuilder(Family::kJacobi1D3)
                               .extents(4096)
                               .steps(64)
                               .threads(2)
                               .build();
  const stencil::C1D3 c = stencil::heat1d(0.25);
  grid::Grid1D<double> direct(p.nx), got(p.nx);
  fill_pattern(direct);
  fill_pattern(got);

  const ExecutionPlan plan = solver::plan_for(p);
  ASSERT_EQ(plan.path, Path::kTiledParallel);
  const tiling::TileOptions opt{plan.tile_w, plan.tile_h, plan.stride};
  auto* const run = test::resolve<dispatch::DiamondJacobi1D3Fn>(
      dispatch::kDiamondJacobi1D3);
  tiling::with_pingpong(direct, p.steps,
                        [&](auto& pp) { run(c, pp, p.steps, opt); });
  Solver(p).run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

TEST(SolverEqualityTiled, Jacobi2D5Diamond) {
  const StencilProblem p = ProblemBuilder(Family::kJacobi2D5)
                               .extents(96, 80)
                               .steps(32)
                               .threads(2)
                               .build();
  const stencil::C2D5 c = stencil::heat2d(0.2);
  grid::Grid2D<double> direct(p.nx, p.ny), got(p.nx, p.ny);
  fill_pattern(direct);
  fill_pattern(got);

  const ExecutionPlan plan = solver::plan_for(p);
  ASSERT_EQ(plan.path, Path::kTiledParallel);
  const tiling::TileOptions opt{plan.tile_w, plan.tile_h, plan.stride};
  auto* const run = test::resolve<dispatch::DiamondJacobi2D5Fn>(
      dispatch::kDiamondJacobi2D5);
  tiling::with_pingpong(direct, p.steps,
                        [&](auto& pp) { run(c, pp, p.steps, opt); });
  Solver(p).run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

TEST(SolverEqualityTiled, Gs1D3Parallelogram) {
  const StencilProblem p =
      ProblemBuilder(Family::kGs1D3).extents(4096).steps(64).threads(2).build();
  const stencil::C1D3 c = stencil::heat1d(0.25);
  grid::Grid1D<double> direct(p.nx), got(p.nx);
  fill_pattern(direct);
  fill_pattern(got);

  const ExecutionPlan plan = tiled_plan(p);
  const tiling::TileOptions opt{plan.tile_w, plan.tile_h, plan.stride};
  test::resolve<dispatch::ParallelogramGs1D3Fn>(dispatch::kParallelogramGs1D3)(
      c, direct, p.steps, opt);
  Solver(p, plan).run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);
}

TEST(SolverEqualityTiled, LcsWavefront) {
  std::mt19937 rng(17);
  std::vector<std::int32_t> a(3000), b(2500);
  for (auto& v : a) v = static_cast<std::int32_t>(rng() % 4);
  for (auto& v : b) v = static_cast<std::int32_t>(rng() % 4);
  const StencilProblem p =
      ProblemBuilder(Family::kLcs)
          .extents(static_cast<int>(a.size()), static_cast<int>(b.size()))
          .threads(2)
          .build();
  const Solver s(p);
  ASSERT_EQ(s.plan().path, Path::kTiledParallel);
  const tiling::TileOptions opt{s.plan().tile_w, s.plan().tile_h,
                                s.plan().stride};
  const solver::RunResult r = s.run(Workload(a, b));
  EXPECT_EQ(r.lcs_length,
            test::resolve<dispatch::LcsWavefrontFn>(
                dispatch::kLcsWavefront, dispatch::DType::kI32)(a, b, opt));
  EXPECT_TRUE(r.lcs_row.empty());  // the wavefront reports the length only
}

// ---- in-place tiled Grid runs ----------------------------------------------
// A Grid-form tiled solve runs on the caller's own storage: the buffer
// address survives the run (plain and decomposed), the result matches the
// serial engine bit for bit at both step parities, and a failing stage
// executor leaves the grid whole.

// A StageExec whose every stage fails before running a tile.
[[noreturn]] void run_throwing(void*, int, void (*)(void*, int, int), void*) {
  throw std::runtime_error("stage executor failed");
}

template <class GridT>
const void* buffer_of(const GridT& u) {
  if constexpr (requires(GridT g) { g.line(0, 0); }) {
    return u.line(0, 0);
  } else if constexpr (requires(GridT g) { g.row(0); }) {
    return u.row(0);
  } else {
    return u.p();
  }
}

template <class GridT>
std::vector<int> extents_of(const GridT& u) {
  if constexpr (requires(GridT g) { g.nz(); }) {
    return {u.nx(), u.ny(), u.nz()};
  } else if constexpr (requires(GridT g) { g.ny(); }) {
    return {u.nx(), u.ny()};
  } else {
    return {u.nx()};
  }
}

// Whether every boundary cell (some coordinate 0 or n+1) of a equals b's.
template <class GridT>
bool boundaries_equal(const GridT& a, const GridT& b) {
  bool eq = true;
  if constexpr (requires(GridT g) { g.at(0, 0, 0); }) {
    const int nx = a.nx(), ny = a.ny(), nz = a.nz();
    for (int x = 0; x <= nx + 1; ++x)
      for (int y = 0; y <= ny + 1; ++y)
        for (int z = 0; z <= nz + 1; ++z)
          if (x == 0 || x == nx + 1 || y == 0 || y == ny + 1 || z == 0 ||
              z == nz + 1)
            eq = eq && a.at(x, y, z) == b.at(x, y, z);
  } else if constexpr (requires(GridT g) { g.at(0, 0); }) {
    const int nx = a.nx(), ny = a.ny();
    for (int x = 0; x <= nx + 1; ++x)
      for (int y = 0; y <= ny + 1; ++y)
        if (x == 0 || x == nx + 1 || y == 0 || y == ny + 1)
          eq = eq && a.at(x, y) == b.at(x, y);
  } else {
    eq = a.at(0) == b.at(0) && a.at(a.nx() + 1) == b.at(b.nx() + 1);
  }
  return eq;
}

// Runs the checks at an even and an odd step count on the problem `b`
// describes, with threads = 2 on the tiled path; `make()` returns a fresh,
// identically filled grid.
template <class C, class Make>
void expect_in_place_tiled(const solver::ProblemBuilder& b, const C& c,
                           Make make) {
  for (const long steps : {8L, 9L}) {
    const StencilProblem p =
        solver::ProblemBuilder(b).steps(steps).threads(2).build();
    SCOPED_TRACE(p.signature());
    StencilProblem ps = p;
    ps.threads = 0;
    auto ref = make();
    Solver(ps).run(solver::Workload(c, ref));

    const Solver tiled(p, tiled_plan(p));
    for (const Solver& s : {tiled, tiled.with_stage_exec(&test::kInlineExec),
                            tiled.with_stage_exec(&test::kReverseExec)}) {
      auto u = make();
      const void* buf = buffer_of(u);
      s.run(solver::Workload(c, u));
      EXPECT_EQ(buffer_of(u), buf);
      EXPECT_EQ(grid::max_abs_diff(u, ref), 0.0);
    }

    const tiling::StageExec failing{nullptr, 1, run_throwing};
    const auto before = make();
    auto u = make();
    const void* buf = buffer_of(u);
    EXPECT_THROW(tiled.with_stage_exec(&failing).run(solver::Workload(c, u)),
                 std::runtime_error);
    ASSERT_EQ(buffer_of(u), buf);
    EXPECT_EQ(extents_of(u), extents_of(before));
    EXPECT_TRUE(boundaries_equal(u, before));
  }
}

// A maker of G<T>(n...) grids filled from `seed` (values in [0, 1]).
template <class T, template <class> class G, class... Extents>
auto random_grid(unsigned seed, Extents... n) {
  return [=] {
    std::mt19937_64 rng(seed);
    G<T> g(n...);
    g.fill_random(rng, T{0}, T{1});
    return g;
  };
}

TEST(SolverInPlace, Jacobi1D3) {
  expect_in_place_tiled(
      solver::ProblemBuilder(Family::kJacobi1D3).extents(4096),
      stencil::heat1d(0.25), random_grid<double, grid::Grid1D>(31, 4096));
}

TEST(SolverInPlace, Jacobi2D5) {
  expect_in_place_tiled(
      solver::ProblemBuilder(Family::kJacobi2D5).extents(96, 80),
      stencil::heat2d(0.2), random_grid<double, grid::Grid2D>(32, 96, 80));
}

TEST(SolverInPlace, Jacobi2D9) {
  const stencil::C2D9 c{0.2, 0.14, 0.12, 0.1, 0.09, 0.08, 0.09, 0.09, 0.09};
  expect_in_place_tiled(
      solver::ProblemBuilder(Family::kJacobi2D9).extents(96, 80), c,
      random_grid<double, grid::Grid2D>(33, 96, 80));
}

TEST(SolverInPlace, Jacobi3D7) {
  const stencil::C3D7 c{0.28, 0.13, 0.12, 0.12, 0.11, 0.13, 0.11};
  expect_in_place_tiled(
      solver::ProblemBuilder(Family::kJacobi3D7).extents(40, 12, 10), c,
      random_grid<double, grid::Grid3D>(34, 40, 12, 10));
}

TEST(SolverInPlace, Life) {
  expect_in_place_tiled(solver::ProblemBuilder(Family::kLife).extents(96, 80),
                        stencil::LifeRule{},
                        random_grid<std::int32_t, grid::Grid2D>(35, 96, 80));
}

// The float Jacobi families run the same diamond drivers on 8-lane float
// tiles; the serial float engine they are compared with runs 8 or 16.
TEST(SolverInPlace, Jacobi1D3F32) {
  expect_in_place_tiled(solver::ProblemBuilder(Family::kJacobi1D3)
                            .extents(4096)
                            .dtype(dispatch::DType::kF32),
                        stencil::heat1d<float>(0.25f),
                        random_grid<float, grid::Grid1D>(41, 4096));
}

TEST(SolverInPlace, Jacobi2D5F32) {
  expect_in_place_tiled(solver::ProblemBuilder(Family::kJacobi2D5)
                            .extents(96, 80)
                            .dtype(dispatch::DType::kF32),
                        stencil::heat2d<float>(0.2f),
                        random_grid<float, grid::Grid2D>(42, 96, 80));
}

TEST(SolverInPlace, Jacobi2D9F32) {
  const stencil::C2D9f c{0.2f,  0.14f, 0.12f, 0.1f, 0.09f,
                         0.08f, 0.09f, 0.09f, 0.09f};
  expect_in_place_tiled(solver::ProblemBuilder(Family::kJacobi2D9)
                            .extents(96, 80)
                            .dtype(dispatch::DType::kF32),
                        c, random_grid<float, grid::Grid2D>(43, 96, 80));
}

TEST(SolverInPlace, Jacobi3D7F32) {
  const stencil::C3D7f c{0.28f, 0.13f, 0.12f, 0.12f, 0.11f, 0.13f, 0.11f};
  expect_in_place_tiled(solver::ProblemBuilder(Family::kJacobi3D7)
                            .extents(40, 12, 10)
                            .dtype(dispatch::DType::kF32),
                        c, random_grid<float, grid::Grid3D>(44, 40, 12, 10));
}

// The Gauss-Seidel families take the router's parallelogram branch, which
// sweeps the caller's grid directly (no parity partner).
TEST(SolverInPlace, Gs1D3) {
  expect_in_place_tiled(solver::ProblemBuilder(Family::kGs1D3).extents(4096),
                        stencil::heat1d(0.25),
                        random_grid<double, grid::Grid1D>(36, 4096));
}

TEST(SolverInPlace, Gs2D5) {
  const stencil::C2D5 c{0.0, 0.25, 0.25, 0.25, 0.25};
  expect_in_place_tiled(solver::ProblemBuilder(Family::kGs2D5).extents(96, 80),
                        c, random_grid<double, grid::Grid2D>(37, 96, 80));
}

TEST(SolverInPlace, Gs3D7) {
  expect_in_place_tiled(
      solver::ProblemBuilder(Family::kGs3D7).extents(40, 12, 10),
      stencil::heat3d(0.1), random_grid<double, grid::Grid3D>(38, 40, 12, 10));
}

// ---- the kept diamond partner ----------------------------------------------
// A tiled diamond Solver keeps its odd-parity partner grid between runs and
// shares it with its copies (solver.hpp).  Whatever a run leaves in it, and
// however runs of the copies overlap, every result must stay exact.

// A StageExec that runs its first `ok` stages inline and throws in the
// next one, so the failing run leaves a half-advanced partner behind.
struct FailAfter {
  int ok;
  static void run(void* ctx, int n, void (*body)(void*, int, int),
                  void* body_ctx) {
    auto* self = static_cast<FailAfter*>(ctx);
    if (self->ok-- <= 0) throw std::runtime_error("stage executor failed");
    for (int i = 0; i < n; ++i) body(body_ctx, i, 0);
  }
};

// One tiled Solver per step count (odd and even) runs run -> submit ->
// run on a new input each time, then a run whose stage executor throws
// mid-run, then another run; each result equals the serial plan's.
template <class C, class Make>
void expect_partner_reuse_exact(const solver::ProblemBuilder& b, const C& c,
                                Make make) {
  for (const long steps : {8L, 9L}) {
    const StencilProblem p =
        solver::ProblemBuilder(b).steps(steps).threads(2).build();
    SCOPED_TRACE(p.signature());
    StencilProblem ps = p;
    ps.threads = 0;
    const Solver serial(ps);
    const Solver tiled(p);
    ASSERT_EQ(tiled.plan().path, Path::kTiledParallel);
    const auto expect_exact = [&](unsigned seed, bool async) {
      auto want = make(seed), got = make(seed);
      serial.run(solver::Workload(c, want));
      if (async) {
        tiled.submit(solver::Workload(c, got)).get();
      } else {
        tiled.run(solver::Workload(c, got));
      }
      EXPECT_EQ(grid::max_abs_diff(got, want), 0.0) << "seed " << seed;
    };
    expect_exact(1, false);
    expect_exact(2, true);
    expect_exact(3, false);

    FailAfter fail{2};
    const tiling::StageExec failing{&fail, 1, FailAfter::run};
    const auto before = make(4);
    auto u = make(4);
    const void* buf = buffer_of(u);
    EXPECT_THROW(tiled.with_stage_exec(&failing).run(solver::Workload(c, u)),
                 std::runtime_error);
    ASSERT_EQ(buffer_of(u), buf);
    EXPECT_EQ(extents_of(u), extents_of(before));
    expect_exact(5, false);
    expect_exact(6, true);
  }
}

// A maker of G<T>(n...) grids filled from a seed (values in [0, 1]).
template <class T, template <class> class G, class... Extents>
auto seeded_grid(Extents... n) {
  return [=](unsigned seed) {
    std::mt19937_64 rng(seed);
    G<T> g(n...);
    g.fill_random(rng, T{0}, T{1});
    return g;
  };
}

TEST(SolverPartner, Jacobi1D3ReuseIsExact) {
  expect_partner_reuse_exact(
      solver::ProblemBuilder(Family::kJacobi1D3).extents(4096),
      stencil::heat1d(0.25), seeded_grid<double, grid::Grid1D>(4096));
}

TEST(SolverPartner, Jacobi2D5ReuseIsExact) {
  expect_partner_reuse_exact(
      solver::ProblemBuilder(Family::kJacobi2D5).extents(96, 80),
      stencil::heat2d(0.2), seeded_grid<double, grid::Grid2D>(96, 80));
}

TEST(SolverPartner, Jacobi3D7F32ReuseIsExact) {
  const stencil::C3D7f c{0.28f, 0.13f, 0.12f, 0.12f, 0.11f, 0.13f, 0.11f};
  expect_partner_reuse_exact(solver::ProblemBuilder(Family::kJacobi3D7)
                                 .extents(40, 12, 10)
                                 .dtype(dispatch::DType::kF32),
                             c, seeded_grid<float, grid::Grid3D>(40, 12, 10));
}

TEST(SolverPartner, LifeReuseIsExact) {
  expect_partner_reuse_exact(
      solver::ProblemBuilder(Family::kLife).extents(96, 80),
      stencil::LifeRule{}, seeded_grid<std::int32_t, grid::Grid2D>(96, 80));
}

// Two threads run copies of one Solver at the same time, each on its own
// grid and 16 runs in a row, so the copies contend for the one kept
// partner; both results equal the serial plan's.  The copies run their
// stages on the test executors, not OpenMP: under GCC's TSan build, with
// two OpenMP teams started from two std::threads, the run did not finish
// in ten minutes (it takes milliseconds in a normal build).
TEST(SolverPartner, ConcurrentCopiesAreExact) {
  const StencilProblem p = ProblemBuilder(Family::kJacobi2D5)
                               .extents(96, 80)
                               .steps(9)
                               .threads(2)
                               .build();
  StencilProblem ps = p;
  ps.threads = 0;
  const Solver serial(ps);
  const Solver tiled(p);
  ASSERT_EQ(tiled.plan().path, Path::kTiledParallel);
  const stencil::C2D5 c = stencil::heat2d(0.2);
  const auto make = seeded_grid<double, grid::Grid2D>(96, 80);
  constexpr int kRuns = 16;
  std::vector<grid::Grid2D<double>> got, want;
  for (unsigned k = 0; k < 2; ++k) {
    got.push_back(make(10 + k));
    want.push_back(make(10 + k));
    for (int r = 0; r < kRuns; ++r) serial.run(Workload(c, want.back()));
  }
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < 2; ++k) {
    threads.emplace_back([&, k] {
      const Solver s = tiled.with_stage_exec(
          k == 0 ? &test::kInlineExec : &test::kReverseExec);
      for (int r = 0; r < kRuns; ++r) s.run(Workload(c, got[k]));
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(grid::max_abs_diff(got[0], want[0]), 0.0);
  EXPECT_EQ(grid::max_abs_diff(got[1], want[1]), 0.0);
}

// ---- float (dtype = f32) plumbing ------------------------------------------

TEST(SolverFloat, SignatureCarriesDtype) {
  StencilProblem p =
      ProblemBuilder(Family::kJacobi2D5).extents(64, 32).steps(10).build();
  const std::string f64_sig = p.signature();
  EXPECT_EQ(f64_sig.find("dtype"), std::string::npos)
      << "f64 signatures stay unsuffixed: " << f64_sig;
  p.dtype = dispatch::DType::kF32;
  EXPECT_EQ(p.signature(), f64_sig + ":dtype=f32");
}

// The f32 engine the Solver's router resolves for a plan: the pinned
// width, or (vl = 0) the backend's native width for the dtype.
dispatch::AnyFn planned_f32_engine(const ExecutionPlan& plan,
                                   std::string_view id) {
  return dispatch::KernelRegistry::instance().resolve_at(
      id, plan.backend, plan.vl > 0 ? plan.vl : dispatch::kAnyVl,
      dispatch::DType::kF32);
}

TEST(SolverFloat, HeuristicDoublesVectorLength) {
  // The serial f32 plan runs the doubled float width: the 16-lane engine
  // under avx512, the 8-lane one under avx2 and scalar.
  StencilProblem p = ProblemBuilder(Family::kJacobi1D3)
                         .extents(4096)
                         .steps(64)
                         .dtype(dispatch::DType::kF32)
                         .build();
  const ExecutionPlan plan = solver::heuristic_plan(p);
  const int lanes = plan.backend == dispatch::Backend::kAvx512 ? 16 : 8;
  EXPECT_EQ(planned_f32_engine(plan, dispatch::kTvJacobi1D3),
            dispatch::KernelRegistry::instance().resolve_at(
                dispatch::kTvJacobi1D3, plan.backend, lanes,
                dispatch::DType::kF32))
      << plan.to_string();
  EXPECT_EQ(plan.path, Path::kSerialTv);
  solver::validate_plan(p, plan);  // must not throw
}

TEST(SolverFloat, PinnedBackendResolvesItsOwnFloatEngine) {
  // TVS_PLAN=backend=avx2 on an f32 problem runs AVX2's 8-lane engine,
  // whatever width the host's own backend would have planned.
  const auto& reg = dispatch::KernelRegistry::instance();
  if (!reg.has_backend(dispatch::Backend::kAvx2) ||
      !dispatch::cpu_supports(dispatch::Backend::kAvx2)) {
    GTEST_SKIP() << "avx2 backend not available";
  }
  const ScopedEnv pin("TVS_PLAN", "backend=avx2");
  const StencilProblem p = ProblemBuilder(Family::kJacobi2D5)
                               .extents(64, 48)
                               .steps(8)
                               .dtype(dispatch::DType::kF32)
                               .build();
  const Solver s(p);
  EXPECT_EQ(s.plan().backend, dispatch::Backend::kAvx2);
  EXPECT_EQ(planned_f32_engine(s.plan(), dispatch::kTvJacobi2D5),
            reg.find(dispatch::kTvJacobi2D5, dispatch::Backend::kAvx2, 8,
                     dispatch::DType::kF32))
      << s.plan().to_string();
}

TEST(SolverFloat, FloatJacobiPlansTiled) {
  // A thread request puts every float Jacobi family on its diamond driver
  // (8-lane float tiles, no vl pin); float Gauss-Seidel has no registered
  // parallelogram, so it plans serial and a pinned tiled plan is rejected.
  const auto f32_problem = [](ProblemBuilder b) {
    return b.steps(64).threads(4).dtype(dispatch::DType::kF32).build();
  };
  for (const StencilProblem& p :
       {f32_problem(ProblemBuilder(Family::kJacobi1D3).extents(4096)),
        f32_problem(ProblemBuilder(Family::kJacobi2D5).extents(256, 256)),
        f32_problem(ProblemBuilder(Family::kJacobi2D9).extents(256, 256)),
        f32_problem(ProblemBuilder(Family::kJacobi3D7).extents(64, 32, 32))}) {
    SCOPED_TRACE(p.signature());
    const ExecutionPlan plan = solver::heuristic_plan(p);
    EXPECT_EQ(plan.path, Path::kTiledParallel) << plan.to_string();
    EXPECT_EQ(plan.vl, 0) << plan.to_string();
    solver::validate_plan(p, plan);  // must not throw
  }

  const StencilProblem gs =
      f32_problem(ProblemBuilder(Family::kGs2D5).extents(256, 256));
  const ExecutionPlan plan = solver::heuristic_plan(gs);
  EXPECT_EQ(plan.path, Path::kSerialTv);
  ExecutionPlan tiled = plan;
  tiled.vl = 0;
  tiled.path = Path::kTiledParallel;
  tiled.tile_w = 64;
  tiled.tile_h = 32;
  try {
    solver::validate_plan(gs, tiled);
    ADD_FAILURE() << "a tiled f32 gs2d5 plan validated";
  } catch (const solver::Error& e) {
    EXPECT_EQ(e.code(), solver::Errc::kBadPath) << e.what();
  }
}

TEST(SolverFloat, DtypeMismatchThrows) {
  // A float problem rejects a double payload and vice versa.
  StencilProblem pf = ProblemBuilder(Family::kJacobi1D3)
                          .extents(64)
                          .steps(4)
                          .dtype(dispatch::DType::kF32)
                          .build();
  grid::Grid1D<double> ud(64);
  ud.fill(1.0);
  EXPECT_THROW(Solver(pf).run(Workload(stencil::heat1d(0.25), ud)),
               std::invalid_argument);
  StencilProblem pd =
      ProblemBuilder(Family::kJacobi1D3).extents(64).steps(4).build();
  grid::Grid1D<float> uf(64);
  uf.fill(1.0f);
  EXPECT_THROW(Solver(pd).run(Workload(stencil::heat1d<float>(0.25), uf)),
               std::invalid_argument);
}

TEST(SolverFloat, RunMatchesDirectEntryPointsBitForBit) {
  // The facade resolves the same float engines the registry returns for
  // (id, kF32); with the same stride the results are bit-identical.
  const auto fill = [](auto& g, int nx) {
    for (int x = 0; x <= nx + 1; ++x)
      g.at(x) = 1.0f + 0.001f * static_cast<float>(x % 89);
  };
  StencilProblem p = ProblemBuilder(Family::kJacobi1D3)
                         .extents(200)
                         .steps(9)
                         .dtype(dispatch::DType::kF32)
                         .build();
  const Solver s(p);
  const stencil::C1D3f c = stencil::heat1d<float>(0.25);
  grid::Grid1D<float> direct(p.nx), got(p.nx);
  fill(direct, p.nx);
  fill(got, p.nx);
  test::resolve<dispatch::TvJacobi1D3F32Fn>(dispatch::kTvJacobi1D3,
                                            dispatch::DType::kF32)(
      c, direct, p.steps, s.plan().stride);
  s.run(Workload(c, got));
  EXPECT_EQ(grid::max_abs_diff(got, direct), 0.0);

  StencilProblem pg = ProblemBuilder(Family::kGs1D3)
                          .extents(150)
                          .steps(8)
                          .dtype(dispatch::DType::kF32)
                          .build();
  const Solver sg(pg);
  grid::Grid1D<float> gdirect(pg.nx), ggot(pg.nx);
  fill(gdirect, pg.nx);
  fill(ggot, pg.nx);
  test::resolve<dispatch::TvGs1D3F32Fn>(dispatch::kTvGs1D3,
                                        dispatch::DType::kF32)(
      c, gdirect, pg.steps, sg.plan().stride);
  sg.run(Workload(c, ggot));
  EXPECT_EQ(grid::max_abs_diff(ggot, gdirect), 0.0);
}

}  // namespace
}  // namespace tvs
