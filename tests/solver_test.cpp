// Solver facade: plan cache hit/miss accounting, TVS_PLAN override
// parsing (including malformed specs -> clear errors), and bit-for-bit
// equality of Solver::run against the direct tv_* / diamond_* /
// parallelogram_* entry points for every kernel family.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "solver/builder.hpp"
#include "solver/solver.hpp"
#include "stage_execs.hpp"
#include "stencil/lcs_ref.hpp"
#include "tiling/diamond.hpp"
#include "tiling/diamond2d.hpp"
#include "tiling/lcs_wavefront.hpp"
#include "tiling/parallelogram.hpp"
#include "tv/tv1d.hpp"
#include "tv/tv2d.hpp"
#include "tv/tv3d.hpp"
#include "tv/tv_gs1d.hpp"
#include "tv/tv_gs2d.hpp"
#include "tv/tv_gs3d.hpp"
#include "tv/tv_lcs.hpp"
#include "tv/tv_life.hpp"

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
  tv::tv_jacobi1d3_run(c, direct, p.steps, 7);

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
  tv::tv_jacobi2d9_run(c, direct, p.steps, 2);

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
  tv::tv_jacobi1d3_run(c, direct, p.steps, 7);

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
  tv::tv_jacobi1d3_run(c, direct, p.steps, plan.stride);
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
  tv::tv_jacobi2d5_run(c, direct, p.steps, plan.stride);
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
  tv::tv_jacobi1d3_run(c, direct, p.steps, 7);
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
  tv::tv_jacobi1d5_run(c, direct, p.steps, 7);
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
  tv::tv_jacobi2d5_run(c, direct, p.steps, 2);
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
  tv::tv_jacobi2d9_run(c, direct, p.steps, 2);
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
  tv::tv_jacobi3d7_run(c, direct, p.steps, 2);
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
  tv::tv_gs1d3_run(c, direct, p.steps, 3);
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
  tv::tv_gs2d5_run(c, direct, p.steps, 2);
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
  tv::tv_gs3d7_run(c, direct, p.steps, 2);
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
  tv::tv_life_run(r, direct, p.steps, 2);
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
  EXPECT_EQ(r.lcs_row, tv::tv_lcs_row(a, b));
  EXPECT_EQ(r.lcs_length, tv::tv_lcs(a, b));
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
  tiling::Diamond1DOptions opt{plan.tile_w, plan.tile_h, plan.stride, true};
  tiling::diamond_jacobi1d3_run(c, direct, p.steps, opt);
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
  tiling::Diamond2DOptions opt{plan.tile_w, plan.tile_h, plan.stride, true};
  tiling::diamond_jacobi2d5_run(c, direct, p.steps, opt);
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

  const ExecutionPlan plan = solver::plan_for(p);
  ASSERT_EQ(plan.path, Path::kTiledParallel);
  tiling::Parallelogram1DOptions opt{plan.tile_w, plan.tile_h, plan.stride,
                                     true};
  tiling::parallelogram_gs1d3_run(c, direct, p.steps, opt);
  Solver(p).run(Workload(c, got));
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
  tiling::LcsWavefrontOptions opt{s.plan().tile_w, s.plan().tile_h, true};
  const solver::RunResult r = s.run(Workload(a, b));
  EXPECT_EQ(r.lcs_length, tiling::lcs_wavefront(a, b, opt));
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
// describes, with threads = 2 (the tiled path); `make()` returns a fresh,
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

    const Solver tiled(p);
    ASSERT_EQ(tiled.plan().path, Path::kTiledParallel);
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

TEST(SolverFloat, HeuristicDoublesVectorLength) {
  StencilProblem p = ProblemBuilder(Family::kJacobi1D3)
                         .extents(4096)
                         .steps(64)
                         .dtype(dispatch::DType::kF32)
                         .build();
  const ExecutionPlan plan = solver::heuristic_plan(p);
  EXPECT_EQ(plan.vl,
            plan.backend == dispatch::Backend::kAvx512 ? 16 : 8)
      << plan.to_string();
  EXPECT_EQ(plan.path, Path::kSerialTv);
  solver::validate_plan(p, plan);  // must not throw
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
  // The facade resolves the same float engines the public tv_* overloads
  // dispatch to; with the same stride the results are bit-identical.
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
  tv::tv_jacobi1d3_run(c, direct, p.steps, s.plan().stride);
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
  tv::tv_gs1d3_run(c, gdirect, pg.steps, sg.plan().stride);
  sg.run(Workload(c, ggot));
  EXPECT_EQ(grid::max_abs_diff(ggot, gdirect), 0.0);
}

}  // namespace
}  // namespace tvs
