// Tests for the §3.2 legality rule: s*dt > dx for every forward dependence,
// and for its enforcement by the planner (solver::validate_plan).
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "solver/builder.hpp"
#include "solver/error.hpp"
#include "solver/plan.hpp"
#include "stencil/dependence.hpp"

namespace {

using namespace tvs::stencil;

TEST(Legality, Jacobi1D3P) {
  const auto d = jacobi1d_deps(1);
  EXPECT_EQ(d.size(), 3u);
  // Paper: dependencies (1,0), (1,1), (1,-1) -> s > 1, i.e. s >= 2.
  EXPECT_EQ(min_stride(d), 2);
}

TEST(Legality, Jacobi1D5P) {
  EXPECT_EQ(min_stride(jacobi1d_deps(2)), 3);  // dx/dt = 2 -> s >= 3
}

TEST(Legality, HighOrder) {
  EXPECT_EQ(min_stride(jacobi1d_deps(4)), 5);
}

TEST(Legality, Jacobi2D3DProjectSameAs1D) {
  EXPECT_EQ(min_stride(jacobi2d_deps(1)), 2);
  EXPECT_EQ(min_stride(jacobi3d_deps(1)), 2);
}

TEST(Legality, GaussSeidel) {
  // Forward old-value dep (1,1) -> s >= 2; newest west (0,-1) is free.
  EXPECT_EQ(min_stride(gauss_seidel_deps(1)), 2);
}

TEST(Legality, LCS) {
  // Paper: "the space stride must satisfy s >= 1".
  EXPECT_EQ(min_stride(lcs_deps()), 1);
}

TEST(Legality, SameTimeForwardDependenceIsIllegal) {
  const Dep d[] = {{0, 1}};
  EXPECT_EQ(min_stride(d), -1);
}

TEST(Legality, MultiTimeStepDependence) {
  // (dt=2, dx=5): s*2 > 5 -> s >= 3.
  const Dep d[] = {{2, 5}};
  EXPECT_EQ(min_stride(d), 3);
  // (dt=3, dx=6): s*3 > 6 -> s >= 3.
  const Dep e[] = {{3, 6}};
  EXPECT_EQ(min_stride(e), 3);
}

TEST(Legality, BackwardOnlyNeedsStrideOne) {
  const Dep d[] = {{1, 0}, {1, -1}, {0, -1}};
  EXPECT_EQ(min_stride(d), 1);
}

// ---- require_legal_stride: the API-boundary guard --------------------------

TEST(RequireLegalStride, AcceptsLegalRejectsIllegal) {
  const auto deps = jacobi1d_deps(1);
  EXPECT_NO_THROW(require_legal_stride("k", deps, 2));
  EXPECT_NO_THROW(require_legal_stride("k", deps, 7));
  EXPECT_THROW(require_legal_stride("k", deps, 1), std::invalid_argument);
  EXPECT_THROW(require_legal_stride("k", deps, 0), std::invalid_argument);
  EXPECT_THROW(require_legal_stride("k", deps, -3), std::invalid_argument);
}

TEST(RequireLegalStride, EnforcesMaxStride) {
  const auto deps = jacobi1d_deps(1);
  EXPECT_NO_THROW(require_legal_stride("k", deps, 32, 32));
  EXPECT_THROW(require_legal_stride("k", deps, 33, 32), std::invalid_argument);
}

TEST(RequireLegalStride, NamesKernelAndMinimumInMessage) {
  try {
    require_legal_stride("jacobi1d5", jacobi1d_deps(2), 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("jacobi1d5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("3"), std::string::npos) << msg;  // smallest legal s
  }
}

TEST(RequireLegalStride, SameTimeForwardDependenceAlwaysThrows) {
  const Dep d[] = {{0, 1}};
  EXPECT_THROW(require_legal_stride("k", d, 100), std::invalid_argument);
}

// The planner enforces the rule for every solve: validate_plan rejects a
// pinned plan with an illegal stride before any kernel runs, and the 1D
// engines' ring capacity caps the 1D strides.
TEST(ApiBoundary, PlannerRejectsIllegalStrides) {
  namespace solver = tvs::solver;
  using solver::Family;
  const auto plan_with = [](const solver::StencilProblem& p, int stride) {
    solver::ExecutionPlan plan = solver::heuristic_plan(p);
    plan.stride = stride;
    return plan;
  };
  const auto p1 = [](Family f) {
    return solver::ProblemBuilder(f).extents(64).steps(4).build();
  };
  const auto p2 = [](Family f) {
    return solver::ProblemBuilder(f).extents(24, 12).steps(4).build();
  };

  const solver::StencilProblem j1d3 = p1(Family::kJacobi1D3);
  for (const int s : {0, 1, 33})
    EXPECT_THROW(solver::validate_plan(j1d3, plan_with(j1d3, s)),
                 std::invalid_argument)
        << "s=" << s;
  EXPECT_NO_THROW(solver::validate_plan(j1d3, plan_with(j1d3, 2)));
  EXPECT_NO_THROW(solver::validate_plan(j1d3, plan_with(j1d3, 32)));

  const solver::StencilProblem j1d5 = p1(Family::kJacobi1D5);
  EXPECT_THROW(solver::validate_plan(j1d5, plan_with(j1d5, 2)),
               std::invalid_argument);
  EXPECT_NO_THROW(solver::validate_plan(j1d5, plan_with(j1d5, 3)));

  const solver::StencilProblem gs1d3 = p1(Family::kGs1D3);
  EXPECT_THROW(solver::validate_plan(gs1d3, plan_with(gs1d3, 1)),
               std::invalid_argument);
  EXPECT_NO_THROW(solver::validate_plan(gs1d3, plan_with(gs1d3, 2)));

  const solver::StencilProblem j2d5 = p2(Family::kJacobi2D5);
  EXPECT_THROW(solver::validate_plan(j2d5, plan_with(j2d5, 1)),
               std::invalid_argument);
  EXPECT_NO_THROW(solver::validate_plan(j2d5, plan_with(j2d5, 2)));

  const solver::StencilProblem life = p2(Family::kLife);
  EXPECT_THROW(solver::validate_plan(life, plan_with(life, 1)),
               std::invalid_argument);
}

// A tiled plan cannot report a stride its driver never runs: the 1D
// diamond clamps to tiling::kMaxDiamond1DStride, so the planner rejects a
// larger tiled stride, as it does beyond the parallelograms' cap.
TEST(ApiBoundary, PlannerRejectsTiledStridesBeyondTheDriverCap) {
  namespace solver = tvs::solver;
  using solver::Family;
  const auto tiled_with = [](const solver::StencilProblem& p, int stride) {
    solver::ExecutionPlan plan = solver::heuristic_plan(p);
    plan.path = solver::Path::kTiledParallel;
    plan.stride = stride;
    return plan;
  };
  // The error code validate_plan raises; nullopt when it accepts.
  const auto code_of = [](const solver::StencilProblem& p,
                          const solver::ExecutionPlan& plan)
      -> std::optional<solver::Errc> {
    try {
      solver::validate_plan(p, plan);
    } catch (const solver::Error& e) {
      return e.code();
    }
    return std::nullopt;
  };

  const solver::StencilProblem j1d3 = solver::ProblemBuilder(Family::kJacobi1D3)
                                          .extents(4096)
                                          .steps(64)
                                          .threads(4)
                                          .build();
  EXPECT_EQ(code_of(j1d3, tiled_with(j1d3, 8)), std::nullopt);
  EXPECT_EQ(code_of(j1d3, tiled_with(j1d3, 9)), solver::Errc::kBadStride);
  // The serial engine's ring takes the same stride.
  solver::ExecutionPlan serial = tiled_with(j1d3, 9);
  serial.path = solver::Path::kSerialTv;
  EXPECT_EQ(code_of(j1d3, serial), std::nullopt);

  const solver::StencilProblem gs1d3 = solver::ProblemBuilder(Family::kGs1D3)
                                           .extents(4096)
                                           .steps(64)
                                           .threads(4)
                                           .build();
  EXPECT_EQ(code_of(gs1d3, tiled_with(gs1d3, 12)), std::nullopt);
  EXPECT_EQ(code_of(gs1d3, tiled_with(gs1d3, 13)), solver::Errc::kBadStride);
}

}  // namespace
