// Quickstart: solve the 1D heat equation through the Solver facade and
// compare against the scalar reference.
//
//   $ ./quickstart
//
// Demonstrates the three-line usage pattern:
//   1. describe the problem, 2. build a Solver (plans automatically),
//   3. run it.  The plan — backend, vector length, stride, tiling — is
// chosen per problem and machine; TVS_PLAN / TVS_TUNE / TVS_FORCE_BACKEND
// override it (see README "Solver API").
#include <cstdio>

#include "solver/builder.hpp"
#include "solver/solver.hpp"
#include "stencil/reference1d.hpp"

int main() {
  using namespace tvs;

  constexpr int nx = 1 << 16;
  constexpr long steps = 400;

  // A rod with a hot left boundary, cold right boundary.
  grid::Grid1D<double> u(nx);
  u.fill(0.0);
  u.at(0) = 100.0;
  u.at(nx + 1) = 0.0;

  const stencil::C1D3 heat = stencil::heat1d(0.25);

  // The facade: describe, plan, run.  The planner picks the temporal
  // stride (the paper's s = 7 for this family) and the execution path.
  const solver::StencilProblem problem =
      solver::ProblemBuilder(solver::Family::kJacobi1D3)
          .extents(nx)
          .steps(steps)
          .build();
  const solver::Solver solve(problem);
  solve.run(solver::Workload(heat, u));

  // Scalar oracle for comparison — bit-identical by construction.
  grid::Grid1D<double> ref(nx);
  ref.fill(0.0);
  ref.at(0) = 100.0;
  ref.at(nx + 1) = 0.0;
  stencil::jacobi1d3_run(heat, ref, steps);

  const double diff = grid::max_abs_diff(u, ref);
  std::printf("execution plan            : %s\n",
              solve.plan().to_string().c_str());
  std::printf("temperature near hot end  : %8.4f %8.4f %8.4f ...\n", u.at(1),
              u.at(2), u.at(3));
  std::printf("max |temporal - scalar|   : %g\n", diff);
  std::printf("%s\n", diff == 0.0 ? "OK: results are bit-identical"
                                  : "FAIL: kernels disagree");
  return diff == 0.0 ? 0 : 1;
}
