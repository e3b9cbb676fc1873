// Figure 5d: GS-2D parallel scaling; parallelogram wavefront on x,
// Table 1: 128^2 x 32.
#include "bench_util/bench.hpp"
#include "common.hpp"
#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"
#include "solver/builder.hpp"
#include "solver/solver.hpp"

int main() {
  using namespace tvs;
  namespace b = tvs::bench;
  const int n = b::full_mode() ? 8000 : 1536;
  const long sweeps = b::full_mode() ? 512 : 256;
  const stencil::C2D5 c = stencil::heat2d(0.2);
  const double pts = static_cast<double>(n) * n * static_cast<double>(sweeps);

  grid::Grid2D<double> u(n, n);
  for (int x = 0; x <= n + 1; ++x)
    for (int y = 0; y <= n + 1; ++y) u.at(x, y) = 0.001 * ((x * 29 + y) % 97);

  // "our" through the Solver facade, pinned to Table 1's blocking.
  const solver::StencilProblem prob =
      solver::ProblemBuilder(solver::Family::kGs2D5)
          .extents(n, n)
          .steps(sweeps)
          .build();
  solver::ExecutionPlan plan = solver::heuristic_plan(prob);
  plan.path = solver::Path::kTiledParallel;
  plan.tile_w = 128;
  plan.tile_h = b::full_mode() ? 32 : 8;
  const solver::Solver solve(prob, plan);

  auto* const tiled =
      dispatch::KernelRegistry::instance().get<dispatch::ParallelogramGs2D5Fn>(
          dispatch::kParallelogramGs2D5);
  // identical tiling, scalar tiles
  const tiling::TileOptions sc{plan.tile_w, plan.tile_h, plan.stride, false};

  benchx::par_figure(
      "Fig 5d  GS-2D parallel, parallelogram 128x32 on x (Gstencils/s)",
      {{"our",
        [&](int) {
          return b::measure_gstencils(
              pts, [&] { solve.run(solver::Workload(c, u)); });
        }},
       {"scalar", [&](int) {
          return b::measure_gstencils(pts, [&] {
            tiled(c, u, sweeps, sc);
          });
        }}});
  return 0;
}
