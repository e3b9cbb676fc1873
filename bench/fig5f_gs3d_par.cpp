// Figure 5f: GS-3D parallel scaling; parallelogram wavefront on x,
// Table 1: 32^3 x 32.
#include "bench_util/bench.hpp"
#include "common.hpp"
#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"
#include "solver/builder.hpp"
#include "solver/solver.hpp"

int main() {
  using namespace tvs;
  namespace b = tvs::bench;
  const int n = b::full_mode() ? 800 : 256;
  const long sweeps = b::full_mode() ? 256 : 128;
  const stencil::C3D7 c = stencil::heat3d(0.1);
  const double pts =
      static_cast<double>(n) * n * n * static_cast<double>(sweeps);

  grid::Grid3D<double> u(n, n, n);
  for (int x = 0; x <= n + 1; ++x)
    for (int y = 0; y <= n + 1; ++y)
      for (int z = 0; z <= n + 1; ++z)
        u.at(x, y, z) = 0.001 * ((x * 5 + y * 3 + z) % 97);

  // "our" through the Solver facade, pinned to Table 1's blocking.
  const solver::StencilProblem prob =
      solver::ProblemBuilder(solver::Family::kGs3D7)
          .extents(n, n, n)
          .steps(sweeps)
          .build();
  solver::ExecutionPlan plan = solver::heuristic_plan(prob);
  plan.path = solver::Path::kTiledParallel;
  plan.tile_w = 32;
  plan.tile_h = b::full_mode() ? 32 : 4;
  const solver::Solver solve(prob, plan);

  auto* const tiled =
      dispatch::KernelRegistry::instance().get<dispatch::ParallelogramGs3D7Fn>(
          dispatch::kParallelogramGs3D7);
  // identical tiling, scalar tiles
  const tiling::TileOptions sc{plan.tile_w, plan.tile_h, plan.stride, false};

  benchx::par_figure(
      "Fig 5f  GS-3D parallel, parallelogram 32x32 on x (Gstencils/s)",
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
