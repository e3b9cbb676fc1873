// Figure 5b: GS-1D parallel scaling; parallelogram wavefront, Table 1:
// 2048 x 64 blocking.  `our` and `scalar` share the identical tiling.
#include "bench_util/bench.hpp"
#include "common.hpp"
#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"
#include "solver/builder.hpp"
#include "solver/solver.hpp"

int main() {
  using namespace tvs;
  namespace b = tvs::bench;
  const int nx = b::full_mode() ? 16000000 : (1 << 21);
  const long sweeps = b::full_mode() ? 768 : 512;
  const stencil::C1D3 c = stencil::heat1d(0.25);
  const double pts = static_cast<double>(nx) * static_cast<double>(sweeps);

  grid::Grid1D<double> u(nx);
  for (int x = 0; x <= nx + 1; ++x) u.at(x) = 1.0 + 0.001 * (x % 97);

  // "our" through the Solver facade, pinned to Table 1's blocking.
  const solver::StencilProblem prob =
      solver::ProblemBuilder(solver::Family::kGs1D3)
          .extents(nx)
          .steps(sweeps)
          .build();
  solver::ExecutionPlan plan = solver::heuristic_plan(prob);
  plan.path = solver::Path::kTiledParallel;
  plan.tile_w = 2048;
  plan.tile_h = b::full_mode() ? 64 : 16;
  const solver::Solver solve(prob, plan);

  auto* const tiled =
      dispatch::KernelRegistry::instance().get<dispatch::ParallelogramGs1D3Fn>(
          dispatch::kParallelogramGs1D3);
  // identical tiling, scalar tiles
  const tiling::TileOptions sc{plan.tile_w, plan.tile_h, plan.stride, false};

  benchx::par_figure(
      "Fig 5b  GS-1D parallel, parallelogram 2048x64 (Gstencils/s)",
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
