// Figure 4d: Heat-2D parallel scaling; diamond-on-x blocking 256^2 x 64
// (Table 1; our height rounded to the lane count).
#include "baseline/autovec.hpp"
#include "bench_util/bench.hpp"
#include "common.hpp"
#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"
#include "solver/builder.hpp"
#include "solver/solver.hpp"
#include "tiling/pingpong_convert.hpp"

int main() {
  using namespace tvs;
  namespace b = tvs::bench;
  const int n = b::full_mode() ? 8000 : 2048;
  const long steps = b::full_mode() ? 512 : 128;
  const stencil::C2D5 c = stencil::heat2d(0.2);
  const double pts = static_cast<double>(n) * n * static_cast<double>(steps);

  // "our" and "tiled-auto" both solve in place on the same plain grid, so
  // both pay the same parity-partner allocation per run.
  grid::Grid2D<double> u(n, n);
  for (int x = 0; x <= n + 1; ++x)
    for (int y = 0; y <= n + 1; ++y) u.at(x, y) = 0.001 * ((x * 31 + y) % 89);
  grid::Grid2D<double> ua(n, n);
  for (int x = 0; x <= n + 1; ++x)
    for (int y = 0; y <= n + 1; ++y) ua.at(x, y) = u.at(x, y);

  // "our" through the Solver facade, pinned to Table 1's 256^2 x 64.
  const solver::StencilProblem prob =
      solver::ProblemBuilder(solver::Family::kJacobi2D5)
          .extents(n, n)
          .steps(steps)
          .build();
  solver::ExecutionPlan plan = solver::heuristic_plan(prob);
  plan.path = solver::Path::kTiledParallel;
  plan.tile_w = 256;
  plan.tile_h = 64;
  const solver::Solver solve(prob, plan);

  // "tiled-auto": the registry's driver on the identical tiling with
  // scalar tiles, run in place like a Grid-form solve.
  auto* const tiled =
      dispatch::KernelRegistry::instance().get<dispatch::DiamondJacobi2D5Fn>(
          dispatch::kDiamondJacobi2D5);
  const tiling::TileOptions sc{plan.tile_w, plan.tile_h, plan.stride, false};

  benchx::par_figure(
      "Fig 4d  Heat-2D parallel, diamond 256x64 on x (Gstencils/s)",
      {{"our",
        [&](int) {
          return b::measure_gstencils(
              pts, [&] { solve.run(solver::Workload(c, u)); });
        }},
       {"auto",
        [&](int) {
          return b::measure_gstencils(pts, [&] {
            baseline::par_autovec_jacobi2d5_run(c, ua, steps);
          });
        }},
       {"tiled-auto", [&](int) {
          return b::measure_gstencils(
              pts, [&] {
                tiling::with_pingpong(u, steps, [&](auto& pp) {
                  tiled(c, pp, steps, sc);
                });
              });
        }}});
  return 0;
}
