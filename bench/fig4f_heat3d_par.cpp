// Figure 4f: Heat-3D parallel scaling; diamond-on-x, Table 1: 32^3 x 8.
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
  const int n = b::full_mode() ? 800 : 256;
  const long steps = b::full_mode() ? 200 : 64;
  const stencil::C3D7 c = stencil::heat3d(0.1);
  const double pts =
      static_cast<double>(n) * n * n * static_cast<double>(steps);

  // "our" and "tiled-auto" both solve in place on the same plain grid, so
  // both pay the same parity-partner allocation per run.
  grid::Grid3D<double> u(n, n, n);
  for (int x = 0; x <= n + 1; ++x)
    for (int y = 0; y <= n + 1; ++y)
      for (int z = 0; z <= n + 1; ++z)
        u.at(x, y, z) = 0.001 * ((x * 7 + y * 3 + z) % 89);
  grid::Grid3D<double> ua(n, n, n);
  for (int x = 0; x <= n + 1; ++x)
    for (int y = 0; y <= n + 1; ++y)
      for (int z = 0; z <= n + 1; ++z) ua.at(x, y, z) = u.at(x, y, z);

  // "our" through the Solver facade, pinned to Table 1's 32^3 x 8.
  const solver::StencilProblem prob =
      solver::ProblemBuilder(solver::Family::kJacobi3D7)
          .extents(n, n, n)
          .steps(steps)
          .build();
  solver::ExecutionPlan plan = solver::heuristic_plan(prob);
  plan.path = solver::Path::kTiledParallel;
  plan.tile_w = 32;
  plan.tile_h = 8;
  const solver::Solver solve(prob, plan);

  // "tiled-auto": the registry's driver on the identical tiling with
  // scalar tiles, run in place like a Grid-form solve.
  auto* const tiled =
      dispatch::KernelRegistry::instance().get<dispatch::DiamondJacobi3D7Fn>(
          dispatch::kDiamondJacobi3D7);
  const tiling::TileOptions sc{plan.tile_w, plan.tile_h, plan.stride, false};

  benchx::par_figure(
      "Fig 4f  Heat-3D parallel, diamond 32x8 on x (Gstencils/s)",
      {{"our",
        [&](int) {
          return b::measure_gstencils(
              pts, [&] { solve.run(solver::Workload(c, u)); });
        }},
       {"auto",
        [&](int) {
          return b::measure_gstencils(pts, [&] {
            baseline::par_autovec_jacobi3d7_run(c, ua, steps);
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
