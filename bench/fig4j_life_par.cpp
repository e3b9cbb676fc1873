// Figure 4j: Life parallel scaling; diamond-on-x, Table 1: 256^2 x 32.
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
  const stencil::LifeRule rule{};
  const double pts = static_cast<double>(n) * n * static_cast<double>(steps);

  // "our" and "tiled-auto" both solve in place on the same plain grid, so
  // both pay the same parity-partner allocation per run.
  grid::Grid2D<std::int32_t> u(n, n);
  for (int x = 0; x <= n + 1; ++x)
    for (int y = 0; y <= n + 1; ++y) u.at(x, y) = (x * 31 + y * 17) % 3 == 0;
  grid::Grid2D<std::int32_t> ua(n, n);
  for (int x = 0; x <= n + 1; ++x)
    for (int y = 0; y <= n + 1; ++y) ua.at(x, y) = u.at(x, y);

  // "our" through the Solver facade, pinned to Table 1's 256^2 x 32.
  const solver::StencilProblem prob =
      solver::ProblemBuilder(solver::Family::kLife)
          .extents(n, n)
          .steps(steps)
          .build();
  solver::ExecutionPlan plan = solver::heuristic_plan(prob);
  plan.path = solver::Path::kTiledParallel;
  plan.tile_w = 256;
  plan.tile_h = 32;
  const solver::Solver solve(prob, plan);

  // "tiled-auto": the registry's driver on the identical tiling with
  // scalar tiles, run in place like a Grid-form solve.
  auto* const tiled =
      dispatch::KernelRegistry::instance().get<dispatch::DiamondLifeFn>(
          dispatch::kDiamondLife);
  const tiling::TileOptions sc{plan.tile_w, plan.tile_h, plan.stride, false};

  benchx::par_figure(
      "Fig 4j  Life parallel, diamond 256x32 on x (Gstencils/s)",
      {{"our",
        [&](int) {
          return b::measure_gstencils(
              pts, [&] { solve.run(solver::Workload(rule, u)); });
        }},
       {"auto",
        [&](int) {
          return b::measure_gstencils(
              pts, [&] { baseline::par_autovec_life_run(rule, ua, steps); });
        }},
       {"tiled-auto", [&](int) {
          return b::measure_gstencils(
              pts, [&] {
                tiling::with_pingpong(u, steps, [&](auto& pp) {
                  tiled(rule, pp, steps, sc);
                });
              });
        }}});
  return 0;
}
