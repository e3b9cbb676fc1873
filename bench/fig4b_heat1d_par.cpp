// Figure 4b: Heat-1D parallel scaling (1..N cores).
//
// Paper setup: 16000000 x 6000 problem, 16384 x 128 diamond blocking,
// curves our / auto / scalar.  `our` and `scalar` share the identical
// diamond tiling (use_vector toggles the tile kernel); `auto` is the
// conventional per-step OpenMP parallelization of the compiler-vectorized
// loop.
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

  const int nx = b::full_mode() ? 16000000 : (1 << 21);
  const long steps = b::full_mode() ? 768 : 256;
  const stencil::C1D3 c = stencil::heat1d(0.25);
  const double pts = static_cast<double>(nx) * static_cast<double>(steps);

  // "our" and "tiled-auto" both solve in place on the same plain grid, so
  // both pay the same parity-partner allocation per run.
  grid::Grid1D<double> u(nx);
  for (int x = 0; x <= nx + 1; ++x) u.at(x) = 1.0 + 0.001 * (x % 97);

  // "our" goes through the Solver facade, pinned to the paper blocking.
  const solver::StencilProblem prob =
      solver::ProblemBuilder(solver::Family::kJacobi1D3)
          .extents(nx)
          .steps(steps)
          .build();
  solver::ExecutionPlan plan = solver::heuristic_plan(prob);
  plan.path = solver::Path::kTiledParallel;
  plan.tile_w = 16384;
  plan.tile_h = 128;
  const solver::Solver solve(prob, plan);

  // "tiled-auto": the registry's driver on the identical tiling with
  // scalar tiles, run in place like a Grid-form solve.
  auto* const tiled =
      dispatch::KernelRegistry::instance().get<dispatch::DiamondJacobi1D3Fn>(
          dispatch::kDiamondJacobi1D3);
  const tiling::TileOptions sc{plan.tile_w, plan.tile_h, plan.stride, false};

  grid::Grid1D<double> ua(nx);
  for (int x = 0; x <= nx + 1; ++x) ua.at(x) = u.at(x);

  benchx::par_figure(
      "Fig 4b  Heat-1D parallel, diamond 16384x128 (Gstencils/s)",
      {{"our",
        [&](int) {
          return b::measure_gstencils(
              pts, [&] { solve.run(solver::Workload(c, u)); });
        }},
       {"auto",
        [&](int) {
          return b::measure_gstencils(pts, [&] {
            baseline::par_autovec_jacobi1d3_run(c, ua, steps);
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
