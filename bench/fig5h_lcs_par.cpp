// Figure 5h: LCS parallel scaling; rectangle tiling + wavefront,
// Table 1: 4096 x 4096 blocks on a 200000^2 DP matrix (scaled by default).
#include <random>
#include <vector>

#include "bench_util/bench.hpp"
#include "common.hpp"
#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"
#include "solver/builder.hpp"
#include "solver/solver.hpp"

int main() {
  using namespace tvs;
  namespace b = tvs::bench;
  const int n = b::full_mode() ? 200000 : 40000;
  std::mt19937_64 rng(9);
  std::uniform_int_distribution<std::int32_t> d(0, 3);
  std::vector<std::int32_t> a(static_cast<std::size_t>(n)),
      bseq(static_cast<std::size_t>(n));
  for (auto& v : a) v = d(rng);
  for (auto& v : bseq) v = d(rng);
  const double pts = static_cast<double>(n) * static_cast<double>(n);

  // "our" through the Solver facade, pinned to Table 1's 4096 x 4096.
  const solver::StencilProblem prob =
      solver::ProblemBuilder(solver::Family::kLcs).extents(n, n).build();
  solver::ExecutionPlan plan = solver::heuristic_plan(prob);
  plan.path = solver::Path::kTiledParallel;
  plan.tile_w = 4096;
  plan.tile_h = 4096;
  const solver::Solver solve(prob, plan);
  const solver::Workload w(a, bseq);

  auto* const tiled =
      dispatch::KernelRegistry::instance().get<dispatch::LcsWavefrontFn>(
          dispatch::kLcsWavefront);
  // identical tiling, scalar DP rows
  const tiling::TileOptions sc{plan.tile_w, plan.tile_h, plan.stride, false};

  volatile std::int32_t sink = 0;
  benchx::par_figure(
      "Fig 5h  LCS parallel, rectangle 4096x4096 wavefront (Gcells/s)",
      {{"our",
        [&](int) {
          return b::measure_gstencils(
              pts, [&] { sink = solve.run(w).lcs_length; });
        }},
       {"scalar", [&](int) {
          return b::measure_gstencils(
              pts, [&] { sink = tiled(a, bseq, sc); });
        }}});
  (void)sink;
  return 0;
}
