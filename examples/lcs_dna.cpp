// Longest common subsequence of two random DNA fragments, computed three
// ways: scalar DP, the Solver's serial temporal-vector plan (8+ rows per
// sweep), and the Solver's block-wavefront parallel plan.  All three must
// agree.
//
//   $ ./lcs_dna [length]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "solver/builder.hpp"
#include "solver/solver.hpp"
#include "stencil/lcs_ref.hpp"

int main(int argc, char** argv) {
  using namespace tvs;
  const int n = argc > 1 ? std::atoi(argv[1]) : 12000;
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<std::int32_t> d(0, 3);  // A C G T
  std::vector<std::int32_t> a(static_cast<std::size_t>(n)),
      b(static_cast<std::size_t>(n));
  for (auto& v : a) v = d(rng);
  for (auto& v : b) v = d(rng);

  const auto time = [](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::int32_t r = fn();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return std::pair<std::int32_t, double>(r, dt.count());
  };

  const solver::StencilProblem p =
      solver::ProblemBuilder(solver::Family::kLcs).extents(n, n).build();
  const solver::Solver serial(p);  // planned: serial temporal vectorization

  // The wavefront-parallel plan, pinned to 2048x2048 blocks.
  solver::ExecutionPlan wf_plan = solver::plan_for(p);
  wf_plan.path = solver::Path::kTiledParallel;
  wf_plan.tile_w = 2048;
  wf_plan.tile_h = 2048;
  const solver::Solver wavefront(p, wf_plan);

  const solver::Workload w(a, b);
  const auto [r_ref, t_ref] = time([&] { return stencil::lcs_ref(a, b); });
  const auto [r_tv, t_tv] = time([&] { return serial.run(w).lcs_length; });
  const auto [r_wf, t_wf] = time([&] { return wavefront.run(w).lcs_length; });

  std::printf("LCS of two %d-base DNA fragments: %d (%.1f%% of length)\n", n,
              r_ref, 100.0 * r_ref / n);
  std::printf("  scalar DP        : %7.3f s\n", t_ref);
  std::printf("  temporal vector  : %7.3f s  (%.2fx)\n", t_tv, t_ref / t_tv);
  std::printf("  + block wavefront: %7.3f s  (%.2fx)\n", t_wf, t_ref / t_wf);
  if (r_tv != r_ref || r_wf != r_ref) {
    std::printf("MISMATCH!\n");
    return 1;
  }
  std::printf("all three agree\n");
  return 0;
}
