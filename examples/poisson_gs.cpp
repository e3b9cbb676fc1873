// Gauss-Seidel relaxation of a steady-state heat problem (Laplace equation
// with fixed boundary temperatures) through the Solver facade — the
// paper's headline "first vectorized Gauss-Seidel".  Compares
// time-to-tolerance with the scalar sweeps.
//
//   $ ./poisson_gs [N]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "solver/builder.hpp"
#include "solver/solver.hpp"
#include "stencil/reference2d.hpp"

int main(int argc, char** argv) {
  using namespace tvs;
  const int n = argc > 1 ? std::atoi(argv[1]) : 255;
  // Jacobi-weighted Gauss-Seidel update for the Laplace equation.
  const stencil::C2D5 c{0.0, 0.25, 0.25, 0.25, 0.25};

  const auto setup = [&](grid::Grid2D<double>& u) {
    u.fill(0.0);
    for (int y = 0; y <= n + 1; ++y) u.at(0, y) = 1.0;  // hot top edge
  };
  const auto residual = [&](grid::Grid2D<double>& u) {
    double r = 0;
    for (int x = 1; x <= n; ++x)
      for (int y = 1; y <= n; ++y)
        r = std::max(r, std::abs(0.25 * (u.at(x - 1, y) + u.at(x + 1, y) +
                                         u.at(x, y - 1) + u.at(x, y + 1)) -
                                 u.at(x, y)));
    return r;
  };

  grid::Grid2D<double> u(n, n);
  constexpr long kChunk = 64;
  constexpr double kTol = 1e-7;

  const auto solve = [&](auto&& sweeps_fn, const char* name) {
    setup(u);
    const auto t0 = std::chrono::steady_clock::now();
    long sweeps = 0;
    while (sweeps < 200000) {
      sweeps_fn();
      sweeps += kChunk;
      if (residual(u) < kTol) break;
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    std::printf("  %-16s: %6ld sweeps, residual %.2e, %7.3f s\n", name, sweeps,
                residual(u), dt.count());
    return dt.count();
  };

  // One Solver per residual-check chunk of kChunk sweeps.
  const solver::Solver gs(solver::ProblemBuilder(solver::Family::kGs2D5)
                              .extents(n, n)
                              .steps(kChunk)
                              .build());

  std::printf("Laplace equation on a %dx%d plate (tolerance %.0e):\n", n, n,
              kTol);
  const double t_sc =
      solve([&] { stencil::gs2d5_run(c, u, kChunk); }, "scalar GS");
  const double t_tv =
      solve([&] { gs.run(solver::Workload(c, u)); }, "temporal-vector GS");
  std::printf("speedup: %.2fx\n", t_sc / t_tv);
  return 0;
}
