// Figure 5c: GS-2D sequential, size sweep.
#include "bench_util/bench.hpp"
#include "solver/builder.hpp"
#include "solver/solver.hpp"
#include "stencil/reference2d.hpp"

int main() {
  using namespace tvs;
  namespace b = tvs::bench;
  const stencil::C2D5 c = stencil::heat2d(0.2);
  b::print_title("Fig 5c  GS-2D sequential (Gstencils/s)");
  b::print_header({"size", "our", "scalar"});
  const int hi = b::full_mode() ? 8192 : 2048;
  for (int n = 128; n <= hi; n *= 2) {
    const long sweeps = std::max<long>(8, (b::full_mode() ? 1L << 26 : 1L << 23) /
                                              (static_cast<long>(n) * n));
    const double pts = static_cast<double>(n) * n * static_cast<double>(sweeps);
    grid::Grid2D<double> u(n, n);
    for (int x = 0; x <= n + 1; ++x)
      for (int y = 0; y <= n + 1; ++y) u.at(x, y) = 0.001 * ((x * 29 + y) % 97);
    const solver::Solver solve(
        solver::ProblemBuilder(solver::Family::kGs2D5)
            .extents(n, n)
            .steps(sweeps)
            .build());
    const double r_our = b::measure_gstencils(
        pts, [&] { solve.run(solver::Workload(c, u)); });
    const double r_sc =
        b::measure_gstencils(pts, [&] { stencil::gs2d5_run(c, u, sweeps); });
    b::print_row({std::to_string(n), b::fmt(r_our), b::fmt(r_sc)});
  }
  return 0;
}
