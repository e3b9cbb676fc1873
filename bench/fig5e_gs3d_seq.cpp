// Figure 5e: GS-3D sequential, size sweep.
#include "bench_util/bench.hpp"
#include "solver/builder.hpp"
#include "solver/solver.hpp"
#include "stencil/reference3d.hpp"

int main() {
  using namespace tvs;
  namespace b = tvs::bench;
  const stencil::C3D7 c = stencil::heat3d(0.1);
  b::print_title("Fig 5e  GS-3D sequential (Gstencils/s)");
  b::print_header({"size", "our", "scalar"});
  const int hi = b::full_mode() ? 512 : 192;
  for (int n = 16; n <= hi; n *= 2) {
    const long sweeps = std::max<long>(
        4, (b::full_mode() ? 1L << 26 : 1L << 23) /
               (static_cast<long>(n) * n * n));
    const double pts =
        static_cast<double>(n) * n * n * static_cast<double>(sweeps);
    grid::Grid3D<double> u(n, n, n);
    for (int x = 0; x <= n + 1; ++x)
      for (int y = 0; y <= n + 1; ++y)
        for (int z = 0; z <= n + 1; ++z)
          u.at(x, y, z) = 0.001 * ((x * 5 + y * 3 + z) % 97);
    const solver::Solver solve(
        solver::ProblemBuilder(solver::Family::kGs3D7)
            .extents(n, n, n)
            .steps(sweeps)
            .build());
    const double r_our = b::measure_gstencils(
        pts, [&] { solve.run(solver::Workload(c, u)); });
    const double r_sc =
        b::measure_gstencils(pts, [&] { stencil::gs3d7_run(c, u, sweeps); });
    b::print_row({std::to_string(n), b::fmt(r_our), b::fmt(r_sc)});
  }
  return 0;
}
