// Figure 4e: Heat-3D (3D7P) sequential, size sweep 16..1024 (paper) /
// 16..192 (quick).
#include "baseline/autovec.hpp"
#include "baseline/spatial.hpp"
#include "bench_util/bench.hpp"
#include "solver/builder.hpp"
#include "solver/solver.hpp"
#include "stencil/reference3d.hpp"

int main() {
  using namespace tvs;
  namespace b = tvs::bench;
  const stencil::C3D7 c = stencil::heat3d(0.1);
  b::print_title("Fig 4e  Heat-3D sequential (Gstencils/s)");
  b::print_header({"size", "our", "auto", "scalar", "multiload"});
  const int hi = b::full_mode() ? 512 : 192;
  for (int n = 16; n <= hi; n *= 2) {
    const int nn = n == 192 ? 192 : n;  // keep the sweep pow2 + one odd size
    const long steps = std::max<long>(
        8, (b::full_mode() ? 1L << 27 : 1L << 24) /
               (static_cast<long>(nn) * nn * nn));
    const double pts =
        static_cast<double>(nn) * nn * nn * static_cast<double>(steps);
    grid::Grid3D<double> u(nn, nn, nn);
    for (int x = 0; x <= nn + 1; ++x)
      for (int y = 0; y <= nn + 1; ++y)
        for (int z = 0; z <= nn + 1; ++z)
          u.at(x, y, z) = 0.001 * ((x * 7 + y * 3 + z) % 89);
    const solver::Solver solve(
        solver::ProblemBuilder(solver::Family::kJacobi3D7)
            .extents(nn, nn, nn)
            .steps(steps)
            .build());
    const double r_our = b::measure_gstencils(
        pts, [&] { solve.run(solver::Workload(c, u)); });
    const double r_auto = b::measure_gstencils(
        pts, [&] { baseline::autovec_jacobi3d7_run(c, u, steps); });
    const double r_sc = b::measure_gstencils(
        pts, [&] { stencil::jacobi3d7_run(c, u, steps); });
    const double r_ml = b::measure_gstencils(
        pts, [&] { baseline::multiload_jacobi3d7_run(c, u, steps); });
    b::print_row({std::to_string(nn), b::fmt(r_our), b::fmt(r_auto),
                  b::fmt(r_sc), b::fmt(r_ml)});
  }
  return 0;
}
