// Figure 4g: 2D9P box-stencil sequential, size sweep.
#include "baseline/autovec.hpp"
#include "baseline/spatial.hpp"
#include "bench_util/bench.hpp"
#include "solver/builder.hpp"
#include "solver/solver.hpp"
#include "stencil/reference2d.hpp"

int main() {
  using namespace tvs;
  namespace b = tvs::bench;
  const stencil::C2D9 c = stencil::box2d9(0.1);
  b::print_title("Fig 4g  2D9P sequential (Gstencils/s)");
  b::print_header({"size", "our", "auto", "scalar", "multiload"});
  const int hi = b::full_mode() ? 8192 : 2048;
  for (int n = 128; n <= hi; n *= 2) {
    const long steps = std::max<long>(8, (b::full_mode() ? 1L << 27 : 1L << 24) /
                                             (static_cast<long>(n) * n));
    const double pts = static_cast<double>(n) * n * static_cast<double>(steps);
    grid::Grid2D<double> u(n, n);
    for (int x = 0; x <= n + 1; ++x)
      for (int y = 0; y <= n + 1; ++y) u.at(x, y) = 0.001 * ((x * 13 + y) % 83);
    const solver::Solver solve(
        solver::ProblemBuilder(solver::Family::kJacobi2D9)
            .extents(n, n)
            .steps(steps)
            .build());
    const double r_our = b::measure_gstencils(
        pts, [&] { solve.run(solver::Workload(c, u)); });
    const double r_auto = b::measure_gstencils(
        pts, [&] { baseline::autovec_jacobi2d9_run(c, u, steps); });
    const double r_sc = b::measure_gstencils(
        pts, [&] { stencil::jacobi2d9_run(c, u, steps); });
    const double r_ml = b::measure_gstencils(
        pts, [&] { baseline::multiload_jacobi2d9_run(c, u, steps); });
    b::print_row({std::to_string(n), b::fmt(r_our), b::fmt(r_auto),
                  b::fmt(r_sc), b::fmt(r_ml)});
  }
  return 0;
}
