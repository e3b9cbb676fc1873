// Figure 4a: Heat-1D sequential performance vs problem size.
//
// Paper setup: sizes 2^7..2^23, curves our / auto / scalar, Gstencils/s.
// Here `auto` is both the compiler-vectorized plain loop and (printed as
// extra columns) the explicit multi-load / reorg / DLT baselines of §2.2,
// so the anatomy of the data-alignment conflict is visible directly.
#include <string>
#include <vector>

#include "baseline/autovec.hpp"
#include "baseline/spatial.hpp"
#include "bench_util/bench.hpp"
#include "solver/builder.hpp"
#include "solver/solver.hpp"
#include "stencil/reference1d.hpp"

int main() {
  using namespace tvs;
  namespace b = tvs::bench;

  const stencil::C1D3 c = stencil::heat1d(0.25);
  const int lo = 7;
  const int hi = b::full_mode() ? 23 : 20;

  b::print_title("Fig 4a  Heat-1D sequential (Gstencils/s)");
  b::print_header({"size=2^x", "our", "auto", "scalar", "multiload", "reorg",
                   "dlt"});

  for (int e = lo; e <= hi; ++e) {
    const int nx = 1 << e;
    // Keep total points per measurement roughly constant.
    const long steps =
        std::max<long>(8, (b::full_mode() ? 1L << 26 : 1L << 23) / nx);
    const double pts = static_cast<double>(nx) * static_cast<double>(steps);

    grid::Grid1D<double> u(nx);
    for (int x = 0; x <= nx + 1; ++x)
      u.at(x) = 1.0 + 0.001 * (x % 97);

    const solver::Solver solve(
        solver::ProblemBuilder(solver::Family::kJacobi1D3)
            .extents(nx)
            .steps(steps)
            .build());
    const double r_our = b::measure_gstencils(
        pts, [&] { solve.run(solver::Workload(c, u)); });
    const double r_auto = b::measure_gstencils(
        pts, [&] { baseline::autovec_jacobi1d3_run(c, u, steps); });
    const double r_scalar = b::measure_gstencils(
        pts, [&] { stencil::jacobi1d3_run(c, u, steps); });
    const double r_ml = b::measure_gstencils(
        pts, [&] { baseline::multiload_jacobi1d3_run(c, u, steps); });
    const double r_ro = b::measure_gstencils(
        pts, [&] { baseline::reorg_jacobi1d3_run(c, u, steps); });
    const double r_dlt = b::measure_gstencils(
        pts, [&] { baseline::dlt_jacobi1d3_run(c, u, steps); });

    b::print_row({"2^" + std::to_string(e), b::fmt(r_our), b::fmt(r_auto),
                  b::fmt(r_scalar), b::fmt(r_ml), b::fmt(r_ro),
                  b::fmt(r_dlt)});
  }
  return 0;
}
