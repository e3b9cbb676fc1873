// Figure 5a: Gauss-Seidel 1D sequential, size sweep 2^7..2^23; curves
// our / scalar (no spatial vectorization of Gauss-Seidel exists).
#include "bench_util/bench.hpp"
#include "solver/builder.hpp"
#include "solver/solver.hpp"
#include "stencil/reference1d.hpp"

int main() {
  using namespace tvs;
  namespace b = tvs::bench;
  const stencil::C1D3 c = stencil::heat1d(0.25);
  b::print_title("Fig 5a  GS-1D sequential (Gstencils/s)");
  b::print_header({"size=2^x", "our", "scalar"});
  const int hi = b::full_mode() ? 23 : 20;
  for (int e = 7; e <= hi; ++e) {
    const int nx = 1 << e;
    const long sweeps =
        std::max<long>(8, (b::full_mode() ? 1L << 26 : 1L << 23) / nx);
    const double pts = static_cast<double>(nx) * static_cast<double>(sweeps);
    grid::Grid1D<double> u(nx);
    for (int x = 0; x <= nx + 1; ++x) u.at(x) = 1.0 + 0.001 * (x % 97);
    const solver::Solver solve(
        solver::ProblemBuilder(solver::Family::kGs1D3)
            .extents(nx)
            .steps(sweeps)
            .build());
    const double r_our = b::measure_gstencils(
        pts, [&] { solve.run(solver::Workload(c, u)); });
    const double r_sc =
        b::measure_gstencils(pts, [&] { stencil::gs1d3_run(c, u, sweeps); });
    b::print_row({"2^" + std::to_string(e), b::fmt(r_our), b::fmt(r_sc)});
  }
  return 0;
}
