// Ablation for §3.3 "Improving data parallelism": the space stride s sets
// the ILP distance between dependent output vectors.  Sweep s for the 1D3P
// Jacobi kernel at an in-L1 size and an out-of-cache size; the paper's
// default (s = 7, eight live input vectors) should win at both.
#include <string>

#include "bench_util/bench.hpp"
#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"

int main() {
  using namespace tvs;
  namespace b = tvs::bench;
  const stencil::C1D3 c = stencil::heat1d(0.25);
  auto* const run =
      dispatch::KernelRegistry::instance().get<dispatch::TvJacobi1D3Fn>(
          dispatch::kTvJacobi1D3);
  b::print_title("Ablation  1D3P stride sweep (Gstencils/s)");
  b::print_header({"stride", "nx=2^10", "nx=2^16", "nx=2^21"});
  for (const int s : {2, 3, 5, 7, 9, 11}) {
    std::vector<std::string> row{std::to_string(s)};
    for (const int e : {10, 16, 21}) {
      const int nx = 1 << e;
      const long steps = std::max<long>(8, (1L << 23) / nx);
      const double pts = static_cast<double>(nx) * steps;
      grid::Grid1D<double> u(nx);
      for (int x = 0; x <= nx + 1; ++x) u.at(x) = 0.001 * (x % 89);
      row.push_back(b::fmt(b::measure_gstencils(
          pts, [&] { run(c, u, steps, s); })));
    }
    b::print_row(row);
  }
  return 0;
}
