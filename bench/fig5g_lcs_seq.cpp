// Figure 5g: LCS sequential, size sweep 2^7..2^17 (square DP matrices);
// Gstencils/s counts DP cells per second.
#include <random>
#include <vector>

#include "bench_util/bench.hpp"
#include "solver/builder.hpp"
#include "solver/solver.hpp"
#include "stencil/lcs_ref.hpp"

int main() {
  using namespace tvs;
  namespace b = tvs::bench;
  b::print_title("Fig 5g  LCS sequential (Gcells/s)");
  b::print_header({"size=2^x", "our", "scalar"});
  const int hi = b::full_mode() ? 17 : 14;
  std::mt19937_64 rng(5);
  for (int e = 7; e <= hi; ++e) {
    const int n = 1 << e;
    std::uniform_int_distribution<std::int32_t> d(0, 3);
    std::vector<std::int32_t> a(static_cast<std::size_t>(n)),
        bseq(static_cast<std::size_t>(n));
    for (auto& v : a) v = d(rng);
    for (auto& v : bseq) v = d(rng);
    const double pts = static_cast<double>(n) * static_cast<double>(n);
    volatile std::int32_t sink = 0;
    const solver::Solver solve(
        solver::ProblemBuilder(solver::Family::kLcs).extents(n, n).build());
    const solver::Workload w(a, bseq);
    const double r_our =
        b::measure_gstencils(pts, [&] { sink = solve.run(w).lcs_length; });
    const double r_sc =
        b::measure_gstencils(pts, [&] { sink = stencil::lcs_ref(a, bseq); });
    (void)sink;
    b::print_row({"2^" + std::to_string(e), b::fmt(r_our), b::fmt(r_sc)});
  }
  return 0;
}
