// Table 1: problem and blocking sizes for every benchmark, plus — with
// TVS_BENCH_FULL=1 — a mini power-of-two block-size search for the 1D
// kernels ("we simply tested all blocking sizes that are the power of two
// ... and show the one producing the best performance").
#include <cstdio>
#include <string>

#include "bench_util/bench.hpp"
#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"
#include "tiling/pingpong_convert.hpp"

int main() {
  using namespace tvs;
  namespace b = tvs::bench;
  b::print_title("Table 1  Problem and blocking sizes");
  b::print_header({"benchmark", "problem", "blocking"});
  b::print_row({"Heat-1D", "16000000x6000", "16384x128"});
  b::print_row({"Heat-2D", "8000^2x2000", "256^2x64"});
  b::print_row({"2D9P", "8000^2x2000", "256^2x64"});
  b::print_row({"Heat-3D", "800^3x200", "32^3x8"});
  b::print_row({"Life", "8000^2x2000", "256^2x32"});
  b::print_row({"GS-1D", "16000000x6000", "2048x64"});
  b::print_row({"GS-2D", "8000^2x2000", "128^2x32"});
  b::print_row({"GS-3D", "800^3x200", "32^3x32"});
  b::print_row({"LCS", "200000x200000", "4096x4096"});

  if (!b::full_mode()) {
    // To stderr: free-form notes inside the stdout stream would be parsed
    // as (malformed) table rows by bench/parse_tables.py.
    std::fprintf(stderr,
                 "(set TVS_BENCH_FULL=1 for the Heat-1D block-size search)\n");
    return 0;
  }

  const stencil::C1D3 c = stencil::heat1d(0.25);
  const int nx = 1 << 22;
  const long steps = 256;
  const double pts = static_cast<double>(nx) * steps;
  grid::Grid1D<double> u(nx);
  for (int x = 0; x <= nx + 1; ++x) u.at(x) = 0.001 * (x % 101);

  auto* const run =
      dispatch::KernelRegistry::instance().get<dispatch::DiamondJacobi1D3Fn>(
          dispatch::kDiamondJacobi1D3);
  b::print_title("Heat-1D diamond block search (24 threads, Gstencils/s)");
  b::print_header({"WxH", "rate"});
  for (int w = 2048; w <= 65536; w *= 2)
    for (int h = 32; h <= 256; h *= 2) {
      if (2 * h + 40 > w) continue;
      const tiling::TileOptions opt{w, h, 7};
      const double r = b::measure_gstencils(pts, [&] {
        tiling::with_pingpong(u, steps,
                              [&](auto& pp) { run(c, pp, steps, opt); });
      });
      b::print_row({std::to_string(w) + "x" + std::to_string(h), b::fmt(r)});
    }
  return 0;
}
