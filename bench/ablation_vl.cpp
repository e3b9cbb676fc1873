// Ablation: vector length 4 (the paper's setting) vs 8 (AVX-512) across
// the 1D, 2D and 3D Jacobi temporal engines.  Wider lanes advance 8 time
// steps per tile — half the memory traffic, deeper scalar edge triangles,
// and (on most parts) a lower AVX-512 clock.  This quantifies the paper's
// future-work trade-off per kernel.
//
// The columns pin their engines through the registry's width axis
// (reg.get_at(id, backend, vl)) instead of a plain get(id): on an AVX-512
// host the avx512 backend serves EVERY id with its vl = 8 engine, so an
// unpinned lookup would silently measure vl = 8 against itself.  The backend ceiling is selected_backend(), so
// TVS_FORCE_BACKEND pins this bench like everything else (matching the
// backend stamp run_all.sh writes into the BENCH JSON): by default the
// vl = 4 column resolves to the avx2 engine (scalar without AVX2) and the
// vl = 8 column to the AVX-512 engine (ScalarVec<double, 8> elsewhere).
#include <algorithm>
#include <string>

#include "bench_util/bench.hpp"
#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"

namespace {

using namespace tvs;
namespace b = tvs::bench;

void speedup_row(const std::string& size, double r4, double r8) {
  b::print_row({size, b::fmt(r4), b::fmt(r8),
                r4 > 0.0 ? b::fmt(r8 / r4, 2) : "n/a"});
}

void sweep_1d(const dispatch::KernelRegistry& reg) {
  const dispatch::Backend at = dispatch::selected_backend();
  auto* run4 = reg.get_at<dispatch::TvJacobi1D3Fn>(dispatch::kTvJacobi1D3, at, 4);
  auto* run8 = reg.get_at<dispatch::TvJacobi1D3Fn>(dispatch::kTvJacobi1D3, at, 8);
  const stencil::C1D3 c = stencil::heat1d(0.25);
  b::print_title("Ablation  Heat-1D vector length 4 vs 8 (Gstencils/s)");
  b::print_header({"size", "vl=4", "vl=8", "speedup"});
  for (int n = 1 << 16; n <= 1 << 19; n *= 2) {
    const long steps = std::max<long>(16, (1L << 26) / n);
    const double pts = static_cast<double>(n) * static_cast<double>(steps);
    grid::Grid1D<double> u(n);
    for (int x = 0; x <= n + 1; ++x) u.at(x) = 0.001 * (x % 83);
    const double r4 = b::measure_gstencils(pts, [&] { run4(c, u, steps, 7); });
    const double r8 = b::measure_gstencils(pts, [&] { run8(c, u, steps, 7); });
    speedup_row(std::to_string(n), r4, r8);
  }
}

void sweep_2d(const dispatch::KernelRegistry& reg) {
  const dispatch::Backend at = dispatch::selected_backend();
  auto* run4 = reg.get_at<dispatch::TvJacobi2D5Fn>(dispatch::kTvJacobi2D5, at, 4);
  auto* run8 = reg.get_at<dispatch::TvJacobi2D5Fn>(dispatch::kTvJacobi2D5, at, 8);
  const stencil::C2D5 c = stencil::heat2d(0.2);
  b::print_title("Ablation  Heat-2D vector length 4 vs 8 (Gstencils/s)");
  b::print_header({"size", "vl=4", "vl=8", "speedup"});
  for (int n = 256; n <= 2048; n *= 2) {
    const long steps =
        std::max<long>(16, (1L << 24) / (static_cast<long>(n) * n));
    const double pts = static_cast<double>(n) * n * static_cast<double>(steps);
    grid::Grid2D<double> u(n, n);
    for (int x = 0; x <= n + 1; ++x)
      for (int y = 0; y <= n + 1; ++y) u.at(x, y) = 0.001 * ((x + y) % 83);
    const double r4 = b::measure_gstencils(pts, [&] { run4(c, u, steps, 2); });
    const double r8 = b::measure_gstencils(pts, [&] { run8(c, u, steps, 2); });
    speedup_row(std::to_string(n), r4, r8);
  }
}

void sweep_3d(const dispatch::KernelRegistry& reg) {
  const dispatch::Backend at = dispatch::selected_backend();
  auto* run4 = reg.get_at<dispatch::TvJacobi3D7Fn>(dispatch::kTvJacobi3D7, at, 4);
  auto* run8 = reg.get_at<dispatch::TvJacobi3D7Fn>(dispatch::kTvJacobi3D7, at, 8);
  const stencil::C3D7 c = stencil::heat3d(0.15);
  b::print_title("Ablation  Heat-3D vector length 4 vs 8 (Gstencils/s)");
  b::print_header({"size", "vl=4", "vl=8", "speedup"});
  for (int n = 64; n <= 256; n *= 2) {
    const long nn = static_cast<long>(n) * n * n;
    const long steps = std::max<long>(8, (1L << 24) / nn);
    const double pts = static_cast<double>(nn) * static_cast<double>(steps);
    grid::Grid3D<double> u(n, n, n);
    for (int x = 0; x <= n + 1; ++x)
      for (int y = 0; y <= n + 1; ++y)
        for (int z = 0; z <= n + 1; ++z)
          u.at(x, y, z) = 0.001 * ((x + y + z) % 83);
    const double r4 = b::measure_gstencils(pts, [&] { run4(c, u, steps, 2); });
    const double r8 = b::measure_gstencils(pts, [&] { run8(c, u, steps, 2); });
    speedup_row(std::to_string(n), r4, r8);
  }
}

}  // namespace

int main() {
  const auto& reg = dispatch::KernelRegistry::instance();
  sweep_1d(reg);
  sweep_2d(reg);
  sweep_3d(reg);
  return 0;
}
