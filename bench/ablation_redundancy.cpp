// Ablation: redundancy-eliminated (re) temporal engines vs the baseline
// tv engines at matched (dtype, vl, stride).  The re variants share the
// lane reorganization across adjacent temporal updates (one retire+insert
// shuffle per steady-state output vector instead of ~3 - 2/VL) and reuse
// column-shared ring-vector operands in the 2D/3D functors, so any win
// here is pure redundancy elimination — the ring walk, the arithmetic and
// the results are bit-identical (tests/property_test.cpp enforces this).
//
// Two kinds of tables:
//   * Rate tables (Gstencils/s) pin both engines through the registry at
//     selected_backend() and the SAME width, over cache-resident and
//     DRAM-bound sizes.  The rate columns are named "tv" and "re" — not
//     "our" — so compare_bench.py's default gate skips them; CI diffs
//     them explicitly with --column tv / --column re once a baseline
//     containing these tables exists (BENCH_PR8.json onward).
//   * A shuffle-count table from the TVS_REORG_COUNT debug counter
//     (simd/reorg.hpp).  Defining the macro below instruments THIS TU's
//     local ScalarVec instantiations only; the registry engines in the
//     backend libraries stay uncounted release code (their
//     instantiations are localized, so the copies never collide).
#define TVS_REORG_COUNT 1

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util/bench.hpp"
#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"
#include "tv/functors1d.hpp"
#include "tv/functors2d.hpp"
#include "tv/functors3d.hpp"
#include "tv/tv1d_impl.hpp"
#include "tv/tv_plane_impl.hpp"

namespace {

using namespace tvs;
namespace b = tvs::bench;

void rate_row(const std::string& size, double tv, double re) {
  b::print_row({size, b::fmt(tv), b::fmt(re),
                tv > 0.0 ? b::fmt(re / tv, 2) : "n/a"});
}

// ---- rate tables: registry engines at matched (dtype, vl, stride) --------

template <class Fn, class C, class T>
void sweep_1d(const dispatch::KernelRegistry& reg, std::string_view tv_id,
              std::string_view re_id, dispatch::DType dt, const C& c,
              const std::string& title) {
  const dispatch::Backend at = dispatch::selected_backend();
  const std::vector<int> widths = reg.registered_widths(tv_id, at, dt);
  const int vl = widths.empty() ? dispatch::kAnyVl : widths.back();
  auto* tv = reg.get_at<Fn>(tv_id, at, vl, dt);
  auto* re = reg.get_at<Fn>(re_id, at, vl, dt);
  b::print_title(title + " vl=" + std::to_string(vl) + " stride=7");
  b::print_header({"size", "tv", "re", "speedup"});
  // 1 << 13 and 1 << 16 stay cache-resident; 1 << 19 .. 1 << 22 stream
  // from DRAM, where both variants converge on the memory wall.
  for (int n = 1 << 13; n <= 1 << 22; n *= 8) {
    const long steps = std::max<long>(16, (1L << 26) / n);
    const double pts = static_cast<double>(n) * static_cast<double>(steps);
    grid::Grid1D<T> u(n);
    for (int x = 0; x <= n + 1; ++x)
      u.at(x) = static_cast<T>(0.001) * static_cast<T>(x % 83);
    const double rtv = b::measure_gstencils(pts, [&] { tv(c, u, steps, 7); });
    const double rre = b::measure_gstencils(pts, [&] { re(c, u, steps, 7); });
    rate_row(std::to_string(n), rtv, rre);
  }
}

template <class Fn, class C, class T>
void sweep_2d(const dispatch::KernelRegistry& reg, std::string_view tv_id,
              std::string_view re_id, dispatch::DType dt, const C& c,
              const std::string& title) {
  const dispatch::Backend at = dispatch::selected_backend();
  const std::vector<int> widths = reg.registered_widths(tv_id, at, dt);
  const int vl = widths.empty() ? dispatch::kAnyVl : widths.back();
  auto* tv = reg.get_at<Fn>(tv_id, at, vl, dt);
  auto* re = reg.get_at<Fn>(re_id, at, vl, dt);
  b::print_title(title + " vl=" + std::to_string(vl) + " stride=2");
  b::print_header({"size", "tv", "re", "speedup"});
  for (int n = 192; n <= 1536; n *= 8) {  // ~300 KiB then ~19 MiB (f64)
    const long steps =
        std::max<long>(16, (1L << 24) / (static_cast<long>(n) * n));
    const double pts = static_cast<double>(n) * n * static_cast<double>(steps);
    grid::Grid2D<T> u(n, n);
    for (int x = 0; x <= n + 1; ++x)
      for (int y = 0; y <= n + 1; ++y)
        u.at(x, y) = static_cast<T>(0.001) * static_cast<T>((x + y) % 83);
    const double rtv = b::measure_gstencils(pts, [&] { tv(c, u, steps, 2); });
    const double rre = b::measure_gstencils(pts, [&] { re(c, u, steps, 2); });
    rate_row(std::to_string(n), rtv, rre);
  }
}

void sweep_3d(const dispatch::KernelRegistry& reg) {
  const dispatch::Backend at = dispatch::selected_backend();
  auto* tv = reg.get_at<dispatch::TvJacobi3D7Fn>(dispatch::kTvJacobi3D7, at);
  auto* re = reg.get_at<dispatch::TvJacobi3D7Fn>(dispatch::kTvJacobi3D7Re, at);
  const stencil::C3D7 c = stencil::heat3d(0.15);
  b::print_title("Ablation  Heat-3D f64 tv vs re stride=2");
  b::print_header({"size", "tv", "re", "speedup"});
  for (int n = 48; n <= 192; n *= 4) {  // ~900 KiB then ~56 MiB
    const long nn = static_cast<long>(n) * n * n;
    const long steps = std::max<long>(8, (1L << 23) / nn);
    const double pts = static_cast<double>(nn) * static_cast<double>(steps);
    grid::Grid3D<double> u(n, n, n);
    for (int x = 0; x <= n + 1; ++x)
      for (int y = 0; y <= n + 1; ++y)
        for (int z = 0; z <= n + 1; ++z)
          u.at(x, y, z) = 0.001 * ((x + y + z) % 83);
    const double rtv = b::measure_gstencils(pts, [&] { tv(c, u, steps, 2); });
    const double rre = b::measure_gstencils(pts, [&] { re(c, u, steps, 2); });
    rate_row(std::to_string(n), rtv, rre);
  }
}

// ---- shuffle-count table: instrumented local instantiations --------------
//
// Reported as shuffles per output vector: total ticks divided by the
// vector-equivalent work (points * steps / VL).  Grid sizes are large
// enough that the prologue/epilogue triangles (which reorganize nothing)
// keep the steady-state figure within a few percent of the asymptote.
// The Gauss-Seidel rows (gs*, tv column only: re is a Jacobi loop) run the
// same tile on the same grids; the scheme's reorganization cost does not
// depend on the family, so they match the Jacobi row above them.

std::uint64_t& shuffles() { return simd::reorg_shuffle_count(); }

template <class Run>
double per_vector(double vectors, Run&& run) {
  shuffles() = 0;
  run();
  return static_cast<double>(shuffles()) / vectors;
}

template <class RunTv, class RunRe>
void shuffle_row(const std::string& kernel, int vl, double vectors,
                 RunTv&& run_tv, RunRe&& run_re) {
  const double tv = per_vector(vectors, run_tv);
  const double re = per_vector(vectors, run_re);
  b::print_row({kernel, std::to_string(vl), b::fmt(tv, 3), b::fmt(re, 3),
                tv > 0.0 ? b::fmt(re / tv, 3) : "n/a"});
}

template <class Run>
void gs_row(const std::string& kernel, int vl, double vectors, Run&& run) {
  b::print_row({kernel, std::to_string(vl), b::fmt(per_vector(vectors, run), 3),
                "n/a", "n/a"});
}

template <int VL>
void shuffle_rows_1d() {
  using V = simd::ScalarVec<double, VL>;
  const int nx = 1 << 15;
  const long steps = 4L * VL;
  const double vectors = static_cast<double>(nx) * steps / VL;
  const stencil::C1D3 c3 = stencil::heat1d(0.25);
  const stencil::C1D5 c5 = stencil::heat1d5(0.1);
  {
    grid::Grid1D<double> a(nx), r(nx);
    shuffle_row("heat1d", VL, vectors,
                [&] { tv::tv1d_run<V>(tv::J1D3F<V>(c3), a, steps, 5); },
                [&] { tv::tv1d_run<V, /*Re=*/true>(tv::J1D3F<V>(c3), r, steps, 5); });
    gs_row("gs1d3", VL, vectors,
           [&] { tv::tv1d_run<V>(tv::Gs1D3F<V>(c3), a, steps, 5); });
  }
  {
    grid::Grid1D<double> a(nx), r(nx);
    shuffle_row("heat1d5", VL, vectors,
                [&] { tv::tv1d_run<V>(tv::J1D5F<V>(c5), a, steps, 3); },
                [&] { tv::tv1d_run<V, /*Re=*/true>(tv::J1D5F<V>(c5), r, steps, 3); });
  }
}

template <int VL>
void shuffle_rows_2d3d() {
  using V = simd::ScalarVec<double, VL>;
  const stencil::C2D5 c5 = stencil::heat2d(0.2);
  const stencil::C2D9 c9 = stencil::box2d9(0.1);
  const stencil::C3D7 c7 = stencil::heat3d(0.15);
  {
    const int n = 256;
    const long steps = 2L * VL;
    const double vectors = static_cast<double>(n) * n * steps / VL;
    grid::Grid2D<double> a(n, n), r(n, n);
    shuffle_row("heat2d", VL, vectors,
                [&] { tv::tv_plane_run<V>(tv::J2D5F<V>(c5), a, steps, 2); },
                [&] { tv::tv_plane_run<V, true>(tv::J2D5F<V>(c5), r, steps, 2); });
    gs_row("gs2d5", VL, vectors,
           [&] { tv::tv_plane_run<V>(tv::Gs2D5F<V>(c5), a, steps, 2); });
    shuffle_row("box2d9", VL, vectors,
                [&] { tv::tv_plane_run<V>(tv::J2D9F<V>(c9), a, steps, 2); },
                [&] { tv::tv_plane_run<V, true>(tv::J2D9F<V>(c9), r, steps, 2); });
  }
  {
    const int n = 64;
    const long steps = 2L * VL;
    const double vectors =
        static_cast<double>(n) * n * n * steps / VL;
    grid::Grid3D<double> a(n, n, n), r(n, n, n);
    shuffle_row("heat3d", VL, vectors,
                [&] { tv::tv_plane_run<V>(tv::J3D7F<V>(c7), a, steps, 2); },
                [&] { tv::tv_plane_run<V, true>(tv::J3D7F<V>(c7), r, steps, 2); });
    gs_row("gs3d7", VL, vectors,
           [&] { tv::tv_plane_run<V>(tv::Gs3D7F<V>(c7), a, steps, 2); });
  }
}

void shuffle_table() {
  b::print_title(
      "Ablation  reorg shuffles per output vector (debug counter)");
  b::print_header({"kernel", "vl", "tv/vec", "re/vec", "ratio"});
  shuffle_rows_1d<4>();
  shuffle_rows_1d<8>();
  shuffle_rows_2d3d<4>();
  shuffle_rows_2d3d<8>();
}

}  // namespace

int main() {
  const auto& reg = dispatch::KernelRegistry::instance();
  sweep_1d<dispatch::TvJacobi1D3Fn, stencil::C1D3, double>(
      reg, dispatch::kTvJacobi1D3, dispatch::kTvJacobi1D3Re,
      dispatch::DType::kF64, stencil::heat1d(0.25),
      "Ablation  Heat-1D f64 tv vs re");
  sweep_1d<dispatch::TvJacobi1D3F32Fn, stencil::C1D3f, float>(
      reg, dispatch::kTvJacobi1D3, dispatch::kTvJacobi1D3Re,
      dispatch::DType::kF32, stencil::heat1d<float>(0.25),
      "Ablation  Heat-1D f32 tv vs re");
  sweep_1d<dispatch::TvJacobi1D5Fn, stencil::C1D5, double>(
      reg, dispatch::kTvJacobi1D5, dispatch::kTvJacobi1D5Re,
      dispatch::DType::kF64, stencil::heat1d5(0.1),
      "Ablation  Heat-1D(5pt) f64 tv vs re");
  sweep_2d<dispatch::TvJacobi2D5Fn, stencil::C2D5, double>(
      reg, dispatch::kTvJacobi2D5, dispatch::kTvJacobi2D5Re,
      dispatch::DType::kF64, stencil::heat2d(0.2),
      "Ablation  Heat-2D f64 tv vs re");
  sweep_2d<dispatch::TvJacobi2D9F32Fn, stencil::C2D9f, float>(
      reg, dispatch::kTvJacobi2D9, dispatch::kTvJacobi2D9Re,
      dispatch::DType::kF32, stencil::box2d9<float>(0.1),
      "Ablation  Box-2D9 f32 tv vs re");
  sweep_3d(reg);
  shuffle_table();
  return 0;
}
