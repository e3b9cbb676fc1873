// Dtype ablation: float32 vs float64 temporal vectorization at matched
// footprint (fig4a-style size sweep, Gstencils/s).
//
// The paper's speedup scales with the vector length vl (§3, Table 1); on
// the same hardware float doubles the lanes per register (8 per AVX2
// register, 16 per AVX-512), which is exactly the regime the follow-up
// papers report the largest wins in.  Two comparisons per size:
//
//   f32        — same grid POINTS as the f64 row (half the bytes): pure
//                lane-count effect;
//   f32@2x     — same grid BYTES as the f64 row (twice the points): the
//                matched-footprint column, what a memory-budgeted caller
//                actually gets from switching precision.
//
// Both run through the Solver facade on the serial temporal path, so the
// measured path is the planned (backend, vl, stride) configuration.
#include <string>

#include "bench_util/bench.hpp"
#include "solver/builder.hpp"
#include "solver/solver.hpp"
#include "stencil/coefficients.hpp"

namespace {

using namespace tvs;

template <class T>
double rate_1d(int nx, long steps) {
  grid::Grid1D<T> u(nx);
  for (int x = 0; x <= nx + 1; ++x)
    u.at(x) = T{1} + T(0.001) * static_cast<T>(x % 97);
  solver::StencilProblem p = solver::ProblemBuilder(solver::Family::kJacobi1D3)
                                 .extents(nx)
                                 .steps(steps)
                                 .build();
  if constexpr (std::is_same_v<T, float>) p.dtype = dispatch::DType::kF32;
  const solver::Solver s(p);
  const stencil::C1D3T<T> c = stencil::heat1d<T>(0.25);
  const double pts = static_cast<double>(nx) * static_cast<double>(steps);
  return bench::measure_gstencils(pts, [&] { s.run(solver::Workload(c, u)); });
}

template <class T>
double rate_2d(int nx, int ny, long steps) {
  grid::Grid2D<T> u(nx, ny);
  for (int x = 0; x <= nx + 1; ++x)
    for (int y = 0; y <= ny + 1; ++y)
      u.at(x, y) = T{1} + T(0.001) * static_cast<T>((x + y) % 97);
  solver::StencilProblem p = solver::ProblemBuilder(solver::Family::kJacobi2D5)
                                 .extents(nx, ny)
                                 .steps(steps)
                                 .build();
  if constexpr (std::is_same_v<T, float>) p.dtype = dispatch::DType::kF32;
  const solver::Solver s(p);
  const stencil::C2D5T<T> c = stencil::heat2d<T>(0.2);
  const double pts =
      static_cast<double>(nx) * ny * static_cast<double>(steps);
  return bench::measure_gstencils(pts, [&] { s.run(solver::Workload(c, u)); });
}

template <class T>
double rate_3d(int n, long steps) {
  grid::Grid3D<T> u(n, n, n);
  for (int x = 0; x <= n + 1; ++x)
    for (int y = 0; y <= n + 1; ++y)
      for (int z = 0; z <= n + 1; ++z)
        u.at(x, y, z) = T{1} + T(0.001) * static_cast<T>((x + y + z) % 97);
  solver::StencilProblem p = solver::ProblemBuilder(solver::Family::kJacobi3D7)
                                 .extents(n, n, n)
                                 .steps(steps)
                                 .build();
  if constexpr (std::is_same_v<T, float>) p.dtype = dispatch::DType::kF32;
  const solver::Solver s(p);
  const stencil::C3D7T<T> c = stencil::heat3d<T>(0.1);
  const double pts =
      static_cast<double>(n) * n * n * static_cast<double>(steps);
  return bench::measure_gstencils(pts, [&] { s.run(solver::Workload(c, u)); });
}

std::string ratio(double num, double den) {
  return den > 0 ? bench::fmt(num / den) + "x" : "-";
}

}  // namespace

int main() {
  namespace b = tvs::bench;

  b::print_title("Ablation  float32 vs float64 temporal engines (Gstencils/s)");

  {
    b::print_header({"heat1d=2^x", "f64", "f32", "f32@2x", "f32/f64",
                     "matched"});
    const int lo = 10, hi = b::full_mode() ? 23 : 19;
    for (int e = lo; e <= hi; ++e) {
      const int nx = 1 << e;
      const long steps =
          std::max<long>(8, (b::full_mode() ? 1L << 25 : 1L << 22) / nx);
      const double r64 = rate_1d<double>(nx, steps);
      const double r32 = rate_1d<float>(nx, steps);
      const double r32m = rate_1d<float>(2 * nx, std::max<long>(steps / 2, 4));
      b::print_row({"2^" + std::to_string(e), b::fmt(r64), b::fmt(r32),
                    b::fmt(r32m), ratio(r32, r64), ratio(r32m, r64)});
    }
  }
  {
    b::print_header({"heat2d=NxN", "f64", "f32", "f32@2x", "f32/f64",
                     "matched"});
    for (const int n : {128, 256, b::full_mode() ? 1024 : 512}) {
      const long steps = std::max<long>(
          8, (b::full_mode() ? 1L << 24 : 1L << 21) /
                 (static_cast<long>(n) * n));
      const double r64 = rate_2d<double>(n, n, steps);
      const double r32 = rate_2d<float>(n, n, steps);
      // Matched bytes exactly: twice the rows at the same row length (a
      // 2n x n float grid occupies the n x n double grid's bytes without
      // changing the unit-stride extent).
      const double r32m = rate_2d<float>(2 * n, n, steps);
      b::print_row({std::to_string(n), b::fmt(r64), b::fmt(r32), b::fmt(r32m),
                    ratio(r32, r64), ratio(r32m, r64)});
    }
  }
  {
    b::print_header({"heat3d=N^3", "f64", "f32", "f32@2x", "f32/f64",
                     "matched"});
    for (const int n : {32, 64, b::full_mode() ? 256 : 96}) {
      const long steps = std::max<long>(
          8, (b::full_mode() ? 1L << 24 : 1L << 21) /
                 (static_cast<long>(n) * n * n));
      const double r64 = rate_3d<double>(n, steps);
      const double r32 = rate_3d<float>(n, steps);
      const double r32m = rate_3d<float>(n * 5 / 4, steps);
      b::print_row({std::to_string(n), b::fmt(r64), b::fmt(r32), b::fmt(r32m),
                    ratio(r32, r64), ratio(r32m, r64)});
    }
  }
  return 0;
}
