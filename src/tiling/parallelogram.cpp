// Parallelogram-tiled 1D Gauss-Seidel driver — compiled once per SIMD
// backend.  A tile is the 1D engine tile (tv/tv1d_impl.hpp) with the
// Gauss-Seidel functor on sloped rows with every level in the single
// array; see parallelogram.hpp for the legality argument.
#include "dispatch/backend_variant.hpp"
#include "tiling/parallelogram.hpp"

#include "tiling/schedule.hpp"
#include "tv/functors1d.hpp"
#include "tv/tv1d_impl.hpp"

namespace tvs::tiling {
namespace {

using V = simd::NativeVec<double, 4>;
constexpr int VL = V::lanes;

// Level storage of a parallelogram tile: every level is the array itself.
// Because the tile edges slope exactly -1, the last write to an interface
// slot is always the level its reader needs, so no interface buffers.
struct ArrayLevels1D {
  double* a;
  tv::LevelLine<double> lo(int /*l*/) const { return {a, 0}; }
  tv::LevelLine<double> hi(int /*l*/) const { return {a, 0}; }
};

void gs1d3_tiled(const stencil::C1D3& c, grid::Grid1D<double>& u,
                 long sweeps, const Parallelogram1DOptions& opt) {
  const int nx = u.nx();
  double* a = u.p();
  const ArrayLevels1D lev{a};
  const tv::Gs1D3F<V> f(c);
  wavefront_schedule<VL>(
      opt, nx, sweeps,
      // tvsrace: partitioned(rows)
      [&](int /*slot*/, int s, const tv::TileRows<VL>& rows) {
        tv::tv1d_tile<V>(f, a, lev, rows, s, !opt.use_vector);
      },
      [&] { tv::detail::scalar_span(f, lev.lo(0), lev.lo(0), 1, nx); });
}

}  // namespace

TVS_BACKEND_REGISTRAR(parallelogram1d) {
  TVS_REGISTER(kParallelogramGs1D3, ParallelogramGs1D3Fn, gs1d3_tiled);
}

}  // namespace tvs::tiling
