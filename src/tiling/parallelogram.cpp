// Parallelogram-tiled, wavefront-parallel driver for the 1D Gauss-Seidel
// stencil (Figure 5b; Table 1's GS-1D blocking 2048 x 64) — compiled once
// per SIMD backend.
//
// Diamond tiling is illegal for Gauss-Seidel (the newest-west dependence
// kills the growing phase), so the paper uses parallelogram tiles executed
// in wavefront order.  A tile of the (t, x) plane covers, at level
// l = 1..vl of one vector tile, the interval [xl0-(l-1), xr0-(l-1)] — both
// edges slide left one point per sweep, matching the a^{t}_{x+1}
// dependence.  Each tile is the 1D engine tile with the Gauss-Seidel
// functor (tv/tv1d_impl.hpp) on those rows with every level in the *single*
// array: because the edges slope exactly -1, the last write to an
// interface slot xl0-l is always the level-l value, which is precisely the
// newest-west operand the right-hand neighbour tile needs — no interface
// buffers at all.
//
// Tile dependences: (bt, bx) needs (bt, bx-1) [west interface] and
// (bt-1, bx), (bt-1, bx+1) [base row]; all are satisfied by executing
// anti-diagonal wavefronts w = 2*bt + bx, with every tile inside one
// wavefront independent (they are >= 2W+H points apart).  Parallelism
// therefore grows with the number of *bands* in flight, T/H.  The
// wavefront schedule, one stage per anti-diagonal, is shared with the 2D
// and 3D drivers (tiling/schedule.hpp).  The driver (registry id
// parallelogram_gs1d3, dispatch/kernels.hpp) advances the grid by the
// requested number of sweeps in place.
#include "dispatch/backend_variant.hpp"
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
                 long sweeps, const TileOptions& opt) {
  const int nx = u.nx();
  double* a = u.p();
  const ArrayLevels1D lev{a};
  const tv::Gs1D3F<V> f(c);
  wavefront_schedule<VL>(
      opt, nx, 1, sweeps,
      // tvsrace: partitioned(rows)
      [&](int /*slot*/, int s, const tv::TileRows<VL>& rows,
          const tv::TileCols<VL>& /*cols*/) {
        tv::tv1d_tile<V>(f, a, lev, rows, s, !opt.use_vector);
      },
      [&] { tv::detail::scalar_span(f, lev.lo(0), lev.lo(0), 1, nx); });
}

}  // namespace

TVS_BACKEND_REGISTRAR(parallelogram1d) {
  TVS_REGISTER(kParallelogramGs1D3, ParallelogramGs1D3Fn, gs1d3_tiled);
}

}  // namespace tvs::tiling
