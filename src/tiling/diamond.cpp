// Diamond-tiled 1D Jacobi driver (f64 and f32 tiles) — compiled once per
// SIMD backend.
// Grid-form solves run it under tiling::with_pingpong (common code).
#include <algorithm>

#include "dispatch/backend_variant.hpp"
#include "tiling/diamond.hpp"
#include "tiling/schedule.hpp"
#include "tv/functors1d.hpp"
#include "tv/tv1d_impl.hpp"

namespace tvs::tiling {

namespace {

// Level storage of a trapezoid based at band step t0: level l lives in
// parity(t0 + l).  Levels 0 and vl (even) are the base array a0.
template <class T>
struct ParityLevels1D {
  T* a0;
  T* a1;
  tv::LevelLine<T> lo(int l) const { return {(l & 1) != 0 ? a1 : a0, 0}; }
  tv::LevelLine<T> hi(int l) const { return lo(l); }
};

// The 3-point Jacobi driver on V-lane tiles (V::value_type is the grid's
// element type): the diamond schedule on the parity arrays, each
// trapezoid the flat engine's tile.
template <class V>
void jacobi1d3(const stencil::C1D3T<typename V::value_type>& c,
               grid::PingPong<grid::Grid1D<typename V::value_type>>& pp,
               long steps, const Diamond1DOptions& opt) {
  using T = typename V::value_type;
  using F = tv::J1D3F<V>;
  constexpr int R = F::radius;
  const F f(c);
  const int s = std::max(2, std::min(opt.stride, 3 * R + 5));
  const int nx = pp.even().nx();
  diamond_schedule<V::lanes, R>(
      opt, s, nx, steps,
      // A few boundary and halo cells per domain edge (x <= 0, x >= nx+1).
      // tvsrace: partitioned(x0)
      [&](int x0, int x1) {
        const T* even = pp.even().p();
        T* odd = pp.odd().p();
        if (x0 == 0) std::copy(even - grid::kPad, even + 1, odd - grid::kPad);
        if (x1 == nx + 1)
          std::copy(even + nx + 1, even + nx + 2 + grid::kPad, odd + nx + 1);
      },
      // tvsrace: partitioned(rows)
      [&](int /*slot*/, long tt, const tv::TileRows<V::lanes>& rows) {
        const ParityLevels1D<T> lev{pp.by_parity(tt).p(),
                                    pp.by_parity(tt + 1).p()};
        tv::tv1d_tile<V>(f, lev.a0, lev, rows, s, !opt.use_vector);
      },
      // tvsrace: partitioned(x0)
      [&](long t, int x0, int x1) {
        const tv::LevelLine<T> src{pp.by_parity(t).p(), 0},
            dst{pp.by_parity(t + 1).p(), 0};
        tv::detail::scalar_span(f, dst, src, x0, x1);
      });
}

// One 32-byte vector per tile row in both precisions: 4 doubles, 8 floats.
using VD = simd::NativeVec<double, 4>;
using VF = simd::NativeVec<float, 8>;

}  // namespace

TVS_BACKEND_REGISTRAR(diamond1d) {
  using dispatch::DType;
  TVS_REGISTER(kDiamondJacobi1D3, DiamondJacobi1D3Fn, jacobi1d3<VD>);
  TVS_REGISTER_DT(kDiamondJacobi1D3, DiamondJacobi1D3F32Fn, jacobi1d3<VF>,
                  DType::kF32);
}

}  // namespace tvs::tiling
