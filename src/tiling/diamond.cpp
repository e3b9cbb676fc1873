// Diamond-tiled parallel driver for the 1D Jacobi kernel (Figure 4b;
// Table 1's Heat-1D blocking 16384 x 128) — f64 and f32 tiles, compiled
// once per SIMD backend.
//
// Decomposition per band of height `height` (a multiple of vl: 4 doubles,
// or 8 floats for the f32 driver the registry holds under the same id),
// the band/phase schedule of tiling/schedule.hpp that the 2D and 3D
// drivers share, each phase one stage (tiling/stage_exec.hpp):
//   phase 1: shrinking trapezoids based at [1+kW, (k+1)W], mutually
//            independent;
//   phase 2: growing trapezoids from the seams kW (empty base), mutually
//            independent once phase 1 finished.
// The union of a phase-2 tile and the next band's phase-1 tile above it is
// the classic diamond.  Each trapezoid is the flat engine's tile
// (tv/tv1d_impl.hpp) on clipped, sloped rows (tv/tile.hpp) with its levels
// in two parity arrays: every value a^t_x that any *other* tile may read
// is written to parity(t)[x], and the slope-R tile edges guarantee a slot
// is only overwritten after its last reader ran (the classic two-array
// sufficiency of diamond tiling).  The result of step T is in parity(T).
//
// The driver (registry id diamond_jacobi1d3, dispatch/kernels.hpp) runs
// on a parity pair.  Input: pp.by_parity(0) holds the t = 0 data, boundary
// and halo cells included; the driver mirrors those cells (x <= 0,
// x >= nx+1) into pp.by_parity(1) before the first step, so the odd
// array's prior contents do not matter.  Output: pp.by_parity(steps) holds
// the result.  tiling::with_pingpong (tiling/pingpong_convert.hpp) runs it
// in place on a single grid.
#include <algorithm>

#include "dispatch/backend_variant.hpp"
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
               long steps, const TileOptions& opt) {
  using T = typename V::value_type;
  using F = tv::J1D3F<V>;
  constexpr int R = F::radius;
  const F f(c);
  // int{...}: bound to the namespace-scope constant itself, std::min
  // changed GCC's code for the driver (the same clamp, a longer prologue).
  const int s = std::max(2, std::min(opt.stride, int{kMaxDiamond1DStride}));
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
