// Diamond tiling on (t, x-rows) for 2D stencils — the paper's parallel
// scheme: "the diamond tiling always applies to the outermost space loop
// and co-works with the temporal vectorization" (§3.4; Table 1: 256^2 x 64
// blocks).  Tiles are trapezoids of rows x full-width y, scheduled in
// bands and phases by the diamond schedule the 1D and 3D drivers share
// (tiling/schedule.hpp); data lives in two parity grids; each runner slot
// owns a private ring of input-vector rows.  The body is the plane diamond
// body (tiling/diamond_plane_impl.hpp) on Grid2D parity pairs.
//
// The Jacobi 2D5P / 2D9P and Life drivers (registry ids
// diamond_jacobi2d5, diamond_jacobi2d9, diamond_life; dispatch/kernels.hpp)
// run on a parity pair: pp.by_parity(0) holds t = 0, boundary and halo
// cells included; the driver's first stage mirrors those cells into
// pp.by_parity(1), so the odd grid's prior contents do not matter.  Result
// in pp.by_parity(steps); tiling::with_pingpong runs a driver in place on a
// single grid.  Tiles are one 32-byte vector wide: 4 doubles, 8 int32s
// (Life), and 8 floats for the f32 drivers the registry holds under the
// Jacobi ids.
#include "dispatch/backend_variant.hpp"
#include "tiling/diamond_plane_impl.hpp"
#include "tv/functors2d.hpp"

namespace tvs::tiling {

namespace {

// The Jacobi drivers on V-lane tiles (V::value_type is the grid's element
// type).
template <class V>
void jacobi2d5(const stencil::C2D5T<typename V::value_type>& c,
               grid::PingPong<grid::Grid2D<typename V::value_type>>& pp,
               long steps, const TileOptions& opt) {
  diamond_plane_run<V>(tv::J2D5F<V>(c), pp, steps, opt);
}
template <class V>
void jacobi2d9(const stencil::C2D9T<typename V::value_type>& c,
               grid::PingPong<grid::Grid2D<typename V::value_type>>& pp,
               long steps, const TileOptions& opt) {
  diamond_plane_run<V>(tv::J2D9F<V>(c), pp, steps, opt);
}

// One 32-byte vector per tile row: 4 doubles, 8 floats, 8 int32s.
using VD = simd::NativeVec<double, 4>;
using VF = simd::NativeVec<float, 8>;
using VI = simd::NativeVec<std::int32_t, 8>;

void life(const stencil::LifeRule& r,
          grid::PingPong<grid::Grid2D<std::int32_t>>& pp, long steps,
          const TileOptions& opt) {
  diamond_plane_run<VI>(tv::LifeF<VI>(r), pp, steps, opt);
}

}  // namespace

TVS_BACKEND_REGISTRAR(diamond2d) {
  using dispatch::DType;
  TVS_REGISTER(kDiamondJacobi2D5, DiamondJacobi2D5Fn, jacobi2d5<VD>);
  TVS_REGISTER(kDiamondJacobi2D9, DiamondJacobi2D9Fn, jacobi2d9<VD>);
  TVS_REGISTER_DT(kDiamondJacobi2D5, DiamondJacobi2D5F32Fn, jacobi2d5<VF>,
                  DType::kF32);
  TVS_REGISTER_DT(kDiamondJacobi2D9, DiamondJacobi2D9F32Fn, jacobi2d9<VF>,
                  DType::kF32);
  TVS_REGISTER_DT(kDiamondLife, DiamondLifeFn, life, DType::kI32);
}

}  // namespace tvs::tiling
