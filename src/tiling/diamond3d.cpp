// Diamond tiling on (t, x-slabs) for the 3D7P Jacobi stencil (Figure 4f;
// Table 1: 32^3 x 8 blocking), the 3D analogue of diamond2d.cpp: the plane
// diamond body (tiling/diamond_plane_impl.hpp) on Grid3D parity pairs.
//
// The driver (registry id diamond_jacobi3d7, dispatch/kernels.hpp) keeps
// diamond2d.cpp's parity-pair contract: pp.by_parity(0) holds t = 0, the
// driver's first stage mirrors its boundary and halo cells into
// pp.by_parity(1), and the result ends in pp.by_parity(steps).  Tiles are
// 4 doubles wide; the registry's f32 driver under the same id runs 8-lane
// float tiles.
#include "dispatch/backend_variant.hpp"
#include "tiling/diamond_plane_impl.hpp"
#include "tv/functors3d.hpp"

namespace tvs::tiling {

namespace {

// The 7-point Jacobi driver on V-lane tiles (V::value_type is the grid's
// element type).
template <class V>
void jacobi3d7(const stencil::C3D7T<typename V::value_type>& c,
               grid::PingPong<grid::Grid3D<typename V::value_type>>& pp,
               long steps, const TileOptions& opt) {
  diamond_plane_run<V>(tv::J3D7F<V>(c), pp, steps, opt);
}

// One 32-byte vector per tile row: 4 doubles, 8 floats.
using VD = simd::NativeVec<double, 4>;
using VF = simd::NativeVec<float, 8>;

}  // namespace

TVS_BACKEND_REGISTRAR(diamond3d) {
  using dispatch::DType;
  TVS_REGISTER(kDiamondJacobi3D7, DiamondJacobi3D7Fn, jacobi3d7<VD>);
  TVS_REGISTER_DT(kDiamondJacobi3D7, DiamondJacobi3D7F32Fn, jacobi3d7<VF>,
                  DType::kF32);
}

}  // namespace tvs::tiling
