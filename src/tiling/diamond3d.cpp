// 3D diamond driver (diamond3d.hpp): the plane diamond body
// (tiling/diamond_plane_impl.hpp) on Grid3D parity pairs, for Jacobi 3D7P.
#include "dispatch/backend_variant.hpp"
#include "tiling/diamond3d.hpp"

#include "tiling/diamond_plane_impl.hpp"
#include "tv/functors3d.hpp"

namespace tvs::tiling {

namespace {

// The 7-point Jacobi driver on V-lane tiles (V::value_type is the grid's
// element type).
template <class V>
void jacobi3d7(const stencil::C3D7T<typename V::value_type>& c,
               grid::PingPong<grid::Grid3D<typename V::value_type>>& pp,
               long steps, const Diamond3DOptions& opt) {
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
