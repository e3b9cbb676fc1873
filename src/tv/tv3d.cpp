// 3D Jacobi kernel variants — compiled once per SIMD backend at the
// backend's native vector width for double AND float element types; the
// scalar backend also registers the width-pinned wide instantiations.
// Public entry points live in tv_dispatch.cpp.
#include "dispatch/backend_variant.hpp"
#include "tv/functors3d.hpp"
#include "tv/tv_plane_impl.hpp"

namespace tvs::tv {
namespace {

using V = dispatch::BackendVec<double>;
using VF = dispatch::BackendVec<float>;

void jacobi3d7(const stencil::C3D7& c, grid::Grid3D<double>& u, long steps,
               int stride) {
  tv_plane_run<V>(J3D7F<V>(c), u, steps, stride);
}

void jacobi3d7_f32(const stencil::C3D7f& c, grid::Grid3D<float>& u, long steps,
                   int stride) {
  tv_plane_run<VF>(J3D7F<VF>(c), u, steps, stride);
}

#if TVS_BACKEND_LEVEL == 0
using V8 = simd::ScalarVec<double, 8>;
using VF16 = simd::ScalarVec<float, 16>;

void jacobi3d7_vl8(const stencil::C3D7& c, grid::Grid3D<double>& u, long steps,
                   int stride) {
  tv_plane_run<V8>(J3D7F<V8>(c), u, steps, stride);
}

void jacobi3d7_f32_vl16(const stencil::C3D7f& c, grid::Grid3D<float>& u,
                        long steps, int stride) {
  tv_plane_run<VF16>(J3D7F<VF16>(c), u, steps, stride);
}
#endif

}  // namespace

TVS_BACKEND_REGISTRAR(tv3d) {
  using dispatch::DType;
  TVS_REGISTER_VL(kTvJacobi3D7, TvJacobi3D7Fn, jacobi3d7, V::lanes);
  TVS_REGISTER_VL_DT(kTvJacobi3D7, TvJacobi3D7F32Fn, jacobi3d7_f32, VF::lanes,
                     DType::kF32);
#if TVS_BACKEND_LEVEL == 0
  TVS_REGISTER_VL(kTvJacobi3D7, TvJacobi3D7Fn, jacobi3d7_vl8, 8);
  TVS_REGISTER_VL_DT(kTvJacobi3D7, TvJacobi3D7F32Fn, jacobi3d7_f32_vl16, 16,
                     DType::kF32);
#endif
}

}  // namespace tvs::tv
