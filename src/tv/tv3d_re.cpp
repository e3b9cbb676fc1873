// Redundancy-eliminated 3D Jacobi kernel variant (tv_plane_run, Re = true) —
// compiled once per SIMD backend at the backend's native vector width for
// double AND float element types, same axes as the baseline tv3d TU.  The
// scalar backend additionally registers the width-pinned wide
// instantiations.  Same Fn signatures as the baseline id; results are
// bit-identical.
#include "dispatch/backend_variant.hpp"
#include "tv/functors3d.hpp"
#include "tv/tv_plane_impl.hpp"

namespace tvs::tv {
namespace {

using V = dispatch::BackendVec<double>;
using VF = dispatch::BackendVec<float>;

void jacobi3d7_re(const stencil::C3D7& c, grid::Grid3D<double>& u, long steps,
                  int stride) {
  tv_plane_run<V, /*Re=*/true>(J3D7F<V>(c), u, steps, stride);
}

void jacobi3d7_re_f32(const stencil::C3D7f& c, grid::Grid3D<float>& u,
                      long steps, int stride) {
  tv_plane_run<VF, /*Re=*/true>(J3D7F<VF>(c), u, steps, stride);
}

#if TVS_BACKEND_LEVEL == 0
using V8 = simd::ScalarVec<double, 8>;
using VF16 = simd::ScalarVec<float, 16>;

void jacobi3d7_re_vl8(const stencil::C3D7& c, grid::Grid3D<double>& u,
                      long steps, int stride) {
  tv_plane_run<V8, /*Re=*/true>(J3D7F<V8>(c), u, steps, stride);
}

void jacobi3d7_re_f32_vl16(const stencil::C3D7f& c, grid::Grid3D<float>& u,
                           long steps, int stride) {
  tv_plane_run<VF16, /*Re=*/true>(J3D7F<VF16>(c), u, steps, stride);
}
#endif

}  // namespace

TVS_BACKEND_REGISTRAR(tv3d_re) {
  using dispatch::DType;
  TVS_REGISTER_VL(kTvJacobi3D7Re, TvJacobi3D7Fn, jacobi3d7_re, V::lanes);
  TVS_REGISTER_VL_DT(kTvJacobi3D7Re, TvJacobi3D7F32Fn, jacobi3d7_re_f32,
                     VF::lanes, DType::kF32);
#if TVS_BACKEND_LEVEL == 0
  TVS_REGISTER_VL(kTvJacobi3D7Re, TvJacobi3D7Fn, jacobi3d7_re_vl8, 8);
  TVS_REGISTER_VL_DT(kTvJacobi3D7Re, TvJacobi3D7F32Fn, jacobi3d7_re_f32_vl16,
                     16, DType::kF32);
#endif
}

}  // namespace tvs::tv
