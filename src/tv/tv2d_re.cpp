// Redundancy-eliminated 2D Jacobi kernel variants (tv_plane_run, Re = true) —
// compiled once per SIMD backend at the backend's native vector width for
// double AND float element types, same axes as the baseline tv2d TU.  The
// scalar backend additionally registers the width-pinned wide
// instantiations.  Same Fn signatures as the baseline ids; results are
// bit-identical.
#include "dispatch/backend_variant.hpp"
#include "tv/functors2d.hpp"
#include "tv/tv_plane_impl.hpp"

namespace tvs::tv {
namespace {

using V = dispatch::BackendVec<double>;
using VF = dispatch::BackendVec<float>;

void jacobi2d5_re(const stencil::C2D5& c, grid::Grid2D<double>& u, long steps,
                  int stride) {
  tv_plane_run<V, /*Re=*/true>(J2D5F<V>(c), u, steps, stride);
}

void jacobi2d9_re(const stencil::C2D9& c, grid::Grid2D<double>& u, long steps,
                  int stride) {
  tv_plane_run<V, /*Re=*/true>(J2D9F<V>(c), u, steps, stride);
}

void jacobi2d5_re_f32(const stencil::C2D5f& c, grid::Grid2D<float>& u,
                      long steps, int stride) {
  tv_plane_run<VF, /*Re=*/true>(J2D5F<VF>(c), u, steps, stride);
}

void jacobi2d9_re_f32(const stencil::C2D9f& c, grid::Grid2D<float>& u,
                      long steps, int stride) {
  tv_plane_run<VF, /*Re=*/true>(J2D9F<VF>(c), u, steps, stride);
}

#if TVS_BACKEND_LEVEL == 0
using V8 = simd::ScalarVec<double, 8>;
using VF16 = simd::ScalarVec<float, 16>;

void jacobi2d5_re_vl8(const stencil::C2D5& c, grid::Grid2D<double>& u,
                      long steps, int stride) {
  tv_plane_run<V8, /*Re=*/true>(J2D5F<V8>(c), u, steps, stride);
}

void jacobi2d9_re_vl8(const stencil::C2D9& c, grid::Grid2D<double>& u,
                      long steps, int stride) {
  tv_plane_run<V8, /*Re=*/true>(J2D9F<V8>(c), u, steps, stride);
}

void jacobi2d5_re_f32_vl16(const stencil::C2D5f& c, grid::Grid2D<float>& u,
                           long steps, int stride) {
  tv_plane_run<VF16, /*Re=*/true>(J2D5F<VF16>(c), u, steps, stride);
}

void jacobi2d9_re_f32_vl16(const stencil::C2D9f& c, grid::Grid2D<float>& u,
                           long steps, int stride) {
  tv_plane_run<VF16, /*Re=*/true>(J2D9F<VF16>(c), u, steps, stride);
}
#endif

}  // namespace

TVS_BACKEND_REGISTRAR(tv2d_re) {
  using dispatch::DType;
  TVS_REGISTER_VL(kTvJacobi2D5Re, TvJacobi2D5Fn, jacobi2d5_re, V::lanes);
  TVS_REGISTER_VL(kTvJacobi2D9Re, TvJacobi2D9Fn, jacobi2d9_re, V::lanes);
  TVS_REGISTER_VL_DT(kTvJacobi2D5Re, TvJacobi2D5F32Fn, jacobi2d5_re_f32,
                     VF::lanes, DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi2D9Re, TvJacobi2D9F32Fn, jacobi2d9_re_f32,
                     VF::lanes, DType::kF32);
#if TVS_BACKEND_LEVEL == 0
  TVS_REGISTER_VL(kTvJacobi2D5Re, TvJacobi2D5Fn, jacobi2d5_re_vl8, 8);
  TVS_REGISTER_VL(kTvJacobi2D9Re, TvJacobi2D9Fn, jacobi2d9_re_vl8, 8);
  TVS_REGISTER_VL_DT(kTvJacobi2D5Re, TvJacobi2D5F32Fn, jacobi2d5_re_f32_vl16,
                     16, DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi2D9Re, TvJacobi2D9F32Fn, jacobi2d9_re_f32_vl16,
                     16, DType::kF32);
#endif
}

}  // namespace tvs::tv
