// Redundancy-eliminated 1D Jacobi kernel variants (tv1d_run, Re = true) —
// compiled once per SIMD backend at the backend's native vector width for
// double AND float element types, same axes as the baseline tv1d TU.  The
// scalar backend additionally registers the width-pinned wide
// instantiations so the width axis resolves on every host.  Same Fn
// signatures as the baseline ids; results are bit-identical.
#include "dispatch/backend_variant.hpp"
#include "tv/functors1d.hpp"
#include "tv/tv1d_impl.hpp"

namespace tvs::tv {
namespace {

using V = dispatch::BackendVec<double>;
using VF = dispatch::BackendVec<float>;

void jacobi1d3_re(const stencil::C1D3& c, grid::Grid1D<double>& u, long steps,
                  int stride) {
  tv1d_run<V, /*Re=*/true>(J1D3F<V>(c), u, steps, stride);
}

void jacobi1d5_re(const stencil::C1D5& c, grid::Grid1D<double>& u, long steps,
                  int stride) {
  tv1d_run<V, /*Re=*/true>(J1D5F<V>(c), u, steps, stride);
}

void jacobi1d3_re_f32(const stencil::C1D3f& c, grid::Grid1D<float>& u,
                      long steps, int stride) {
  tv1d_run<VF, /*Re=*/true>(J1D3F<VF>(c), u, steps, stride);
}

void jacobi1d5_re_f32(const stencil::C1D5f& c, grid::Grid1D<float>& u,
                      long steps, int stride) {
  tv1d_run<VF, /*Re=*/true>(J1D5F<VF>(c), u, steps, stride);
}

#if TVS_BACKEND_LEVEL == 0
using V8 = simd::ScalarVec<double, 8>;
using VF16 = simd::ScalarVec<float, 16>;

void jacobi1d3_re_vl8(const stencil::C1D3& c, grid::Grid1D<double>& u,
                      long steps, int stride) {
  tv1d_run<V8, /*Re=*/true>(J1D3F<V8>(c), u, steps, stride);
}

void jacobi1d5_re_vl8(const stencil::C1D5& c, grid::Grid1D<double>& u,
                      long steps, int stride) {
  tv1d_run<V8, /*Re=*/true>(J1D5F<V8>(c), u, steps, stride);
}

void jacobi1d3_re_f32_vl16(const stencil::C1D3f& c, grid::Grid1D<float>& u,
                           long steps, int stride) {
  tv1d_run<VF16, /*Re=*/true>(J1D3F<VF16>(c), u, steps, stride);
}

void jacobi1d5_re_f32_vl16(const stencil::C1D5f& c, grid::Grid1D<float>& u,
                           long steps, int stride) {
  tv1d_run<VF16, /*Re=*/true>(J1D5F<VF16>(c), u, steps, stride);
}
#endif

}  // namespace

TVS_BACKEND_REGISTRAR(tv1d_re) {
  using dispatch::DType;
  TVS_REGISTER_VL(kTvJacobi1D3Re, TvJacobi1D3Fn, jacobi1d3_re, V::lanes);
  TVS_REGISTER_VL(kTvJacobi1D5Re, TvJacobi1D5Fn, jacobi1d5_re, V::lanes);
  TVS_REGISTER_VL_DT(kTvJacobi1D3Re, TvJacobi1D3F32Fn, jacobi1d3_re_f32,
                     VF::lanes, DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi1D5Re, TvJacobi1D5F32Fn, jacobi1d5_re_f32,
                     VF::lanes, DType::kF32);
#if TVS_BACKEND_LEVEL == 0
  TVS_REGISTER_VL(kTvJacobi1D3Re, TvJacobi1D3Fn, jacobi1d3_re_vl8, 8);
  TVS_REGISTER_VL(kTvJacobi1D5Re, TvJacobi1D5Fn, jacobi1d5_re_vl8, 8);
  TVS_REGISTER_VL_DT(kTvJacobi1D3Re, TvJacobi1D3F32Fn, jacobi1d3_re_f32_vl16,
                     16, DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi1D5Re, TvJacobi1D5F32Fn, jacobi1d5_re_f32_vl16,
                     16, DType::kF32);
#endif
}

}  // namespace tvs::tv
