// 1D Gauss-Seidel kernel variants — compiled once per SIMD backend at the
// backend's native vector width for double AND float element types (the
// scalar backend also pins the wide widths).  Public entry points live in
// tv_dispatch.cpp.
#include "dispatch/backend_variant.hpp"
#include "tv/functors1d.hpp"
#include "tv/tv1d_impl.hpp"

namespace tvs::tv {
namespace {

using V = dispatch::BackendVec<double>;
using VF = dispatch::BackendVec<float>;

void gs1d3(const stencil::C1D3& c, grid::Grid1D<double>& u, long sweeps,
           int stride) {
  tv1d_run<V>(Gs1D3F<V>(c), u, sweeps, stride);
}

void gs1d3_f32(const stencil::C1D3f& c, grid::Grid1D<float>& u, long sweeps,
               int stride) {
  tv1d_run<VF>(Gs1D3F<VF>(c), u, sweeps, stride);
}

#if TVS_BACKEND_LEVEL == 0
using V8 = simd::ScalarVec<double, 8>;
using VF16 = simd::ScalarVec<float, 16>;

void gs1d3_vl8(const stencil::C1D3& c, grid::Grid1D<double>& u, long sweeps,
               int stride) {
  tv1d_run<V8>(Gs1D3F<V8>(c), u, sweeps, stride);
}

void gs1d3_f32_vl16(const stencil::C1D3f& c, grid::Grid1D<float>& u,
                    long sweeps, int stride) {
  tv1d_run<VF16>(Gs1D3F<VF16>(c), u, sweeps, stride);
}
#endif

}  // namespace

TVS_BACKEND_REGISTRAR(tv_gs1d) {
  using dispatch::DType;
  TVS_REGISTER_VL(kTvGs1D3, TvGs1D3Fn, gs1d3, V::lanes);
  TVS_REGISTER_VL_DT(kTvGs1D3, TvGs1D3F32Fn, gs1d3_f32, VF::lanes,
                     DType::kF32);
#if TVS_BACKEND_LEVEL == 0
  TVS_REGISTER_VL(kTvGs1D3, TvGs1D3Fn, gs1d3_vl8, 8);
  TVS_REGISTER_VL_DT(kTvGs1D3, TvGs1D3F32Fn, gs1d3_f32_vl16, 16, DType::kF32);
#endif
}

}  // namespace tvs::tv
