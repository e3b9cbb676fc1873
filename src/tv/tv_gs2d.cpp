// 2D Gauss-Seidel kernel variants — compiled once per SIMD backend at the
// backend's native vector width for double AND float element types (the
// scalar backend also pins the wide widths).  Public entry points live in
// tv_dispatch.cpp.
#include "dispatch/backend_variant.hpp"
#include "tv/functors2d.hpp"
#include "tv/tv_plane_impl.hpp"

namespace tvs::tv {
namespace {

using V = dispatch::BackendVec<double>;
using VF = dispatch::BackendVec<float>;

void gs2d5(const stencil::C2D5& c, grid::Grid2D<double>& u, long sweeps,
           int stride) {
  tv_plane_run<V>(Gs2D5F<V>(c), u, sweeps, stride);
}

void gs2d5_f32(const stencil::C2D5f& c, grid::Grid2D<float>& u, long sweeps,
               int stride) {
  tv_plane_run<VF>(Gs2D5F<VF>(c), u, sweeps, stride);
}

#if TVS_BACKEND_LEVEL == 0
using V8 = simd::ScalarVec<double, 8>;
using VF16 = simd::ScalarVec<float, 16>;

void gs2d5_vl8(const stencil::C2D5& c, grid::Grid2D<double>& u, long sweeps,
               int stride) {
  tv_plane_run<V8>(Gs2D5F<V8>(c), u, sweeps, stride);
}

void gs2d5_f32_vl16(const stencil::C2D5f& c, grid::Grid2D<float>& u,
                    long sweeps, int stride) {
  tv_plane_run<VF16>(Gs2D5F<VF16>(c), u, sweeps, stride);
}
#endif

}  // namespace

TVS_BACKEND_REGISTRAR(tv_gs2d) {
  using dispatch::DType;
  TVS_REGISTER_VL(kTvGs2D5, TvGs2D5Fn, gs2d5, V::lanes);
  TVS_REGISTER_VL_DT(kTvGs2D5, TvGs2D5F32Fn, gs2d5_f32, VF::lanes,
                     DType::kF32);
#if TVS_BACKEND_LEVEL == 0
  TVS_REGISTER_VL(kTvGs2D5, TvGs2D5Fn, gs2d5_vl8, 8);
  TVS_REGISTER_VL_DT(kTvGs2D5, TvGs2D5F32Fn, gs2d5_f32_vl16, 16, DType::kF32);
#endif
}

}  // namespace tvs::tv
