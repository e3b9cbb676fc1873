// 3D Gauss-Seidel kernel variants — compiled once per SIMD backend at the
// backend's native vector width for double AND float element types (the
// scalar backend also pins the wide widths).  Public entry points live in
// tv_dispatch.cpp.
#include "dispatch/backend_variant.hpp"
#include "tv/functors3d.hpp"
#include "tv/tv_plane_impl.hpp"

namespace tvs::tv {
namespace {

using V = dispatch::BackendVec<double>;
using VF = dispatch::BackendVec<float>;

void gs3d7(const stencil::C3D7& c, grid::Grid3D<double>& u, long sweeps,
           int stride) {
  tv_plane_run<V>(Gs3D7F<V>(c), u, sweeps, stride);
}

void gs3d7_f32(const stencil::C3D7f& c, grid::Grid3D<float>& u, long sweeps,
               int stride) {
  tv_plane_run<VF>(Gs3D7F<VF>(c), u, sweeps, stride);
}

#if TVS_BACKEND_LEVEL == 0
using V8 = simd::ScalarVec<double, 8>;
using VF16 = simd::ScalarVec<float, 16>;

void gs3d7_vl8(const stencil::C3D7& c, grid::Grid3D<double>& u, long sweeps,
               int stride) {
  tv_plane_run<V8>(Gs3D7F<V8>(c), u, sweeps, stride);
}

void gs3d7_f32_vl16(const stencil::C3D7f& c, grid::Grid3D<float>& u,
                    long sweeps, int stride) {
  tv_plane_run<VF16>(Gs3D7F<VF16>(c), u, sweeps, stride);
}
#endif

}  // namespace

TVS_BACKEND_REGISTRAR(tv_gs3d) {
  using dispatch::DType;
  TVS_REGISTER_VL(kTvGs3D7, TvGs3D7Fn, gs3d7, V::lanes);
  TVS_REGISTER_VL_DT(kTvGs3D7, TvGs3D7F32Fn, gs3d7_f32, VF::lanes,
                     DType::kF32);
#if TVS_BACKEND_LEVEL == 0
  TVS_REGISTER_VL(kTvGs3D7, TvGs3D7Fn, gs3d7_vl8, 8);
  TVS_REGISTER_VL_DT(kTvGs3D7, TvGs3D7F32Fn, gs3d7_f32_vl16, 16, DType::kF32);
#endif
}

}  // namespace tvs::tv
