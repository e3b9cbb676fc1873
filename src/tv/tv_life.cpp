// Game-of-Life kernel variant — compiled once per SIMD backend at the
// backend's native int32 width (8 lanes under scalar/avx2, 16 under
// avx512: 16 generations per tile).  The scalar backend also pins the
// 16-lane instantiation for the width axis.  Public entry point lives in
// tv_dispatch.cpp.
#include "dispatch/backend_variant.hpp"
#include "tv/functors2d.hpp"
#include "tv/tv_plane_impl.hpp"

namespace tvs::tv {
namespace {

using V = dispatch::BackendVec<std::int32_t>;

void life(const stencil::LifeRule& r, grid::Grid2D<std::int32_t>& u,
          long steps, int stride) {
  tv_plane_run<V>(LifeF<V>(r), u, steps, stride);
}

#if TVS_BACKEND_LEVEL == 0
using V16 = simd::ScalarVec<std::int32_t, 16>;

void life_vl16(const stencil::LifeRule& r, grid::Grid2D<std::int32_t>& u,
               long steps, int stride) {
  tv_plane_run<V16>(LifeF<V16>(r), u, steps, stride);
}
#endif

}  // namespace

TVS_BACKEND_REGISTRAR(tv_life) {
  TVS_REGISTER_VL_DT(kTvLife, TvLifeFn, life, V::lanes,
                     dispatch::DType::kI32);
#if TVS_BACKEND_LEVEL == 0
  TVS_REGISTER_VL_DT(kTvLife, TvLifeFn, life_vl16, 16,
                     dispatch::DType::kI32);
#endif
}

}  // namespace tvs::tv
