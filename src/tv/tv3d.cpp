// 3D temporal engines (tv_plane_run): Jacobi 3D7P and Gauss-Seidel 3D7P,
// compiled once per SIMD backend.  Each stencil is one template on the
// vector type; the registrar instantiates it at the backend's native width
// in double AND float, the Jacobi stencil also with the
// redundancy-eliminated steady loop (Re = true, the _re id).  The scalar
// backend additionally registers the width-pinned wide instantiations.
// Callers reach the engines by id through the registry.
#include "dispatch/backend_variant.hpp"
#include "tv/functors3d.hpp"
#include "tv/tv_plane_impl.hpp"

namespace tvs::tv {
namespace {

template <class V, bool Re = false>
void jacobi3d7(const stencil::C3D7T<typename V::value_type>& c,
               grid::Grid3D<typename V::value_type>& u, long steps,
               int stride) {
  tv_plane_run<V, Re>(J3D7F<V>(c), u, steps, stride);
}

template <class V>
void gs3d7(const stencil::C3D7T<typename V::value_type>& c,
           grid::Grid3D<typename V::value_type>& u, long sweeps, int stride) {
  tv_plane_run<V>(Gs3D7F<V>(c), u, sweeps, stride);
}

using V = dispatch::BackendVec<double>;
using VF = dispatch::BackendVec<float>;
#if TVS_BACKEND_LEVEL == 0
using V8 = simd::ScalarVec<double, 8>;
using VF16 = simd::ScalarVec<float, 16>;
#endif

}  // namespace

// Per (id, dtype) the native width registers before the scalar pins.
TVS_BACKEND_REGISTRAR(tv3d) {
  using dispatch::DType;
  TVS_REGISTER_VL(kTvJacobi3D7, TvJacobi3D7Fn, jacobi3d7<V>, V::lanes);
  TVS_REGISTER_VL(kTvGs3D7, TvGs3D7Fn, gs3d7<V>, V::lanes);
  TVS_REGISTER_VL(kTvJacobi3D7Re, TvJacobi3D7Fn, (jacobi3d7<V, true>),
                  V::lanes);
  TVS_REGISTER_VL_DT(kTvJacobi3D7, TvJacobi3D7F32Fn, jacobi3d7<VF>, VF::lanes,
                     DType::kF32);
  TVS_REGISTER_VL_DT(kTvGs3D7, TvGs3D7F32Fn, gs3d7<VF>, VF::lanes,
                     DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi3D7Re, TvJacobi3D7F32Fn, (jacobi3d7<VF, true>),
                     VF::lanes, DType::kF32);
#if TVS_BACKEND_LEVEL == 0
  TVS_REGISTER_VL(kTvJacobi3D7, TvJacobi3D7Fn, jacobi3d7<V8>, 8);
  TVS_REGISTER_VL(kTvGs3D7, TvGs3D7Fn, gs3d7<V8>, 8);
  TVS_REGISTER_VL(kTvJacobi3D7Re, TvJacobi3D7Fn, (jacobi3d7<V8, true>), 8);
  TVS_REGISTER_VL_DT(kTvJacobi3D7, TvJacobi3D7F32Fn, jacobi3d7<VF16>, 16,
                     DType::kF32);
  TVS_REGISTER_VL_DT(kTvGs3D7, TvGs3D7F32Fn, gs3d7<VF16>, 16, DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi3D7Re, TvJacobi3D7F32Fn, (jacobi3d7<VF16, true>),
                     16, DType::kF32);
#endif
}

}  // namespace tvs::tv
