// 2D temporal engines (tv_plane_run on one-line planes): Jacobi 2D5P /
// 2D9P, Gauss-Seidel 2D5P and Game of Life, compiled once per SIMD backend.
// Each stencil is one template on the vector type; the registrar
// instantiates it at the backend's native width (vl = 4/8 doubles, 8/16
// floats and int32s), the Jacobi stencils also with the
// redundancy-eliminated steady loop (Re = true, the *_re ids).  The scalar
// backend additionally registers width-pinned wide instantiations so the
// width axis resolves on every host.  Callers reach the engines by id
// through the registry (dispatch/kernels.hpp).
#include "dispatch/backend_variant.hpp"
#include "tv/functors2d.hpp"
#include "tv/tv_plane_impl.hpp"

namespace tvs::tv {
namespace {

template <class V, bool Re = false>
void jacobi2d5(const stencil::C2D5T<typename V::value_type>& c,
               grid::Grid2D<typename V::value_type>& u, long steps,
               int stride) {
  tv_plane_run<V, Re>(J2D5F<V>(c), u, steps, stride);
}

template <class V, bool Re = false>
void jacobi2d9(const stencil::C2D9T<typename V::value_type>& c,
               grid::Grid2D<typename V::value_type>& u, long steps,
               int stride) {
  tv_plane_run<V, Re>(J2D9F<V>(c), u, steps, stride);
}

template <class V>
void gs2d5(const stencil::C2D5T<typename V::value_type>& c,
           grid::Grid2D<typename V::value_type>& u, long sweeps, int stride) {
  tv_plane_run<V>(Gs2D5F<V>(c), u, sweeps, stride);
}

template <class V>
void life(const stencil::LifeRule& r, grid::Grid2D<std::int32_t>& u,
          long steps, int stride) {
  tv_plane_run<V>(LifeF<V>(r), u, steps, stride);
}

using V = dispatch::BackendVec<double>;
using VF = dispatch::BackendVec<float>;
using VI = dispatch::BackendVec<std::int32_t>;
#if TVS_BACKEND_LEVEL == 0
using V8 = simd::ScalarVec<double, 8>;
using VF16 = simd::ScalarVec<float, 16>;
using VI16 = simd::ScalarVec<std::int32_t, 16>;
#endif

}  // namespace

// Per (id, dtype) the native width registers before the scalar pins.
TVS_BACKEND_REGISTRAR(tv2d) {
  using dispatch::DType;
  TVS_REGISTER_VL(kTvJacobi2D5, TvJacobi2D5Fn, jacobi2d5<V>, V::lanes);
  TVS_REGISTER_VL(kTvJacobi2D9, TvJacobi2D9Fn, jacobi2d9<V>, V::lanes);
  TVS_REGISTER_VL(kTvGs2D5, TvGs2D5Fn, gs2d5<V>, V::lanes);
  TVS_REGISTER_VL(kTvJacobi2D5Re, TvJacobi2D5Fn, (jacobi2d5<V, true>),
                  V::lanes);
  TVS_REGISTER_VL(kTvJacobi2D9Re, TvJacobi2D9Fn, (jacobi2d9<V, true>),
                  V::lanes);
  TVS_REGISTER_VL_DT(kTvJacobi2D5, TvJacobi2D5F32Fn, jacobi2d5<VF>, VF::lanes,
                     DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi2D9, TvJacobi2D9F32Fn, jacobi2d9<VF>, VF::lanes,
                     DType::kF32);
  TVS_REGISTER_VL_DT(kTvGs2D5, TvGs2D5F32Fn, gs2d5<VF>, VF::lanes,
                     DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi2D5Re, TvJacobi2D5F32Fn, (jacobi2d5<VF, true>),
                     VF::lanes, DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi2D9Re, TvJacobi2D9F32Fn, (jacobi2d9<VF, true>),
                     VF::lanes, DType::kF32);
  TVS_REGISTER_VL_DT(kTvLife, TvLifeFn, life<VI>, VI::lanes, DType::kI32);
#if TVS_BACKEND_LEVEL == 0
  TVS_REGISTER_VL(kTvJacobi2D5, TvJacobi2D5Fn, jacobi2d5<V8>, 8);
  TVS_REGISTER_VL(kTvJacobi2D9, TvJacobi2D9Fn, jacobi2d9<V8>, 8);
  TVS_REGISTER_VL(kTvGs2D5, TvGs2D5Fn, gs2d5<V8>, 8);
  TVS_REGISTER_VL(kTvJacobi2D5Re, TvJacobi2D5Fn, (jacobi2d5<V8, true>), 8);
  TVS_REGISTER_VL(kTvJacobi2D9Re, TvJacobi2D9Fn, (jacobi2d9<V8, true>), 8);
  TVS_REGISTER_VL_DT(kTvJacobi2D5, TvJacobi2D5F32Fn, jacobi2d5<VF16>, 16,
                     DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi2D9, TvJacobi2D9F32Fn, jacobi2d9<VF16>, 16,
                     DType::kF32);
  TVS_REGISTER_VL_DT(kTvGs2D5, TvGs2D5F32Fn, gs2d5<VF16>, 16, DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi2D5Re, TvJacobi2D5F32Fn, (jacobi2d5<VF16, true>),
                     16, DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi2D9Re, TvJacobi2D9F32Fn, (jacobi2d9<VF16, true>),
                     16, DType::kF32);
  TVS_REGISTER_VL_DT(kTvLife, TvLifeFn, life<VI16>, 16, DType::kI32);
#endif
}

}  // namespace tvs::tv
