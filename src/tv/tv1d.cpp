// 1D temporal engines (tv1d_run): Jacobi 1D3P / 1D5P and Gauss-Seidel 1D3P,
// compiled once per SIMD backend (see dispatch/backend_variant.hpp for the
// per-backend TU rules).  Each stencil is one template on the vector type;
// the registrar instantiates it at the backend's native width in double AND
// float (the float engines run twice the lanes per register), the Jacobi
// stencils also with the redundancy-eliminated steady loop (Re = true,
// the *_re ids).  The scalar backend additionally registers width-pinned
// wide instantiations (ScalarVec<double, 8>, ScalarVec<float, 16>) so the
// registry's width axis resolves every width on every host.  Callers
// reach the engines by id through the registry (dispatch/kernels.hpp).
#include "dispatch/backend_variant.hpp"
#include "tv/functors1d.hpp"
#include "tv/tv1d_impl.hpp"

namespace tvs::tv {
namespace {

template <class V, bool Re = false>
void jacobi1d3(const stencil::C1D3T<typename V::value_type>& c,
               grid::Grid1D<typename V::value_type>& u, long steps,
               int stride) {
  tv1d_run<V, Re>(J1D3F<V>(c), u, steps, stride);
}

template <class V, bool Re = false>
void jacobi1d5(const stencil::C1D5T<typename V::value_type>& c,
               grid::Grid1D<typename V::value_type>& u, long steps,
               int stride) {
  tv1d_run<V, Re>(J1D5F<V>(c), u, steps, stride);
}

template <class V>
void gs1d3(const stencil::C1D3T<typename V::value_type>& c,
           grid::Grid1D<typename V::value_type>& u, long sweeps, int stride) {
  tv1d_run<V>(Gs1D3F<V>(c), u, sweeps, stride);
}

using V = dispatch::BackendVec<double>;
using VF = dispatch::BackendVec<float>;
#if TVS_BACKEND_LEVEL == 0
using V8 = simd::ScalarVec<double, 8>;
using VF16 = simd::ScalarVec<float, 16>;
#endif

}  // namespace

// Per (id, dtype) the native width registers before the scalar pins.
TVS_BACKEND_REGISTRAR(tv1d) {
  using dispatch::DType;
  TVS_REGISTER_VL(kTvJacobi1D3, TvJacobi1D3Fn, jacobi1d3<V>, V::lanes);
  TVS_REGISTER_VL(kTvJacobi1D5, TvJacobi1D5Fn, jacobi1d5<V>, V::lanes);
  TVS_REGISTER_VL(kTvGs1D3, TvGs1D3Fn, gs1d3<V>, V::lanes);
  TVS_REGISTER_VL(kTvJacobi1D3Re, TvJacobi1D3Fn, (jacobi1d3<V, true>),
                  V::lanes);
  TVS_REGISTER_VL(kTvJacobi1D5Re, TvJacobi1D5Fn, (jacobi1d5<V, true>),
                  V::lanes);
  TVS_REGISTER_VL_DT(kTvJacobi1D3, TvJacobi1D3F32Fn, jacobi1d3<VF>, VF::lanes,
                     DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi1D5, TvJacobi1D5F32Fn, jacobi1d5<VF>, VF::lanes,
                     DType::kF32);
  TVS_REGISTER_VL_DT(kTvGs1D3, TvGs1D3F32Fn, gs1d3<VF>, VF::lanes,
                     DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi1D3Re, TvJacobi1D3F32Fn, (jacobi1d3<VF, true>),
                     VF::lanes, DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi1D5Re, TvJacobi1D5F32Fn, (jacobi1d5<VF, true>),
                     VF::lanes, DType::kF32);
#if TVS_BACKEND_LEVEL == 0
  TVS_REGISTER_VL(kTvJacobi1D3, TvJacobi1D3Fn, jacobi1d3<V8>, 8);
  TVS_REGISTER_VL(kTvJacobi1D5, TvJacobi1D5Fn, jacobi1d5<V8>, 8);
  TVS_REGISTER_VL(kTvGs1D3, TvGs1D3Fn, gs1d3<V8>, 8);
  TVS_REGISTER_VL(kTvJacobi1D3Re, TvJacobi1D3Fn, (jacobi1d3<V8, true>), 8);
  TVS_REGISTER_VL(kTvJacobi1D5Re, TvJacobi1D5Fn, (jacobi1d5<V8, true>), 8);
  TVS_REGISTER_VL_DT(kTvJacobi1D3, TvJacobi1D3F32Fn, jacobi1d3<VF16>, 16,
                     DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi1D5, TvJacobi1D5F32Fn, jacobi1d5<VF16>, 16,
                     DType::kF32);
  TVS_REGISTER_VL_DT(kTvGs1D3, TvGs1D3F32Fn, gs1d3<VF16>, 16, DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi1D3Re, TvJacobi1D3F32Fn, (jacobi1d3<VF16, true>),
                     16, DType::kF32);
  TVS_REGISTER_VL_DT(kTvJacobi1D5Re, TvJacobi1D5F32Fn, (jacobi1d5<VF16, true>),
                     16, DType::kF32);
#endif
}

}  // namespace tvs::tv
