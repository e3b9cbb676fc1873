// LCS strip kernel variant — compiled once per SIMD backend at the
// backend's native int32 width (8 DP rows per tile under scalar/avx2, 16
// under avx512); the scalar backend also pins the 16-lane instantiation.
// Callers allocate the padded row (tv_lcs.hpp's kLcsRowPad) and reach the
// raw row engine by id through the registry (dispatch/kernels.hpp).
#include "dispatch/backend_variant.hpp"
#include "tv/tv_lcs_impl.hpp"

namespace tvs::tv {
namespace {

using V = dispatch::BackendVec<std::int32_t>;

void lcs_rows(std::span<const std::int32_t> a, std::span<const std::int32_t> b,
              std::int32_t* row) {
  tv_lcs_rows_impl<V>(a, b, row);
}

#if TVS_BACKEND_LEVEL == 0
void lcs_rows_vl16(std::span<const std::int32_t> a,
                   std::span<const std::int32_t> b, std::int32_t* row) {
  tv_lcs_rows_impl<simd::ScalarVec<std::int32_t, 16>>(a, b, row);
}
#endif

}  // namespace

TVS_BACKEND_REGISTRAR(tv_lcs) {
  TVS_REGISTER_VL_DT(kTvLcsRows, TvLcsRowsFn, lcs_rows, V::lanes,
                     dispatch::DType::kI32);
#if TVS_BACKEND_LEVEL == 0
  TVS_REGISTER_VL_DT(kTvLcsRows, TvLcsRowsFn, lcs_rows_vl16, 16,
                     dispatch::DType::kI32);
#endif
}

}  // namespace tvs::tv
