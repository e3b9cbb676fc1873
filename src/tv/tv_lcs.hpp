// Row-padding contract of the temporally vectorized LCS dynamic program
// (int32 lanes — 8 under scalar/avx2, 16 under avx512 — stride s = 1; see
// tv_lcs_impl.hpp).  The row engine is registry id tv_lcs_rows
// (dispatch/kernels.hpp).
#pragma once

namespace tvs::tv {

// Number of padding slots the row engines need past row[nb] for their
// grouped loads, independent of the instantiated width: callers of the
// raw TvLcsRowsFn kernels allocate |b|+1+kLcsRowPad slots (the widest
// engine's lane count bounds it).
inline constexpr int kLcsRowPad = 16;

}  // namespace tvs::tv
