// Rectangle tiling + anti-diagonal wavefront parallelization of the LCS
// dynamic program (Figure 5h; Table 1: 4096 x 4096 blocks).
//
// The DP matrix is split into row bands (over A, TileOptions::height) x
// column blocks (over B, TileOptions::width).  Tile (bi, bj) depends on
// (bi-1, bj) and (bi, bj-1); all tiles on one anti-diagonal bi+bj run in
// parallel, in the parallelograms' wavefront order (tiling/schedule.hpp).
// Following the paper, only the wavefront is stored: a global DP row
// (`lcsA`) plus one boundary column per block seam (`lcsB`), which feed
// the temporally vectorized 8-row strip kernel through its
// left-column/right-column hooks.  The driver (registry id lcs_wavefront,
// dispatch/kernels.hpp) returns the LCS length.
#include "dispatch/backend_variant.hpp"
#include "tiling/schedule.hpp"

#include <algorithm>
#include <vector>

#include "simd/vec.hpp"
#include "tv/tv_lcs_impl.hpp"
#include "util/checked_idx.hpp"

namespace tvs::tiling {
namespace {

std::int32_t lcs_wavefront_tiled(std::span<const std::int32_t> a,
                           std::span<const std::int32_t> b,
                           const TileOptions& opt) {
  using V = dispatch::BackendVec<std::int32_t>;
  // checked_int, not static_cast: a 2^31-element span would otherwise
  // truncate silently and compute the LCS of a prefix (tvsrace C3).
  const int na = util::checked_int(a.size());
  const int nb = util::checked_int(b.size());
  if (na == 0 || nb == 0) return 0;

  const int Wb = std::max(16, opt.width);
  const int Hb = std::max(16, opt.height);
  const int nbj = (nb + Wb - 1) / Wb;
  const int nbi = (na + Hb - 1) / Hb;

  // Global DP row (+ load padding) and one boundary column per block seam;
  // col[0] is the zero left edge, col[j] holds lcs[x][j*Wb].
  std::vector<std::int32_t> row(
      static_cast<std::size_t>(nb) + 1 + tv::kLcsRowPad, 0);
  std::vector<std::vector<std::int32_t>> col(
      static_cast<std::size_t>(nbj) + 1,
      std::vector<std::int32_t>(static_cast<std::size_t>(na) + 1, 0));

  // Anti-diagonal wavefront: block (bi, bj = d - bi) owns row segment
  // [bj*Wb, bj*Wb + wseg] and column bj+1 rows [bi*Hb, bi*Hb + h] — both
  // are injective in bi for fixed d, so row/col writes are disjoint.
  const Wavefront<2> wf({nbi, nbj}, {1, 1}, [](const auto&) { return true; });
  for (int d = 0; d < wf.stages(); ++d) {
    const auto block = [&](int i, int /*slot*/) {
      const auto [bi, bj] = wf.block(d, i);
      const int t0 = bi * Hb;
      const int h = std::min(Hb, na - t0);
      const int y0 = bj * Wb;  // global column before this block's segment
      const int wseg = std::min(Wb, nb - y0);
      // Segment views: local column y (1-based) = global y0 + y.
      std::int32_t* rseg = row.data() + y0;
      const std::int32_t* lcol = col[static_cast<std::size_t>(bj)].data() + t0;
      std::int32_t* rcol = col[static_cast<std::size_t>(bj) + 1].data() + t0;
      if (opt.use_vector) {
        tv::tv_lcs_rows_impl<V>(
            a.subspan(static_cast<std::size_t>(t0),
                      static_cast<std::size_t>(h)),
            b.subspan(static_cast<std::size_t>(y0),
                      static_cast<std::size_t>(wseg)),
            rseg, lcol, rcol);
      } else {
        const std::int32_t* bb = b.data() + y0 - 1;
        for (int t = 0; t < h; ++t) {
          tv::detail::lcs_scalar_row(a[static_cast<std::size_t>(t0 + t)], bb,
                                     rseg, wseg, lcol[t], lcol[t + 1]);
          rcol[t + 1] = rseg[wseg];
        }
      }
    };
    // tvsrace: partitioned(i)
    stage_run(opt.exec, wf.size(d), block);
  }
  return row[static_cast<std::size_t>(nb)];
}

}  // namespace

TVS_BACKEND_REGISTRAR(lcs_wavefront) {
  TVS_REGISTER_DT(kLcsWavefront, LcsWavefrontFn, lcs_wavefront_tiled,
                  dispatch::DType::kI32);
}

}  // namespace tvs::tiling
