// Rectangle tiling + anti-diagonal wavefront parallelization of the LCS
// dynamic program (Figure 5h; Table 1: 4096 x 4096 blocks).
//
// The DP matrix is split into row bands (over A) x column blocks (over B).
// Tile (bi, bj) depends on (bi-1, bj) and (bi, bj-1); all tiles on one
// anti-diagonal bi+bj run in parallel.  Following the paper, only the
// wavefront is stored: a global DP row (`lcsA`) plus one boundary column
// per block seam (`lcsB`), which feed the temporally vectorized 8-row strip
// kernel through its left-column/right-column hooks.
#pragma once

#include <cstdint>
#include <span>

#include "tiling/stage_exec.hpp"

namespace tvs::tiling {

struct LcsWavefrontOptions {
  int block = 4096;        // column-block width (Table 1)
  int band = 4096;         // row-band height
  bool use_vector = true;  // false: identical tiling, scalar DP rows
  // External stage executor (serving pool); nullptr = stage_run()'s
  // OpenMP loop.  Same tiles either way, bit-identical results.
  const StageExec* exec = nullptr;
};

std::int32_t lcs_wavefront(std::span<const std::int32_t> a,
                           std::span<const std::int32_t> b,
                           const LcsWavefrontOptions& opt = {});

}  // namespace tvs::tiling
