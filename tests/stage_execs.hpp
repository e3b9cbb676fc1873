// Stage executors for the tiled-driver identity tests (tiling/
// stage_exec.hpp).  Every tiled driver must give the same result on each:
//   nullptr       the OpenMP loop of stage_run();
//   kInlineExec   every body in order, n-1 after n-2, on the calling thread;
//   kReverseExec  the bodies in reverse order, n-1 ... 0, the slot rotating
//                 over kReverseSlots.
// An in-order executor hides a dependence between two tiles of one stage
// (tile k reading what tile k-1 wrote in the same stage); running the stage
// backwards exposes it, and the rotating slot exposes scratch that one
// tile leaves for the next.
#pragma once

#include <array>

#include "tiling/stage_exec.hpp"

namespace tvs::test {

inline void run_inline(void*, int n, void (*body)(void*, int, int),
                       void* ctx) {
  for (int i = 0; i < n; ++i) body(ctx, i, 0);
}

inline constexpr int kReverseSlots = 3;

inline void run_reverse(void*, int n, void (*body)(void*, int, int),
                        void* ctx) {
  for (int i = n - 1; i >= 0; --i)
    body(ctx, i, (n - 1 - i) % kReverseSlots);
}

inline constexpr tiling::StageExec kInlineExec{nullptr, 1, run_inline};
inline constexpr tiling::StageExec kReverseExec{nullptr, kReverseSlots,
                                                run_reverse};

inline constexpr std::array<const tiling::StageExec*, 3> kStageExecs{
    nullptr, &kInlineExec, &kReverseExec};

// The executor's name, for test traces.
inline const char* exec_name(const tiling::StageExec* ex) {
  return ex == nullptr ? "omp" : ex == &kInlineExec ? "inline" : "reverse";
}

}  // namespace tvs::test
