// Identity check of the f32 diamond drivers, shared by diamond1d_test and
// parallel2d3d_test.
//
// The f32 drivers are registry entries under the Jacobi diamond ids
// (dtype kF32, 8-lane float tiles); the planner routes float problems to
// them.  For steps 7, 8, 9, 16 and 17 — a residual only, one band, one
// band plus a residual step, two bands, two bands plus one — the tiled
// result must equal the serial float engine exactly and the float oracle
// within the scaled-ULP contract, with vector and scalar tiles, on every
// stage executor of stage_execs.hpp.
#pragma once

#include <gtest/gtest.h>

#include <random>
#include <string_view>

#include "dispatch/registry.hpp"
#include "stage_execs.hpp"
#include "tiling/pingpong_convert.hpp"
#include "tolerance.hpp"

namespace tvs::test {

// make(t) returns a fresh, identically filled float grid; oracle(u, t) and
// engine(u, t) advance one by t steps with the float oracle and the serial
// float engine; Fn is the driver's f32 signature (dispatch/kernels.hpp).
template <class Fn, class Opt, class C, class Make, class Oracle,
          class Engine>
void expect_f32_diamond(std::string_view id, const C& c, Opt base, Make make,
                        Oracle oracle, Engine engine) {
  Fn* const driver = dispatch::KernelRegistry::instance().get_at<Fn>(
      id, dispatch::selected_backend(), dispatch::kAnyVl,
      dispatch::DType::kF32);
  for (const long steps : {7L, 8L, 9L, 16L, 17L}) {
    auto want = make(steps), exact = make(steps);
    oracle(want, steps);
    engine(exact, steps);
    for (const bool use_vector : {true, false})
      for (const tiling::StageExec* exec : kStageExecs) {
        SCOPED_TRACE(::testing::Message()
                     << id << " steps=" << steps << " use_vector="
                     << use_vector << " exec=" << exec_name(exec));
        Opt opt = base;
        opt.use_vector = use_vector;
        opt.exec = exec;
        auto got = make(steps);
        tiling::with_pingpong(got, steps,
                              [&](auto& pp) { driver(c, pp, steps, opt); });
        EXPECT_EQ(grid::max_abs_diff(got, exact), 0.0);
        EXPECT_TRUE(grids_allclose(got, want));
      }
  }
}

// A maker of G(n...) float grids with values in [-1, 1], seeded by
// seed + steps.
template <class G, class... Extents>
auto float_grid(unsigned seed, Extents... n) {
  return [=](long steps) {
    std::mt19937_64 rng(seed + static_cast<unsigned>(steps));
    G g(n...);
    g.fill_random(rng, -1.0f, 1.0f);
    return g;
  };
}

}  // namespace tvs::test
