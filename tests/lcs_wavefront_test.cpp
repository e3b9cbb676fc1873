// The block-wavefront parallel LCS must agree with the scalar DP oracle for
// every block geometry, including blocks that do not divide the input and
// blocks too narrow for the vector strip kernel, on every stage executor
// (stage_execs.hpp).
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "stage_execs.hpp"
#include "stencil/lcs_ref.hpp"
#include "tiling/lcs_wavefront.hpp"

namespace {

using namespace tvs;

std::vector<std::int32_t> random_seq(int n, int alphabet, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int32_t> d(0, alphabet - 1);
  std::vector<std::int32_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = d(rng);
  return v;
}

// (na, nb, block, band)
using P = std::tuple<int, int, int, int>;
class LcsWavefrontSweep : public ::testing::TestWithParam<P> {};

TEST_P(LcsWavefrontSweep, MatchesOracle) {
  const auto [na, nb, blk, band] = GetParam();
  const auto a = random_seq(na, 4, 6000u + static_cast<unsigned>(na));
  const auto b = random_seq(nb, 4, 7000u + static_cast<unsigned>(nb));
  const std::int32_t want = stencil::lcs_ref(a, b);
  for (const tiling::StageExec* exec : test::kStageExecs) {
    tiling::LcsWavefrontOptions opt;
    opt.block = blk;
    opt.band = band;
    opt.exec = exec;
    EXPECT_EQ(tiling::lcs_wavefront(a, b, opt), want)
        << "na=" << na << " nb=" << nb << " blk=" << blk << " band=" << band
        << " exec=" << test::exec_name(exec);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LcsWavefrontSweep,
    ::testing::Values(P{100, 100, 16, 16}, P{257, 129, 32, 64},
                      P{64, 300, 64, 16}, P{300, 64, 16, 64},
                      P{1000, 777, 100, 128}, P{33, 17, 16, 16},
                      P{8, 9, 16, 16}, P{500, 500, 4096, 4096},
                      P{129, 1025, 128, 32}),
    [](const auto& info) {
      return "na" + std::to_string(std::get<0>(info.param)) + "_nb" +
             std::to_string(std::get<1>(info.param)) + "_blk" +
             std::to_string(std::get<2>(info.param)) + "_band" +
             std::to_string(std::get<3>(info.param));
    });

TEST(LcsWavefront, IdenticalAndDisjoint) {
  const auto a = random_seq(400, 3, 42);
  tiling::LcsWavefrontOptions opt;
  opt.block = 64;
  opt.band = 32;
  EXPECT_EQ(tiling::lcs_wavefront(a, a, opt), 400);
  std::vector<std::int32_t> c(300, 7), d(200, 8);
  EXPECT_EQ(tiling::lcs_wavefront(c, d, opt), 0);
  EXPECT_EQ(tiling::lcs_wavefront(a, {}, opt), 0);
}

}  // namespace
