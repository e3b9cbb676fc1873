// Property tests for the temporally vectorized LCS kernel: the final DP row
// must equal the scalar oracle cell for cell (integer arithmetic — exact).
#include <gtest/gtest.h>

#include <random>
#include <tuple>
#include <vector>

#include "kernel.hpp"
#include "simd/vec.hpp"
#include "stencil/lcs_ref.hpp"
#include "tv/tv_lcs.hpp"
#include "tv/tv_lcs_impl.hpp"

namespace {

using namespace tvs;

std::vector<std::int32_t> random_seq(int n, int alphabet, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int32_t> d(0, alphabet - 1);
  std::vector<std::int32_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = d(rng);
  return v;
}

using P = std::tuple<int, int, int>;  // na, nb, alphabet
class TvLcsSweep : public ::testing::TestWithParam<P> {};

TEST_P(TvLcsSweep, FinalRowMatchesOracle) {
  const auto [na, nb, alpha] = GetParam();
  const auto a = random_seq(na, alpha, 1000u + static_cast<unsigned>(na));
  const auto b = random_seq(nb, alpha, 2000u + static_cast<unsigned>(nb));
  const auto ref = stencil::lcs_ref_row(a, b);
  std::vector<std::int32_t> got(b.size() + 1 + tv::kLcsRowPad, 0);
  test::resolve<dispatch::TvLcsRowsFn>(dispatch::kTvLcsRows,
                                       dispatch::DType::kI32)(a, b, got.data());
  for (std::size_t i = 0; i <= b.size(); ++i)
    ASSERT_EQ(ref[i], got[i]) << "col " << i << " na=" << na << " nb=" << nb;
}

TEST_P(TvLcsSweep, ScalarBackendMatchesOracle) {
  const auto [na, nb, alpha] = GetParam();
  const auto a = random_seq(na, alpha, 3000u + static_cast<unsigned>(na));
  const auto b = random_seq(nb, alpha, 4000u + static_cast<unsigned>(nb));
  const auto ref = stencil::lcs_ref_row(a, b);
  std::vector<std::int32_t> row(b.size() + 1 + tv::kLcsRowPad, 0);
  if (!b.empty())
    tv::tv_lcs_rows_impl<simd::ScalarVec<std::int32_t, 8>>(a, b, row.data());
  for (std::size_t i = 0; i <= b.size(); ++i)
    ASSERT_EQ(ref[i], row[i]) << "col " << i << " na=" << na << " nb=" << nb;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TvLcsSweep,
    ::testing::Combine(
        // na: crossing the 8-row tile boundary; nb: crossing nb >= 9
        ::testing::Values(1, 3, 7, 8, 9, 16, 17, 33, 100),
        ::testing::Values(1, 4, 8, 9, 10, 17, 40, 129), ::testing::Values(2, 4)),
    [](const auto& info) {
      return "na" + std::to_string(std::get<0>(info.param)) + "_nb" +
             std::to_string(std::get<1>(info.param)) + "_a" +
             std::to_string(std::get<2>(info.param));
    });

// The last cell of the final row is the LCS length: known cases, an empty
// A, identical and disjoint sequences, a subsequence embedded in junk, and
// a large random pair against the oracle's length.
TEST(TvLcs, LengthsMatchKnownCases) {
  struct Case {
    std::vector<std::int32_t> a, b;
    std::int32_t want;
  };
  const std::vector<std::int32_t> a{1, 2, 3, 4, 1};
  const std::vector<std::int32_t> b{3, 4, 1, 2, 1, 3};
  const auto same = random_seq(200, 4, 7);
  // b = a with junk interleaved -> lcs == |a|.
  const auto sub = random_seq(64, 3, 11);
  std::vector<std::int32_t> embed;
  for (const auto v : sub) embed.insert(embed.end(), {9, v, 8});
  const auto la = random_seq(1000, 4, 21);
  const auto lb = random_seq(1500, 4, 22);
  const std::vector<Case> cases{
      {a, b, 3},
      {a, a, 5},
      {{}, b, 0},
      {same, same, 200},
      {std::vector<std::int32_t>(50, 1), std::vector<std::int32_t>(70, 2), 0},
      {sub, embed, 64},
      {la, lb, stencil::lcs_ref(la, lb)}};
  auto* const rows = test::resolve<dispatch::TvLcsRowsFn>(
      dispatch::kTvLcsRows, dispatch::DType::kI32);
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const Case& c = cases[k];
    std::vector<std::int32_t> row(c.b.size() + 1 + tv::kLcsRowPad, 0);
    rows(c.a, c.b, row.data());
    EXPECT_EQ(row[c.b.size()], c.want) << "case " << k;
  }
}

}  // namespace
