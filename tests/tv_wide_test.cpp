// Eight-lane double backends: the AVX-512 VecD8 ops against the scalar
// model, and the vl = 8 temporal engines (8 time steps per tile) against
// the oracle — also on the pure scalar backend so the 8-level tile geometry
// is validated on any machine.
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"
#include "simd/reorg.hpp"
#include "simd/vec.hpp"
#include "stencil/reference2d.hpp"
#include "stencil/reference3d.hpp"
#include "tv/functors2d.hpp"
#include "tv/functors3d.hpp"
#include "tv/tv_plane_impl.hpp"

namespace {

using namespace tvs;

// vl = 8 engines through the registry's width axis (the AVX-512 native
// engines on an AVX-512 host, ScalarVec<double, 8> elsewhere).
template <class Fn>
Fn* at_vl8(std::string_view id) {
  return dispatch::KernelRegistry::instance().get_at<Fn>(
      id, dispatch::selected_backend(), 8);
}

#if defined(__AVX512F__)
TEST(VecD8, OpsMatchScalarModel) {
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> d(-10, 10);
  using I = simd::VecD8;
  using S = simd::ScalarVec<double, 8>;
  for (int it = 0; it < 300; ++it) {
    alignas(64) double a[8], b[8], c[8];
    for (int i = 0; i < 8; ++i) {
      a[i] = d(rng);
      b[i] = d(rng);
      c[i] = d(rng);
    }
    const auto ia = I::load(a), ib = I::load(b), ic = I::load(c);
    const auto sa = S::load(a), sb = S::load(b), sc = S::load(c);
    const auto chk = [](auto vi, auto vs) {
      for (int i = 0; i < 8; ++i) ASSERT_EQ(vi[i], vs[i]);
    };
    chk(ia + ib, sa + sb);
    chk(ia - ib, sa - sb);
    chk(ia * ib, sa * sb);
    chk(fma(ia, ib, ic), fma(sa, sb, sc));
    chk(min(ia, ib), min(sa, sb));
    chk(max(ia, ib), max(sa, sb));
    chk(rotate_up(ia), rotate_up(sa));
    chk(rotate_down(ia), rotate_down(sa));
    chk(shift_in_low(ia, c[0]), shift_in_low(sa, c[0]));
    chk(simd::shift_in_low_v(ia, ic), simd::shift_in_low_v(sa, sc));
    chk(blendv(ia, ib, cmpeq(ia, ia)), blendv(sa, sb, cmpeq(sa, sa)));
    chk(blendv(ia, ib, cmpeq(ia, ib)), blendv(sa, sb, cmpeq(sa, sb)));
    ASSERT_EQ(ia.extract<5>(), a[5]);
    chk(ia.insert<6>(42.0), sa.insert<6>(42.0));
    ASSERT_EQ(simd::top_lane(ia), a[7]);
  }
}

TEST(VecI16, OpsMatchScalarModel) {
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<std::int32_t> d(-100, 100);
  using I = simd::VecI16;
  using S = simd::ScalarVec<std::int32_t, 16>;
  for (int it = 0; it < 300; ++it) {
    alignas(64) std::int32_t a[16], b[16], c[16];
    for (int i = 0; i < 16; ++i) {
      a[i] = d(rng);
      b[i] = d(rng);
      c[i] = d(rng);
    }
    // Force some lane equalities so cmpeq hits both arms.
    a[it % 16] = b[it % 16];
    const auto ia = I::load(a), ib = I::load(b), ic = I::load(c);
    const auto sa = S::load(a), sb = S::load(b), sc = S::load(c);
    const auto chk = [](auto vi, auto vs) {
      for (int i = 0; i < 16; ++i) ASSERT_EQ(vi[i], vs[i]);
    };
    chk(ia + ib, sa + sb);
    chk(ia - ib, sa - sb);
    chk(ia * ib, sa * sb);
    chk(fma(ia, ib, ic), fma(sa, sb, sc));
    chk(min(ia, ib), min(sa, sb));
    chk(max(ia, ib), max(sa, sb));
    chk(cmpeq(ia, ib), cmpeq(sa, sb));
    chk(blendv(ia, ib, cmpeq(ia, ib)), blendv(sa, sb, cmpeq(sa, sb)));
    chk(rotate_up(ia), rotate_up(sa));
    chk(rotate_down(ia), rotate_down(sa));
    chk(shift_in_low(ia, c[0]), shift_in_low(sa, c[0]));
    chk(simd::shift_in_low_v(ia, ic), simd::shift_in_low_v(sa, sc));
    ASSERT_EQ(ia.extract<11>(), a[11]);
    chk(ia.insert<13>(42), sa.insert<13>(42));
    ASSERT_EQ(simd::top_lane(ia), a[15]);
  }
}

TEST(VecI16, CollectTops16) {
  using I = simd::VecI16;
  I ws[16];
  for (int j = 0; j < 16; ++j) {
    alignas(64) std::int32_t tmp[16] = {};
    tmp[15] = 100 + j;
    ws[j] = I::load(tmp);
  }
  const I t = simd::collect_tops_arr(ws);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(t[i], 100 + i);
}

TEST(VecF16, OpsMatchScalarModel) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> d(-10.0f, 10.0f);
  using I = simd::VecF16;
  using S = simd::ScalarVec<float, 16>;
  for (int it = 0; it < 300; ++it) {
    alignas(64) float a[16], b[16], c[16];
    for (int i = 0; i < 16; ++i) {
      a[i] = d(rng);
      b[i] = d(rng);
      c[i] = d(rng);
    }
    a[it % 16] = b[it % 16];  // exercise both cmpeq arms
    const auto ia = I::load(a), ib = I::load(b), ic = I::load(c);
    const auto sa = S::load(a), sb = S::load(b), sc = S::load(c);
    const auto chk = [](auto vi, auto vs) {
      for (int i = 0; i < 16; ++i) ASSERT_EQ(vi[i], vs[i]);
    };
    chk(ia + ib, sa + sb);
    chk(ia - ib, sa - sb);
    chk(ia * ib, sa * sb);
    chk(fma(ia, ib, ic), fma(sa, sb, sc));
    chk(min(ia, ib), min(sa, sb));
    chk(max(ia, ib), max(sa, sb));
    chk(rotate_up(ia), rotate_up(sa));
    chk(rotate_down(ia), rotate_down(sa));
    chk(shift_in_low(ia, c[0]), shift_in_low(sa, c[0]));
    chk(simd::shift_in_low_v(ia, ic), simd::shift_in_low_v(sa, sc));
    chk(blendv(ia, ib, cmpeq(ia, ia)), blendv(sa, sb, cmpeq(sa, sa)));
    chk(blendv(ia, ib, cmpeq(ia, ib)), blendv(sa, sb, cmpeq(sa, sb)));
    ASSERT_EQ(ia.extract<9>(), a[9]);
    chk(ia.insert<13>(42.0f), sa.insert<13>(42.0f));
    ASSERT_EQ(simd::top_lane(ia), a[15]);
  }
}

TEST(VecF16, CollectTops16) {
  using I = simd::VecF16;
  I ws[16];
  for (int j = 0; j < 16; ++j) {
    alignas(64) float tmp[16] = {};
    tmp[15] = 100.0f + static_cast<float>(j);
    ws[j] = I::load(tmp);
  }
  const I t = simd::collect_tops_arr(ws);
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(t[i], 100.0f + static_cast<float>(i));
}

TEST(VecD8, CollectTops8) {
  using I = simd::VecD8;
  I ws[8];
  for (int j = 0; j < 8; ++j) {
    alignas(64) double tmp[8] = {};
    tmp[7] = 100 + j;
    ws[j] = I::load(tmp);
  }
  const I t = simd::collect_tops(ws[0], ws[1], ws[2], ws[3], ws[4], ws[5],
                                 ws[6], ws[7]);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(t[i], 100 + i);
}
#endif

using GridD2 = grid::Grid2D<double>;
using GridD3 = grid::Grid3D<double>;

// (nx, ny, steps, stride): nx must cross the vl*s = 16s threshold.
using P = std::tuple<int, int, long, int>;
class TvWide2D : public ::testing::TestWithParam<P> {};

TEST_P(TvWide2D, NativeVl8MatchesOracleExactly) {
  const auto [nx, ny, steps, s] = GetParam();
  const stencil::C2D5 c{0.3, 0.2, 0.18, 0.17, 0.15};
  std::mt19937_64 rng(8000u + static_cast<unsigned>(nx * 3 + ny));
  GridD2 ref(nx, ny);
  ref.fill_random(rng, -1.0, 1.0);
  GridD2 got(nx, ny);
  for (int x = 0; x <= nx + 1; ++x)
    for (int y = 0; y <= ny + 1; ++y) got.at(x, y) = ref.at(x, y);
  stencil::jacobi2d5_run(c, ref, steps);
  at_vl8<dispatch::TvJacobi2D5Fn>(dispatch::kTvJacobi2D5)(c, got, steps, s);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0)
      << "nx=" << nx << " ny=" << ny << " steps=" << steps << " s=" << s;
}

TEST_P(TvWide2D, ScalarBackendVl8MatchesOracleExactly) {
  const auto [nx, ny, steps, s] = GetParam();
  const stencil::C2D9 c{0.2, 0.14, 0.12, 0.1, 0.09, 0.08, 0.09, 0.09, 0.09};
  std::mt19937_64 rng(9000u + static_cast<unsigned>(nx * 5 + ny));
  GridD2 ref(nx, ny);
  ref.fill_random(rng, -1.0, 1.0);
  GridD2 got(nx, ny);
  for (int x = 0; x <= nx + 1; ++x)
    for (int y = 0; y <= ny + 1; ++y) got.at(x, y) = ref.at(x, y);
  stencil::jacobi2d9_run(c, ref, steps);
  using S8 = simd::ScalarVec<double, 8>;
  tv::tv_plane_run<S8>(tv::J2D9F<S8>(c), got, steps, s);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TvWide2D,
    ::testing::Values(P{15, 9, 9, 2},   // below 16s: scalar fallback
                      P{32, 16, 8, 2},  // exactly one tile
                      P{33, 9, 16, 2}, P{40, 20, 9, 2}, P{64, 24, 17, 2},
                      P{70, 12, 24, 2}, P{50, 10, 8, 3}),
    [](const auto& info) {
      return "nx" + std::to_string(std::get<0>(info.param)) + "_ny" +
             std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param)) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

TEST(TvWide3D, Vl8MatchesOracleExactly) {
  const stencil::C3D7 c{0.28, 0.13, 0.12, 0.12, 0.11, 0.13, 0.11};
  for (const auto& [nx, ny, nz, steps] :
       {std::tuple{32, 8, 8, 8}, std::tuple{40, 10, 6, 17},
        std::tuple{15, 6, 6, 9}}) {
    std::mt19937_64 rng(9100u + static_cast<unsigned>(nx));
    GridD3 ref(nx, ny, nz);
    ref.fill_random(rng, -1.0, 1.0);
    GridD3 got(nx, ny, nz);
    for (int x = 0; x <= nx + 1; ++x)
      for (int y = 0; y <= ny + 1; ++y)
        for (int z = 0; z <= nz + 1; ++z) got.at(x, y, z) = ref.at(x, y, z);
    stencil::jacobi3d7_run(c, ref, steps);
    at_vl8<dispatch::TvJacobi3D7Fn>(dispatch::kTvJacobi3D7)(c, got, steps,
                                                              2);
    ASSERT_EQ(grid::max_abs_diff(ref, got), 0.0) << "nx=" << nx;
  }
}

}  // namespace
