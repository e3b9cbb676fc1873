// Unit tests for the grid substrate: alignment, index mapping, padding,
// ping-pong discipline.
#include <gtest/gtest.h>

#include "tolerance.hpp"

#include <algorithm>
#include <cstdint>
#include <random>

#include "grid/grid1d.hpp"
#include "grid/grid2d.hpp"
#include "grid/grid3d.hpp"
#include "grid/pingpong.hpp"

namespace {

using namespace tvs::grid;

TEST(AlignedBuffer, AlignmentAndValueInit) {
  AlignedBuffer<double> b(37);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kAlignment, 0u);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], 0.0);
  EXPECT_EQ(b.size(), 37u);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(8);
  a[3] = 42;
  AlignedBuffer<int> b = std::move(a);
  EXPECT_EQ(b[3], 42);
  EXPECT_EQ(a.data(), nullptr);
}

// Zero contents and 64-byte alignment below glibc's heap/mmap split (a
// heap block) and above its largest mmap threshold (a fresh mapping).
void expect_zeroed_and_aligned(std::size_t bytes) {
  const std::size_t n = bytes / sizeof(double);
  const AlignedBuffer<double> b(n);
  ASSERT_EQ(b.size(), n);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kAlignment, 0u);
  EXPECT_TRUE(std::all_of(b.data(), b.data() + n,
                          [](double v) { return v == 0.0; }));
}

TEST(AlignedBuffer, SmallBlockZeroedAndAligned) {
  expect_zeroed_and_aligned(std::size_t{100} << 10);  // 100 KiB
}

TEST(AlignedBuffer, LargeBlockZeroedAndAligned) {
  expect_zeroed_and_aligned(std::size_t{40} << 20);  // 40 MiB
}

TEST(AlignedBuffer, RecycledBlockIsZeroedAgain) {
  constexpr std::size_t kN = 4096;
  for (int round = 0; round < 3; ++round) {
    AlignedBuffer<double> b(kN);
    ASSERT_TRUE(std::all_of(b.data(), b.data() + kN,
                            [](double v) { return v == 0.0; }))
        << "round " << round;
    std::fill(b.data(), b.data() + kN, 3.5);  // freed dirty at scope end
  }
}

TEST(AlignedBuffer, MoveLeavesSourceEmptyAndFreesOnce) {
  AlignedBuffer<float> a(64);
  const float* pa = a.data();
  AlignedBuffer<float> b(std::move(a));
  EXPECT_EQ(b.data(), pa);
  EXPECT_EQ(b.size(), 64u);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);

  AlignedBuffer<float> c(16);  // its block is freed by the assignment
  c = std::move(b);
  EXPECT_EQ(c.data(), pa);
  EXPECT_EQ(c.size(), 64u);
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(b.size(), 0u);
  // a, b and c destruct here: one free of pa, none of the empty sources
  // (the ASan tier reports a double or missing free).
}

TEST(Grid1D, IndexingAndPadding) {
  Grid1D<double> g(10);
  EXPECT_EQ(g.nx(), 10);
  EXPECT_EQ(g.extent(), 12);
  // Padding cells are addressable on both sides.
  g.at(-kPad) = 1.0;
  g.at(10 + 1 + kPad) = 2.0;
  EXPECT_EQ(g.at(-kPad), 1.0);
  EXPECT_EQ(g.at(11 + kPad), 2.0);
  // p() is anchored at x = 0.
  g.at(0) = 7.0;
  EXPECT_EQ(g.p()[0], 7.0);
  g.at(5) = 8.0;
  EXPECT_EQ(g.p()[5], 8.0);
}

TEST(Grid1D, FillAndDiff) {
  Grid1D<double> a(16), b(16);
  a.fill(3.0);
  b.fill(3.0);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
  b.at(7) = 4.5;
  EXPECT_TRUE(tvs::test::near_ulp(max_abs_diff(a, b), 1.5));
}

TEST(GridOffsets, MatchPointerArithmeticOnSmallGrids) {
  Grid2D<double> g2(6, 9);
  for (int x = 0; x <= 7; ++x)
    for (int y = -kPad; y <= 10 + kPad; ++y)
      EXPECT_EQ(&g2.at(x, y), g2.row(x) + y) << x << "," << y;
  EXPECT_EQ(g2.offset(3, 4) - g2.offset(3, 0), 4);
  EXPECT_EQ(g2.offset(4, 0) - g2.offset(3, 0), g2.stride());

  Grid3D<double> g3(4, 5, 6);
  for (int x = 0; x <= 5; ++x)
    for (int y = 0; y <= 6; ++y)
      for (int z = -kPad; z <= 7 + kPad; ++z)
        EXPECT_EQ(&g3.at(x, y, z), g3.line(x, y) + z);
  EXPECT_EQ(g3.offset(1, 2, 3) - g3.offset(1, 2, 0), 3);
  EXPECT_EQ(g3.offset(1, 3, 0) - g3.offset(1, 2, 0), g3.zstride());

  Grid1D<double> g1(12);
  EXPECT_EQ(g1.offset(5) - g1.offset(0), 5);
  EXPECT_EQ(g1.offset(-kPad), 0);
}

// Regression: offsets are computed in std::ptrdiff_t, not int.  A grid of
// nx * ny >= 2^31 elements (46341^2 doubles ~ 16 GiB — far too large to
// allocate here) used to overflow 32-bit offset math; the static layout
// helpers let the arithmetic be checked without the allocation.
TEST(GridOffsets, No32BitOverflowNearTheBoundary) {
  {
    // stride for ny = 46341 doubles: rounded up to a multiple of 8.
    const std::ptrdiff_t stride = 46344;
    const int x = 46340, y = 46340;
    const std::ptrdiff_t expect =
        static_cast<std::ptrdiff_t>(x) * stride + y + kPad;
    ASSERT_GT(expect, std::ptrdiff_t{1} << 31);  // would wrap in int math
    EXPECT_EQ(Grid2D<double>::linear_offset(x, y, stride), expect);
    // int32 cells hit the same boundary at the same element count.
    EXPECT_EQ(Grid2D<std::int32_t>::linear_offset(x, y, stride), expect);
  }
  {
    const std::ptrdiff_t zstride = 2064;  // nz = 2048 + 2 + 2*kPad rounded
    const std::ptrdiff_t ystride = zstride * 1300;
    const int x = 1290, y = 1290, z = 2040;
    const std::ptrdiff_t expect = static_cast<std::ptrdiff_t>(x) * ystride +
                                  static_cast<std::ptrdiff_t>(y) * zstride +
                                  z + kPad;
    ASSERT_GT(expect, std::ptrdiff_t{1} << 31);
    EXPECT_EQ(Grid3D<double>::linear_offset(x, y, z, ystride, zstride),
              expect);
  }
}

TEST(Grid1D, FillRandomCoversBoundaryCells) {
  std::mt19937_64 rng(1);
  Grid1D<double> g(8);
  g.fill_random(rng, 1.0, 2.0);
  for (int x = 0; x <= 9; ++x) {
    EXPECT_GE(g.at(x), 1.0);
    EXPECT_LE(g.at(x), 2.0);
  }
}

TEST(Grid2D, IndexingRowPointersStride) {
  Grid2D<double> g(4, 6);
  EXPECT_EQ(g.nx(), 4);
  EXPECT_EQ(g.ny(), 6);
  EXPECT_GE(g.stride(), 6 + 2 + 2 * kPad);
  g.at(2, 3) = 5.0;
  EXPECT_EQ(g.row(2)[3], 5.0);
  g.at(3, 0) = -1.0;
  EXPECT_EQ(g.row(3)[0], -1.0);
  // Distinct cells do not alias.
  g.at(1, 1) = 1.0;
  g.at(1, 2) = 2.0;
  g.at(2, 1) = 3.0;
  EXPECT_EQ(g.at(1, 1), 1.0);
  EXPECT_EQ(g.at(1, 2), 2.0);
  EXPECT_EQ(g.at(2, 1), 3.0);
}

TEST(Grid2D, PaddedColumnsAddressable) {
  Grid2D<std::int32_t> g(3, 5);
  g.at(1, -kPad) = 11;
  g.at(3, 5 + 1 + kPad) = 22;
  EXPECT_EQ(g.at(1, -kPad), 11);
  EXPECT_EQ(g.at(3, 6 + kPad), 22);
}

TEST(Grid3D, IndexingLinePointers) {
  Grid3D<double> g(3, 4, 5);
  g.at(1, 2, 3) = 9.0;
  EXPECT_EQ(g.line(1, 2)[3], 9.0);
  g.at(3, 4, 0) = 1.0;
  g.at(3, 4, 6) = 2.0;
  EXPECT_EQ(g.at(3, 4, 0), 1.0);
  EXPECT_EQ(g.at(3, 4, 6), 2.0);
  // All distinct interior cells hold distinct values after fill.
  int v = 0;
  for (int x = 0; x <= 4; ++x)
    for (int y = 0; y <= 5; ++y)
      for (int z = 0; z <= 6; ++z) g.at(x, y, z) = v++;
  v = 0;
  for (int x = 0; x <= 4; ++x)
    for (int y = 0; y <= 5; ++y)
      for (int z = 0; z <= 6; ++z) EXPECT_EQ(g.at(x, y, z), v++);
}

TEST(Grid3D, MaxAbsDiff) {
  Grid3D<double> a(2, 2, 2), b(2, 2, 2);
  a.fill(1.0);
  b.fill(1.0);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
  b.at(2, 1, 2) = 3.5;
  EXPECT_TRUE(tvs::test::near_ulp(max_abs_diff(a, b), 2.5));
}

TEST(PingPong, SwapAndParity) {
  PingPong<Grid1D<double>> pp(4);
  pp.even().fill(1.0);
  pp.odd().fill(2.0);
  EXPECT_EQ(pp.cur().at(1), 1.0);
  EXPECT_EQ(pp.next().at(1), 2.0);
  pp.swap();
  EXPECT_EQ(pp.cur().at(1), 2.0);
  EXPECT_EQ(pp.next().at(1), 1.0);
  EXPECT_EQ(pp.by_parity(0).at(1), 1.0);
  EXPECT_EQ(pp.by_parity(1).at(1), 2.0);
  EXPECT_EQ(pp.by_parity(8).at(1), 1.0);
}

TEST(PingPong, AdoptsGridsByMove) {
  Grid2D<double> even(6, 5), odd(6, 5);
  even.at(2, 3) = 1.5;
  odd.at(2, 3) = 2.5;
  const double* pe = even.row(0);
  const double* po = odd.row(0);
  PingPong<Grid2D<double>> pp(std::move(even), std::move(odd));
  EXPECT_EQ(pp.even().row(0), pe);
  EXPECT_EQ(pp.odd().row(0), po);
  EXPECT_EQ(pp.by_parity(0).at(2, 3), 1.5);
  EXPECT_EQ(pp.by_parity(1).at(2, 3), 2.5);
  Grid2D<double> back = std::move(pp.even());
  EXPECT_EQ(back.row(0), pe);
  EXPECT_EQ(back.nx(), 6);
  EXPECT_EQ(back.ny(), 5);
}

}  // namespace
