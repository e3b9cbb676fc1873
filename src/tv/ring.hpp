// Ring-buffer index arithmetic shared by every temporal-vectorization
// engine (§3 of the paper: the "s + r live input vectors" of the Jacobi
// scheme, the "s live positions" of Gauss-Seidel).
//
// The 1D tile keeps its ring in a fixed-capacity std::array of
// kRingCapacity vectors, the plane tile in a ring of slabs; both walk it
// with the modular slot/inc math below.  Centralizing the math here serves
// two purposes:
//   * one definition for both tiles (flat, diamond and parallelogram) of
//     both families instead of per-file lambdas;
//   * the math is constexpr, so tests/ring_bounds_static.cpp can replay
//     every engine's gather/steady/flush index sequence at compile time and
//     static_assert that no legal (dtype, vl, stride) combo ever indexes
//     outside the ring (see util/checked_idx.hpp).
#pragma once

namespace tvs::tv {

// Largest legal space stride s accepted by the 1D engines (the planner's
// validate_plan rejects larger ones via stencil::require_legal_stride).
inline constexpr int kMaxStride = 32;

// Capacity of the fixed-size rings.  The largest period in the tree is the
// Jacobi 1D5P ring, M = s + R <= kMaxStride + 2 at R = 2 — exactly this
// bound, which ring_bounds_static proves for every registered combo.
inline constexpr int kRingCapacity = kMaxStride + 2;

// The west lag of a tile's ring: how far west of the top position x the
// steady loop's window reaches into the ring.  A Jacobi window reads
// positions x-R .. x+R from the ring; a newest-west (Gauss-Seidel) window
// takes x-R .. x-1 from the previous output vectors, so its ring part
// starts at x.  The lag fixes the ring period: the 1D ring holds the
// s + lag live input vectors of positions x-lag .. x+s-1, the plane ring
// the s + lag + 1 slabs x-lag .. x+s.
constexpr int west_lag(int radius, bool newest_west) {
  return newest_west ? 0 : radius;
}
constexpr int line_ring_period(int s, int lag) { return s + lag; }
constexpr int slab_ring_period(int s, int lag) { return s + lag + 1; }

// Modular index arithmetic for a ring of `period` slots.  Positions p are
// arbitrary ints (gathers start at x_begin - R, and diamond/parallelogram
// tile bases can sit left of the domain, so p can be negative); slots are
// canonical, 0 <= slot < period.
class RingIndex {
 public:
  explicit constexpr RingIndex(int period) : m_(period) {}
  constexpr int period() const { return m_; }
  // Slot of ring position p (double-mod so negative p wraps correctly).
  constexpr int slot(int p) const { return ((p % m_) + m_) % m_; }
  // Successor of slot i (requires 0 <= i < period).
  constexpr int inc(int i) const { return i + 1 == m_ ? 0 : i + 1; }

 private:
  int m_;
};

}  // namespace tvs::tv
