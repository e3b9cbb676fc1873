// Ping-pong pair of grids for time-stepped Jacobi updates: `cur()` holds
// time step t, `next()` receives t+1, `swap()` advances.  The tiled kernels
// address the pair by time parity instead (`by_parity(t)`), which is the
// storage discipline that makes diamond tiling with in-register
// intermediates correct (see tiling/diamond.cpp).
#pragma once

#include <utility>

namespace tvs::grid {

template <class GridT>
class PingPong {
 public:
  PingPong() = default;
  template <class... Args>
  explicit PingPong(Args&&... args) : a_(args...), b_(args...) {}
  // Adopts two existing grids by move: `even` becomes parity 0, `odd`
  // parity 1 (tiling/pingpong_convert.hpp runs a caller's grid in place
  // this way and moves it back out of even() afterwards).
  PingPong(GridT&& even, GridT&& odd)
      : a_(std::move(even)), b_(std::move(odd)) {}

  GridT& cur() { return flipped_ ? b_ : a_; }
  GridT& next() { return flipped_ ? a_ : b_; }
  const GridT& cur() const { return flipped_ ? b_ : a_; }
  void swap() { flipped_ = !flipped_; }

  // Array holding values whose time coordinate has parity (t % 2).
  GridT& by_parity(long t) { return (t % 2 == 0) ? a_ : b_; }
  const GridT& by_parity(long t) const { return (t % 2 == 0) ? a_ : b_; }

  GridT& even() { return a_; }
  GridT& odd() { return b_; }

 private:
  GridT a_, b_;
  bool flipped_ = false;
};

}  // namespace tvs::grid
