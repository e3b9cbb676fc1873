// Stencil functors plugged into the 1D temporal-vectorization tile
// (tv/tv1d_impl.hpp).  Coefficients are pre-broadcast at construction;
// `apply` and `apply_scalar` evaluate the canonical formulas of
// stencil/kernels.hpp over a window of 2R+1 operands, west-most first, so
// vector and scalar paths agree bit for bit.  Every functor is generic in
// the element type: T = V::value_type (double or float).
//
// `newest_west` is the stencil's dependence trait (tv/tile.hpp): false for
// Jacobi, whose operands are all of the previous level; true for
// Gauss-Seidel, whose west operands win[0 .. R-1] are the newest values,
// of the level being written.
#pragma once

#include "simd/vec.hpp"
#include "stencil/coefficients.hpp"
#include "stencil/kernels.hpp"

namespace tvs::tv {

template <class V>
struct J1D3F {
  using T = typename V::value_type;
  using value_type = T;
  static constexpr int radius = 1;
  static constexpr bool newest_west = false;
  V cw, cc, ce;
  stencil::C1D3T<T> c;

  explicit J1D3F(const stencil::C1D3T<T>& k)
      : cw(V::set1(k.w)), cc(V::set1(k.c)), ce(V::set1(k.e)), c(k) {}

  V apply(const V* win) const {
    return stencil::j1d3(cw, cc, ce, win[0], win[1], win[2]);
  }
  V apply3(V w, V ctr, V e) const { return stencil::j1d3(cw, cc, ce, w, ctr, e); }
  T apply_scalar(const T* win) const {
    return stencil::j1d3(c.w, c.c, c.e, win[0], win[1], win[2]);
  }
};

template <class V>
struct J1D5F {
  using T = typename V::value_type;
  using value_type = T;
  static constexpr int radius = 2;
  static constexpr bool newest_west = false;
  V cw2, cw1, cc, ce1, ce2;
  stencil::C1D5T<T> c;

  explicit J1D5F(const stencil::C1D5T<T>& k)
      : cw2(V::set1(k.w2)),
        cw1(V::set1(k.w1)),
        cc(V::set1(k.c)),
        ce1(V::set1(k.e1)),
        ce2(V::set1(k.e2)),
        c(k) {}

  V apply(const V* win) const {
    return stencil::j1d5(cw2, cw1, cc, ce1, ce2, win[0], win[1], win[2],
                         win[3], win[4]);
  }
  T apply_scalar(const T* win) const {
    return stencil::j1d5(c.w2, c.w1, c.c, c.e1, c.e2, win[0], win[1], win[2],
                         win[3], win[4]);
  }
};

// Gauss-Seidel 1D3P: the J1D3F formula (stencil::gs1d3 is j1d3) with
// win[0] the newest value at x-1.
template <class V>
struct Gs1D3F : J1D3F<V> {
  static constexpr bool newest_west = true;
  using J1D3F<V>::J1D3F;
};

}  // namespace tvs::tv
