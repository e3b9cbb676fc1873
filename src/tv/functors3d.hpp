// Stencil functors for the plane tile (tv/tv_plane_impl.hpp) on 3D grids.
// `newest_west` is the dependence trait (tv/tile.hpp): false for Jacobi,
// true for Gauss-Seidel, whose west (z-1) operand comes as a value and
// whose window xm / ym lines hold the newest back / south values.
#pragma once

#include "simd/vec.hpp"
#include "stencil/coefficients.hpp"
#include "stencil/kernels.hpp"
#include "tv/tile.hpp"

namespace tvs::tv {

template <class V>
struct J3D7F {
  using T = typename V::value_type;
  using value_type = T;
  static constexpr int radius = 1;
  static constexpr bool newest_west = false;
  V cc, cw, ce, cs, cn, cb, cf;
  stencil::C3D7T<T> c;

  explicit J3D7F(const stencil::C3D7T<T>& k)
      : cc(V::set1(k.c)),
        cw(V::set1(k.w)),
        ce(V::set1(k.e)),
        cs(V::set1(k.s)),
        cn(V::set1(k.n)),
        cb(V::set1(k.b)),
        cf(V::set1(k.f)),
        c(k) {}

  V apply(const LineWindow<V>& w, int z) const {
    return stencil::j3d7(cc, cw, ce, cs, cn, cb, cf, w.c[z], w.c[z - 1],
                         w.c[z + 1], w.ym[z], w.yp[z], w.xm[z], w.xp[z]);
  }
  template <class At>
  T apply_scalar(At&& at, int r, int y, int z) const {
    return stencil::j3d7(c.c, c.w, c.e, c.s, c.n, c.b, c.f, at(r, y, z),
                         at(r, y, z - 1), at(r, y, z + 1), at(r, y - 1, z),
                         at(r, y + 1, z), at(r - 1, y, z), at(r + 1, y, z));
  }

  // Redundancy-eliminated line carry (`re` engines, arXiv:2103.09235
  // restricted to bit-exact operand reuse): the three center-line operands
  // slide across consecutive z in registers, so each center-line ring
  // vector is loaded once instead of three times.  Canonical j3d7 operand
  // order preserved — bit-identical to apply().  Seeded for an inner loop
  // starting at z = 1.
  struct Carry {
    V dm, d0;
    explicit Carry(const LineWindow<V>& w) : dm(w.c[0]), d0(w.c[1]) {}
    V apply(const J3D7F& f, const LineWindow<V>& w, int z) {
      const V dp = w.c[z + 1];
      const V v = stencil::j3d7(f.cc, f.cw, f.ce, f.cs, f.cn, f.cb, f.cf, d0,
                                dm, dp, w.ym[z], w.yp[z], w.xm[z], w.xp[z]);
      dm = d0;
      d0 = dp;
      return v;
    }
  };
};

// Gauss-Seidel 3D7P over (west, window): the window's xm line holds the
// newest values of plane x-1 (the back operand) and its ym line the newest
// values of line y-1 (the south operand); c, xp and yp are old values.
// `west` is the newest value at z-1.
template <class V>
struct Gs3D7F {
  using T = typename V::value_type;
  using value_type = T;
  static constexpr int radius = 1;
  static constexpr bool newest_west = true;
  V cc, cw, ce, cs, cn, cb, cf;
  stencil::C3D7T<T> c;

  explicit Gs3D7F(const stencil::C3D7T<T>& k)
      : cc(V::set1(k.c)),
        cw(V::set1(k.w)),
        ce(V::set1(k.e)),
        cs(V::set1(k.s)),
        cn(V::set1(k.n)),
        cb(V::set1(k.b)),
        cf(V::set1(k.f)),
        c(k) {}

  V apply(V west, const LineWindow<V>& w, int z) const {
    return stencil::gs3d7(cc, cw, ce, cs, cn, cb, cf, w.c[z], west,
                          w.c[z + 1], w.ym[z], w.yp[z], w.xm[z], w.xp[z]);
  }
  T apply_scalar(T west, const LineWindow<T>& w, int z) const {
    return stencil::gs3d7(c.c, c.w, c.e, c.s, c.n, c.b, c.f, w.c[z], west,
                          w.c[z + 1], w.ym[z], w.yp[z], w.xm[z], w.xp[z]);
  }
};

}  // namespace tvs::tv
