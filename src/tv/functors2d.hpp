// Stencil functors for the plane tile (tv/tv_plane_impl.hpp) on 2D grids.
// A 2D plane is one line, so the line window's ym / yp alias its centre
// line and these functors read only xm, c and xp; the scalar forms read
// line y of `at` only.  `newest_west` is the dependence trait
// (tv/tile.hpp): false for Jacobi and Life, true for Gauss-Seidel, whose
// west (z-1) operand comes as a value and whose window xm line holds the
// newest values.
#pragma once

#include <cstdint>

#include "simd/vec.hpp"
#include "stencil/coefficients.hpp"
#include "stencil/kernels.hpp"
#include "tv/tile.hpp"

namespace tvs::tv {

template <class V>
struct J2D5F {
  using T = typename V::value_type;
  using value_type = T;
  static constexpr int radius = 1;
  static constexpr bool newest_west = false;
  V cc, cw, ce, cs, cn;
  stencil::C2D5T<T> c;

  explicit J2D5F(const stencil::C2D5T<T>& k)
      : cc(V::set1(k.c)),
        cw(V::set1(k.w)),
        ce(V::set1(k.e)),
        cs(V::set1(k.s)),
        cn(V::set1(k.n)),
        c(k) {}

  V apply(const LineWindow<V>& w, int z) const {
    return stencil::j2d5(cc, cw, ce, cs, cn, w.c[z], w.c[z - 1], w.c[z + 1],
                         w.xm[z], w.xp[z]);
  }
  template <class At>
  T apply_scalar(At&& at, int r, int y, int z) const {
    return stencil::j2d5(c.c, c.w, c.e, c.s, c.n, at(r, y, z),
                         at(r, y, z - 1), at(r, y, z + 1), at(r - 1, y, z),
                         at(r + 1, y, z));
  }

  // Redundancy-eliminated column carry (`re` engines, arXiv:2103.09235
  // restricted to bit-exact operand reuse): the three center-line operands
  // slide across consecutive z in registers, so each ring vector is loaded
  // once instead of three times.  The canonical j2d5 operand order is
  // unchanged — results stay bit-identical to apply().  Seeded for an
  // inner loop starting at z = 1.
  struct Carry {
    V cm, c0;
    explicit Carry(const LineWindow<V>& w) : cm(w.c[0]), c0(w.c[1]) {}
    V apply(const J2D5F& f, const LineWindow<V>& w, int z) {
      const V cp = w.c[z + 1];
      const V v = stencil::j2d5(f.cc, f.cw, f.ce, f.cs, f.cn, c0, cm, cp,
                                w.xm[z], w.xp[z]);
      cm = c0;
      c0 = cp;
      return v;
    }
  };
};

template <class V>
struct J2D9F {
  using T = typename V::value_type;
  using value_type = T;
  static constexpr int radius = 1;
  static constexpr bool newest_west = false;
  V cc, cw, ce, cs, cn, csw, cse, cnw, cne;
  stencil::C2D9T<T> c;

  explicit J2D9F(const stencil::C2D9T<T>& k)
      : cc(V::set1(k.c)),
        cw(V::set1(k.w)),
        ce(V::set1(k.e)),
        cs(V::set1(k.s)),
        cn(V::set1(k.n)),
        csw(V::set1(k.sw)),
        cse(V::set1(k.se)),
        cnw(V::set1(k.nw)),
        cne(V::set1(k.ne)),
        c(k) {}

  V apply(const LineWindow<V>& w, int z) const {
    return stencil::j2d9(cc, cw, ce, cs, cn, csw, cse, cnw, cne, w.c[z],
                         w.c[z - 1], w.c[z + 1], w.xm[z], w.xp[z],
                         w.xm[z - 1], w.xm[z + 1], w.xp[z - 1], w.xp[z + 1]);
  }
  template <class At>
  T apply_scalar(At&& at, int r, int y, int z) const {
    return stencil::j2d9(c.c, c.w, c.e, c.s, c.n, c.sw, c.se, c.nw, c.ne,
                         at(r, y, z), at(r, y, z - 1), at(r, y, z + 1),
                         at(r - 1, y, z), at(r + 1, y, z),
                         at(r - 1, y, z - 1), at(r - 1, y, z + 1),
                         at(r + 1, y, z - 1), at(r + 1, y, z + 1));
  }

  // Redundancy-eliminated column carry: all nine window operands slide in
  // registers (three fresh loads per z instead of nine), canonical j2d9
  // order preserved — bit-identical to apply().  a/b/c = xm/c/xp lines,
  // m/0 suffix = columns z-1 / z.  Seeded for an inner loop at z = 1.
  struct Carry {
    V am, a0, bm, b0, cm, c0;
    explicit Carry(const LineWindow<V>& w)
        : am(w.xm[0]),
          a0(w.xm[1]),
          bm(w.c[0]),
          b0(w.c[1]),
          cm(w.xp[0]),
          c0(w.xp[1]) {}
    V apply(const J2D9F& f, const LineWindow<V>& w, int z) {
      const V ap = w.xm[z + 1];
      const V bp = w.c[z + 1];
      const V cp = w.xp[z + 1];
      const V v = stencil::j2d9(f.cc, f.cw, f.ce, f.cs, f.cn, f.csw, f.cse,
                                f.cnw, f.cne, b0, bm, bp, a0, c0, am, ap, cm,
                                cp);
      am = a0;
      a0 = ap;
      bm = b0;
      b0 = bp;
      cm = c0;
      c0 = cp;
      return v;
    }
  };
};

template <class V>
struct LifeF {
  static constexpr int radius = 1;
  static constexpr bool newest_west = false;
  using value_type = std::int32_t;
  stencil::LifeRule rule;

  explicit LifeF(const stencil::LifeRule& r) : rule(r) {}

  V apply(const LineWindow<V>& w, int z) const {
    const V sum = w.c[z - 1] + w.c[z + 1] + w.xm[z - 1] + w.xm[z] +
                  w.xm[z + 1] + w.xp[z - 1] + w.xp[z] + w.xp[z + 1];
    return stencil::life_rule_v(rule, w.c[z], sum);
  }
  template <class At>
  std::int32_t apply_scalar(At&& at, int r, int y, int z) const {
    const std::int32_t sum =
        at(r, y, z - 1) + at(r, y, z + 1) + at(r - 1, y, z - 1) +
        at(r - 1, y, z) + at(r - 1, y, z + 1) + at(r + 1, y, z - 1) +
        at(r + 1, y, z) + at(r + 1, y, z + 1);
    return stencil::life_rule(rule, at(r, y, z), sum);
  }
};

// Gauss-Seidel 2D5P over (west, window): the window's xm line holds the
// newest values of row x-1 (the `s` operand), c / xp the old rows x and
// x+1; `west` is the newest value at column z-1.  A one-line plane has no
// newest-south line: ym is ignored.
template <class V>
struct Gs2D5F {
  using T = typename V::value_type;
  using value_type = T;
  static constexpr int radius = 1;
  static constexpr bool newest_west = true;
  V cc, cw, ce, cs, cn;
  stencil::C2D5T<T> c;

  explicit Gs2D5F(const stencil::C2D5T<T>& k)
      : cc(V::set1(k.c)),
        cw(V::set1(k.w)),
        ce(V::set1(k.e)),
        cs(V::set1(k.s)),
        cn(V::set1(k.n)),
        c(k) {}

  V apply(V west, const LineWindow<V>& w, int z) const {
    return stencil::gs2d5(cc, cw, ce, cs, cn, w.c[z], west, w.c[z + 1],
                          w.xm[z], w.xp[z]);
  }
  T apply_scalar(T west, const LineWindow<T>& w, int z) const {
    return stencil::gs2d5(c.c, c.w, c.e, c.s, c.n, w.c[z], west, w.c[z + 1],
                          w.xm[z], w.xp[z]);
  }
};

}  // namespace tvs::tv
