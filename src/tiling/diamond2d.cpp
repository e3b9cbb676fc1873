// 2D diamond driver; see diamond2d.hpp.  The diamond schedule
// (tiling/schedule.hpp) hands each trapezoid its clipped, sloped rows; the
// trapezoid is the flat 2D engine's tile (tv/tv2d_impl.hpp) on those rows
// with its levels in the parity grids: level l lives in
// pp.by_parity(t0 + l).  All values any other tile may read live in the
// parity grids; only the ring of input-vector rows is per runner.
#include "dispatch/backend_variant.hpp"
#include "tiling/diamond2d.hpp"

#include <algorithm>
#include <vector>

#include "tiling/schedule.hpp"
#include "tv/functors2d.hpp"
#include "tv/tv2d_impl.hpp"

namespace tvs::tiling {

namespace {

// Level storage of a trapezoid based at band step t0: lev_g(l) =
// pp.by_parity(t0 + l).  Levels 0 and vl (even) are the base grid.
template <class T>
struct ParityLevels2D {
  grid::Grid2D<T>* odd;  // parity(t0 + 1)
  grid::Grid2D<T>* even;  // parity(t0)
  T* lo(int l, int r) const { return ((l & 1) != 0 ? odd : even)->row(r); }
  T* hi(int l, int r) const { return lo(l, r); }
};

// Copies the boundary and halo cells of rows [x0, x1] from `from` into
// `to`: the whole padded row for the boundary rows 0 and nx+1, the y halos
// [-kPad, 0] and [ny+1, ny+1+kPad] for interior rows.
template <class T>
void mirror_rows(const grid::Grid2D<T>& from, grid::Grid2D<T>& to, int x0,
                 int x1) {
  constexpr int P = grid::kPad;
  const int nx = from.nx(), ny = from.ny();
  for (int x = x0; x <= x1; ++x) {
    const T* src = from.row(x);
    T* dst = to.row(x);
    if (x == 0 || x == nx + 1) {
      std::copy(src - P, src + ny + 2 + P, dst - P);
    } else {
      std::copy(src - P, src + 1, dst - P);
      std::copy(src + ny + 1, src + ny + 2 + P, dst + ny + 1);
    }
  }
}

// The diamond schedule on the parity grids for every 2D kernel.
template <class V, class F, class T>
void diamond2d_run(const F& f, grid::PingPong<grid::Grid2D<T>>& pp, long steps,
                   const Diamond2DOptions& opt) {
  const int nx = pp.even().nx(), ny = pp.even().ny();
  const int s = std::max(2, opt.stride);
  // One ring workspace per runner slot; each lazy prepare() first-touches
  // its ring on the worker that sweeps it.
  std::vector<tv::SlabRing<V>> tls(stage_slots(opt.exec));
  diamond_schedule<V::lanes, F::radius>(
      opt, s, nx, steps,
      // tvsrace: partitioned(x0)
      [&](int x0, int x1) { mirror_rows(pp.even(), pp.odd(), x0, x1); },
      // tvsrace: partitioned(rows)
      [&](int slot, long tt, const tv::TileRows<V::lanes>& rows) {
        tv::SlabRing<V>& ring = tls[static_cast<std::size_t>(slot)];
        ring.prepare(s + 2, 1, ny);
        grid::Grid2D<T>& a0 = pp.by_parity(tt);
        const ParityLevels2D<T> lev{&pp.by_parity(tt + 1), &a0};
        tv::tv2d_tile<V>(f, a0, lev, ring, rows, s, !opt.use_vector);
      },
      // tvsrace: partitioned(x0)
      [&](long t, int x0, int x1) {
        const grid::Grid2D<T>& src = pp.by_parity(t);
        grid::Grid2D<T>& dst = pp.by_parity(t + 1);
        const auto at = [&](int r, int y) -> T { return src.at(r, y); };
        for (int r = x0; r <= x1; ++r)
          for (int y = 1; y <= ny; ++y) dst.at(r, y) = f.apply_scalar(at, r, y);
      });
}

// The Jacobi drivers on V-lane tiles (V::value_type is the grid's element
// type).
template <class V>
void jacobi2d5(const stencil::C2D5T<typename V::value_type>& c,
               grid::PingPong<grid::Grid2D<typename V::value_type>>& pp,
               long steps, const Diamond2DOptions& opt) {
  diamond2d_run<V>(tv::J2D5F<V>(c), pp, steps, opt);
}
template <class V>
void jacobi2d9(const stencil::C2D9T<typename V::value_type>& c,
               grid::PingPong<grid::Grid2D<typename V::value_type>>& pp,
               long steps, const Diamond2DOptions& opt) {
  diamond2d_run<V>(tv::J2D9F<V>(c), pp, steps, opt);
}

// One 32-byte vector per tile row: 4 doubles, 8 floats, 8 int32s.
using VD = simd::NativeVec<double, 4>;
using VF = simd::NativeVec<float, 8>;
using VI = simd::NativeVec<std::int32_t, 8>;

void life(const stencil::LifeRule& r,
          grid::PingPong<grid::Grid2D<std::int32_t>>& pp, long steps,
          const Diamond2DOptions& opt) {
  diamond2d_run<VI>(tv::LifeF<VI>(r), pp, steps, opt);
}

}  // namespace

TVS_BACKEND_REGISTRAR(diamond2d) {
  using dispatch::DType;
  TVS_REGISTER(kDiamondJacobi2D5, DiamondJacobi2D5Fn, jacobi2d5<VD>);
  TVS_REGISTER(kDiamondJacobi2D9, DiamondJacobi2D9Fn, jacobi2d9<VD>);
  TVS_REGISTER_DT(kDiamondJacobi2D5, DiamondJacobi2D5F32Fn, jacobi2d5<VF>,
                  DType::kF32);
  TVS_REGISTER_DT(kDiamondJacobi2D9, DiamondJacobi2D9F32Fn, jacobi2d9<VF>,
                  DType::kF32);
  TVS_REGISTER_DT(kDiamondLife, DiamondLifeFn, life, DType::kI32);
}

}  // namespace tvs::tiling
