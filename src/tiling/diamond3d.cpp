// 3D diamond driver; the slab analogue of diamond2d.cpp.  A trapezoid is
// the flat 3D engine's tile (tv/tv3d_impl.hpp) on clipped plane ranges
// with level l in pp.by_parity(t0 + l); only the ring of input-vector
// slabs is per runner.
#include "dispatch/backend_variant.hpp"
#include "tiling/diamond3d.hpp"

#include <algorithm>
#include <vector>

#include "tiling/schedule.hpp"
#include "tv/functors3d.hpp"
#include "tv/tv3d_impl.hpp"

namespace tvs::tiling {

namespace {

// Level storage of a trapezoid based at band step t0: lev_g(l) =
// pp.by_parity(t0 + l).  Levels 0 and vl (even) are the base grid.
template <class T>
struct ParityLevels3D {
  grid::Grid3D<T>* odd;   // parity(t0 + 1)
  grid::Grid3D<T>* even;  // parity(t0)
  tv::LevelSlab<T> lo(int l, int r) const {
    return tv::LevelSlab<T>::of((l & 1) != 0 ? *odd : *even, r);
  }
  tv::LevelSlab<T> hi(int l, int r) const { return lo(l, r); }
};

// Copies the boundary and halo cells of planes [x0, x1] from `from` into
// `to`: whole padded lines for the boundary planes 0 and nx+1 and the
// boundary lines y = 0 and ny+1, the z halos [-kPad, 0] and
// [nz+1, nz+1+kPad] for interior lines.
template <class T>
void mirror_planes(const grid::Grid3D<T>& from, grid::Grid3D<T>& to, int x0,
                   int x1) {
  constexpr int P = grid::kPad;
  const int nx = from.nx(), ny = from.ny(), nz = from.nz();
  for (int x = x0; x <= x1; ++x)
    for (int y = 0; y <= ny + 1; ++y) {
      const T* src = from.line(x, y);
      T* dst = to.line(x, y);
      if (x == 0 || x == nx + 1 || y == 0 || y == ny + 1) {
        std::copy(src - P, src + nz + 2 + P, dst - P);
      } else {
        std::copy(src - P, src + 1, dst - P);
        std::copy(src + nz + 1, src + nz + 2 + P, dst + nz + 1);
      }
    }
}

// The 7-point Jacobi driver on V-lane tiles (V::value_type is the grid's
// element type): the diamond schedule on the parity grids.
template <class V>
void jacobi3d7(const stencil::C3D7T<typename V::value_type>& c,
               grid::PingPong<grid::Grid3D<typename V::value_type>>& pp,
               long steps, const Diamond3DOptions& opt) {
  using T = typename V::value_type;
  using F = tv::J3D7F<V>;
  const F f(c);
  const int nx = pp.even().nx(), ny = pp.even().ny(), nz = pp.even().nz();
  const int s = std::max(2, opt.stride);
  // One ring workspace per runner slot; each lazy prepare() first-touches
  // its ring on the worker that sweeps it.
  std::vector<tv::SlabRing<V>> tls(stage_slots(opt.exec));
  diamond_schedule<V::lanes, F::radius>(
      opt, s, nx, steps,
      // tvsrace: partitioned(x0)
      [&](int x0, int x1) { mirror_planes(pp.even(), pp.odd(), x0, x1); },
      // tvsrace: partitioned(rows)
      [&](int slot, long tt, const tv::TileRows<V::lanes>& rows) {
        tv::SlabRing<V>& ring = tls[static_cast<std::size_t>(slot)];
        ring.prepare(s + 2, ny + 2, nz);
        grid::Grid3D<T>& a0 = pp.by_parity(tt);
        const ParityLevels3D<T> lev{&pp.by_parity(tt + 1), &a0};
        tv::tv3d_tile<V>(f, a0, lev, ring, rows, s, !opt.use_vector);
      },
      // tvsrace: partitioned(x0)
      [&](long t, int x0, int x1) {
        const grid::Grid3D<T>& src = pp.by_parity(t);
        grid::Grid3D<T>& dst = pp.by_parity(t + 1);
        const auto at = [&](int r, int y, int z) { return src.at(r, y, z); };
        for (int r = x0; r <= x1; ++r)
          for (int y = 1; y <= ny; ++y)
            for (int z = 1; z <= nz; ++z)
              dst.at(r, y, z) = f.apply_scalar(at, r, y, z);
      });
}

// One 32-byte vector per tile row: 4 doubles, 8 floats.
using VD = simd::NativeVec<double, 4>;
using VF = simd::NativeVec<float, 8>;

}  // namespace

TVS_BACKEND_REGISTRAR(diamond3d) {
  using dispatch::DType;
  TVS_REGISTER(kDiamondJacobi3D7, DiamondJacobi3D7Fn, jacobi3d7<VD>);
  TVS_REGISTER_DT(kDiamondJacobi3D7, DiamondJacobi3D7F32Fn, jacobi3d7<VF>,
                  DType::kF32);
}

}  // namespace tvs::tiling
