// 3D diamond driver; the slab analogue of diamond2d.cpp.  A trapezoid is
// the flat 3D engine's tile (tv/tv3d_impl.hpp) on clipped plane ranges
// with level l in pp.by_parity(t0 + l); only the ring of input-vector
// slabs is per runner.
#include "dispatch/backend_variant.hpp"
#include "tiling/diamond3d.hpp"

#include "util/omp_compat.hpp"

#include <algorithm>
#include <vector>

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
// element type).
template <class V>
void jacobi3d7(const stencil::C3D7T<typename V::value_type>& c,
               grid::PingPong<grid::Grid3D<typename V::value_type>>& pp,
               long steps, const Diamond3DOptions& opt) {
  using T = typename V::value_type;
  constexpr int VL = V::lanes;
  static_assert(VL % 2 == 0, "level vl must share parity(t0) with level 0");
  const tv::J3D7F<V> f(c);
  const int nx = pp.even().nx(), ny = pp.even().ny(), nz = pp.even().nz();
  const int s = std::max(2, opt.stride);
  int H = std::max(VL, opt.height - opt.height % VL);
  int W = std::max(opt.width, 2 * H + VL * s + 8);
  if (W >= nx) {
    W = nx;
    H = std::max(VL, std::min(H, (W / 2 / VL) * VL));
    W = std::max(W, 2 * H + VL * s + 8);
  }
  // One ring workspace per concurrent runner (OpenMP threads or external
  // executor slots); lazy prepare() first-touches it on the sweeping
  // worker.
  const int nslots = std::max(
      omp_get_max_threads(), opt.exec != nullptr ? opt.exec->slots : 0);
  std::vector<tv::SlabRing<V>> tls(static_cast<std::size_t>(nslots));
  // The stacked trapezoids of one tile (see diamond2d.cpp).
  const auto tile = [&](int slot, long tb, int h, int xl0, int xr0, int dl,
                        int dr) {
    tv::SlabRing<V>& ring = tls[static_cast<std::size_t>(slot)];
    ring.prepare(s + 2, ny + 2, nz);
    for (int j = 0; j < h / VL; ++j) {
      const long tt = tb + static_cast<long>(VL) * j;
      grid::Grid3D<T>& a0 = pp.by_parity(tt);
      ParityLevels3D<T> lev{&pp.by_parity(tt + 1), &a0};
      const auto rows = tv::TileRows<VL>::sloped(
          xl0 + dl * VL * j, xr0 + dr * VL * j, dl, dr, nx, 1);
      tv::tv3d_tile<V>(f, a0, lev, ring, rows, s, !opt.use_vector);
    }
  };

  const int nb = (nx + W - 1) / W;
  // First stage, the parity-pair invariant (see diamond2d.cpp): mirror the
  // boundary and halo cells of phase 1's plane blocks into the odd grid.
  const auto mirror = [&](int k, int /*slot*/) {
    mirror_planes(pp.even(), pp.odd(), k == 0 ? 0 : 1 + k * W,
                  k == nb - 1 ? nx + 1 : (k + 1) * W);
  };
  if (opt.exec != nullptr) {
    stage_run(opt.exec, nb, mirror);
  } else {
    // tvsrace: partitioned(k)
#pragma omp parallel for schedule(static)
    for (int k = 0; k < nb; ++k) mirror(k, 0);
  }

  const long t_vec = steps - steps % VL;
  long t0 = 0;
  while (t0 < t_vec) {
    const int h = static_cast<int>(std::min<long>(H, t_vec - t0));
    // Phase-1 trapezoids write planes [1 + k*W, (k+1)*W] only (shrinking
    // edges); parity grids partitioned by tile index, ws is per-runner.
    const auto phase1 = [&](int k, int slot) {
      tile(slot, t0, h, 1 + k * W, (k + 1) * W, +1, -1);
    };
    if (opt.exec != nullptr) {
      stage_run(opt.exec, nb, phase1);
    } else {
      // tvsrace: partitioned(k)
#pragma omp parallel for schedule(dynamic, 1)
      for (int k = 0; k < nb; ++k) phase1(k, omp_get_thread_num());
    }
    // Phase-2 seam tiles: disjoint plane ranges around each seam k*W.
    const auto phase2 = [&](int k, int slot) {
      tile(slot, t0, h, k * W + 1, k * W, -1, +1);
    };
    if (opt.exec != nullptr) {
      stage_run(opt.exec, nb + 1, phase2);
    } else {
      // tvsrace: partitioned(k)
#pragma omp parallel for schedule(dynamic, 1)
      for (int k = 0; k <= nb; ++k) phase2(k, omp_get_thread_num());
    }
    t0 += h;
  }
  // Residual scalar steps (steps % vl), one stage per step over phase 1's
  // plane blocks: block k writes planes [1 + k*W, (k+1)*W] of dst only.
  for (; t0 < steps; ++t0) {
    const grid::Grid3D<T>& src = pp.by_parity(t0);
    grid::Grid3D<T>& dst = pp.by_parity(t0 + 1);
    const auto at = [&](int r, int y, int z) { return src.at(r, y, z); };
    const auto residual = [&](int k, int /*slot*/) {
      const int r1 = std::min(nx, (k + 1) * W);
      for (int r = 1 + k * W; r <= r1; ++r)
        for (int y = 1; y <= ny; ++y)
          for (int z = 1; z <= nz; ++z)
            dst.at(r, y, z) = f.apply_scalar(at, r, y, z);
    };
    if (opt.exec != nullptr) {
      stage_run(opt.exec, nb, residual);
    } else {
      // tvsrace: partitioned(k)
#pragma omp parallel for schedule(static)
      for (int k = 0; k < nb; ++k) residual(k, 0);
    }
  }
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
