// Diamond-tiled 1D Jacobi driver (f64 and f32 tiles) — compiled once per
// SIMD backend.
// The Grid1D wrapper lives in tiling_dispatch.cpp (common code).
#include <algorithm>

#include "dispatch/backend_variant.hpp"
#include "tiling/diamond.hpp"
#include "tv/functors1d.hpp"
#include "tv/tv1d_impl.hpp"

namespace tvs::tiling {

namespace {

// Level storage of a trapezoid based at band step t0: level l lives in
// parity(t0 + l).  Levels 0 and vl (even) are the base array a0.
template <class T>
struct ParityLevels1D {
  T* a0;
  T* a1;
  tv::LevelLine<T> lo(int l) const { return {(l & 1) != 0 ? a1 : a0, 0}; }
  tv::LevelLine<T> hi(int l) const { return lo(l); }
};

// One trapezoid: base interval [xl0, xr0] at band step tt, edges moving
// dl / dr per level, run as the engine tile on the parity arrays.
template <class V, class F, class T>
void trapezoid(const F& f, T* even, T* odd, long tt, int nx, int s, int xl0,
               int xr0, int dl, int dr, bool scalar_only) {
  ParityLevels1D<T> lev{(tt % 2 == 0) ? even : odd,
                        (tt % 2 == 0) ? odd : even};
  const auto rows =
      tv::TileRows<V::lanes>::sloped(xl0, xr0, dl, dr, nx, F::radius);
  tv::tv1d_tile<V>(f, lev.a0, lev, rows, s, scalar_only);
}

// Generic band-driver over parity arrays.
template <class V, class F, class T>
void diamond_run(const F& f, T* even, T* odd, int nx, long steps,
                 Diamond1DOptions opt) {
  constexpr int VL = V::lanes;
  static_assert(VL % 2 == 0, "level vl must share parity(t0) with level 0");
  constexpr int R = F::radius;
  const int s = opt.stride;
  // Sanitize: band height a positive multiple of vl; width wide enough that
  // concurrent tiles never touch each other's working set (see the read
  // cap in tv/tile.hpp) and phase-1 tiles stay non-empty at the band top.
  int H = std::max(VL, opt.height - opt.height % VL);
  int W = std::max(opt.width, 2 * H * R + VL * s + 8);
  if (W >= nx) {  // single tile column: degenerate but still correct
    W = nx;
    H = std::min(H, std::max(VL, (W / (2 * R) / VL) * VL));
    W = std::max(W, 2 * H * R + VL * s + 8);
  }
  const int nb = (nx + W - 1) / W;

  // The parity-pair invariant: the odd array's boundary and halo cells
  // mirror the even array's (every level reads them from its own parity).
  // A few cells in 1D, so inline.
  std::copy(even - grid::kPad, even + 1, odd - grid::kPad);
  std::copy(even + nx + 1, even + nx + 2 + grid::kPad, odd + nx + 1);

  const long t_vec = steps - steps % VL;
  long t0 = 0;
  while (t0 < t_vec) {
    const int h = static_cast<int>(std::min<long>(H, t_vec - t0));
    // Phase 1: shrinking trapezoids.
    // Each phase-1 trapezoid writes only its own base interval
    // [1 + k*W, (k+1)*W] (edges shrink inward), so the parity arrays are
    // partitioned by the tile index.
    const auto phase1 = [&](int k, int /*slot*/) {
      for (int j = 0; j < h / VL; ++j)
        trapezoid<V>(f, even, odd, t0 + VL * j, nx, s, 1 + k * W + VL * j * R,
                     (k + 1) * W - VL * j * R, +R, -R, !opt.use_vector);
    };
    if (opt.exec != nullptr) {
      stage_run(opt.exec, nb, phase1);
    } else {
      // tvsrace: partitioned(k)
#pragma omp parallel for schedule(dynamic, 1)
      for (int k = 0; k < nb; ++k) phase1(k, 0);
    }
    // Phase 2: growing trapezoids at the seams (including the domain edges).
    // Phase-2 seam tiles grow from empty bases at the k*W seams; their
    // widest level still ends left of where tile k+1's level starts, so
    // writes stay disjoint per k.
    const auto phase2 = [&](int k, int /*slot*/) {
      for (int j = 0; j < h / VL; ++j)
        trapezoid<V>(f, even, odd, t0 + VL * j, nx, s, k * W + 1 - VL * j * R,
                     k * W + VL * j * R, -R, +R, !opt.use_vector);
    };
    if (opt.exec != nullptr) {
      stage_run(opt.exec, nb + 1, phase2);
    } else {
      // tvsrace: partitioned(k)
#pragma omp parallel for schedule(dynamic, 1)
      for (int k = 0; k <= nb; ++k) phase2(k, 0);
    }
    t0 += h;
  }
  // Scalar residual steps (steps % vl) on the parity arrays, one stage per
  // step over phase 1's blocks: block k writes [1 + k*W, (k+1)*W] only.
  for (; t0 < steps; ++t0) {
    const T* src = (t0 % 2 == 0) ? even : odd;
    T* dst = (t0 % 2 == 0) ? odd : even;
    const auto residual = [&](int k, int /*slot*/) {
      T win[2 * R + 1];
      const int x1 = std::min(nx, (k + 1) * W);
      for (int x = 1 + k * W; x <= x1; ++x) {
        for (int i = 0; i <= 2 * R; ++i) win[i] = src[x - R + i];
        dst[x] = f.apply_scalar(win);
      }
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

// The 3-point Jacobi driver on V-lane tiles (V::value_type is the grid's
// element type).
template <class V>
void jacobi1d3(const stencil::C1D3T<typename V::value_type>& c,
               grid::PingPong<grid::Grid1D<typename V::value_type>>& pp,
               long steps, const Diamond1DOptions& opt) {
  const tv::J1D3F<V> f(c);
  const int s = std::min(opt.stride, 3 * tv::J1D3F<V>::radius + 5);
  Diamond1DOptions o = opt;
  o.stride = std::max(2, s);
  diamond_run<V>(f, pp.even().p(), pp.odd().p(), pp.even().nx(), steps, o);
}

// One 32-byte vector per tile row in both precisions: 4 doubles, 8 floats.
using VD = simd::NativeVec<double, 4>;
using VF = simd::NativeVec<float, 8>;

}  // namespace

TVS_BACKEND_REGISTRAR(diamond1d) {
  using dispatch::DType;
  TVS_REGISTER(kDiamondJacobi1D3, DiamondJacobi1D3Fn, jacobi1d3<VD>);
  TVS_REGISTER_DT(kDiamondJacobi1D3, DiamondJacobi1D3F32Fn, jacobi1d3<VF>,
                  DType::kF32);
}

}  // namespace tvs::tiling
