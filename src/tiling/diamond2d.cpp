// 2D diamond driver; see diamond2d.hpp.  A trapezoid advances rows
// [xl0+dl*l, xr0+dr*l] (clamped) from band level l = 0 to l = vl with
// slopes dl, dr = +-1 per level (radius-1 stencils), and is the flat 2D
// engine's tile (tv/tv2d_impl.hpp) instantiated on those clipped rows with
// its levels in the parity grids: level l lives in pp.by_parity(t0 + l).
// All values any other tile may read live in the parity grids; only the
// ring of input-vector rows is per runner.
#include "dispatch/backend_variant.hpp"
#include "tiling/diamond2d.hpp"

#include "util/omp_compat.hpp"

#include <algorithm>
#include <vector>

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

// Band/phase diamond driver shared by every 2D kernel.
template <class V, class F, class T>
void diamond2d_run(const F& f, grid::PingPong<grid::Grid2D<T>>& pp, long steps,
                   Diamond2DOptions opt) {
  constexpr int VL = V::lanes;
  const int nx = pp.even().nx(), ny = pp.even().ny();
  const int s = std::max(2, opt.stride);
  int H = std::max(VL, opt.height - opt.height % VL);
  int W = std::max(opt.width, 2 * H + VL * s + 8);
  if (W >= nx) {
    W = nx;
    H = std::max(VL, std::min(H, (W / 2 / VL) * VL));
    W = std::max(W, 2 * H + VL * s + 8);
  }

  static_assert(VL % 2 == 0, "level vl must share parity(t0) with level 0");
  // One ring workspace per concurrent runner: OpenMP threads on the
  // driver's own loops, executor slots under an external StageExec (the
  // slot is unique among running bodies, and each lazy prepare() below
  // first-touches the ring on the worker that sweeps it).
  const int nslots = std::max(
      omp_get_max_threads(), opt.exec != nullptr ? opt.exec->slots : 0);
  std::vector<tv::SlabRing<V>> tls(static_cast<std::size_t>(nslots));
  // The stacked trapezoids of one tile: base interval [xl0 + dl*VL*j,
  // xr0 + dr*VL*j] at band step tb + VL*j, j = 0 .. h/VL - 1.
  const auto tile = [&](int slot, long tb, int h, int xl0, int xr0, int dl,
                        int dr) {
    tv::SlabRing<V>& ring = tls[static_cast<std::size_t>(slot)];
    ring.prepare(s + 2, 1, ny);
    for (int j = 0; j < h / VL; ++j) {
      const long tt = tb + static_cast<long>(VL) * j;
      grid::Grid2D<T>& a0 = pp.by_parity(tt);
      ParityLevels2D<T> lev{&pp.by_parity(tt + 1), &a0};
      const auto rows = tv::TileRows<VL>::sloped(
          xl0 + dl * VL * j, xr0 + dr * VL * j, dl, dr, nx, F::radius);
      tv::tv2d_tile<V>(f, a0, lev, ring, rows, s, !opt.use_vector);
    }
  };

  const int nb = (nx + W - 1) / W;
  // First stage, the parity-pair invariant: the odd grid's boundary and
  // halo cells mirror the even grid's.  Same row blocks as phase 1, the
  // first and last block also taking the boundary rows 0 and nx+1; the
  // blocks' rows are disjoint.
  const auto mirror = [&](int k, int /*slot*/) {
    mirror_rows(pp.even(), pp.odd(), k == 0 ? 0 : 1 + k * W,
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
    // Phase-1 trapezoids write rows [1 + k*W, (k+1)*W] only (shrinking
    // edges); the parity grids are partitioned by tile index, and the
    // ring is per-runner (tls[slot]).
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
    // Phase-2 seam tiles: disjoint row ranges around each seam k*W, same
    // partition argument as phase 1.
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
  // row blocks: block k writes rows [1 + k*W, (k+1)*W] of dst only.
  for (; t0 < steps; ++t0) {
    const grid::Grid2D<T>& src = pp.by_parity(t0);
    grid::Grid2D<T>& dst = pp.by_parity(t0 + 1);
    const auto at = [&](int r, int y) -> T { return src.at(r, y); };
    const auto residual = [&](int k, int /*slot*/) {
      const int r1 = std::min(nx, (k + 1) * W);
      for (int r = 1 + k * W; r <= r1; ++r)
        for (int y = 1; y <= ny; ++y) dst.at(r, y) = f.apply_scalar(at, r, y);
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
