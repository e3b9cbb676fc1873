// Data-reorganization helpers for the temporal-vectorization kernels.
//
// Algorithm 3 stores the finished top lane of every output vector and feeds
// a fresh level-0 element into the bottom lane of every new input vector.
// Doing both with scalar memory operations would waste the vector units, so
// the paper groups them (§3.2, Figure 1):
//
//   * top vector    — the top lanes of `vl` consecutive output vectors are
//     assembled into one vector and written with a single vector store;
//   * bottom vector — `vl` consecutive level-0 elements are fetched with a
//     single vector load and dispensed one per iteration.
//
// `collect_tops_arr` implements the assembly for ANY lane count; the
// intrinsic types override it with shuffle trees (3 shuffles for VecD4, the
// count the paper reports) or masked-permute chains (AVX-512).  Bottom
// dispensing is a `rotate_down` per iteration in the kernels: the next
// fresh element is always at lane 0.
#pragma once

#include <cstdint>

#include "simd/vec.hpp"

namespace tvs::simd {

// Debug shuffle accounting for the redundancy ablation
// (bench/ablation_redundancy.cpp).  A TU that defines TVS_REORG_COUNT
// before including this header gets instrumented instantiations of the
// reorganization helpers: each helper adds its algorithmic shuffle weight
// (number of cross-lane data movements a vector ISA must issue — the
// counts the intrinsic overloads actually use) to this thread-local
// counter.  Without the macro the tick compiles out entirely; the counter
// function itself is unconditional so reading code stays well-formed.
// Only instrumentation TUs (the ablation bench) may define the macro: the
// backend kernel libraries localize their instantiations, so counted and
// uncounted copies never collide at link time.
inline std::uint64_t& reorg_shuffle_count() {
  static thread_local std::uint64_t n = 0;
  return n;
}
#if defined(TVS_REORG_COUNT)
#define TVS_REORG_TICK(n) (::tvs::simd::reorg_shuffle_count() += (n))
#else
#define TVS_REORG_TICK(n) (static_cast<void>(0))
#endif

// Lane-count-generic top-vector assembly: lane i of the result is the top
// lane of w[i], for i = 0 .. V::lanes-1.
template <class V>
inline V collect_tops_arr(const V* w) {
  TVS_REORG_TICK(V::lanes - 1);
  alignas(64) typename V::value_type tmp[V::lanes];
  for (int i = 0; i < V::lanes; ++i) tmp[i] = top_lane(w[i]);
  return V::load(tmp);
}

// Variadic form (one argument per lane); kept for the compile-time-unrolled
// fast paths and the unit tests.
template <class V, class... Vs>
  requires(sizeof...(Vs) + 1 == static_cast<std::size_t>(V::lanes) &&
           (std::is_same_v<V, Vs> && ...))
inline V collect_tops(V a, Vs... rest) {
  const V w[] = {a, rest...};
  return collect_tops_arr(w);
}

#if defined(__AVX2__)
// {a3, b3, c3, d3} in 3 shuffles (2 in-lane unpacks + 1 lane-crossing).
inline VecD4 collect_tops(VecD4 a, VecD4 b, VecD4 c, VecD4 d) {
  TVS_REORG_TICK(3);
  const __m256d h01 = _mm256_unpackhi_pd(a.r, b.r);  // {a1,b1,a3,b3}
  const __m256d h23 = _mm256_unpackhi_pd(c.r, d.r);  // {c1,d1,c3,d3}
  return VecD4{_mm256_permute2f128_pd(h01, h23, 0x31)};
}
inline VecD4 collect_tops_arr(const VecD4* w) {
  return collect_tops(w[0], w[1], w[2], w[3]);
}

// {a7,b7,...,h7} floats via the same unpack tree as VecI8 (6 in-lane
// unpacks + 1 lane-crossing permute).
inline VecF8 collect_tops(VecF8 a, VecF8 b, VecF8 c, VecF8 d, VecF8 e,
                          VecF8 f, VecF8 g, VecF8 h) {
  TVS_REORG_TICK(7);
  // unpackhi_ps(x, y) = {x2,y2,x3,y3, x6,y6,x7,y7}; the lane-7 values land
  // in positions 6,7 of each 128-bit half after the first level.
  const __m256 ab = _mm256_unpackhi_ps(a.r, b.r);
  const __m256 cd = _mm256_unpackhi_ps(c.r, d.r);
  const __m256 ef = _mm256_unpackhi_ps(e.r, f.r);
  const __m256 gh = _mm256_unpackhi_ps(g.r, h.r);
  const __m256 abcd = _mm256_castpd_ps(
      _mm256_unpackhi_pd(_mm256_castps_pd(ab), _mm256_castps_pd(cd)));
  const __m256 efgh = _mm256_castpd_ps(
      _mm256_unpackhi_pd(_mm256_castps_pd(ef), _mm256_castps_pd(gh)));
  return VecF8{_mm256_permute2f128_ps(abcd, efgh, 0x31)};
}
inline VecF8 collect_tops_arr(const VecF8* w) {
  return collect_tops(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]);
}

// {a7,b7,...,h7} via an unpack tree (6 in-lane unpacks + 1 lane-crossing).
inline VecI8 collect_tops(VecI8 a, VecI8 b, VecI8 c, VecI8 d, VecI8 e,
                          VecI8 f, VecI8 g, VecI8 h) {
  TVS_REORG_TICK(7);
  // unpackhi_epi32(x, y) = {x2,y2,x3,y3, x6,y6,x7,y7}; lane 7 values land in
  // positions 6,7 of each 128-bit half after the first level.
  const __m256i ab = _mm256_unpackhi_epi32(a.r, b.r);  // {..,..,a3,b3,..,..,a7,b7}
  const __m256i cd = _mm256_unpackhi_epi32(c.r, d.r);
  const __m256i ef = _mm256_unpackhi_epi32(e.r, f.r);
  const __m256i gh = _mm256_unpackhi_epi32(g.r, h.r);
  const __m256i abcd = _mm256_unpackhi_epi64(ab, cd);  // {..,..,..,..,a7,b7,c7,d7}
  const __m256i efgh = _mm256_unpackhi_epi64(ef, gh);  // {..,..,..,..,e7,f7,g7,h7}
  return VecI8{_mm256_permute2x128_si256(abcd, efgh, 0x31)};
}
inline VecI8 collect_tops_arr(const VecI8* w) {
  return collect_tops(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]);
}
#endif

#if defined(__AVX512F__)
// The first (unmasked) permute in each chain uses the maskz form with a
// full mask: identical codegen to the plain intrinsic, but avoids GCC's
// -Wmaybe-uninitialized false positive on the _mm512_undefined_* pass-
// through operand (GCC PR105593).
// One masked lane-broadcast per source vector: lane j <- w[j] lane 7.
inline VecD8 collect_tops_arr(const VecD8* w) {
  TVS_REORG_TICK(8);
  const __m512i top = _mm512_set1_epi64(7);
  __m512d r =
      _mm512_maskz_permutexvar_pd(static_cast<__mmask8>(0xff), top, w[0].r);
  r = _mm512_mask_permutexvar_pd(r, 0x02, top, w[1].r);
  r = _mm512_mask_permutexvar_pd(r, 0x04, top, w[2].r);
  r = _mm512_mask_permutexvar_pd(r, 0x08, top, w[3].r);
  r = _mm512_mask_permutexvar_pd(r, 0x10, top, w[4].r);
  r = _mm512_mask_permutexvar_pd(r, 0x20, top, w[5].r);
  r = _mm512_mask_permutexvar_pd(r, 0x40, top, w[6].r);
  r = _mm512_mask_permutexvar_pd(r, 0x80, top, w[7].r);
  return VecD8{r};
}
inline VecD8 collect_tops(VecD8 a, VecD8 b, VecD8 c, VecD8 d, VecD8 e,
                          VecD8 f, VecD8 g, VecD8 h) {
  const VecD8 w[] = {a, b, c, d, e, f, g, h};
  return collect_tops_arr(w);
}

inline VecI16 collect_tops_arr(const VecI16* w) {
  TVS_REORG_TICK(16);
  const __m512i top = _mm512_set1_epi32(15);
  __m512i r = _mm512_maskz_permutexvar_epi32(static_cast<__mmask16>(0xffff),
                                             top, w[0].r);
  for (int j = 1; j < 16; ++j)
    r = _mm512_mask_permutexvar_epi32(r, static_cast<__mmask16>(1u << j), top,
                                      w[j].r);
  return VecI16{r};
}

// One masked lane-broadcast per source vector: lane j <- w[j] lane 15.
inline VecF16 collect_tops_arr(const VecF16* w) {
  TVS_REORG_TICK(16);
  const __m512i top = _mm512_set1_epi32(15);
  __m512 r = _mm512_maskz_permutexvar_ps(static_cast<__mmask16>(0xffff), top,
                                         w[0].r);
  for (int j = 1; j < 16; ++j)
    r = _mm512_mask_permutexvar_ps(r, static_cast<__mmask16>(1u << j), top,
                                   w[j].r);
  return VecF16{r};
}
#endif

// Shift `a` one lane up, inserting the lane-0 value of `fresh` at the
// bottom: the vector-blend form of Algorithm 3's lines 13-14 used with
// bottom-vector dispensing.
template <class V>
inline V shift_in_low_v(V a, V fresh) {
  TVS_REORG_TICK(1);
  V rot = rotate_up(a);
  return rot.template insert<0>(fresh.template extract<0>());
}

#if defined(__AVX2__)
inline VecD4 shift_in_low_v(VecD4 a, VecD4 fresh) {
  TVS_REORG_TICK(1);
  return VecD4{_mm256_blend_pd(_mm256_permute4x64_pd(a.r, 0x93), fresh.r, 0x1)};
}
inline VecF8 shift_in_low_v(VecF8 a, VecF8 fresh) {
  TVS_REORG_TICK(1);
  return VecF8{_mm256_blend_ps(
      _mm256_permutevar8x32_ps(a.r, detail::rotidxf_up()), fresh.r, 0x1)};
}
inline VecI8 shift_in_low_v(VecI8 a, VecI8 fresh) {
  TVS_REORG_TICK(1);
  return VecI8{_mm256_blend_epi32(
      _mm256_permutevar8x32_epi32(a.r, detail::rotidx_up()), fresh.r, 0x1)};
}
#endif

// Bottom-vector dispensing step (Algorithm 3 with a grouped bottom load):
// after a kernel consumed lane 0 of `bot`, rotate the next fresh element
// down into lane 0.  A counted wrapper over rotate_down so the ablation
// bench attributes the baseline engines' per-iteration dispense shuffle.
template <class V>
inline V dispense_low(V bot) {
  TVS_REORG_TICK(1);
  return rotate_down(bot);
}

// Incremental reorganization (arXiv:2103.08825 / 2103.09235): ONE shuffle
// retires the finished top lane of `w` AND admits the fresh bottom
// element.  rotate_up moves the finished value (lane N-1) to lane 0, where
// extracting it is free on every backend; the same rotated register then
// takes `fresh` into lane 0 via a blend against a broadcast — a
// port-5-free merge, not a shuffle.  Replaces the baseline's
// shift_in_low_v + dispense_low pair (2 shuffles) and, because the top is
// stored as it retires, the collect_tops_arr assembly tree (lanes-1
// shuffles per lanes outputs) disappears entirely: O(1) shuffles per
// produced vector instead of O(lanes).
template <class V>
inline V retire_shift_in(V w, typename V::value_type fresh,
                         typename V::value_type* top_out) {
  TVS_REORG_TICK(1);
  V rot = rotate_up(w);
  *top_out = rot.template extract<0>();
  return rot.template insert<0>(fresh);
}

#if defined(__AVX2__)
inline VecD4 retire_shift_in(VecD4 w, double fresh, double* top_out) {
  TVS_REORG_TICK(1);
  const __m256d rot = _mm256_permute4x64_pd(w.r, 0x93);
  *top_out = _mm256_cvtsd_f64(rot);
  return VecD4{_mm256_blend_pd(rot, _mm256_set1_pd(fresh), 0x1)};
}
inline VecF8 retire_shift_in(VecF8 w, float fresh, float* top_out) {
  TVS_REORG_TICK(1);
  const __m256 rot = _mm256_permutevar8x32_ps(w.r, detail::rotidxf_up());
  *top_out = _mm256_cvtss_f32(rot);
  return VecF8{_mm256_blend_ps(rot, _mm256_set1_ps(fresh), 0x1)};
}
#endif

#if defined(__AVX512F__)
inline VecD8 retire_shift_in(VecD8 w, double fresh, double* top_out) {
  TVS_REORG_TICK(1);
  const __m512i up = _mm512_setr_epi64(7, 0, 1, 2, 3, 4, 5, 6);
  // Full-mask maskz_ form: same codegen, no GCC PR105593 false positive.
  const __m512d rot =
      _mm512_maskz_permutexvar_pd(static_cast<__mmask8>(0xff), up, w.r);
  *top_out = _mm512_cvtsd_f64(rot);
  return VecD8{_mm512_mask_mov_pd(rot, 0x01, _mm512_set1_pd(fresh))};
}
inline VecF16 retire_shift_in(VecF16 w, float fresh, float* top_out) {
  TVS_REORG_TICK(1);
  const __m512i up = _mm512_setr_epi32(15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                       11, 12, 13, 14);
  const __m512 rot =
      _mm512_maskz_permutexvar_ps(static_cast<__mmask16>(0xffff), up, w.r);
  *top_out = _mm512_cvtss_f32(rot);
  return VecF16{_mm512_mask_mov_ps(rot, 0x0001, _mm512_set1_ps(fresh))};
}
#endif

// West/east neighbor assembly for the data-reorganization *spatial* scheme
// (§2.2): the x-1 / x+1 shifted views of a register block are built from
// the block and its neighbor entirely in registers, so each input element
// is loaded exactly once per sweep.
//
//   west_neighbors(prev, cur) = {prev[N-1], cur[0], ..., cur[N-2]}
//   east_neighbors(cur, next) = {cur[1], ..., cur[N-1], next[0]}
template <class V>
inline V west_neighbors(V prev, V cur) {
  return shift_in_low(cur, top_lane(prev));
}
template <class V>
inline V east_neighbors(V cur, V next) {
  V rot = rotate_down(cur);
  return rot.template insert<V::lanes - 1>(next.template extract<0>());
}

#if defined(__AVX2__)
// {p3, c0, c1, c2}: 1 lane-crossing + 1 in-lane shuffle.
inline VecD4 west_neighbors(VecD4 prev, VecD4 cur) {
  const __m256d t = _mm256_permute2f128_pd(prev.r, cur.r, 0x21);  // {p2,p3,c0,c1}
  return VecD4{_mm256_shuffle_pd(t, cur.r, 0x5)};                 // {p3,c0,c1,c2}
}
// {c1, c2, c3, n0}
inline VecD4 east_neighbors(VecD4 cur, VecD4 next) {
  const __m256d t = _mm256_permute2f128_pd(cur.r, next.r, 0x21);  // {c2,c3,n0,n1}
  return VecD4{_mm256_shuffle_pd(cur.r, t, 0x5)};                 // {c1,c2,c3,n0}
}
#endif

}  // namespace tvs::simd
