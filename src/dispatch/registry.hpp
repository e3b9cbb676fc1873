// KernelRegistry: the (kernel id, backend, vector length, dtype) ->
// function pointer table behind the Solver's router and the baseline
// entry points.
//
// Layout of the dispatch subsystem:
//
//   * Each kernel translation unit in tv/, baseline/ and tiling/ is compiled
//     once per backend with that backend's instruction-set flags (see
//     src/CMakeLists.txt).  All code in those TUs has internal linkage; the
//     only external symbol each contributes is an `extern "C"` registrar
//     (backend_variant.hpp) that deposits its function pointers here.
//   * The common library (grids, references, dispatchers — this file's
//     world) is compiled with no SIMD flags at all, so no illegal
//     instruction can leak into code that runs before backend selection.
//   * Callers look an implementation up by id (`get<Fn>(id)`, honouring
//     selected_backend(), or `get_at` at a planned backend/width/dtype).
//
// The vector length is a first-class registry axis: every temporal kernel
// registers with the lane count it was instantiated at (its backend's
// native width — 4/8 doubles, 8/16 floats or int32s), and the scalar
// backend additionally registers width-pinned wide instantiations
// (ScalarVec<double, 8>, ScalarVec<float, 16>, ScalarVec<int32, 16>) so a
// width-pinned lookup resolves on every host.
//
// The element type (dtype) is the second value axis: one id can carry a
// double, a float and (for Life/LCS) an int32 engine family.  Each entry
// is tagged with its dtype; lookups WITHOUT a dtype resolve against the
// id's *default* dtype — the dtype of the id's very first registration
// (f64 for the FP kernels, i32 for Life/LCS) — so every pre-dtype call
// site keeps its exact semantics and can never cast a float engine to a
// double signature.  Dtype-qualified lookups (`resolve_at(id, b, vl, dt)`)
// pin the axis; vl = kAnyVl there means "the backend's native width for
// that dtype" (its first registration of (id, dtype)).
//
// Lookup falls back *downward* only: a kernel asked for at avx512 that has
// no avx512 variant resolves to its avx2 variant, then scalar.  Every
// kernel has a scalar variant, so resolution always succeeds for known
// ids; an unknown id throws an error listing every registered id.
// Registration happens once, inside instance()'s initialization; afterwards
// the table is immutable and lookups are safe from any thread.
#pragma once

#include <string_view>
#include <vector>

#include "dispatch/backend.hpp"
#include "dispatch/dtype.hpp"

namespace tvs::dispatch {

// Erased function-pointer type.  Entries are cast back to their real
// signature by the dispatcher that registered/looks up the id, which is the
// only code that names both the id and the signature (dispatch/kernels.hpp).
using AnyFn = void (*)();

// Wildcard for the vector-length axis: match any width.
inline constexpr int kAnyVl = 0;

class KernelRegistry {
 public:
  // The process-wide registry; builds the table (runs every compiled-in
  // backend's registrar) on first use.
  static KernelRegistry& instance();

  // Registration-phase only (called by the backend registrars).  `vl` is
  // the lane count of the registered engine (kAnyVl for kernels with no
  // meaningful vector length), `dt` its element type.  The first
  // registration of (id, dtype) per backend is that backend's native
  // engine for the dtype; the id's overall first registration fixes its
  // default dtype.
  void add(std::string_view id, Backend b, int vl, DType dt, AnyFn fn);

  // Exact lookup at the backend's native engine of the id's default
  // dtype: nullptr when (id, b) has no entry.  The 3-argument form
  // additionally requires the exact vector length.
  AnyFn find(std::string_view id, Backend b) const;
  AnyFn find(std::string_view id, Backend b, int vl) const;
  // Dtype-pinned exact lookup; vl = kAnyVl matches the backend's native
  // width for the dtype.
  AnyFn find(std::string_view id, Backend b, int vl, DType dt) const;

  // Lookup at backend `b` with downward fallback; throws std::runtime_error
  // listing the registered ids for an id with no entry at or below `b`.
  // The `vl` forms restrict the search to engines at that lane count, the
  // `dt` forms to engines of that element type (no-dt forms use the id's
  // default dtype).
  AnyFn resolve_at(std::string_view id, Backend b) const;
  AnyFn resolve_at(std::string_view id, Backend b, int vl) const;
  AnyFn resolve_at(std::string_view id, Backend b, int vl, DType dt) const;
  // The backend resolve_at() would use (for tests / introspection).
  Backend resolved_backend_at(std::string_view id, Backend b) const;
  Backend resolved_backend_at(std::string_view id, Backend b, int vl) const;
  Backend resolved_backend_at(std::string_view id, Backend b, int vl,
                              DType dt) const;

  // resolve_at / resolved_backend_at at selected_backend().
  AnyFn resolve(std::string_view id) const;
  Backend resolved_backend(std::string_view id) const;

  // True when any kernel is registered for `b` (i.e. the backend's objects
  // were compiled into this binary).
  bool has_backend(Backend b) const;

  // Sorted unique kernel ids.
  std::vector<std::string_view> kernel_ids() const;

  // The dtype of the id's first registration (its pre-dtype-axis
  // behaviour); throws for unknown ids.
  DType default_dtype(std::string_view id) const;

  // Sorted unique lane counts registered for `id` at or below `b` at the
  // given dtype — which widths a pinned lookup can resolve.  The two-
  // argument form uses the id's default dtype.
  std::vector<int> registered_widths(std::string_view id, Backend b) const;
  std::vector<int> registered_widths(std::string_view id, Backend b,
                                     DType dt) const;

  // Sorted unique dtypes registered for `id` at or below `b`.
  std::vector<DType> registered_dtypes(std::string_view id, Backend b) const;

  template <class Fn>
  Fn* get(std::string_view id) const {
    return reinterpret_cast<Fn*>(resolve(id));
  }
  template <class Fn>
  Fn* get_at(std::string_view id, Backend b) const {
    return reinterpret_cast<Fn*>(resolve_at(id, b));
  }
  // Width-pinned lookup: the engine at exactly `vl` lanes, searched
  // downward from `b` (e.g. vl=4 on an avx512 host resolves to the avx2
  // engine; vl=8 on an avx2-only host to ScalarVec<double, 8>).
  template <class Fn>
  Fn* get_at(std::string_view id, Backend b, int vl) const {
    return reinterpret_cast<Fn*>(resolve_at(id, b, vl));
  }
  // Dtype-pinned lookup (vl = kAnyVl -> the backend's native width for the
  // dtype).  Fn must be the dtype's signature alias (e.g. the float alias
  // for kF32) — the dtype axis is what keeps this cast sound.
  template <class Fn>
  Fn* get_at(std::string_view id, Backend b, int vl, DType dt) const {
    return reinterpret_cast<Fn*>(resolve_at(id, b, vl, dt));
  }

 private:
  // default_dtype that cannot throw (falls back to kF64 for unknown ids);
  // used when building lookup-failure messages.
  DType default_dtype_or_f64(std::string_view id) const;

  struct Entry {
    std::string_view id;  // points at a string literal from kernels.hpp
    Backend backend;
    int vl;    // lane count of the registered engine (kAnyVl = unspecified)
    DType dtype;
    AnyFn fn;
  };
  [[noreturn]] void throw_unknown(std::string_view id, Backend b, int vl,
                                  DType dt) const;
  std::vector<Entry> entries_;
  bool backend_seen_[kBackendCount] = {};
};

}  // namespace tvs::dispatch
