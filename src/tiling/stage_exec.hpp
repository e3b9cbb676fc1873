// Stage runner for the tiled drivers.
//
// Every tiled driver in this directory is a sequence of STAGES — a diamond
// phase over bands, a parallelogram anti-diagonal, an LCS wavefront — where
// the iterations inside one stage are independent and a barrier separates
// consecutive stages.  Each driver hands every stage to stage_run().  The
// null executor (the default in every Options struct) is the OpenMP loop:
// stage_run then runs the stage as one OpenMP parallel loop, dynamic
// schedule, chunk 1, the slot the thread number.  A non-null StageExec
// receives the stage instead, so an external scheduler (the serving pool,
// see serve/sched.hpp) can interleave the tiles of several problems on
// shared workers.  Because the stage decomposition and per-tile bodies are
// identical on both paths, results are bit-identical regardless of which
// executor runs them.
//
// Deliberately a POD of function pointers, not a virtual interface: these
// headers are included by the per-backend kernel TUs, and a vtable's weak
// symbols would leak past the backends' hidden-visibility discipline
// (tvslint R3).
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>

#include "util/omp_compat.hpp"

namespace tvs::tiling {

struct StageExec {
  void* ctx = nullptr;
  // Upper bound on concurrently running stage bodies; drivers size their
  // per-slot workspaces with stage_slots().
  int slots = 1;
  // Runs body(body_ctx, i, slot) for every i in [0, n) and returns only
  // after all n iterations completed.  The slot passed to a body is unique
  // among the bodies running at that moment (it indexes scratch), in
  // [0, slots).
  void (*run)(void* ctx, int n, void (*body)(void* body_ctx, int i, int slot),
              void* body_ctx) = nullptr;
};

// Number of distinct slots stage_run(ex, ...) may pass to a body: the
// OpenMP team size on the null executor, ex->slots otherwise (the larger
// of the two, so one workspace vector serves both).
inline std::size_t stage_slots(const StageExec* ex) {
  return static_cast<std::size_t>(
      std::max(omp_get_max_threads(), ex != nullptr ? ex->slots : 0));
}

// Runs one stage of n independent iterations: body(i, slot) for every i in
// [0, n), on ex or, when ex is null, on the OpenMP loop below.  The
// callable stays on the caller's stack — ex->run blocks until every
// iteration is done, so the reference outlives all uses.
template <class Body>
void stage_run(const StageExec* ex, int n, Body&& body) {
  if (ex == nullptr) {
#pragma omp parallel for schedule(dynamic, 1)
    for (int i = 0; i < n; ++i) body(i, omp_get_thread_num());
    return;
  }
  using Fn = std::remove_reference_t<Body>;
  // const_cast for the void* handoff only — the trampoline restores the
  // original (possibly const) callable type before invoking it.
  ex->run(
      ex->ctx, n,
      [](void* c, int i, int slot) { (*static_cast<Fn*>(c))(i, slot); },
      const_cast<void*>(static_cast<const void*>(&body)));
}

}  // namespace tvs::tiling
