// Cross-problem tile scheduling for the serving layer.
//
// A submitted problem whose plan chose the tiled-parallel path would, run
// as one closure, monopolize a single pool worker while the others idle —
// the opposite of what the work-stealing pool is for.  StagePool adapts
// the pool to the tiled drivers' StageExec hook (tiling/stage_exec.hpp):
// each wavefront stage of the tiled run fans out as per-tile tasks on the
// SHARED pool, so several large problems interleave their tiles across all
// workers and small interactive problems slot in between stages.
//
// Dependence order: the tiled drivers only hand a stage to the executor
// when everything it depends on has completed (the stage decomposition IS
// the wavefront order), and StagePool runs stages strictly one at a time —
// a per-problem epoch counter stamps each stage and stale helpers
// observing an older epoch retire without touching tiles.  Within a stage
// every tile is independent, so any interleaving across workers yields
// bit-identical results to the synchronous omp run of the same driver.
//
// Deadlock-free by self-scheduling: the orchestrating thread (the pool
// worker running the submitted problem) drains its own stage's tile
// counter inline alongside the helper tasks it spawned, so a stage always
// completes even when every other worker is busy; helpers arriving late
// find the counter exhausted and exit.  Helpers ride the batch band —
// tiles of large jobs must never preempt interactive submits.
#pragma once

#include <memory>

#include "tiling/stage_exec.hpp"

namespace tvs::serve {

class ThreadPool;
struct StagePoolState;

// Lifetime counters of the decomposed-run scheduler (serve::stats()).
struct SchedStats {
  long decomposed_runs = 0;  // problems served via tile decomposition
  long stages = 0;           // wavefront stages (barriers) executed
  long tile_tasks = 0;       // stage bodies (tiles) run through the pool
  long helper_tasks = 0;     // pool helper closures spawned for stages
};

SchedStats sched_stats();

// One problem's stage executor, bound to a pool for the duration of a
// decomposed run.  Construct next to the Solver::run call and pass exec()
// via Solver::with_stage_exec; the referenced pool must outlive the run.
class StagePool {
 public:
  explicit StagePool(ThreadPool& pool);
  StagePool(const StagePool&) = delete;
  StagePool& operator=(const StagePool&) = delete;

  const tiling::StageExec* exec() const { return &exec_; }

 private:
  std::shared_ptr<StagePoolState> state_;
  tiling::StageExec exec_;
};

}  // namespace tvs::serve
