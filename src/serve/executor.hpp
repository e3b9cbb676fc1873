// The serving executor: a work-stealing thread pool sized for many small
// independent problems.
//
// Each worker owns a two-band deque (interactive over batch); submit()
// distributes tasks round-robin across the deques, an owner pops from the
// back of its own — always draining the interactive band first — and a
// worker that runs dry steals HALF of a victim's fuller band from the
// front (one steal amortizes over several tasks, so a burst submitted to
// one queue spreads across the pool in O(log n) steals).  Idle workers
// park on a condition variable whose queued/parked accounting makes the
// submit-side notify sufficient — the remaining wait_for timeout is a long
// safety net, not a latency backstop — so an idle-pool submit starts
// running in microseconds, not poll periods.
//
// Workers pin to NUMA nodes under serve::Topology (TVS_SERVE_NUMA); the
// tiled drivers' ring workspaces are allocated lazily on the executing
// worker, so decomposed tile tasks first-touch their working sets on the
// worker's home node.
//
// Destruction drains: every task submitted before ~ThreadPool() runs to
// completion before the workers join.  Tasks must not throw — the serving
// layer (Solver::submit / Batch) routes exceptions through the returned
// Future, so the closures it enqueues never do.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace tvs::serve {

// Scheduling band of a submitted task.  kInteractive tasks run before any
// kBatch task a worker could otherwise pick, both on the owner's pop and
// on a thief's steal, so small latency-sensitive problems are not starved
// behind large batch jobs (the decomposed tile helpers of large problems
// always ride the batch band).
enum class Band { kBatch = 0, kInteractive = 1 };

// Snapshot of the executor's lifetime counters (serve::stats()).
struct ExecutorStats {
  long tasks_run = 0;  // closures executed to completion
  long steals = 0;     // steal-half operations that took at least one task
  long interactive_run = 0;  // closures executed from the interactive band
  long interactive_submitted = 0;  // submits admitted to the interactive band
  int workers = 0;     // pool size (0 when no pool exists yet)
  int nodes = 0;       // NUMA nodes the workers are placed across
  std::vector<int> workers_per_node;  // placement under the NUMA policy
};

class ThreadPool {
 public:
  // workers = 0 sizes from TVS_SERVE_WORKERS, else the hardware
  // concurrency (min 1).
  explicit ThreadPool(int workers = 0);
  // Drains the queues (all submitted tasks run), then joins the workers.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; runs on some worker, FIFO per queue and band but
  // unordered across the pool.  The task must not throw.
  void submit(std::function<void()> task, Band band = Band::kBatch);

  int workers() const;
  ExecutorStats stats() const;

  // Index of the calling pool worker in [0, workers), or -1 when the
  // caller is not a pool worker.  Thread-local: a thread belongs to at
  // most one pool.
  static int current_worker() noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// The process-wide pool Solver::submit and Batch use, created on first
// touch (sized by TVS_SERVE_WORKERS / hardware concurrency).
ThreadPool& default_pool();

// Stats of the default pool WITHOUT creating it: all-zero until the first
// default_pool() call.  (serve::stats() must not spin up workers just to
// report that none exist.)
ExecutorStats default_pool_stats();

}  // namespace tvs::serve
