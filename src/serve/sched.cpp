#include "serve/sched.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "serve/executor.hpp"

namespace tvs::serve {

// Per-problem scheduler state: the pool the stages fan out on, and the
// epoch counter stamping each stage in wavefront order.
struct StagePoolState {
  ThreadPool* pool = nullptr;
  std::atomic<long> epoch{0};
};

namespace {

std::atomic<long> g_decomposed_runs{0};
std::atomic<long> g_stages{0};
std::atomic<long> g_tile_tasks{0};
std::atomic<long> g_helper_tasks{0};

// Completion latch of one stage; finished flips once, under mu, when the
// last tile retires.
struct StageLatch {
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
};

// One wavefront stage in flight: a claim counter over its n tiles, the
// tile body, and the latch the orchestrator blocks on.  Shared with the
// pool helpers, which may outlive the stage — a helper arriving after the
// counter drained retires without touching anything.
struct Stage {
  std::atomic<int> next{0};
  std::atomic<int> done{0};
  int n = 0;
  long epoch = 0;
  void (*body)(void*, int, int) = nullptr;
  void* body_ctx = nullptr;
  StageLatch latch;
};

// Claims tile indexes until the stage runs dry; the last finisher opens
// the latch.  Runs identically on the orchestrator and on pool helpers.
void drain(const std::shared_ptr<Stage>& st, int slot) {
  for (;;) {
    const int i = st->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= st->n) return;
    st->body(st->body_ctx, i, slot);
    g_tile_tasks.fetch_add(1, std::memory_order_relaxed);
    // acq_rel chains every finisher's tile writes into the final
    // increment, so the orchestrator's latch acquisition below sees the
    // whole stage's work before the next stage starts.
    if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 == st->n) {
      const std::lock_guard<std::mutex> lock(st->latch.mu);
      st->latch.finished = true;
      st->latch.cv.notify_all();
    }
  }
}

// StageExec::run bound to a StagePoolState: fans one stage over the pool
// and blocks until every tile completed.  Self-scheduling — the caller
// drains the claim counter inline alongside the helpers it spawned — so a
// stage finishes even when every other worker is busy with other
// problems.
void run_stage(StagePoolState& ps, int n, void (*body)(void*, int, int),
               void* body_ctx) {
  if (n <= 0) return;
  ThreadPool& pool = *ps.pool;
  auto st = std::make_shared<Stage>();
  st->n = n;
  st->epoch = ps.epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  st->body = body;
  st->body_ctx = body_ctx;
  g_stages.fetch_add(1, std::memory_order_relaxed);

  // The orchestrator's workspace slot: its own worker slot when it is a
  // pool worker (then no helper can run on that worker concurrently), the
  // extra slot past the pool otherwise.
  const int self = ThreadPool::current_worker();
  const int self_slot = self >= 0 ? self : pool.workers();

  // Helpers ride the batch band: a large problem's tiles must never
  // preempt interactive submits.
  const int helpers = std::min(n - 1, pool.workers());
  for (int h = 0; h < helpers; ++h) {
    g_helper_tasks.fetch_add(1, std::memory_order_relaxed);
    pool.submit(
        [st] {
          const int w = ThreadPool::current_worker();
          drain(st, w >= 0 ? w : 0);
        },
        Band::kBatch);
  }
  drain(st, self_slot);

  std::unique_lock<std::mutex> lock(st->latch.mu);
  st->latch.cv.wait(lock, [&st] { return st->latch.finished; });
  // Stages of one problem are issued strictly in order; anything else
  // would break the wavefront dependence chain.
  assert(st->epoch == ps.epoch.load(std::memory_order_relaxed));
}

}  // namespace

SchedStats sched_stats() {
  SchedStats s;
  s.decomposed_runs = g_decomposed_runs.load(std::memory_order_relaxed);
  s.stages = g_stages.load(std::memory_order_relaxed);
  s.tile_tasks = g_tile_tasks.load(std::memory_order_relaxed);
  s.helper_tasks = g_helper_tasks.load(std::memory_order_relaxed);
  return s;
}

StagePool::StagePool(ThreadPool& pool)
    : state_(std::make_shared<StagePoolState>()) {
  state_->pool = &pool;
  g_decomposed_runs.fetch_add(1, std::memory_order_relaxed);
  exec_.ctx = state_.get();
  exec_.slots = pool.workers() + 1;
  exec_.run = [](void* ctx, int n, void (*body)(void*, int, int),
                 void* body_ctx) {
    run_stage(*static_cast<StagePoolState*>(ctx), n, body, body_ctx);
  };
}

}  // namespace tvs::serve
