#include "serve/batch.hpp"

#include <future>
#include <memory>
#include <utility>

#include "serve/sched.hpp"

namespace tvs::serve {

solver::Future<solver::RunResult> submit_on(ThreadPool& pool,
                                            solver::Solver s,
                                            solver::Workload w) {
  // Admission: interactive workloads go to the interactive band, drained
  // before batch work on both pop and steal.  A hint only — results never
  // depend on it.
  const Band band = w.priority() == solver::Priority::kInteractive
                        ? Band::kInteractive
                        : Band::kBatch;
  // A tiled-parallel plan is decomposed into per-tile tasks on the shared
  // pool (serve/sched.hpp) so one large problem does not monopolize a
  // single worker; each wavefront stage still completes before the next
  // starts, so the results stay bit-identical to the synchronous run.
  const bool decompose = s.plan().path == solver::Path::kTiledParallel;
  // shared_ptr, not move-capture: std::function requires copyable
  // closures, and the promise itself is move-only.
  auto promise = std::make_shared<std::promise<solver::RunResult>>();
  solver::Future<solver::RunResult> future = promise->get_future();
  pool.submit(
      [s = std::move(s), w = std::move(w), promise, &pool, decompose] {
        try {
          if (decompose) {
            const StagePool sp(pool);
            promise->set_value(s.with_stage_exec(sp.exec()).run(w));
          } else {
            promise->set_value(s.run(w));
          }
        } catch (...) {
          promise->set_exception(std::current_exception());
        }
      },
      band);
  return future;
}

void Batch::add(const solver::StencilProblem& p, solver::Workload w,
                solver::PlanMode mode) {
  solver::Solver s(p, mode);  // plans through the cache (+ plan store)
  solver::validate_workload(p, w);  // fail at add(), not inside a future
  items_.push_back(Item{std::move(s), std::move(w)});
}

std::vector<solver::Future<solver::RunResult>> Batch::submit() {
  ThreadPool& pool = pool_ != nullptr ? *pool_ : default_pool();
  std::vector<solver::Future<solver::RunResult>> futures;
  futures.reserve(items_.size());
  for (Item& item : items_) {
    futures.push_back(
        submit_on(pool, std::move(item.solver), std::move(item.workload)));
  }
  items_.clear();
  return futures;
}

std::vector<solver::RunResult> Batch::run() {
  std::vector<solver::Future<solver::RunResult>> futures = submit();
  std::vector<solver::RunResult> results;
  results.reserve(futures.size());
  for (solver::Future<solver::RunResult>& f : futures) {
    results.push_back(f.get());
  }
  return results;
}

}  // namespace tvs::serve
