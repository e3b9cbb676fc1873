#include "serve/executor.hpp"

#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "serve/topology.hpp"
#include "util/env.hpp"

namespace tvs::serve {

namespace {

// One worker's two-band task deque.  The owner pops from the back, thieves
// take half from the front; interactive tasks always go before batch ones
// on both sides.  Both sides serialize on mu (the deques are short, so a
// plain mutex beats a lock-free deque's complexity here).
struct TaskQueue {
  std::mutex mu;
  std::deque<std::function<void()>> q_hi;  // Band::kInteractive
  std::deque<std::function<void()>> q_lo;  // Band::kBatch
};

// Sleep/wake state shared by the workers.  queued is the number of tasks
// submitted but not yet claimed, parked the number of workers inside the
// cv wait; stop flips once, in the destructor.  The invariant that kills
// the lost-wakeup window: every 0 -> 1 transition of queued notifies under
// mu, and every claimer that still sees queued > 0 with parked > 0
// re-notifies — so as long as work is pending and anyone is parked, a
// wakeup is always in flight and the wait_for timeout below is a pure
// safety net.
struct Signal {
  std::mutex mu;
  std::condition_variable cv;
  long queued = 0;
  int parked = 0;
  bool stop = false;
};

// A popped/stolen task plus the band it came from (for the counters).
struct Taken {
  std::function<void()> task;
  bool interactive = false;
};

int configured_workers(int requested) {
  if (requested > 0) return requested;
  if (const char* env = util::env_cstr("TVS_SERVE_WORKERS");
      env != nullptr && env[0] != '\0') {
    int v = 0;
    const char* last = env + std::strlen(env);
    const auto [ptr, ec] = std::from_chars(env, last, v);
    if (ec == std::errc() && ptr == last && v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

thread_local int t_worker_index = -1;

}  // namespace

struct ThreadPool::Impl {
  Topology topo = Topology::detect();
  std::vector<std::unique_ptr<TaskQueue>> queues;
  std::vector<int> node_of;  // worker index -> home node
  Signal sig;
  std::atomic<long> tasks_run{0};
  std::atomic<long> steals{0};
  std::atomic<long> interactive_run{0};
  std::atomic<long> interactive_submitted{0};
  std::atomic<unsigned> next_queue{0};
  std::vector<std::thread> threads;

  // Pops the back of the worker's own deque, interactive band first.
  Taken take_own(std::size_t self) {
    TaskQueue& q = *queues[self];
    const std::lock_guard<std::mutex> lock(q.mu);
    if (!q.q_hi.empty()) {
      Taken t{std::move(q.q_hi.back()), true};
      q.q_hi.pop_back();
      return t;
    }
    if (!q.q_lo.empty()) {
      Taken t{std::move(q.q_lo.back()), false};
      q.q_lo.pop_back();
      return t;
    }
    return {};
  }

  // Steals ceil(half) of one victim band from the front — the interactive
  // band of any victim before any batch band, so thieves also respect
  // priority.  The first stolen task is returned for immediate execution,
  // the rest move to the same band of the thief's own deque.
  Taken steal(std::size_t self) {
    const std::size_t n = queues.size();
    for (const bool interactive : {true, false}) {
      for (std::size_t off = 1; off < n; ++off) {
        TaskQueue& victim = *queues[(self + off) % n];
        std::deque<std::function<void()>> grabbed;
        {
          const std::lock_guard<std::mutex> lock(victim.mu);
          std::deque<std::function<void()>>& src =
              interactive ? victim.q_hi : victim.q_lo;
          const std::size_t have = src.size();
          if (have == 0) continue;
          const std::size_t take = (have + 1) / 2;
          for (std::size_t i = 0; i < take; ++i) {
            grabbed.push_back(std::move(src.front()));
            src.pop_front();
          }
        }
        steals.fetch_add(1, std::memory_order_relaxed);
        Taken t{std::move(grabbed.front()), interactive};
        grabbed.pop_front();
        if (!grabbed.empty()) {
          TaskQueue& own = *queues[self];
          const std::lock_guard<std::mutex> lock(own.mu);
          std::deque<std::function<void()>>& dst =
              interactive ? own.q_hi : own.q_lo;
          for (std::function<void()>& task : grabbed) {
            dst.push_back(std::move(task));
          }
        }
        return t;
      }
    }
    return {};
  }

  void worker(std::size_t self) {
    t_worker_index = static_cast<int>(self);
    if (topo.active()) topo.pin_current_thread(node_of[self]);

    for (;;) {
      Taken taken = take_own(self);
      if (!taken.task) {
        // A successful steal moved (take - 1) extra tasks into our own
        // deque; they are still claimed against sig.queued only when
        // popped, so one claim per executed task keeps the books exact.
        taken = steal(self);
      }
      if (taken.task) {
        {
          const std::lock_guard<std::mutex> lock(sig.mu);
          --sig.queued;
          // Cascade: we claimed one task but observe others still pending
          // with workers parked — pass the wakeup on so a notify consumed
          // by an already-waking worker can never strand queued work.
          if (sig.queued > 0 && sig.parked > 0) sig.cv.notify_one();
        }
        taken.task();
        tasks_run.fetch_add(1, std::memory_order_relaxed);
        if (taken.interactive) {
          interactive_run.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      std::unique_lock<std::mutex> lock(sig.mu);
      if (sig.stop && sig.queued == 0) return;
      if (sig.queued == 0 && !sig.stop) {
        ++sig.parked;
        // The predicate makes the submit-side notify sufficient; the long
        // timeout is defense in depth against an unknown accounting bug,
        // not part of the latency story.
        sig.cv.wait_for(lock, std::chrono::seconds(5),
                        [this] { return sig.queued > 0 || sig.stop; });
        --sig.parked;
      }
      // sig.queued > 0 with dry deques means another worker claimed tasks
      // it has not finished booking yet; loop and re-scan.
    }
  }
};

ThreadPool::ThreadPool(int workers) : impl_(std::make_unique<Impl>()) {
  const int n = configured_workers(workers);
  impl_->queues.reserve(static_cast<std::size_t>(n));
  impl_->node_of.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    impl_->queues.push_back(std::make_unique<TaskQueue>());
    impl_->node_of.push_back(impl_->topo.node_of_worker(i));
  }
  impl_->threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    impl_->threads.emplace_back(
        [impl = impl_.get(), i] { impl->worker(static_cast<std::size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(impl_->sig.mu);
    impl_->sig.stop = true;
    impl_->sig.cv.notify_all();
  }
  for (std::thread& t : impl_->threads) t.join();
}

void ThreadPool::submit(std::function<void()> task, Band band) {
  const std::size_t i =
      impl_->next_queue.fetch_add(1, std::memory_order_relaxed) %
      impl_->queues.size();
  if (band == Band::kInteractive) {
    impl_->interactive_submitted.fetch_add(1, std::memory_order_relaxed);
  }
  {
    TaskQueue& q = *impl_->queues[i];
    const std::lock_guard<std::mutex> lock(q.mu);
    if (band == Band::kInteractive) {
      q.q_hi.push_back(std::move(task));
    } else {
      q.q_lo.push_back(std::move(task));
    }
  }
  {
    const std::lock_guard<std::mutex> lock(impl_->sig.mu);
    ++impl_->sig.queued;
    impl_->sig.cv.notify_one();
  }
}

int ThreadPool::workers() const {
  return static_cast<int>(impl_->queues.size());
}

int ThreadPool::current_worker() noexcept { return t_worker_index; }

ExecutorStats ThreadPool::stats() const {
  ExecutorStats s;
  s.tasks_run = impl_->tasks_run.load(std::memory_order_relaxed);
  s.steals = impl_->steals.load(std::memory_order_relaxed);
  s.interactive_run = impl_->interactive_run.load(std::memory_order_relaxed);
  s.interactive_submitted =
      impl_->interactive_submitted.load(std::memory_order_relaxed);
  s.workers = workers();
  s.nodes = impl_->topo.active() ? impl_->topo.nodes() : 1;
  s.workers_per_node.assign(static_cast<std::size_t>(s.nodes), 0);
  for (const int node : impl_->node_of) {
    ++s.workers_per_node[static_cast<std::size_t>(node)];
  }
  return s;
}

namespace {

// Set once when default_pool() first constructs the singleton, so
// default_pool_stats() can answer without forcing the pool into existence.
std::atomic<ThreadPool*> g_default_pool{nullptr};

}  // namespace

ThreadPool& default_pool() {
  static ThreadPool pool(0);
  g_default_pool.store(&pool, std::memory_order_release);
  return pool;
}

ExecutorStats default_pool_stats() {
  ThreadPool* pool = g_default_pool.load(std::memory_order_acquire);
  return pool != nullptr ? pool->stats() : ExecutorStats{};
}

}  // namespace tvs::serve
