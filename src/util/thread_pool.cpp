#include "util/thread_pool.hpp"

#include <cstdlib>
#include <memory>
#include <string>

#include "util/obs/obs.hpp"

namespace orev::util {

namespace {

thread_local bool tls_in_parallel_region = false;

/// RAII flag so nested parallel_for calls degrade to inline execution.
struct RegionGuard {
  RegionGuard() { tls_in_parallel_region = true; }
  ~RegionGuard() { tls_in_parallel_region = false; }
};

int env_default_threads() {
  const char* env = std::getenv("OREV_NUM_THREADS");
  if (env == nullptr) return 1;
  const int n = std::atoi(env);
  return n >= 1 ? n : 1;
}

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  OREV_CHECK(num_threads >= 1, "ThreadPool needs at least one thread");
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 1; i < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::in_parallel_region() { return tls_in_parallel_region; }

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void()>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      seen_generation = generation_;
      job = job_;
    }
    {
      static obs::Gauge& busy = obs::gauge("pool.busy_workers");
      static obs::SketchMetric& task_ms = obs::sketch(
          "pool.task_ms", 0.01, "time one worker spent inside a region");
      RegionGuard guard;
      busy.add(1.0);
      obs::ScopedTimerMs task_timer(task_ms);
      OREV_TRACE_SPAN_CAT("pool.task", "pool");
      (*job)();
      busy.add(-1.0);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++workers_done_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::run_on_all(const std::function<void()>& participant) {
  if (workers_.empty()) {
    RegionGuard guard;
    participant();
    return;
  }
  // Region-level observability (fan-out count, wall time, concurrency).
  // Recorded only on the multi-worker path, so the single-threaded default
  // configuration pays nothing. One region is tens of microseconds and up,
  // so the two clock reads here are noise.
  static obs::Counter& regions =
      obs::counter("pool.regions", "parallel regions dispatched to workers");
  static obs::SketchMetric& region_ms =
      obs::sketch("pool.region_ms", 0.01, "wall time of one parallel region");
  static obs::Gauge& busy =
      obs::gauge("pool.busy_workers", "tasks currently inside a region");
  regions.inc();
  obs::ScopedTimerMs region_timer(region_ms);
  OREV_TRACE_SPAN_CAT("pool.region", "pool");
  {
    std::lock_guard<std::mutex> lock(mu_);
    OREV_CHECK(job_ == nullptr, "ThreadPool::run_on_all is not reentrant");
    job_ = &participant;
    workers_done_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();
  {
    RegionGuard guard;
    busy.add(1.0);
    participant();
    busy.add(-1.0);
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return workers_done_ == static_cast<int>(workers_.size());
    });
    job_ = nullptr;
  }
}

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(env_default_threads());
    obs::gauge("pool.threads", "size of the process-wide pool")
        .set(static_cast<double>(g_pool->size()));
  }
  return *g_pool;
}

void set_num_threads(int n) {
  OREV_CHECK(n >= 1, "set_num_threads needs n >= 1");
  OREV_CHECK(!ThreadPool::in_parallel_region(),
             "set_num_threads inside a parallel region");
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool && g_pool->size() == n) return;
  g_pool.reset();  // join old workers before spawning the new pool
  g_pool = std::make_unique<ThreadPool>(n);
  obs::gauge("pool.threads", "size of the process-wide pool")
      .set(static_cast<double>(n));
}

int num_threads() { return global_pool().size(); }

}  // namespace orev::util
