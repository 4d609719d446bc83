// The serving-side thread pool: a work-queue executor returning futures,
// complementing common/parallel.h (which runs one deterministic indexed
// loop at a time). Submitted tasks are independent requests — the engine
// dispatches compiled (query, plan) pairs here, and determinism comes from
// the *tasks* (per-ticket RNG seeds), not from the scheduler.
//
// Admission control: the queue is bounded (ExecutorOptions::max_queue_depth)
// and admission is explicit. Callers first TryAcquire() a queue-slot
// Permit — refused with Status::Unavailable when the queue is full — and
// only then commit side effects (e.g. charging a privacy-budget ledger)
// before Submit(permit, fn). That ordering is what guarantees a shed
// request never debits epsilon: the refusal happens before any charge.
#ifndef PUFFERFISH_ENGINE_EXECUTOR_H_
#define PUFFERFISH_ENGINE_EXECUTOR_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace pf {

/// Configuration for an Executor.
struct ExecutorOptions {
  /// Worker count; 0 = hardware concurrency (library-wide convention).
  std::size_t num_threads = 0;
  /// Maximum tasks waiting in the queue before TryAcquire sheds with
  /// Unavailable. 0 = unbounded (the pre-admission-control behavior,
  /// kept for tools that would rather block memory than shed).
  std::size_t max_queue_depth = 1024;
};

/// \brief Fixed pool of workers draining a bounded FIFO task queue.
///
/// Tasks must not throw (Status/Result style, as everywhere in the
/// library); a task's error travels inside its returned Result, never as an
/// exception through the future. The destructor drains the queue: every
/// admitted task runs before shutdown, so futures never dangle.
class Executor {
 public:
  /// \brief Move-only RAII hold on one queue slot, acquired via
  /// TryAcquire(). Passing it to Submit transfers the slot to the queued
  /// task (released when a worker dequeues the task); destroying an unused
  /// Permit returns the slot immediately. Never outlive the Executor.
  class Permit {
   public:
    Permit() = default;
    Permit(Permit&& other) noexcept : exec_(other.exec_) {
      other.exec_ = nullptr;
    }
    Permit& operator=(Permit&& other) noexcept {
      if (this != &other) {
        Release();
        exec_ = other.exec_;
        other.exec_ = nullptr;
      }
      return *this;
    }
    ~Permit() { Release(); }

    Permit(const Permit&) = delete;
    Permit& operator=(const Permit&) = delete;

    /// True iff this permit still holds a slot.
    bool valid() const { return exec_ != nullptr; }

   private:
    friend class Executor;
    explicit Permit(Executor* exec) : exec_(exec) {}
    void Release() {
      if (exec_ != nullptr) {
        exec_->ReleaseSlot();
        exec_ = nullptr;
      }
    }
    /// Hands slot ownership to the caller (the queued task) without
    /// releasing it.
    Executor* Detach() {
      Executor* e = exec_;
      exec_ = nullptr;
      return e;
    }
    Executor* exec_ = nullptr;
  };

  /// Admission counters, all monotonically increasing. Invariant:
  /// submitted == admitted + shed (each TryAcquire resolves one way).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
  };

  /// Workers are spawned lazily on the first Submit, so engines used only
  /// for synchronous Compile/Release never pay for idle threads.
  explicit Executor(const ExecutorOptions& options)
      : num_threads_(ResolveThreadCount(options.num_threads)),
        max_queue_depth_(options.max_queue_depth) {}

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  ~Executor() {
    // Move the worker handles out under the lock (joining while holding
    // mutex_ would deadlock against workers draining the queue).
    std::vector<std::thread> workers;
    {
      MutexLock lock(mutex_);
      shutdown_ = true;
      workers = std::move(workers_);
    }
    wake_.NotifyAll();
    for (std::thread& w : workers) w.join();
  }

  std::size_t num_threads() const { return num_threads_; }
  std::size_t max_queue_depth() const { return max_queue_depth_; }

  /// Tasks currently holding queue slots (waiting or permit-held, not yet
  /// dequeued). The engine's cold-analysis shed policy reads this.
  std::size_t queue_depth() const {
    return depth_.load(std::memory_order_relaxed);
  }

  Stats stats() const {
    Stats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.admitted = admitted_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    return s;
  }

  /// \brief Tries to reserve one queue slot. Returns Unavailable (a
  /// transient, retry-after-load-drops refusal) when max_queue_depth tasks
  /// already hold slots. Acquire the permit BEFORE charging budgets or
  /// other side effects so a shed request leaves no trace.
  Result<Permit> TryAcquire() {
    submitted_.fetch_add(1, std::memory_order_relaxed);
    if (max_queue_depth_ > 0) {
      std::size_t cur = depth_.load(std::memory_order_relaxed);
      while (true) {
        if (cur >= max_queue_depth_) {
          shed_.fetch_add(1, std::memory_order_relaxed);
          return Status::Unavailable(
              "executor queue full (depth " + std::to_string(cur) + " >= " +
              std::to_string(max_queue_depth_) + "); retry after load drops");
        }
        if (depth_.compare_exchange_weak(cur, cur + 1,
                                         std::memory_order_relaxed)) {
          break;
        }
      }
    } else {
      depth_.fetch_add(1, std::memory_order_relaxed);
    }
    admitted_.fetch_add(1, std::memory_order_relaxed);
    return Permit(this);
  }

  /// \brief Enqueues `fn` under a previously acquired permit and returns a
  /// future for its result. fn must be invocable with no arguments and must
  /// not throw. The permit's slot is released when a worker dequeues the
  /// task.
  template <typename F>
  auto Submit(Permit permit, F&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    assert(permit.valid() && "Submit requires a valid permit");
    assert(permit.exec_ == this && "permit belongs to a different Executor");
    permit.Detach();  // Slot ownership moves to the queued task.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      MutexLock lock(mutex_);
      if (workers_.empty() && !shutdown_) {
        workers_.reserve(num_threads_);
        for (std::size_t t = 0; t < num_threads_; ++t) {
          workers_.emplace_back([this] { WorkerLoop(); });
        }
      }
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.NotifyOne();
    return future;
  }

 private:
  void ReleaseSlot() { depth_.fetch_sub(1, std::memory_order_relaxed); }

  void WorkerLoop() PF_EXCLUDES(mutex_) {
    while (true) {
      std::function<void()> task;
      {
        MutexLock lock(mutex_);
        while (!shutdown_ && queue_.empty()) {
          wake_.Wait(mutex_);
        }
        if (queue_.empty()) return;  // shutdown_ and nothing left to drain.
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      ReleaseSlot();  // The dequeued task no longer occupies queue depth.
      task();
    }
  }

  const std::size_t num_threads_;
  const std::size_t max_queue_depth_;
  std::atomic<std::size_t> depth_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  Mutex mutex_;
  CondVar wake_;
  std::deque<std::function<void()>> queue_ PF_GUARDED_BY(mutex_);
  /// Empty until the first Submit; the destructor moves the handles out
  /// under the lock before joining.
  std::vector<std::thread> workers_ PF_GUARDED_BY(mutex_);
  bool shutdown_ PF_GUARDED_BY(mutex_) = false;
};

}  // namespace pf

#endif  // PUFFERFISH_ENGINE_EXECUTOR_H_
