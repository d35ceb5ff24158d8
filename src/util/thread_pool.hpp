// Block-parallel work execution.
//
// The paper parallelises both Gompresso itself (inter-block parallelism,
// §III) and the CPU baseline libraries (§V-D) by splitting the input into
// equally-sized blocks and having worker threads pull block indices from a
// common queue: "Once a thread has completed decompressing a data block,
// it immediately processes the next block from a common queue. This
// balances the load across CPU threads despite input-dependent processing
// times." This pool implements exactly that discipline.
//
// Extensions for the fast decode path:
//   * parallel_for_worker exposes a dense participant index so callers can
//     keep per-worker accumulators (scratch arenas, metrics) and merge
//     once at the end instead of taking a mutex per block.
//   * parallel_for_chunked dispatches [begin, end) ranges at a caller-
//     chosen grain, which makes fanning out the many small sub-block lanes
//     of a single block cheap (intra-block parallelism, §III-B).
//   * A job running inside a pool may call any parallel_for variant
//     again: on the same pool the nested call runs inline on the calling
//     worker with its enclosing worker index (no deadlock, no
//     oversubscription); on a different pool it dispatches normally,
//     since that pool's workers and worker-index space are independent.
//   * submit() enqueues a detached task on a bounded queue; idle workers
//     interleave tasks with parallel_for jobs. This is what the serve
//     subsystem's pipelined prefetcher rides on: each in-flight block is
//     one submitted decode task, and the queue bound is the backstop
//     behind the session's own in-flight window.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/bounded_queue.hpp"
#include "util/thread_annotations.hpp"

namespace gompresso {

/// A fixed-size pool of worker threads executing indexed block jobs from a
/// shared atomic counter (the "common queue" of §V-D).
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return threads_.size(); }

  /// Total concurrent participants of a parallel_for: the spawned workers
  /// plus the calling thread. Also the exclusive upper bound of the worker
  /// index passed to parallel_for_worker.
  std::size_t parallelism() const { return threads_.size() + 1; }

  /// Runs fn(i) for every i in [0, count), distributing indices across the
  /// workers via a shared counter. Blocks until all indices are processed.
  /// The calling thread participates in the work. Exceptions thrown by fn
  /// are captured and the first one is rethrown on the caller.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Like parallel_for, but fn also receives the dense index of the
  /// participant executing it (0 = the calling thread, 1..num_threads() =
  /// spawned workers). The same participant never runs two indices
  /// concurrently, so fn may freely mutate per-worker state slot
  /// `worker` without synchronisation.
  void parallel_for_worker(
      std::size_t count,
      const std::function<void(std::size_t worker, std::size_t i)>& fn);

  /// Runs fn(begin, end) over [0, count) in chunks of `grain` indices.
  /// One queue pop dispatches a whole chunk, amortising the shared-counter
  /// traffic when individual indices are tiny (sub-block lanes).
  void parallel_for_chunked(
      std::size_t count, std::size_t grain,
      const std::function<void(std::size_t begin, std::size_t end)>& fn);

  /// Enqueues `fn` for asynchronous execution by an idle worker. Blocks
  /// (backpressure) while the bounded task queue is full. With no
  /// spawned workers (parallelism() == 1) the task runs synchronously on
  /// the caller instead. `fn` must not throw — an escaping exception
  /// terminates the process, exactly as it would from a raw std::thread;
  /// callers that need failure reporting capture an exception_ptr inside
  /// the task (see serve::DecodeSession). A task must not block on the
  /// completion of a later-submitted task (the queue is FIFO and workers
  /// are finite), and all submitted tasks must complete or be drained
  /// before the pool is destroyed; the destructor runs any still-queued
  /// tasks on the destructing thread.
  void submit(std::function<void()> fn);

  /// True when submit() executes asynchronously (spawned workers exist).
  bool async() const { return !threads_.empty(); }

 private:
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    util::Mutex error_mutex;
    std::exception_ptr error GUARDED_BY(error_mutex);
  };

  void run(std::size_t count, const std::function<void(std::size_t, std::size_t)>& fn)
      EXCLUDES(mutex_);
  void worker_loop(std::size_t worker_index) EXCLUDES(mutex_);
  void run_job(Job& job, std::size_t worker_index) const EXCLUDES(mutex_);

  std::vector<std::thread> threads_;
  util::Mutex mutex_;
  util::CondVar cv_;
  util::CondVar done_cv_;
  std::shared_ptr<Job> current_ GUARDED_BY(mutex_);
  std::uint64_t generation_ GUARDED_BY(mutex_) = 0;
  bool stop_ GUARDED_BY(mutex_) = false;
  util::BoundedQueue<std::function<void()>> tasks_;
};

/// Singleton pool shared by the library's parallel codecs. Sized to the
/// hardware concurrency of the host.
ThreadPool& default_pool();

/// The library's one thread-plan rule, shared by every entry point that
/// takes a `num_threads` knob. A non-null `shared` pool wins outright;
/// otherwise 0 selects default_pool(), 1 selects no pool (the caller
/// does the work inline) and n > 1 builds a pool of n participants
/// owned by this object, which lives as long as the plan does.
class PoolPlan {
 public:
  explicit PoolPlan(std::size_t num_threads, ThreadPool* shared = nullptr);

  /// The pool to run on; nullptr = inline on the calling thread.
  ThreadPool* get() const { return pool_; }

 private:
  std::unique_ptr<ThreadPool> own_;
  ThreadPool* pool_ = nullptr;
};

/// The block plan compress() and decompress() share. `one(worker, b,
/// lane_pool)` processes block b with per-worker state `worker`:
///   * no pool, or a pool without workers: blocks in order on one state;
///   * more than one block (or none): whole blocks pulled from the
///     common queue, one state per participant — pipelining whole blocks
///     beats fanning out their lanes whenever there is more than one;
///   * a single block: one state, with the pool passed down as
///     `lane_pool` so the block fans its sub-block lanes out instead.
/// `workers` is resized to the states used, for the caller to merge.
template <class Worker, class BlockFn>
void run_block_plan(ThreadPool* pool, std::size_t num_blocks,
                    std::vector<Worker>& workers, const BlockFn& one) {
  if (pool == nullptr || pool->parallelism() == 1) {
    workers.resize(1);
    for (std::size_t b = 0; b < num_blocks; ++b) one(workers[0], b, nullptr);
  } else if (num_blocks != 1) {
    workers.resize(pool->parallelism());
    pool->parallel_for_worker(num_blocks, [&](std::size_t worker, std::size_t b) {
      one(workers[worker], b, nullptr);
    });
  } else {
    workers.resize(1);
    one(workers[0], 0, pool);
  }
}

}  // namespace gompresso
