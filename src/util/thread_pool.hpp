#pragma once

// A small shared worker pool for deterministic chunk-parallel folds.
//
// The pool executes index-space jobs: run(count, width, job) invokes
// job(0), ..., job(count-1) exactly once each, spread over up to `width`
// threads (the calling thread participates), and returns only when every
// invocation has finished. Chunk *scheduling* is nondeterministic, so
// callers must make their outputs independent of execution order — the
// round-execution engine does this by giving each chunk a disjoint output
// range and merging per-chunk results in chunk order (the Def. 7
// determinism contract: results are bit-identical at any thread count).
//
// Sizing: the process-wide pool (`ThreadPool::global()`) lazily grows to
// the widest request it has served. `configured_threads()` reads the
// UMC_THREADS environment knob (default: hardware concurrency) and is the
// width used by engines unless overridden per-engine. Jobs must not call
// back into run() (no nested parallelism).

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace umc {

struct TaskSession;       // scheduler state of one TaskGraph session (in .cpp)
struct TaskSessionTask;   // one queued task

class ThreadPool {
 public:
  ThreadPool() = default;
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool. Thread-safe.
  static ThreadPool& global();

  /// The UMC_THREADS knob: a positive integer, defaulting to
  /// std::thread::hardware_concurrency() (at least 1), clamped to [1, 64].
  /// Read once at first use.
  static int configured_threads();

  /// Runs job(i) for every i in [0, count) across up to `width` threads
  /// (including the caller) and blocks until all invocations finished.
  /// width <= 1 or count <= 1 degrades to a plain sequential loop on the
  /// calling thread. Must not be called from inside a running job; calls
  /// from distinct threads are serialized (one run owns the pool at a time).
  void run(std::size_t count, int width, const std::function<void(std::size_t)>& job);

  /// Number of worker threads currently spawned (excludes callers).
  [[nodiscard]] int workers() const;

  /// While alive on a thread, run() calls from that thread degrade to the
  /// inline sequential loop regardless of the requested width. Outer
  /// parallel drivers (e.g. the per-tree fan-out in exact_mincut) install
  /// one inside each job so width-parallel library code they call nests
  /// safely — outputs are width-independent by the Def. 7 contract, so
  /// forcing the inner width to 1 changes nothing observable.
  class SequentialScope {
   public:
    SequentialScope();
    ~SequentialScope();
    SequentialScope(const SequentialScope&) = delete;
    SequentialScope& operator=(const SequentialScope&) = delete;
  };

  /// Stable index of the calling thread within the pool: 0 for any thread
  /// that is not a pool worker (submitters included), worker id + 1 for
  /// workers. Observability only — do not branch algorithm logic on it.
  [[nodiscard]] static int current_index();

  friend class TaskGraph;

 private:
  void ensure_workers(int want);
  void worker_loop(int id);
  /// Pops and executes indices of generation `gen`, returning as soon as the
  /// pool has moved past it (stale wake-ups execute nothing).
  void drain(std::uint64_t gen);

  std::mutex run_mu_;  // serializes external run() submitters
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait here for a generation
  std::condition_variable done_cv_;   // run() waits here for completion
  std::vector<std::thread> threads_;
  bool stop_ = false;

  // State of the current generation (guarded by mu_; indices handed out
  // under the lock — chunk bodies are coarse, so contention is negligible
  // and the simple locking scheme is trivially race-free).
  std::uint64_t generation_ = 0;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t next_ = 0;       // next index to hand out
  std::size_t total_ = 0;      // indices in this generation
  std::size_t remaining_ = 0;  // invocations not yet finished
  int allowed_workers_ = 0;    // workers with id < allowed participate
};

// ---------------------------------------------------------------------------
// Dynamic fork-join task sessions on the shared pool.
//
// run() executes a FIXED index space; the min-cut solve needs the opposite:
// work discovered while working (trees emitted by the packing producer,
// star/path-to-path items discovered inside each tree's solve). A TaskGraph
// session is a region in which tasks may be spawned into TaskGroups and are
// executed by up to `width` threads (the opening thread participates, via
// one pool generation of `width` session-worker jobs).
//
// Scheduling is a chunked-claim FIFO: spawned tasks enter one session-wide
// queue, and any session thread without work claims the oldest unclaimed
// task under the session lock (tasks are coarse — a star solve, a tree
// solve — so the lock is never hot). Joins are help-first: a thread waiting
// on a TaskGroup first executes that group's still-queued tasks (which
// keeps help stacks as shallow as plain recursion), then any other queued
// task, and only blocks when every remaining task of its group is already
// running on another thread.
//
// Determinism is the same contract as run(): which thread executes a task
// is nondeterministic, so tasks must write to disjoint result slots and the
// joiner must merge slots in a fixed (spawn-index) order. Under that
// discipline outputs — including every Ledger counter — are bit-identical
// at any width; docs/PARALLELISM.md states the argument for the min-cut
// task graph.
//
// Session workers run under a SequentialScope, so width-parallel library
// code called from a task (tree primitives, round-engine folds) degrades to
// its inline loop instead of deadlocking on the pool.
//
// Degradation to plain inline execution (spawn == direct call, join ==
// no-op) happens when width <= 1, when the caller is already inside a pool
// job or SequentialScope, or when a session is already active on this
// thread; TaskGroups constructed outside any session likewise run their
// spawns inline. Inline execution IS the sequential reference order, so
// the width-1 ledger is by construction the sequential one.
//
// A task that throws: the first exception is captured, the session drains
// (remaining tasks still run), and session() rethrows it on the opening
// thread — matching what a sequential exact_mincut caller sees.

class TaskGroup;

class TaskGraph {
 public:
  struct Stats {
    std::int64_t spawned = 0;  // tasks queued through TaskGroup::spawn
    std::int64_t helped = 0;   // tasks claimed by a join from ANOTHER group's queue
    int width = 1;             // session width after degradation rules
  };

  /// Runs root() plus every task transitively spawned into TaskGroups
  /// created inside it, on up to `width` threads; returns when all tasks
  /// finished. See the degradation rules above.
  static Stats session(int width, const std::function<void()>& root);

  /// True while the calling thread executes inside a (non-degraded)
  /// session. Observability only.
  [[nodiscard]] static bool in_session();
};

/// A fork-join handle: spawn N tasks, join, then merge their slots in spawn
/// order. Owned by exactly one task (or the session root); spawn/join must
/// be called from the owning thread only, and the group must be joined
/// before destruction (asserted).
class TaskGroup {
 public:
  TaskGroup();
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Queues `fn` for execution by the session (runs it inline immediately
  /// when no session is active — the sequential reference order).
  void spawn(std::function<void()> fn);

  /// Executes/helps until every task spawned into this group has finished.
  /// Reusable: spawn/join cycles are allowed.
  void join();

 private:
  friend struct TaskSession;
  TaskSession* session_;                       // null => inline mode
  std::size_t outstanding_ = 0;                // spawned, not yet finished
  std::deque<TaskSessionTask*> local_queue_;   // this group's unclaimed tasks
};

}  // namespace umc
