#pragma once

// FairScheduler — per-tenant weighted-fair queuing with admission control
// for the mincutd request plane.
//
// Each tenant owns a FIFO queue of jobs (closures built by the engine:
// execute request, write response). Dispatch is STRIDE SCHEDULING: every
// tenant carries a virtual "pass"; a free worker claims the head job of the
// eligible tenant with the minimum pass (ties broken by tenant name, so
// dispatch order is deterministic at width 1), then advances that tenant's
// pass by kStrideScale / weight. A tenant with weight 2 therefore gets
// twice the service rate of a weight-1 tenant, and a flooding tenant
// cannot starve anyone: after at most (backlog of all OTHER tenants,
// weight-scaled) dispatches, every queued request has been served. A
// tenant idle long enough to fall behind the global virtual time is
// brought up to it on its next submit (no banked credit), which is what
// bounds the latency ratio the fairness test asserts.
//
// Eligibility = nonempty queue AND no job of that tenant in flight. At
// most one job per tenant runs at a time, so each tenant's requests execute
// in arrival order — LOAD, MUTATE, SOLVE sequences keep their meaning
// without per-session locking — while distinct tenants run concurrently.
// This is a rule, not a setting: the engine's queued jobs hold a raw
// Session*, which is only safe while the tenant's jobs run one at a time
// (Engine::evict_lru_locked).
//
// Admission control is two bounded queues deep: a global ceiling and a
// per-tenant ceiling, checked at submit. Rejections are structured Admit
// codes the engine translates into QUEUE_FULL / TENANT_OVERLOAD /
// SHUTTING_DOWN protocol errors — an overloaded daemon degrades by
// rejecting crisply, never by crashing or stalling the wire.
//
// Workers run as ONE generation of long-lived jobs on the shared
// util::ThreadPool (run() blocks until shutdown drains). Inside a pool job
// the TaskGraph degrades to inline execution, so each admitted solve runs
// sequentially on its worker; the daemon's parallelism is across tenants
// (see docs/PARALLELISM.md).

#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace umc::server {

struct SchedulerConfig {
  /// Worker width of the dispatch loop (>= 1; the run() caller counts).
  int width = 1;
  /// Global admission ceiling across every tenant queue.
  int max_queued_global = 256;
  /// Per-tenant admission ceiling.
  int max_queued_per_tenant = 64;
  /// Start with dispatch paused (tests enqueue a deterministic backlog,
  /// then resume).
  bool start_paused = false;
};

/// Admission verdicts. Everything except kAdmitted is a structured
/// rejection; the job was NOT queued.
enum class Admit { kAdmitted, kQueueFull, kTenantOverload, kShuttingDown };

[[nodiscard]] const char* to_string(Admit a);

class FairScheduler {
 public:
  using Job = std::function<void()>;

  explicit FairScheduler(SchedulerConfig cfg = {});
  ~FairScheduler();

  FairScheduler(const FairScheduler&) = delete;
  FairScheduler& operator=(const FairScheduler&) = delete;

  /// Sets (or updates) a tenant's scheduling weight in [1, 1000]; takes
  /// effect from its next dispatch.
  void set_weight(const std::string& tenant, std::int64_t weight);

  /// Queues `job` on `tenant`'s FIFO, subject to admission control.
  [[nodiscard]] Admit submit(const std::string& tenant, Job job);

  /// Runs the dispatch loop across `cfg.width` threads of the shared
  /// ThreadPool (the calling thread participates). Returns after close()
  /// once every queued and in-flight job has finished.
  void run();

  /// Stops admitting (further submits return kShuttingDown) and lets run()
  /// return once the backlog drains. Idempotent, callable from any thread.
  void close();

  /// Test hook: freeze/unfreeze dispatch (admission unaffected).
  void pause();
  void resume();

  /// Blocks until nothing is queued or in flight (daemon shutdown drain;
  /// returns immediately when already idle).
  void wait_idle();

  /// Queued + in-flight jobs for one tenant (engine eviction guard).
  [[nodiscard]] int pending(const std::string& tenant) const;
  /// Queued jobs across all tenants.
  [[nodiscard]] int queued_total() const;
  [[nodiscard]] bool closed() const;

  struct Stats {
    std::int64_t admitted = 0;
    std::int64_t rejected_queue_full = 0;
    std::int64_t rejected_tenant_overload = 0;
    std::int64_t rejected_shutting_down = 0;
    std::int64_t dispatched = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  /// Stride quantum: pass += kStrideScale / weight per dispatch.
  static constexpr std::int64_t kStrideScale = 1'000'000;

  struct Tenant {
    std::deque<Job> queue;
    std::int64_t weight = 1;
    std::int64_t pass = 0;
    int inflight = 0;
  };

  void worker_loop();
  /// Picks the eligible tenant with minimum (pass, name), or nullptr.
  [[nodiscard]] Tenant* pick_locked(std::string* name);

  SchedulerConfig cfg_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: backlog or close
  std::condition_variable idle_cv_;   // run(): drained
  std::map<std::string, Tenant> tenants_;
  std::int64_t virtual_time_ = 0;  // pass of the most recent dispatch
  int queued_ = 0;
  int inflight_ = 0;
  bool paused_ = false;
  bool closed_ = false;
  Stats stats_;
};

}  // namespace umc::server
