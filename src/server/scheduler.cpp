#include "server/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace umc::server {

const char* to_string(Admit a) {
  switch (a) {
    case Admit::kAdmitted: return "admitted";
    case Admit::kQueueFull: return "queue-full";
    case Admit::kTenantOverload: return "tenant-overload";
    case Admit::kShuttingDown: return "shutting-down";
  }
  return "?";
}

FairScheduler::FairScheduler(SchedulerConfig cfg) : cfg_(cfg) {
  UMC_ASSERT(cfg_.width >= 1);
  UMC_ASSERT(cfg_.max_queued_global >= 1 && cfg_.max_queued_per_tenant >= 1);
  paused_ = cfg_.start_paused;
}

FairScheduler::~FairScheduler() {
  // run() must have returned (or never started): no queued or running work.
  UMC_ASSERT_MSG(queued_ == 0 && inflight_ == 0,
                 "FairScheduler destroyed with pending work (close() + run() first)");
}

void FairScheduler::set_weight(const std::string& tenant, std::int64_t weight) {
  const std::lock_guard<std::mutex> lock(mu_);
  Tenant& t = tenants_[tenant];
  t.weight = std::clamp<std::int64_t>(weight, 1, 1000);
}

Admit FairScheduler::submit(const std::string& tenant, Job job) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      ++stats_.rejected_shutting_down;
      return Admit::kShuttingDown;
    }
    if (queued_ >= cfg_.max_queued_global) {
      ++stats_.rejected_queue_full;
      return Admit::kQueueFull;
    }
    Tenant& t = tenants_[tenant];
    if (static_cast<int>(t.queue.size()) >= cfg_.max_queued_per_tenant) {
      ++stats_.rejected_tenant_overload;
      return Admit::kTenantOverload;
    }
    // An idle tenant re-enters at the current virtual time: fairness is
    // forward-looking, not banked credit from idle periods.
    if (t.queue.empty() && t.inflight == 0) t.pass = std::max(t.pass, virtual_time_);
    t.queue.push_back(std::move(job));
    ++queued_;
    ++stats_.admitted;
  }
  work_cv_.notify_one();
  return Admit::kAdmitted;
}

FairScheduler::Tenant* FairScheduler::pick_locked(std::string* name) {
  Tenant* best = nullptr;
  for (auto& [tenant_name, t] : tenants_) {
    if (t.queue.empty() || t.inflight > 0) continue;
    // std::map iterates names in order, so strict < keeps the first (and
    // lexicographically smallest) tenant on pass ties — deterministic.
    if (best == nullptr || t.pass < best->pass) {
      best = &t;
      *name = tenant_name;
    }
  }
  return best;
}

void FairScheduler::worker_loop() {
  // A worker IS a pool job: force ThreadPool::run() calls made by the jobs
  // it executes (per-tree solve fan-outs and the like) down to the inline
  // sequential path instead of re-entering the occupied pool.
  const ThreadPool::SequentialScope sequential;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::string name;
    Tenant* t = nullptr;
    work_cv_.wait(lock, [&] {
      if (closed_ && queued_ == 0) return true;
      if (paused_) return false;
      t = pick_locked(&name);
      return t != nullptr;
    });
    if (t == nullptr) {
      // Closed and drained. Dispatching the last queued job does not
      // notify, so a worker still parked behind a tenant's in-flight cap
      // would wait forever: wake every worker to see the drained state.
      work_cv_.notify_all();
      return;
    }

    Job job = std::move(t->queue.front());
    t->queue.pop_front();
    --queued_;
    ++t->inflight;
    ++inflight_;
    ++stats_.dispatched;
    t->pass += kStrideScale / t->weight;
    virtual_time_ = t->pass;

    lock.unlock();
    job();
    job = nullptr;  // release captures before re-locking
    lock.lock();

    // Completing a job can make this tenant eligible again (in-flight cap).
    Tenant& done = tenants_[name];
    --done.inflight;
    --inflight_;
    if (!done.queue.empty()) work_cv_.notify_one();
    if (queued_ == 0 && inflight_ == 0) idle_cv_.notify_all();
  }
}

void FairScheduler::run() {
  // One pool generation of `width` long-lived worker jobs; the caller
  // participates, so width 1 never touches pool workers at all.
  ThreadPool::global().run(static_cast<std::size_t>(cfg_.width), cfg_.width,
                           [this](std::size_t) { worker_loop(); });
  const std::lock_guard<std::mutex> lock(mu_);
  UMC_ASSERT(queued_ == 0 && inflight_ == 0);
}

void FairScheduler::close() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    paused_ = false;  // a paused backlog must still drain
  }
  work_cv_.notify_all();
}

void FairScheduler::pause() {
  const std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void FairScheduler::resume() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void FairScheduler::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return queued_ == 0 && inflight_ == 0; });
}

int FairScheduler::pending(const std::string& tenant) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return 0;
  return static_cast<int>(it->second.queue.size()) + it->second.inflight;
}

int FairScheduler::queued_total() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

bool FairScheduler::closed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

FairScheduler::Stats FairScheduler::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace umc::server
