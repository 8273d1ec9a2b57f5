#pragma once

// Structured round tracing for both simulators.
//
// A span is one timed, named region of execution (an MA round, a compiled
// CONGEST sub-phase, an ARQ attempt, a centroid-recursion level). Spans are
// RAII objects created through the UMC_OBS_SPAN* macros; each records TWO
// clocks:
//   * wall time (nanoseconds, steady clock — injectable for golden tests),
//   * a logical clock (the MA/CONGEST round number or recursion depth the
//     instrumentation site passes in), which is a pure function of the
//     executed algorithm and therefore deterministic and golden-testable
//     at any thread width.
//
// Recording is thread-safe and lock-free on the hot path: every thread owns
// a fixed-capacity ring of TraceEvents (registered once, under a mutex, on
// its first span); a span writes exactly one event into its own ring at
// scope exit with a release store of the event count. When a ring fills,
// further events on that thread are dropped and counted (drop-newest — the
// exported prefix is immutable, so a concurrent snapshot never tears).
// Ring capacity comes from the UMC_OBS_RING env knob (events per thread,
// default 16384, read once).
//
// Kill switch: Tracer::global().set_enabled(false) (the default) reduces a
// span to one relaxed atomic load and a branch — no TLS touch, no
// allocation, no clock read.
// Tracing never feeds back into the simulation: spans only observe, so
// charged ma_rounds / CONGEST round counts are bit-identical with tracing
// on or off.
//
// Span names are static string literals ("ma/round", "arq/attempt", ...);
// the event stores the pointer, not a copy. See DESIGN.md "Observability"
// for the naming scheme.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace umc::obs {

/// One completed span. `seq` is the per-thread span-begin order (monotonic
/// per tid); `depth` the span-nesting depth at begin on that thread. Golden
/// tests compare (name, logical, depth) in seq order — wall fields are the
/// only nondeterministic ones.
struct TraceEvent {
  struct Arg {
    const char* key = nullptr;  // nullptr: slot unused
    std::int64_t value = 0;
  };

  const char* name = nullptr;  // static string literal
  const char* cat = nullptr;   // static string literal
  std::int64_t t0_ns = 0;      // wall-clock begin
  std::int64_t dur_ns = 0;     // wall-clock duration
  std::int64_t logical = -1;   // logical clock at begin (-1: none)
  std::uint64_t seq = 0;
  std::int32_t depth = 0;
  std::int32_t tid = 0;  // stable small id, registration order
  Arg args[2];
};

class ScopedSpan;

class Tracer {
 public:
  /// The process tracer all UMC_OBS_SPAN macros record into. Never
  /// destroyed (worker threads may hold ring pointers at exit).
  static Tracer& global();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Runtime kill switch; off by default. Cheap to flip at any time —
  /// spans already open keep recording, new spans see the new value.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Wall-clock source; nullptr restores the steady clock. Tests inject a
  /// counter here so exported traces are byte-deterministic.
  using ClockFn = std::int64_t (*)();
  void set_clock_for_testing(ClockFn fn) { clock_fn_.store(fn, std::memory_order_relaxed); }

  /// All recorded events, in (tid, seq) order — per-thread streams are
  /// already in begin order; threads are concatenated by tid. Safe against
  /// concurrent recording (sees a prefix of each ring).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Events dropped because a per-thread ring was full.
  [[nodiscard]] std::int64_t dropped() const;

  /// Resets every ring (event counts and drop counters; per-thread seq
  /// survives so later events still sort after earlier ones). Call only
  /// while no span is being recorded concurrently.
  void clear();

  /// The calling thread's stable tid (registers the thread if needed).
  [[nodiscard]] std::int32_t current_tid();

  /// Ring capacity in events per thread (UMC_OBS_RING, read once).
  [[nodiscard]] static std::size_t ring_capacity();

 private:
  friend class ScopedSpan;

  struct ThreadBuffer {
    std::vector<TraceEvent> ring;       // resized to capacity at registration
    std::atomic<std::size_t> count{0};  // committed events (release-stored)
    std::atomic<std::int64_t> dropped{0};
    std::uint64_t seq = 0;   // owned by the registered thread
    std::int32_t depth = 0;  // owned by the registered thread
    std::int32_t tid = 0;
  };

  Tracer() = default;

  [[nodiscard]] std::int64_t now() const;
  /// The calling thread's ring, registering it on first use.
  [[nodiscard]] ThreadBuffer& local_buffer();
  void begin(ScopedSpan& span);
  void end(ScopedSpan& span);

  std::atomic<bool> enabled_{false};
  std::atomic<ClockFn> clock_fn_{nullptr};
  mutable std::mutex registry_mu_;  // guards buffers_ growth only
  std::vector<ThreadBuffer*> buffers_;
};

/// RAII span, normally constructed through the UMC_OBS_SPAN* macros.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat, std::int64_t logical = -1) {
    Tracer& t = Tracer::global();
    if (!t.enabled()) return;  // the entire disabled-mode cost
    name_ = name;
    cat_ = cat;
    logical_ = logical;
    t.begin(*this);
  }
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end(*this);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attach up to two (key, value) args; extras are silently ignored and
  /// inactive spans do nothing. Keys must be static string literals.
  void arg(const char* key, std::int64_t value) {
    if (t_ == nullptr) return;
    if (args_[0].key == nullptr)
      args_[0] = {key, value};
    else if (args_[1].key == nullptr)
      args_[1] = {key, value};
  }

  [[nodiscard]] bool active() const { return t_ != nullptr; }

 private:
  friend class Tracer;
  Tracer* t_ = nullptr;
  Tracer::ThreadBuffer* buf_ = nullptr;
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::int64_t logical_ = -1;
  std::int64_t t0_ = 0;
  std::uint64_t seq_ = 0;
  std::int32_t depth_ = 0;
  TraceEvent::Arg args_[2];
};

#define UMC_OBS_CONCAT_IMPL(a, b) a##b
#define UMC_OBS_CONCAT(a, b) UMC_OBS_CONCAT_IMPL(a, b)

/// Named span object (for .arg() calls after creation).
#define UMC_OBS_SPAN_VAR(var, name, cat) ::umc::obs::ScopedSpan var { (name), (cat) }
#define UMC_OBS_SPAN_VAR_L(var, name, cat, logical) \
  ::umc::obs::ScopedSpan var { (name), (cat), (logical) }

/// Anonymous span covering the enclosing scope.
#define UMC_OBS_SPAN(name, cat) \
  UMC_OBS_SPAN_VAR(UMC_OBS_CONCAT(umc_obs_span_, __COUNTER__), name, cat)
/// Anonymous span with a logical-clock value (round number, depth, ...).
#define UMC_OBS_SPAN_L(name, cat, logical) \
  UMC_OBS_SPAN_VAR_L(UMC_OBS_CONCAT(umc_obs_span_, __COUNTER__), name, cat, logical)

}  // namespace umc::obs
