// Discrete-event simulation core. A single-threaded event loop with a
// deterministic tie-break (FIFO among equal timestamps), which every other
// substrate (flow network, GPU executors, background workload, pipeline
// executor) schedules against.
#pragma once

#include <cstdint>
#include <memory>

#include "common/expect.hpp"
#include "common/ledger.hpp"
#include "common/metrics.hpp"
#include "common/profile.hpp"
#include "common/small_function.hpp"
#include "common/timeseries.hpp"
#include "common/trace.hpp"
#include "common/units.hpp"
#include "sim/event_queue.hpp"

namespace autopipe::sim {

/// A subsystem that coalesces its queue pushes: it may change state many
/// times within one event callback but needs only the push its last change
/// calls for. It registers with Simulator::defer() on every change and
/// makes that push (or none) in flush().
class DeferredPush {
 public:
  /// Must not throw: it may run while a callback's exception unwinds.
  virtual void flush() = 0;

 protected:
  ~DeferredPush() = default;
};

/// Discrete-event simulator. Events are closures ordered by (time, sequence
/// number); the sequence number makes simultaneous events fire in scheduling
/// order so runs are bit-for-bit reproducible.
///
/// Hot-path discipline: a run executes millions of events, so the queue is
/// a pluggable EventQueue (a timing wheel by default, the reference binary
/// heap when a parity check asks for it — both dequeue in identical order)
/// and the callback type is a move-only small-buffer closure — captures up
/// to the inline budget never touch the allocator. The simulator holds a
/// typed pointer to the concrete (final) queue next to the owning interface
/// pointer, so scheduling and stepping are devirtualized and inlined; on the
/// wheel a popped event's closure even runs in place in its pool node, so a
/// closure is moved exactly once over its lifetime.
class Simulator {
 public:
  using Callback = SimEvent::Callback;

  /// The queue implementation is fixed at construction: the timing wheel
  /// unless a parity check or a test asks for the reference heap.
  explicit Simulator(EventQueueKind queue_kind = EventQueueKind::kWheel);

  /// Current simulated time in seconds.
  Seconds now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must not be in the past). The
  /// optional `label` must be a string literal (or otherwise outlive the
  /// event); it names the event in zero-progress diagnostics.
  void at(Seconds t, Callback fn, const char* label = nullptr) {
    // Tolerate tiny negative drift from floating-point arithmetic on event
    // times, but reject genuinely past scheduling, which indicates a logic
    // bug.
    AUTOPIPE_EXPECT_MSG(t >= now_ - kTimeSlack,
                        "scheduling into the past: t=" << t
                                                       << " now=" << now_);
    schedule(t, std::move(fn), label);
  }

  /// Schedule `fn` `dt` seconds from now (dt >= 0).
  void after(Seconds dt, Callback fn, const char* label = nullptr) {
    AUTOPIPE_EXPECT(dt >= 0.0);
    schedule(now_ + dt, std::move(fn), label);
  }

  /// Run the next pending event. Returns false when the queue is empty.
  /// Throws contract_error when more than zero_progress_bound() consecutive
  /// events execute at the same timestamp — a self-rescheduling loop that
  /// would otherwise spin forever.
  bool step();

  /// Run until the event queue drains.
  void run();

  /// Run events with time <= t, then advance the clock to exactly t. Event
  /// timestamps are exact regardless of the queue's internal bucket
  /// granularity: an event at t + one ulp stays unfired and the clock pins
  /// to t precisely.
  void run_until(Seconds t);

  /// Non-const: runs a pending deferred push first.
  bool empty() {
    if (pending_ != nullptr) flush_pending();
    return wheel_ != nullptr ? wheel_->empty() : heap_->empty();
  }
  std::uint64_t events_processed() const { return events_processed_; }

  /// Events scheduled so far (the next sequence number). The differential
  /// parity harness checks this alongside events_processed: two queue
  /// implementations at parity must push and pop in lockstep.
  std::uint64_t events_scheduled() const { return next_seq_; }

  /// Maximum number of consecutive events the loop will execute at one
  /// timestamp before declaring zero progress (default 1e6). The default is
  /// far above any legitimate same-instant cascade; lower it in tests to
  /// catch loops quickly.
  void set_zero_progress_bound(std::uint64_t bound);
  std::uint64_t zero_progress_bound() const { return zero_progress_bound_; }

  /// Time of the next pending event; only valid when !empty(). Non-const:
  /// the timing wheel settles its buckets lazily on first access.
  Seconds next_event_time();

  /// Register `client`'s deferred push. Outside an event callback it runs
  /// at once. Inside one it runs at the first of: the next push by any
  /// caller, the callback's exit (by return or exception), or a queue
  /// inspection (empty, next_event_time, step, run_until). If another
  /// client's push is pending, that one runs first, so pushes keep the
  /// order in which their changes happened. Registering again while
  /// pending is a no-op.
  void defer(DeferredPush& client);

  /// Which queue implementation this simulator was built with.
  EventQueueKind queue_kind() const { return queue_kind_; }
  const char* queue_name() const { return queue_->name(); }

  /// Event trace for this run. Disabled (and recording nothing) unless
  /// `tracer().set_enabled(true)` is called before the run.
  trace::TraceRecorder& tracer() { return tracer_; }
  const trace::TraceRecorder& tracer() const { return tracer_; }

  /// Named counters/gauges accumulated by subsystems during the run.
  trace::MetricsRegistry& metrics() { return metrics_; }
  const trace::MetricsRegistry& metrics() const { return metrics_; }

  /// Decision ledger written by the AutoPipe controller. Disabled unless
  /// `ledger().set_enabled(true)` is called before the run.
  trace::DecisionLedger& ledger() { return ledger_; }
  const trace::DecisionLedger& ledger() const { return ledger_; }

  /// Metrics time-series sampler. Disabled (and costing one branch per
  /// event) unless `timeseries().configure(interval)` is called before the
  /// run; step() then snapshots the flattened registry at every sim-time
  /// boundary, with the row at boundary b reflecting exactly the events
  /// with time < b. Drivers call `timeseries().finalize(now(), metrics())`
  /// after the run (see docs/TELEMETRY.md).
  trace::TimeSeriesSampler& timeseries() { return timeseries_; }
  const trace::TimeSeriesSampler& timeseries() const { return timeseries_; }

 private:
  /// Tolerance for floating-point drift on event times (0.1 * 3 != 0.3).
  /// Shared by at() and run_until() so an event computed as "now + k*dt" is
  /// treated as on-time in both directions.
  static constexpr Seconds kTimeSlack = 1e-12;

  /// Devirtualized scheduling: the prvalue event materializes straight into
  /// the concrete queue's push parameter, whose body is inline.
  void schedule(Seconds t, Callback&& fn, const char* label) {
    if (pending_ != nullptr) flush_pending();
    PROF_SPAN_AGG("sim/queue_push");
    const Seconds when = t < now_ ? now_ : t;
    // Capture the ambient causal context (the trace eid of the event being
    // recorded/executed right now); step() restores it before running fn.
    const std::uint64_t cause = tracer_.current_cause();
    if (wheel_ != nullptr) {
      wheel_->push(SimEvent{when, next_seq_++, std::move(fn), label, cause});
    } else {
      heap_->push(SimEvent{when, next_seq_++, std::move(fn), label, cause});
    }
  }

  /// Zero-progress guard: a buggy schedule (e.g. a fault event rescheduling
  /// itself at `now`) would otherwise spin forever without advancing time.
  /// Keys on the event's exact timestamp, never on queue bucket
  /// granularity, so it behaves identically under the heap and the wheel.
  void check_progress(Seconds t, const char* label) {
    if (t == instant_time_) {
      ++instant_events_;
      AUTOPIPE_EXPECT_MSG(
          instant_events_ <= zero_progress_bound_,
          "zero progress: " << instant_events_ << " events executed at t="
                            << t << " without the clock advancing; "
                            << "looping event: "
                            << (label != nullptr ? label : "(unlabelled)"));
    } else {
      instant_time_ = t;
      instant_events_ = 1;
    }
  }

  Seconds peek_time() {
    return wheel_ != nullptr ? wheel_->peek_time() : heap_->peek_time();
  }

  /// Run the pending deferred push. Out of line: schedule() inlines into
  /// every caller of at() and after().
  void flush_pending();

  /// Marks the span of one event callback and, when it ends by return or
  /// exception, runs the push the callback deferred.
  class CallbackScope {
   public:
    explicit CallbackScope(Simulator& sim) : sim_(sim) {
      sim.in_callback_ = true;
    }
    ~CallbackScope() {
      sim_.in_callback_ = false;
      if (sim_.pending_ != nullptr) sim_.flush_pending();
    }
    CallbackScope(const CallbackScope&) = delete;
    CallbackScope& operator=(const CallbackScope&) = delete;

   private:
    Simulator& sim_;
  };

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t zero_progress_bound_ = 1'000'000;
  Seconds instant_time_ = -1.0;       ///< timestamp of the current run
  std::uint64_t instant_events_ = 0;  ///< events executed at instant_time_
  bool in_callback_ = false;          ///< an event callback is running
  DeferredPush* pending_ = nullptr;   ///< client whose push is deferred
  EventQueueKind queue_kind_;
  std::unique_ptr<EventQueue> queue_;
  /// Typed aliases of queue_ (exactly one non-null): the hot path calls the
  /// final classes directly instead of through the vtable.
  TimingWheelEventQueue* wheel_ = nullptr;
  HeapEventQueue* heap_ = nullptr;
  trace::TraceRecorder tracer_;
  trace::MetricsRegistry metrics_;
  trace::DecisionLedger ledger_;
  trace::TimeSeriesSampler timeseries_;
};

}  // namespace autopipe::sim
