#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "common/expect.hpp"
#include "common/profile.hpp"

namespace autopipe::sim {

Simulator::Simulator(EventQueueKind queue_kind)
    : queue_kind_(queue_kind), queue_(make_event_queue(queue_kind)) {
  if (queue_kind_ == EventQueueKind::kWheel) {
    wheel_ = static_cast<TimingWheelEventQueue*>(queue_.get());
  } else {
    heap_ = static_cast<HeapEventQueue*>(queue_.get());
  }
}

void Simulator::set_zero_progress_bound(std::uint64_t bound) {
  AUTOPIPE_EXPECT(bound > 0);
  zero_progress_bound_ = bound;
}

void Simulator::defer(DeferredPush& client) {
  if (pending_ == &client) return;
  if (pending_ != nullptr) flush_pending();
  if (in_callback_) {
    pending_ = &client;
  } else {
    client.flush();
  }
}

void Simulator::flush_pending() {
  DeferredPush& client = *pending_;
  pending_ = nullptr;
  client.flush();
}

bool Simulator::step() {
  if (empty()) return false;
  if (wheel_ != nullptr) {
    // The event's closure runs in place in its pool node (addresses are
    // stable across pushes from inside the callback); the node is recycled
    // only after the callback returns.
    const std::uint32_t n = [this] {
      PROF_SPAN_AGG("sim/queue_pop");
      return wheel_->pop_node();
    }();
    TimingWheelEventQueue::Node& nd = wheel_->node(n);
    check_progress(nd.ev.time, nd.ev.label);
    // Sample *before* the event executes: the row at boundary b reflects
    // exactly the events with time < b, identically under either queue.
    if (timeseries_.enabled()) timeseries_.advance_to(nd.ev.time, metrics_);
    now_ = nd.ev.time;
    ++events_processed_;
    // Restore the scheduling event's causal context so trace events recorded
    // by the callback chain across the queue hop.
    tracer_.set_current_cause(nd.ev.cause);
    {
      CallbackScope scope(*this);
      nd.ev.fn();
    }
    wheel_->release_node(n);
    return true;
  }
  // Move the event out before popping so the callback may schedule freely.
  SimEvent ev = [this] {
    PROF_SPAN_AGG("sim/queue_pop");
    return heap_->pop();
  }();
  check_progress(ev.time, ev.label);
  if (timeseries_.enabled()) timeseries_.advance_to(ev.time, metrics_);
  now_ = ev.time;
  ++events_processed_;
  tracer_.set_current_cause(ev.cause);
  CallbackScope scope(*this);
  ev.fn();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(Seconds t) {
  AUTOPIPE_EXPECT(t >= now_ - kTimeSlack);
  // The slack matters twice over: an event firing at t may schedule another
  // event at exactly t (which must still run before the clock is pinned), and
  // an event computed as "now + k*dt" may land a few ulps past t. Both count
  // as "no later than t".
  while (!empty() && peek_time() <= t + kTimeSlack) {
    step();
  }
  // step() may have set now_ slightly past t (within the slack); never move
  // the clock backwards.
  now_ = std::max(now_, t);
  // Pinning the clock may cross sampling boundaries with no event at them;
  // every executed event's time is below those boundaries, so emitting here
  // preserves the sample-at-boundary semantics.
  if (timeseries_.enabled()) timeseries_.advance_to(now_, metrics_);
}

Seconds Simulator::next_event_time() {
  AUTOPIPE_EXPECT(!empty());
  return peek_time();
}

}  // namespace autopipe::sim
