// Pluggable priority queues for the discrete-event simulator core.
//
// Two implementations share one contract — events dequeue in strict
// (time, seq) order, bit-for-bit identical between them:
//
//   * HeapEventQueue  — the reference binary heap the simulator shipped
//     with. O(log n) per operation, every sift moves whole Event payloads
//     (~80 bytes including the inline closure buffer). Retained forever as
//     the oracle the differential parity harness replays against.
//   * TimingWheelEventQueue — a three-level paged calendar queue. Pushes
//     and cascades relink fixed-size pool nodes (no Event moves); only the
//     events of the *current tick* sit in a tiny exactness heap of node
//     indices, so the hot path is O(1) amortized and an event's closure is
//     moved exactly once (into its node) over its whole lifetime. See
//     docs/SIMULATOR.md for the layout.
//
// The wheel quantizes *placement* (which bucket an event waits in), never
// *time*: the Event keeps its exact timestamp, and same-bucket events are
// heap-ordered before release. Watchdog/fault events therefore fire at
// exact instants even though the wheel advances in tick quanta.
//
// Hot-path discipline: both classes are `final` and their push/pop bodies
// live in this header, so the Simulator (which holds typed pointers next
// to the owning interface pointer) calls them devirtualized and inlined —
// the virtual interface exists for the parity/property harnesses, not for
// the per-event path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/small_function.hpp"
#include "common/units.hpp"

namespace autopipe::sim {

/// One scheduled closure. `seq` is the global scheduling sequence number:
/// ties on `time` resolve FIFO, which is what makes runs reproducible.
struct SimEvent {
  /// Inline capture budget: large enough for every scheduling site in the
  /// sim (the largest captures a this-pointer plus a handful of scalars).
  using Callback = common::SmallFunction<void(), 48>;

  Seconds time = 0.0;
  std::uint64_t seq = 0;
  Callback fn;
  const char* label = nullptr;  ///< static string naming the event, or nullptr
  /// Causal context captured at schedule time: the trace eid of the event
  /// whose callback scheduled this one (0 = scheduled outside any event).
  /// The Simulator restores it as the tracer's ambient cause before running
  /// `fn`, so trace events recorded inside the callback chain to it.
  std::uint64_t cause = 0;
};

/// Comparator for a *min*-heap on (time, seq) via std::push_heap/pop_heap.
struct SimEventAfter {
  bool operator()(const SimEvent& a, const SimEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Priority-queue contract the simulator schedules against. Single
/// threaded; pop()/peek_time() require !empty(). peek_time() is non-const
/// because the wheel settles (cascades buckets) lazily on first access.
class EventQueue {
 public:
  virtual ~EventQueue() = default;
  virtual void push(SimEvent ev) = 0;
  virtual SimEvent pop() = 0;
  virtual Seconds peek_time() = 0;
  virtual bool empty() const = 0;
  virtual std::size_t size() const = 0;
  virtual const char* name() const = 0;
};

/// Reference implementation: binary min-heap over a reused vector (no
/// per-push allocation; pops move the closure out instead of copying).
class HeapEventQueue final : public EventQueue {
 public:
  void push(SimEvent ev) override {
    if (events_.capacity() == 0) events_.reserve(256);
    events_.push_back(std::move(ev));
    std::push_heap(events_.begin(), events_.end(), SimEventAfter{});
  }

  SimEvent pop() override {
    // Heap pop with a move, never a copy — the callback is move-only, so a
    // copying pop would not compile.
    std::pop_heap(events_.begin(), events_.end(), SimEventAfter{});
    SimEvent ev = std::move(events_.back());
    events_.pop_back();
    return ev;
  }

  Seconds peek_time() override { return events_.front().time; }
  bool empty() const override { return events_.empty(); }
  std::size_t size() const override { return events_.size(); }
  const char* name() const override { return "heap"; }

 private:
  std::vector<SimEvent> events_;
};

/// Three-level paged timing wheel (calendar queue).
///
/// Time is quantized into ticks of kTickSeconds. Level l spans
/// kSlots^(l+1) ticks in kSlots buckets of kSlots^l ticks each; the three
/// levels cover ~4.6 hours of simulated time from the current window, and
/// anything beyond that (or with a non-finite timestamp) waits in an
/// overflow list that is re-paged when the levels drain. Buckets are
/// intrusive singly-linked lists over a chunked node pool (stable
/// addresses, so growth never moves an event and a popped event's closure
/// can run in place), so scheduling and cascading move 4-byte indices,
/// never Event payloads. Events of the current tick are released through a
/// small (time, seq) heap of node indices, which makes the dequeue order
/// *exactly* the heap queue's order.
class TimingWheelEventQueue final : public EventQueue {
 public:
  static constexpr int kSlotsLog2 = 8;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotsLog2;
  static constexpr int kLevels = 3;
  /// Tick width. A power of two keeps t * (1/tick) exact scaling; ~1 ms
  /// matches the sub-millisecond-to-seconds event spacing of the workloads.
  static constexpr double kTickSeconds = 1.0 / 1024.0;

  TimingWheelEventQueue();

  struct Node {
    SimEvent ev;
    std::uint64_t tick = 0;
    std::uint32_t next = 0xffffffffu;
  };

  void push(SimEvent ev) override {
    const std::uint64_t k = tick_of(ev.time);
    ++size_;
    const std::uint32_t n = alloc_node(std::move(ev), k);
    if (k <= cur_tick_) {
      // At-or-behind the tick being released: competes with the in-flight
      // events directly in the exactness heap.
      push_near(n);
      return;
    }
    place(n);
  }

  /// Interface pop (parity/property harnesses): moves the event out of its
  /// node. The Simulator uses pop_node()/release_node() instead and runs
  /// the closure in place, skipping this move.
  SimEvent pop() override {
    const std::uint32_t n = pop_node();
    SimEvent ev = std::move(node(n).ev);
    release_node(n);
    return ev;
  }

  Seconds peek_time() override {
    if (near_.empty()) settle();
    return node(near_.front()).ev.time;
  }

  bool empty() const override { return size_ == 0; }
  std::size_t size() const override { return size_; }
  const char* name() const override { return "wheel"; }

  // --- Simulator fast path (devirtualized) -------------------------------

  /// Unlink and return the index of the next event's node. The event stays
  /// in pool storage — chunk addresses are stable even if the running
  /// callback schedules more events — until release_node().
  std::uint32_t pop_node() {
    if (near_.empty()) settle();
    std::uint32_t n;
    if (near_.size() == 1) {
      // Single event in the current tick: the common case, no heap fix-up.
      n = near_.front();
      near_.clear();
    } else {
      std::pop_heap(near_.begin(), near_.end(), NearAfter{this});
      n = near_.back();
      near_.pop_back();
    }
    --size_;
    return n;
  }

  Node& node(std::uint32_t n) {
    return chunks_[n >> kChunkLog2][n & (kChunkSize - 1)];
  }

  /// Destroy the popped event's closure and recycle its node.
  void release_node(std::uint32_t n) {
    Node& nd = node(n);
    nd.ev.fn.reset();
    nd.ev.label = nullptr;
    nd.next = free_head_;
    free_head_ = n;
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Tick for events whose time overflows the integer tick range
  /// (infinity, NaN-ish, or > ~280k years). They wait in the overflow
  /// list; if they are ever reached the queue degrades to pure-heap mode,
  /// which is still exact.
  static constexpr std::uint64_t kSaturatedTick = ~std::uint64_t{0};
  /// Node pool chunk size: 512 nodes ≈ 48 KiB per chunk, allocated on
  /// demand and never relocated.
  static constexpr int kChunkLog2 = 9;
  static constexpr std::uint32_t kChunkSize = std::uint32_t{1} << kChunkLog2;

  /// Orders the near heap's node indices by their events' (time, seq).
  struct NearAfter {
    TimingWheelEventQueue* q;
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      const SimEvent& ea = q->node(a).ev;
      const SimEvent& eb = q->node(b).ev;
      if (ea.time != eb.time) return ea.time > eb.time;
      return ea.seq > eb.seq;
    }
  };

  static std::uint64_t tick_of(Seconds t) {
    const double ticks = t * (1.0 / kTickSeconds);
    // Negated comparison catches +inf and NaN along with genuinely huge
    // timestamps; anything past ~2^53 ticks loses integer precision anyway.
    if (!(ticks < 9.0e15)) return kSaturatedTick;
    if (!(ticks > 0.0)) return 0;
    return static_cast<std::uint64_t>(ticks);
  }

  std::uint32_t alloc_node(SimEvent&& ev, std::uint64_t tick) {
    std::uint32_t n;
    if (free_head_ != kNil) {
      n = free_head_;
      free_head_ = node(n).next;
    } else {
      if ((pool_size_ & (kChunkSize - 1)) == 0)
        chunks_.emplace_back(new Node[kChunkSize]);
      n = pool_size_++;
    }
    Node& nd = node(n);
    nd.ev = std::move(ev);  // the closure's single lifetime move
    nd.tick = tick;
    nd.next = kNil;
    return n;
  }

  void link(int level, std::size_t slot, std::uint32_t n) {
    node(n).next = head_[level][slot];
    head_[level][slot] = n;
    occ_[level][slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }

  void place(std::uint32_t n) {
    const std::uint64_t k = node(n).tick;
    for (int l = 0; l < kLevels; ++l) {
      // k >= base_[l] for every live placement: pushes satisfy
      // k > cur_tick_ >= base_[l], and overflow re-paging first resets every
      // base to the minimum pending tick. (If it ever failed, the unsigned
      // subtraction wraps huge and the node falls through to overflow, which
      // handles any tick correctly.)
      const std::uint64_t off = k - base_[l];
      if (off < (std::uint64_t{kSlots} << (kSlotsLog2 * l))) {
        link(l, static_cast<std::size_t>(off >> (kSlotsLog2 * l)), n);
        return;
      }
    }
    node(n).next = overflow_head_;
    overflow_head_ = n;
  }

  void push_near(std::uint32_t n) {
    near_.push_back(n);
    if (near_.size() > 1)
      std::push_heap(near_.begin(), near_.end(), NearAfter{this});
  }

  int first_occupied(int level) const;
  /// Cascade/page buckets until the earliest pending tick's events sit in
  /// the near heap. Precondition: near_ empty, size_ > 0.
  void settle();
  void drain_slot(int level, std::size_t slot);
  void cascade_slot(int from_level, std::size_t slot);
  void refill_from_overflow();

  /// Node indices of the current tick's events (and any pushed at/behind
  /// it), released in exact (time, seq) heap order.
  std::vector<std::uint32_t> near_;
  /// Chunked node pool: addresses are stable for the pool's lifetime.
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::uint32_t pool_size_ = 0;
  std::uint32_t free_head_ = kNil;
  std::uint32_t overflow_head_ = kNil;
  std::uint32_t head_[kLevels][kSlots];
  std::uint64_t occ_[kLevels][kSlots / 64];
  /// Tick of slot 0 per level. Invariant between operations:
  /// base_[2] <= base_[1] <= base_[0] <= cur_tick_.
  std::uint64_t base_[kLevels] = {0, 0, 0};
  /// The tick currently being released; pushes at or before it go straight
  /// to the near heap.
  std::uint64_t cur_tick_ = 0;
  std::size_t size_ = 0;
};

/// The heap is the reference the parity harness and the tests compare the
/// wheel against; every other simulator runs on the wheel.
enum class EventQueueKind { kHeap, kWheel };

std::unique_ptr<EventQueue> make_event_queue(EventQueueKind kind);

}  // namespace autopipe::sim
