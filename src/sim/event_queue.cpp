#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace autopipe::sim {

TimingWheelEventQueue::TimingWheelEventQueue() {
  for (int l = 0; l < kLevels; ++l) {
    for (std::size_t s = 0; s < kSlots; ++s) head_[l][s] = kNil;
    for (std::size_t w = 0; w < kSlots / 64; ++w) occ_[l][w] = 0;
  }
  near_.reserve(64);
}

int TimingWheelEventQueue::first_occupied(int level) const {
  for (std::size_t w = 0; w < kSlots / 64; ++w) {
    if (occ_[level][w] != 0)
      return static_cast<int>(w * 64) + std::countr_zero(occ_[level][w]);
  }
  return -1;
}

void TimingWheelEventQueue::drain_slot(int level, std::size_t slot) {
  std::uint32_t n = head_[level][slot];
  head_[level][slot] = kNil;
  occ_[level][slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  while (n != kNil) {
    const std::uint32_t next = node(n).next;
    near_.push_back(n);
    n = next;
  }
  // Called with near_ empty; a single-event tick (the common case) is
  // already a heap.
  if (near_.size() > 1)
    std::make_heap(near_.begin(), near_.end(), NearAfter{this});
}

void TimingWheelEventQueue::cascade_slot(int from_level, std::size_t slot) {
  const int to = from_level - 1;
  const std::uint64_t span = std::uint64_t{1} << (kSlotsLog2 * from_level);
  // The drained slot's tick range becomes the finer level's whole window,
  // so every node relinks within bounds. base differences stay multiples
  // of the finer level's span, which keeps stale-window captures
  // impossible (see docs/SIMULATOR.md).
  base_[to] = base_[from_level] + static_cast<std::uint64_t>(slot) * span;
  std::uint32_t n = head_[from_level][slot];
  head_[from_level][slot] = kNil;
  occ_[from_level][slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  while (n != kNil) {
    const std::uint32_t next = node(n).next;
    link(to,
         static_cast<std::size_t>((node(n).tick - base_[to]) >>
                                  (kSlotsLog2 * to)),
         n);
    n = next;
  }
}

void TimingWheelEventQueue::refill_from_overflow() {
  std::uint64_t min_k = kSaturatedTick;
  for (std::uint32_t n = overflow_head_; n != kNil; n = node(n).next)
    min_k = std::min(min_k, node(n).tick);
  std::uint32_t n = overflow_head_;
  overflow_head_ = kNil;
  if (min_k == kSaturatedTick) {
    // Only unrepresentable timestamps remain (infinite / beyond-horizon).
    // Degrade to pure-heap mode: everything lives in the near heap from
    // here on, which is exactly the reference queue's behaviour.
    cur_tick_ = kSaturatedTick;
    while (n != kNil) {
      const std::uint32_t next = node(n).next;
      near_.push_back(n);
      n = next;
    }
    if (near_.size() > 1)
      std::make_heap(near_.begin(), near_.end(), NearAfter{this});
    return;
  }
  // Re-page the wheel so the earliest overflow tick is slot 0 of every
  // level; nodes still beyond the level-2 horizon return to overflow.
  base_[0] = base_[1] = base_[2] = min_k;
  while (n != kNil) {
    const std::uint32_t next = node(n).next;
    place(n);
    n = next;
  }
}

void TimingWheelEventQueue::settle() {
  for (;;) {
    if (const int s = first_occupied(0); s >= 0) {
      cur_tick_ = base_[0] + static_cast<std::uint64_t>(s);
      drain_slot(0, static_cast<std::size_t>(s));
      return;
    }
    if (const int s = first_occupied(1); s >= 0) {
      cascade_slot(1, static_cast<std::size_t>(s));
      continue;
    }
    if (const int s = first_occupied(2); s >= 0) {
      cascade_slot(2, static_cast<std::size_t>(s));
      continue;
    }
    if (overflow_head_ != kNil) {
      refill_from_overflow();
      continue;
    }
    return;  // wheel empty; pop()/peek_time() preconditions bar this
  }
}

// ---------------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------------

std::unique_ptr<EventQueue> make_event_queue(EventQueueKind kind) {
  if (kind == EventQueueKind::kHeap) return std::make_unique<HeapEventQueue>();
  return std::make_unique<TimingWheelEventQueue>();
}

}  // namespace autopipe::sim
