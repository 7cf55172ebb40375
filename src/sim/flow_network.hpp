// Fluid-flow network model with max-min fair bandwidth sharing.
//
// The paper's testbed is five dual-GPU servers behind a single Mellanox
// switch; activations, gradients and parameter traffic from multiple jobs
// contend on the per-server NICs. We model each contended capacity (NIC tx,
// NIC rx, PCIe lane, ...) as a generic `Resource` and each transfer as a
// `Flow` that consumes one unit of share on every resource along its path.
// Rates follow the classical progressive-filling (max-min fair) allocation,
// the standard fluid abstraction of a non-blocking switch fabric; this is
// the "exact communication procedure" AutoPipe's integrated model observes,
// in contrast to PipeDream's uniform-hierarchy assumption. The allocation is
// common::max_min_rates, which trace readers replay (common/max_min.hpp).
//
// Capacities may change at any simulated instant (background jobs joining or
// leaving, administrative rate limits); in-flight flows are re-rated and
// their completion events rescheduled.
//
// Re-rating is coalesced per simulated instant: a change marks the rates
// stale and defers the next-completion push to the Simulator (see
// Simulator::defer), so the flows a callback starts together — the ring
// steps of a replicated stage's all-reduce — cost one rating pass and one
// queue push. Readers of rates re-rate first when the rates are stale.
//
// Tracing records each resource's `cap:<name>` counter and each flow's `b`
// (bytes, path) and `e` records, and nothing per re-rate: every load is a
// function of those records, and common::LoadReplay derives it where it is
// read.
//
// Storage is structure-of-arrays: resources and flows each live in parallel
// flat vectors indexed by a dense slot, and every hot loop (rate integration,
// progressive filling, completion scan) walks those arrays in ascending slot
// order. Flow slots stay sorted by FlowId (ids are monotone and erasure
// compacts), so iteration order — and with it callback order and
// floating-point summation order — is a documented invariant rather than a
// hash-map accident.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/max_min.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace autopipe::sim {

/// Handle to a contended capacity (a NIC direction, a PCIe link, ...).
using ResourceId = std::size_t;

/// Handle to an in-flight transfer.
using FlowId = std::uint64_t;

struct FlowSpec {
  /// Resources traversed; each gets one flow-share claim. Must be non-empty
  /// and duplicate-free.
  std::vector<ResourceId> path;
  /// Total volume to transfer.
  Bytes bytes = 0.0;
  /// Invoked at the simulated instant the last byte arrives.
  std::function<void()> on_complete;
};

/// Max-min fair fluid flow network driven by a Simulator.
class FlowNetwork final : private DeferredPush {
 public:
  explicit FlowNetwork(Simulator& simulator) : sim_(simulator) {}

  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Define a resource with the given capacity; returns its id.
  ResourceId add_resource(std::string name, BytesPerSec capacity);

  /// Change a resource's capacity now; re-rates all flows through it. While
  /// the resource is down the new value is remembered as the capacity to
  /// restore on the up transition.
  void set_capacity(ResourceId resource, BytesPerSec capacity);

  /// Live capacity: 0 while the resource is down.
  BytesPerSec capacity(ResourceId resource) const;

  /// Hard failure transition, distinct from a capacity change: the nominal
  /// capacity is remembered across the outage and restored by
  /// set_resource_up(). Flows through a down resource are not cancelled —
  /// they stall at rate 0 and resume when the resource returns, the fluid
  /// analogue of transport-level retransmission. Idempotent.
  void set_resource_down(ResourceId resource);
  void set_resource_up(ResourceId resource);
  bool resource_down(ResourceId resource) const;

  /// Begin a transfer. Zero-byte flows complete via an immediate event.
  FlowId start_flow(FlowSpec spec);

  /// Abort an in-flight flow; its completion callback never fires.
  void cancel_flow(FlowId id);

  /// Current allocated rate of a flow (0 if it shares a zero-capacity
  /// resource). Non-const: re-rates first when the rates are stale.
  BytesPerSec flow_rate(FlowId id);

  Bytes flow_remaining(FlowId id) const;

  bool flow_active(FlowId id) const { return find_slot(id) != kNoSlot; }

  std::size_t active_flow_count() const { return flow_id_.size(); }

  /// Sum of allocated flow rates through the resource. Non-const:
  /// re-rates first when the rates are stale.
  BytesPerSec resource_load(ResourceId resource);

  /// Total bytes delivered by completed and in-flight flows so far.
  Bytes total_bytes_delivered() const { return bytes_delivered_; }

  const std::string& resource_name(ResourceId resource) const;
  std::size_t resource_count() const { return res_capacity_.size(); }

 private:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  /// Slot holding `id`, or kNoSlot. Flow slots are sorted by id, so this is
  /// a binary search.
  std::size_t find_slot(FlowId id) const;
  void erase_slot(std::size_t slot);

  /// Integrate flow progress from last_update_ to now at current rates.
  void advance_to_now();

  /// A membership or capacity change: mark the rates stale, remember the
  /// causal context for the completion event and defer its push.
  void changed();

  /// Re-rate every flow if a change left the rates stale.
  void refresh_rates();

  /// Max-min fair rates for every flow: common::max_min_rates over the
  /// resources in id order and the flows in slot order.
  void recompute_rates();

  /// The deferred push: re-rate if stale, then (re)schedule the single
  /// next-completion event.
  void flush() override;

  void complete_due_flows();

  /// Trace-only: emit the resource's `cap:<name>` counter. No-op when
  /// tracing is disabled.
  void emit_capacity(ResourceId resource);

  Simulator& sim_;

  // Resource table (SoA, indexed by ResourceId).
  std::vector<std::string> res_name_;
  std::vector<BytesPerSec> res_capacity_;
  std::vector<BytesPerSec> res_saved_capacity_;  ///< nominal while down
  std::vector<std::uint8_t> res_down_;

  // Flow table (SoA, indexed by dense slot; sorted by FlowId).
  std::vector<FlowId> flow_id_;
  std::vector<Bytes> flow_remaining_;
  std::vector<BytesPerSec> flow_rate_;
  std::vector<std::vector<ResourceId>> flow_path_;
  std::vector<std::function<void()>> flow_on_complete_;

  FlowId next_flow_id_ = 1;
  Seconds last_update_ = 0.0;
  Bytes bytes_delivered_ = 0.0;
  /// Tracing scratch: a flow's path and a cap: counter name.
  std::string scratch_path_;
  std::string scratch_name_;
  /// Scratch buffers reused by the rating passes.
  common::MaxMinScratch scratch_rates_;
  /// Completion callbacks of one complete_due_flows call, reused.
  std::vector<std::function<void()>> scratch_done_;
  /// Generation counter invalidating superseded completion events.
  std::uint64_t schedule_generation_ = 0;
  /// A change since the last rating pass left flow_rate_ stale.
  bool rates_stale_ = false;
  /// Ambient trace cause at the last change: the completion event's cause.
  std::uint64_t change_cause_ = 0;
};

/// Sentinel "never" time used for flows with zero rate.
inline constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();

}  // namespace autopipe::sim
