#include "sim/flow_network.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "common/log.hpp"

namespace autopipe::sim {

namespace {
/// Completion times within this tolerance of "now" are treated as due, to
/// absorb floating-point division noise in remaining/rate arithmetic.
constexpr Seconds kTimeEps = 1e-12;
constexpr Bytes kByteEps = 1e-6;
}  // namespace

ResourceId FlowNetwork::add_resource(std::string name, BytesPerSec capacity) {
  AUTOPIPE_EXPECT(capacity >= 0.0);
  res_name_.push_back(std::move(name));
  res_capacity_.push_back(capacity);
  res_saved_capacity_.push_back(0.0);
  res_down_.push_back(0);
  const ResourceId id = res_capacity_.size() - 1;
  emit_capacity(id);
  return id;
}

void FlowNetwork::set_capacity(ResourceId resource, BytesPerSec capacity) {
  AUTOPIPE_EXPECT(resource < res_capacity_.size());
  AUTOPIPE_EXPECT(capacity >= 0.0);
  if (res_down_[resource]) {
    // Deferred: applies when the resource comes back up.
    res_saved_capacity_[resource] = capacity;
    return;
  }
  advance_to_now();
  res_capacity_[resource] = capacity;
  emit_capacity(resource);
  changed();
}

void FlowNetwork::set_resource_down(ResourceId resource) {
  AUTOPIPE_EXPECT(resource < res_capacity_.size());
  if (res_down_[resource]) return;
  const BytesPerSec nominal = res_capacity_[resource];
  set_capacity(resource, 0.0);
  res_down_[resource] = 1;
  res_saved_capacity_[resource] = nominal;
}

void FlowNetwork::set_resource_up(ResourceId resource) {
  AUTOPIPE_EXPECT(resource < res_capacity_.size());
  if (!res_down_[resource]) return;
  res_down_[resource] = 0;
  set_capacity(resource, res_saved_capacity_[resource]);
  res_saved_capacity_[resource] = 0.0;
}

bool FlowNetwork::resource_down(ResourceId resource) const {
  AUTOPIPE_EXPECT(resource < res_capacity_.size());
  return res_down_[resource] != 0;
}

BytesPerSec FlowNetwork::capacity(ResourceId resource) const {
  AUTOPIPE_EXPECT(resource < res_capacity_.size());
  return res_capacity_[resource];
}

const std::string& FlowNetwork::resource_name(ResourceId resource) const {
  AUTOPIPE_EXPECT(resource < res_name_.size());
  return res_name_[resource];
}

std::size_t FlowNetwork::find_slot(FlowId id) const {
  const auto it = std::lower_bound(flow_id_.begin(), flow_id_.end(), id);
  if (it == flow_id_.end() || *it != id) return kNoSlot;
  return static_cast<std::size_t>(it - flow_id_.begin());
}

void FlowNetwork::erase_slot(std::size_t slot) {
  flow_id_.erase(flow_id_.begin() + static_cast<std::ptrdiff_t>(slot));
  flow_remaining_.erase(flow_remaining_.begin() +
                        static_cast<std::ptrdiff_t>(slot));
  flow_rate_.erase(flow_rate_.begin() + static_cast<std::ptrdiff_t>(slot));
  flow_path_.erase(flow_path_.begin() + static_cast<std::ptrdiff_t>(slot));
  flow_on_complete_.erase(flow_on_complete_.begin() +
                          static_cast<std::ptrdiff_t>(slot));
}

FlowId FlowNetwork::start_flow(FlowSpec spec) {
  AUTOPIPE_EXPECT(!spec.path.empty());
  AUTOPIPE_EXPECT(spec.bytes >= 0.0);
  for (auto it = spec.path.begin(); it != spec.path.end(); ++it) {
    AUTOPIPE_EXPECT(*it < res_capacity_.size());
    AUTOPIPE_EXPECT_MSG(std::find(spec.path.begin(), it, *it) == it,
                        "duplicate resource in flow path");
  }
  const FlowId id = next_flow_id_++;
  if (spec.bytes <= kByteEps) {
    // Degenerate transfer: deliver "immediately" but still via the event
    // queue so callback ordering matches non-degenerate flows.
    if (spec.on_complete) sim_.after(0.0, std::move(spec.on_complete));
    return id;
  }
  advance_to_now();
  if (sim_.tracer().enabled()) {
    scratch_path_.clear();
    for (ResourceId r : spec.path) {
      if (!scratch_path_.empty()) scratch_path_ += ',';
      scratch_path_ += res_name_[r];
    }
    sim_.tracer().async_begin(trace::Category::kComm, "flow", id, sim_.now(),
                              {trace::arg("bytes", spec.bytes),
                               trace::arg("path", scratch_path_)});
  }
  // Ids are monotone, so push_back keeps the slot arrays sorted.
  flow_id_.push_back(id);
  flow_remaining_.push_back(spec.bytes);
  flow_rate_.push_back(0.0);
  flow_path_.push_back(std::move(spec.path));
  flow_on_complete_.push_back(std::move(spec.on_complete));
  changed();
  return id;
}

void FlowNetwork::cancel_flow(FlowId id) {
  const std::size_t slot = find_slot(id);
  if (slot == kNoSlot) return;  // already completed: cancel is a no-op
  advance_to_now();
  erase_slot(slot);
  changed();
  if (sim_.tracer().enabled()) {
    sim_.tracer().async_end(trace::Category::kComm, "flow", id, sim_.now(),
                            {trace::arg("cancelled", 1)});
  }
}

BytesPerSec FlowNetwork::flow_rate(FlowId id) {
  const std::size_t slot = find_slot(id);
  AUTOPIPE_EXPECT_MSG(slot != kNoSlot, "flow " << id << " not active");
  refresh_rates();
  return flow_rate_[slot];
}

Bytes FlowNetwork::flow_remaining(FlowId id) const {
  const std::size_t slot = find_slot(id);
  AUTOPIPE_EXPECT_MSG(slot != kNoSlot, "flow " << id << " not active");
  return flow_remaining_[slot];
}

BytesPerSec FlowNetwork::resource_load(ResourceId resource) {
  AUTOPIPE_EXPECT(resource < res_capacity_.size());
  refresh_rates();
  BytesPerSec load = 0.0;
  for (std::size_t s = 0; s < flow_id_.size(); ++s) {
    if (std::find(flow_path_[s].begin(), flow_path_[s].end(), resource) !=
        flow_path_[s].end()) {
      load += flow_rate_[s];
    }
  }
  return load;
}

void FlowNetwork::advance_to_now() {
  const Seconds now = sim_.now();
  const Seconds dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0.0) return;
  refresh_rates();
  for (std::size_t s = 0; s < flow_id_.size(); ++s) {
    const Bytes moved = std::min(flow_remaining_[s], flow_rate_[s] * dt);
    flow_remaining_[s] -= moved;
    bytes_delivered_ += moved;
  }
}

void FlowNetwork::changed() {
  rates_stale_ = true;
  change_cause_ = sim_.tracer().current_cause();
  sim_.defer(*this);
}

void FlowNetwork::refresh_rates() {
  if (!rates_stale_) return;
  rates_stale_ = false;
  recompute_rates();
}

void FlowNetwork::recompute_rates() {
  common::max_min_rates(res_capacity_, flow_path_, flow_rate_, scratch_rates_);
}

void FlowNetwork::flush() {
  refresh_rates();
  Seconds next = kNever;
  for (std::size_t s = 0; s < flow_id_.size(); ++s) {
    if (flow_rate_[s] <= 0.0) continue;
    next = std::min(next, sim_.now() + flow_remaining_[s] / flow_rate_[s]);
  }
  const std::uint64_t generation = ++schedule_generation_;
  if (next == kNever) return;
  // The event's cause is the last change, not whatever the callback
  // recorded after it: the same cause an eager push at that change took.
  trace::TraceRecorder& tracer = sim_.tracer();
  const std::uint64_t ambient = tracer.current_cause();
  tracer.set_current_cause(change_cause_);
  sim_.at(next, [this, generation] {
    if (generation != schedule_generation_) return;  // superseded
    complete_due_flows();
  }, "flow_completion");
  tracer.set_current_cause(ambient);
}

void FlowNetwork::complete_due_flows() {
  advance_to_now();
  // Collect completions first: callbacks may start new flows re-entrantly.
  // One compaction pass keeps the slot arrays sorted. Callbacks fire newest
  // flow first — the order the original hash-map storage produced (bucket
  // heads are insertion points, so iteration ran newest-to-oldest), which
  // downstream schedulers' tie-breaks have calcified around. The buffer is
  // taken from scratch_done_ and handed back, so steady state allocates
  // nothing.
  std::vector<std::function<void()>> callbacks = std::move(scratch_done_);
  callbacks.clear();
  std::size_t kept = 0;
  const std::size_t flows = flow_id_.size();
  for (std::size_t s = 0; s < flows; ++s) {
    const bool due = flow_remaining_[s] <= kByteEps ||
                     (flow_rate_[s] > 0.0 &&
                      flow_remaining_[s] / flow_rate_[s] <= kTimeEps);
    if (due) {
      bytes_delivered_ += flow_remaining_[s];
      if (sim_.tracer().enabled()) {
        sim_.tracer().async_end(trace::Category::kComm, "flow", flow_id_[s],
                                sim_.now());
      }
      if (flow_on_complete_[s])
        callbacks.push_back(std::move(flow_on_complete_[s]));
      continue;
    }
    if (kept != s) {
      flow_id_[kept] = flow_id_[s];
      flow_remaining_[kept] = flow_remaining_[s];
      flow_rate_[kept] = flow_rate_[s];
      flow_path_[kept] = std::move(flow_path_[s]);
      flow_on_complete_[kept] = std::move(flow_on_complete_[s]);
    }
    ++kept;
  }
  flow_id_.resize(kept);
  flow_remaining_.resize(kept);
  flow_rate_.resize(kept);
  flow_path_.resize(kept);
  flow_on_complete_.resize(kept);
  changed();
  for (auto it = callbacks.rbegin(); it != callbacks.rend(); ++it) (*it)();
  callbacks.clear();
  scratch_done_ = std::move(callbacks);
}

void FlowNetwork::emit_capacity(ResourceId resource) {
  if (!sim_.tracer().enabled()) return;
  // Rare (set-up and capacity changes): assemble the name in a reused
  // buffer rather than keep one per resource.
  scratch_name_.assign("cap:").append(res_name_[resource]);
  sim_.tracer().counter(trace::Category::kComm, scratch_name_, sim_.now(),
                        res_capacity_[resource]);
}

}  // namespace autopipe::sim
