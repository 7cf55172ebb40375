#include "common/max_min.hpp"

#include <algorithm>

namespace autopipe::common {

void max_min_rates(std::span<const double> capacity,
                   std::span<const std::vector<std::size_t>> paths,
                   std::span<double> rates, MaxMinScratch& scratch) {
  // Runs at event rate (once per instant with a flow start/finish or a
  // capacity change), so the per-resource accumulators are flat vectors
  // indexed by the dense resource index, reused across calls, and the
  // unfrozen set is a vector of flow indices walked in ascending order —
  // iteration (and so floating-point deduction order) is part of the
  // determinism contract.
  const std::size_t n = capacity.size();
  if (scratch.cap.size() < n) {
    scratch.cap.resize(n);
    scratch.count.resize(n);
  }
  for (std::size_t r = 0; r < n; ++r) {
    scratch.cap[r] = capacity[r];
    scratch.count[r] = 0;
  }
  const std::size_t flows = paths.size();
  scratch.unfrozen.clear();
  scratch.unfrozen.reserve(flows);
  for (std::size_t s = 0; s < flows; ++s) {
    rates[s] = 0.0;
    scratch.unfrozen.push_back(static_cast<std::uint32_t>(s));
    for (std::size_t r : paths[s]) ++scratch.count[r];
  }

  while (!scratch.unfrozen.empty()) {
    // Find the bottleneck resource.
    bool found = false;
    std::size_t bottleneck = 0;
    double best_share = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t count = scratch.count[r];
      if (count == 0) continue;
      const double share = scratch.cap[r] / static_cast<double>(count);
      if (!found || share < best_share) {
        found = true;
        best_share = share;
        bottleneck = r;
      }
    }
    if (!found) break;
    // Pin every unfrozen flow through the bottleneck at the fair share,
    // compacting the survivors in place.
    std::size_t kept = 0;
    for (const std::uint32_t s : scratch.unfrozen) {
      const bool through =
          std::find(paths[s].begin(), paths[s].end(), bottleneck) !=
          paths[s].end();
      if (!through) {
        scratch.unfrozen[kept++] = s;
        continue;
      }
      rates[s] = best_share;
      for (std::size_t r : paths[s]) {
        scratch.cap[r] = std::max(0.0, scratch.cap[r] - best_share);
        --scratch.count[r];
      }
    }
    scratch.unfrozen.resize(kept);
  }
}

std::size_t LoadReplay::capacity(double ts, std::string_view resource,
                                 double value) {
  advance(ts);
  auto it = index_.find(resource);
  if (it == index_.end()) {
    it = index_.emplace(std::string(resource), names_.size()).first;
    names_.emplace_back(resource);
    capacity_.push_back(0.0);
    load_.push_back(0.0);
  }
  capacity_[it->second] = value;
  changed_ = true;
  return it->second;
}

void LoadReplay::begin_flow(double ts, std::uint64_t id,
                            std::string_view path) {
  advance(ts);
  std::vector<std::size_t> resolved;
  for (std::size_t from = 0; from <= path.size();) {
    const std::size_t comma = std::min(path.find(',', from), path.size());
    const auto it = index_.find(path.substr(from, comma - from));
    if (it != index_.end()) resolved.push_back(it->second);
    from = comma + 1;
  }
  if (resolved.empty()) return;  // touches no known resource
  // Ids are monotone in a simulator's trace, so this is an append.
  const auto at = std::lower_bound(flow_id_.begin(), flow_id_.end(), id);
  const auto slot = at - flow_id_.begin();
  flow_id_.insert(at, id);
  flow_path_.insert(flow_path_.begin() + slot, std::move(resolved));
  changed_ = true;
}

void LoadReplay::end_flow(double ts, std::uint64_t id) {
  advance(ts);
  const auto at = std::lower_bound(flow_id_.begin(), flow_id_.end(), id);
  if (at == flow_id_.end() || *at != id) return;  // never began, or skipped
  flow_path_.erase(flow_path_.begin() + (at - flow_id_.begin()));
  flow_id_.erase(at);
  changed_ = true;
}

void LoadReplay::finish() {
  if (changed_) close_instant();
}

void LoadReplay::advance(double ts) {
  if (changed_ && ts != instant_) close_instant();
  instant_ = ts;
}

void LoadReplay::close_instant() {
  changed_ = false;
  rates_.resize(flow_id_.size());
  max_min_rates(capacity_, flow_path_, rates_, scratch_);
  // Each resource sums its flows in id order, as the network's
  // resource_load() does.
  sum_.assign(capacity_.size(), 0.0);
  for (std::size_t s = 0; s < flow_path_.size(); ++s) {
    for (std::size_t r : flow_path_[s]) sum_[r] += rates_[s];
  }
  for (std::size_t r = 0; r < sum_.size(); ++r) {
    if (sum_[r] == load_[r]) continue;
    load_[r] = sum_[r];
    on_load_(instant_, r, sum_[r]);
  }
}

}  // namespace autopipe::common
