#include "partition/partition.hpp"

#include <algorithm>
#include <charconv>
#include <utility>

#include "common/expect.hpp"

namespace autopipe::partition {

Partition::Partition(std::vector<StageAssignment> stages,
                     std::size_t num_layers)
    : stages_(std::move(stages)), num_layers_(num_layers) {
  AUTOPIPE_EXPECT(!stages_.empty());
  AUTOPIPE_EXPECT(num_layers_ > 0);
  std::size_t expect_first = 0;
  for (const StageAssignment& s : stages_) {
    AUTOPIPE_EXPECT_MSG(s.first_layer == expect_first,
                        "stage gap: expected first layer "
                            << expect_first << ", got " << s.first_layer);
    AUTOPIPE_EXPECT(s.last_layer >= s.first_layer);
    AUTOPIPE_EXPECT(s.last_layer < num_layers_);
    AUTOPIPE_EXPECT_MSG(!s.workers.empty(), "stage with no workers");
    // Partitions hold a handful of workers: scanning the ones listed before
    // each worker beats hashing them.
    for (auto w = s.workers.begin(); w != s.workers.end(); ++w) {
      const bool repeated =
          std::find(s.workers.begin(), w, *w) != w ||
          std::any_of(std::as_const(stages_).data(), &s,
                      [&](const StageAssignment& prev) {
                        return std::ranges::find(prev.workers, *w) !=
                               prev.workers.end();
                      });
      AUTOPIPE_EXPECT_MSG(!repeated,
                          "worker " << *w << " assigned to two stages");
    }
    expect_first = s.last_layer + 1;
  }
  AUTOPIPE_EXPECT_MSG(expect_first == num_layers_,
                      "stages cover " << expect_first << " of " << num_layers_
                                      << " layers");
}

Partition Partition::even_split(std::size_t num_layers,
                                std::vector<sim::WorkerId> workers) {
  AUTOPIPE_EXPECT(!workers.empty());
  AUTOPIPE_EXPECT(num_layers >= workers.size());
  const std::size_t n = workers.size();
  std::vector<StageAssignment> stages;
  std::size_t next = 0;
  for (std::size_t s = 0; s < n; ++s) {
    // Distribute the remainder over the leading stages.
    const std::size_t len = num_layers / n + (s < num_layers % n ? 1 : 0);
    stages.push_back(StageAssignment{next, next + len - 1, {workers[s]}});
    next += len;
  }
  return Partition(std::move(stages), num_layers);
}

Partition Partition::single_stage(std::size_t num_layers,
                                  std::vector<sim::WorkerId> workers) {
  AUTOPIPE_EXPECT(!workers.empty());
  return Partition({StageAssignment{0, num_layers - 1, std::move(workers)}},
                   num_layers);
}

const StageAssignment& Partition::stage(std::size_t s) const {
  AUTOPIPE_EXPECT(s < stages_.size());
  return stages_[s];
}

std::size_t Partition::stage_of_layer(std::size_t layer) const {
  AUTOPIPE_EXPECT(layer < num_layers_);
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    if (layer >= stages_[s].first_layer && layer <= stages_[s].last_layer)
      return s;
  }
  AUTOPIPE_EXPECT_MSG(false, "unreachable: layer not covered");
  return npos;
}

std::size_t Partition::stage_of_worker(sim::WorkerId worker) const {
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const auto& ws = stages_[s].workers;
    if (std::find(ws.begin(), ws.end(), worker) != ws.end()) return s;
  }
  return npos;
}

std::vector<sim::WorkerId> Partition::all_workers() const {
  std::vector<sim::WorkerId> out;
  for (const StageAssignment& s : stages_)
    out.insert(out.end(), s.workers.begin(), s.workers.end());
  return out;
}

std::size_t Partition::num_workers() const {
  std::size_t n = 0;
  for (const StageAssignment& s : stages_) n += s.workers.size();
  return n;
}

std::vector<sim::WorkerId> Partition::changed_workers(
    const Partition& other) const {
  auto layer_range = [](const Partition& p, sim::WorkerId w)
      -> std::pair<std::size_t, std::size_t> {
    const std::size_t s = p.stage_of_worker(w);
    if (s == npos) return {npos, npos};
    return {p.stage(s).first_layer, p.stage(s).last_layer};
  };
  // The sorted union of both worker sets, filtered down to the movers.
  std::vector<sim::WorkerId> changed = all_workers();
  for (const StageAssignment& s : other.stages_)
    changed.insert(changed.end(), s.workers.begin(), s.workers.end());
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  std::erase_if(changed, [&](sim::WorkerId w) {
    return layer_range(*this, w) == layer_range(other, w);
  });
  return changed;
}

std::string Partition::to_string() const {
  return format_stages(stages_, " | ");
}

std::string format_stages(std::span<const StageAssignment> stages,
                          std::string_view separator) {
  std::string out;
  std::size_t workers = 0;
  for (const StageAssignment& s : stages) workers += s.workers.size();
  out.reserve(16 * stages.size() + 4 * workers);
  const auto append = [&out](std::size_t v) {
    char buf[20];  // the digits of any 64-bit value
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  };
  for (std::size_t s = 0; s < stages.size(); ++s) {
    if (s) out += separator;
    out += 'L';
    append(stages[s].first_layer);
    out += '-';
    append(stages[s].last_layer);
    out += "@{";
    for (std::size_t i = 0; i < stages[s].workers.size(); ++i) {
      if (i) out += ',';
      append(stages[s].workers[i]);
    }
    out += '}';
  }
  return out;
}

Partition remap_workers(const Partition& p,
                        const std::vector<sim::WorkerId>& worker_map) {
  std::vector<StageAssignment> stages = p.stages();
  for (StageAssignment& stage : stages) {
    for (sim::WorkerId& w : stage.workers) {
      AUTOPIPE_EXPECT_MSG(w < worker_map.size(),
                          "remap_workers: worker " << w << " outside map of "
                                                   << worker_map.size());
      w = worker_map[w];
    }
  }
  return Partition(std::move(stages), p.num_layers());
}

}  // namespace autopipe::partition
