#include "analysis/trace_view.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "common/expect.hpp"
#include "common/max_min.hpp"

namespace autopipe::analysis {

const IntervalSet TraceView::kEmptySet;
const std::vector<const trace::Event*> TraceView::kNoSpans;

namespace {

double arg_double(const trace::Event& ev, const char* key, double fallback) {
  const std::string* v = ev.find_arg(key);
  return v == nullptr ? fallback : std::strtod(v->c_str(), nullptr);
}

/// "server3.nic.tx" -> 3; -1 for anything that is not a server resource.
int server_of_resource(const std::string& resource) {
  if (resource.rfind("server", 0) != 0) return -1;
  return std::atoi(resource.c_str() + 6);
}

}  // namespace

TraceView::TraceView(const std::vector<trace::Event>& events)
    : events_(&events) {
  index_events();
  build_saturation();
  infer_servers();
  build_fault_windows();
}

void TraceView::index_events() {
  std::map<std::uint64_t, FlowRecord> open_flows;
  for (const trace::Event& ev : *events_) {
    const double end = ev.phase == 'X' ? ev.ts + ev.dur : ev.ts;
    wall_clock_ = std::max(wall_clock_, end);

    if (ev.phase == 'X' && ev.category == trace::Category::kCompute &&
        ev.pid < trace::kPidNetwork &&
        (ev.name == "fp" || ev.name == "bp")) {
      WorkerIndex& w = per_worker_[ev.pid];
      w.compute.add(ev.ts, end);
      (ev.name == "fp" ? w.fp : w.bp).add(ev.ts, end);
      w.compute_spans.push_back(&ev);
    } else if (ev.phase == 'X' && ev.category == trace::Category::kComm) {
      if (ev.pid == trace::kPidNetwork) {
        // act/grad/migrate transfer: busy for both endpoints.
        const int src = static_cast<int>(arg_double(ev, "src", -1));
        const int dst = static_cast<int>(arg_double(ev, "dst", -1));
        if (src >= 0) per_worker_[src].comm.add(ev.ts, end);
        if (dst >= 0 && dst != src) per_worker_[dst].comm.add(ev.ts, end);
      } else if (ev.pid < trace::kPidNetwork) {
        // Weight-sync collective rooted on a worker.
        per_worker_[ev.pid].comm.add(ev.ts, end);
      }
    } else if (ev.phase == 'X' &&
               ev.category == trace::Category::kSwitch &&
               ev.name == "switch") {
      switch_spans_.push_back(&ev);
      switch_windows_.add(ev.ts, end);
    } else if (ev.phase == 'X' &&
               ev.category == trace::Category::kSwitch &&
               ev.name == "switch_aborted") {
      aborted_switch_spans_.push_back(&ev);
      switch_windows_.add(ev.ts, end);
    } else if (ev.phase == 'i' && ev.name == "iteration") {
      iteration_marks_.push_back(ev.ts);
    } else if (ev.phase == 'b' && ev.name == "flow") {
      FlowRecord f;
      f.id = ev.id;
      f.begin = ev.ts;
      f.bytes = arg_double(ev, "bytes", 0.0);
      if (const std::string* p = ev.find_arg("path")) f.path = *p;
      open_flows[ev.id] = std::move(f);
    } else if (ev.phase == 'e' && ev.name == "flow") {
      auto it = open_flows.find(ev.id);
      if (it != open_flows.end()) {
        it->second.end = ev.ts;
        it->second.cancelled = ev.find_arg("cancelled") != nullptr;
        flows_.push_back(it->second);
        open_flows.erase(it);
      }
    }
  }

  for (auto& [pid, w] : per_worker_) {
    workers_.push_back(pid);
    std::stable_sort(w.compute_spans.begin(), w.compute_spans.end(),
                     [](const trace::Event* a, const trace::Event* b) {
                       return a->ts < b->ts;
                     });
  }
  std::stable_sort(switch_spans_.begin(), switch_spans_.end(),
                   [](const trace::Event* a, const trace::Event* b) {
                     return a->ts < b->ts;
                   });
  std::stable_sort(aborted_switch_spans_.begin(),
                   aborted_switch_spans_.end(),
                   [](const trace::Event* a, const trace::Event* b) {
                     return a->ts < b->ts;
                   });
  std::sort(iteration_marks_.begin(), iteration_marks_.end());
  std::stable_sort(flows_.begin(), flows_.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.begin < b.begin;
                   });
}

void TraceView::build_saturation() {
  // Rebuild each resource's load from its cap: counters and the flow
  // records, through the simulator's own max-min allocation, and mark the
  // windows where every byte/sec of capacity was allocated. Load: counters,
  // which older traces carry, are ignored: the replay gives the same loads.
  // The simulator records in simulated-time order, but sort defensively
  // (stable, so an instant keeps its record order).
  std::vector<const trace::Event*> records;
  for (const trace::Event& ev : *events_) {
    if ((ev.phase == 'C' && ev.name.starts_with("cap:")) ||
        ((ev.phase == 'b' || ev.phase == 'e') && ev.name == "flow")) {
      records.push_back(&ev);
    }
  }
  auto by_ts = [](const trace::Event* a, const trace::Event* b) {
    return a->ts < b->ts;
  };
  if (!std::is_sorted(records.begin(), records.end(), by_ts))
    std::stable_sort(records.begin(), records.end(), by_ts);
  struct Resource {
    IntervalSet* out;
    double cap = 0.0;
    double load = 0.0;
    bool saturated = false;
    double since = 0.0;
  };
  std::vector<Resource> resources;
  auto update = [](Resource& r, double ts) {
    const bool now = r.cap > 0.0 && r.load >= r.cap * (1.0 - 1e-9);
    if (now && !r.saturated) {
      r.since = ts;
    } else if (!now && r.saturated) {
      r.out->add(r.since, ts);
    }
    r.saturated = now;
  };
  common::LoadReplay replay([&](double ts, std::size_t r, double load) {
    resources[r].load = load;
    update(resources[r], ts);
  });
  for (const trace::Event* ev : records) {
    if (ev->phase == 'C') {
      const std::string_view resource = std::string_view(ev->name).substr(4);
      const std::size_t r = replay.capacity(ev->ts, resource, ev->value);
      if (r == resources.size())
        resources.push_back(Resource{&saturated_[std::string(resource)]});
      resources[r].cap = ev->value;
      update(resources[r], ev->ts);
    } else if (ev->phase == 'b') {
      const std::string* path = ev->find_arg("path");
      replay.begin_flow(ev->ts, ev->id, path == nullptr ? "" : *path);
    } else {
      replay.end_flow(ev->ts, ev->id);
    }
  }
  replay.finish();
  for (const Resource& r : resources) {
    if (r.saturated) r.out->add(r.since, wall_clock_);
  }
}

void TraceView::infer_servers() {
  // Explicit "topology" instants (worker pid -> server tid), emitted by the
  // fault-injection layer, are authoritative: a single-stage all-replicated
  // partition has no inter-stage flows to vote with, yet link outages are
  // keyed by server and still need worker attribution.
  for (const trace::Event& ev : *events_) {
    if (ev.phase == 'i' && ev.category == trace::Category::kFault &&
        ev.name == "topology") {
      per_worker_[ev.pid].server = ev.tid;
    }
  }

  // A transfer span ("act"/"grad"/"migrate", started at span.ts) and the
  // flow it rode share a start instant and a byte count; the flow's path
  // names the NIC resources, whose names carry the server indices. Each
  // match is one vote for (src worker -> first-hop server) and
  // (dst worker -> last-hop server).
  std::multimap<double, const FlowRecord*> flows_by_begin;
  for (const FlowRecord& f : flows_) flows_by_begin.emplace(f.begin, &f);

  std::map<int, std::map<int, int>> votes;
  for (const trace::Event& ev : *events_) {
    if (ev.phase != 'X' || ev.category != trace::Category::kComm ||
        ev.pid != trace::kPidNetwork) {
      continue;
    }
    const int src = static_cast<int>(arg_double(ev, "src", -1));
    const int dst = static_cast<int>(arg_double(ev, "dst", -1));
    if (src < 0 || dst < 0) continue;
    const double bytes = arg_double(ev, "bytes", -1.0);
    auto [lo, hi] = flows_by_begin.equal_range(ev.ts);
    for (auto it = lo; it != hi; ++it) {
      const FlowRecord& f = *it->second;
      if (f.bytes != bytes || f.path.empty()) continue;
      const std::size_t comma = f.path.find(',');
      const std::string first = f.path.substr(0, comma);
      const std::string last = comma == std::string::npos
                                   ? first
                                   : f.path.substr(f.path.rfind(',') + 1);
      const int src_server = server_of_resource(first);
      const int dst_server = server_of_resource(last);
      if (src_server >= 0) ++votes[src][src_server];
      if (dst_server >= 0) ++votes[dst][dst_server];
      break;
    }
  }

  for (auto& [worker, w] : per_worker_) {
    if (w.server >= 0) continue;  // pinned by a topology instant
    auto it = votes.find(worker);
    if (it == votes.end()) continue;
    int best_server = -1, best_count = 0;
    for (const auto& [server, count] : it->second) {
      if (count > best_count) {
        best_server = server;
        best_count = count;
      }
    }
    w.server = best_server;
  }

  // Workers that never communicated: adopt the smallest uniform
  // workers-per-server layout consistent with every mapped pair (the
  // cluster numbers workers server-major, so w / g == server).
  std::vector<std::pair<int, int>> mapped;
  bool any_unmapped = false;
  for (const auto& [worker, w] : per_worker_) {
    if (w.server >= 0) {
      mapped.emplace_back(worker, w.server);
    } else {
      any_unmapped = true;
    }
  }
  if (any_unmapped && !mapped.empty()) {
    for (int g = 1; g <= 64; ++g) {
      bool ok = true;
      for (const auto& [worker, server] : mapped) {
        if (worker / g != server) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (auto& [worker, w] : per_worker_) {
          if (w.server < 0) w.server = worker / g;
        }
        break;
      }
    }
  }

  // Saturation windows of the server's resources, as seen from the worker.
  for (auto& [worker, w] : per_worker_) {
    if (w.server < 0) continue;
    const std::string base = "server" + std::to_string(w.server);
    for (const char* suffix : {".nic.tx", ".nic.rx", ".pcie"}) {
      auto it = saturated_.find(base + suffix);
      if (it != saturated_.end())
        w.nic_saturated = w.nic_saturated.unite(it->second);
    }
  }
}

void TraceView::build_fault_windows() {
  // Pair the fault-instant marks the injection layer emits into outage
  // windows. Events arrive in time order; an outage still open at the end
  // of the trace runs to the wall clock.
  std::map<int, double> gpu_open;      // worker -> down ts
  std::map<int, double> link_open;     // server -> down ts
  std::map<int, IntervalSet> gpu_out;  // per worker
  std::map<int, IntervalSet> link_out;  // per server
  IntervalSet wedged;
  double wedged_open = -1.0;
  for (const trace::Event& ev : *events_) {
    if (ev.phase != 'i' || ev.category != trace::Category::kFault) continue;
    if (ev.name == "gpu_down") {
      gpu_open.emplace(ev.pid, ev.ts);
    } else if (ev.name == "gpu_up") {
      auto it = gpu_open.find(ev.pid);
      if (it != gpu_open.end()) {
        gpu_out[ev.pid].add(it->second, ev.ts);
        gpu_open.erase(it);
      }
    } else if (ev.name == "link_down") {
      link_open.emplace(ev.tid, ev.ts);
    } else if (ev.name == "link_up") {
      auto it = link_open.find(ev.tid);
      if (it != link_open.end()) {
        link_out[ev.tid].add(it->second, ev.ts);
        link_open.erase(it);
      }
    } else if (ev.name == "pipeline_wedged") {
      if (wedged_open < 0.0) wedged_open = ev.ts;
    } else if (ev.name == "pipeline_recovered") {
      if (wedged_open >= 0.0) {
        wedged.add(wedged_open, ev.ts);
        wedged_open = -1.0;
      }
    }
  }
  for (const auto& [worker, ts] : gpu_open) gpu_out[worker].add(ts, wall_clock_);
  for (const auto& [server, ts] : link_open)
    link_out[server].add(ts, wall_clock_);
  if (wedged_open >= 0.0) wedged.add(wedged_open, wall_clock_);

  for (auto& [worker, w] : per_worker_) {
    auto git = gpu_out.find(worker);
    if (git != gpu_out.end()) w.fault = w.fault.unite(git->second);
    if (w.server >= 0) {
      auto lit = link_out.find(w.server);
      if (lit != link_out.end()) w.fault = w.fault.unite(lit->second);
    }
    if (!wedged.empty()) w.fault = w.fault.unite(wedged);
  }
}

const IntervalSet& TraceView::compute_busy(int worker) const {
  auto it = per_worker_.find(worker);
  return it == per_worker_.end() ? kEmptySet : it->second.compute;
}

const IntervalSet& TraceView::fp_busy(int worker) const {
  auto it = per_worker_.find(worker);
  return it == per_worker_.end() ? kEmptySet : it->second.fp;
}

const IntervalSet& TraceView::bp_busy(int worker) const {
  auto it = per_worker_.find(worker);
  return it == per_worker_.end() ? kEmptySet : it->second.bp;
}

const IntervalSet& TraceView::comm_busy(int worker) const {
  auto it = per_worker_.find(worker);
  return it == per_worker_.end() ? kEmptySet : it->second.comm;
}

const std::vector<const trace::Event*>& TraceView::compute_spans(
    int worker) const {
  auto it = per_worker_.find(worker);
  return it == per_worker_.end() ? kNoSpans : it->second.compute_spans;
}

const IntervalSet& TraceView::resource_saturated(
    const std::string& resource) const {
  auto it = saturated_.find(resource);
  return it == saturated_.end() ? kEmptySet : it->second;
}

std::vector<std::string> TraceView::resource_names() const {
  std::vector<std::string> out;
  out.reserve(saturated_.size());
  for (const auto& [name, set] : saturated_) out.push_back(name);
  return out;
}

const IntervalSet& TraceView::nic_saturated(int worker) const {
  auto it = per_worker_.find(worker);
  return it == per_worker_.end() ? kEmptySet : it->second.nic_saturated;
}

int TraceView::server_of(int worker) const {
  auto it = per_worker_.find(worker);
  return it == per_worker_.end() ? -1 : it->second.server;
}

const IntervalSet& TraceView::fault_windows(int worker) const {
  auto it = per_worker_.find(worker);
  return it == per_worker_.end() ? kEmptySet : it->second.fault;
}

}  // namespace autopipe::analysis
