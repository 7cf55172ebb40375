#include "sim/trace.hpp"

#include <sstream>

namespace autopipe::sim {

std::string TraceEvent::describe() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kSetAllNicBandwidth:
      os << "set all NIC bandwidth to " << value * 8.0 / 1e9 << " Gbps";
      break;
    case Kind::kSetNicBandwidth:
      os << "set server " << index << " NIC bandwidth to "
         << value * 8.0 / 1e9 << " Gbps";
      break;
    case Kind::kAddGpuJob:
      os << "add background job on worker " << index;
      break;
    case Kind::kAddJobAllGpus:
      os << "add background job on every GPU";
      break;
  }
  return os.str();
}

ResourceTrace& ResourceTrace::at_iteration(std::size_t iter, TraceEvent ev) {
  points_.push_back(TracePoint{iter, ev});
  return *this;
}

std::size_t ResourceTrace::apply_iteration(std::size_t iter,
                                           Cluster& cluster) const {
  std::size_t fired = 0;
  for (const TracePoint& p : points_) {
    if (p.iteration != iter) continue;
    apply(p.event, cluster);
    ++fired;
  }
  return fired;
}

void ResourceTrace::apply(const TraceEvent& ev, Cluster& cluster) {
  Simulator& sim = cluster.simulator();
  if (sim.tracer().enabled()) {
    sim.tracer().instant(trace::Category::kResource, "resource_event",
                         sim.now(), trace::kPidResource, 0,
                         {trace::arg("what", ev.describe())});
  }
  switch (ev.kind) {
    case TraceEvent::Kind::kSetAllNicBandwidth:
      cluster.set_all_nic_bandwidth(ev.value);
      break;
    case TraceEvent::Kind::kSetNicBandwidth:
      cluster.set_nic_bandwidth(ev.index, ev.value);
      break;
    case TraceEvent::Kind::kAddGpuJob:
      cluster.add_background_job(ev.index);
      break;
    case TraceEvent::Kind::kAddJobAllGpus:
      for (WorkerId w = 0; w < cluster.num_workers(); ++w)
        cluster.add_background_job(w);
      break;
  }
}

TraceEvent ResourceTrace::set_all_nic_bandwidth(BytesPerSec bw) {
  return TraceEvent{TraceEvent::Kind::kSetAllNicBandwidth, 0, bw};
}
TraceEvent ResourceTrace::set_nic_bandwidth(std::size_t server,
                                            BytesPerSec bw) {
  return TraceEvent{TraceEvent::Kind::kSetNicBandwidth, server, bw};
}
TraceEvent ResourceTrace::add_gpu_job(WorkerId worker) {
  return TraceEvent{TraceEvent::Kind::kAddGpuJob, worker, 0.0};
}
TraceEvent ResourceTrace::add_job_all_gpus() {
  return TraceEvent{TraceEvent::Kind::kAddJobAllGpus, 0, 0.0};
}

}  // namespace autopipe::sim
