#include "sim/cluster.hpp"

#include <string>
#include <utility>

#include "common/expect.hpp"

namespace autopipe::sim {

namespace {
/// PCIe 3.0 x16 effective ≈ 12 GB/s, shared by the GPUs of one server.
constexpr BytesPerSec kPcieBandwidth = 12e9;
}  // namespace

Cluster::Cluster(Simulator& simulator, ClusterConfig config)
    : sim_(simulator), config_(std::move(config)), network_(simulator) {
  AUTOPIPE_EXPECT(config_.num_servers >= 1);
  AUTOPIPE_EXPECT(config_.gpus_per_server >= 1);
  AUTOPIPE_EXPECT(!config_.gpu_specs.empty());
  AUTOPIPE_EXPECT(config_.nic_bandwidth > 0.0);

  const std::size_t workers = num_workers();
  AUTOPIPE_EXPECT_MSG(
      config_.gpu_specs.size() == 1 || config_.gpu_specs.size() == workers,
      "gpu_specs must have 1 entry or one per worker");

  for (std::size_t s = 0; s < config_.num_servers; ++s) {
    const std::string base = "server" + std::to_string(s);
    nic_tx_.push_back(
        network_.add_resource(base + ".nic.tx", config_.nic_bandwidth));
    nic_rx_.push_back(
        network_.add_resource(base + ".nic.rx", config_.nic_bandwidth));
    pcie_.push_back(
        network_.add_resource(base + ".pcie", kPcieBandwidth));
    nic_bw_.push_back(config_.nic_bandwidth);
  }
  if (config_.servers_per_rack > 0) {
    AUTOPIPE_EXPECT(config_.rack_uplink_bandwidth > 0.0);
    for (std::size_t r = 0; r < num_racks(); ++r) {
      const std::string base = "rack" + std::to_string(r);
      uplink_tx_.push_back(network_.add_resource(
          base + ".uplink.tx", config_.rack_uplink_bandwidth));
      uplink_rx_.push_back(network_.add_resource(
          base + ".uplink.rx", config_.rack_uplink_bandwidth));
    }
  }
  for (std::size_t w = 0; w < workers; ++w) {
    const GpuSpec& spec = config_.gpu_specs.size() == 1
                              ? config_.gpu_specs.front()
                              : config_.gpu_specs[w];
    gpus_.emplace_back(sim_, spec);
  }
  worker_up_.assign(workers, 1);
  link_up_.assign(config_.num_servers, 1);
  profiler_muted_.assign(workers, 0);
  worker_down_eid_.assign(workers, 0);
  link_down_eid_.assign(config_.num_servers, 0);
}

std::size_t Cluster::server_of(WorkerId worker) const {
  AUTOPIPE_EXPECT(worker < num_workers());
  return worker / config_.gpus_per_server;
}

std::size_t Cluster::rack_of_server(std::size_t server) const {
  AUTOPIPE_EXPECT(server < config_.num_servers);
  if (config_.servers_per_rack == 0) return 0;
  return server / config_.servers_per_rack;
}

std::size_t Cluster::num_racks() const {
  if (config_.servers_per_rack == 0) return 1;
  return (config_.num_servers + config_.servers_per_rack - 1) /
         config_.servers_per_rack;
}

GpuExecutor& Cluster::gpu(WorkerId worker) {
  AUTOPIPE_EXPECT(worker < num_workers());
  return gpus_[worker];
}

const GpuExecutor& Cluster::gpu(WorkerId worker) const {
  AUTOPIPE_EXPECT(worker < num_workers());
  return gpus_[worker];
}

std::vector<ResourceId> Cluster::path(WorkerId src, WorkerId dst) const {
  AUTOPIPE_EXPECT(src < num_workers());
  AUTOPIPE_EXPECT(dst < num_workers());
  if (src == dst) return {};
  const std::size_t ss = server_of(src);
  const std::size_t ds = server_of(dst);
  if (ss == ds) return {pcie_[ss]};
  const std::size_t sr = rack_of_server(ss);
  const std::size_t dr = rack_of_server(ds);
  if (config_.servers_per_rack == 0 || sr == dr)
    return {nic_tx_[ss], nic_rx_[ds]};
  // Cross-rack: the transfer also claims a share of both rack uplinks.
  return {nic_tx_[ss], uplink_tx_[sr], uplink_rx_[dr], nic_rx_[ds]};
}

FlowId Cluster::transfer(WorkerId src, WorkerId dst, Bytes bytes,
                         std::function<void()> on_complete) {
  auto p = path(src, dst);
  if (p.empty()) {
    // Device-local move: modelled as free (HBM bandwidth dwarfs the network).
    if (on_complete) sim_.after(0.0, std::move(on_complete));
    return 0;
  }
  return network_.start_flow(
      FlowSpec{std::move(p), bytes, std::move(on_complete)});
}

void Cluster::set_nic_bandwidth(std::size_t server, BytesPerSec bandwidth) {
  AUTOPIPE_EXPECT(server < config_.num_servers);
  nic_bw_[server] = bandwidth;
  // Record the instant *before* touching capacities: the rate recompute
  // reschedules flow completions, whose causal parent must be this change.
  if (sim_.tracer().enabled()) {
    sim_.tracer().instant(trace::Category::kResource, "nic_bw", sim_.now(),
                          trace::kPidResource, static_cast<int>(server),
                          {trace::arg("gbps", bandwidth * 8.0 / 1e9)});
  }
  network_.set_capacity(nic_tx_[server], bandwidth);
  network_.set_capacity(nic_rx_[server], bandwidth);
}

void Cluster::set_all_nic_bandwidth(BytesPerSec bandwidth) {
  for (std::size_t s = 0; s < config_.num_servers; ++s)
    set_nic_bandwidth(s, bandwidth);
}

BytesPerSec Cluster::nic_bandwidth(std::size_t server) const {
  AUTOPIPE_EXPECT(server < config_.num_servers);
  return link_up_[server] != 0 ? nic_bw_[server] : 0.0;
}

BytesPerSec Cluster::configured_nic_bandwidth(std::size_t server) const {
  AUTOPIPE_EXPECT(server < config_.num_servers);
  return nic_bw_[server];
}

void Cluster::set_worker_down(WorkerId worker) {
  AUTOPIPE_EXPECT(worker < num_workers());
  if (worker_up_[worker] == 0) return;
  worker_up_[worker] = 0;
  // Instant first: everything the preemption triggers (dropped work,
  // executor recovery scheduling) chains to this fault as ambient cause.
  worker_down_eid_[worker] =
      sim_.tracer().instant(trace::Category::kFault, "gpu_down", sim_.now(),
                            static_cast<int>(worker), 0);
  gpu(worker).set_available(false);
  sim_.metrics().add("cluster.gpu_down", 1.0);
  notify_worker_state(worker, false);
}

void Cluster::set_worker_up(WorkerId worker) {
  AUTOPIPE_EXPECT(worker < num_workers());
  if (worker_up_[worker] != 0) return;
  worker_up_[worker] = 1;
  // The recovery is explicitly caused by the outage it ends.
  sim_.tracer().instant(trace::Category::kFault, "gpu_up", sim_.now(),
                        static_cast<int>(worker), 0, {},
                        worker_down_eid_[worker]);
  gpu(worker).set_available(true);
  sim_.metrics().add("cluster.gpu_up", 1.0);
  notify_worker_state(worker, true);
}

bool Cluster::worker_up(WorkerId worker) const {
  AUTOPIPE_EXPECT(worker < num_workers());
  return worker_up_[worker] != 0;
}

void Cluster::set_link_down(std::size_t server) {
  AUTOPIPE_EXPECT(server < config_.num_servers);
  if (link_up_[server] == 0) return;
  link_up_[server] = 0;
  // Instant first: stalled-flow reschedules and switch aborts triggered by
  // this outage chain to it as ambient cause.
  link_down_eid_[server] =
      sim_.tracer().instant(trace::Category::kFault, "link_down", sim_.now(),
                            trace::kPidResource, static_cast<int>(server));
  network_.set_resource_down(nic_tx_[server]);
  network_.set_resource_down(nic_rx_[server]);
  sim_.metrics().add("cluster.link_down", 1.0);
  notify_link_state(server, false);
}

void Cluster::set_link_up(std::size_t server) {
  AUTOPIPE_EXPECT(server < config_.num_servers);
  if (link_up_[server] != 0) return;
  link_up_[server] = 1;
  // The restore is explicitly caused by the outage it ends; resumed flow
  // completions then chain to the restore via the ambient cause.
  sim_.tracer().instant(trace::Category::kFault, "link_up", sim_.now(),
                        trace::kPidResource, static_cast<int>(server), {},
                        link_down_eid_[server]);
  network_.set_resource_up(nic_tx_[server]);
  network_.set_resource_up(nic_rx_[server]);
  sim_.metrics().add("cluster.link_up", 1.0);
  notify_link_state(server, true);
}

bool Cluster::link_up(std::size_t server) const {
  AUTOPIPE_EXPECT(server < config_.num_servers);
  return link_up_[server] != 0;
}

void Cluster::set_profiler_muted(WorkerId worker, bool muted) {
  AUTOPIPE_EXPECT(worker < num_workers());
  if ((profiler_muted_[worker] != 0) == muted) return;
  profiler_muted_[worker] = muted ? 1 : 0;
  if (sim_.tracer().enabled()) {
    sim_.tracer().instant(trace::Category::kFault,
                          muted ? "profiler_mute" : "profiler_unmute",
                          sim_.now(), static_cast<int>(worker), 0);
  }
}

bool Cluster::profiler_muted(WorkerId worker) const {
  AUTOPIPE_EXPECT(worker < num_workers());
  return profiler_muted_[worker] != 0;
}

void Cluster::add_background_job(WorkerId worker) {
  GpuExecutor& g = gpu(worker);
  g.set_tenant_count(g.tenant_count() + 1);
  if (sim_.tracer().enabled()) {
    sim_.tracer().instant(trace::Category::kResource, "bg_add", sim_.now(),
                          trace::kPidResource, static_cast<int>(worker),
                          {trace::arg("tenants", g.tenant_count())});
  }
}

void Cluster::remove_background_job(WorkerId worker) {
  GpuExecutor& g = gpu(worker);
  AUTOPIPE_EXPECT_MSG(g.tenant_count() > 1,
                      "no background job to remove on worker " << worker);
  g.set_tenant_count(g.tenant_count() - 1);
  if (sim_.tracer().enabled()) {
    sim_.tracer().instant(trace::Category::kResource, "bg_remove", sim_.now(),
                          trace::kPidResource, static_cast<int>(worker),
                          {trace::arg("tenants", g.tenant_count())});
  }
}

std::uint64_t Cluster::add_worker_state_callback(WorkerStateCallback cb) {
  const std::uint64_t token = next_callback_token_++;
  worker_state_callbacks_.emplace_back(token, std::move(cb));
  return token;
}

void Cluster::remove_worker_state_callback(std::uint64_t token) {
  for (auto it = worker_state_callbacks_.begin();
       it != worker_state_callbacks_.end(); ++it) {
    if (it->first == token) {
      worker_state_callbacks_.erase(it);
      return;
    }
  }
}

std::uint64_t Cluster::add_link_state_callback(LinkStateCallback cb) {
  const std::uint64_t token = next_callback_token_++;
  link_state_callbacks_.emplace_back(token, std::move(cb));
  return token;
}

void Cluster::remove_link_state_callback(std::uint64_t token) {
  for (auto it = link_state_callbacks_.begin();
       it != link_state_callbacks_.end(); ++it) {
    if (it->first == token) {
      link_state_callbacks_.erase(it);
      return;
    }
  }
}

void Cluster::notify_worker_state(WorkerId worker, bool up) {
  // Copy: an observer may unregister (or register) from within its callback
  // (an executor tearing down a switch attempt), which would invalidate
  // iterators into the live vector.
  auto observers = worker_state_callbacks_;
  for (auto& [token, cb] : observers)
    if (cb) cb(worker, up);
}

void Cluster::notify_link_state(std::size_t server, bool up) {
  auto observers = link_state_callbacks_;
  for (auto& [token, cb] : observers)
    if (cb) cb(server, up);
}

}  // namespace autopipe::sim
