// The shared GPU cluster: servers with one NIC each and several GPUs behind
// a single non-blocking switch, matching the paper's testbed (5 servers × 2
// P100, one 100Gbps ConnectX-5 NIC per server, one SN2100 switch).
//
// Workers are GPUs, numbered 0..num_workers-1 in server-major order. Flows
// between workers on the same server consume the server's PCIe resource;
// flows between servers consume the sender's NIC-tx and the receiver's
// NIC-rx resources. NIC capacity and per-GPU tenancy can change at any
// simulated instant, which is exactly the fluctuation AutoPipe reacts to.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/units.hpp"
#include "sim/flow_network.hpp"
#include "sim/gpu.hpp"
#include "sim/simulator.hpp"

namespace autopipe::sim {

using WorkerId = std::size_t;

struct ClusterConfig {
  std::size_t num_servers = 5;
  std::size_t gpus_per_server = 2;
  /// Accelerator types, one per GPU slot; a single entry is broadcast to
  /// every slot (the paper's homogeneous-P100 testbed).
  std::vector<GpuSpec> gpu_specs = {p100_spec()};
  BytesPerSec nic_bandwidth = gbps(100);
  /// Optional two-tier topology: servers grouped into racks of this size,
  /// with an oversubscribed uplink per rack toward the core. 0 keeps the
  /// paper's single-switch testbed. PipeDream's planner *assumes* such a
  /// hierarchy has uniform per-level bandwidth; the simulator lets that
  /// assumption be tested against real rack-uplink contention.
  std::size_t servers_per_rack = 0;
  BytesPerSec rack_uplink_bandwidth = gbps(100);
};

class Cluster {
 public:
  Cluster(Simulator& simulator, ClusterConfig config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::size_t num_servers() const { return config_.num_servers; }
  std::size_t num_workers() const {
    return config_.num_servers * config_.gpus_per_server;
  }
  std::size_t server_of(WorkerId worker) const;
  /// Rack of a server; all servers share rack 0 on a single-switch cluster.
  std::size_t rack_of_server(std::size_t server) const;
  std::size_t num_racks() const;

  GpuExecutor& gpu(WorkerId worker);
  const GpuExecutor& gpu(WorkerId worker) const;

  FlowNetwork& network() { return network_; }
  const FlowNetwork& network() const { return network_; }
  Simulator& simulator() { return sim_; }

  /// Resource path a transfer from src to dst traverses. src == dst yields
  /// an empty path, which callers should treat as a free local copy.
  std::vector<ResourceId> path(WorkerId src, WorkerId dst) const;

  /// Convenience: start a byte transfer between two workers. A src==dst
  /// "transfer" completes via an immediate event.
  FlowId transfer(WorkerId src, WorkerId dst, Bytes bytes,
                  std::function<void()> on_complete);

  // --- dynamic resource state ------------------------------------------

  void set_nic_bandwidth(std::size_t server, BytesPerSec bandwidth);
  void set_all_nic_bandwidth(BytesPerSec bandwidth);
  /// Effective bandwidth: 0 while the server's link is down.
  BytesPerSec nic_bandwidth(std::size_t server) const;
  /// The configured (tenant-modulated) bandwidth regardless of link state.
  /// Relative adjustments (background churn scaling up/down) must read this
  /// one: scaling the effective value latches a mid-outage zero forever.
  BytesPerSec configured_nic_bandwidth(std::size_t server) const;

  /// Add / remove one co-located background job on a GPU (adjusts the
  /// executor's tenant count).
  void add_background_job(WorkerId worker);
  void remove_background_job(WorkerId worker);

  // --- fault state (hard down/up transitions, not capacity changes) -----

  /// Preempt / return a worker's GPU. Down drops its in-flight and queued
  /// compute (see GpuExecutor::set_available), emits a fault trace instant
  /// and notifies the registered worker-state callback. Idempotent.
  void set_worker_down(WorkerId worker);
  void set_worker_up(WorkerId worker);
  bool worker_up(WorkerId worker) const;

  /// Fail / restore a server's NIC (both directions). The nominal bandwidth
  /// is remembered across the outage; in-flight flows stall and resume.
  void set_link_down(std::size_t server);
  void set_link_up(std::size_t server);
  bool link_up(std::size_t server) const;

  /// A worker that is up *and* whose server link is up: usable by a plan.
  bool worker_reachable(WorkerId worker) const {
    return worker_up(worker) && link_up(server_of(worker));
  }

  /// Profiler dropout: while muted, measurement consumers (the AutoPipe
  /// controller) hold the last good sample for this worker instead of
  /// reading fresh — modelling a monitoring-agent outage, not a GPU one.
  void set_profiler_muted(WorkerId worker, bool muted);
  bool profiler_muted(WorkerId worker) const;

  /// Observers for worker down/up transitions. Multi-slot: every pipeline
  /// executor registers one, and a co-tenancy JobManager adds its own to
  /// reassign ownership of preempted GPUs. Called synchronously from
  /// set_worker_* in registration order. add returns a token for remove.
  using WorkerStateCallback = std::function<void(WorkerId, bool up)>;
  std::uint64_t add_worker_state_callback(WorkerStateCallback cb);
  void remove_worker_state_callback(std::uint64_t token);

  /// Observers for server-link down/up transitions (multi-slot, same token
  /// protocol; a pipeline executor registers one so a link failure can abort
  /// an in-flight partition switch). Called synchronously from set_link_*.
  using LinkStateCallback = std::function<void(std::size_t server, bool up)>;
  std::uint64_t add_link_state_callback(LinkStateCallback cb);
  void remove_link_state_callback(std::uint64_t token);

  const ClusterConfig& config() const { return config_; }

 private:
  Simulator& sim_;
  ClusterConfig config_;
  FlowNetwork network_;
  /// By value in a deque: executors are immovable (the simulator holds
  /// their this-pointers in scheduled closures) and deque never relocates
  /// elements, so gpu(w) is one indexed access with no per-GPU allocation.
  std::deque<GpuExecutor> gpus_;
  std::vector<ResourceId> nic_tx_;
  std::vector<ResourceId> nic_rx_;
  std::vector<ResourceId> pcie_;
  std::vector<ResourceId> uplink_tx_;  // per rack (two-tier only)
  std::vector<ResourceId> uplink_rx_;
  std::vector<BytesPerSec> nic_bw_;
  /// Byte flags, not vector<bool>: fault paths and reachability checks read
  /// these at event rate and the proxy-reference bit twiddling shows up.
  std::vector<std::uint8_t> worker_up_;
  std::vector<std::uint8_t> link_up_;
  std::vector<std::uint8_t> profiler_muted_;
  /// Trace eids of the most recent down instants, so the matching up
  /// instant records the outage that it ends as its explicit cause.
  std::vector<std::uint64_t> worker_down_eid_;
  std::vector<std::uint64_t> link_down_eid_;
  void notify_worker_state(WorkerId worker, bool up);
  void notify_link_state(std::size_t server, bool up);

  /// Registered observers, keyed by token. A deterministic vector (not a
  /// map) so notification order is registration order.
  std::vector<std::pair<std::uint64_t, WorkerStateCallback>> worker_state_callbacks_;
  std::vector<std::pair<std::uint64_t, LinkStateCallback>> link_state_callbacks_;
  std::uint64_t next_callback_token_ = 1;
};

}  // namespace autopipe::sim
